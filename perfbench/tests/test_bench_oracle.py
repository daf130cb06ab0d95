"""The reference check against known values and closed forms."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import oracle
import workloads


def test_exponential_optimum_matches_the_readme():
    # rate 1, alpha/sigma^2 1, eta 2: pi_opt = 1.9638
    pts = oracle.stationary_points(oracle.ExponentialRef(1.0, 1.0), 2.0, 1.0)
    assert len(pts) == 1
    assert pts[0].pi == pytest.approx(1.9638, abs=5e-5)


def test_two_state_stationary_distances_match_the_readme():
    ref = oracle.DiscreteRef((100.0, 0.5), (0.01, 0.99), 1.0)
    pts = oracle.stationary_points(ref, 3.0, 1.0)
    assert [p.d for p in pts] == pytest.approx([0.3233, 2.8383, 8.5856], abs=5e-5)
    assert [ref.active(p.lam) for p in pts] == [2, 2, 1]


def test_single_state_waterfill_closed_form():
    ref = oracle.DiscreteRef((2.0,), (1.0,), 1.5)
    pis = np.array([1e-4, 0.3, 10.0])
    lam = oracle.lam_of_pi(ref, pis)
    np.testing.assert_allclose(lam, 1.0 / (pis + 1.0 / 3.0), rtol=1e-13)
    np.testing.assert_allclose(ref.rate(lam), np.log(3.0 * (pis + 1.0 / 3.0)), rtol=1e-12)


def _exact_power(nodes, f, lam):
    """Cell-by-cell closed form of E[(1/lam - 1/X)^+] for a piecewise-linear f."""
    total = 0.0
    for i in range(nodes.size - 1):
        a, b = max(nodes[i], lam), nodes[i + 1]
        if b <= a:
            continue
        c1 = (f[i + 1] - f[i]) / (nodes[i + 1] - nodes[i])
        c0 = f[i] - c1 * nodes[i]
        total += c0 * ((b - a) / lam - math.log(b / a)) + c1 * ((b * b - a * a) / (2 * lam) - (b - a))
    return total


def test_tabulated_quadrature_is_well_inside_its_tolerance():
    h = np.linspace(0.0, 12.0, 41)
    a = np.exp(-h)
    a /= np.trapezoid(a, h)
    ref = oracle.TabulatedRef(h, a, 2.0)
    for lam in (1e-3, 0.05, 1.0, 7.0, 20.0):
        want = _exact_power(2.0 * h, a / 2.0, lam)
        assert float(ref.power(lam)) == pytest.approx(want, rel=oracle.RTOL["tabulated"] / 4)


def test_exponential_mean_log1p_matches_quadrature():
    ref = oracle.ExponentialRef(1.5, 2.0)
    nu = 0.75
    want, _ = quad(lambda x: math.log1p(0.4 * x) * nu * math.exp(-nu * x), 0, np.inf)
    assert ref.mean_log1p(0.4) == pytest.approx(want, rel=1e-10)


def _sim_op(model, policy="waterfill", label="simulate:x"):
    sim = {"d_m": 0.5, "horizon": 1000, "seed": 1, "policy": policy}
    if policy == "constant":
        sim["constant_power_W"] = 1.0
    return workloads.Op(label, "simulate", model, (), sim=sim)


def _tab41_op():
    return _sim_op(workloads.models(3)["tab41"], "constant", oracle.KNOWN_RED_OP)


def test_renewal_check_flags_an_estimate_outside_its_tolerance():
    op = _sim_op(workloads.models(3)["two_state"])
    checker = oracle.Checker()
    theta, power = checker.renewal(op)
    report = {"theta_hat_bps": theta, "theta_ci95_bps": theta * 1e-3,
              "power_hat_w": power, "power_ci95_w": power * 1e-3}
    assert checker.sim_z(op, report) == pytest.approx({"theta": 0.0, "power": 0.0}, abs=1e-6)
    checker._raise_if_outside(op, checker.sim_z(op, report))
    report["theta_hat_bps"] = theta * (1 + 1e-3 * (oracle.SIM_TOL_CI95 + 0.5))
    z = checker.sim_z(op, report)
    assert z["theta"] == pytest.approx(oracle.SIM_TOL_CI95 + 0.5)
    with pytest.raises(oracle.CheckError) as info:
        checker._raise_if_outside(op, z)
    assert not isinstance(info.value, oracle.KnownRed)


def test_only_the_known_theta_bias_on_tab41_is_known_red():
    op = _tab41_op()
    with pytest.raises(oracle.KnownRed):
        oracle.Checker._raise_if_outside(op, {"theta": 9.0, "power": 0.3})


@pytest.mark.parametrize("z", [
    {"theta": 0.0, "power": 3.0},  # a power miss, whatever theta does
    {"theta": 9.0, "power": -3.0},
    {"theta": 15.0, "power": 0.0},  # a theta miss far beyond the known bias
    {"theta": -9.0, "power": 0.0},  # the bias has the other sign
])
def test_other_misses_on_tab41_count_as_failed(z):
    with pytest.raises(oracle.CheckError) as info:
        oracle.Checker._raise_if_outside(_tab41_op(), z)
    assert not isinstance(info.value, oracle.KnownRed)


def test_the_known_bias_on_another_op_counts_as_failed():
    op = _sim_op(workloads.models(3)["tab41"], "constant")
    with pytest.raises(oracle.CheckError) as info:
        oracle.Checker._raise_if_outside(op, {"theta": 9.0, "power": 0.0})
    assert not isinstance(info.value, oracle.KnownRed)


def test_renewal_rate_for_waterfill_is_gamma():
    model = workloads.models(5)["exp_a1_eta2"]
    op = _sim_op(model)
    theta, power = oracle.Checker().renewal(op)
    ref = oracle.ExponentialRef(1.0, 1.0)
    gamma = float(ref.rate(oracle.lam_of_pi(ref, [model.pt_prime / 0.5**2])[0]))
    m = workloads.MAC
    cycle = (m["p_idle"] * m["T_idle_s"] + m["p_collision"] * m["T_collision_s"]
             + m["p_success"] * (m["T_overhead_s"] + m["T_txop_s"]))
    assert theta == pytest.approx(m["p_success"] * m["W_hz"] * m["T_txop_s"] * gamma / math.log(2) / cycle)
    assert power > 0


def test_same_seed_gives_identical_inputs(tmp_path):
    first = workloads.generate("design", 11, tmp_path / "a")
    again = workloads.generate("design", 11, tmp_path / "b")
    other = workloads.generate("design", 12, tmp_path / "c")
    assert first.sha256 == again.sha256
    assert first.sha256 != other.sha256
    assert len(first.ops) == 18
