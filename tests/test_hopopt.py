"""Hop-distance optimization: stationary points, and conftest's checks of the paper's claims."""

import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import IntegrationWarning, quad

from conftest import (
    bisect_scalar,
    boundary_limits,
    make_rng,
    oracle_cell_integrals,
    oracle_stationary_residuals,
    psi,
    random_tabulated_model,
    rechar_integral,
    rechar_roots,
    scaling_check,
    stationarity_weight,
    stationary_residual,
)
from hopcap.cli import main
from hopcap.errors import BracketFailure
from hopcap.fading import FadingModel
from hopcap import hopopt

# mpmath quadrature + Newton oracle for the exponential stationary point
EXP_ETA2_LAMBDA = 0.25894690868039507
EXP_ETA2_PI = 1.9637611488840108
EXP_ETA2_GAMMA = 1.0170197577803513
EXP_ETA3_LAMBDA = 0.048683201717148424
# plain bisection on log(1+pi) = 3*pi/(1+pi)
SINGLE_STATE_ETA3_PI = 15.801016190708335

EXP_MODEL = FadingModel.exponential(1.0)
FIG1 = FadingModel.discrete([(100.0, 0.01), (0.5, 0.99)])
UNIFORM = FadingModel.tabulated(np.linspace(0.5, 1.5, 101), np.ones(101))

# two triangles, peaked at h = 0.5 (weight 1 - w) and h = 100 (weight w): at
# eta = 3 the rate has a close pair of roots 0.84% apart in lam, closer than
# the 1.16% step of a 2000-point scan over the pi window [1e-8, 1e8]
TWO_TRIANGLE_W = 0.2154894657929
TWO_TRIANGLE_FAR_D = 3.085


def exp_problem(eta=2.0, pt=1.0):
    return hopopt.HopProblem(model=EXP_MODEL, eta=eta, pt_prime=pt)


def fig1_problem(pt=1.0):
    return hopopt.HopProblem(model=FIG1, eta=3.0, pt_prime=pt)


class TestPsi:
    def test_single_state_value(self):
        problem = hopopt.HopProblem(
            model=FadingModel.discrete([(1.0, 1.0)]), eta=3.0, pt_prime=1.0
        )
        assert psi(problem, 1.0) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_exponential_positive_and_vanishing_at_ends(self):
        problem = exp_problem()
        ds = np.geomspace(0.05, 50.0, 400)
        vals = np.array([psi(problem, float(d)) for d in ds])
        assert np.all(vals >= 0)
        # single interior peak; decay toward both ends is log-slow, so only
        # the direction and a coarse drop are asserted on this window
        assert np.all(np.diff(vals[:20]) > 0) and vals[0] < 0.5 * vals.max()
        assert np.all(np.diff(vals[-20:]) < 0) and vals[-1] < 0.5 * vals.max()

    def test_fig1_stationary_points_are_flat(self):
        problem = fig1_problem()
        sset = hopopt.stationary_points(problem)
        for pt in sset.points:
            h = 1e-6 * pt.d
            slope = (psi(problem, pt.d + h) - psi(problem, pt.d - h)) / (2 * h)
            assert abs(slope) < 1e-4 * pt.psi / pt.d

    def test_low_eta_warning(self):
        with pytest.warns(hopopt.EtaBelowTwoWarning):
            hopopt.HopProblem(model=EXP_MODEL, eta=1.5, pt_prime=1.0)


class TestStationaryPoints:
    def test_fig1_has_three(self):
        sset = hopopt.stationary_points(fig1_problem())
        assert len(sset.points) == 3

    def test_exponential_eta2_unique_against_oracle(self):
        sset = hopopt.stationary_points(exp_problem())
        assert len(sset.points) == 1
        assert sset.unique
        point = sset.points[0]
        assert point.lam == pytest.approx(EXP_ETA2_LAMBDA, rel=1e-9)
        assert point.pi == pytest.approx(EXP_ETA2_PI, rel=1e-9)
        assert point.gamma == pytest.approx(EXP_ETA2_GAMMA, rel=1e-9)

    def test_single_state_root_against_bisection_oracle(self):
        root = bisect_scalar(lambda p: math.log1p(p) - 3 * p / (1 + p), 1.0, 1e3)
        assert root == pytest.approx(SINGLE_STATE_ETA3_PI, rel=1e-10)
        problem = hopopt.HopProblem(
            model=FadingModel.discrete([(1.0, 1.0)]), eta=3.0, pt_prime=1.0
        )
        sset = hopopt.stationary_points(problem)
        assert len(sset.points) == 1
        assert sset.points[0].pi == pytest.approx(root, rel=1e-8)

    def test_residual_bound_at_every_point(self):
        for problem in (exp_problem(), exp_problem(eta=3.0), fig1_problem()):
            for pt in hopopt.stationary_points(problem).points:
                residual = stationary_residual(problem, pt.pi)
                assert abs(residual) < 1e-8 * max(pt.gamma, 1e-12)

    def test_psi_derivative_identity(self):
        rng = make_rng(77)
        problem = exp_problem()
        for _ in range(50):
            d = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            h = 1e-6 * d
            fd = (psi(problem, d + h) - psi(problem, d - h)) / (2 * h)
            analytic = stationary_residual(problem, problem.pt_prime / d**problem.eta)
            assert fd == pytest.approx(analytic, rel=1e-4, abs=1e-10)


def exponential_root_u(eta):
    """The root in u = nu*lam of E1(u)*(1 + eta*u) - eta*exp(-u), eta > 1, at 40 digits.

    Bisection in log u on the residual times exp(u), which is positive at
    u = 1e-8 and negative at u = 2000 for every eta in (1, 6].
    """
    with mpmath.workdps(40):
        eta = mpmath.mpf(eta)
        residual = lambda u: mpmath.exp(u) * mpmath.e1(u) * (1 + eta * u) - eta
        lo, hi = mpmath.mpf("1e-8"), mpmath.mpf(2000)
        assert residual(lo) > 0 > residual(hi)
        while hi - lo > lo * mpmath.mpf(10) ** -36:
            mid = mpmath.sqrt(lo * hi)
            lo, hi = (mid, hi) if residual(mid) > 0 else (lo, mid)
        return (lo + hi) / 2


class TestExponentialRootAgainstMpmath:
    """The exponential stationary lam against a 40-digit root, 20 seeded models per eta range.

    The rate is log-uniform in [e^-3, e^3].  Near eta = 1 the root u is
    about (2*eta - 1)/(eta - 1), and there the residual's two terms cancel
    to a relative (eta - 1)**2/(2*eta - 1) of themselves, 1e-4 at eta =
    1.01: each rounding of them moves lam by up to 1e4 ulps, 2.3e-12.
    Measured: 9.7e-13 at most below 1.1, 3.4e-15 above 1.2, where that
    gain is at most 35 and the kernel's own few ulps dominate.  Each bound
    is twice or three times its measure; a residual free of the
    cancellation would tighten the first.
    """

    @pytest.mark.parametrize("lo, hi, bound", [(1.01, 1.1, 2e-12), (1.2, 6.0, 1e-14)],
                             ids=["eta_near_1", "eta_1.2_to_6"])
    def test_lam_within_the_bound(self, lo, hi, bound):
        rng = make_rng(7)
        for _ in range(20):
            eta, rate = float(rng.uniform(lo, hi)), float(np.exp(rng.uniform(-3.0, 3.0)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", hopopt.EtaBelowTwoWarning)
                problem = hopopt.HopProblem(model=FadingModel.exponential(rate), eta=eta, pt_prime=1.0)
            (point,) = hopopt.stationary_points(problem).points
            with mpmath.workdps(40):
                want = exponential_root_u(eta) / rate
                assert abs(point.lam - want) <= bound * want, (eta, rate)


def rechar_matches(problem, rel=1e-6) -> list:
    """The y-domain roots, after asserting that they are `stationary_points`' lams to ``rel``."""
    roots = rechar_roots(problem.model, problem.eta)
    lams = sorted(pt.lam for pt in hopopt.stationary_points(problem).points)
    assert roots == pytest.approx(lams, rel=rel, abs=0)
    return roots


class TestRecharacterisation:
    """The y-domain route to the stationary points, which never inverts pi -> lam."""

    def test_weight_vanishes_at_one(self):
        assert stationarity_weight(1.0, 2.0) == 0.0
        assert stationarity_weight(1.0, 3.7) == 0.0

    def test_exponential_eta2_cross_checks(self):
        assert rechar_matches(exp_problem()) == [pytest.approx(EXP_ETA2_LAMBDA, rel=1e-6)]

    def test_exponential_eta3_has_root(self):
        assert rechar_matches(exp_problem(eta=3.0)) == [pytest.approx(EXP_ETA3_LAMBDA, rel=1e-6)]

    @pytest.mark.parametrize("name", ["single-state", "fig1", "fig1-low", "fig1-heavy", "bimodal"])
    def test_every_root_of_each_kind(self, name):
        # three roots for the two-state weights 0.01, 0.001 and 0.1 of C1 and
        # for the bimodal density; the exponential kind is checked above
        model = {
            "single-state": FadingModel.discrete([(1.0, 1.0)]),
            "fig1": FIG1,
            "fig1-low": FadingModel.discrete([(100.0, 0.001), (0.5, 0.999)]),
            "fig1-heavy": FadingModel.discrete([(100.0, 0.1), (0.5, 0.9)]),
            "bimodal": FadingModel.tabulated(*BIMODAL),
        }[name]
        roots = rechar_matches(hopopt.HopProblem(model=model, eta=3.0, pt_prime=1.0))
        assert len(roots) == (1 if name == "single-state" else 3)

    def test_tabulated_root_on_a_wide_y_range(self):
        # the density ends at x = 0.8, so at the root the integral runs over
        # y in [0.0177, 1]; one 24-node rule on that whole range put lam at
        # 0.0141506, and the cross-check with the pi-space root failed
        model = FadingModel.tabulated([0.0, 0.8, 2.0, 3.0], [2.5, 0.0, 0.0, 0.0])
        problem = hopopt.HopProblem(model=model, eta=3.0, pt_prime=1.0)
        want = hopopt.stationary_points(problem).maximizer.lam
        assert want == pytest.approx(0.014133626118055, rel=1e-12)
        assert rechar_roots(model, 3.0) == [pytest.approx(want, rel=1e-12)]

    @pytest.mark.parametrize("rate,scale", [(1.0, 1.0), (1.0, 10.0), (2.5, 0.3), (0.2, 40.0)])
    @pytest.mark.parametrize("eta", [1.5, 2.0, 3.0, 4.5])
    def test_exponential_integral_matches_quad(self, rate, scale, eta):
        # with t = nu*lam/y the integral is lam * int_u^inf w(u/t) exp(-t) dt
        model = FadingModel.exponential(rate, alpha_over_sigma2=scale)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", hopopt.EtaBelowTwoWarning)
            rechar_matches(hopopt.HopProblem(model=model, eta=eta, pt_prime=1.0))
        nu = rate / scale
        for u in np.geomspace(1e-6, 1e2, 13).tolist():
            w = lambda t: (math.log(u / t) - eta * (u / t - 1.0)) * math.exp(-t)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IntegrationWarning)
                want = quad(w, u, math.inf, epsabs=0.0, epsrel=1e-13, limit=500)[0]
                size = quad(lambda t: abs(w(t)), u, math.inf, epsabs=0.0, epsrel=1e-13, limit=500)[0]
            got = rechar_integral(model, u / nu, eta) / (u / nu)
            assert abs(got - want) <= 1e-13 * size, u

    def test_tabulated_exponential_close_to_analytic(self):
        h = np.linspace(0.0, 25.0, 2001)
        a = np.exp(-h)
        a /= np.trapezoid(a, h)
        model = FadingModel.tabulated(h, a)
        assert rechar_roots(model, 2.0) == [pytest.approx(EXP_ETA2_LAMBDA, rel=1e-4)]


class TestMonotonicityCondition:
    def test_certified_plus_limits_means_one_point(self):
        # the exponential density meets the paper's ratio condition; the exact
        # enumeration then reports exactly one root, flagged unique
        for eta in (2.0, 3.0):
            for rate in (0.5, 1.0, 2.0):
                model = FadingModel.exponential(rate)
                problem = hopopt.HopProblem(model=model, eta=eta, pt_prime=1.0)
                limits = boundary_limits(problem)
                assert limits.zero_ok and limits.infinity_ok
                sset = hopopt.stationary_points(problem)
                assert len(sset.points) == 1 and sset.unique


class TestScaling:
    def test_exponential_eta2_factor4(self):
        check = scaling_check(exp_problem(), 4.0)
        assert check.d_ratio == pytest.approx(2.0, abs=1e-6)
        assert check.psi_ratio == pytest.approx(2.0, abs=1e-6)
        assert check.gamma_opt_delta < 1e-8

    def test_identity_factor(self):
        check = scaling_check(exp_problem(), 1.0)
        assert check.d_ratio == 1.0
        assert check.psi_ratio == 1.0
        assert check.gamma_opt_delta == 0.0

    def test_fig1_factor8(self):
        check = scaling_check(fig1_problem(), 8.0)
        assert check.d_ratio == pytest.approx(2.0, rel=1e-6)

    def test_pi_opt_invariant_across_factors(self):
        base = hopopt.stationary_points(exp_problem()).maximizer.pi
        for factor in (0.5, 2.0, 4.0, 9.0):
            scaled = hopopt.stationary_points(exp_problem(pt=factor)).maximizer.pi
            assert scaled == pytest.approx(base, rel=1e-6)

    def test_d_opt_power_law_across_models(self):
        for problem, eta in ((exp_problem(), 2.0), (fig1_problem(), 3.0)):
            base = hopopt.stationary_points(problem).maximizer.d
            for factor in (0.5, 2.0, 4.0, 9.0):
                check = scaling_check(problem, factor)
                assert check.d_ratio == pytest.approx(factor ** (1 / eta), rel=1e-6)


class TestBoundaryLimits:
    def test_exponential(self):
        limits = boundary_limits(exp_problem())
        assert limits.zero_ok is True
        assert limits.infinity_ok is True

    def test_fig1_discrete(self):
        limits = boundary_limits(fig1_problem())
        assert limits.zero_ok is True
        assert limits.infinity_ok is True

    def test_heavy_tail_skips_infinity_side(self):
        h = np.geomspace(1.0, 1e4, 2001)
        a = h**-1.5
        a /= np.trapezoid(a, h)
        model = FadingModel.tabulated(h, a)
        problem = hopopt.HopProblem(model=model, eta=2.0, pt_prime=1.0)
        limits = boundary_limits(problem)
        assert limits.infinity_ok is None
        assert limits.zero_ok is True


class TestLambdaScanWindow:
    def test_window_can_exclude_roots(self):
        # pi_opt scales with rate/gain, so gains 1e14 times larger put the
        # root near pi = 1e-14, below the pi window [1e-8, 1e8] that a scan
        # would need; the exact solve has no window and finds it
        model = FadingModel.exponential(1.0, alpha_over_sigma2=1e14)
        sset = hopopt.stationary_points(hopopt.HopProblem(model=model, eta=2.0, pt_prime=1.0))
        assert len(sset.points) == 1 and sset.unique
        assert sset.points[0].pi == pytest.approx(EXP_ETA2_PI * 1e-14, rel=1e-9)

    def test_psi_strictly_positive(self):
        problem = exp_problem()
        for d in np.geomspace(1e-2, 1e2, 17):
            assert psi(problem, float(d)) > 0.0

    def test_exponential_extremes_stay_bracketed(self):
        # pi_opt/nu depends only on eta, so wildly scaled rates and gains
        # must land on one normalized optimum without bracket failures
        for eta in (2.0, 4.0, 6.0):
            normalized = []
            for mu, c in ((1e-3, 0.1), (1.0, 1.0), (1e3, 10.0), (1e-3, 10.0)):
                model = FadingModel.exponential(mu, c)
                problem = hopopt.HopProblem(model=model, eta=eta, pt_prime=1.0)
                sset = hopopt.stationary_points(problem)
                assert len(sset.points) == 1 and sset.unique
                normalized.append(sset.points[0].pi / (mu / c))
            assert max(normalized) / min(normalized) - 1 < 1e-12


def two_triangle_model(w=TWO_TRIANGLE_W):
    low, high = np.linspace(0.45, 0.55, 21), np.linspace(95.0, 105.0, 21)
    a_low = (1.0 - w) * 20.0 * np.maximum(1.0 - np.abs(low - 0.5) / 0.05, 0.0)
    a_high = w * 0.2 * np.maximum(1.0 - np.abs(high - 100.0) / 5.0, 0.0)
    return FadingModel.tabulated(np.concatenate((low, high)), np.concatenate((a_low, a_high)))


class TestTabulatedEnumeration:
    def test_close_pair_between_scan_points(self):
        model = two_triangle_model()
        sset = hopopt.stationary_points(hopopt.HopProblem(model=model, eta=3.0, pt_prime=1.0))
        assert len(sset.points) == 3 and not sset.unique
        lams = sorted(pt.lam for pt in sset.points)
        assert lams[1] / lams[0] - 1 < 1.16e-2
        residuals = oracle_stationary_residuals(model, 3.0, lams)
        assert [r > 0 for r in residuals] == [True, False, True, False]
        assert sset.maximizer.d == pytest.approx(TWO_TRIANGLE_FAR_D, rel=1e-3)
        assert sset.maximizer_index == 2

    def test_roots_agree_with_the_cell_oracle(self):
        # random 41-node densities, plus a single rising cell (R' changes sign
        # twice inside it) and a density whose top cell carries no mass; the
        # oracle sees a sign change around every root and zero residual at each
        rng = make_rng(808)
        cases = [(random_tabulated_model(rng, points=41), float(rng.uniform(1.5, 4.0)))
                 for _ in range(12)]
        rising = FadingModel.tabulated([0.0, 1.5], np.array([0.01, 1.0]) / (0.75 * 1.01))
        cases += [(rising, 4.0), (FadingModel.tabulated([0.0, 0.8, 2.0], [2.5, 0.0, 0.0]), 2.0)]
        for model, eta in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", hopopt.EtaBelowTwoWarning)
                problem = hopopt.HopProblem(model=model, eta=eta, pt_prime=1.0)
            sset = hopopt.stationary_points(problem)
            lams = sorted(pt.lam for pt in sset.points)
            residuals = oracle_stationary_residuals(model, eta, lams)
            assert [r > 0 for r in residuals] == [i % 2 == 0 for i in range(len(lams) + 1)]
            for lam in lams:
                power, rate = oracle_cell_integrals(model, lam)
                assert abs(rate - eta * lam * power) < 1e-9 * rate

    def test_a_root_off_its_value_is_a_bracket_failure(self, monkeypatch):
        # a root that fails the residual check is named, not dropped from the set
        model = FadingModel.tabulated(*BIMODAL)
        lams = hopopt._tabulated_roots(model, 3.0)
        assert len(lams) == 3
        monkeypatch.setattr(hopopt, "_tabulated_roots",
                            lambda *_: [lams[0], 1.01 * lams[1], lams[2]])
        problem = hopopt.HopProblem(model=model, eta=3.0, pt_prime=1.0)
        with pytest.raises(BracketFailure, match=r"^the stationary root at pi_H = \S+ has the "):
            hopopt.stationary_points(problem)


class TestEtaAtMostOne:
    @pytest.mark.parametrize("eta", [0.5, 1.0])
    @pytest.mark.parametrize("model", [EXP_MODEL, FIG1, UNIFORM], ids=["exp", "fig1", "uniform"])
    def test_no_points_and_the_far_boundary(self, model, eta):
        with pytest.warns(hopopt.EtaBelowTwoWarning):
            problem = hopopt.HopProblem(model=model, eta=eta, pt_prime=1.0)
        sset = hopopt.stationary_points(problem)
        assert sset.points == () and not sset.unique
        assert sset.boundary == "d->inf" and sset.maximizer is None

    def test_exponential_root_past_underflow_is_a_bracket_failure(self):
        # the root u = nu*lam grows like 1/(eta - 1) and passes u = 700 near
        # eta = 1.0015, where E1 and exp(-u) leave the normal range
        with pytest.warns(hopopt.EtaBelowTwoWarning):
            problem = hopopt.HopProblem(model=EXP_MODEL, eta=1.001, pt_prime=1.0)
        with pytest.raises(BracketFailure):
            hopopt.stationary_points(problem)

    def test_cli_optimize_reports_the_boundary(self, tmp_path, capsys):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(
            "schema_version: 1\nfading:\n  kind: exponential\n  rate: 1.0\n"
            "eta: 1.0\npower:\n  Pt_prime_W: 1.0\n"
        )
        with pytest.warns(hopopt.EtaBelowTwoWarning):
            assert main(["optimize", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "boundary=d->inf" in out and "n_points=0" in out


# test_cli's BIMODAL_CSV: three stationary points at eta = 3
BIMODAL = ([0.25, 0.5, 0.75, 95.0, 100.0, 105.0], [0.0, 3.6, 0.0, 0.0, 0.02, 0.0])
SCALE_MODELS = {
    "exponential": (lambda c: FadingModel.exponential(1.0, c), [1.0]),
    "discrete": (lambda c: FadingModel.discrete(zip(*FIG1.kind), c), list(FIG1.kind.gains)),
    "tabulated": (lambda c: FadingModel.tabulated(*BIMODAL, c), BIMODAL[0]),
}
_NORMAL_MIN = sys.float_info.min


def unit_roots(model, eta=3.0):
    """(pi*c, lam/c, gamma) of every stationary point, c = alpha_over_sigma2."""
    c = model.alpha_over_sigma2
    sset = hopopt.stationary_points(hopopt.HopProblem(model=model, eta=eta, pt_prime=1.0))
    return [v for pt in sset.points for v in (pt.pi * c, pt.lam / c, pt.gamma)]


def normal_exponents(name):
    """Every k for which c = 2**k keeps the nodes and the roots' pi and lam normal floats."""
    build, nodes = SCALE_MODELS[name]
    base = unit_roots(build(1.0))
    ups = nodes + base[1::3]  # scaled by c: nodes and lam
    downs = base[0::3]  # scaled by 1/c: pi
    return [k for k in range(-1074, 1024)
            if all(_NORMAL_MIN <= 2.0**k * v < math.inf for v in ups)
            and all(_NORMAL_MIN <= v / 2.0**k < math.inf for v in downs)]


class TestScaleFree:
    """The roots are found at unit scale; alpha_over_sigma2 = c enters only at the edge."""

    @pytest.mark.parametrize("name", sorted(SCALE_MODELS))
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_power_of_two_scales_are_exact(self, name, data):
        build, _ = SCALE_MODELS[name]
        ks = normal_exponents(name)
        assert ks == list(range(ks[0], ks[-1] + 1)) and ks[0] < -1000 and ks[-1] > 1000
        k = data.draw(st.integers(ks[0], ks[-1]), label="k")
        assert unit_roots(build(2.0**k)) == unit_roots(build(1.0))

    @pytest.mark.parametrize("name", sorted(SCALE_MODELS))
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(log10_c=st.floats(-300.0, 300.0))
    def test_any_scale_keeps_the_roots_or_names_the_scale(self, name, log10_c):
        build, _ = SCALE_MODELS[name]
        c, base = 10.0**log10_c, unit_roots(build(1.0))
        try:
            got = unit_roots(build(c))
        except BracketFailure as exc:
            assert str(exc).startswith(f"alpha_over_sigma2 = {c!r} ")
            # some root's pi = pi_H/c or lam = c*lam_H leaves the float range
            assert any(not 0.0 < v < math.inf
                       for v in [p / c for p in base[0::3]] + [c * lam for lam in base[1::3]])
            return
        assert got == pytest.approx(base, rel=1e-14, abs=0)

    @pytest.mark.parametrize("c", [1e200, 1e300, 1e-100, 1e-200, 1e-300, 2.0**-900, 2.0**900])
    def test_bimodal_scales_that_found_no_point(self, c):
        # x-space kernels found no root here: NoStationaryPoint
        build, _ = SCALE_MODELS["tabulated"]
        assert unit_roots(build(c)) == pytest.approx(unit_roots(build(1.0)), rel=1e-14, abs=0)

    @pytest.mark.parametrize("eta", [2.0, 3.0])
    @pytest.mark.parametrize("s", [1e-307, 1e-189, 1e-100, 1e262])
    def test_bimodal_with_scaled_nodes_keeps_its_roots(self, s, eta):
        # the density of s*H has the roots lam = s*lam_1 and pi = pi_1/s; an absolute
        # tolerance in the root refine found no point at 1e-189, 1e-100 and 1e262,
        # and a start searched below the nodes underflowed at 1e-307
        nodes, values = BIMODAL
        scaled = FadingModel.tabulated([h * s for h in nodes], [a / s for a in values])
        got = unit_roots(scaled, eta)
        got[0::3], got[1::3] = [pi * s for pi in got[0::3]], [lam / s for lam in got[1::3]]
        assert got == pytest.approx(unit_roots(FadingModel.tabulated(*BIMODAL), eta),
                                    rel=1e-14, abs=0)

    @pytest.mark.parametrize("rate, c", [(1.0, 1e-300), (1e-300, 1e9)])
    def test_extreme_exponential_scales_find_the_root(self, rate, c):
        # x-space kernels raised NoStationaryPoint at (1, 1e-300), and at
        # (1e-300, 1e9) a BracketFailure that blamed eta
        assert unit_roots(FadingModel.exponential(rate, c)) == pytest.approx(
            unit_roots(FadingModel.exponential(rate)), rel=1e-14, abs=0)

    def test_two_state_gamma_is_exact_at_a_power_of_two_scale(self):
        # x-space tables moved Gamma at the first root in its 15th digit; the pinned
        # float is the one nearest its 40-digit value 2.81178940913206007
        build, _ = SCALE_MODELS["discrete"]
        assert unit_roots(build(2.0**-900))[2] == unit_roots(build(1.0))[2] == 2.81178940913206

    def test_the_scale_failure_is_a_numerical_exit(self, tmp_path, capsys):
        # lam = c*lam_H = 1.85e308 overflows; x-space kernels blamed eta
        with pytest.raises(BracketFailure, match=r"^alpha_over_sigma2 = 7\.04e\+24 "):
            unit_roots(FadingModel.exponential(1.85e-285, 7.04e24))
        cfg = tmp_path / "run.yaml"
        cfg.write_text("schema_version: 1\nfading: {kind: exponential, rate: 1.85e-285, "
                       "alpha_over_sigma2: 7.04e24}\neta: 3.0\npower: {Pt_prime_W: 1.0}\n")
        assert main(["optimize", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: alpha_over_sigma2 = 7.04e+24 ")
