"""Closed-form table, piecewise rate function and stationary enumeration."""

import math

import mpmath
import numpy as np
import pytest

from conftest import make_rng, oracle_discrete_waterfill, random_discrete_model
from hopcap.errors import BracketFailure, DiscreteKindError, ValidationError
from hopcap.fading import DiscreteFinite, FadingModel
from hopcap import discrete, hopopt, waterfill

FIG1 = FadingModel.discrete([(100.0, 0.01), (0.5, 0.99)])
FIG1_LOW = FadingModel.discrete([(100.0, 0.001), (0.5, 0.999)])


def gamma_at(table, d, eta, pt):
    return discrete.gamma_of_pi(table, pt / d**eta)[0]


def hop_breaks(table, eta, pt):
    """Hop distances of the segment breakpoints, d_k = (pt/Pi_k)**(1/eta)."""
    return (pt / np.asarray(table.pi_breaks)) ** (1.0 / eta)


def gamma_slope(model, d, eta, pt):
    """dGamma/dd by the envelope identity, -eta*pi*lam/d."""
    pi = pt / d**eta
    return -eta * pi * waterfill.solve(model, pi).lam / d


def stationary(model, eta, pt):
    return hopopt.stationary_points(hopopt.HopProblem(model=model, eta=eta, pt_prime=pt))


def mpmath_table(model):
    """(pi_breaks, b, Gamma) of a discrete model at unit scale, each from its definition at 40 digits.

    With gains x descending, ``p_k`` and ``alpha_k`` the sums of a_i and
    a_i/x_i over i <= k: ``Pi_k = p_k/x_{k+1} - alpha_k``, ``b_k = (1/p_k)
    * sum_{i<=k} a_i*log(x_i*alpha_k/p_k)`` (``b_0 = 0``), and ``Gamma(Pi) =
    E[log(X/lam)^+]`` with ``lam = p_k/(alpha_k + Pi)`` on the segment of Pi.
    """
    with mpmath.workdps(40):
        x = [mpmath.mpf(v) for v in model.kind.gains]
        a = [mpmath.mpf(v) for v in model.kind.probs]
        p = [mpmath.fsum(a[: k + 1]) for k in range(len(x))]
        alpha = [mpmath.fsum(ai / xi for ai, xi in zip(a[: k + 1], x)) for k in range(len(x))]
        breaks = [p[k] / x[k + 1] - alpha[k] for k in range(len(x) - 1)]
        b = [mpmath.mpf(0)] + [
            mpmath.fsum(a[i] * mpmath.log(x[i] * alpha[k] / p[k]) for i in range(k + 1)) / p[k]
            for k in range(1, len(x))
        ]

    def gamma(pi):
        with mpmath.workdps(40):
            k = sum(1 for v in breaks if v < pi)
            lam = p[k] / (alpha[k] + mpmath.mpf(pi))
            return mpmath.fsum(a[i] * mpmath.log(x[i] / lam) for i in range(k + 1))

    return breaks, b, gamma


class TestBuildTable:
    def test_single_state_degenerate(self):
        table = discrete.build_table(FadingModel.discrete([(1.0, 1.0)]))
        assert np.array_equal(table.p, [1.0])
        assert np.array_equal(table.alpha, [1.0])
        assert np.asarray(table.pi_breaks).size == 0
        assert table.b == (0.0,)

    def test_fig1_hand_values(self):
        table = discrete.build_table(FIG1)
        assert table.p[0] == pytest.approx(0.01, rel=1e-15)
        assert table.alpha[0] == pytest.approx(1e-4, rel=1e-12)
        assert table.alpha[1] == pytest.approx(1.9801, rel=1e-12)
        # breakpoint (1.9801/1 - 0.01) / (100 - 1) = 1.9701 / 99
        assert table.pi_breaks[0] == pytest.approx(1.9701 / 99, rel=1e-12)
        assert table.pi_breaks[0] == pytest.approx(0.0199, rel=1e-10)
        assert table.b[0] == 0.0
        # b_1 = sum_i a_i*log(x_i*alpha_1/p_1), with p_1 = 1
        assert table.b[1] == pytest.approx(
            0.01 * math.log(198.01) + 0.99 * math.log(0.99005), rel=1e-15)

    def test_matches_the_definitions_at_40_digits(self):
        # b enters Gamma as p_k*(b_k + log1p(Pi/alpha_k)) with Pi >= Pi_{k-1} on
        # segment k, so its error is measured against b_k + log1p(Pi_{k-1}/alpha_k)
        rng = make_rng(5)
        for _ in range(200):
            model = random_discrete_model(rng, 12)
            table = discrete.build_table(model)
            breaks, b, gamma = mpmath_table(model)
            for got, want in zip(table.pi_breaks, breaks):
                assert abs(got - want) <= 2e-15 * want
            assert table.b[0] == 0.0
            for k in range(1, table.n_states):
                scale = b[k] + mpmath.log1p(breaks[k - 1] / table.alpha[k])
                assert abs(table.b[k] - b[k]) <= 2e-15 * scale
            for pi in np.exp(rng.uniform(math.log(1e-8), math.log(1e5), 8)).tolist():
                want = gamma(pi)
                assert abs(discrete.gamma_of_pi(table, pi)[0] - want) <= 2e-15 * want

    def test_small_b_within_6e_14_of_itself(self):
        # p_k*b_k grows from the segment below by log1p terms of opposite signs,
        # each of first order in the breakpoint, that cancel to a second-order
        # b_k: their roundings, a few ulps of each, are a larger share of b_k.
        # Measured 3.3e-14 at most on these 400 models, whose smallest b_k is 9e-6
        rng = make_rng(5)
        for _ in range(400):
            model = random_discrete_model(rng, 12)
            table = discrete.build_table(model)
            _, b, _ = mpmath_table(model)
            for k in range(1, table.n_states):
                assert abs(table.b[k] - b[k]) <= 6e-14 * b[k], (model, k)

    @pytest.mark.parametrize("scale", [2.0**-900, 2.0**900], ids=["2**-900", "2**900"])
    def test_gain_scaling_is_exact(self, scale):
        # Pi scales as 1/x and b not at all; a power of two keeps every step exact
        rng = make_rng(6)
        for _ in range(200):
            model = random_discrete_model(rng, 12)
            table = discrete.build_table(model)
            scaled = discrete.build_table(FadingModel.discrete(
                [(g * scale, a) for g, a in zip(model.kind.gains, model.kind.probs)]))
            assert scaled.b == table.b
            assert scaled.pi_breaks == tuple(v / scale for v in table.pi_breaks)

    def test_rejects_continuous(self):
        with pytest.raises(DiscreteKindError):
            discrete.build_table(FadingModel.exponential(1.0))

    def test_degenerate_breakpoints_are_a_validation_error(self):
        # ascending gains bypass the constructor and give a negative breakpoint
        model = FadingModel(DiscreteFinite((1.0, 2.0), (0.5, 0.5)))
        with pytest.raises(ValidationError) as info:
            discrete.build_table(model)
        assert not isinstance(info.value, DiscreteKindError)

    def test_overflowing_breakpoint_is_a_bracket_failure(self):
        with pytest.raises(BracketFailure, match="between the gains 1000.0 and 5e-324 overflows"):
            discrete.build_table(FadingModel.discrete([(1000.0, 0.25), (5e-324, 0.75)]))

    @pytest.mark.parametrize("states, pis", [
        ([(1e300, 1.0)], [1e-290, 1e10, 1e300]),
        ([(1e300, 0.5), (1e-300, 0.5)], [1e10, 5e299, 1e305]),
        ([(1e300, 0.25), (1e-10, 0.5), (1e-300, 0.25)], [1e-5, 1e10, 1e200, 1e305]),
        # the rise of b_1 is log1p(e**z) at z = -25, and 1 - x_2*Pi_1/p_2 rounds to 0
        ([(1e154, 1.0), (1e-155, 1e-320)], [1e10, 1e300]),
        ([(1e20, 1.0), (1.0, 1e-17)], [1e-30, 1.0, 1e10]),
    ], ids=["one-state", "two-states", "three-states", "tiny-prob-subnormal", "tiny-prob"])
    def test_finite_where_a_ratio_overflows(self, states, pis):
        # Pi/alpha_k past the float range, in Gamma or in the b_k recursion, used to
        # give Gamma = inf or b_k = inf, and a rounded 1 - x_k*Pi_{k-1}/p_k = 0 a traceback
        model = FadingModel.discrete(states)
        table = model.table
        breaks, b, gamma = mpmath_table(model)
        for k in range(1, table.n_states):
            scale = b[k] + mpmath.log1p(breaks[k - 1] / table.alpha[k])
            assert abs(table.b[k] - b[k]) <= 2e-15 * scale
        for pi in pis:
            want = gamma(pi)
            assert abs(discrete.gamma_of_pi(table, pi)[0] - want) <= 2e-15 * want
            assert abs(waterfill.gamma_and_lambda(model, pi)[0] - want) <= 2e-15 * want

    def test_table_built_once_per_model(self):
        assert FIG1.table is FIG1.table
        with pytest.raises(DiscreteKindError):
            FadingModel.exponential(1.0).table

    def test_lambda_matches_generic_solver(self):
        rng = make_rng(11)
        for _ in range(5):
            model = random_discrete_model(rng, max_states=5)
            table = discrete.build_table(model)
            c = model.alpha_over_sigma2  # the table is at unit scale, at pi_H = c*pi
            for pi in np.exp(rng.uniform(np.log(1e-4), np.log(1e4), size=100)):
                lam_cf = c * discrete.gamma_of_pi(table, c * float(pi))[1]
                _, lam_ref = oracle_discrete_waterfill(model, float(pi))
                assert lam_cf == pytest.approx(lam_ref, rel=1e-9)


class TestGammaClosedForm:
    def test_single_state_value(self):
        table = discrete.build_table(FadingModel.discrete([(1.0, 1.0)]))
        assert gamma_at(table, d=1.0, eta=3.0, pt=1.0) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_fig1_matches_generic_solver_across_decades(self):
        table = discrete.build_table(FIG1)
        for d in np.geomspace(1e-2, 1e3, 200):
            pi = 1.0 / d**3
            expected, _ = oracle_discrete_waterfill(FIG1, pi)
            got = gamma_at(table, d=float(d), eta=3.0, pt=1.0)
            assert got == pytest.approx(expected, rel=1e-9)

    def test_continuity_at_breakpoints(self):
        rng = make_rng(21)
        for _ in range(10):
            model = random_discrete_model(rng, max_states=6)
            table = discrete.build_table(model)
            eta, pt = 3.0, 1.0
            for d_k in hop_breaks(table, eta, pt):
                hi = gamma_at(table, d_k * (1 + 1e-9), eta, pt)
                lo = gamma_at(table, d_k * (1 - 1e-9), eta, pt)
                assert abs(hi - lo) < 1e-6 * max(lo, 1e-12)

    def test_derivative_matches_finite_difference(self):
        table = discrete.build_table(FIG1)
        rng = make_rng(31)
        breaks = hop_breaks(table, 3.0, 1.0)
        for _ in range(50):
            d = float(np.exp(rng.uniform(np.log(5e-2), np.log(50.0))))
            if np.any(np.abs(d - breaks) / breaks < 1e-3):
                continue
            h = 1e-6 * d
            fd = (gamma_at(table, d + h, 3.0, 1.0) - gamma_at(table, d - h, 3.0, 1.0)) / (2 * h)
            got = gamma_slope(FIG1, d, 3.0, 1.0)
            assert got == pytest.approx(fd, rel=1e-5)
            assert got < 0.0

    def test_derivative_negative_continuous_increasing(self):
        table = discrete.build_table(FIG1)
        ds = np.geomspace(1e-2, 1e3, 400)
        vals = [gamma_slope(FIG1, float(d), 3.0, 1.0) for d in ds]
        assert all(v < 0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        for d_k in hop_breaks(table, 3.0, 1.0):
            hi = gamma_slope(FIG1, d_k * (1 + 1e-9), 3.0, 1.0)
            lo = gamma_slope(FIG1, d_k * (1 - 1e-9), 3.0, 1.0)
            assert hi == pytest.approx(lo, rel=1e-6)


class TestStationaryEnumeration:
    def test_fig1_three_points(self):
        sset = stationary(FIG1, 3.0, 1.0)
        assert len(sset.points) == 3
        assert not sset.unique

    def test_fig1_low_weight_three_points_max_at_first(self):
        sset = stationary(FIG1_LOW, 3.0, 1.0)
        assert len(sset.points) == 3
        assert sset.maximizer_index == 0

    def test_single_state_at_most_one(self):
        sset = stationary(FadingModel.discrete([(1.0, 1.0)]), 3.0, 1.0)
        assert len(sset.points) <= 1
        assert len(sset.points) == 1 and sset.unique

    def test_maximizer_agrees_with_dense_grid(self):
        # self-contained oracle: argmax of d*Gamma over a dense log grid
        for model in (FIG1, FIG1_LOW):
            table = discrete.build_table(model)
            sset = stationary(model, 3.0, 1.0)
            ds = np.geomspace(1e-3, 1e4, 20001)
            psis = np.array([d * gamma_at(table, float(d), 3.0, 1.0) for d in ds])
            best = ds[int(np.argmax(psis))]
            assert sset.maximizer is not None
            assert sset.maximizer.d == pytest.approx(best, rel=2e-3)
            assert sset.maximizer.psi >= psis.max() * (1 - 1e-9)

    def test_count_bound_and_residuals_random_models(self):
        rng = make_rng(404)
        for _ in range(200):
            model = random_discrete_model(rng, max_states=6)
            table = discrete.build_table(model)
            eta = float(rng.uniform(2.0, 4.0))
            pt = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
            sset = stationary(model, eta, pt)
            n = table.n_states
            assert len(sset.points) <= 2 * n - 1
            for pt_ in sset.points:
                residual = pt_.gamma - eta * pt_.pi * pt_.lam
                assert abs(residual) < 1e-8 * max(pt_.gamma, 1e-12)

    def test_points_sorted_ascending_in_d(self):
        sset = stationary(FIG1, 3.0, 1.0)
        ds = [p.d for p in sset.points]
        assert ds == sorted(ds)

    def test_enumeration_complete_against_dense_sign_scan(self):
        # the per-branch bisection must find every root a 20k-point
        # residual sign scan sees, and its maximizer must dominate the
        # dense psi grid; the table's grid is in pi_H = c*pi
        rng = make_rng(31337)
        pis = np.geomspace(1e-10, 1e10, 20001)
        for _ in range(100):
            model = random_discrete_model(rng, max_states=6)
            table = discrete.build_table(model)
            eta = float(rng.uniform(2.0, 4.0))
            pt = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
            sset = stationary(model, eta, pt)
            p, alpha, b = (np.asarray(v) for v in (table.p, table.alpha, table.b))
            k = np.searchsorted(table.pi_breaks, pis, side="left")
            lam = p[k] / (alpha[k] + pis)
            gam = p[k] * (np.log1p(pis / alpha[k]) + b[k])
            res = gam - eta * pis * lam
            scan_count = int(np.sum(np.sign(res[1:]) != np.sign(res[:-1])))
            assert len(sset.points) >= scan_count
            if sset.maximizer is not None:
                psi_grid = (pt / (pis / model.alpha_over_sigma2)) ** (1.0 / eta) * gam
                assert sset.maximizer.psi >= np.max(psi_grid) * (1 - 1e-9)
