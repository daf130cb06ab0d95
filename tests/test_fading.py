"""Distribution kinds, change-of-variable densities, moments and tails."""

import ast
import bisect
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from conftest import (
    example_profile,
    make_rng,
    mean_h,
    oracle_cell_integrals,
    oracle_cell_mass,
    pdf_x,
    random_discrete_model,
    random_tabulated_model,
    reference_tabulated_draws,
    tail_decay_check,
    x_tails,
)
from hopcap import discrete, fading, hopopt, macmodel, simulator, waterfill
from hopcap.errors import BracketFailure, DiscreteKindError, NonPositivePi, ValidationError
from hopcap.fading import PROB_SUM_TOL, FadingModel, log_root
from hopcap.hopopt import HopProblem
from hopcap.macmodel import MacProfile


def tabulated_exp(mu=1.0, top=20.0, points=4001, scale=1.0):
    h = np.linspace(0.0, top, points)
    a = np.exp(-mu * h)
    a /= np.trapezoid(a, h)
    return FadingModel.tabulated(h, a, scale)


class TestPdfH:
    # at alpha/sigma^2 = 1 the channel state is the gain, so f = a
    def test_exponential_at_zero_boundary(self):
        assert pdf_x(FadingModel.exponential(1.0), 0.0) == pytest.approx(1.0)

    def test_exponential_closed_form(self):
        assert pdf_x(FadingModel.exponential(2.0), 1.0) == pytest.approx(2.0 * math.exp(-2.0))

    def test_discrete_rejects_density_query(self):
        model = FadingModel.discrete([(1.0, 0.5), (2.0, 0.5)])
        with pytest.raises(DiscreteKindError):
            pdf_x(model, 1.0)

    def test_tabulated_tracks_the_sampled_density(self):
        model = tabulated_exp()
        # the grid normalisation nudges values by ~1e-5; stay within 1e-4
        assert pdf_x(model, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-4)


class TestPdfX:
    def test_identity_scale(self):
        model = FadingModel.exponential(1.0, alpha_over_sigma2=1.0)
        assert pdf_x(model, 1.0) == pytest.approx(math.exp(-1.0))

    def test_scale_rule(self):
        # f(x) = a(x/c)/c with c = 2: at x = 2 the density halves
        model = FadingModel.exponential(1.0, alpha_over_sigma2=2.0)
        assert pdf_x(model, 2.0) == pytest.approx(0.5 * math.exp(-1.0))

    def test_tabulated_matches_analytic_transform(self):
        c = 2.5
        model = tabulated_exp(scale=c)
        h = np.linspace(0.1, 8.0, 50)
        expected = np.interp(h, model.kind.grid, model.kind.density) / c
        got = pdf_x(model, c * h)
        assert np.allclose(got, expected, atol=1e-6)


class TestMeanH:
    def test_exponential(self):
        assert mean_h(FadingModel.exponential(2.0)) == pytest.approx(0.5)

    def test_discrete_weighted_sum(self):
        model = FadingModel.discrete([(100.0, 0.01), (0.5, 0.99)])
        assert mean_h(model) == pytest.approx(1.495)

    def test_tabulated_quadrature(self):
        assert mean_h(tabulated_exp()) == pytest.approx(1.0, abs=1e-4)

    def test_tabulated_mean_is_exact_for_the_linear_density(self):
        # the trapezoid rule on h*a(h) is not exact for a linear density (0.9595 vs 1.00034)
        model = tabulated_exp(points=41)
        h, a = model.kind.grid, model.kind.density
        cells = [
            quad(lambda v: v * (a0 * (h1 - v) + a1 * (v - h0)) / (h1 - h0), h0, h1,
                 epsabs=0, epsrel=1e-13)[0]
            for h0, h1, a0, a1 in zip(h, h[1:], a, a[1:])
        ]
        assert mean_h(model) == pytest.approx(math.fsum(cells), rel=1e-12, abs=0)


class TestTailDecay:
    def test_exponential_true(self):
        assert tail_decay_check(FadingModel.exponential(1.0))

    def test_discrete_true(self):
        assert tail_decay_check(FadingModel.discrete([(3.0, 0.4), (1.0, 0.6)]))

    def test_pareto_like_tail_fails(self):
        h = np.geomspace(1.0, 1e4, 4001)
        a = h**-1.5
        a /= np.trapezoid(a, h)
        assert not tail_decay_check(FadingModel.tabulated(h, a))

    def test_fast_polynomial_tail_passes(self):
        h = np.geomspace(1.0, 1e4, 4001)
        a = h**-4.0
        a /= np.trapezoid(a, h)
        assert tail_decay_check(FadingModel.tabulated(h, a))

    def test_truncated_exponential_passes(self):
        assert tail_decay_check(tabulated_exp())


class TestNormalisationInvariants:
    def test_pdf_h_integrates_to_one(self):
        model = FadingModel.exponential(1.7)
        val, _ = quad(lambda x: pdf_x(model, x), 0, np.inf)
        assert val == pytest.approx(1.0, abs=1e-6)

        tab = tabulated_exp(mu=0.8)
        g = np.array(tab.kind.grid)
        assert np.trapezoid(pdf_x(tab, g), g) == pytest.approx(1.0, abs=1e-6)

    def test_mean_consistency_through_x(self):
        c = 1.9
        model = FadingModel.exponential(1.2, alpha_over_sigma2=c)
        val, _ = quad(lambda x: x * pdf_x(model, x), 0, np.inf)
        assert val == pytest.approx(c * mean_h(model), abs=1e-6)

    def test_z_density_integrates_to_one(self):
        # the density of Z = 1/X is g(z) = f(1/z)/z**2
        def pdf_z(model, z):
            return pdf_x(model, 1.0 / z) / z**2

        model = FadingModel.exponential(1.0)
        val, _ = quad(lambda z: pdf_z(model, z), 0, np.inf, limit=200)
        assert val == pytest.approx(1.0, abs=1e-6)

        # the grid includes h = 0, so g(z) carries an integrable 1/z**2 tail
        tab = tabulated_exp(mu=1.0, top=30.0)
        z = np.geomspace(1.0 / tab.tails.x[-1], 1e6, 2_000_001)
        assert np.trapezoid(pdf_z(tab, z), z) == pytest.approx(1.0, abs=1e-4)

    def test_random_tabulated_models_integrate_to_one(self):
        rng = make_rng(101)
        for _ in range(10):
            model = random_tabulated_model(rng)
            assert np.trapezoid(model.tails.f, model.tails.x) == pytest.approx(1.0, abs=1e-6)


class TestValidation:
    def test_discrete_sorted_descending(self):
        model = FadingModel.discrete([(0.5, 0.99), (100.0, 0.01)])
        assert model.kind.gains == (100.0, 0.5)
        # twelve shuffled states: each probability travels with its gain
        rng = make_rng(12)
        gains = rng.permutation(np.geomspace(1e-2, 1e3, 12)).tolist()
        probs = rng.dirichlet(np.ones(12)).tolist()
        model = FadingModel.discrete(list(zip(gains, probs)))
        pairs = sorted(zip(gains, probs), reverse=True)
        assert model.kind.gains == tuple(h for h, _ in pairs)
        assert model.kind.probs == tuple(a for _, a in pairs)

    def test_discrete_tie_rejected(self):
        with pytest.raises(ValidationError):
            FadingModel.discrete([(1.0, 0.5), (1.0, 0.5)])
        with pytest.raises(ValidationError):  # a tie that only sorting makes adjacent
            FadingModel.discrete([(2.0, 0.3), (1.0, 0.4), (2.0, 0.3)])

    def test_discrete_prob_sum_enforced(self):
        with pytest.raises(ValidationError):
            FadingModel.discrete([(1.0, 0.6), (2.0, 0.5)])

    @pytest.mark.parametrize("gain", [0.0, -1.0])
    def test_discrete_nonpositive_gain_rejected(self, gain):
        with pytest.raises(ValidationError):
            FadingModel.discrete([(2.0, 0.5), (gain, 0.5)])

    @pytest.mark.parametrize("probs", [(1.0, 0.0), (1.5, -0.5)])
    def test_discrete_nonpositive_prob_rejected(self, probs):
        with pytest.raises(ValidationError):
            FadingModel.discrete(list(zip((2.0, 1.0), probs)))

    @pytest.mark.parametrize("excess, ok", [(0.9, True), (-0.9, True), (1.1, False), (-1.1, False)])
    def test_discrete_prob_sum_tolerance_edge_12_states(self, excess, ok):
        # the sum is rounded once from its exact value, in any order of the states
        probs = [1.0 / 12.0] * 11
        probs.append(1.0 - math.fsum(probs) + excess * PROB_SUM_TOL)
        assert (abs(math.fsum(probs) - 1.0) <= PROB_SUM_TOL) == ok
        gains = [10.0 ** (k / 4.0) for k in range(12)]
        for shift in range(12):
            states = list(zip(gains, probs))
            states = states[shift:] + states[:shift]
            if ok:
                assert FadingModel.discrete(states).kind.gains == tuple(gains[::-1])
            else:
                with pytest.raises(ValidationError):
                    FadingModel.discrete(states)

    MAC_TIMES = dict(t_idle=2e-5, t_collision=3e-4, t_overhead=2e-4, t_txop=2e-3, bandwidth=1e6)

    @pytest.mark.parametrize("excess, ok", [(0.9, True), (-0.9, True), (1.1, False), (-1.1, False)])
    def test_mac_prob_sum_tolerance_edge(self, excess, ok):
        # the MAC's three probabilities are held to the same tolerance, summed the same way
        assert macmodel.PROB_SUM_TOL is PROB_SUM_TOL
        probs = (0.6, 0.1, 1.0 - 0.7 + excess * PROB_SUM_TOL)
        assert (abs(math.fsum(probs) - 1.0) <= PROB_SUM_TOL) == ok
        for order in itertools.permutations(probs):
            if ok:
                assert MacProfile(*order, **self.MAC_TIMES)[:3] == order
            else:
                with pytest.raises(ValidationError, match="contention probabilities sum to"):
                    MacProfile(*order, **self.MAC_TIMES)

    def test_mac_prob_sum_does_not_depend_on_the_order(self):
        # exactly 1 - 0.99998e-12; a left-to-right sum of two of the six orders
        # lands on the accepted side, of the other four on the rejected side
        probs = (0.291, 0.063, 0.645999999999)
        assert {abs(sum(order) - 1.0) <= PROB_SUM_TOL
                for order in itertools.permutations(probs)} == {True, False}
        for order in itertools.permutations(probs):
            assert MacProfile(*order, **self.MAC_TIMES)[:3] == order

    def test_exponential_rate_positive(self):
        with pytest.raises(ValidationError):
            FadingModel.exponential(0.0)

    def test_tabulated_normalisation_enforced(self):
        h = np.linspace(0, 1, 11)
        with pytest.raises(ValidationError):
            FadingModel.tabulated(h, np.ones(11) * 2.0)

    def test_tabulated_negative_density_rejected(self):
        h = np.linspace(0, 1, 11)
        a = np.ones(11)
        a[3] = -0.1
        with pytest.raises(ValidationError):
            FadingModel.tabulated(h, a)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: FadingModel.exponential(v),
        lambda v: FadingModel.exponential(1.0, alpha_over_sigma2=v),
        lambda v: FadingModel.discrete([(v, 0.5), (1.0, 0.5)]),
        lambda v: FadingModel.discrete([(2.0, v), (1.0, 0.5)]),
        lambda v: FadingModel.tabulated([0.0, 1.0, v], [1.0, 1.0, 0.0]),
        lambda v: FadingModel.tabulated([0.0, 1.0, 2.0], [0.5, v, 0.5]),
        lambda v: HopProblem(FadingModel.exponential(1.0), eta=v, pt_prime=1.0),
        lambda v: HopProblem(FadingModel.exponential(1.0), eta=3.0, pt_prime=v),
        lambda v: replace_profile(t_idle=v),
        lambda v: replace_profile(bandwidth=v),
        lambda v: waterfill.solve(FadingModel.exponential(1.0), v),
    ],
    ids=["exp-rate", "scale", "gain", "prob", "grid", "density", "eta", "pt-prime",
         "mac-time", "mac-bandwidth", "pi"],
)
def test_non_finite_api_inputs_are_validation_errors(build, value):
    with pytest.raises(ValidationError):
        build(value)


def sim_config(**changes):
    """A constant-power `SimConfig` on the example profile, with some fields changed."""
    fields = dict(profile=example_profile(), model=FadingModel.exponential(1.0),
                  policy=simulator.ConstantPowerPolicy(1.0), d=1.0, eta=3.0, horizon=10_000, seed=0)
    return simulator.SimConfig(**{**fields, **changes})


@pytest.mark.parametrize("build, error, message", [
    (lambda: FadingModel.discrete([]), ValidationError, "at least one state"),
    (lambda: FadingModel.tabulated([0.0, 1.0, 2.0], [0.5, 0.5]), ValidationError, "matching"),
    (lambda: FadingModel.tabulated([0.0], [1.0]), ValidationError, ">= 2 points"),
    (lambda: FadingModel.tabulated([0.0, 1.0, 1.0, 2.0], [0.5] * 4), ValidationError,
     "strictly increasing"),
    (lambda: replace_profile(t_txop=0.0), ValidationError, "t_txop must be > 0"),
    (lambda: replace_profile(bandwidth=0.0), ValidationError, "bandwidth must be > 0"),
    (lambda: macmodel.throughput(example_profile(), -1.0), ValidationError, "mean rate"),
    (lambda: macmodel.network_power(example_profile(), -1.0), ValidationError,
     "mean transmit power"),
    (lambda: macmodel.spatial_reuse_bound(2, 1.0, 1.0, 0.0, 2.0), ValidationError, "must all be > 0"),
    (lambda: waterfill.gamma_and_lambda(FadingModel.exponential(1.0), -1.0), NonPositivePi,
     "pi must be >= 0"),
    (lambda: sim_config(horizon=0), ValidationError, "horizon must be >= 1"),
    (lambda: sim_config(relinquish_overhead=2.5e-3), ValidationError, "relinquish overhead"),
], ids=["discrete-no-state", "tabulated-lengths", "tabulated-one-node", "tabulated-repeated-node",
        "mac-txop-zero", "mac-bandwidth-zero", "throughput-negative", "network-power-negative",
        "reuse-area-zero", "gamma-negative-pi", "sim-horizon-zero", "sim-relinquish-above-txop"])
def test_out_of_range_api_inputs_are_validation_errors(build, error, message):
    with pytest.raises(error, match=message):
        build()


def replace_profile(**changes):
    """The example MAC profile with some fields changed, validated anew."""
    return MacProfile(**{**example_profile()._asdict(), **changes})


class TestCsvLoading:
    def test_round_trip_with_header(self, tmp_path):
        model = tabulated_exp(points=501)
        path = tmp_path / "density.csv"
        lines = ["h,a"] + [
            f"{h:.17g},{a:.17g}" for h, a in zip(model.kind.grid, model.kind.density)
        ]
        path.write_text("\n".join(lines) + "\n")
        loaded = FadingModel.tabulated_from_csv(path)
        assert loaded.kind == model.kind

    def test_round_trip_without_header(self, tmp_path):
        model = tabulated_exp(points=301)
        path = tmp_path / "density.csv"
        lines = [f"{h:.17g},{a:.17g}" for h, a in zip(model.kind.grid, model.kind.density)]
        path.write_text("\n".join(lines) + "\n")
        loaded = FadingModel.tabulated_from_csv(path)
        assert loaded.kind == model.kind

    def test_same_floats_as_numpy_loadtxt(self, tmp_path):
        # np.loadtxt is the oracle; it too skips blank and # lines
        model = random_tabulated_model(make_rng(5))
        rows = [f"{h!r},{a!r}" for h, a in zip(model.kind.grid, model.kind.density)]
        rows[200:200] = ["", "# a comment line"]
        path = tmp_path / "density.csv"
        path.write_text("\n".join(["h,a"] + rows) + "\n")
        want = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        loaded = FadingModel.tabulated_from_csv(path, model.alpha_over_sigma2)
        assert loaded.kind.grid == tuple(want[:, 0].tolist())
        assert loaded.kind.density == tuple(want[:, 1].tolist())
        assert loaded.kind == model.kind


class TestDensityIntegrator:
    def test_matches_dense_trapezoid(self):
        rng = make_rng(7)
        model = random_tabulated_model(rng)
        xg, fg = model.tails.x, model.tails.f
        lam = 0.3 * xg[-1]
        dense = np.linspace(lam, xg[-1], 2_000_001)
        f = np.interp(dense, xg, fg)
        mass = np.trapezoid(f, dense)
        power = np.trapezoid((1.0 / lam - 1.0 / dense) * f, dense)
        rate = np.trapezoid(np.log(dense / lam) * f, dense)
        assert waterfill.tails_at(model, lam) == pytest.approx((mass, power, rate, f[0]), rel=1e-9)

    def test_lower_above_support_is_zero(self):
        model = tabulated_exp()
        lam = model.tails.x[-1] + 1.0
        assert waterfill.tails_at(model, lam) == (0.0, 0.0, 0.0, 0.0)

    def test_table_built_once_per_model(self):
        model = tabulated_exp(points=41)
        assert model.tails is model.tails

    @pytest.mark.parametrize(
        "model",
        [FadingModel.exponential(1.0), FadingModel.discrete([(3.0, 0.4), (1.0, 0.6)])],
        ids=["exponential", "discrete"],
    )
    def test_table_rejects_other_kinds(self, model):
        with pytest.raises(DiscreteKindError):
            model.tails


class TestTailExactness:
    """`tails_at`'s mass, power and rate against per-cell adaptive quadrature, its density against `pdf_x`."""

    @staticmethod
    def check(model, lams):
        for lam in lams:
            power, rate = oracle_cell_integrals(model, float(lam))
            mass = oracle_cell_mass(model, float(lam))
            assert power >= 1e-8
            got = x_tails(model, lam)
            want = (mass, power, rate, float(pdf_x(model, float(lam))))
            assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_deep_in_the_first_cell(self):
        # the grid starts at h = 0, where 1/x and log x are unbounded
        model = tabulated_exp(points=41)
        x1 = model.tails.x[1]
        self.check(model, np.geomspace(x1 * 1e-6, x1 / 2, 13))

    @staticmethod
    def triangle():
        h = np.linspace(0.2, 2.2, 201)
        a = np.minimum(h - 0.2, 2.2 - h)
        return FadingModel.tabulated(h, a / np.trapezoid(a, h), 2.0)

    def test_near_the_top_of_the_support(self):
        model = self.triangle()
        nodes = model.alpha_over_sigma2 * np.array(model.kind.grid[-12:-1])
        lams = np.concatenate([4.4 - np.geomspace(0.4, 0.017, 25), nodes, nodes * (1 - 1e-9)])
        self.check(model, lams)

    def test_below_the_start_of_the_support(self):
        # the support starts at x = 0.4; below it the density is zero
        self.check(self.triangle(), [1e-6, 0.1, 0.39, 0.4, 0.4 * (1 + 1e-9), 0.41])

    def test_random_tabulated_model(self):
        model = random_tabulated_model(make_rng(11))
        lo, hi = (model.alpha_over_sigma2 * h for h in (model.kind.grid[0], model.kind.grid[-1]))
        self.check(model, np.geomspace(max(lo, hi * 1e-3) * 0.5, hi * 0.9, 25))

    @pytest.mark.parametrize("u", [1e-3, 0.3, 1.0, 4.0, 20.0])
    def test_exponential_fading(self, u):
        # one E1 and one exp at u = nu*lam give all three tails in closed form
        model = FadingModel.exponential(2.0, alpha_over_sigma2=5.0)
        lam = u / 0.4
        tail = lambda g: quad(lambda x: g(x) * pdf_x(model, x), lam, np.inf, epsabs=0, epsrel=1e-13)[0]
        want = (tail(lambda x: 1.0), tail(lambda x: 1.0 / lam - 1.0 / x), tail(lambda x: math.log(x / lam)),
                float(pdf_x(model, lam)))
        assert x_tails(model, lam) == pytest.approx(want, rel=1e-11, abs=0)


class TestTabulatedSampling:
    """`sample_h` inverts the piecewise-quadratic cdf of a linear density exactly."""

    class Uniforms:
        """Stands in for the generator: `random` returns the given values."""

        def __init__(self, u):
            self.u = np.asarray(u, dtype=float)

        def random(self, size, out=None):
            assert size == self.u.size
            if out is None:
                return self.u
            out[...] = self.u
            return out

    @staticmethod
    def cdf(model, h):
        """P(H <= h) of the linear density: whole cells plus one trapezoid."""
        g, a = model.kind.grid, model.kind.density
        cells = [0.5 * (g1 - g0) * (a0 + a1) for g0, g1, a0, a1 in zip(g, g[1:], a, a[1:])]
        j = min(max(bisect.bisect_right(g, h) - 1, 0), len(cells) - 1)
        ah = a[j] + (a[j + 1] - a[j]) * (h - g[j]) / (g[j + 1] - g[j])
        return (math.fsum(cells[:j]) + 0.5 * (h - g[j]) * (a[j] + ah)) / math.fsum(cells)

    @staticmethod
    def gap_model():
        # flat cells [0, 1] and [4, 5], a falling and a rising cell, and a
        # cell of zero mass in [2, 3]
        return FadingModel.tabulated(np.arange(6.0), np.array([1, 1, 0, 0, 1, 1]) / 3.0)

    @pytest.mark.parametrize("name", ["exp41", "triangle", "gap"])
    def test_draws_sit_at_their_cdf_value(self, name):
        model = {
            "exp41": tabulated_exp(points=41),
            "triangle": TestTailExactness.triangle(),
            "gap": self.gap_model(),
        }[name]
        u = np.concatenate([np.linspace(0.0, 1.0, 2001)[:-1], make_rng(2).random(2000),
                            [1.0 - 2.0**-53]])
        h = model.sample_h(self.Uniforms(u), u.size)
        got = np.array([self.cdf(model, v) for v in h.tolist()])
        assert np.max(np.abs(got - u)) <= 1e-13
        assert np.all((h >= model.kind.grid[0]) & (h <= model.kind.grid[-1]))

    @classmethod
    def guided_model(cls, name):
        """A model whose guide table has bins spanning many cells, or none (gap)."""
        if name == "gamma801":
            # the shape h**(m-1)*exp(-m*h) on [0, 12]: its tail cells are far
            # thinner than a guide bin, so the top bins span many cells
            h = np.linspace(0.0, 12.0, 801)
            a = h**1.25 * np.exp(-2.25 * h)
            return FadingModel.tabulated(h, a / np.trapezoid(a, h))
        return tabulated_exp(points=41) if name == "exp41" else cls.gap_model()

    @pytest.mark.parametrize("name", ["exp41", "gap", "gamma801"])
    @pytest.mark.parametrize("size", [1, 7, 19_700])
    def test_draws_match_the_searchsorted_inversion(self, name, size):
        model = self.guided_model(name)
        assert any(model.inverse.spans) == (name != "gap")
        for seed in (3, 11):
            a, b, c = make_rng(seed), make_rng(seed), make_rng(seed)
            want = reference_tabulated_draws(model, a, size).tobytes()
            assert model.sample_h(b, size).tobytes() == want
            # work arrays full of junk, as a chunk's leftovers would be
            out = np.full(size, np.nan)
            work = (np.full(size, np.nan), np.full(size, -np.inf),
                    np.full(size, -7, dtype=np.intp), np.full(size, 10**9, dtype=np.intp))
            assert model.sample_h(c, size, out=out, work=work) is out
            assert out.tobytes() == want
            assert a.bit_generator.state == b.bit_generator.state == c.bit_generator.state

    @pytest.mark.parametrize("name", ["exp41", "gap", "gamma801"])
    def test_draws_at_the_cell_and_bin_edges_match_the_searchsorted_inversion(self, name):
        model = self.guided_model(name)
        edges = np.concatenate([model.inverse.cdf[:-1], np.arange(4096) / 4096])
        u = np.concatenate([edges, np.nextafter(edges, 1.0), np.nextafter(edges[edges > 0], 0.0),
                            [1.0 - 2.0**-53]])
        want = reference_tabulated_draws(model, self.Uniforms(u), u.size)
        assert model.sample_h(self.Uniforms(u), u.size).tobytes() == want.tobytes()

    def test_zero_mass_cells_are_never_chosen(self):
        u = np.linspace(0.0, 1.0, 100_001)[:-1]
        h = self.gap_model().sample_h(self.Uniforms(u), u.size)
        assert not np.any((h > 2.0) & (h < 3.0))

    @pytest.mark.parametrize("scale", [2.0**-520, 2.0**-1000], ids=["2**-520", "2**-1000"])
    def test_draws_and_reports_scale_exactly_with_the_density(self, scale):
        # values a/s past 1.3e154 overflowed f**2 and twice the slope: every draw
        # fell on its cell's foot node, 22% off at the median
        h, a = [0.25, 0.5, 0.75, 95.0, 100.0, 105.0], [0.0, 3.6, 0.0, 0.0, 0.02, 0.0]
        base = FadingModel.tabulated(h, a)
        # X = c*H keeps its distribution: nodes h*s, values a/s and c = 1/s
        model = FadingModel.tabulated([v * scale for v in h], [v / scale for v in a], 1.0 / scale)
        for seed in (3, 11):
            want = base.sample_h(make_rng(seed), 200_000)
            assert model.sample_h(make_rng(seed), 200_000).tobytes() == (want * scale).tobytes()
        for policy in (lambda m: simulator.ConstantPowerPolicy(1.0),
                       lambda m: simulator.WaterfillPolicy(waterfill.solve(m, 1.0))):
            runs = [simulator.run(sim_config(model=m, policy=policy(m), horizon=200_000, seed=7))
                    for m in (base, model)]
            assert runs[0].to_json() == runs[1].to_json()

    def test_sample_mean_agrees_with_the_exact_mean(self):
        # linear inversion of the cdf put the mean about 7 SE too high here
        model = tabulated_exp(points=41)
        h = model.sample_h(make_rng(12), 1_000_000)
        se = h.std(ddof=1) / math.sqrt(h.size)
        assert abs(h.mean() - mean_h(model)) <= 4 * se


_SRC = Path(__file__).parents[1] / "src"


def scopes_with(path: Path, match) -> set:
    """Dotted names of the scopes in ``path`` with a node that ``match`` accepts; "" is module level."""
    scopes = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if match(child):
                scopes.add(".".join(scope))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return scopes


def attribute_readers(path: Path, attr: str) -> set:
    """The scopes in ``path`` that read ``.attr`` or name it as a string."""
    return scopes_with(path, lambda node: isinstance(node, ast.Attribute) and node.attr == attr
                       or isinstance(node, ast.Constant) and node.value == attr)


def importers(path: Path, module: str) -> set:
    """The scopes in ``path`` that import ``module`` or one of its submodules."""
    def imports(node):
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[0] == module for alias in node.names)
        return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == module

    return scopes_with(path, imports)


def test_the_library_imports_no_scipy():
    # scipy is a test dependency only, so the oracles stay independent
    paths = sorted((_SRC / "hopcap").glob("*.py"))
    assert {path.name for path in paths if importers(path, "scipy")} == set()


def test_numpy_is_imported_only_where_arrays_are():
    # the scalar solvers run in plain math; a numpy-importing helper must not
    # drift back into them
    allowed = {
        "hopopt.py": set(),
        "discrete.py": set(),
        "fading.py": {"FadingModel.sample_h", "InverseTable.__init__"},
        "waterfill.py": set(),
    }
    for name, scopes in allowed.items():
        assert importers(_SRC / "hopcap" / name, "numpy") == scopes, name


def test_alpha_over_sigma2_is_read_only_at_the_edges():
    # the kernels and root finders work at unit scale; c = alpha_over_sigma2
    # enters only where pi, lam and d are mapped in and out
    edges = {
        "discrete.py": set(),
        "waterfill.py": {"gamma_and_lambda", "WaterfillSolution.cutoff_h"},
        "hopopt.py": {"_roots"},
    }
    kernels = {"tails_at", "TailTable", "build_table", "_level", "_exponential_start",
               "_tabulated_level", "_exponential_root", "_tabulated_roots"}
    for name, allowed in edges.items():
        assert not allowed & kernels
        assert attribute_readers(_SRC / "hopcap" / name, "alpha_over_sigma2") == allowed, name


def test_log_root_is_called_only_by_the_scan_and_the_exponential_root():
    # every enumeration of many brackets goes through the one sign-change scan,
    # so a second scan cannot fork off beside it
    calls = lambda node: isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == "log_root"
        or isinstance(node.func, ast.Attribute) and node.func.attr == "log_root")
    callers = {(path.name, scope) for path in sorted((_SRC / "hopcap").glob("*.py"))
               for scope in scopes_with(path, calls)}
    assert callers == {("fading.py", "sign_change_roots"), ("hopopt.py", "_exponential_root")}


def test_the_counts_the_order_and_the_fades_each_have_one_drawer():
    # the counts are drawn by one multinomial each (`_counts`), the order of a
    # trace in `_write_trace` and its helper, continuous fades by `sample_h`
    # in one place: no per-period draw creeps back in beside them
    def calls(name):
        return lambda node: isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == name
            or isinstance(node.func, ast.Attribute) and node.func.attr == name)

    paths = sorted((_SRC / "hopcap").glob("*.py"))
    drawers = {name: {(path.name, scope) for path in paths for scope in scopes_with(path, calls(name))}
               for name in ("multinomial", "hypergeometric", "multivariate_hypergeometric", "shuffle",
                            "permutation", "jumped", "sample_h", "choice", "random")}
    assert drawers == {
        "multinomial": {("simulator.py", "_counts")},
        "hypergeometric": {("simulator.py", "_hypergeometric_counts")},
        "multivariate_hypergeometric": set(),
        "shuffle": {("simulator.py", "_write_trace")},
        "permutation": set(),
        "jumped": {("simulator.py", "_write_trace")},
        "sample_h": {("simulator.py", "_Chunk.rows_of")},
        "choice": set(),
        "random": {("fading.py", "FadingModel.sample_h")},
    }


def test_one_routine_formats_every_trace_cell():
    # every trace cell is `_CELL` filled in by `_trace_lines`, so a second
    # formatter of the trace cells, by % or by a format spec, cannot fork
    # off beside it
    path = _SRC / "hopcap" / "simulator.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    formats = [node for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and ".17g" in str(node.value)]
    assigned = [node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                and [getattr(target, "id", None) for target in node.targets] == ["_CELL"]]
    assert len(formats) == 1 and formats == assigned
    assert formats[0].value == b",%.17g"
    assert scopes_with(path, lambda node: isinstance(node, ast.Name) and node.id == "_CELL") == {
        "", "_trace_lines"}


def test_the_simulator_opens_no_file():
    # `run` hands its trace to a callable: the CLI opens, hashes and closes
    # the file, and turns its OSError into exit 2, as it does for --out
    path = _SRC / "hopcap" / "simulator.py"
    assert scopes_with(path, lambda node: isinstance(node, ast.Call) and "open" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))) == set()
    assert scopes_with(path, lambda node: isinstance(node, ast.Name)
                       and node.id in {"OSError", "IOError", "EnvironmentError"}) == set()
    assert importers(path, "contextlib") == importers(path, "hashlib") == set()


def test_sample_h_rejects_a_discrete_model():
    # a discrete run counts its fades by state, so there is no discrete sampler
    rng = make_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(DiscreteKindError):
        FadingModel.discrete([(100.0, 0.01), (0.5, 0.99)]).sample_h(rng, 10)
    assert rng.bit_generator.state == state


def scipy_brentq(func, lo, hi):
    """The root of the g that ``func`` returns first, by scipy's brentq."""
    return brentq(lambda x: func(x)[0], lo, hi, xtol=1e-300, rtol=8.9e-16)


# monotone families g(x) with the root x = r, as (g, dg/dlog x, d2g/dlog x**2) of
# s = x/r and a shape parameter a in [0.5, 4]; the sign of a sets the direction
LOG_ROOT_FAMILIES = {
    "log": lambda s, a: (a * math.log(s), a, 0.0),
    "power": lambda s, a: (s**a - 1.0, a * s**a, a * a * s**a),
    "atan": lambda s, a: (math.atan(a * math.log(s)),
                          a / (1.0 + (a * math.log(s)) ** 2),
                          -2.0 * a**3 * math.log(s) / (1.0 + (a * math.log(s)) ** 2) ** 2),
    "tanh": lambda s, a: (math.tanh(a * (s - 1.0)),
                          a * s * (1.0 - math.tanh(a * (s - 1.0)) ** 2),
                          a * s * (1.0 - math.tanh(a * (s - 1.0)) ** 2)
                          * (1.0 - 2.0 * a * s * math.tanh(a * (s - 1.0)))),
}


def recorded_brackets(monkeypatch, run):
    """(func, lo, hi, root) of every call that ``run`` makes to `fading.log_root`."""
    calls = []

    def record(func, x, lo, hi, rising):
        root = log_root(func, x, lo, hi, rising)
        calls.append((func, lo, hi, root))
        return root

    monkeypatch.setattr(fading, "log_root", record)
    run()
    monkeypatch.undo()
    return calls


class TestLogRoot:
    """`log_root` finds the root of a monotone g at any scale of x or of g."""

    @settings(derandomize=True, database=None, max_examples=600, deadline=None)
    @given(
        family=st.sampled_from(sorted(LOG_ROOT_FAMILIES)),
        a=st.floats(0.5, 4.0),
        rising=st.booleans(),
        log10_root=st.floats(-300.0, 300.0),
        log10_g=st.floats(-300.0, 300.0),
        below=st.floats(0.01, 3.0),
        above=st.floats(0.01, 3.0),
        start=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        open_below=st.booleans(),
    )
    def test_root_of_a_monotone_family_at_any_scale(
        self, family, a, rising, log10_root, log10_g, below, above, start, open_below
    ):
        r, scale = 10.0**log10_root, 10.0**log10_g
        lo, hi = r * 10.0**-below, r * 10.0**above
        x0 = lo * (hi / lo) ** start
        g = LOG_ROOT_FAMILIES[family]
        a = a if rising else -a
        calls = []

        def func(x):
            calls.append(x)
            return tuple(scale * v for v in g(x / r, a))

        root = log_root(func, x0, 0.0 if open_below else lo, hi, rising)
        # one ulp of x/r moves g by about one ulp of g's slope: the root is as good
        assert abs(root - r) <= 4.0 * math.ulp(r), (root, r)
        assert len(calls) <= 20

    def test_agrees_with_brentq_on_the_tabulated_brackets(self, monkeypatch):
        # every critical point and root of the stationary residual
        rng = make_rng(22)
        models = [random_tabulated_model(rng, points=201) for _ in range(20)]
        etas = rng.uniform(1.5, 5.0, len(models)).tolist()
        calls = recorded_brackets(
            monkeypatch,
            lambda: [hopopt._tabulated_roots(m, eta) for m, eta in zip(models, etas)],
        )
        assert len(calls) >= 30
        for func, lo, hi, root in calls:
            if lo == 0.0:
                # the enumeration starts at lam = 0, where g is only a limit: brentq
                # starts at the first lam down from hi by 10 where g has the limit's sign
                lo = hi / 10.0
                while func(lo)[0] * func(hi)[0] > 0.0:
                    lo /= 10.0
            assert root == pytest.approx(scipy_brentq(func, lo, hi), rel=1e-14, abs=0)

    def test_agrees_with_brentq_on_the_discrete_branches(self, monkeypatch):
        rng = make_rng(23)
        models = [random_discrete_model(rng, max_states=8) for _ in range(40)]
        etas = rng.uniform(1.2, 5.0, len(models)).tolist()
        calls = recorded_brackets(
            monkeypatch,
            lambda: [discrete.stationary_roots(m.table, eta) for m, eta in zip(models, etas)],
        )
        assert len(calls) >= 40
        for func, lo, hi, root in calls:
            assert root == pytest.approx(scipy_brentq(func, lo, hi), rel=1e-14, abs=0)

    @pytest.mark.parametrize("func, lo, hi, x", [
        (lambda x: (math.nan, 1.0, 0.0) if x > 0.9 else (math.log(x / 0.5), 1.0, 0.0),
         0.1, 1.0, 0.95),
        (lambda x: (math.nan, 1.0, 0.0) if 0.2 < x < 0.8 else (math.log(x / 0.5), 1.0, 0.0),
         0.01, 1.0, 0.1),
    ], ids=["start", "inside"])
    def test_nan_is_a_bracket_failure(self, func, lo, hi, x):
        with pytest.raises(BracketFailure, match="NaN"):
            log_root(func, x, lo, hi, rising=True)

    @pytest.mark.parametrize("log_r, lo, hi, rising", [
        (10.0, 1.0, 2.0, True),  # the root exp(10) lies above the bracket
        (10.0, 1.0, 2.0, False),
        (-1000.0, 0.0, 1.0, True),  # below every float: /4 reaches 0
        (1000.0, 1.0, math.inf, False),  # above every float: x4 passes the largest
    ], ids=["above", "above-falling", "below-every-float", "above-every-float"])
    def test_no_root_in_the_bracket_is_a_bracket_failure(self, log_r, lo, hi, rising):
        sign = 1.0 if rising else -1.0
        func = lambda x: (sign * (math.log(x) - log_r), sign, 0.0)
        with pytest.raises(BracketFailure, match="no sign change"):
            log_root(func, 0.75 * hi if hi < math.inf else 1.5, lo, hi, rising)
