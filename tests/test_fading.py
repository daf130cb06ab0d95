"""Distribution kinds, change-of-variable densities, moments and tails."""

import bisect
import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import make_rng, oracle_cell_integrals, random_tabulated_model
from hopcap import waterfill
from hopcap.errors import DiscreteKindError, ValidationError
from hopcap.fading import FadingModel


def tabulated_exp(mu=1.0, top=20.0, points=4001, scale=1.0):
    h = np.linspace(0.0, top, points)
    a = np.exp(-mu * h)
    a /= np.trapezoid(a, h)
    return FadingModel.tabulated(h, a, scale)


class TestPdfH:
    def test_exponential_at_zero_boundary(self):
        assert FadingModel.exponential(1.0).pdf_h(0.0) == pytest.approx(1.0)

    def test_exponential_closed_form(self):
        assert FadingModel.exponential(2.0).pdf_h(1.0) == pytest.approx(2.0 * math.exp(-2.0))

    def test_discrete_rejects_density_query(self):
        model = FadingModel.discrete([(1.0, 0.5), (2.0, 0.5)])
        with pytest.raises(DiscreteKindError):
            model.pdf_h(1.0)

    def test_tabulated_tracks_the_sampled_density(self):
        model = tabulated_exp()
        # the grid normalisation nudges values by ~1e-5; stay within 1e-4
        assert model.pdf_h(1.0) == pytest.approx(math.exp(-1.0), abs=1e-4)


class TestPdfX:
    def test_identity_scale(self):
        model = FadingModel.exponential(1.0, alpha_over_sigma2=1.0)
        assert model.pdf_x(1.0) == pytest.approx(math.exp(-1.0))

    def test_scale_rule(self):
        # f(x) = a(x/c)/c with c = 2: at x = 2 the density halves
        model = FadingModel.exponential(1.0, alpha_over_sigma2=2.0)
        assert model.pdf_x(2.0) == pytest.approx(0.5 * math.exp(-1.0))

    def test_tabulated_matches_analytic_transform(self):
        c = 2.5
        model = tabulated_exp(scale=c)
        h = np.linspace(0.1, 8.0, 50)
        expected = np.array([model.pdf_h(v) for v in h]) / c
        got = model.pdf_x(c * h)
        assert np.allclose(got, expected, atol=1e-6)

    def test_pdf_z_change_of_variable(self):
        model = FadingModel.exponential(1.3, alpha_over_sigma2=0.7)
        z = np.array([0.2, 1.0, 3.0])
        assert np.allclose(model.pdf_z(z), model.pdf_x(1.0 / z) / z**2)


class TestMeanH:
    def test_exponential(self):
        assert FadingModel.exponential(2.0).mean_h() == pytest.approx(0.5)

    def test_discrete_weighted_sum(self):
        model = FadingModel.discrete([(100.0, 0.01), (0.5, 0.99)])
        assert model.mean_h() == pytest.approx(1.495)

    def test_tabulated_quadrature(self):
        assert tabulated_exp().mean_h() == pytest.approx(1.0, abs=1e-4)

    def test_tabulated_mean_is_exact_for_the_linear_density(self):
        # the trapezoid rule on h*a(h) is not exact for a linear density (0.9595 vs 1.00034)
        model = tabulated_exp(points=41)
        h, a = model.kind.grid.tolist(), model.kind.density.tolist()
        cells = [
            quad(lambda v: v * (a0 * (h1 - v) + a1 * (v - h0)) / (h1 - h0), h0, h1,
                 epsabs=0, epsrel=1e-13)[0]
            for h0, h1, a0, a1 in zip(h, h[1:], a, a[1:])
        ]
        assert model.mean_h() == pytest.approx(math.fsum(cells), rel=1e-12, abs=0)


class TestTailDecay:
    def test_exponential_true(self):
        assert FadingModel.exponential(1.0).tail_decay_check()

    def test_discrete_true(self):
        assert FadingModel.discrete([(3.0, 0.4), (1.0, 0.6)]).tail_decay_check()

    def test_pareto_like_tail_fails(self):
        h = np.geomspace(1.0, 1e4, 4001)
        a = h**-1.5
        a /= np.trapezoid(a, h)
        assert not FadingModel.tabulated(h, a).tail_decay_check()

    def test_fast_polynomial_tail_passes(self):
        h = np.geomspace(1.0, 1e4, 4001)
        a = h**-4.0
        a /= np.trapezoid(a, h)
        assert FadingModel.tabulated(h, a).tail_decay_check()

    def test_truncated_exponential_passes(self):
        assert tabulated_exp().tail_decay_check()


class TestNormalisationInvariants:
    def test_pdf_h_integrates_to_one(self):
        model = FadingModel.exponential(1.7)
        val, _ = quad(model.pdf_h, 0, np.inf)
        assert val == pytest.approx(1.0, abs=1e-6)

        tab = tabulated_exp(mu=0.8)
        g = tab.kind.grid
        assert np.trapezoid([tab.pdf_h(v) for v in g], g) == pytest.approx(1.0, abs=1e-6)

    def test_mean_consistency_through_x(self):
        c = 1.9
        model = FadingModel.exponential(1.2, alpha_over_sigma2=c)
        val, _ = quad(lambda x: x * model.pdf_x(x), 0, np.inf)
        assert val == pytest.approx(c * model.mean_h(), abs=1e-6)

    def test_z_density_integrates_to_one(self):
        model = FadingModel.exponential(1.0)
        val, _ = quad(model.pdf_z, 0, np.inf, limit=200)
        assert val == pytest.approx(1.0, abs=1e-6)

        # the grid includes h = 0, so g(z) carries an integrable 1/z**2 tail
        tab = tabulated_exp(mu=1.0, top=30.0)
        _, x_hi = tab.x_support()
        z = np.geomspace(1.0 / x_hi, 1e6, 2_000_001)
        assert np.trapezoid(tab.pdf_z(z), z) == pytest.approx(1.0, abs=1e-4)

    def test_random_tabulated_models_integrate_to_one(self):
        rng = make_rng(101)
        for _ in range(10):
            model = random_tabulated_model(rng)
            xg, fg = model.x_grid()
            assert np.trapezoid(fg, xg) == pytest.approx(1.0, abs=1e-6)


class TestValidation:
    def test_discrete_sorted_descending(self):
        model = FadingModel.discrete([(0.5, 0.99), (100.0, 0.01)])
        assert model.kind.gains == (100.0, 0.5)

    def test_discrete_tie_rejected(self):
        with pytest.raises(ValidationError):
            FadingModel.discrete([(1.0, 0.5), (1.0, 0.5)])

    def test_discrete_prob_sum_enforced(self):
        with pytest.raises(ValidationError):
            FadingModel.discrete([(1.0, 0.6), (2.0, 0.5)])

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


class TestCsvLoading:
    def test_round_trip_with_header(self, tmp_path):
        model = tabulated_exp(points=501)
        path = tmp_path / "density.csv"
        lines = ["h,a"] + [
            f"{h:.17g},{a:.17g}" for h, a in zip(model.kind.grid, model.kind.density)
        ]
        path.write_text("\n".join(lines) + "\n")
        loaded = FadingModel.tabulated_from_csv(path)
        assert np.array_equal(loaded.kind.grid, model.kind.grid)
        assert np.array_equal(loaded.kind.density, model.kind.density)

    def test_round_trip_without_header(self, tmp_path):
        model = tabulated_exp(points=301)
        path = tmp_path / "density.csv"
        lines = [f"{h:.17g},{a:.17g}" for h, a in zip(model.kind.grid, model.kind.density)]
        path.write_text("\n".join(lines) + "\n")
        loaded = FadingModel.tabulated_from_csv(path)
        assert np.array_equal(loaded.kind.grid, model.kind.grid)


class TestDensityIntegrator:
    def test_matches_dense_trapezoid(self):
        rng = make_rng(7)
        model = random_tabulated_model(rng)
        xg, fg = model.x_grid()
        lam = float(0.3 * xg[-1])
        dense = np.linspace(lam, xg[-1], 2_000_001)
        f = np.interp(dense, xg, fg)
        power = np.trapezoid((1.0 / lam - 1.0 / dense) * f, dense)
        rate = np.trapezoid(np.log(dense / lam) * f, dense)
        assert waterfill.expected_power(model, lam) == pytest.approx(power, rel=1e-9)
        assert waterfill.optimal_rate(model, lam) == pytest.approx(rate, rel=1e-9)

    def test_lower_above_support_is_zero(self):
        model = tabulated_exp()
        lam = model.x_support()[1] + 1.0
        assert waterfill.expected_power(model, lam) == 0.0
        assert waterfill.optimal_rate(model, lam) == 0.0

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
    """expected_power / optimal_rate against per-cell adaptive quadrature."""

    @staticmethod
    def check(model, lams):
        for lam in lams:
            power, rate = oracle_cell_integrals(model, float(lam))
            assert power >= 1e-8
            assert waterfill.expected_power(model, lam) == pytest.approx(power, rel=1e-12, abs=0)
            assert waterfill.optimal_rate(model, lam) == pytest.approx(rate, rel=1e-12, abs=0)

    def test_deep_in_the_first_cell(self):
        # the grid starts at h = 0, where 1/x and log x are unbounded
        model = tabulated_exp(points=41)
        x1 = float(model.x_grid()[0][1])
        self.check(model, np.geomspace(x1 * 1e-6, x1 / 2, 13))

    @staticmethod
    def triangle():
        h = np.linspace(0.2, 2.2, 201)
        a = np.minimum(h - 0.2, 2.2 - h)
        return FadingModel.tabulated(h, a / np.trapezoid(a, h), 2.0)

    def test_near_the_top_of_the_support(self):
        model = self.triangle()
        nodes = model.x_grid()[0][-12:-1]
        lams = np.concatenate([4.4 - np.geomspace(0.4, 0.017, 25), nodes, nodes * (1 - 1e-9)])
        self.check(model, lams)

    def test_below_the_start_of_the_support(self):
        # the support starts at x = 0.4; below it the density is zero
        self.check(self.triangle(), [1e-6, 0.1, 0.39, 0.4, 0.4 * (1 + 1e-9), 0.41])

    def test_random_tabulated_model(self):
        model = random_tabulated_model(make_rng(11))
        lo, hi = model.x_support()
        self.check(model, np.geomspace(max(lo, hi * 1e-3) * 0.5, hi * 0.9, 25))


class TestTabulatedSampling:
    """`sample_h` inverts the piecewise-quadratic cdf of a linear density exactly."""

    class Uniforms:
        """Stands in for the generator: `random` returns the given values."""

        def __init__(self, u):
            self.u = np.asarray(u, dtype=float)

        def random(self, size):
            assert size == self.u.size
            return self.u

    @staticmethod
    def cdf(model, h):
        """P(H <= h) of the linear density: whole cells plus one trapezoid."""
        g, a = model.kind.grid.tolist(), model.kind.density.tolist()
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

    def test_zero_mass_cells_are_never_chosen(self):
        u = np.linspace(0.0, 1.0, 100_001)[:-1]
        h = self.gap_model().sample_h(self.Uniforms(u), u.size)
        assert not np.any((h > 2.0) & (h < 3.0))

    def test_sample_mean_agrees_with_the_exact_mean(self):
        # linear inversion of the cdf put the mean about 7 SE too high here
        model = tabulated_exp(points=41)
        h = model.sample_h(make_rng(12), 1_000_000)
        se = h.std(ddof=1) / math.sqrt(h.size)
        assert abs(h.mean() - model.mean_h()) <= 4 * se
