"""Water-fill solver: frozen oracle values, KKT structure, envelope identity."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    bisect_scalar,
    bracketed_brentq,
    make_rng,
    oracle_cell_integrals,
    oracle_cell_mass,
    oracle_power_integral,
    oracle_rate_integral,
    oracle_waterfill_lambda,
    pdf_x,
    random_model,
    rechar_roots,
    x_top,
)
from hopcap.cli import main
from hopcap.config import load_config
from hopcap.errors import BracketFailure, DiscreteKindError, NonPositivePi, ValidationError
from hopcap.fading import FadingModel, TabulatedDensity, TailTable
from hopcap.simulator import WaterfillPolicy
from hopcap import hopopt, waterfill

# dense-trapezoid + bisection oracle output for f(x) = exp(-x), pi = 1
EXP_PI1_LAMBDA = 0.3937738447490893
EXP_PI1_GAMMA = 0.7129288562089982

FIG1_STATES = [(100.0, 0.01), (0.5, 0.99)]
FIG1_BREAKPOINT = 0.0199  # (1.9701 / 99), by hand from the cumulative sums

_EXP_H = np.linspace(0.0, 12.0, 41)
UNIFORM = FadingModel.tabulated([0.5, 1.5], [1.0, 1.0])  # E[1/X] = ln 3
ZERO_TOP = FadingModel.tabulated([0.0, 0.8, 2.0, 3.0], [2.5, 0.0, 0.0, 0.0])
BRACKET_MODELS = {
    "exp": FadingModel.exponential(1.0),
    "exp-scaled": FadingModel.exponential(2.0, alpha_over_sigma2=1e6),
    "tab41-from-0": FadingModel.tabulated(_EXP_H, np.exp(-_EXP_H) / np.trapezoid(np.exp(-_EXP_H), _EXP_H)),
    "uniform": UNIFORM,
    "zero-top": ZERO_TOP,
}


class TestSolveExamples:
    def test_single_state_all_power(self):
        model = FadingModel.discrete([(1.0, 1.0)])
        sol = waterfill.solve(model, 1.0)
        assert sol.lam == pytest.approx(0.5, rel=1e-12)
        assert sol.gamma == pytest.approx(math.log(2.0), rel=1e-12)

    def test_exponential_against_frozen_oracle(self):
        model = FadingModel.exponential(1.0)
        sol = waterfill.solve(model, 1.0)
        assert sol.lam == pytest.approx(EXP_PI1_LAMBDA, rel=1e-7)
        assert sol.gamma == pytest.approx(EXP_PI1_GAMMA, rel=1e-7)

    def test_exponential_against_live_oracle(self):
        # independent route: trapezoid quadrature on [lam, 80] + bisection
        model = FadingModel.exponential(1.0)
        lam_oracle = oracle_waterfill_lambda(model, 1.0)
        sol = waterfill.solve(model, 1.0)
        assert sol.lam == pytest.approx(lam_oracle, rel=1e-7)
        assert sol.gamma == pytest.approx(oracle_rate_integral(model, lam_oracle), rel=1e-7)

    def test_lambda_continuous_across_breakpoint(self):
        model = FadingModel.discrete(FIG1_STATES)
        above = waterfill.solve(model, FIG1_BREAKPOINT * (1 + 1e-6)).lam
        below = waterfill.solve(model, FIG1_BREAKPOINT * (1 - 1e-6)).lam
        assert abs(above - below) / below < 1e-4


class TestGammaDerivative:
    def test_single_state_closed_form(self):
        model = FadingModel.discrete([(1.0, 1.0)])
        assert waterfill.solve(model, 1.0).lam == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize(
        "model,pi",
        [
            (FadingModel.exponential(1.0), 1.0),
            (FadingModel.discrete(FIG1_STATES), 0.01),
        ],
        ids=["exponential", "fig1-discrete"],
    )
    def test_matches_central_difference(self, model, pi):
        h = 1e-5 * pi
        fd = (waterfill.solve(model, pi + h).gamma - waterfill.solve(model, pi - h).gamma) / (
            2 * h
        )
        assert waterfill.solve(model, pi).lam == pytest.approx(fd, rel=1e-5)


class TestPhysicalAllocation:
    def test_zero_at_cutoff(self):
        model = FadingModel.discrete([(1.0, 1.0)])
        sol = waterfill.solve(model, 1.0)
        assert WaterfillPolicy(sol).power(sol.cutoff_h, 1.0**3.0) == 0.0

    def test_unit_distance(self):
        sol = waterfill.WaterfillSolution(
            pi=1.0, lam=0.5, gamma=math.log(2.0), model=FadingModel.discrete([(1.0, 1.0)])
        )
        assert WaterfillPolicy(sol).power(1.0, 1.0**3.0) == pytest.approx(1.0)

    def test_scales_with_path_loss(self):
        sol = waterfill.WaterfillSolution(
            pi=1.0, lam=0.5, gamma=math.log(2.0), model=FadingModel.discrete([(1.0, 1.0)])
        )
        assert WaterfillPolicy(sol).power(1.0, 2.0**3.0) == pytest.approx(8.0)


class TestInvariants:
    def test_constraint_binds_and_kkt(self):
        rng = make_rng(2024)
        for _ in range(25):
            model = random_model(rng)
            pi = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
            sol = waterfill.solve(model, pi)
            assert oracle_power_integral(model, sol.lam) == pytest.approx(pi, rel=1e-7)
            # KKT: the policy's active states sit exactly at the water level, and it
            # pours nothing below (at h = lam/c itself, c*h may round above lam)
            policy, c = WaterfillPolicy(sol), model.alpha_over_sigma2
            hi = min(x_top(model), sol.lam * 1e6)
            xs = np.exp(rng.uniform(np.log(sol.lam * 1.0001), np.log(hi), size=100))
            xi = policy.power(xs / c, 1.0)
            assert np.allclose(xs / (1.0 + xs * xi), sol.lam, rtol=1e-12)
            assert np.all(policy.power(np.linspace(1e-6, sol.lam, 13)[:-1] / c, 1.0) == 0.0)

    def test_monotone_in_pi(self):
        model = FadingModel.exponential(0.7, alpha_over_sigma2=2.0)
        pis = np.geomspace(1e-2, 1e2, 9)
        sols = [waterfill.solve(model, p) for p in pis]
        lams = [s.lam for s in sols]
        gammas = [s.gamma for s in sols]
        assert all(a > b for a, b in zip(lams, lams[1:]))
        assert all(a < b for a, b in zip(gammas, gammas[1:]))

    def test_gamma_concave_in_pi(self):
        rng = make_rng(5)
        model = FadingModel.exponential(1.0)
        for _ in range(30):
            a, b = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=2))
            mid = 0.5 * (a + b)
            g = lambda p: waterfill.solve(model, p).gamma
            assert g(mid) >= 0.5 * (g(a) + g(b)) - 1e-9

    def test_envelope_identity_on_log_grid(self):
        model = FadingModel.exponential(1.0)
        for pi in np.geomspace(1e-3, 1e3, 13):
            h = 1e-4 * pi
            fd = (
                waterfill.solve(model, pi + h).gamma - waterfill.solve(model, pi - h).gamma
            ) / (2 * h)
            lam = waterfill.solve(model, pi).lam
            assert abs(lam - fd) / lam < 1e-4


class TestDegenerateAndErrors:
    def test_non_positive_pi_rejected(self):
        model = FadingModel.exponential(1.0)
        with pytest.raises(NonPositivePi):
            waterfill.solve(model, 0.0)
        with pytest.raises(NonPositivePi):
            waterfill.solve(model, -1.0)

    def test_zero_pi_sentinel(self):
        gamma, lam = waterfill.gamma_and_lambda(FadingModel.exponential(1.0), 0.0)
        assert gamma == 0.0 and math.isinf(lam)

    @pytest.mark.parametrize(
        "fading_yaml",
        [
            "{kind: exponential, rate: 1.0}",
            "{kind: discrete, states: [{gain: 100.0, prob: 0.01}, {gain: 0.5, prob: 0.99}]}",
        ],
        ids=["exponential", "fig1-discrete"],
    )
    def test_unbrackable_budget_fails_loudly(self, fading_yaml, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            f"schema_version: 1\nfading: {fading_yaml}\neta: 3.0\npower: {{Pt_prime_W: 1.0}}\n"
        )
        # a sweep can overflow pi; the public entry point rejects it as input
        model = load_config(cfg).model
        with pytest.raises(BracketFailure):
            waterfill.gamma_and_lambda(model, math.inf)
        with pytest.raises(ValidationError):
            waterfill.solve(model, math.inf)
        assert main(["waterfill", "--config", str(cfg), "--pi", "inf"]) == 2

    def test_density_integrals_reject_discrete(self):
        model = FadingModel.discrete(FIG1_STATES)
        with pytest.raises(DiscreteKindError):
            waterfill.tails_at(model, 0.5)

    def test_independent_single_state_stationarity_oracle(self):
        # root of log(1+pi) = 3*pi/(1+pi) by plain bisection
        root = bisect_scalar(lambda p: math.log1p(p) - 3 * p / (1 + p), 1.0, 1e3)
        model = FadingModel.discrete([(1.0, 1.0)])
        sol = waterfill.solve(model, root)
        assert sol.gamma == pytest.approx(3 * root * sol.lam, rel=1e-8)


def mpmath_exponential_power(model, lam):
    """P(lam) = nu*(exp(-u)/u - E1(u)) of exponential fading at unit scale to 40 digits, u = nu*lam."""
    with mpmath.workdps(40):
        nu = mpmath.mpf(model.kind.rate)
        u = nu * mpmath.mpf(lam)
        return nu * (mpmath.exp(-u) / u - mpmath.e1(u))


def mpmath_exponential_gamma(model, pi, lam):
    """Gamma(pi) of exponential fading to 40 digits, from the level's u = nu*lam as a start.

    With q = pi/nu, the level solves p(u) = exp(-u)/u - E1(u) = q, and Gamma = E1(u);
    Newton's method on log p, whose slope is -exp(-u)/(u**2*p), from a start
    within 1e-13 doubles the digits each step.
    """
    with mpmath.workdps(40):
        nu = mpmath.mpf(model.kind.rate) / mpmath.mpf(model.alpha_over_sigma2)
        log_q = mpmath.log(mpmath.mpf(pi) / nu)
        u = nu * mpmath.mpf(lam)
        for _ in range(4):
            p = mpmath.exp(-u) / u - mpmath.e1(u)
            u += (mpmath.log(p) - log_q) * u * u * p / mpmath.exp(-u)
        assert abs(mpmath.log(mpmath.exp(-u) / u - mpmath.e1(u)) - log_q) < mpmath.mpf(10) ** -35
        return mpmath.e1(u)


class TestWaterLevelBracket:
    """The water level takes safeguarded Halley steps inside a bracket from each kind's structure."""

    @pytest.mark.parametrize("name", list(BRACKET_MODELS))
    def test_kernel_call_budget(self, name, monkeypatch):
        model = BRACKET_MODELS[name]
        kernel = waterfill.tails_at
        power = lambda m, lam: kernel(m, lam)[1]
        calls = []

        def counted(m, lam):
            calls.append(lam)
            return kernel(m, lam)

        monkeypatch.setattr(waterfill, "tails_at", counted)
        c = model.alpha_over_sigma2  # the kernel runs at unit scale, at lam/c and pi*c
        for k in np.arange(-12.0, 12.25, 0.5):
            pi = 10.0**k
            calls.clear()
            lam = waterfill.solve(model, pi).lam
            assert len(calls) <= 6, (pi, len(calls))
            lam_h, pi_h = lam / c, pi * c
            assert power(model, lam_h * (1 - 1e-14)) - pi_h > 0.0 > power(model, lam_h * (1 + 1e-14)) - pi_h
            if isinstance(model.kind, TabulatedDensity) and 1e-6 <= pi <= 1e6:
                assert oracle_cell_integrals(model, lam)[0] == pytest.approx(pi, rel=1e-12)

    @pytest.mark.parametrize("name", ["exp", "exp-scaled"])
    def test_exponential_newton_level(self, name, monkeypatch):
        model = BRACKET_MODELS[name]
        kernel = waterfill.tails_at
        calls, counts = [], []
        monkeypatch.setattr(waterfill, "tails_at", lambda m, lam: calls.append(lam) or kernel(m, lam))
        for k in np.arange(-12.0, 12.25, 0.5):
            pi = 10.0**k
            calls.clear()
            gamma, lam = waterfill.gamma_and_lambda(model, pi)
            counts.append(len(calls))
            # the kernel runs at unit scale, where the level solves P(lam/c) = pi*c
            c = model.alpha_over_sigma2
            start = min(1.0 / model.kind.rate, 1.0 / (pi * c))
            brent = bracketed_brentq(lambda x: kernel(model, x)[1] - pi * c, start)
            assert lam / c == pytest.approx(brent, rel=1e-14, abs=0.0), pi
            # Gamma = rate + lam*(pi - P) at the last kernel call carries that call's
            # error in P, which cancels u-fold in mass/lam - nu*E1(u) (2.3e-15 at
            # pi = 1e-9); the level adds at most 1e-15 to it.  lam*P is scale-free.
            last = calls[-1]
            power_error = abs(kernel(model, last)[1] - mpmath_exponential_power(model, last))
            want = mpmath_exponential_gamma(model, pi, lam)
            assert abs(gamma - want) <= 1e-15 * want + last * power_error, (pi, float((gamma - want) / want))
        assert sum(counts) / len(counts) <= 3.0 and max(counts) <= 6, counts

    def test_level_past_an_overflowing_start(self):
        # at rate 1e-309, 1/nu overflows, yet the level is finite, near 1.58e308;
        # the second model finds lam/c at unit scale, and the edge multiplies by c
        for model in (FadingModel.exponential(1e-309), FadingModel.exponential(1e-300, 1e9)):
            c, pi = model.alpha_over_sigma2, 4e-309
            gamma, lam = waterfill.gamma_and_lambda(model, pi)
            power = lambda x: waterfill.tails_at(model, x)[1]
            assert 1.5e308 < lam < 1.6e308 and 0.0 < gamma < math.inf
            assert power(lam / c * (1 - 1e-14)) > pi * c > power(lam / c * (1 + 1e-14))

    def test_gamma_near_the_top_of_a_tabulated_support(self):
        # Gamma(lam) is flat near the top, so one ulp of lam moves rate(lam) by up to
        # 1e-10; the envelope finish Gamma = rate + lam*(pi - P) keeps Gamma's digits
        b = mpmath.mpf(1.5)
        power = lambda lam: (b - lam) / lam + mpmath.log(lam / b)
        with mpmath.workdps(50):
            for pi in np.geomspace(1e-12, 1e-5, 15).tolist():
                gamma, lam = waterfill.gamma_and_lambda(UNIFORM, pi)
                root = mpmath.findroot(lambda x: power(x) - pi, mpmath.mpf(lam))
                want = b * mpmath.log(b / root) - b + root
                assert abs(gamma - want) <= 1e-14 * want, (pi, float((gamma - want) / want))

    def test_nan_power_is_a_bracket_failure(self):
        # x_1/lam = 8e309 overflows in the partial cell, whose power is then NaN;
        # ZERO_TOP's density of X = 1e10*H, at unit scale
        model = FadingModel.tabulated([1e10 * h for h in ZERO_TOP.kind.grid],
                                      [a / 1e10 for a in ZERO_TOP.kind.density])
        with pytest.raises(BracketFailure, match="NaN"):
            waterfill.gamma_and_lambda(model, 1e300)

    @pytest.mark.parametrize("pi", [1e307, 1e308, 1.7e308])
    def test_gamma_below_the_support_at_the_top_of_the_float_range(self, pi):
        # lam < 1e-307: the gap cell's t = (x_0 - lam)/lam is near 1e308, and its
        # terms in t**2 once overflowed to a NaN Gamma
        gamma, lam = waterfill.gamma_and_lambda(UNIFORM, pi)
        tails = UNIFORM.tails
        want = tails.rate[0] + tails.mass[0] * math.log(0.5 / lam)
        assert abs(gamma - want) <= 1e-15 * want, (gamma, want)

    def test_tails_below_the_support_where_x0_over_lam_overflows(self):
        # the uniform density on [0.5e10, 1.5e10] at lam = 1e-300: t = x_0/lam - 1
        # is inf, but the power 1/lam - E[1/H] and the rate E[log H] - log(lam) are not
        a, b = 0.5e10, 1.5e10
        model = FadingModel.tabulated([a, b], [1e-10, 1e-10])
        with mpmath.workdps(40):
            lam, a, b = mpmath.mpf(1e-300), mpmath.mpf(a), mpmath.mpf(b)
            power = 1 / lam - mpmath.log(b / a) / (b - a)
            rate = (b * mpmath.log(b) - a * mpmath.log(a)) / (b - a) - 1 - mpmath.log(lam)
        got = waterfill.tails_at(model, 1e-300)
        assert got == pytest.approx((1.0, float(power), float(rate), 0.0), rel=1e-15, abs=0)

    def test_uniform_scaled_by_1e10_at_pi_1e300_names_the_scale(self, tmp_path, capsys):
        # pi_H = 1e10*1e300 leaves the float range; x-space kernels printed gamma_nats=nan
        model = FadingModel.tabulated(UNIFORM.kind.grid, UNIFORM.kind.density, 1e10)
        with pytest.raises(BracketFailure, match="alpha_over_sigma2 = 10000000000.0"):
            waterfill.gamma_and_lambda(model, 1e300)
        (tmp_path / "uniform.csv").write_text("h,a\n0.5,1\n1.5,1\n")
        cfg = tmp_path / "run.yaml"

        def waterfill_cli(scale, pi):
            cfg.write_text(f"schema_version: 1\nfading: {{kind: tabulated, csv: uniform.csv, "
                           f"alpha_over_sigma2: {scale}}}\neta: 3.0\n")
            return main(["waterfill", "--config", str(cfg), "--pi", pi]), *capsys.readouterr()

        code, _, err = waterfill_cli("1e10", "1e300")
        assert code == 3 and err.startswith("numerical failure: alpha_over_sigma2 = ")
        # at unit scale the same gap near the top of the float range prints a finite Gamma
        code, out, err = waterfill_cli("1.0", "1.7e308")
        gamma = float(dict(token.split("=") for token in out.split())["gamma_nats"])
        assert code == 0 and err == "" and 0.0 < gamma < math.inf

    @pytest.mark.parametrize("pi", [1e-200, 1e-300])
    def test_exponential_level_at_tiny_pi(self, pi):
        # the level sits near u = 448 and 678, where the gap's values are ~1e-200 and below
        model = BRACKET_MODELS["exp"]
        lam = waterfill.solve(model, pi).lam
        power = lambda x: waterfill.tails_at(model, x)[1]
        assert power(lam * (1 - 1e-14)) > pi > power(lam * (1 + 1e-14))

    @pytest.mark.parametrize("pi", [3.0, 10.0, 1e6])
    def test_below_the_support(self, pi):
        # all of the mass sits above lam: pi = 1/lam - E[1/X], with E[1/X] = ln 3
        assert waterfill.solve(UNIFORM, pi).lam == pytest.approx(1.0 / (pi + math.log(3.0)), rel=1e-14)

    def test_rechar_with_zero_mass_top_cells(self):
        problem = hopopt.HopProblem(model=ZERO_TOP, eta=2.0, pt_prime=1.0)
        # the y-domain route integrates with a fixed Gauss-Legendre rule per cell
        want = hopopt.stationary_points(problem).maximizer.lam
        assert rechar_roots(ZERO_TOP, 2.0) == [pytest.approx(want, rel=1e-8)]


class TestOneKernelCall:
    """A stationary residual or slope triple costs one kernel evaluation: one E1, one table lookup."""

    def test_exponential_stationary_points(self, monkeypatch):
        e1 = waterfill.exp1
        calls = []
        monkeypatch.setattr(waterfill, "exp1", lambda u: calls.append(u) or e1(u))
        for scale in (10.0, 1.0):
            calls.clear()
            model = FadingModel.exponential(1.0, alpha_over_sigma2=scale)
            hopopt.stationary_points(hopopt.HopProblem(model=model, eta=3.0, pt_prime=1.0))
            # 6 residual triples from u = 1 to the root, one more to read off its point;
            # the root is found at unit scale, so the scale does not change them
            assert len(calls) == 7

    @pytest.mark.parametrize("lam", [0.05, 0.7, 3.0, 9.5])
    def test_tabulated_slope_and_residual(self, lam, monkeypatch):
        model, eta = BRACKET_MODELS["tab41-from-0"], 3.0
        lookups = []

        def counted(name, method):
            return lambda *args: lookups.append(name) or method(*args)

        for name, method in list(vars(TailTable).items()):
            if callable(method) and not name.startswith("_"):
                monkeypatch.setattr(TailTable, name, counted(name, method))
        slope = hopopt._slope(model, lam, eta)
        assert lookups == ["above"]
        residual = hopopt._residual(model, lam, eta)
        assert lookups == ["above", "above"]
        # R = rate - eta*lam*power and its derivatives in log lam: lam*R', and
        # lam*R' + lam**2*R'' with lam**2*R'' = mass - (eta-1)*lam*f
        power, rate = oracle_cell_integrals(model, lam)
        mass = oracle_cell_mass(model, lam)
        lam_r1 = (eta - 1.0) * mass - eta * lam * power
        lam_r2 = lam_r1 + mass - (eta - 1.0) * lam * float(pdf_x(model, lam))
        assert residual == pytest.approx((rate - eta * lam * power, lam_r1, lam_r2), rel=1e-10)
        assert slope == pytest.approx((lam_r1, lam_r2, 0.0), rel=1e-10)


class TestExtremeExponential:
    """Exponential models whose u = nu*lam underflows to 0 keep a finite level, or fail loudly."""

    # nu = rate/alpha_over_sigma2 = 2.6e-310 and lam = 1/pi = 2.5e-270: u = nu*lam is 0
    UNDERFLOW = FadingModel.exponential(1.85e-285, 7.04e24)
    UNDERFLOW_PI = 4e269

    def test_underflowing_u_keeps_the_level_and_gamma(self):
        gamma, lam = waterfill.gamma_and_lambda(self.UNDERFLOW, self.UNDERFLOW_PI)
        # all but nu*E1(u) ~ 3.5e-307 of the power is 1/lam
        assert lam == 1.0 / self.UNDERFLOW_PI
        with mpmath.workdps(40):
            nu = mpmath.mpf(self.UNDERFLOW.kind.rate / self.UNDERFLOW.alpha_over_sigma2)
            assert gamma == pytest.approx(float(mpmath.e1(nu * mpmath.mpf(lam))), rel=1e-15, abs=0)

    def test_underflowing_u_through_the_cli(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            "schema_version: 1\nfading: {kind: exponential, rate: 1.85e-285, "
            "alpha_over_sigma2: 7.04e24}\neta: 3.0\npower: {Pt_prime_W: 1.0}\n"
        )
        assert main(["waterfill", "--config", str(cfg), "--pi", "4e269"]) == 0
        fields = dict(token.split("=") for token in capsys.readouterr().out.split())
        assert float(fields["gamma_nats"]) == waterfill.gamma_and_lambda(self.UNDERFLOW, 4e269)[0]

    def test_gamma_stays_non_negative_where_the_rate_underflows(self):
        # u = nu*lam = 736: E1(u) = 3.5e-323, and the envelope term rounds below it
        model = FadingModel.exponential(9.15249936833826e107, 3.1364099083175307e72)
        gamma, lam = waterfill.gamma_and_lambda(model, 1.9628098692665127e-289)
        assert 0.0 <= gamma < 1e-320 and 2.5e-33 < lam < 2.53e-33

    @settings(derandomize=True, database=None, max_examples=1500, deadline=None)
    @given(
        rate=st.floats(1e-300, 1e300),
        alpha_over_sigma2=st.floats(1e-300, 1e300),
        pi=st.floats(1e-323, 1e308),
    )
    def test_finite_level_or_bracket_failure(self, rate, alpha_over_sigma2, pi):
        try:
            model = FadingModel.exponential(rate, alpha_over_sigma2)
        except ValidationError:  # rate/alpha_over_sigma2 leaves the float range
            assume(False)
        try:
            gamma, lam = waterfill.gamma_and_lambda(model, pi)
        except BracketFailure:
            return
        assert 0.0 <= gamma < math.inf and 0.0 < lam < math.inf


class TestExp1:
    """The plain-math E1 against scipy's specfun build and 40-digit mpmath."""

    def test_same_float_as_scipy_above_one(self):
        xs = np.concatenate((np.geomspace(1.0, 700.0, 2001)[1:], 1.0 + 60.0 * make_rng(5).random(2000)))
        assert [waterfill.exp1(x) for x in xs.tolist()] == scipy.special.exp1(xs).tolist()

    def test_within_8_ulp_of_scipy_up_to_one(self):
        # the series cancels down to E1 ~ 0.2 near x = 1, so a one-ulp change in
        # its sum moves the result by a few ulp; both stay within 1.7e-15 of mpmath
        xs = np.concatenate((np.geomspace(1e-12, 1.0, 2000), make_rng(6).random(3000)))
        xs = xs[xs > 0.0]
        want = scipy.special.exp1(xs)
        got = np.array([waterfill.exp1(x) for x in xs.tolist()])
        assert np.max(np.abs(got - want) / np.spacing(want)) <= 8.0

    def test_within_2e_15_of_mpmath(self):
        with mpmath.workdps(40):
            for x in np.geomspace(1e-12, 700.0, 800).tolist():
                want = mpmath.e1(mpmath.mpf(x))
                assert abs((waterfill.exp1(x) - want) / want) <= 2e-15, x
