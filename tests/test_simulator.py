"""Monte Carlo runs against the renewal formulas, plus the two-sample
fixed-time vs fixed-packet comparison."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import make_rng, oracle_ratio_estimate, reference_periods, reference_trace
from hopcap.errors import OrderingViolation, ValidationError
from hopcap.fading import FadingModel
from hopcap import macmodel, simulator, waterfill
from hopcap.macmodel import MacProfile
from hopcap.simulator import (
    ConstantPowerPolicy,
    SimConfig,
    WaterfillPolicy,
    compare_ftt_fp,
    swap_comparison,
)

FIG1 = FadingModel.discrete([(100.0, 0.01), (0.5, 0.99)])


def quiet_config(**kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", simulator.SmallHorizonWarning)
        return SimConfig(**kwargs)


def profile_a():
    return macmodel.example_profile()


def profile_b():
    return MacProfile(
        p_idle=0.3, p_collision=0.2, p_success=0.5,
        t_idle=5e-5, t_collision=5e-4, t_overhead=1e-4,
        t_txop=1e-3, bandwidth=2e6,
        e_idle=5e-7, e_collision=6e-5, e_overhead=2e-5,
    )


def analytic_targets(profile, model, policy, d, eta):
    """Eq-style reference values computed from the policy's expectations."""
    if model.is_discrete:
        x, a = model.x_states()
        h = x / model.alpha_over_sigma2
        p = policy.power(h)
        mean_rate = float(np.sum(a * np.log1p(x * p / d**eta)))
        mean_power = float(np.sum(a * p))
    else:
        raise NotImplementedError
    return macmodel.throughput(profile, mean_rate), macmodel.network_power(profile, mean_power)


class TestDeterminism:
    def test_identical_seeds_identical_reports(self):
        config = SimConfig(
            profile=profile_a(), model=FIG1,
            policy=ConstantPowerPolicy(0.5), d=1.0, eta=3.0,
            horizon=50_000, seed=123,
        )
        assert simulator.run(config).to_json() == simulator.run(config).to_json()

    def test_different_seeds_differ(self):
        base = dict(
            profile=profile_a(), model=FIG1,
            policy=ConstantPowerPolicy(0.5), d=1.0, eta=3.0, horizon=50_000,
        )
        a = simulator.run(SimConfig(seed=1, **base))
        b = simulator.run(SimConfig(seed=2, **base))
        assert a.to_json() != b.to_json()


class TestDegenerateExactness:
    def test_all_success_single_state_constant_power(self):
        profile = MacProfile(
            p_idle=0.0, p_collision=0.0, p_success=1.0,
            t_idle=0.0, t_collision=0.0, t_overhead=0.0,
            t_txop=1e-3, bandwidth=1e6,
        )
        model = FadingModel.discrete([(2.0, 1.0)])
        config = SimConfig(
            profile=profile, model=model, policy=ConstantPowerPolicy(1.0),
            d=1.0, eta=2.0, horizon=10_000, seed=7,
        )
        report = simulator.run(config)
        expected = macmodel.throughput(profile, math.log1p(2.0))
        assert report.theta_hat == pytest.approx(expected, rel=1e-12)
        # identical periods: variance is zero up to float dust
        assert report.theta_ci95 <= 1e-9 * report.theta_hat
        assert report.power_hat == pytest.approx(1.0, rel=1e-12)
        assert report.power_ci95 <= 1e-9


class TestAnalyticAgreement:
    def test_fig1_waterfill_policy_within_3_sigma(self):
        pi_opt = 29.581885819215032  # stationary maximizer of the two-state case
        d = 0.3233389680071157
        sol = waterfill.solve(FIG1, pi_opt)
        policy = WaterfillPolicy(solution=sol, d=d, eta=3.0)
        config = SimConfig(
            profile=profile_a(), model=FIG1, policy=policy,
            d=d, eta=3.0, horizon=1_000_000, seed=20260809,
        )
        report = simulator.run(config)
        theta, power = analytic_targets(profile_a(), FIG1, policy, d, 3.0)
        assert abs(report.theta_hat - theta) <= 3 * report.theta_ci95 / 1.96
        assert abs(report.power_hat - power) <= 3 * report.power_ci95 / 1.96

    def test_exponential_power_within_3_sigma(self):
        model = FadingModel.exponential(1.0)
        sol = waterfill.solve(model, 1.0)
        policy = WaterfillPolicy(solution=sol, d=1.0, eta=2.0)
        config = SimConfig(
            profile=profile_b(), model=model, policy=policy,
            d=1.0, eta=2.0, horizon=1_000_000, seed=31415,
        )
        report = simulator.run(config)
        # E[P(h)] = d**eta * pi by the binding constraint; Gamma from the solution
        theta = macmodel.throughput(profile_b(), sol.gamma)
        power = macmodel.network_power(profile_b(), 1.0)
        assert abs(report.theta_hat - theta) <= 3 * report.theta_ci95 / 1.96
        assert abs(report.power_hat - power) <= 3 * report.power_ci95 / 1.96


class TestConfidenceIntervals:
    def test_ci_shrinks_with_horizon(self):
        base = dict(
            profile=profile_a(), model=FIG1,
            policy=ConstantPowerPolicy(0.5), d=1.0, eta=3.0,
        )
        small = simulator.run(SimConfig(horizon=20_000, seed=5, **base))
        large = simulator.run(SimConfig(horizon=80_000, seed=5, **base))
        assert large.theta_ci95 < 0.7 * small.theta_ci95
        assert large.power_ci95 < 0.7 * small.power_ci95

    def test_coverage_over_seeds(self):
        profile = profile_a()
        policy = ConstantPowerPolicy(0.5)
        theta, power = analytic_targets(profile, FIG1, policy, 1.0, 3.0)
        hits = 0
        runs = 100
        for seed in range(runs):
            report = simulator.run(
                SimConfig(
                    profile=profile, model=FIG1, policy=policy,
                    d=1.0, eta=3.0, horizon=20_000, seed=seed,
                )
            )
            if abs(report.theta_hat - theta) <= 2 * report.theta_ci95 / 1.96:
                hits += 1
        assert hits >= 0.90 * runs

    def test_small_horizon_warns(self):
        with pytest.warns(simulator.SmallHorizonWarning):
            SimConfig(
                profile=profile_a(), model=FIG1, policy=ConstantPowerPolicy(0.5),
                d=1.0, eta=3.0, horizon=100, seed=0,
            )


class TestTraceAndKnobs:
    def test_trace_csv_shape(self, tmp_path):
        path = tmp_path / "trace.csv"
        config = quiet_config(
            profile=profile_a(), model=FIG1, policy=ConstantPowerPolicy(0.5),
            d=1.0, eta=3.0, horizon=500, seed=3,
        )
        simulator.run(config, trace_path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "period_type,duration_s,energy_J,bits"
        assert len(lines) == 501

    def test_relinquish_knob_reduces_elapsed_time(self):
        # waterfill at tiny pi leaves many fades unserved; relinquishing
        # early must shorten the run without touching the bit total
        sol = waterfill.solve(FIG1, 0.001)
        policy = WaterfillPolicy(solution=sol, d=1.0, eta=3.0)
        base = dict(
            profile=profile_a(), model=FIG1, policy=policy,
            d=1.0, eta=3.0, horizon=50_000, seed=11,
        )
        plain = simulator.run(SimConfig(**base))
        early = simulator.run(SimConfig(relinquish_overhead=1e-4, **base))
        assert early.elapsed_time < plain.elapsed_time
        assert early.total_bits == plain.total_bits


def trace_cases():
    """Three runs that differ in what a trace row can hold."""
    exp = FadingModel.exponential(1.0)
    h = np.linspace(0.0, 20.0, 41)
    tab41 = FadingModel.tabulated(h, np.exp(-h) / np.trapezoid(np.exp(-h), h), 2.0)
    two_state = WaterfillPolicy(waterfill.solve(FIG1, 29.581885819215032), 0.3233, 3.0)
    return {
        "two_state_waterfill": dict(
            profile=profile_a(), model=FIG1, policy=two_state, d=0.3233, eta=3.0, seed=3,
        ),
        # a small pi leaves many fades unserved: rows with p == 0 and a
        # shortened occupancy
        "exponential_relinquish": dict(
            profile=profile_b(), model=exp, policy=WaterfillPolicy(waterfill.solve(exp, 0.05), 1.0, 2.0),
            d=1.0, eta=2.0, seed=4, relinquish_overhead=1e-4,
        ),
        "tab41_constant": dict(
            profile=profile_b(), model=tab41, policy=ConstantPowerPolicy(1.0), d=1.0, eta=3.0, seed=5,
        ),
    }


REPORT_FLOATS = ("theta_hat", "theta_ci95", "power_hat", "power_ci95",
                 "elapsed_time", "total_bits", "total_energy")


class TestChunkedRun:
    """`run` works in chunks; draws, trace bytes and estimates must not notice."""

    @pytest.mark.parametrize("case", sorted(trace_cases()))
    def test_trace_bytes_match_the_per_row_writer(self, case, tmp_path, monkeypatch):
        monkeypatch.setattr(simulator, "_CHUNK", 1024)
        config = quiet_config(horizon=5000, **trace_cases()[case])
        periods = reference_periods(config)
        reference_trace(tmp_path / "ref.csv", *periods)
        simulator.run(config, trace_path=tmp_path / "run.csv")
        assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        if case == "exponential_relinquish":
            kinds, durations, _, _ = periods
            assert np.any((kinds == 2) & (durations < config.profile.t_overhead + config.profile.t_txop))

    def test_negative_zero_keeps_its_text(self, tmp_path):
        # a power of -0.0 ships -0.0 bits on successes, 0.0 elsewhere
        config = quiet_config(
            profile=profile_a(), model=FIG1, policy=ConstantPowerPolicy(-0.0),
            d=1.0, eta=3.0, horizon=2000, seed=6,
        )
        reference_trace(tmp_path / "ref.csv", *reference_periods(config))
        simulator.run(config, trace_path=tmp_path / "run.csv")
        text = (tmp_path / "run.csv").read_text()
        assert ",-0\n" in text and ",0\n" in text
        assert text == (tmp_path / "ref.csv").read_text()

    @pytest.mark.parametrize("case", sorted(trace_cases()))
    def test_chunk_size_changes_nothing(self, case, tmp_path, monkeypatch):
        horizon = 3000
        config = quiet_config(horizon=horizon, **trace_cases()[case])
        runs = []
        for chunk in (1, 7, 4096, horizon):
            monkeypatch.setattr(simulator, "_CHUNK", chunk)
            path = tmp_path / f"trace{chunk}.csv"
            runs.append((simulator.run(config, trace_path=path), path.read_bytes()))
        (first, first_bytes), rest = runs[0], runs[1:]
        for report, trace in rest:
            assert trace == first_bytes
            assert (report.n_idle, report.n_collision, report.n_success) == (
                first.n_idle, first.n_collision, first.n_success)
            for name in REPORT_FLOATS:
                assert getattr(report, name) == pytest.approx(getattr(first, name), rel=1e-12, abs=0)

    @pytest.mark.parametrize("case", sorted(trace_cases()))
    def test_estimates_match_the_two_pass_oracle(self, case):
        # 200k periods span four chunks of the default size
        config = quiet_config(horizon=200_000, **trace_cases()[case])
        kinds, durations, energies, bits = reference_periods(config)
        report = simulator.run(config)
        assert [report.n_idle, report.n_collision, report.n_success] == np.bincount(kinds).tolist()
        theta, theta_ci = oracle_ratio_estimate(bits, durations)
        power, power_ci = oracle_ratio_estimate(energies, durations)
        assert report.theta_hat == pytest.approx(theta, rel=1e-14, abs=0)
        assert report.power_hat == pytest.approx(power, rel=1e-14, abs=0)
        assert report.theta_ci95 == pytest.approx(theta_ci, rel=1e-10, abs=0)
        assert report.power_ci95 == pytest.approx(power_ci, rel=1e-10, abs=0)

    def test_single_period_has_no_interval(self):
        config = quiet_config(horizon=1, **trace_cases()["two_state_waterfill"])
        report = simulator.run(config)
        assert report.theta_ci95 == 0.0 and report.power_ci95 == 0.0
        assert report.n_idle + report.n_collision + report.n_success == 1

    def test_no_success_draws_no_fade(self, monkeypatch):
        # MacProfile requires p_success > 0; at 1e-300 the cumulative
        # probabilities round to 1 before the success cell, so none is drawn
        profile = MacProfile(
            p_idle=0.6, p_collision=0.4, p_success=1e-300,
            t_idle=5e-5, t_collision=5e-4, t_overhead=1e-4, t_txop=1e-3, bandwidth=2e6,
            e_idle=5e-7, e_collision=6e-5, e_overhead=2e-5,
        )
        calls = []
        sample_h = FadingModel.sample_h
        monkeypatch.setattr(FadingModel, "sample_h", lambda *a: calls.append(a) or sample_h(*a))
        report = simulator.run(quiet_config(
            profile=profile, model=FIG1, policy=ConstantPowerPolicy(0.5),
            d=1.0, eta=3.0, horizon=5000, seed=9,
        ))
        assert calls == []
        assert report.n_success == 0 and report.n_idle > 0 and report.n_collision > 0
        assert report.theta_hat == 0.0 and report.theta_ci95 == 0.0 and report.total_bits == 0.0
        assert report.power_ci95 > 0.0

    def test_identical_periods_have_exactly_zero_interval(self, monkeypatch):
        profile = MacProfile(
            p_idle=0.0, p_collision=0.0, p_success=1.0,
            t_idle=0.0, t_collision=0.0, t_overhead=1e-4,
            t_txop=1e-3, bandwidth=1e6, e_overhead=3e-5,
        )
        monkeypatch.setattr(simulator, "_CHUNK", 777)
        report = simulator.run(quiet_config(
            profile=profile, model=FadingModel.discrete([(2.0, 1.0)]),
            policy=ConstantPowerPolicy(0.3), d=1.0, eta=2.0, horizon=5000, seed=7,
        ))
        assert report.theta_ci95 == 0.0 and report.power_ci95 == 0.0

    def test_memory_does_not_grow_with_the_horizon(self):
        # per-period arrays of the whole horizon would take 32 B a period
        # (64 MB here); the int8 period types take 2 MB
        config = SimConfig(
            profile=profile_a(), model=FIG1, policy=ConstantPowerPolicy(0.5),
            d=1.0, eta=3.0, horizon=2_000_000, seed=13,
        )
        tracemalloc.start()
        try:
            simulator.run(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestCompareFttFp:
    def test_symmetric_case_exact_equality(self):
        res = compare_ftt_fp(1.3, 1.3, 0.8, 0.8)
        assert res.bits_ftt == pytest.approx(res.bits_fp, rel=1e-12)

    def test_reference_case_strictly_better(self):
        res = compare_ftt_fp(2.0, 0.5, 1.0, 1.0, packet_bits=1000.0, bandwidth=1e6)
        assert res.bits_fp == 2000.0
        assert res.bits_ftt > res.bits_fp

    def test_ordering_violation_raises(self):
        with pytest.raises(OrderingViolation):
            compare_ftt_fp(2.0, 0.5, 0.01, 1.0)

    def test_invalid_states_rejected(self):
        with pytest.raises(ValidationError):
            compare_ftt_fp(0.5, 2.0, 1.0, 1.0)

    def test_never_worse_over_random_tuples(self):
        rng = make_rng(606)
        for _ in range(200):
            h2, h1 = np.sort(np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 2)))
            p1 = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
            p2 = float(h1 * p1 / h2) * float(rng.uniform(1e-3, 1.0))
            res = compare_ftt_fp(float(h1), float(h2), p1, p2)
            assert res.bits_ftt >= res.bits_fp * (1 - 1e-9)

    def test_swap_strictly_reduces_energy(self):
        rng = make_rng(707)
        checked = 0
        for _ in range(400):
            h2, h1 = np.sort(np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 2)))
            if h1 == h2:
                continue
            p1 = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
            # violate the ordering on purpose: h1*p1 < h2*p2
            p2 = float(h1 * p1 / h2) * float(rng.uniform(1.001, 10.0))
            res = swap_comparison(float(h1), float(h2), p1, p2)
            assert res.energy_swapped < res.energy_original
            assert h1 * res.p1_swapped == pytest.approx(h2 * p2, rel=1e-12)
            checked += 1
        assert checked > 350
