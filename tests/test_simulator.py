"""Monte Carlo runs against the renewal formulas."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    assert_same_trace,
    exact_ratio_ci,
    example_profile,
    make_rng,
    oracle_ratio_estimate,
    reference_periods,
    reference_trace,
)
from hopcap.errors import NumericalError, ValidationError
from hopcap.fading import FadingModel
from hopcap import macmodel, simulator, waterfill
from hopcap.macmodel import MacProfile
from hopcap.simulator import ConstantPowerPolicy, SimConfig, WaterfillPolicy

FIG1 = FadingModel.discrete([(100.0, 0.01), (0.5, 0.99)])


def quiet_config(**kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", simulator.SmallHorizonWarning)
        return SimConfig(**kwargs)


def profile_a():
    return example_profile()


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
        h, a = np.asarray(model.kind.gains), np.asarray(model.kind.probs)
        x = model.alpha_over_sigma2 * h
        p = policy.power(h, d**eta, np.empty(h.size))
        mean_rate = float(np.sum(a * np.log1p(x * p / d**eta)))
        mean_power = float(np.sum(a * p))
    else:  # a water-fill ships Gamma and spends d**eta * pi on average
        mean_rate, mean_power = policy.solution.gamma, d**eta * policy.solution.pi
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
        policy = WaterfillPolicy(sol)
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
        policy = WaterfillPolicy(sol)
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
    def test_trace_csv_shape(self):
        blocks = []
        config = quiet_config(
            profile=profile_a(), model=FIG1, policy=ConstantPowerPolicy(0.5),
            d=1.0, eta=3.0, horizon=500, seed=3,
        )
        simulator.run(config, trace=blocks.append)
        lines = b"".join(blocks).decode().splitlines()
        assert lines[0] == "period_type,duration_s,energy_J,bits"
        assert len(lines) == 501

    @pytest.mark.parametrize("model, successes", [
        (FIG1, [4, 200, 90]), (FadingModel.exponential(1.0), [200, 94])], ids=["discrete", "exponential"])
    def test_trace_goes_out_header_first_then_a_block_per_chunk(self, model, successes, monkeypatch):
        monkeypatch.setattr(simulator, "_CHUNK", 200)
        config = quiet_config(
            profile=profile_a(), model=model, policy=ConstantPowerPolicy(0.5),
            d=1.0, eta=3.0, horizon=1000, seed=3,
        )
        blocks = []
        simulator.run(config, trace=blocks.append)
        assert blocks[0] == b"period_type,duration_s,energy_J,bits\n"
        # row by row, a chunk at most per block: 613 idle periods, 93 collisions, then a
        # discrete model's 4 successes at gain 100 and 290 at 0.5, or a continuous model's
        # successes as drawn, a chunk of fades a block
        assert [(block[:block.index(b",")], block.count(b"\n")) for block in blocks[1:]] == [
            (b"idle", 200), (b"idle", 200), (b"idle", 200), (b"idle", 13), (b"collision", 93),
            *[(b"success", n) for n in successes]]
        # a row's block is its one line repeated; each continuous success has its own fade
        assert [len(set(block.splitlines())) for block in blocks[1:]] == [1] * 5 + (
            [1] * 3 if model.is_discrete else successes)

        def refuse(data):
            raise OSError("no room")

        with pytest.raises(OSError, match="no room"):  # what the callable raises ends the run
            simulator.run(config, trace=refuse)

    @pytest.mark.parametrize("model", [FIG1, FadingModel.exponential(1.0)], ids=["discrete", "exponential"])
    def test_a_refused_success_block_ends_the_run(self, model, monkeypatch):
        # a discrete model's success blocks go out with the counted rows, a
        # continuous model's one per chunk: refusing the first ends the run either way
        monkeypatch.setattr(simulator, "_CHUNK", 200)
        config = quiet_config(
            profile=profile_a(), model=model, policy=ConstantPowerPolicy(0.5),
            d=1.0, eta=3.0, horizon=1000, seed=3,
        )
        blocks = []

        def refuse_successes(block):
            if block.startswith(b"success"):
                raise OSError("no room for successes")
            blocks.append(block)

        with pytest.raises(OSError, match="no room for successes"):
            simulator.run(config, trace=refuse_successes)
        # the header, 613 idle periods in four blocks and 93 collisions in one
        assert [block.count(b"\n") for block in blocks] == [1, 200, 200, 200, 13, 93]
        assert [block[:block.index(b",")] for block in blocks[1:]] == [b"idle"] * 4 + [b"collision"]

    def test_relinquish_knob_reduces_elapsed_time(self):
        # waterfill at tiny pi leaves many fades unserved; relinquishing
        # early must shorten the run without touching the bit total
        sol = waterfill.solve(FIG1, 0.001)
        policy = WaterfillPolicy(sol)
        base = dict(
            profile=profile_a(), model=FIG1, policy=policy,
            d=1.0, eta=3.0, horizon=50_000, seed=11,
        )
        plain = simulator.run(SimConfig(**base))
        early = simulator.run(SimConfig(relinquish_overhead=1e-4, **base))
        assert early.elapsed_time < plain.elapsed_time
        assert early.total_bits == plain.total_bits


@pytest.mark.parametrize("d, eta", [
    (1.0, math.nan), (1.0, math.inf), (math.nan, 3.0), (math.inf, 3.0), (0.0, 3.0), (1.0, -2.0),
], ids=["eta-nan", "eta-inf", "d-nan", "d-inf", "d-zero", "eta-negative"])
def test_sim_config_rejects_a_hop_that_is_not_finite_and_positive(d, eta):
    # 1.0**nan == 1.0, so eta = nan used to run and report a rate; d = inf a zero rate
    with pytest.raises(ValidationError, match="hop distance and eta must be finite and > 0"):
        quiet_config(profile=profile_a(), model=FIG1, policy=ConstantPowerPolicy(0.5),
                     d=d, eta=eta, horizon=10_000, seed=0)


def trace_cases():
    """Three runs that differ in what a trace row can hold."""
    exp = FadingModel.exponential(1.0)
    h = np.linspace(0.0, 20.0, 41)
    tab41 = FadingModel.tabulated(h, np.exp(-h) / np.trapezoid(np.exp(-h), h), 2.0)
    two_state = WaterfillPolicy(waterfill.solve(FIG1, 29.581885819215032))
    return {
        "two_state_waterfill": dict(
            profile=profile_a(), model=FIG1, policy=two_state, d=0.3233, eta=3.0, seed=3,
        ),
        # a small pi leaves many fades unserved: rows with p == 0 and a
        # shortened occupancy
        "exponential_relinquish": dict(
            profile=profile_b(), model=exp, policy=WaterfillPolicy(waterfill.solve(exp, 0.05)),
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
        blocks = []
        simulator.run(config, trace=blocks.append)
        assert_same_trace(b"".join(blocks), (tmp_path / "ref.csv").read_bytes())
        if case == "exponential_relinquish":
            kinds, durations, _, _ = periods
            assert np.any((kinds == 2) & (durations < config.profile.t_overhead + config.profile.t_txop))

    @pytest.mark.parametrize("model", [FIG1, FadingModel.exponential(1.0)],
                             ids=["discrete", "exponential"])
    def test_negative_zero_keeps_its_text(self, model, tmp_path):
        # a power of -0.0 ships -0.0 bits on successes, 0.0 elsewhere
        config = quiet_config(
            profile=profile_a(), model=model, policy=ConstantPowerPolicy(-0.0),
            d=1.0, eta=3.0, horizon=2000, seed=6,
        )
        reference_trace(tmp_path / "ref.csv", *reference_periods(config))
        blocks = []
        simulator.run(config, trace=blocks.append)
        text = b"".join(blocks)
        assert b",-0\n" in text and b",0\n" in text
        assert_same_trace(text, (tmp_path / "ref.csv").read_bytes())

    @pytest.mark.parametrize("case", sorted(trace_cases()))
    def test_chunk_size_changes_nothing(self, case, tmp_path, monkeypatch):
        # the trace goes row by row, so at every size it is the same bytes, the reference's
        horizon = 3000
        config = quiet_config(horizon=horizon, **trace_cases()[case])
        reference_trace(tmp_path / "ref.csv", *reference_periods(config))
        runs = []
        for chunk in (1, 7, 4096, horizon):
            monkeypatch.setattr(simulator, "_CHUNK", chunk)
            blocks = []
            runs.append(simulator.run(config, trace=blocks.append))
            assert_same_trace(b"".join(blocks), (tmp_path / "ref.csv").read_bytes(), f"chunk {chunk}")
        first, rest = runs[0], runs[1:]
        for report in rest:
            assert (report.n_idle, report.n_collision, report.n_success) == (
                first.n_idle, first.n_collision, first.n_success)
            for name in REPORT_FLOATS:
                assert getattr(report, name) == pytest.approx(getattr(first, name), rel=1e-12, abs=0)

    @pytest.mark.parametrize("got, message", [
        (b"h\n" + b"a,1\n" * 9999 + b"b,2\n" + b"a,1\n" * 10**5,
         r"trace: 110001 lines, expected 110001; line 10001 is b'b,2\n', expected b'a,1\n'"),
        (b"h\n" + b"a,1\n" * 10**5,
         r"trace: 100001 lines, expected 110001; line 100002 is b'<end of trace>', expected b'a,1\n'"),
    ], ids=["a-line-differs", "a-line-is-missing"])
    def test_a_trace_mismatch_names_its_first_differing_line(self, got, message):
        # two unequal traces of 400 KB fail at once, with the line counts and the
        # first line that differs, and no diff of the texts
        want = b"h\n" + b"a,1\n" * (10**5 + 10_000)
        assert_same_trace(want, want)
        with pytest.raises(pytest.fail.Exception) as failed:
            assert_same_trace(got, want)
        assert str(failed.value) == message

    @pytest.mark.parametrize("case", sorted(trace_cases()))
    def test_estimates_match_the_two_pass_oracle(self, case):
        # 200k periods hold two to four chunks of successes at the default size
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
        # MacProfile requires p_success > 0; at 1e-300 the multinomial leaves
        # no period to the success count
        profile = MacProfile(
            p_idle=0.6, p_collision=0.4, p_success=1e-300,
            t_idle=5e-5, t_collision=5e-4, t_overhead=1e-4, t_txop=1e-3, bandwidth=2e6,
            e_idle=5e-7, e_collision=6e-5, e_overhead=2e-5,
        )
        calls = []
        sample_h = FadingModel.sample_h
        monkeypatch.setattr(FadingModel, "sample_h",
                            lambda *a, **k: calls.append(a) or sample_h(*a, **k))
        # a discrete model's successes are counted by state, without
        # `sample_h`; an exponential model's are drawn by it
        for model in (FIG1, FadingModel.exponential(1.0)):
            report = simulator.run(quiet_config(
                profile=profile, model=model, policy=ConstantPowerPolicy(0.5),
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
        # an array of the horizon's period types, even at one byte each, adds 3 MB, and a
        # trace held whole some 60 MB per 1e6 periods; a traced run's callable keeps only
        # each block's line count.  A continuous trace formats each success's line, which
        # tracemalloc slows to some 10 us, so that run has 4% successes: more than a chunk
        # of them at either horizon, and an array of them would add 1 MB
        few = profile_a()._replace(p_collision=0.36, p_success=0.04)
        for model, profile, lines in ((FIG1, profile_a(), None), (FIG1, profile_a(), []),
                                      (FadingModel.exponential(1.0), few, [])):
            peaks = []
            for horizon in (1_000_000, 4_000_000):
                config = SimConfig(
                    profile=profile, model=model, policy=ConstantPowerPolicy(0.5),
                    d=1.0, eta=3.0, horizon=horizon, seed=13,
                )
                trace = None if lines is None else lambda block: lines.append(block.count(b"\n"))
                tracemalloc.start()
                try:
                    simulator.run(config, trace=trace)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert abs(peaks[1] - peaks[0]) <= 0.25 * 2**20, (model.kind, lines is not None, peaks)
            assert lines is None or max(lines) <= simulator._CHUNK


TWELVE_STATE = FadingModel.discrete(
    [(g, (i + 1) / 78) for i, g in
     enumerate([800.0, 300.0, 120.0, 50.0, 20.0, 8.0, 3.0, 1.2, 0.5, 0.2, 0.08, 0.03])])


class TestDiscreteByCounts:
    """A discrete run adds its successes by fading state, as counts times rows."""

    @pytest.mark.parametrize("model", [FIG1, TWELVE_STATE], ids=["two_state", "twelve_state"])
    @pytest.mark.parametrize("chunk", [1, 7, None], ids=["chunk1", "chunk7", "default"])
    @pytest.mark.parametrize("seed", [3, 8, 21])
    def test_totals_are_the_exact_sums(self, model, chunk, seed, monkeypatch):
        # an untraced discrete run draws counts only, so no chunk size changes
        # its report, and the reference has no chunks
        if chunk is not None:
            monkeypatch.setattr(simulator, "_CHUNK", chunk)
        # at pi = 0.001 the water-fill leaves the weaker states unserved: their bits are 0
        policy = WaterfillPolicy(waterfill.solve(model, 0.001))
        config = quiet_config(profile=profile_a(), model=model, policy=policy, d=0.5, eta=3.0,
                              horizon=3000 if chunk else 200_003, seed=seed)
        kinds, durations, energies, bits = reference_periods(config)
        assert 0.0 in bits[kinds == 2] and np.any(bits > 0.0)
        report = simulator.run(config)
        assert [report.n_idle, report.n_collision, report.n_success] == np.bincount(kinds).tolist()
        # fsum rounds the exact sum over every period once, as counts times rows must
        exact = [Fraction(0)] * 3
        for column, values in enumerate((durations, energies, bits)):
            for value, count in zip(*np.unique(values, return_counts=True)):
                exact[column] += int(count) * Fraction(float(value))
            assert float(exact[column]) == math.fsum(values)
        assert [report.elapsed_time, report.total_energy, report.total_bits] == list(map(float, exact))
        theta, theta_ci = oracle_ratio_estimate(bits, durations)
        power, power_ci = oracle_ratio_estimate(energies, durations)
        assert report.theta_hat == pytest.approx(theta, rel=1e-14, abs=0)
        assert report.power_hat == pytest.approx(power, rel=1e-14, abs=0)
        assert report.theta_ci95 == pytest.approx(theta_ci, rel=1e-10, abs=0)
        assert report.power_ci95 == pytest.approx(power_ci, rel=1e-10, abs=0)

    def test_builds_no_work_arrays(self, monkeypatch):
        # the chunk's arrays hold a continuous model's successes, which a discrete run has none of
        def refuse(config, n):
            raise AssertionError(f"a discrete run built chunks of {n} successes")

        monkeypatch.setattr(simulator, "_chunks", refuse)
        config = quiet_config(profile=profile_a(), model=FIG1, policy=ConstantPowerPolicy(0.5),
                              d=0.5, eta=3.0, horizon=3000, seed=3)
        assert simulator.run(config, trace=[].append) == simulator.run(config)


class TestScalarSuccessRow:
    """A discrete model's success rows come from `_success_row`, in plain floats, and a
    continuous chunk's from `_success_rows`, in arrays: of one fade, they are one row.

    Duration and energy take the same operations in the same order, so they
    are equal; the bits go through ``math.log1p`` or ``np.log1p``, which may
    round 1 ulp apart (about 1% of inputs on an AVX-512 host), so they agree
    within 2 ulp.
    """

    @settings(derandomize=True, database=None, max_examples=500, deadline=None)
    @given(h=st.floats(1e-6, 1e6), c=st.floats(1e-12, 1e12), d=st.floats(1e-2, 1e2),
           eta=st.floats(2.0, 5.0), level=st.floats(1e-4, 1e4),
           policy=st.sampled_from(["constant", "waterfill"]),
           relinquish=st.sampled_from([None, 0.0, 1e-4]))
    def test_the_scalar_row_is_the_chunk_row(self, h, c, d, eta, level, policy, relinquish):
        # ``level`` is the constant power, or the water-fill's pi: a small pi leaves
        # many fades unserved, and so relinquished
        model = FadingModel.exponential(1.0, c)
        power = (ConstantPowerPolicy(level) if policy == "constant"
                 else WaterfillPolicy(waterfill.solve(model, level)))
        config = quiet_config(profile=profile_a(), model=model, policy=power, d=d, eta=eta,
                              horizon=1, seed=0, relinquish_overhead=relinquish)
        want = simulator._success_rows(config, np.array([h]), np.empty(1), np.empty((3, 1)))[:, 0].tolist()
        got = simulator._success_row(config, h)
        assert all(type(value) is float for value in got)
        assert got[:2] == want[:2]
        assert abs(got[2] - want[2]) <= 2 * math.ulp(want[2]), (got, want)

    def test_a_c_times_h_that_underflows_gets_no_power(self):
        # folded, c is 0.5 here: c*h rounds to 0, which numpy divides into inf, and the
        # water-fill pours nothing; in plain floats 1/0 would raise ZeroDivisionError.  (The
        # discrete water-fill of such a gain overflows, so the level is an exponential model's.)
        model = FadingModel.discrete([(5e-324, 0.5), (1.0, 0.5)])
        policy = WaterfillPolicy(waterfill.solve(FadingModel.exponential(1.0), 1.0))
        config = quiet_config(profile=profile_a(), model=model, policy=policy, d=1.0, eta=3.0,
                              horizon=20_000, seed=0)
        with np.errstate(divide="ignore"):
            want = simulator._success_rows(config, np.array([5e-324]), np.empty(1), np.empty((3, 1)))
        assert simulator._success_row(config, 5e-324) == want[:, 0].tolist()
        assert want[2, 0] == 0.0 and simulator.run(config).theta_hat > 0.0


def exact_cases():
    """The goldens of `hopcap simulate` (tests/test_cli.py), and the two continuous trace cases."""
    golden = dict(profile=profile_a(), eta=3.0)
    return {
        "two_state_waterfill": dict(golden, model=FIG1, d=0.3233,
                                    policy=WaterfillPolicy(waterfill.solve(FIG1, 1.0 / 0.3233**3.0))),
        "twelve_state_waterfill": dict(golden, model=TWELVE_STATE, d=0.5,
                                       policy=WaterfillPolicy(waterfill.solve(TWELVE_STATE, 8.0))),
        **{name: trace_cases()[name] for name in ("tab41_constant", "exponential_relinquish")},
    }


class TestIntervalsAgainstTheExactReference:
    """Each CI95 against `exact_ratio_ci`: the residuals of every period, summed exactly."""

    @pytest.mark.parametrize("case", sorted(exact_cases()))
    @pytest.mark.parametrize("seed", [11, 97531])
    def test_ci95_is_within_4e_15(self, case, seed):
        # Chan's pooled co-moments read 3.2e-14 on two_state_waterfill at seed 11,
        # and 9.4e-14 with relinquished periods; a group of one duration
        # has no residual cross term, so it cancels nothing
        config = quiet_config(horizon=200_003, **dict(exact_cases()[case], seed=seed))
        kinds, durations, energies, bits = reference_periods(config)
        report = simulator.run(config)
        assert [report.n_idle, report.n_collision, report.n_success] == np.bincount(kinds).tolist()
        for ci, numerators in ((report.theta_ci95, bits), (report.power_ci95, energies)):
            exact = exact_ratio_ci(numerators, durations, simulator._CI_FACTOR)
            assert abs(ci - exact) <= 4e-15 * exact, (ci, exact)


class TestIntervalsPastTheSquareRootOfTheFloatRange:
    """Residuals past 1e154 square past the float range; in units of a power of two they do not."""

    @pytest.mark.parametrize("case", sorted(exact_cases()))
    def test_a_bandwidth_times_2_to_the_600_scales_theta_and_its_ci_exactly(self, case):
        # bits of about 1e183: their squares used to overflow, and the run to raise
        base = dict(exact_cases()[case], horizon=20_000, seed=3)
        profile = base["profile"]
        small = simulator.run(quiet_config(**base))
        large = simulator.run(quiet_config(**dict(base, profile=profile._replace(
            bandwidth=profile.bandwidth * 2.0**600))))
        assert large.theta_hat > 1e180
        assert large == small._replace(**{name: getattr(small, name) * 2.0**600
                                          for name in ("theta_hat", "theta_ci95", "total_bits")})


class TestSnrWhoseProductCTimesHLeavesTheFloatRange:
    """The SNR c*h*p/d**eta is formed without c*h, which may leave the range where the SNR does not."""

    @staticmethod
    def report(policy, k, gain_k, d):
        """The seed-3 report of FIG1 with c = 2**k and its gains times 2**gain_k, at eta 2;
        the water-fill's pi_H = c*pi stays that of pi = 1 at unit scale."""
        model = FadingModel.discrete([(g * 2.0**gain_k, a) for g, a in zip(*FIG1.kind)], 2.0**k)
        power = (ConstantPowerPolicy(0.7) if policy == "constant"
                 else WaterfillPolicy(waterfill.solve(model, 2.0**-(k + gain_k))))
        config = SimConfig(profile=profile_a(), model=model, policy=power, d=d, eta=2.0,
                           horizon=20_000, seed=3)
        return simulator.run(config).to_json()

    @pytest.mark.parametrize("k", [-1020, 1020])
    @pytest.mark.parametrize("policy", ["constant", "waterfill"])
    def test_c_and_the_path_loss_times_2_to_the_k_move_no_byte(self, policy, k):
        # at k = 1020, c*h of the gain 100 overflows: under either policy the run
        # used to raise NumericalError, "the estimates leave the float range: bits inf"
        assert (2.0**(k / 2))**2.0 == 2.0**k
        assert self.report(policy, k, 0, 2.0**(k / 2)) == self.report(policy, 0, 0, 1.0)

    @pytest.mark.parametrize("k, d", [(-1000, 1e6), (1000, 1e-6)])
    @pytest.mark.parametrize("policy", ["constant", "waterfill"])
    def test_c_times_2_to_the_k_and_the_gains_over_it_move_no_byte(self, policy, k, d):
        # c*h stays in range while c and d**eta lie 2**1000 and more apart: the fold keeps both normal
        assert self.report(policy, k, -k, d) == self.report(policy, 0, 0, d)


class TestIdenticalPeriods:
    """Identical periods throughout have no spread: both intervals are exactly 0."""

    @staticmethod
    def profile(t_txop):
        return MacProfile(p_idle=0.0, p_collision=0.0, p_success=1.0, t_idle=2e-5,
                          t_collision=3e-4, t_overhead=2e-4, t_txop=t_txop, bandwidth=1e6,
                          e_idle=1e-6, e_collision=3e-5, e_overhead=5e-5)

    @pytest.mark.parametrize("gain", [0.3, 2.0, 1e3])
    @pytest.mark.parametrize("t_txop", [1e-3, 3.3e-3])
    @pytest.mark.parametrize("power", [0.1, 1.0, 7.0])
    @pytest.mark.parametrize("horizon", [2, 3, 70_001])
    def test_one_state_every_period_a_success(self, gain, t_txop, power, horizon):
        config = quiet_config(profile=self.profile(t_txop), model=FadingModel.discrete([(gain, 1.0)]),
                              policy=ConstantPowerPolicy(power), d=0.7, eta=3.0, horizon=horizon,
                              seed=5)
        report = simulator.run(config)
        assert report.n_success == horizon and report.theta_hat > 0.0
        assert report.theta_ci95 == 0.0 and report.power_ci95 == 0.0

    @pytest.mark.parametrize("relinquish", [None, 1e-4])
    @pytest.mark.parametrize("case", ["tab41_constant", "exponential_relinquish"])
    def test_continuous_successes_at_zero_power(self, case, relinquish):
        # no power ships no bits, whatever the fade: every period is the same,
        # in chunks of the default size, the last one partial
        base = trace_cases()[case]
        config = quiet_config(**dict(base, profile=self.profile(1e-3), policy=ConstantPowerPolicy(0.0),
                                     relinquish_overhead=relinquish, horizon=70_001))
        report = simulator.run(config)
        assert report.total_bits == 0.0 and report.power_hat > 0.0
        assert report.theta_ci95 == 0.0 and report.power_ci95 == 0.0


class TestZeroDuration:
    @pytest.mark.parametrize("model", [FIG1, FadingModel.exponential(1.0)],
                             ids=["discrete", "exponential"])
    def test_periods_of_zero_seconds_in_total_raise(self, model):
        # idle and collision periods take no time, and five draws at
        # p_success = 1e-4 give none of the successes, which would
        profile = MacProfile(p_idle=0.5, p_collision=0.4999, p_success=1e-4, t_idle=0.0,
                             t_collision=0.0, t_overhead=2e-4, t_txop=2e-3, bandwidth=1e6)
        config = quiet_config(profile=profile, model=model, policy=ConstantPowerPolicy(1.0),
                              d=1.0, eta=3.0, horizon=5, seed=97531)
        assert not np.any(reference_periods(config)[0] == 2)
        # it used to raise a bare ZeroDivisionError
        with pytest.raises(NumericalError, match="^the periods last 0 s in total"):
            simulator.run(config)


class TestNoStaleBuffers:
    def test_runs_in_one_process_give_each_run_s_own_bytes(self, tmp_path):
        # a tabulated run of two chunks, the second partial, then shorter runs
        # of every kind, each traced once and untraced once; the tabulated
        # model, and so its cached tables, is shared
        cases = trace_cases()
        runs = [("tab41_constant", 70_000), ("two_state_waterfill", 5000),
                ("exponential_relinquish", 66_000), ("tab41_constant", 3000)]
        reports = {}
        for repeat in range(2):
            for i, (name, horizon) in enumerate(runs):
                config = quiet_config(horizon=horizon, **cases[name])
                blocks = [] if (i + repeat) % 2 else None
                report = simulator.run(config, trace=None if blocks is None else blocks.append).to_json()
                assert reports.setdefault(i, report) == report, (name, repeat)
                if blocks is not None:
                    reference_trace(tmp_path / "ref.csv", *reference_periods(config))
                    assert_same_trace(b"".join(blocks), (tmp_path / "ref.csv").read_bytes(),
                                      f"{name}, repeat {repeat}")


# the fading-state probabilities of discrete models, as the model sorts them
FADE_P = {name: FadingModel.discrete(states).kind.probs for name, states in {
    "one": [(2.0, 1.0)],
    "two": [(100.0, 0.01), (0.5, 0.99)],
    "twelve": [(2.0**-k, (k + 1) / 78) for k in range(12)],
    # the cumulative sum reaches 1.0 at the second state
    "rounds-to-one": [(3.0, 0.6), (2.0, 0.4), (1.0, 1e-17)],
    # a hundred probabilities whose sum is 1 only to a few ulps
    "hundred": [(float(k + 1), 0.01) for k in range(100)],
}.items()}


class TestPeriodTypeDraw:
    """`_counts`, the one draw of the period-type counts and a discrete model's
    fading-state counts: a chain of binomials over the probabilities over their fsum.

    It replaces a draw of each period by numpy's ``choice``, whose sequence it
    reduces to its counts: the same draws in law, checked against ``choice``
    itself, and from one seed the same counts and generator state every time.
    """

    @pytest.mark.parametrize("p", [
        [0.1, 0.2, 0.7],
        [1 / 3, 1 / 3, 1 / 3],
        [0.0, 0.3, 0.7],
        [0.5, 0.5, 0.0],
        [0.0, 0.0, 1.0],
        [0.9999, 1e-4, 0.0],
        *FADE_P.values(),
    ], ids=[f"p{i}" for i in range(6)] + list(FADE_P))
    @pytest.mark.parametrize("size", [1, 7, 65_536, 200_003])
    def test_same_draws_and_generator_state_as_choice(self, p, size):
        from scipy.stats import chi2_contingency, ks_2samp

        for seed in (3, 11):
            a, b = random.Random(seed), random.Random(seed)
            counts = simulator._counts(b, size, p)
            assert counts == simulator._counts(a, size, p)
            assert a.getstate() == b.getstate()
            assert all(type(n) is int for n in counts) and len(counts) == len(p)
            assert sum(counts) == size and all(n == 0 for n, q in zip(counts, p) if q == 0.0)
        # 100 count vectors of each draw: the same totals by category (a
        # chi-square test of homogeneity) and the same spread of the likeliest
        # category's count (a two-sample KS test), each at the 0.1% level
        drawn, chosen = random.Random(3), make_rng(11)
        ours = np.array([simulator._counts(drawn, size, p) for _ in range(100)])
        theirs = np.array([np.bincount(chosen.choice(len(p), size=size, p=p), minlength=len(p))
                           for _ in range(100)])
        seen = (ours.sum(axis=0) + theirs.sum(axis=0)) > 0
        if np.count_nonzero(seen) == 1:  # one category holds every draw of both
            np.testing.assert_array_equal(ours, theirs)
        else:
            assert chi2_contingency([ours.sum(axis=0)[seen], theirs.sum(axis=0)[seen]]).pvalue > 1e-3
            likeliest = int(np.argmax(p))
            assert ks_2samp(ours[:, likeliest], theirs[:, likeliest]).pvalue > 1e-3
        if p == FADE_P["rounds-to-one"]:  # `choice` never reaches the third state; 1e-17 of a period does not
            assert np.cumsum(p)[1] == 1.0 and ours[:, 2].sum() == theirs[:, 2].sum() == 0

    @pytest.mark.parametrize("p_success, state", [(1 + 5e-13, 1.0), (1.0, 1 + 5e-13)],
                             ids=["period-type", "state"])
    def test_a_probability_past_one_is_drawn(self, p_success, state):
        # each is within the tolerance of its check; numpy refuses p > 1
        with pytest.raises(ValueError, match="pvals > 1"):
            make_rng(0).multinomial(10, [1 + 5e-13])
        profile = MacProfile(p_idle=0.0, p_collision=0.0, p_success=p_success,
                             t_idle=1e-5, t_collision=1e-4, t_overhead=1e-4, t_txop=1e-3, bandwidth=1e6)
        report = simulator.run(quiet_config(profile=profile, model=FadingModel.discrete([(2.0, state)]),
                                            policy=ConstantPowerPolicy(1.0), d=1.0, eta=3.0, horizon=5000,
                                            seed=2))
        assert report.n_success == 5000


def binomial_pmf(n, p):
    """The Binomial(n, p) probabilities of 0..n from the exact ``math.comb`` (n <= 1020, so
    that it converts to a float), to a few ulps."""
    return [math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)]


class TestBinomial:
    """`_binomial`, the one drawer of counts, against the exact binomial law."""

    @pytest.mark.parametrize("n, p", [
        (1, 0.5), (5, 0.3), (15, 0.5), (1000, 0.004),  # a mean below 10: geometric waiting times
        (30, 0.9), (40, 0.95),  # p > 0.5, drawn as n - B(n, 1 - p) below a mean of 10
        (100, 0.1), (40, 0.5), (300, 0.2), (1000, 0.3),  # BTRS
        (500, 0.75), (1000, 0.98),  # p > 0.5 by BTRS
    ])
    def test_counts_follow_the_exact_pmf(self, n, p):
        # a chi-square test of 20,000 seeded draws at the 0.1% level, over the
        # counts whose expected number is at least 5, each tail pooled into one cell
        from scipy.stats import chi2

        rng, size = random.Random(n * 1000 + round(p * 100)), 20_000
        draws = [simulator._binomial(rng, n, p) for _ in range(size)]
        assert all(type(k) is int and 0 <= k <= n for k in draws)
        pmf = binomial_pmf(n, p)
        seen = [0] * (n + 1)
        for k in draws:
            seen[k] += 1
        cells = [k for k in range(n + 1) if size * pmf[k] >= 5]
        lo, hi = cells[0], cells[-1]
        expected = [math.fsum(pmf[:lo + 1])] + [pmf[k] for k in cells[1:-1]] + [math.fsum(pmf[hi:])]
        observed = [sum(seen[:lo + 1])] + [seen[k] for k in cells[1:-1]] + [sum(seen[hi:])]
        stat = sum((o - size * e) ** 2 / (size * e) for o, e in zip(observed, expected))
        assert chi2.sf(stat, len(cells) - 1) > 1e-3, (stat, len(cells))

    @pytest.mark.parametrize("n, p, want", [
        (0, 0.3, 0), (0, 0.7, 0), (0, 0.0, 0), (0, 1.0, 0),
        (10, 0.0, 0), (10, 1.0, 10), (10**9, 0.0, 0), (10**9, 1.0, 10**9),
        # a waiting time past the float range ends the count
        (10**9, 5e-324, 0), (10**9, 1.0 - 2**-53, 10**9),
    ])
    def test_certain_counts(self, n, p, want):
        rng = random.Random(1)
        assert [simulator._binomial(rng, n, p) for _ in range(50)] == [want] * 50

    @pytest.mark.parametrize("p", [1e-9, 0.3, 0.5, 0.8])
    def test_mean_and_variance_at_the_horizon_cap(self, p):
        # 4,000 draws at n = 10**9: the sample mean within 4 of its standard
        # errors of n*p, and the sample variance within 4 of its own of n*p*(1 - p)
        n, size = 10**9, 4000
        rng = random.Random(round(p * 1e9))
        draws = [simulator._binomial(rng, n, p) for _ in range(size)]
        assert all(type(k) is int and 0 <= k <= n for k in draws)
        mean, var = n * p, n * p * (1 - p)
        got_mean = math.fsum(draws) / size
        got_var = math.fsum((k - got_mean) ** 2 for k in draws) / (size - 1)
        assert abs(got_mean - mean) <= 4 * math.sqrt(var / size), (got_mean, mean)
        assert abs(got_var - var) <= 4 * var * math.sqrt(2 / (size - 1)), (got_var, var)


class TestTracedRuns:
    """A trace lists the periods row by row and draws nothing: the report does not move."""

    @pytest.mark.parametrize("case", sorted(trace_cases()))
    @pytest.mark.parametrize("horizon", [1, 4999, 140_001])
    def test_traced_and_untraced_reports_are_equal(self, case, horizon):
        config = quiet_config(horizon=horizon, **trace_cases()[case])
        blocks = []
        assert simulator.run(config, trace=blocks.append) == simulator.run(config)

    @pytest.mark.parametrize("case", sorted(trace_cases()))
    def test_the_trace_re_adds_to_the_report(self, case, monkeypatch):
        # the report sums a row of `fixed` as count times row, and a continuous
        # model's successes chunk by chunk, in the order the trace takes them;
        # re-added that way from the trace's text, every total is the report's
        monkeypatch.setattr(simulator, "_CHUNK", 1000)
        config = quiet_config(horizon=4321, **trace_cases()[case])
        blocks = []
        report = simulator.run(config, trace=blocks.append)
        lines = b"".join(blocks).decode().splitlines()[1:]
        kinds = np.array([line.split(",")[0] for line in lines])
        values = np.array([[float(cell) for cell in line.split(",")[1:]] for line in lines])
        assert [report.n_idle, report.n_collision, report.n_success] == [
            int(np.sum(kinds == kind)) for kind in ("idle", "collision", "success")]
        success = kinds == "success"
        totals = []
        for column in values.T:
            successes = column[success].tolist()
            if not config.model.is_discrete:  # a chunk's successes are summed by numpy, rounded once each
                successes = [float(column[success][i:i + 1000].sum()) for i in range(0, len(successes), 1000)]
            totals.append(float(sum(map(Fraction, column[~success].tolist() + successes))))
        assert [report.elapsed_time, report.total_energy, report.total_bits] == totals
        assert report.theta_hat == report.total_bits / report.elapsed_time
        assert report.power_hat == report.total_energy / report.elapsed_time


class TestOrderDraw:
    """No order is drawn: a horizon's row counts, at the cap too, go out row by row.

    The order draw this replaced needed a hypergeometric draw that numpy
    refuses at 10**9 items; the row-order trace needs no draw at all.
    """

    @pytest.mark.parametrize("left", [
        [6 * 10**8, 4 * 10**8], [10**9, 0, 0], [0, 10**9, 0], [0, 0, 10**9],
        [999_999_999, 1], [1, 2, 10**9 - 3], [3 * 10**8, 0, 7 * 10**8 - 1, 1],
    ])
    @pytest.mark.parametrize("size", [1, 65_536, 6 * 10**8, 10**9])
    def test_a_horizon_at_the_cap(self, left, size):
        # `left` weighs the rows (idle, collision, then a success in each fading
        # state) and `size` is the horizon, at most config.MAX_HORIZON
        from hopcap.config import MAX_HORIZON

        assert size <= MAX_HORIZON
        counts = simulator._counts(random.Random(5), size, left)
        assert sum(counts) == size and all(type(k) is int for k in counts)
        assert all(k == 0 for k, w in zip(counts, left) if w == 0)
        if sum(w > 0 for w in left) == 1:  # one row holds every period
            assert counts == [size * (w > 0) for w in left]

        # the trace of those counts: a reader that refuses a fourth block of lines ends it
        rows = [(1e-5, 1e-7, 0.0), (1e-4, 2e-6, 0.0), (1.1e-3, 5e-4, 3e3), (1.1e-3, -0.0, 0.0)]
        names = [b"idle", b"collision"] + [b"success"] * (len(left) - 2)
        lines = [b"%s,%.17g,%.17g,%.17g\n" % (name, *row) for name, row in zip(names, rows)]
        want = [line * n for line, n in itertools.islice(
            ((line, min(simulator._CHUNK, k - start)) for line, k in zip(lines, counts)
             for start in range(0, k, simulator._CHUNK)), 3)]

        class Enough(Exception):
            pass

        blocks = []

        def read(block):
            blocks.append(block)
            if len(blocks) > 4:  # the header and three blocks
                raise Enough

        try:
            simulator._write_trace(read, rows[:len(left)], counts)
        except Enough:
            assert sum(map(len, want)) < sum(k * len(line) for line, k in zip(lines, counts))
        else:
            assert b"".join(blocks[1:]) == b"".join(line * k for line, k in zip(lines, counts))
        assert blocks[0] == b"period_type,duration_s,energy_J,bits\n"
        assert blocks[1:4] == want


class TestDistancesFromTheRenewalFormulas:
    """Over many seeds, each estimate lies a standard normal number of standard errors
    from `analytic_targets`: one Kolmogorov-Smirnov test per estimate at the 0.1% level."""

    @pytest.mark.parametrize("case", ["twelve_state_waterfill", "exponential_waterfill"])
    def test_distances_look_standard_normal(self, case):
        from scipy.stats import kstest

        exp = FadingModel.exponential(1.0)
        base = {
            "twelve_state_waterfill": dict(profile=profile_a(), model=TWELVE_STATE, d=0.5, eta=3.0,
                                           policy=WaterfillPolicy(waterfill.solve(TWELVE_STATE, 8.0))),
            "exponential_waterfill": dict(profile=profile_b(), model=exp, d=1.0, eta=2.0,
                                          policy=WaterfillPolicy(waterfill.solve(exp, 1.0))),
        }[case]
        targets = analytic_targets(*(base[key] for key in ("profile", "model", "policy", "d", "eta")))
        distances = [], []
        for seed in range(300):
            report = simulator.run(SimConfig(horizon=20_000, seed=seed, **base))
            for z, estimate, ci95, target in zip(distances, (report.theta_hat, report.power_hat),
                                                 (report.theta_ci95, report.power_ci95), targets):
                z.append((estimate - target) / (ci95 / simulator._CI_FACTOR))
        for z in distances:
            assert kstest(z, "norm").pvalue > 1e-3

