"""Monte Carlo validation of the saturation-MAC renewal formulas.

Contention periods are drawn i.i.d. (idle / collision / success); a
success reserves the channel for the fixed transmission time, draws a
fade, applies the power policy and ships rate*T bits.  Estimates of the
aggregate bit rate and the network power are ratio estimators, so the
95% confidence intervals use the delta method over periods.

The generator is numpy's PCG64, seeded from the config: identical seeds
reproduce reports byte for byte (draw order: period types first, then
fades for the successful periods, in sequence order).  `run` works in
fixed chunks without changing that order, so its memory is one byte per
period for the period types plus a few arrays of one chunk's length,
whatever the horizon; the estimators merge centred co-moments chunk by
chunk, and the trace is written one formatted block per chunk.

The fixed-transmission-time vs fixed-packet-size comparison works on
two channel samples: the fixed-packet totals define a time and energy
budget, and the fixed-time scheme water-fills that budget over the same
two states; its bit count never falls short.
"""

from __future__ import annotations

import contextlib
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import OrderingViolation, ValidationError
from .fading import FadingModel
from .macmodel import LN2, MacProfile
from .waterfill import WaterfillSolution

_CI_FACTOR = 1.959963984540054  # two-sided 95% normal quantile
MIN_HORIZON_FOR_CI = 10_000
_CHUNK = 1 << 16  # periods per chunk of `run`


class SmallHorizonWarning(UserWarning):
    """Horizon below the size where the normal CI is trustworthy."""


@dataclass(frozen=True)
class ConstantPowerPolicy:
    """Transmit with the same power in every fading state."""

    power_w: float

    def power(self, h):
        return np.full_like(np.asarray(h, dtype=float), self.power_w)


@dataclass(frozen=True)
class WaterfillPolicy:
    """Transmit P(h) = d**eta * xi(c*h) from a solved water-fill."""

    solution: WaterfillSolution
    d: float
    eta: float

    def power(self, h):
        c = self.solution.model.alpha_over_sigma2
        return self.d**self.eta * self.solution.allocation(c * np.asarray(h, dtype=float))


@dataclass(frozen=True, eq=False)
class SimConfig:
    profile: MacProfile
    model: FadingModel
    policy: ConstantPowerPolicy | WaterfillPolicy
    d: float
    eta: float
    horizon: int
    seed: int
    relinquish_overhead: float | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ValidationError(f"horizon must be >= 1, got {self.horizon}")
        if self.d <= 0 or self.eta <= 0:
            raise ValidationError("hop distance and eta must be > 0")
        if self.relinquish_overhead is not None and not (
            0 <= self.relinquish_overhead <= self.profile.t_txop
        ):
            raise ValidationError("relinquish overhead must lie in [0, t_txop]")
        if self.horizon < MIN_HORIZON_FOR_CI:
            warnings.warn(
                f"horizon {self.horizon} < {MIN_HORIZON_FOR_CI}: confidence "
                "intervals may be unreliable",
                SmallHorizonWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class SimReport:
    theta_hat: float
    theta_ci95: float
    power_hat: float
    power_ci95: float
    n_idle: int
    n_collision: int
    n_success: int
    horizon: int
    seed: int
    elapsed_time: float
    total_bits: float
    total_energy: float

    def to_json(self) -> str:
        """Deterministic serialization; byte-identical for identical seeds."""
        return json.dumps(
            {
                "theta_hat_bps": self.theta_hat,
                "theta_ci95_bps": self.theta_ci95,
                "power_hat_w": self.power_hat,
                "power_ci95_w": self.power_ci95,
                "periods": {
                    "idle": self.n_idle,
                    "collision": self.n_collision,
                    "success": self.n_success,
                },
                "horizon": self.horizon,
                "seed": self.seed,
                "elapsed_time_s": self.elapsed_time,
                "total_bits": self.total_bits,
                "total_energy_j": self.total_energy,
            },
            sort_keys=True,
        )


def run(config: SimConfig, trace_path=None) -> SimReport:
    """Simulate ``horizon`` contention periods and estimate rate and power.

    Period types are drawn chunk by chunk into one int8 array, then each
    chunk's successes get their fades; sequential draws give the numbers
    one call over the horizon would, so nothing depends on ``_CHUNK``.
    Idle and collision periods enter the totals and co-moments by count.
    """
    prof = config.profile
    rng = np.random.Generator(np.random.PCG64(config.seed))
    chunks = [
        slice(s, min(s + _CHUNK, config.horizon)) for s in range(0, config.horizon, _CHUNK)
    ]
    kinds = np.empty(config.horizon, dtype=np.int8)
    for c in chunks:
        kinds[c] = rng.choice(
            3, size=c.stop - c.start, p=[prof.p_idle, prof.p_collision, prof.p_success]
        )

    # rows: duration, energy, bits; columns: idle, collision, success.  A
    # success's values vary per period, so its column is a placeholder
    fixed = np.array(
        [[prof.t_idle, prof.t_collision, 0.0], [prof.e_idle, prof.e_collision, 0.0], [0.0] * 3]
    )
    counts = np.zeros(3, dtype=np.int64)
    moments = _CoMoments()
    success_sums = []
    trace = contextlib.nullcontext()
    if trace_path is not None:
        trace = open(trace_path, "w", newline="", encoding="utf-8")
    with trace as fh:
        if fh is not None:
            fh.write("period_type,duration_s,energy_J,bits\n")
        for c in chunks:
            kc = kinds[c]
            n_kind = np.bincount(kc, minlength=3)
            counts += n_kind
            moments.merge(int(n_kind[0]), fixed[:, 0], 0.0)
            moments.merge(int(n_kind[1]), fixed[:, 1], 0.0)
            rows = None
            if n_kind[2]:
                rows = _success_rows(config, config.model.sample_h(rng, int(n_kind[2])))
                success_sums.append(rows.sum(axis=1))
                moments.merge_rows(rows)
            if fh is not None:
                fh.write(_trace_block(kc, fixed, rows))

    n_idle, n_collision, n_success = counts.tolist()
    total_time, total_energy, total_bits = (
        math.fsum([n_idle * fixed[j, 0], n_collision * fixed[j, 1]] + [s[j] for s in success_sums])
        for j in range(3)
    )
    theta_hat = total_bits / total_time
    power_hat = total_energy / total_time
    return SimReport(
        theta_hat=theta_hat,
        theta_ci95=_CI_FACTOR * moments.ratio_se(2, theta_hat, total_time),
        power_hat=power_hat,
        power_ci95=_CI_FACTOR * moments.ratio_se(1, power_hat, total_time),
        n_idle=n_idle,
        n_collision=n_collision,
        n_success=n_success,
        horizon=config.horizon,
        seed=config.seed,
        elapsed_time=total_time,
        total_bits=total_bits,
        total_energy=total_energy,
    )


def _success_rows(config, h):
    """(duration, energy, bits) of successful periods with fades ``h``, by row."""
    prof = config.profile
    p = config.policy.power(h)
    x = config.model.alpha_over_sigma2 * h
    rows = np.empty((3, h.size))
    rows[0] = prof.t_overhead + prof.t_txop
    if config.relinquish_overhead is not None:
        rows[0, p == 0.0] = prof.t_overhead + config.relinquish_overhead
    rows[1] = prof.e_overhead + prof.t_txop * p
    rows[2] = prof.t_txop * prof.bandwidth * np.log1p(x * p / config.d**config.eta) / LN2
    return rows


class _CoMoments:
    """Count, mean and centred co-moment matrix of (duration, energy, bits).

    Groups of periods are merged by Chan's pairwise update, so nothing
    depends on raw power sums; a group of identical periods adds an exact
    zero, and identical periods throughout give a variance of exactly 0.
    """

    def __init__(self):
        self.n, self.mean, self.m2 = 0, np.zeros(3), np.zeros((3, 3))

    def merge(self, n, mean, m2):
        """Add a group of ``n`` periods (``m2`` is 0 for identical periods)."""
        if n == 0:
            return
        total = self.n + n
        delta = mean - self.mean
        self.mean = self.mean + delta * (n / total)
        self.m2 = self.m2 + m2 + np.outer(delta, delta) * (self.n * n / total)
        self.n = total

    def merge_rows(self, rows):
        # centred on the group mean, taken relative to its first period so
        # that a group of identical periods has exactly that mean
        first = rows[:, :1]
        mean = first + (rows - first).mean(axis=1, keepdims=True)
        dev = rows - mean
        self.merge(rows.shape[1], mean[:, 0], dev @ dev.T)

    def ratio_se(self, j, ratio, total_time):
        """Delta-method standard error of total[j] / total duration."""
        if self.n < 2:
            return 0.0
        m2 = self.m2  # sum of (y_j - ratio * duration)**2 over the periods
        ss = m2[j, j] - 2.0 * ratio * m2[j, 0] + ratio * ratio * m2[0, 0]
        return math.sqrt(max(ss, 0.0) / (self.n - 1) / self.n) / (total_time / self.n)


_TRACE_NAMES = np.array(["idle,", "collision,", "success,"], dtype=object)


def _trace_block(kinds, fixed, success_rows):
    """CSV rows of one chunk; each distinct cell is formatted once (``%.17g``)."""
    rows = fixed[:, kinds]
    if success_rows is not None:
        rows[:, kinds == 2] = success_rows
    cells = [_TRACE_NAMES[kinds]]
    for column, end in zip(rows, (",", ",", "\n")):
        # unique bit patterns, so that -0.0 and 0.0 keep their own text
        values, where = np.unique(column.view(np.int64), return_inverse=True)
        text = np.array([f"{v:.17g}{end}" for v in values.view(np.float64).tolist()], dtype=object)
        cells.append(text[where])
    out = [""] * (4 * kinds.size)
    for j, column in enumerate(cells):
        out[j::4] = column.tolist()
    return "".join(out)


# -- fixed transmission time vs fixed packet size -------------------------


@dataclass(frozen=True)
class FttFpComparison:
    """Bit totals of the two schemes over one pair of channel samples."""

    bits_fp: float
    bits_ftt: float
    energy: float
    duration: float


@dataclass(frozen=True)
class SwapComparison:
    """Energy effect of exchanging rates between two channel states."""

    energy_original: float
    energy_swapped: float
    p1_swapped: float
    p2_swapped: float
    duration: float


def compare_ftt_fp(
    h1: float,
    h2: float,
    p1: float,
    p2: float,
    packet_bits: float = 1000.0,
    bandwidth: float = 1e6,
) -> FttFpComparison:
    """Compare fixed-packet and fixed-time transmission on two samples.

    The fixed-packet scheme ships ``packet_bits`` in each state, taking
    total time T_P and energy E_P.  The fixed-time scheme splits T_P
    into two equal slots over the same states and water-fills the energy
    budget E_P; the returned bit counts satisfy bits_ftt >= bits_fp.
    Requires h1*p1 >= h2*p2 (better state carries the higher rate);
    apply `swap_comparison` first otherwise.
    """
    if not (h1 >= h2 > 0):
        raise ValidationError(f"need h1 >= h2 > 0, got h1={h1}, h2={h2}")
    if min(p1, p2) <= 0:
        raise ValidationError("powers must be > 0")
    if h1 * p1 < h2 * p2:
        raise OrderingViolation(
            f"h1*p1={h1 * p1} < h2*p2={h2 * p2}: swap the rates first"
        )
    r1 = bandwidth * math.log2(1.0 + h1 * p1)
    r2 = bandwidth * math.log2(1.0 + h2 * p2)
    t1, t2 = packet_bits / r1, packet_bits / r2
    duration = t1 + t2
    energy = p1 * t1 + p2 * t2
    bits_fp = 2.0 * packet_bits

    slot = duration / 2.0
    q1, q2 = _two_state_waterfill(h1, h2, energy / slot)
    bits_ftt = slot * bandwidth * (math.log2(1.0 + h1 * q1) + math.log2(1.0 + h2 * q2))
    assert bits_ftt >= bits_fp * (1.0 - 1e-9)
    return FttFpComparison(bits_fp=bits_fp, bits_ftt=bits_ftt, energy=energy, duration=duration)


def swap_comparison(
    h1: float,
    h2: float,
    p1: float,
    p2: float,
    packet_bits: float = 1000.0,
    bandwidth: float = 1e6,
) -> SwapComparison:
    """Exchange the two rates (h1*p1 <-> h2*p2) and compare energies.

    When h1 > h2 and h1*p1 < h2*p2, moving the higher rate onto the
    better state keeps the total time fixed and strictly lowers the
    energy, which is why the ordering precondition of `compare_ftt_fp`
    loses no generality.
    """
    if not (h1 >= h2 > 0) or min(p1, p2) <= 0:
        raise ValidationError("need h1 >= h2 > 0 and positive powers")
    p1_swapped = h2 * p2 / h1
    p2_swapped = h1 * p1 / h2
    t1 = packet_bits / (bandwidth * math.log2(1.0 + h1 * p1))
    t2 = packet_bits / (bandwidth * math.log2(1.0 + h2 * p2))
    energy_original = p1 * t1 + p2 * t2
    # swapped rates: state 1 now runs at the old state-2 rate and vice versa
    energy_swapped = p1_swapped * t2 + p2_swapped * t1
    return SwapComparison(
        energy_original=energy_original,
        energy_swapped=energy_swapped,
        p1_swapped=p1_swapped,
        p2_swapped=p2_swapped,
        duration=t1 + t2,
    )


def _two_state_waterfill(h1: float, h2: float, budget: float):
    """Split ``budget`` over two states maximizing the summed log rates."""
    inv_level = 0.5 * (budget + 1.0 / h1 + 1.0 / h2)
    q2 = inv_level - 1.0 / h2
    if q2 <= 0.0:
        return budget, 0.0
    return inv_level - 1.0 / h1, q2
