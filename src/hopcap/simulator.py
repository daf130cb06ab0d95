"""Monte Carlo validation of the saturation-MAC renewal formulas.

Contention periods are drawn i.i.d. (idle / collision / success); a
success reserves the channel for the fixed transmission time, draws a
fade, applies the power policy and ships rate*T bits.  Estimates of the
aggregate bit rate and the network power are ratio estimators, so the
95% confidence intervals use the delta method over periods.

The generator is numpy's PCG64, seeded from the config: identical seeds
reproduce reports byte for byte (draw order: period types first, then
fades for the successful periods, in sequence order).  `run` keeps that
order in one pass over fixed chunks, drawing fades from a second copy of
the stream, so its memory is a few arrays of one chunk's length whatever
the horizon; the estimators merge centred co-moments chunk by chunk, and
the trace is written one formatted block per chunk.

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
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, OrderingViolation, ValidationError
from .fading import FadingModel, choice_thresholds
from .macmodel import LN2, MacProfile
from .waterfill import WaterfillSolution, gamma_and_lambda

_CI_FACTOR = 1.959963984540054  # two-sided 95% normal quantile
MIN_HORIZON_FOR_CI = 10_000
_CHUNK = 1 << 16  # periods per chunk of `run`


class SmallHorizonWarning(UserWarning):
    """Horizon below the size where the normal CI is trustworthy."""


class ConstantPowerPolicy(NamedTuple):
    """Transmit with the same power in every fading state, whatever the path loss."""

    power_w: float

    def power(self, h, loss):
        return np.full_like(np.asarray(h, dtype=float), self.power_w)


class WaterfillPolicy(NamedTuple):
    """Transmit P(h) = loss * xi(c*h) from a solved water-fill, with loss = d**eta.

    ``xi(x) = (1/lam - 1/x)^+`` is the normalized power poured on state x.
    """

    solution: WaterfillSolution

    def power(self, h, loss):
        x = self.solution.model.alpha_over_sigma2 * np.asarray(h, dtype=float)
        return loss * np.maximum(1.0 / self.solution.lam - 1.0 / x, 0.0)


class _SimConfigFields(NamedTuple):
    profile: MacProfile
    model: FadingModel
    policy: ConstantPowerPolicy | WaterfillPolicy
    d: float
    eta: float
    horizon: int
    seed: int
    relinquish_overhead: float | None = None


class SimConfig(_SimConfigFields):
    __slots__ = ()

    def __init__(self, *_args, **_kwargs):
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


class SimReport(NamedTuple):
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


def _period_types(rng: np.random.Generator, out: np.ndarray, p):
    """Fill the int8 array ``out`` as ``rng.choice(3, out.size, p=p)``; return the three counts.

    The draws and the generator state after them are ``choice``'s (see
    `fading.choice_thresholds`).  Each type's count comes from the two masks.
    """
    low, high = choice_thresholds(p)
    u = rng.random(out.size)
    busy, success = u >= low, u >= high
    np.add(busy, success, out=out, dtype=np.int8)
    n_busy, n_success = int(np.count_nonzero(busy)), int(np.count_nonzero(success))
    return out.size - n_busy, n_busy - n_success, n_success


def run(config: SimConfig, trace_path=None) -> SimReport:
    """Simulate ``horizon`` contention periods and estimate rate and power.

    One pass over the chunks in one chunk-sized int8 buffer: a chunk's
    period types, then its successes' fades, drawn from the stream past
    the ``horizon`` period-type draws (one 64-bit output each), as one
    call over the horizon would; nothing depends on ``_CHUNK``.  Idle and
    collision periods enter the totals and co-moments by count.  An
    estimate that leaves the float range raises NumericalError.
    """
    prof = config.profile
    rng = np.random.Generator(np.random.PCG64(config.seed))
    fades = np.random.Generator(np.random.PCG64(config.seed).advance(config.horizon))
    buffer = np.empty(min(_CHUNK, config.horizon), dtype=np.int8)
    p = [prof.p_idle, prof.p_collision, prof.p_success]

    # rows: duration, energy, bits; columns: idle, collision, success.  A
    # success's values vary per period, so its column is a placeholder
    fixed = np.array(
        [[prof.t_idle, prof.t_collision, 0.0], [prof.e_idle, prof.e_collision, 0.0], [0.0] * 3]
    )
    moments = _CoMoments()
    success_sums = []
    counts = [0, 0, 0]  # idle, collision and success periods so far
    trace = contextlib.nullcontext()
    if trace_path is not None:
        try:
            trace = open(trace_path, "w", newline="", encoding="utf-8")
        except OSError as exc:
            raise ValidationError(f"cannot write trace: {exc}") from exc
    with trace as fh:
        if fh is not None:
            fh.write("period_type,duration_s,energy_J,bits\n")
            lines = [f"{name},{t:.17g},{e:.17g},{b:.17g}\n"
                     for name, t, e, b in zip(("idle", "collision"), *fixed.tolist())]
        for start in range(0, config.horizon, _CHUNK):
            kinds = buffer[:min(_CHUNK, config.horizon - start)]
            n_idle, n_collision, n_success = chunk = _period_types(rng, kinds, p)
            counts = [total + n for total, n in zip(counts, chunk)]
            moments.merge(n_idle, fixed[:, 0], 0.0)
            moments.merge(n_collision, fixed[:, 1], 0.0)
            rows = None
            if n_success:
                rows = _success_rows(config, config.model.sample_h(fades, n_success))
                success_sums.append(rows.sum(axis=1))
                moments.merge_rows(rows)
            if fh is not None:
                fh.write(_trace_block(kinds, lines, rows))

    n_idle, n_collision, n_success = counts
    total_time, total_energy, total_bits = (
        math.fsum([n_idle * fixed[j, 0], n_collision * fixed[j, 1]] + [s[j] for s in success_sums])
        for j in range(3)
    )
    theta_hat = total_bits / total_time
    power_hat = total_energy / total_time
    estimates = (theta_hat, _CI_FACTOR * moments.ratio_se(2, theta_hat, total_time),
                 power_hat, _CI_FACTOR * moments.ratio_se(1, power_hat, total_time))
    if not all(map(math.isfinite, estimates)):
        raise NumericalError(f"the estimates leave the float range: bits {total_bits}, "
                             f"energy {total_energy}, time {total_time}")
    return SimReport(
        *estimates,
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
    loss = config.d**config.eta
    p = config.policy.power(h, loss)
    x = config.model.alpha_over_sigma2 * h
    rows = np.empty((3, h.size))
    rows[0] = prof.t_overhead + prof.t_txop
    if config.relinquish_overhead is not None:
        rows[0, p == 0.0] = prof.t_overhead + config.relinquish_overhead
    rows[1] = prof.e_overhead + prof.t_txop * p
    rows[2] = prof.t_txop * prof.bandwidth * np.log1p(x * p / loss) / LN2
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


def _trace_block(kinds, lines, success_rows):
    """CSV rows of one chunk, every cell as ``%.17g``.

    ``lines`` holds the idle and collision rows, formatted once per run.  A
    success column's cells are formatted once per distinct value, and a
    success row once per distinct combination of its three cells.
    """
    table, codes = lines, kinds
    if success_rows is not None:
        texts, where = [], []
        for column, end in zip(success_rows, (",", ",", "\n")):
            # unique bit patterns, so that -0.0 and 0.0 keep their own text
            values, inverse = np.unique(column.view(np.int64), return_inverse=True)
            texts.append([f"{v:.17g}{end}" for v in values.view(np.float64).tolist()])
            where.append(inverse)
        shape = tuple(map(len, texts))
        combos, inverse = np.unique(np.ravel_multi_index(where, shape), return_inverse=True)
        t, e, b = texts
        table = lines + [f"success,{t[i]}{e[j]}{b[k]}" for i, j, k in
                         zip(*(a.tolist() for a in np.unravel_index(combos, shape)))]
        codes = kinds.astype(np.intp)
        codes[kinds == 2] = 2 + inverse
    return "".join(np.array(table, dtype=object)[codes].tolist())


# -- fixed transmission time vs fixed packet size -------------------------


class FttFpComparison(NamedTuple):
    """Bit totals of the two schemes over one pair of channel samples."""

    bits_fp: float
    bits_ftt: float
    energy: float
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
    Requires h1*p1 >= h2*p2 (better state carries the higher rate).  This
    loses no generality: exchanging the two rates otherwise keeps the
    total time and strictly lowers the energy.
    """
    if not math.inf > h1 >= h2 > 0:
        raise ValidationError(f"need finite h1 >= h2 > 0, got h1={h1}, h2={h2}")
    if not (0 < p1 < math.inf and 0 < p2 < math.inf):
        raise ValidationError("powers must be finite and > 0")
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

    # one equally likely state per slot, water-filled at the mean power energy/duration
    states = [(h1, 0.5), (h2, 0.5)] if h1 != h2 else [(h1, 1.0)]
    gamma, _ = gamma_and_lambda(FadingModel.discrete(states), energy / duration)
    bits_ftt = duration * bandwidth * gamma / LN2
    if not bits_ftt >= bits_fp * (1.0 - 1e-9):
        raise NumericalError(f"fixed-time bits {bits_ftt} fall short of {bits_fp}")
    return FttFpComparison(bits_fp=bits_fp, bits_ftt=bits_ftt, energy=energy, duration=duration)
