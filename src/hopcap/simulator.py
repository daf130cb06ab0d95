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
the stream, in work arrays of one chunk's length that are allocated once
per run and filled in place, whatever the horizon.  Every period is
tallied in a group of periods of one duration: idle, collision and a
discrete model's success in each fading state are rows counted as
identical periods (so a discrete run's trace is n + 2 lines formatted
once), and a continuous chunk's successes are a group or two.  Totals are
exact sums, rounded once; the CIs sum the residuals group by group.  The
trace leaves as one formatted block per chunk, handed to a callable: this
module opens no file.

The fixed-transmission-time vs fixed-packet-size comparison works on
two channel samples: the fixed-packet totals define a time and energy
budget, and the fixed-time scheme water-fills that budget over the same
two states; its bit count never falls short.
"""

from __future__ import annotations

import json
import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, OrderingViolation, ValidationError
from .fading import FadingModel
from .macmodel import LN2, MacProfile
from .waterfill import WaterfillSolution, gamma_and_lambda

_CI_FACTOR = 1.959963984540054  # two-sided 95% normal quantile
MIN_HORIZON_FOR_CI = 10_000
_CHUNK = 1 << 16  # periods per chunk of `run`
_CELL = b",%.17g"  # a trace cell: every digit, and the sign of -0.0
PACKET_BITS, BANDWIDTH_HZ = 1000.0, 1e6  # the packet and the band of `compare_ftt_fp`


class SmallHorizonWarning(UserWarning):
    """Horizon below the size where the normal CI is trustworthy."""


class ConstantPowerPolicy(NamedTuple):
    """Transmit with the same power in every fading state, whatever the path loss."""

    power_w: float

    def power(self, h, loss, out=None):
        if out is None:
            return np.full_like(np.asarray(h, dtype=float), self.power_w)
        out.fill(self.power_w)
        return out


class WaterfillPolicy(NamedTuple):
    """Transmit P(h) = loss * xi(c*h) from a solved water-fill, with loss = d**eta.

    ``xi(x) = (1/lam - 1/x)^+`` is the normalized power poured on state x.
    ``out``, if given, is an array of h's shape that receives the power.
    """

    solution: WaterfillSolution

    def power(self, h, loss, out=None):
        p = np.multiply(self.solution.model.alpha_over_sigma2, h, out=out)
        p = np.divide(1.0, p, out=out)
        p = np.subtract(1.0 / self.solution.lam, p, out=out)
        p = np.maximum(p, 0.0, out=out)
        return np.multiply(loss, p, out=out)


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
        if not (0 < self.d < math.inf and 0 < self.eta < math.inf):
            raise ValidationError(f"hop distance and eta must be finite and > 0, got d={self.d}, "
                                  f"eta={self.eta}")
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


class _Chunk:
    """The chunk-sized work arrays of `run`, allocated once per run and filled in place.

    ``u`` holds a chunk's period-type uniforms and ``fades`` the successes'
    fades, or a discrete model's fade uniforms; ``mask`` is the bool scratch
    of `categories`, `groups_of` and `trace_text`.  ``power``, ``rows`` and
    ``work`` (scratch of `FadingModel.sample_h`) serve the rows of a
    continuous model, and ``dev`` the deviations of `groups_of`; ``codes``
    (the period types), ``states`` (a discrete model's fading states) and
    ``text`` serve the trace.
    """

    def __init__(self, size, traced):
        self.u, self.fades, self.power = np.empty(size), np.empty(size), np.empty(size)
        self.rows, self.dev = np.empty(3 * size), np.empty(3 * size)
        self.mask = np.empty(size, dtype=bool)
        self.work = (np.empty(size), np.empty(size), np.empty(size, dtype=np.intp),
                     np.empty(size, dtype=np.intp))
        if traced:
            self.states, self.codes = np.empty(size, dtype=np.intp), np.empty(size, dtype=np.intp)
            self.text = np.empty(size, dtype=object)

    def categories(self, rng, u, thresholds, codes=None):
        """Draw ``u`` as ``rng.choice(len(p), u.size, p=p)`` would; return each category's count.

        ``thresholds`` are p's (`choice_thresholds`): a draw's category is
        the count of them at or below its uniform, so the draws and the
        generator state after them are ``choice``'s.  ``codes``, if given, is
        an integer array of u's length that receives each draw's category.
        """
        mask = self.mask[:u.size]
        rng.random(out=u)
        if codes is not None and not thresholds:  # one category
            codes.fill(0)
        at_or_above = [u.size]
        for i, threshold in enumerate(thresholds):
            np.greater_equal(u, threshold, out=mask)
            at_or_above.append(int(np.count_nonzero(mask)))
            if codes is not None and i:
                codes += mask
            elif codes is not None:  # the first mask is copied in, not added to zeros
                np.copyto(codes, mask)
        return [n - m for n, m in zip(at_or_above, at_or_above[1:] + [0])]

    def rows_of(self, config, fades, size):
        """`_success_rows` of ``size`` fades drawn from ``fades``, in the work arrays."""
        h = config.model.sample_h(fades, size, out=self.fades[:size],
                                  work=tuple(a[:size] for a in self.work))
        return _success_rows(config, h, self.power[:size], self.rows[:3 * size].reshape(3, size))

    def groups_of(self, rows):
        """``(count, mean, sums of squared deviations)`` of ``rows``' periods of each duration.

        A success lasts its transmission time unless it relinquishes the
        channel: one group, or two.  A mean is taken relative to the group's
        first period, so identical periods have exactly that mean.
        """
        n = rows.shape[1]
        same = np.equal(rows[0], rows[0, 0], out=self.mask[:n])
        k = int(np.count_nonzero(same))
        work = self.dev[:rows.size]
        parts = [(rows, work.reshape(3, n))]
        if k < n:  # copied into the work array, where each becomes its deviations
            parts = [(part, part) for part in (
                np.compress(same, rows, axis=1, out=work[:3 * k].reshape(3, k)),
                np.compress(~same, rows, axis=1, out=work[3 * k:].reshape(3, n - k)))]
        groups = []
        for part, dev in parts:
            first = part[:, :1].copy()
            np.subtract(part, first, out=dev)
            shift = dev.mean(axis=1, keepdims=True)
            dev -= shift
            dev *= dev
            groups.append((dev.shape[1], (first + shift)[:, 0], dev.sum(axis=1)))
        return groups

    def trace_text(self, table, size, success_codes):
        """The chunk's CSV rows: for each period the line of ``table`` at its code.

        A period's code is its type, a success's the next of ``success_codes``.
        """
        codes, success = self.codes[:size], self.mask[:size]
        np.equal(codes, 2, out=success)
        codes[success] = success_codes
        text = np.take(np.array(table, dtype=object), codes, out=self.text[:size])
        return b"".join(text.tolist())


def run(config: SimConfig, trace=None) -> SimReport:
    """Simulate ``horizon`` contention periods and estimate rate and power.

    One pass over the chunks in work arrays allocated once (`_Chunk`): a
    chunk's period types, then its successes' fades, drawn from the stream
    past the ``horizon`` period-type draws (one 64-bit output each), as one
    call over the horizon would; nothing depends on ``_CHUNK``.  The rows of
    ``fixed`` are counted, and a continuous chunk's successes summed and
    grouped (`_Chunk.groups_of`); each total is the exact sum of count
    times row plus the chunks' sums, rounded once.  Periods that last 0 s
    in total, or an estimate out of the float range, raise NumericalError.

    ``trace``, if given, is called with each block of the trace's bytes, in
    order, the CSV header first; what it raises ends the run.
    """
    prof = config.profile
    rng = np.random.Generator(np.random.PCG64(config.seed))
    fades = np.random.Generator(np.random.PCG64(config.seed).advance(config.horizon))
    traced = trace is not None
    chunk = _Chunk(min(_CHUNK, config.horizon), traced)
    thresholds = choice_thresholds([prof.p_idle, prof.p_collision, prof.p_success])

    # the (duration, energy, bits) rows of idle and collision periods, then,
    # for a discrete model, of a success in each fading state
    fixed = np.array([[prof.t_idle, prof.e_idle, 0.0], [prof.t_collision, prof.e_collision, 0.0]])
    names = [b"idle", b"collision"]
    discrete = config.model.is_discrete
    if discrete:
        gains, probs = config.model.kind
        fixed = np.vstack([fixed, _success_rows(config, np.array(gains)).T])
        names += [b"success"] * len(gains)
        fade_thresholds = choice_thresholds(probs)
    counts = [0] * len(fixed)  # periods so far by row of `fixed`
    groups = []  # a continuous chunk's successes by duration (`_Chunk.groups_of`)
    success_sums = []  # and their column sums
    lines = None  # the trace lines, formatted once per run
    if traced:
        trace(b"period_type,duration_s,energy_J,bits\n")
        lines = _trace_lines(names, fixed.T)
    for start in range(0, config.horizon, _CHUNK):
        size = min(_CHUNK, config.horizon - start)
        by_row = chunk.categories(rng, chunk.u[:size], thresholds,
                                  chunk.codes[:size] if traced else None)
        n = by_row[2]
        table, codes = lines, []  # the chunk's trace lines, and each success's line
        if discrete:
            codes = chunk.states[:n] if traced else None
            by_row[2:] = chunk.categories(fades, chunk.fades[:n], fade_thresholds, codes)
            if traced:
                codes += 2  # a state's line follows the idle and collision lines
        elif n:
            rows = chunk.rows_of(config, fades, n)
            success_sums.append(rows.sum(axis=1).tolist())
            groups += chunk.groups_of(rows)
            if traced:
                table = lines + _trace_lines([b"success"] * n, rows)
                codes = np.arange(2, n + 2)
        # a continuous chunk's successes are no row of `fixed`: zip drops their count
        counts = [total + k for total, k in zip(counts, by_row)]
        if traced:
            trace(chunk.trace_text(table, size, codes))

    fixed = fixed.tolist()  # each row's periods are a group of identical periods
    groups[:0] = [(k, row, (0.0, 0.0, 0.0)) for k, row in zip(counts, fixed) if k]
    total_time, total_energy, total_bits = (
        _sum_of_counts(counts + [1] * len(success_sums), column) for column in zip(*fixed, *success_sums))
    if total_time == 0.0:
        raise NumericalError("the periods last 0 s in total: no rate or power to estimate")
    estimates = []
    for j, total in ((2, total_bits), (1, total_energy)):
        ratio = total / total_time
        # the residuals of a ratio out of the float range would only warn
        estimates += [ratio, _CI_FACTOR * _ratio_se(groups, j, ratio, total_time)
                      if math.isfinite(ratio) else math.nan]
    if not all(map(math.isfinite, estimates)):
        raise NumericalError(f"the estimates leave the float range: bits {total_bits}, "
                             f"energy {total_energy}, time {total_time}")
    return SimReport(
        *estimates,
        n_idle=counts[0],
        n_collision=counts[1],
        n_success=config.horizon - counts[0] - counts[1],
        horizon=config.horizon,
        seed=config.seed,
        elapsed_time=total_time,
        total_bits=total_bits,
        total_energy=total_energy,
    )


def _sum_of_counts(counts, values):
    """The sum of count times value over the pairs with a count, rounded once.

    The values' exact ratios are summed as integers; where one is not
    finite, ``math.fsum`` of the products gives the inf or NaN.
    """
    pairs = [(n, v) for n, v in zip(counts, values) if n]
    if not all(math.isfinite(v) for _, v in pairs):
        return math.fsum(n * v for n, v in pairs)
    ratios = [(n, *v.as_integer_ratio()) for n, v in pairs]
    scale = max((den for _, _, den in ratios), default=1)
    return sum(n * num * (scale // den) for n, num, den in ratios) / scale


def choice_thresholds(probs) -> list:
    """The thresholds by which ``rng.choice(len(probs), p=probs)`` picks categories.

    ``choice`` draws ``u = rng.random(size)`` and picks for each ``u`` the
    count of these thresholds at or below it: its cumulative sums of
    ``probs`` divided by the last, which is left out.  Counting them gives
    ``choice``'s categories and generator state without its checks of ``p``.
    """
    sums = np.cumsum(probs)
    return (sums[:-1] / sums[-1]).tolist()


def _success_rows(config, h, power=None, out=None):
    """(duration, energy, bits) of successful periods with fades ``h``, by row.

    ``power``, if given, is an array of h's length and ``out`` one of shape
    (3, h.size): the power and the rows are computed in them.
    """
    prof = config.profile
    loss = config.d**config.eta
    p = config.policy.power(h, loss, out=power)
    rows = np.empty((3, h.size)) if out is None else out
    duration, energy, bits = rows
    duration.fill(prof.t_overhead + prof.t_txop)
    if config.relinquish_overhead is not None:
        duration[p == 0.0] = prof.t_overhead + config.relinquish_overhead
    np.multiply(prof.t_txop, p, out=energy)
    energy += prof.e_overhead
    np.multiply(config.model.alpha_over_sigma2, h, out=bits)
    bits *= p
    bits /= loss
    np.log1p(bits, out=bits)
    bits *= prof.t_txop * prof.bandwidth
    bits /= LN2
    return rows


def _ratio_se(groups, j, ratio, total_time):
    """Delta-method standard error of total[j] / total duration over ``groups`` of periods.

    In a group of one duration (`_Chunk.groups_of`) the residuals ``y_j -
    ratio * duration`` deviate as ``y_j`` does, so their sum of squares is
    the groups' plus the spread of the groups' mean residuals, taken from
    the first group's: identical periods throughout give exactly 0.
    """
    counts = np.array([k for k, _, _ in groups], dtype=float)
    n = int(counts.sum())
    if n < 2:
        return 0.0
    means = np.array([mean for _, mean, _ in groups])
    d = (means[:, j] - means[0, j]) - ratio * (means[:, 0] - means[0, 0])
    d -= math.fsum(counts * d) / n
    ss = math.fsum(counts * d * d) + math.fsum(squares[j] for _, _, squares in groups)
    return math.sqrt(ss / (n - 1) / n) / (total_time / n)


def _trace_lines(names, rows):
    """The trace lines ``name,duration,energy,bits`` of ``names`` and the columns of ``rows``.

    Each distinct value of a row of ``rows`` is formatted once: a success's
    energy, say, is one value over a run at constant power.
    """
    lines = np.array(names, dtype=object)
    for column, cell in zip(rows, (_CELL, _CELL, _CELL + b"\n")):
        # unique bit patterns, so that -0.0 and 0.0 keep their own text
        values, inverse = np.unique(column.view(np.int64), return_inverse=True)
        lines += np.array([cell % v for v in values.view(np.float64).tolist()], dtype=object)[inverse]
    return lines.tolist()


# -- fixed transmission time vs fixed packet size -------------------------


class FttFpComparison(NamedTuple):
    """Bit totals of the two schemes over one pair of channel samples."""

    bits_fp: float
    bits_ftt: float
    energy: float
    duration: float


def compare_ftt_fp(h1: float, h2: float, p1: float, p2: float) -> FttFpComparison:
    """Compare fixed-packet and fixed-time transmission on two samples.

    The fixed-packet scheme ships ``PACKET_BITS`` in each state, taking
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
    r1 = BANDWIDTH_HZ * math.log2(1.0 + h1 * p1)
    r2 = BANDWIDTH_HZ * math.log2(1.0 + h2 * p2)
    t1, t2 = PACKET_BITS / r1, PACKET_BITS / r2
    duration = t1 + t2
    energy = p1 * t1 + p2 * t2
    bits_fp = 2.0 * PACKET_BITS

    # one equally likely state per slot, water-filled at the mean power energy/duration
    states = [(h1, 0.5), (h2, 0.5)] if h1 != h2 else [(h1, 1.0)]
    gamma, _ = gamma_and_lambda(FadingModel.discrete(states), energy / duration)
    bits_ftt = duration * BANDWIDTH_HZ * gamma / LN2
    if not bits_ftt >= bits_fp * (1.0 - 1e-9):
        raise NumericalError(f"fixed-time bits {bits_ftt} fall short of {bits_fp}")
    return FttFpComparison(bits_fp=bits_fp, bits_ftt=bits_ftt, energy=energy, duration=duration)
