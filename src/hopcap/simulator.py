"""Monte Carlo validation of the saturation-MAC renewal formulas.

Contention periods are drawn i.i.d. (idle / collision / success); a
success reserves the channel for the fixed transmission time, draws a
fade, applies the power policy and ships rate*T bits.  Estimates of the
aggregate bit rate and the network power are ratio estimators, so the
95% confidence intervals use the delta method over periods.

The generator is numpy's PCG64, seeded from the config: identical seeds
reproduce reports byte for byte.  The estimates read the periods only
through each row's count (idle, collision and, for a discrete model, a
success in each fading state) and a continuous model's success rows, so
that is all `run` draws, in this order: the period-type counts in one
multinomial, then a discrete model's state counts in another, or a
continuous model's fades, a chunk of successes at a time, in work arrays
allocated once per run.  An i.i.d. sequence of periods is its counts in a
uniformly random order, and only the trace reads that order: a traced run
draws it from a stream of its own, chunk by chunk, and reports what the
untraced run of its seed reports.  Every period is tallied in a group of
periods of one duration: a row's periods are identical (so a discrete
run's trace is n + 2 lines formatted once), and a continuous chunk's
successes are a group or two.  Totals are exact sums, rounded once; the
CIs sum the residuals group by group.  The trace leaves as one formatted
block per chunk, handed to a callable: this module opens no file.
"""

from __future__ import annotations

import json
import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError
from .fading import FadingModel
from .macmodel import LN2, MacProfile
from .waterfill import WaterfillSolution

_CI_FACTOR = 1.959963984540054  # two-sided 95% normal quantile
MIN_HORIZON_FOR_CI = 10_000
_CHUNK = 1 << 15  # successes drawn, or periods traced, per chunk of `run`
_CELL = b",%.17g"  # a trace cell: every digit, and the sign of -0.0


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
    ``out``, if given, is an array of h's shape that receives the power; no c*h is formed (`_fold`).
    """

    solution: WaterfillSolution

    def power(self, h, loss, out=None):
        loss, (c, lam) = _fold(loss, self.solution.model.alpha_over_sigma2, self.solution.lam)
        p = np.divide(1.0, np.multiply(c, h, out=out), out=out)
        p = np.subtract(1.0 / lam, p, out=out)
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
    """The work arrays of `run` for a chunk of a continuous model's successes,
    allocated once per run and filled in place: ``fades``, ``power``, ``rows``
    and ``work`` (scratch of `FadingModel.sample_h`) for the rows, and
    ``dev`` and ``mask`` for `groups_of`."""

    def __init__(self, size):
        self.fades, self.power = np.empty(size), np.empty(size)
        self.rows, self.dev = np.empty(3 * size), np.empty(3 * size)
        self.mask = np.empty(size, dtype=bool)
        self.work = (np.empty(size), np.empty(size), np.empty(size, dtype=np.intp),
                     np.empty(size, dtype=np.intp))

    def rows_of(self, config, fades, size):
        """`_success_rows` of ``size`` fades drawn from ``fades``, in the work arrays."""
        h = config.model.sample_h(fades, size, out=self.fades[:size],
                                  work=tuple(a[:size] for a in self.work))
        return _success_rows(config, h, self.power[:size], self.rows[:3 * size].reshape(3, size))

    def groups_of(self, rows):
        """``(count, mean, sums of squared deviations)`` of ``rows``' periods of each duration.

        A success lasts its transmission time unless it relinquishes the
        channel: one group, or two.  A mean is taken relative to the group's
        first period, so identical periods have exactly that mean.  The
        deviations are squared in units of a power of two, the exponent of
        their column's mean (``math.frexp``), to stay in the float range.
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
            # a group's durations are all its first's: only energy and bits deviate
            dev = np.subtract(part[1:], first[1:], out=dev[1:])
            shift = dev.mean(axis=1, keepdims=True)
            dev -= shift
            mean = first[:, 0] + np.r_[0.0, shift[:, 0]]
            dev *= np.ldexp(1.0, -np.frexp(mean[1:])[1])[:, None]  # in units of the mean's power of two
            dev *= dev
            groups.append((dev.shape[1], mean, np.r_[0.0, dev.sum(axis=1)]))
        return groups


def run(config: SimConfig, trace=None) -> SimReport:
    """Simulate ``horizon`` contention periods and estimate rate and power.

    One stream draws the period-type counts (`_counts`), then a discrete
    model's fading-state counts, or a continuous model's fades, ``_CHUNK``
    successes at a time in work arrays allocated once (`_Chunk`).  The rows
    of ``fixed`` are counted, and a continuous chunk's successes summed and
    grouped (`_Chunk.groups_of`); each total is the exact sum of count times
    row plus the chunks' sums, rounded once.  Periods that last 0 s in
    total, or an estimate out of the float range, raise NumericalError.

    ``trace``, if given, is called with each block of the trace's bytes, in
    order, the CSV header first; what it raises ends the run.  Only the
    trace draws the periods' order (`_write_trace`), so it changes no
    estimate.
    """
    prof = config.profile
    rng = np.random.Generator(np.random.PCG64(config.seed))
    *counts, n_success = _counts(rng, config.horizon, [prof.p_idle, prof.p_collision, prof.p_success])
    # the (duration, energy, bits) rows of idle and collision periods, then,
    # for a discrete model, of a success in each fading state
    fixed = np.array([[prof.t_idle, prof.e_idle, 0.0], [prof.t_collision, prof.e_collision, 0.0]])
    discrete = config.model.is_discrete
    if discrete:
        gains, probs = config.model.kind
        fixed = np.vstack([fixed, _success_rows(config, np.array(gains)).T])
        counts += _counts(rng, n_success, probs)
    groups = []  # a continuous chunk's successes by duration (`_Chunk.groups_of`)
    success_sums = []  # and their column sums

    def successes():
        """A continuous model's success rows, ``_CHUNK`` at a time, each chunk tallied as drawn."""
        chunk = _Chunk(min(_CHUNK, n_success))
        for start in range(0, n_success, _CHUNK):
            rows = chunk.rows_of(config, rng, min(_CHUNK, n_success - start))
            success_sums.append(rows.sum(axis=1).tolist())
            groups.extend(chunk.groups_of(rows))
            yield rows

    tally = iter(()) if discrete else successes()
    if trace is not None:
        _write_trace(trace, config, fixed, counts if discrete else counts + [n_success], tally)
    for _ in tally:  # the chunks the trace did not take
        pass

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
        n_success=n_success,
        horizon=config.horizon,
        seed=config.seed,
        elapsed_time=total_time,
        total_bits=total_bits,
        total_energy=total_energy,
    )


def _counts(rng, n, probs) -> list:
    """The count of each category in ``n`` i.i.d. draws over ``probs``: one multinomial
    over ``probs`` by their ``math.fsum``, since numpy refuses a probability
    past 1, which a model or a profile may hold within its tolerance."""
    total = math.fsum(probs)
    return rng.multinomial(n, [p / total for p in probs]).tolist()


def _write_trace(trace, config, fixed, left, successes):
    """Hand ``trace`` the CSV header, then the run's periods in a uniformly random order.

    The order has a stream of its own, ``PCG64(seed).jumped()``.  ``left``
    counts the periods of each row of ``fixed`` and, for a continuous model,
    its successes, whose rows ``successes`` yields chunk by chunk.  Each
    chunk of ``_CHUNK`` periods draws its count of each row from what
    remains (`_hypergeometric_counts`) and shuffles its codes; the j-th
    success of a continuous model takes the j-th row.
    """
    order = np.random.Generator(np.random.PCG64(config.seed).jumped())
    trace(b"period_type,duration_s,energy_J,bits\n")
    lines = _trace_lines([b"idle", b"collision"] + [b"success"] * (len(fixed) - 2), fixed.T)
    pending = []  # a continuous model's success lines, formatted and not yet written
    for start in range(0, config.horizon, _CHUNK):
        by_row = _hypergeometric_counts(order, left, min(_CHUNK, config.horizon - start))
        left = [n - k for n, k in zip(left, by_row)]
        codes = np.repeat(np.arange(len(by_row)), by_row)
        order.shuffle(codes)
        if len(fixed) == 2:  # a continuous model: each success takes the next line
            while len(pending) < by_row[2]:
                rows = next(successes)
                pending += _trace_lines([b"success"] * rows.shape[1], rows)
            codes[codes == 2] = np.arange(2, 2 + by_row[2])
            lines[2:], pending = pending[:by_row[2]], pending[by_row[2]:]
        trace(b"".join(np.array(lines, dtype=object)[codes].tolist()))


def _hypergeometric_counts(rng, left, size) -> list:
    """The count by row of ``size`` items drawn without replacement from ``left`` of each row.

    The draws are those of ``rng.multivariate_hypergeometric(left, size)``
    (its "marginals" method: one hypergeometric draw per row but the last,
    for the complement when ``size`` is more than half), which refuses
    ``sum(left) >= 10**9``; a row of 10**9 items here leaves none in the
    others, so its count is taken without a draw.
    """
    total = sum(left)
    complement = size > total // 2
    k, rest, counts = total - size if complement else size, total, []
    for good in left[:-1]:
        rest -= good
        counts.append(int(rng.hypergeometric(good, rest, k)) if max(good, rest) < 10**9 else k * (good > 0))
        k -= counts[-1]
    counts.append(k)
    return [n - c for n, c in zip(left, counts)] if complement else counts


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


def _success_rows(config, h, power=None, out=None):
    """(duration, energy, bits) of successful periods with fades ``h``, by row.

    ``power``, if given, is an array of h's length and ``out`` one of shape
    (3, h.size): the power and the rows are computed in them, the SNR without c*h (`_fold`).
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
    loss, (c,) = _fold(loss, config.model.alpha_over_sigma2)
    np.multiply(c, h, out=bits)
    bits *= p
    bits /= loss
    np.log1p(bits, out=bits)
    bits *= prof.t_txop * prof.bandwidth
    bits /= LN2
    return rows


def _fold(loss, *scalars):
    """loss and ``scalars`` (c, lam) times 2**-k, which rounds nothing in range, k loss's exponent
    moved only as far as keeps each scalar and its reciprocal normal (a folded scalar can still
    leave the range): the fades meet c/loss, the SNR per watt, so no c*h is formed."""
    exponents = [math.frexp(s)[1] for s in scalars]
    k = min(max(math.frexp(loss)[1], max(exponents) - 1021), min(exponents) + 1021)
    return math.ldexp(loss, -k), [math.ldexp(s, -k) for s in scalars]


def _ratio_se(groups, j, ratio, total_time):
    """Delta-method standard error of total[j] / total duration over ``groups`` of periods.

    In a group of one duration (`_Chunk.groups_of`) the residuals ``y_j -
    ratio * duration`` deviate as ``y_j`` does, so their sum of squares is
    the groups' plus the spread of the groups' mean residuals, taken from
    the first group's: identical periods throughout give exactly 0.  The
    residuals are summed in units of ``2**e``, ``e`` the exponent of
    ``ratio``, so their squares stay in the float range where the estimate
    does; a power of two changes no bit of an interval that stayed in range
    without it.
    """
    counts = np.array([k for k, _, _ in groups], dtype=float)
    n = int(counts.sum())
    if n < 2:
        return 0.0
    e = math.frexp(ratio)[1]
    means = np.array([mean for _, mean, _ in groups])
    d = np.ldexp((means[:, j] - means[0, j]) - ratio * (means[:, 0] - means[0, 0]), -e)
    d -= math.fsum(counts * d) / n
    ss = math.fsum(counts * d * d) + math.fsum(
        math.ldexp(squares[j], 2 * (math.frexp(mean[j])[1] - e)) for _, mean, squares in groups)
    return math.ldexp(math.sqrt(ss / (n - 1) / n) / (total_time / n), e)


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
