"""Monte Carlo validation of the saturation-MAC renewal formulas.

Contention periods are drawn i.i.d. (idle / collision / success); a
success reserves the channel for the fixed transmission time, draws a
fade, applies the power policy and ships rate*T bits.  Estimates of the
aggregate bit rate and the network power are ratio estimators, so the
95% confidence intervals use the delta method over periods.

The estimates read the periods only through each row's count (idle,
collision and, for a discrete model, a success in each fading state) and
a continuous model's success rows, so that is all `run` draws: the
counts from a ``random.Random``, a chain of binomials each (`_counts`),
and a continuous model's fades from numpy's PCG64.  Both are seeded from
the config: identical seeds reproduce reports byte for byte.  A discrete
run is a few counts and n + 2 rows in ``math``, and loads no numpy; all
of a continuous run's array work is in `_chunks`, a chunk of successes
at a time, with numpy's floating-point warnings off.  Since the periods
are i.i.d., their order carries nothing the estimates read, and no order
is drawn: a trace lists the periods row by row, so a traced run reports
what the untraced run of its seed reports.  Every period is tallied in a
group of periods of one duration: a row's periods are identical (so a
discrete run's trace is n + 2 lines formatted once, each repeated by its
count), and a continuous chunk's successes are a group or two.  Totals
are exact sums, rounded once; the CIs sum the residuals group by group.
The trace leaves in blocks handed to a callable: this module opens no
file.
"""

from __future__ import annotations

import json
import math
import random
import warnings
from typing import NamedTuple

from .errors import NumericalError, ValidationError
from .fading import FadingModel
from .macmodel import LN2, MacProfile
from .waterfill import WaterfillSolution

_CI_FACTOR = 1.959963984540054  # two-sided 95% normal quantile
MIN_HORIZON_FOR_CI = 10_000
_CHUNK = 1 << 15  # successes drawn per chunk of `run`, and trace lines per block at most
_LINE = b"%s,%.17g,%.17g,%.17g\n"  # a trace line: every digit, and the sign of -0.0


class SmallHorizonWarning(UserWarning):
    """Horizon below the size where the normal CI is trustworthy."""


class ConstantPowerPolicy(NamedTuple):
    """Transmit with the same power in every fading state, whatever the path loss."""

    power_w: float

    def power(self, h, loss, out):
        out.fill(self.power_w)
        return out

    def power_at(self, h, loss):
        """The power at one fade ``h``."""
        return self.power_w


class WaterfillPolicy(NamedTuple):
    """Transmit P(h) = loss * xi(c*h) from a solved water-fill, with loss = d**eta.

    ``xi(x) = (1/lam - 1/x)^+`` is the normalized power poured on state x.
    ``out``, if given, is an array of h's shape that receives the power; no c*h is formed (`_fold`).
    """

    solution: WaterfillSolution

    def power(self, h, loss, out=None):
        import numpy as np
        loss, (c, lam) = _fold(loss, self.solution.model.alpha_over_sigma2, self.solution.lam)
        p = np.divide(1.0, np.multiply(c, h, out=out), out=out)
        p = np.subtract(1.0 / lam, p, out=out)
        p = np.maximum(p, 0.0, out=out)
        return np.multiply(loss, p, out=out)

    def power_at(self, h, loss):
        """`power` at one fade ``h``, in plain floats in its order of operations; a c*h of 0 gets none."""
        loss, (c, lam) = _fold(loss, self.solution.model.alpha_over_sigma2, self.solution.lam)
        x = c * h
        return loss * max(1.0 / lam - 1.0 / x, 0.0) if x else 0.0


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


def run(config: SimConfig, trace=None) -> SimReport:
    """Simulate ``horizon`` contention periods and estimate rate and power.

    One ``random.Random`` draws the period-type counts (`_counts`), then a
    discrete model's fading-state counts; a continuous model's successes
    come a chunk at a time from `_chunks`, each with its column sums and
    its groups of one duration.  The rows of ``fixed`` are counted; each
    total is the exact sum of count times row plus the chunks' sums,
    rounded once.  Periods that last 0 s in total, or an estimate out of
    the float range, raise NumericalError.

    ``trace``, if given, is called with each block of the trace's bytes, in
    order: the CSV header and the counted rows (`_write_trace`), then a
    block per chunk of successes; what it raises ends the run.  The trace
    draws nothing, so it changes no estimate.
    """
    prof = config.profile
    rng = random.Random(config.seed)
    *counts, n_success = _counts(rng, config.horizon, [prof.p_idle, prof.p_collision, prof.p_success])
    # the (duration, energy, bits) rows of idle and collision periods, then,
    # for a discrete model, of a success in each fading state
    fixed = [[prof.t_idle, prof.e_idle, 0.0], [prof.t_collision, prof.e_collision, 0.0]]
    discrete = config.model.is_discrete
    if discrete:
        gains, probs = config.model.kind
        fixed += [_success_row(config, h) for h in gains]
        counts += _counts(rng, n_success, probs)
    chunks = () if discrete else _chunks(config, n_success)
    if trace is not None:
        _write_trace(trace, fixed, counts)
    # each row's periods are a group of identical periods, then each chunk's by duration
    groups = [(k, row, (0.0, 0.0, 0.0)) for k, row in zip(counts, fixed) if k]
    success_sums = []
    for rows, sums, chunk_groups in chunks:
        if trace is not None:
            trace(b"".join(_trace_lines([b"success"] * rows.shape[1], rows.tolist())))
        success_sums.append(sums)
        groups += chunk_groups

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


def _chunks(config, n):
    """A continuous model's ``n`` successes, ``_CHUNK`` at a time: each chunk's
    (duration, energy, bits) rows (`_success_rows`), their column sums and
    their groups of one duration (`_groups`).

    The fades come from a PCG64 stream seeded by the config, into work arrays
    allocated once (``work`` is the scratch of `FadingModel.sample_h`).  A
    chunk is computed under ``np.errstate(all="ignore")``, left before it is
    yielded: a value out of the float range shows in the estimates only.
    """
    import numpy as np
    fades = np.random.Generator(np.random.PCG64(config.seed))
    size = min(_CHUNK, n)
    h, power, rows, dev = np.empty(size), np.empty(size), np.empty(3 * size), np.empty(3 * size)
    mask = np.empty(size, dtype=bool)
    work = (np.empty(size), np.empty(size), np.empty(size, dtype=np.intp), np.empty(size, dtype=np.intp))
    for start in range(0, n, _CHUNK):
        k = min(_CHUNK, n - start)
        with np.errstate(all="ignore"):
            drawn = config.model.sample_h(fades, k, out=h[:k], work=tuple(a[:k] for a in work))
            chunk = _success_rows(config, drawn, power[:k], rows[:3 * k].reshape(3, k))
            sums, groups = chunk.sum(axis=1).tolist(), _groups(chunk, dev, mask)
        yield chunk, sums, groups


def _groups(rows, work, mask):
    """``(count, mean, sums of squared deviations)`` of ``rows``' periods of each duration.

    A success lasts its transmission time unless it relinquishes the
    channel: one group, or two.  A mean is taken relative to the group's
    first period, so identical periods have exactly that mean.  The
    deviations are squared in units of a power of two, the exponent of
    their column's mean (``math.frexp``), to stay in the float range.
    ``work`` and ``mask`` hold ``rows.size`` floats and ``rows.shape[1]``
    booleans or more; ``rows`` is left as it is.
    """
    import numpy as np
    n = rows.shape[1]
    same = np.equal(rows[0], rows[0, 0], out=mask[:n])
    k = int(np.count_nonzero(same))
    work = work[:rows.size]
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
        groups.append((dev.shape[1], mean.tolist(), [0.0, *dev.sum(axis=1).tolist()]))
    return groups


def _counts(rng, n, probs) -> list:
    """The count of each category in ``n`` i.i.d. draws over ``probs`` over their ``math.fsum``,
    by a chain of binomials: each category but the last draws its count of the draws left at its
    share of the categories left, and the last takes the rest.  So a probability past 1, which a
    model or a profile may hold within its tolerance, is drawn too."""
    counts = []
    for i, p in enumerate(probs[:-1]):
        counts.append(_binomial(rng, n, p / math.fsum(probs[i:]) if p else 0.0))
        n -= counts[-1]
    return counts + [n]


def _binomial(rng, n, p) -> int:
    """A Binomial(n, p) count drawn from ``rng``, a ``random.Random``, by the methods of CPython
    3.12's ``random.binomialvariate``: n - B(n, 1 - p) above p = 0.5, geometric waiting times
    (Devroye, in units of ``log1p(-p)``, which keeps the smallest p) below a mean of 10, else
    Hörmann's BTRS (J. Stat. Comput. Simul. 46, 1993) with the log of v that the paper omits.
    A uniform whose log is taken lies in (0, 1], and one at the pole of the hat is drawn again."""
    if p > 0.5:
        return n - _binomial(rng, n, 1.0 - p)
    if p == 0.0:
        return 0
    if n * p < 10.0:
        x, y, c = -1, 0, math.log1p(-p)
        while y <= n:  # a waiting time past n ends the count, past the float range too
            y += math.floor(min(math.log(1.0 - rng.random()) / c, n)) + 1
            x += 1
        return x
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    vr = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    lpq = math.log(p / (1.0 - p))
    m = math.floor((n + 1) * p)  # the mode
    h = math.lgamma(m + 1) + math.lgamma(n - m + 1)
    while True:
        u = rng.random() - 0.5
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + c) if us else -1
        if not 0 <= k <= n:
            continue
        v = 1.0 - rng.random()
        if us >= 0.07 and v <= vr:  # the squeeze
            return k
        v *= alpha / (a / (us * us) + b)
        if math.log(v) <= h - math.lgamma(k + 1) - math.lgamma(n - k + 1) + (k - m) * lpq:
            return k


def _write_trace(trace, fixed, counts):
    """Hand ``trace`` the CSV header, then the periods of the rows of ``fixed``.

    ``counts`` counts the periods of each row (idle, collision, then a
    discrete model's fading states), and each row's line goes out repeated
    by its count, in blocks of at most ``_CHUNK`` lines.
    """
    trace(b"period_type,duration_s,energy_J,bits\n")
    names = [b"idle", b"collision"] + [b"success"] * (len(fixed) - 2)
    for line, k in zip(_trace_lines(names, zip(*fixed)), counts):
        for start in range(0, k, _CHUNK):
            trace(line * min(_CHUNK, k - start))


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


def _success_rows(config, h, power, rows):
    """(duration, energy, bits) of successful periods with the array of fades ``h``, by row.

    ``power`` is an array of h's length and ``rows`` one of shape (3, h.size):
    the power and the rows are computed in them, the SNR without c*h (`_fold`).
    """
    import numpy as np
    prof = config.profile
    loss = config.d**config.eta
    p = config.policy.power(h, loss, power)
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


def _success_row(config, h):
    """`_success_rows` of one fade ``h``, in plain floats and in its order of operations."""
    prof = config.profile
    loss = config.d**config.eta
    p = config.policy.power_at(h, loss)
    held = prof.t_txop if p or config.relinquish_overhead is None else config.relinquish_overhead
    loss, (c,) = _fold(loss, config.model.alpha_over_sigma2)
    bits = math.log1p(c * h * p / loss) * (prof.t_txop * prof.bandwidth) / LN2
    return [prof.t_overhead + held, prof.t_txop * p + prof.e_overhead, bits]


def _fold(loss, *scalars):
    """loss and ``scalars`` (c, lam) times 2**-k, which rounds nothing in range, k loss's exponent
    moved only as far as keeps each scalar and its reciprocal normal (a folded scalar can still
    leave the range): the fades meet c/loss, the SNR per watt, so no c*h is formed."""
    exponents = [math.frexp(s)[1] for s in scalars]
    k = min(max(math.frexp(loss)[1], max(exponents) - 1021), min(exponents) + 1021)
    return math.ldexp(loss, -k), [math.ldexp(s, -k) for s in scalars]


def _ratio_se(groups, j, ratio, total_time):
    """Delta-method standard error of total[j] / total duration over ``groups`` of periods.

    In a group of one duration (`_groups`) the residuals ``y_j -
    ratio * duration`` deviate as ``y_j`` does, so their sum of squares is
    the groups' plus the spread of the groups' mean residuals, taken from
    the first group's: identical periods throughout give exactly 0.  The
    residuals are summed in units of ``2**e``, ``e`` the exponent of
    ``ratio``, so their squares stay in the float range where the estimate
    does; a power of two changes no bit of an interval that stayed in range
    without it.
    """
    n = sum(k for k, _, _ in groups)
    if n < 2:
        return 0.0
    e = math.frexp(ratio)[1]
    first = groups[0][1]
    d = [math.ldexp((mean[j] - first[j]) - ratio * (mean[0] - first[0]), -e) for _, mean, _ in groups]
    shift = math.fsum(k * x for (k, _, _), x in zip(groups, d)) / n
    d = [x - shift for x in d]
    ss = math.fsum(k * x * x for (k, _, _), x in zip(groups, d)) + math.fsum(
        math.ldexp(squares[j], 2 * (math.frexp(mean[j])[1] - e)) for _, mean, squares in groups)
    return math.ldexp(math.sqrt(ss / (n - 1) / n) / (total_time / n), e)


def _trace_lines(names, columns):
    """The trace lines ``name,duration,energy,bits`` of ``names`` and the three ``columns``."""
    return [_LINE % line for line in zip(names, *columns)]
