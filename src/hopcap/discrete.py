"""Closed-form water-filling for finite discrete fading, at unit scale: Pi = c*pi.

With the gains x = h in descending order and cumulative constants

    p_k = a_1 + ... + a_k        alpha_k = sum_{i<=k} a_i / x_i

the multiplier is ``lam(Pi) = p_k / (alpha_k + Pi)`` between breakpoints
``Pi_k = p_k/x_{k+1} - alpha_k``, where lam meets the next gain, and the
optimal rate ``Gamma = E[log(X/lam)^+]`` is ``p_k * (b_k + log1p(Pi/alpha_k))``
with ``b_k = (1/p_k) * sum_{i<=k} a_i*log(x_i*alpha_k/p_k)`` >= 0, the
paper's ``log(alpha_k*gamma_k)`` for its integration constants ``gamma_k``
(``b_1 = 0``).  Stationary points of d * Gamma(d) reduce, per segment, to
``y * exp(-eta*y) = exp(b_k - eta)`` on a half-open y-interval, solved in
logs as ``log(y) - eta*(y - 1) = b_k`` (no exp to underflow, and no
digits cancel near y = 1) by `fading.sign_change_roots` over the segment's
ends and the peak y = 1/eta between them, one root on each monotone branch
at most, which enumerates them exhaustively (hence the 2n - 1 count bound);
`hopopt.stationary_points` builds the points.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import NamedTuple

from .errors import BracketFailure, DiscreteKindError, ValidationError
from .fading import FadingModel, sign_change_roots


class DiscreteWaterfillTable(NamedTuple):
    """Per-segment constants of the piecewise closed form.

    All entries are float tuples that depend only on the distribution (not
    on power, path loss or scale): ``pi_breaks`` has length n-1 and is
    strictly increasing, and ``b`` holds the segment constants
    ``b_k = log(alpha_k*gamma_k)``, with ``b[0] = 0``, that feed both
    ``Gamma`` and the stationary-point equation.
    """

    p: tuple
    alpha: tuple
    pi_breaks: tuple
    b: tuple

    @property
    def n_states(self) -> int:
        return len(self.p)


def build_table(model: FadingModel) -> DiscreteWaterfillTable:
    """Cumulative sums, breakpoints and segment constants, each from its definition.

    ``Pi_k`` is summed from its positive steps ``p_k*(1/x_{k+1} - 1/x_k)``, one
    gain divided at a time, and ``p_k*b_k`` grows from the segment below by
    two ``log1p`` terms of the breakpoint between them.  A breakpoint that
    overflows raises BracketFailure.
    """
    if not model.is_discrete:
        raise DiscreteKindError("closed-form tables require a discrete model")
    x, a = model.kind.gains, model.kind.probs
    p = tuple(itertools.accumulate(a))
    alpha = tuple(itertools.accumulate(ai / xi for ai, xi in zip(a, x)))
    pi_breaks = tuple(itertools.accumulate(
        pk * ((xk - xn) / xk) / xn for pk, xk, xn in zip(p, x, x[1:])
    ))
    for k, end in enumerate(pi_breaks):
        if end == math.inf:
            raise BracketFailure(f"the water-fill breakpoint between the gains {x[k]!r} and "
                                 f"{x[k + 1]!r} overflows the float range")
    if any(hi <= lo for lo, hi in zip((0.0,) + pi_breaks, pi_breaks)):
        raise ValidationError("breakpoints must be positive and strictly increasing")
    # b_0 = 0 exactly, by definition; keeps y = 1 off the root set
    b = [0.0]
    for k in range(1, len(x)):
        pi_prev = pi_breaks[k - 1]
        t = pi_prev / alpha[k - 1]
        if t < math.inf:
            rise = math.log1p(a[k] * t / p[k])
        else:  # log1p(e**z) of z = log(a_k*t/p_k), from the log of each term
            z = math.log(a[k] / p[k]) + math.log(pi_prev) - math.log(alpha[k - 1])
            rise = max(z, 0.0) + math.log1p(math.exp(-abs(z)))
        v = x[k] * pi_prev / p[k]
        # 1 - v = (a_k + x_k*alpha_{k-1})/p_k, which v rounds to 0 when both terms are tiny
        fall = math.log1p(-v) if v < 1.0 else math.log((a[k] + x[k] * alpha[k - 1]) / p[k])
        b.append((p[k - 1] * (b[-1] + rise) + a[k] * fall) / p[k])
    return DiscreteWaterfillTable(p, alpha, pi_breaks, tuple(b))


def segment_index(table: DiscreteWaterfillTable, pi: float) -> int:
    """0-based segment k for Pi; boundaries belong to the lower segment."""
    return bisect.bisect_left(table.pi_breaks, pi)


def gamma_of_pi(table: DiscreteWaterfillTable, pi: float) -> tuple:
    """(Gamma, lam) at normalized power Pi, in closed form, from one segment lookup.

    The optimal rate (nats) E[log(X/lam)^+] is evaluated as p_k *
    (log1p(Pi/alpha_k) + b_k), a sum of two terms that are never negative,
    rather than the paper's p_k * log(gamma_k*(alpha_k + Pi)), so small Pi
    does not cancel digits; the multiplier is lam(Pi) = p_k / (alpha_k + Pi).
    """
    k = segment_index(table, pi)
    t = pi / table.alpha[k]
    # where t overflows, log1p(t) is log(Pi) - log(alpha_k) to within 1/t
    rise = math.log1p(t) if t < math.inf else math.log(pi) - math.log(table.alpha[k])
    return float(table.p[k] * (rise + table.b[k])), float(table.p[k] / (table.alpha[k] + pi))


def stationary_roots(table: DiscreteWaterfillTable, eta: float) -> list:
    """(Pi, 1-based segment) of every interior stationary point of d * Gamma(d).

    Per segment the equation ``y*exp(-eta*y) = exp(b_k - eta)`` has at
    most one root on each monotone branch of the left side, so the total
    never exceeds 2n - 1.  Roots landing exactly on the excluded upper
    y-boundary (notably y = 1, the d = infinity limit) are dropped.
    """
    # segment k spans Pi from ends[k] to ends[k + 1], where y = alpha_k/(alpha_k + Pi) falls
    ends = (0.0,) + table.pi_breaks + (math.inf,)
    peak = 1.0 / eta
    roots = []
    for k, (alpha, b) in enumerate(zip(table.alpha, table.b)):
        y_hi, y_lo = (alpha / (alpha + end) for end in ends[k : k + 2])
        lo = max(y_lo, 1e-300)
        if y_hi <= lo:
            continue
        ys = (lo, peak, y_hi) if lo < peak < y_hi else (lo, y_hi)
        # the residual and its two derivatives in log y
        w = lambda y, b=b: (math.log(y) - eta * (y - 1.0) - b, 1.0 - eta * y, -eta * y)
        for y in sign_change_roots(w, ys, [math.log(y) - eta * (y - 1.0) - b for y in ys]):
            pi = alpha * (1.0 - y) / y
            if y_lo <= y < y_hi and pi > 0.0:
                roots.append((pi, k + 1))
    assert len(roots) <= 2 * table.n_states - 1
    return roots
