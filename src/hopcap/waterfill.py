"""Water-pouring power control at a fixed normalized power level.

For a normalized power ``pi`` the throughput-optimal allocation over
channel states is ``xi(x) = (1/lam - 1/x)^+`` where the water level
reciprocal ``lam`` makes the power constraint tight:

    integral_lam^inf (1/lam - 1/x) f(x) dx = pi

The optimal value is ``Gamma(pi) = integral_lam^inf log(x/lam) f(x) dx``
in nats per unit bandwidth, and ``dGamma/dpi = lam`` (envelope identity).

`gamma_and_lambda` is the one entry point for the pair (Gamma, lam), and
`solve` wraps it.  Every kind solves at unit scale, on H, at ``c*pi``
(c = alpha/sigma^2); its level times c is lam.  Discrete models need no
root-finding: both values come from the piecewise closed form of
`discrete`, whose table each model builds once (`FadingModel.table`).
Continuous models have one kernel, `tails_at(model, lam)`, which returns
the mass, power and rate of H above ``lam`` together, all exact, and the
density at ``lam``: one E1 and one exp for exponential fading, the tail
table of a tabulated density (`FadingModel.tails`) plus one closed-form
partial cell; it raises DiscreteKindError on discrete models.

Both continuous kinds solve the power constraint by one routine,
`_level`: safeguarded Halley steps on ``log P`` against ``log lam``,
whose first two derivatives come from the same kernel call,

    y1 = -mass/(lam*P),    y2 = f/P - y1 - y1**2,

with a step that leaves the bracket of the values seen so far replaced
by a geometric bisection.  It ends with the envelope identity: once the
next step ``lam'`` moves Gamma by less than about 1e-16 of it, Gamma is
``rate + (lam + lam')/2 * (pi - P)`` from the last call, so Gamma keeps
its digits where it is ill-conditioned in ``lam`` (near the top of a
tabulated support).  No start calls E1.  Exponential fading of rate nu
starts from the asymptotes of ``pi/nu = exp(-u)/u - E1(u)`` in
``u = nu*lam``.  A tabulated density bisects its strictly decreasing power
column for the root's cell and interpolates the two node powers in log-log
space (a first cell from x = 0, or the top cell, take the leading term of
P there); below its support it has the closed form ``lam = mass/(pi + E[1/H])``.
"""

from __future__ import annotations

import bisect
import math
import operator
from typing import NamedTuple

from . import discrete as _discrete
from .errors import BracketFailure, NonPositivePi, ValidationError
from .fading import Exponential, FadingModel

_EULER_GAMMA = 0.5772156649015328
_LEVEL_STEPS = 100
_FLOAT_MAX = 1.7976931348623157e308
# above q = pi/nu = _Q_SMALL_U the level's u = nu*lam lies below 0.4, and the
# small-u iteration stays in (0, 1), its denominator above q + 1 - gamma - 1/12 > 1
_Q_SMALL_U = 1.0
# E1's series terms (k, (k+1)**2), and the continued fraction's k: it takes
# 20 + 80/x <= 99 terms above x = 1
_SERIES_TERMS = tuple((float(k), (k + 1.0) ** 2) for k in range(1, 26))
_CF_TERMS = tuple(float(k) for k in range(99, 0, -1))


class WaterfillSolution(NamedTuple):
    """Solved allocation for one normalized power level.

    ``lam`` is the Lagrange multiplier (reciprocal water level), so
    states with x <= lam receive zero power, and ``gamma`` the optimal
    mean rate in nats per unit bandwidth.
    """

    pi: float
    lam: float
    gamma: float
    model: FadingModel

    @property
    def cutoff_h(self) -> float:
        return self.lam / self.model.alpha_over_sigma2


def exp1(x: float) -> float:
    """The exponential integral E1(x) for x > 0, specfun's E1XB in plain math.

    Up to x = 1 the series -gamma - log(x) + x*sum_{n>=1} (-x)**(n-1)/(n*n!)
    (at most 26 terms); above it a continued fraction of 20 + 80/x terms,
    evaluated from the tail.  Within 2e-15 of 40-digit references on
    [1e-12, 700], the same float as ``scipy.special.exp1`` above x = 1.
    """
    if x <= 1.0:
        total = term = 1.0
        for k, k1_squared in _SERIES_TERMS:
            term = -term * k * x / k1_squared
            total += term
            tol = total * 1e-15  # total > 0 for x <= 1
            if -tol <= term <= tol:
                break
        return -_EULER_GAMMA - math.log(x) + x * total
    t0 = 0.0
    for k in _CF_TERMS[-(20 + int(80.0 / x)):]:
        t0 = k / (1.0 + k / (x + t0))
    return math.exp(-x) * (1.0 / (x + t0))


def tails_at(model: FadingModel, lam: float):
    """(P(H > lam), E[(1/lam - 1/H)^+], E[log(H/lam)^+], f(lam)) of a continuous model, lam > 0.

    The mass above the water level 1/lam, the power spent there, the
    rate achieved in nats and the density at lam, all at unit scale:
    the one kernel of each continuous kind.
    """
    if isinstance(model.kind, Exponential):
        nu = model.kind.rate
        u = nu * lam
        # where u underflows to 0, E1(u) = -gamma - log(u) holds to every digit
        e1 = exp1(u) if u else -_EULER_GAMMA - math.log(nu) - math.log(lam)
        mass = math.exp(-u)
        return mass, mass / lam - nu * e1, e1, nu * mass
    return model.tails.above(lam)


def solve(model: FadingModel, pi: float) -> WaterfillSolution:
    """Solve the water-filling problem at normalized power ``pi`` > 0.

    Discrete models read lam and Gamma off the closed-form table.  For
    continuous models the power is continuous and strictly decreasing in
    ``lam``, and the water level is its unique root to about 1e-15 relative.
    """
    if not math.isfinite(pi):
        raise ValidationError(f"pi must be finite, got {pi}")
    if pi <= 0:
        raise NonPositivePi(f"pi must be > 0, got {pi}")
    gamma, lam = gamma_and_lambda(model, pi)
    return WaterfillSolution(pi=float(pi), lam=lam, gamma=gamma, model=model)


def gamma_and_lambda(model: FadingModel, pi: float):
    """(Gamma, lam) at normalized power ``pi``, the limit pi = 0 allowed.

    Internal sweep paths reach d -> inf where pi = 0; the public
    ``solve`` still rejects pi <= 0.  The kinds solve at ``pi_H = c*pi`` and
    lam = c*lam_H; where either leaves the float range (0 included),
    BracketFailure names c = alpha/sigma^2.
    """
    if pi == 0.0:
        return 0.0, math.inf
    if pi < 0:
        raise NonPositivePi(f"pi must be >= 0, got {pi}")
    if not math.isfinite(pi):
        raise BracketFailure(f"no finite water level supports pi={pi}")
    c = model.alpha_over_sigma2
    pi_h, lam = c * pi, math.nan
    if 0.0 < pi_h < math.inf:
        if model.is_discrete:
            gamma, lam_h = _discrete.gamma_of_pi(model.table, pi_h)
        elif isinstance(model.kind, Exponential):
            gamma, lam_h = _level(model, pi_h, _exponential_start(model, pi_h), 0.0, math.inf)
        else:
            gamma, lam_h = _tabulated_level(model, pi_h)
        lam = c * lam_h
    if not 0.0 < lam < math.inf:
        raise BracketFailure(
            f"alpha_over_sigma2 = {c!r} takes the water level at pi = {pi!r} out of the float range")
    return gamma, lam


def _tabulated_level(model: FadingModel, pi: float):
    """(Gamma, lam) of a tabulated density: closed form below the support, else `_level` in a cell."""
    tails = model.tails
    x, power, mass = tails.x, tails.power, tails.mass
    if x[0] > 0.0 and pi >= power[0]:
        # below the support the power is mass[0]/lam - E[1/H], E[1/H] read off row 0
        lam = mass[0] / (pi - power[0] + mass[0] / x[0])
        return tails_at(model, lam)[2], lam
    # from the first positive node up to the top, where it is 0 < pi, the power
    # column decreases strictly: the root's cell ends at the first node at or under pi
    j = bisect.bisect_left(power, -pi, 1 if x[0] == 0.0 else 0, tails.top, key=operator.neg)
    a, b, pa, pb = x[j - 1], x[j], power[j - 1], power[j]
    if pb > 0.0 < a:
        # log P is close to linear in log lam across one cell
        lam = a * (b / a) ** ((math.log(pi) - math.log(pa)) / (math.log(pb) - math.log(pa)))
    elif pb > 0.0:
        # P = mass[0]/lam - E[1/H; H > lam] < mass[0]/lam bounds the level from above
        lam = mass[0] / pi
    else:
        # the top cell: with w = b - lam, P ~ f_b*w**2/(2*b**2), or s*w**3/(6*b**2)
        # where the density falls to 0 at the top with slope -s
        fb = tails.f[j]
        w = (b * math.sqrt(2.0 * pi / fb) if fb > 0.0
             else (6.0 * b * b * pi * (b - a) / tails.f[j - 1]) ** (1.0 / 3.0))
        lam = b - w if w < b - a else 0.5 * (a + b) if a > 0.0 else mass[0] / pi
    return _level(model, pi, min(max(lam, a), b), a, b)


def _exponential_start(model: FadingModel, pi: float) -> float:
    """A start for the exponential level from the asymptotes of q = pi/nu in u = nu*lam.

    With ``q = exp(-u)/u - E1(u)``: for small u, q ~ 1/u - 1 + gamma + log u
    - u/2 + u**2/12, iterated as ``u = 1/(q + 1 - gamma - log u + u/2 - u**2/12)``;
    for large u, ``q ~ exp(-u)/u**2 * (1 + 2/u)/(1 + 4/u + 2/u**2)`` (E1's
    continued fraction to its fourth approximant, positive for every u),
    solved by Newton's method on its log.  Where that gives no finite
    positive lam, min(1/nu, 1/pi), capped at the largest float: the root
    obeys lam < 1/pi, and u = 1 is a natural scale.
    """
    nu = model.kind.rate
    q = pi / nu
    u = 0.0
    if _Q_SMALL_U < q < math.inf:
        a = q + 1.0 - _EULER_GAMMA
        u = 1.0 / a
        for _ in range(4):
            u = 1.0 / (a - math.log(u) + u * (0.5 - u / 12.0))
    elif 0.0 < q <= _Q_SMALL_U:
        big = -math.log(q)
        u = 1.0 + big  # above the root, from where every Newton step stays positive
        for _ in range(4):
            d = u * (u + 4.0) + 2.0
            h = u + math.log(u * d / (u + 2.0)) - big
            u -= h / (1.0 + 1.0 / u + (2.0 * u + 4.0) / d - 1.0 / (u + 2.0))
    lam = u / nu
    if 0.0 < lam < math.inf:
        return lam
    return min(1.0 / nu, 1.0 / pi, _FLOAT_MAX)


def _level(model: FadingModel, pi: float, lam: float, lo: float, hi: float):
    """(Gamma, lam) at pi > 0: safeguarded Halley steps on log P against log lam.

    ``lam`` starts in [lo, hi], a bracket of the root (hi may be inf).
    With g = log(P/pi), y1 and y2 its first two derivatives in log lam,
    and the Newton step n = -g/y1, the Halley step is
    ``n/(1 + n*y2/(2*y1))`` (n itself where that denominator is not
    positive).  Every value seen narrows the bracket; a step that leaves
    it, or a zero mass or power, is replaced by a geometric bisection,
    or by x4 or /4 while one side is still open.  Once the next level
    lam' changes Gamma by at most 1e-16 of the rate, the envelope finish
    returns ``(rate + (lam + lam')/2 * (pi - P), lam')``.  A bracket of two
    neighbouring floats ends at its upper end, where ``pi - P >= 0``, with
    ``rate + lam*(pi - P)``.  A NaN power raises BracketFailure.
    """
    log_pi = math.log(pi)
    for _ in range(_LEVEL_STEPS):
        mass, power, rate, density = tails_at(model, lam)
        if power > pi:
            lo = lam
        elif power <= pi:
            hi = lam
        else:
            raise BracketFailure(f"the water-fill power is NaN at lam={lam!r}")
        new = math.nan
        lam_power = lam * power
        if mass > 0.0 and lam_power > 0.0:
            ratio = power / pi
            g = math.log(ratio) if 0.0 < ratio < math.inf else math.log(power) - log_pi
            y1 = -mass / lam_power
            step = -g / y1
            den = 1.0 + 0.5 * step * (density / power - y1 - y1 * y1) / y1
            if den > 0.0:
                step /= den
            if -700.0 < step < 700.0:  # past 709, math.exp overflows
                new = lam * math.exp(step)
                if lo <= new <= hi and abs((new - lam) * (pi - power)) <= 1e-16 * rate:
                    # Gamma > 0, but where the rate underflows the sum may round below it
                    return max(rate + (0.5 * lam + 0.5 * new) * (pi - power), 0.0), new
        if not lo < new < hi:
            if hi == math.inf:
                if lo == _FLOAT_MAX:
                    break
                new = min(4.0 * lo, _FLOAT_MAX)
            else:
                new = 0.25 * hi if lo == 0.0 else math.sqrt(lo) * math.sqrt(hi)
                if new in (lo, hi):  # the bracket is two neighbouring floats
                    if lam == lo:  # at hi, P <= pi: both terms of the finish are >= 0
                        lam = hi
                        _, power, rate, _ = tails_at(model, lam)
                    return rate + lam * (pi - power), lam
        lam = new
    raise BracketFailure(f"no finite water level found for pi={pi!r}")
