"""Water-pouring power control at a fixed normalized power level.

For a normalized power ``pi`` the throughput-optimal allocation over
channel states is ``xi(x) = (1/lam - 1/x)^+`` where the water level
reciprocal ``lam`` makes the power constraint tight:

    integral_lam^inf (1/lam - 1/x) f(x) dx = pi

The optimal value is ``Gamma(pi) = integral_lam^inf log(x/lam) f(x) dx``
in nats per unit bandwidth, and ``dGamma/dpi = lam`` (envelope identity).

`gamma_and_lambda` is the one entry point for the pair (Gamma, lam);
`solve` wraps it.  Discrete models need no root-finding: both values
come from the piecewise closed form of `discrete`, whose table each
model builds once (`FadingModel.table`).  Continuous models have one
kernel, `tails_at(model, lam)`, which returns the mass, power and rate
above ``lam`` together, all exact: one E1 and one exp for exponential
fading, the tail table of a tabulated density (`FadingModel.tails`) plus
one closed-form partial cell; it raises DiscreteKindError on discrete
models.  The water level solves the constraint above on its power, and
Gamma is its rate there.  Exponential fading takes Newton steps on
``log P`` against ``log lam`` from ``min(1/nu, 1/pi)``: the mass gives
the exact slope ``dP/dlam = -mass/lam**2``, and a step that leaves the
bracket the values seen so far keep falls back to a geometric bisection.
A tabulated density bisects its strictly decreasing power column for
the root's cell and refines once inside it by `fading.refine_root`;
below its support it has the closed form ``lam = mass/(pi + E[1/X])``.
"""

from __future__ import annotations

import bisect
import math
import operator
from typing import NamedTuple

from . import discrete as _discrete
from .errors import BracketFailure, NonPositivePi, ValidationError
from .fading import Exponential, FadingModel, bracket_root, refine_root

_EULER_GAMMA = 0.5772156649015328
_NEWTON_STEPS = 100


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

    def allocation(self, x):
        """Normalized power xi(x) = (1/lam - 1/x)^+ poured on state x."""
        import numpy as np

        xv = np.asarray(x, dtype=float)
        out = np.maximum(1.0 / self.lam - 1.0 / xv, 0.0)
        return float(out) if np.isscalar(x) else out

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
        for k in range(1, 26):
            term = -term * k * x / (k + 1.0) ** 2
            total += term
            if abs(term) <= abs(total) * 1e-15:
                break
        return -_EULER_GAMMA - math.log(x) + x * total
    t0 = 0.0
    for k in range(20 + int(80.0 / x), 0, -1):
        t0 = k / (1.0 + k / (x + t0))
    return math.exp(-x) * (1.0 / (x + t0))


def tails_at(model: FadingModel, lam: float):
    """(P(X > lam), E[(1/lam - 1/X)^+], E[log(X/lam)^+]) of a continuous model, lam > 0.

    The mass above the water level 1/lam, the power spent there and the
    rate achieved in nats: the one kernel of each continuous kind.
    """
    if isinstance(model.kind, Exponential):
        nu = model.kind.rate / model.alpha_over_sigma2
        u = nu * lam
        # where u underflows to 0, E1(u) = -gamma - log(u) holds to every digit
        e1 = exp1(u) if u else -_EULER_GAMMA - math.log(nu) - math.log(lam)
        mass = math.exp(-u)
        return mass, mass / lam - nu * e1, e1
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
    ``solve`` still rejects pi <= 0.
    """
    if pi == 0.0:
        return 0.0, math.inf
    if pi < 0:
        raise NonPositivePi(f"pi must be >= 0, got {pi}")
    if not math.isfinite(pi):
        raise BracketFailure(f"no finite water level supports pi={pi}")
    if model.is_discrete:
        table = model.table
        return _discrete.gamma_of_pi(table, pi), _discrete.lambda_closed_form(table, pi)
    if isinstance(model.kind, Exponential):
        return _newton_level(model, pi)
    lam = _solve_lambda(model, pi)
    return tails_at(model, lam)[2], lam


def _newton_level(model: FadingModel, pi: float):
    """(Gamma, lam) of exponential fading: Newton's method on log P against log lam.

    With ``dP/dlam = -mass/lam**2`` the step is
    ``lam *= exp((log P - log pi) * lam*P/mass)``.  Every value seen narrows
    a bracket [lo, hi] of the root; a step that leaves it, or a zero mass or
    power, is replaced by a geometric bisection, or by x4 or /4 while one
    side is still open.  A step of at most one ulp ends the solve, and Gamma
    is the rate the last kernel call returned.
    """
    lo, hi = 0.0, math.inf
    # the root obeys lam < 1/pi, and u = nu*lam = 1 is a natural scale
    lam = min(model.alpha_over_sigma2 / model.kind.rate, 1.0 / pi)
    for _ in range(_NEWTON_STEPS):
        if lam == math.inf:
            break
        mass, power, rate = tails_at(model, lam)
        if power > pi:
            lo = lam
        else:
            hi = lam
        new = math.nan
        if mass > 0.0 and power > 0.0:
            new = lam * math.exp((math.log(power) - math.log(pi)) * lam * power / mass)
            if abs(new - lam) <= math.ulp(lam):
                return rate, lam
        if not lo < new < hi:
            new = (4.0 * lo if hi == math.inf else 0.25 * hi if lo == 0.0
                   else math.sqrt(lo) * math.sqrt(hi))
            if new in (lo, hi):  # the bracket is two neighbouring floats
                return rate, lam
        lam = new
    raise BracketFailure(f"Newton's method found no water level for pi={pi!r}")


def _solve_lambda(model: FadingModel, pi: float) -> float:
    gap = lambda lam: tails_at(model, lam)[1] - pi
    tails = model.tails
    x, power, mass = tails.x, tails.power, tails.mass
    if x[0] > 0.0 and pi >= power[0]:
        # below the support the power is mass[0]/lam - E[1/X], E[1/X] read off row 0
        return mass[0] / (pi - power[0] + mass[0] / x[0])
    # from the first positive node up to the top, where it is 0 < pi, the power
    # column decreases strictly: the root's cell ends at the first node at or under pi
    j = bisect.bisect_left(power, -pi, 1 if x[0] == 0.0 else 0, tails.top, key=operator.neg)
    if x[j - 1] == 0.0:
        return bracket_root(gap, min(x[j], 1.0 / pi))
    return refine_root(gap, x[j - 1], x[j])
