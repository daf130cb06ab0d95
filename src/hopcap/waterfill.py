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
model builds once (`FadingModel.table`).  Continuous models root-find
the constraint above on `expected_power` and then take `optimal_rate`,
both exact: exponential-integral closed forms for exponential fading,
the tail table of a tabulated density (`FadingModel.tails`) plus one
closed-form partial cell; both raise DiscreteKindError on discrete models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import exp1

from . import discrete as _discrete
from .errors import BracketFailure, NonPositivePi
from .fading import Exponential, FadingModel

# bracket scanned (in lam) when solving the power-constraint equation
_LAM_FLOOR = 1e-14
_LAM_CEIL = 1e13
_BRENTQ_RTOL = 1e-15
_BRENTQ_XTOL = 1e-30


@dataclass(frozen=True)
class WaterfillSolution:
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
        xv = np.asarray(x, dtype=float)
        out = np.maximum(1.0 / self.lam - 1.0 / xv, 0.0)
        return float(out) if np.isscalar(x) else out

    @property
    def cutoff_h(self) -> float:
        return self.lam / self.model.alpha_over_sigma2


def expected_power(model: FadingModel, lam: float) -> float:
    """E[(1/lam - 1/X)^+], the power spent at water level 1/lam."""
    if isinstance(model.kind, Exponential):
        nu = model.kind.rate / model.alpha_over_sigma2
        u = nu * lam
        return float(math.exp(-u) / lam - nu * exp1(u))
    return model.tails.above(lam)[0]


def optimal_rate(model: FadingModel, lam: float) -> float:
    """E[log(X/lam)^+] in nats, the rate achieved at water level 1/lam."""
    if isinstance(model.kind, Exponential):
        nu = model.kind.rate / model.alpha_over_sigma2
        return float(exp1(nu * lam))
    return model.tails.above(lam)[1]


def solve(model: FadingModel, pi: float) -> WaterfillSolution:
    """Solve the water-filling problem at normalized power ``pi`` > 0.

    Discrete models read lam and Gamma off the closed-form table.  For
    continuous models the constraint gap is continuous and strictly
    decreasing in ``lam``, so a decade scan always brackets the unique
    root, refined by Brent's method to relative width ~1e-14.
    """
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
    lam = _solve_lambda(model, pi)
    return optimal_rate(model, lam), lam


def _solve_lambda(model: FadingModel, pi: float) -> float:
    gap = lambda lam: expected_power(model, lam) - pi
    _, x_hi = model.x_support()
    ceil = min(_LAM_CEIL, x_hi) if math.isfinite(x_hi) else _LAM_CEIL
    # the root obeys lam < 1/pi, so huge budgets need a deeper floor
    floor = max(min(_LAM_FLOOR, 1e-3 / pi), 1e-300)
    grid = np.geomspace(floor, ceil, 60)
    lo = grid[0]
    g_lo = gap(lo)
    if g_lo < 0:
        raise BracketFailure(
            f"no water level above {lo} supports pi={pi} (degenerate model?)"
        )
    for hi in grid[1:]:
        g_hi = gap(hi)
        if g_hi <= 0:
            if g_hi == 0.0:
                return float(hi)
            return float(brentq(gap, lo, hi, xtol=_BRENTQ_XTOL, rtol=_BRENTQ_RTOL))
        lo, g_lo = hi, g_hi
    raise BracketFailure(f"could not bracket the water level for pi={pi}")
