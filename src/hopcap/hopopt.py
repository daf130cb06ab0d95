"""Hop-distance optimization of the transport-capacity core.

The objective is ``psi(d) = d * Gamma(pt' / d**eta)``: power and hop
distance enter the throughput only through the normalized power
``pi = pt' / d**eta``, and the derivative of the objective reduces to

    d/dd [d * Gamma(pi(d))] = Gamma(pi) - eta * pi * lam(pi)

so interior optima are the positive roots of ``Gamma - eta*pi*lam = 0``.
`stationary_points` is the one place that turns roots into a
`StationarySet`; each kind enumerates its roots exactly, at unit scale:

- discrete: per segment and monotone branch in closed form (`discrete`);
- exponential, of rate nu: with ``u = nu*lam`` the residual is
  ``E1(u)*(1 + eta*u) - eta*exp(-u)``, which tends to +inf as u -> 0, to
  0 from below as u -> inf, and whose second derivative
  ``exp(-u)*(1 - (eta-1)*u)/u**2`` changes sign once: exactly one root,
  found on u in (0, 700] from u = 1;
- tabulated: a cell-by-cell enumeration on the tail table that brackets
  every critical point of the residual, hence every root (`_tabulated_roots`).

Both continuous kinds solve ``R = rate - eta*lam*power`` on the lam axis
with `fading.log_root`, whose steps in log lam take ``lam*R'`` and
``lam**2*R''`` from the same kernel call (`_residual`); the tabulated
enumeration reaches it through `fading.sign_change_roots`, as the discrete
one does, and its critical points are Newton roots of ``lam*R'`` (`_slope`).

Since ``Gamma(pi)/pi`` rises with d, ``psi = pt'*d**(1-eta)*Gamma(pi)/pi``
increases strictly when eta <= 1 (no interior point, the optimum is
d -> inf) and tends to 0 at both ends when eta > 1 (the best root is the
maximizer).
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

from . import discrete as _discrete
from . import waterfill as _waterfill
from .errors import BracketFailure, NoStationaryPoint, ValidationError
from .fading import Exponential, FadingModel, log_root, sign_change_roots

_RESIDUAL_REL = 1e-8
# exp(-u) and E1(u) leave the normal range just above u = 700
_U_MAX = 700.0


class EtaBelowTwoWarning(UserWarning):
    """Path-loss exponent below 2: the large-d limit theorems need eta >= 2."""


class StationaryPoint(NamedTuple):
    """One interior zero of the hop-distance derivative.

    ``psi`` is the transport-capacity core d * Gamma(pi) at the point;
    ``segment`` is the 1-based water-fill segment for discrete models,
    None for continuous ones.
    """

    d: float
    pi: float
    lam: float
    gamma: float
    psi: float
    segment: int | None = None


class StationarySet(NamedTuple):
    """All interior stationary points, sorted by ascending hop distance.

    Every kind enumerates its roots exactly, so ``unique`` means exactly
    one root.  ``boundary`` is "d->inf" when eta <= 1: psi then increases
    strictly in d, there are no points and ``maximizer_index`` is None.
    Otherwise psi vanishes at both ends, ``boundary`` is None and the
    maximizer is the point with the largest psi.
    """

    points: tuple
    maximizer_index: int | None
    unique: bool
    boundary: str | None = None

    @property
    def maximizer(self) -> StationaryPoint | None:
        if self.maximizer_index is None:
            return None
        return self.points[self.maximizer_index]


class _HopProblemFields(NamedTuple):
    model: FadingModel
    eta: float
    pt_prime: float


class HopProblem(_HopProblemFields):
    """Inputs of the hop-length optimization.

    ``pt_prime`` is the transmit power averaged over transmission
    periods only (watts).
    """

    __slots__ = ()

    def __init__(self, *_args, **_kwargs):
        # the tuple is built by __new__; __init__ sees its fields and checks them
        if not 0 < self.eta < math.inf:
            raise ValidationError(f"path loss exponent must be finite and > 0, got {self.eta}")
        if not 0 < self.pt_prime < math.inf:
            raise ValidationError(f"pt_prime must be finite and > 0, got {self.pt_prime}")
        if self.eta < 2:
            warnings.warn(
                f"eta={self.eta} < 2: large-d limit guarantees do not apply",
                EtaBelowTwoWarning,
                stacklevel=2,
            )

    def d_of_pi(self, pi: float) -> float:
        return (self.pt_prime / pi) ** (1.0 / self.eta)


def stationary_points(problem: HopProblem) -> StationarySet:
    """All interior roots of the stationary equation, with the maximizer."""
    if problem.eta <= 1.0:
        return StationarySet(points=(), maximizer_index=None, unique=False, boundary="d->inf")
    points = sorted(_roots(problem), key=lambda pt: pt.d)
    if not points:
        raise NoStationaryPoint("psi vanishes at both ends, yet no interior root was found")
    maximizer_index = max(range(len(points)), key=lambda i: points[i].psi)
    return StationarySet(
        points=tuple(points), maximizer_index=maximizer_index, unique=len(points) == 1
    )


def _roots(problem: HopProblem) -> list:
    """The point at every root of Gamma - eta*pi*lam, eta > 1: the edge where c enters.

    A kind's root (pi_H, lam_H) at unit scale becomes a point at ``pi = pi_H/c``,
    ``lam = c*lam_H`` and ``d = (pt'/pi)**(1/eta)``.  BracketFailure names pi_H
    when the root's residual exceeds 1e-8 of its Gamma, and c where pi, lam,
    d or psi leaves the float range (0 included).
    """
    model, eta = problem.model, problem.eta
    if model.is_discrete:
        table = model.table
        roots = [(pi, lam, gamma, segment) for pi, segment in _discrete.stationary_roots(table, eta)
                 for gamma, lam in [_discrete.gamma_of_pi(table, pi)]]
    else:
        lams = ([_exponential_root(model, eta)] if isinstance(model.kind, Exponential)
                else _tabulated_roots(model, eta))
        roots = [(pi, lam, gamma, None)
                 for lam in lams for _, pi, gamma, _ in [_waterfill.tails_at(model, lam)]]
    c = model.alpha_over_sigma2
    points = []
    for pi_h, lam_h, gamma, segment in roots:
        residual = gamma - eta * (pi_h * lam_h)
        if abs(residual) > _RESIDUAL_REL * max(gamma, 1e-12):
            raise BracketFailure(f"the stationary root at pi_H = {pi_h!r} has the residual "
                                 f"{residual!r}, above {_RESIDUAL_REL:g} of Gamma = {gamma!r}")
        pi, lam = pi_h / c, c * lam_h
        d = problem.d_of_pi(pi) if pi else 0.0
        if not (pi < math.inf and 0.0 < lam < math.inf and 0.0 < d and d * gamma < math.inf):
            raise BracketFailure(
                f"alpha_over_sigma2 = {c!r} with pt_prime = {problem.pt_prime!r} takes the "
                f"stationary point at pi_H = {pi_h!r} out of the float range")
        points.append(StationaryPoint(d, pi, lam, gamma, d * gamma, segment))
    return points


def _residual(model: FadingModel, lam: float, eta: float):
    """R = rate - eta*lam*power and its first two derivatives in log lam, from one kernel call.

    With S the mass above lam and f the density at lam, ``lam*R' =
    (eta-1)*S - eta*lam*power`` and ``lam**2*R'' = S - (eta-1)*lam*f``.
    """
    mass, power, rate, density = _waterfill.tails_at(model, lam)
    slope = (eta - 1.0) * mass - eta * lam * power
    return rate - eta * lam * power, slope, slope + mass - (eta - 1.0) * lam * density


def _slope(model: FadingModel, lam: float, eta: float):
    """lam*R' and its derivative in log lam, for Newton steps: one kernel call."""
    _, slope, curvature = _residual(model, lam, eta)
    return slope, curvature, 0.0


def _exponential_root(model: FadingModel, eta: float) -> float:
    """The one root in lam of exponential fading, on u = nu*lam in (0, 700], from u = 1."""
    start = 1.0 / model.kind.rate
    try:
        return log_root(lambda lam: _residual(model, lam, eta), start, 0.0, start * _U_MAX,
                        rising=False)
    except BracketFailure:
        raise BracketFailure(f"the stationary root at eta = {eta} lies outside u = nu*lam "
                             f"in (0, {_U_MAX:g}], where E1 leaves the float range") from None


def _tabulated_roots(model: FadingModel, eta: float) -> list:
    """Every root in lam of R = rate - eta*lam*power for a tabulated density.

    With S the mass above lam, R' = (eta-1)*S/lam - eta*power and R'' has
    the numerator N = S - (eta-1)*lam*f.  On a cell [a, b] where f is
    linear with slope k, N is a quadratic in s = lam - a (the lam-form
    A - eta*c0*lam - (eta - 1/2)*k*lam**2, shifted to the left node):

        N = (mass_a - (eta-1)*a*f_a) - (eta*f_a + (eta-1)*a*k)*s - (eta - 1/2)*k*s**2

    Between the nodes and the in-cell roots of N, R' is monotone, so the
    sign changes of R' there bracket every critical point of R, and R
    has at most one root between neighbouring critical points.  R -> +inf
    and R' -> -inf as lam -> 0; above the last critical point R rises to
    0 at the top of the support (the first node with no mass above it),
    which is not a root.
    """
    tails = model.tails
    cuts = []
    for a, b, fa, fb, mass in zip(tails.x, tails.x[1:], tails.f, tails.f[1:], tails.mass):
        k = (fb - fa) / (b - a)
        q0 = mass - (eta - 1.0) * a * fa
        q1 = -(eta * fa + (eta - 1.0) * a * k)
        q2 = -(eta - 0.5) * k
        disc = q1 * q1 - 4.0 * q2 * q0
        if disc < 0.0:
            continue
        # both roots of q0 + q1*s + q2*s**2 without cancellation; a flat cell
        # (q2 = 0) has only the second, an empty one (q1 = q2 = 0) neither
        qq = -0.5 * (q1 + math.copysign(math.sqrt(disc), q1))
        cuts += [a + num / den for num, den in ((qq, q2), (q0, qq))
                 if den != 0.0 and 0.0 < num / den < b - a]

    slope = lambda lam: _slope(model, lam, eta)
    residual = lambda lam: _residual(model, lam, eta)
    top = tails.x[tails.top]
    # lam*R' at the nodes comes straight off the table columns
    breaks = [(v, (eta - 1.0) * m - eta * v * p)
              for v, m, p in zip(tails.x, tails.mass, tails.power) if 0.0 < v < top]
    breaks += [(v, slope(v)[0]) for v in cuts if v < top]
    breaks.sort()
    # both passes start at lam = 0, with the limits lam*R' -> -mass and R -> +inf
    critical = sign_change_roots(
        slope, [0.0] + [v for v, _ in breaks], [-tails.mass[0]] + [g for _, g in breaks]
    )
    return sign_change_roots(residual, [0.0] + critical,
                             [math.inf] + [residual(v)[0] for v in critical])

