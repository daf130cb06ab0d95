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
  ``exp(-u)*(1 - (eta-1)*u)/u**2`` changes sign once: exactly one root;
- tabulated: a cell-by-cell enumeration on the tail table that brackets
  every critical point of the residual, hence every root (`_tabulated_roots`).

Since ``Gamma(pi)/pi`` rises with d, ``psi = pt'*d**(1-eta)*Gamma(pi)/pi``
increases strictly when eta <= 1 (no interior point, the optimum is
d -> inf) and tends to 0 at both ends when eta > 1 (the best root is the
maximizer).  The same zero set has a direct characterisation in the
variable y = lam/x,

    integral_0^1 (log y - eta*(y-1)) * (lam^2/y^2) * f(lam/y) dy = 0

solved here independently of the pi <-> lam inversion (`solve_rechar`).
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import NamedTuple

from . import discrete as _discrete
from . import waterfill as _waterfill
from .errors import (
    BracketFailure,
    DiscreteKindError,
    HypothesisNotMet,
    NoStationaryPoint,
    NumericalError,
    ValidationError,
)
from .fading import Exponential, FadingModel, bracket_root, refine_root

# fixed solver grids: the y-domain scan and the boundary decades
RECHAR_POINTS = 400
BOUNDARY_DECADES = 6

_RESIDUAL_REL = 1e-8
# exp(-u) and E1(u) leave the normal range just above u = 700
_U_MAX = 700.0
# exp(-nu*x) underflows to 0 past nu*x = 745
_EXP_UNDERFLOW = 745.0


class EtaBelowTwoWarning(UserWarning):
    """Path-loss exponent below 2: the large-d limit theorems need eta >= 2."""


class NearFieldWarning(UserWarning):
    """Hop distance at or below the far-field reference distance."""


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
    d0: float = 0.0


class HopProblem(_HopProblemFields):
    """Inputs of the hop-length optimization.

    ``pt_prime`` is the transmit power averaged over transmission
    periods only (watts); ``d0`` the far-field reference distance below
    which the path-loss model over-estimates received power.
    """

    __slots__ = ()

    def __init__(self, *_args, **_kwargs):
        # the tuple is built by __new__; __init__ sees its fields and checks them
        if not 0 < self.eta < math.inf:
            raise ValidationError(f"path loss exponent must be finite and > 0, got {self.eta}")
        if not 0 < self.pt_prime < math.inf:
            raise ValidationError(f"pt_prime must be finite and > 0, got {self.pt_prime}")
        if not 0 <= self.d0 < math.inf:
            raise ValidationError(f"d0 must be finite and >= 0, got {self.d0}")
        if self.eta < 2:
            warnings.warn(
                f"eta={self.eta} < 2: large-d limit guarantees do not apply",
                EtaBelowTwoWarning,
                stacklevel=2,
            )

    def pi_of_d(self, d: float) -> float:
        return self.pt_prime / d**self.eta

    def d_of_pi(self, pi: float) -> float:
        return (self.pt_prime / pi) ** (1.0 / self.eta)


class ScalingCheck(NamedTuple):
    """Observed ratios when the power budget is scaled by a factor."""

    d_ratio: float
    psi_ratio: float
    gamma_opt_delta: float


class BoundaryLimits(NamedTuple):
    """Decay verdicts at d -> 0 and d -> inf; None marks a skipped side."""

    zero_ok: bool | None
    infinity_ok: bool | None


def psi(problem: HopProblem, d: float) -> float:
    """Transport-capacity core d * Gamma(pi(d)), nats x meters per use."""
    if d <= 0:
        raise ValidationError(f"hop distance must be > 0, got {d}")
    if problem.d0 > 0 and d <= problem.d0:
        warnings.warn(
            f"d={d} <= d0={problem.d0}: path-loss model over-estimates received power",
            NearFieldWarning,
            stacklevel=2,
        )
    gamma, _ = _waterfill.gamma_and_lambda(problem.model, problem.pi_of_d(d))
    return d * gamma


def stationary_residual(problem: HopProblem, pi: float) -> float:
    """Gamma(pi) - eta*pi*lam(pi); the d-derivative of psi at pi(d)."""
    gamma, lam = _waterfill.gamma_and_lambda(problem.model, pi)
    return gamma - problem.eta * pi * lam


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

    A kind's root (pi_H, lam_H) at unit scale is kept when its residual is
    below 1e-8 of its Gamma, as ``pi = pi_H/c``, ``lam = c*lam_H`` and
    ``d = (pt'/pi)**(1/eta)``; where one of them, or psi, leaves the float
    range (0 included), BracketFailure names c.
    """
    model, eta = problem.model, problem.eta
    if model.is_discrete:
        table = model.table
        roots = [(pi, _discrete.lambda_closed_form(table, pi), _discrete.gamma_of_pi(table, pi),
                  segment) for pi, segment in _discrete.stationary_roots(table, eta)]
    else:
        lams = ([_exponential_root(model, eta)] if isinstance(model.kind, Exponential)
                else _tabulated_roots(model, eta))
        roots = [(pi, lam, gamma, None)
                 for lam in lams for _, pi, gamma, _ in [_waterfill.tails_at(model, lam)]]
    c = model.alpha_over_sigma2
    points = []
    for pi_h, lam_h, gamma, segment in roots:
        if abs(gamma - eta * pi_h * lam_h) > _RESIDUAL_REL * max(gamma, 1e-12):
            continue
        pi, lam = pi_h / c, c * lam_h
        d = problem.d_of_pi(pi) if pi else 0.0
        if not (pi < math.inf and 0.0 < lam < math.inf and 0.0 < d and d * gamma < math.inf):
            raise BracketFailure(
                f"alpha_over_sigma2 = {c!r} with pt_prime = {problem.pt_prime!r} takes the "
                f"stationary point at pi_H = {pi_h!r} out of the float range")
        points.append(StationaryPoint(d, pi, lam, gamma, d * gamma, segment))
    return points


def _lam_residual(model: FadingModel, lam: float, eta: float) -> float:
    """R(lam) = rate - eta*lam*power, the stationary residual on the lam axis."""
    _, power, rate, _ = _waterfill.tails_at(model, lam)
    return rate - eta * lam * power


def _exponential_root(model: FadingModel, eta: float) -> float:
    """The one root in lam of exponential fading, bracketed from u = nu*lam = 1."""
    start = 1.0 / model.kind.rate
    residual = lambda lam: _lam_residual(model, lam, eta)
    try:
        return bracket_root(residual, start, limit=start * _U_MAX)
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
    residual = lambda lam: _lam_residual(model, lam, eta)
    top = tails.x[tails.top]
    # R' at the nodes comes straight off the table columns
    breaks = [(v, (eta - 1.0) * m / v - eta * p)
              for v, m, p in zip(tails.x, tails.mass, tails.power) if 0.0 < v < top]
    breaks += [(v, slope(v)) for v in cuts if v < top]
    breaks.sort()
    # a start below every break, where R' < 0 and R > 0
    lam0 = breaks[0][0] if breaks else top
    while True:
        lam0 *= 0.1
        if lam0 == 0.0:
            raise BracketFailure("no start below the tabulated nodes before lam underflows to 0")
        g0 = slope(lam0)
        if g0 < 0.0 and residual(lam0) > 0.0:
            break
    critical = _sign_change_roots(
        slope, [lam0] + [v for v, _ in breaks], [g0] + [g for _, g in breaks]
    )
    ends = [lam0] + critical
    return _sign_change_roots(residual, ends, [residual(v) for v in ends])


def _slope(model: FadingModel, lam: float, eta: float) -> float:
    """R'(lam) = (eta-1)*S/lam - eta*power, S the mass above lam."""
    mass, power, _, _ = _waterfill.tails_at(model, lam)
    return (eta - 1.0) * mass / lam - eta * power


def _sign_change_roots(func, xs, values) -> list:
    """One root of ``func`` per sign change of ``values`` along increasing ``xs``.

    A zero value past the first point is a root itself.
    """
    roots = []
    for u, v, fu, fv in zip(xs, xs[1:], values, values[1:]):
        if fv == 0.0:
            roots.append(v)
        elif fu * fv < 0.0:
            roots.append(refine_root(func, u, v))
    return roots


def stationarity_weight(y, eta: float):
    """Sign-switching factor log(y) - eta*(y - 1); vanishes at y = 1."""
    import numpy as np

    yv = np.asarray(y, dtype=float)
    out = np.log(yv) - eta * (yv - 1.0)
    return float(out) if np.isscalar(y) else out


def rechar_integral(model: FadingModel, lam: float, eta: float) -> float:
    """The y-domain stationarity integral at multiplier lam.

    integral_0^1 (log y - eta(y-1)) * (lam^2/y^2) * f(lam/y) dy

    With lam_H = lam/c, y = lam/x = lam_H/h runs from the top of the support
    (for exponential fading, h = 745/nu, where exp(-nu*h) underflows) to
    min(1, lam_H/h_0).  Its cells end at the kinks y = lam_H/h_i of a
    tabulated density and at every halving of y, so none spans a ratio
    above 2, and each takes one fixed Gauss-Legendre rule on ``pdf_x``.  No
    closed form is involved: this route to the stationary equation stays independent.
    """
    if model.is_discrete:
        raise DiscreteKindError("the y-domain characterisation needs a density")
    import numpy as np

    lam_h = lam / model.alpha_over_sigma2
    if isinstance(model.kind, Exponential):
        h_lo, h_top = 0.0, _EXP_UNDERFLOW / model.kind.rate
        kinks = np.empty(0)
    else:
        tails = model.tails
        h_lo, h_top = tails.x[0], tails.x[tails.top]
        kinks = lam_h / np.array(tails.x[1 : tails.top])
    y_lo = lam_h / h_top
    y_hi = min(1.0, lam_h / h_lo) if h_lo > 0.0 else 1.0
    if y_hi <= y_lo:
        return 0.0
    halvings = y_hi * 0.5 ** np.arange(1, math.ceil(math.log2(y_hi / y_lo)))
    inner = np.concatenate((kinks, halvings))
    edges = np.unique(np.concatenate(([y_lo, y_hi], inner[(inner > y_lo) & (inner < y_hi)])))
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)
    nodes, weights = _gauss_legendre_24()
    ys = 0.5 * (a + b)[:, None] + half[:, None] * nodes[None, :]
    cells = half[:, None] * weights[None, :]
    integrand = stationarity_weight(ys, eta) * (lam**2 / ys**2) * model.pdf_x(lam / ys)
    return float(np.sum(cells * integrand))


@functools.cache
def _gauss_legendre_24():
    """Nodes and weights of the 24-point Gauss-Legendre rule on [-1, 1]."""
    import numpy as np

    return np.polynomial.legendre.leggauss(24)


def solve_rechar(problem: HopProblem) -> float:
    """Solve the y-domain characterisation directly for the multiplier.

    Returns the optimal lam without ever inverting the power constraint;
    when several sign changes appear, the root with the largest psi
    wins.  The result is verified against `stationary_points` to 1e-6
    relative.
    """
    model = problem.model
    if model.is_discrete:
        raise DiscreteKindError("solve_rechar requires a continuous model")
    import numpy as np

    eta, c = problem.eta, model.alpha_over_sigma2
    if isinstance(model.kind, Exponential):
        lams = c / model.kind.rate * np.geomspace(1e-6, 1e2, RECHAR_POINTS)
    else:
        # the scan ends at the top of the support, above which the integral is 0
        h = model.tails.x
        top = h[model.tails.top]
        lams = c * np.geomspace(max(h[0], top * 1e-9) * 1e-3, top * (1 - 1e-9), RECHAR_POINTS)
    integral = lambda lam: rechar_integral(model, lam, eta)
    lams = lams.tolist()
    roots = _sign_change_roots(integral, lams, [integral(lam) for lam in lams])
    if not roots:
        raise BracketFailure("the stationarity integral never changes sign on the scan grid")

    def psi_of_lam(lam):  # of several roots, the one with the largest psi wins
        _, pi_h, rate, _ = _waterfill.tails_at(model, lam / c)
        return problem.d_of_pi(pi_h / c) * rate

    lam_opt = max(roots, key=psi_of_lam)
    sset = stationary_points(problem)
    nearest = min(sset.points, key=lambda pt: abs(math.log(pt.lam / lam_opt)))
    if abs(nearest.lam - lam_opt) > 1e-6 * lam_opt:
        raise NumericalError(
            f"y-domain root lam={lam_opt} disagrees with the pi-space roots "
            f"(nearest lam={nearest.lam})"
        )
    return lam_opt


def scaling_check(problem: HopProblem, factor: float):
    """Re-solve with the power budget scaled by ``factor``.

    Returns the observed (d_opt ratio, psi_opt ratio, |Gamma_opt change|);
    the expected values are factor**(1/eta), factor**(1/eta) and 0.
    """
    if factor <= 0:
        raise ValidationError(f"scale factor must be > 0, got {factor}")
    base = stationary_points(problem)
    scaled = stationary_points(
        HopProblem(problem.model, problem.eta, factor * problem.pt_prime, problem.d0))
    if base.maximizer is None or scaled.maximizer is None:
        raise NoStationaryPoint("scaling check needs interior maximizers on both sides")
    return ScalingCheck(
        d_ratio=scaled.maximizer.d / base.maximizer.d,
        psi_ratio=scaled.maximizer.psi / base.maximizer.psi,
        gamma_opt_delta=abs(scaled.maximizer.gamma - base.maximizer.gamma),
    )


def boundary_limits(problem: HopProblem) -> BoundaryLimits:
    """Certify psi -> 0 along d_opt * 10**(+-k), k = 1..BOUNDARY_DECADES.

    Each side requires monotone decay ending below 1e-3 of the peak.
    The d -> 0 side needs a finite mean gain; the d -> inf side
    additionally needs eta >= 2 and the quadratic tail-decay check.  A
    side whose hypotheses fail is skipped (None); if both fail,
    HypothesisNotMet is raised.
    """
    import numpy as np

    zero_applicable = math.isfinite(problem.model.mean_h())
    inf_applicable = (
        zero_applicable and problem.eta >= 2 and problem.model.tail_decay_check()
    )
    if not zero_applicable and not inf_applicable:
        raise HypothesisNotMet("no limit hypothesis holds for this model")

    sset = stationary_points(problem)
    if sset.maximizer is None:
        raise NoStationaryPoint("boundary limits need an interior maximizer")
    d_opt, psi_opt = sset.maximizer.d, sset.maximizer.psi

    def decays(ds) -> bool:
        vals = np.array([psi(problem, d) for d in ds])
        return bool(np.all(np.diff(vals) <= 0.0) and vals[-1] < 1e-3 * psi_opt)

    ks = np.arange(1, BOUNDARY_DECADES + 1, dtype=float)
    zero_ok = decays(d_opt * 10.0**-ks) if zero_applicable else None
    infinity_ok = decays(d_opt * 10.0**ks) if inf_applicable else None
    return BoundaryLimits(zero_ok=zero_ok, infinity_ok=infinity_ok)
