"""Hop-distance optimization of the transport-capacity core.

The objective is ``psi(d) = d * Gamma(pt' / d**eta)``: power and hop
distance enter the throughput only through the normalized power
``pi = pt' / d**eta``, and the derivative of the objective reduces to

    d/dd [d * Gamma(pi(d))] = Gamma(pi) - eta * pi * lam(pi)

so interior optima are the positive roots of ``Gamma - eta*pi*lam = 0``.
For discrete models the enumeration is exact (see `discrete`); for
continuous ones a log-grid scan over the multiplier brackets every sign
change, which is the honest generic fallback.  The same zero set has a
direct characterisation in the variable y = lam/x,

    integral_0^1 (log y - eta*(y-1)) * (lam^2/y^2) * f(lam/y) dy = 0

solved here independently of the pi <-> lam inversion (`solve_rechar`);
a ratio-monotonicity test on the density certifies uniqueness.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

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
from .fading import Exponential, FadingModel
from .stationary import StationaryPoint, StationarySet

# fixed solver grids: pi window and size of the continuous stationary scan,
# the y-domain scan, the monotonicity certificate, the boundary decades
PI_MIN = 1e-8
PI_MAX = 1e8
SCAN_POINTS = 2000
RECHAR_POINTS = 400
MONOTONE_PAIRS = 20
MONOTONE_GRID_POINTS = 200
MONOTONE_SEED = 20260809
BOUNDARY_DECADES = 6

_RESIDUAL_REL = 1e-8
_RECHAR_NODES, _RECHAR_WEIGHTS = np.polynomial.legendre.leggauss(24)


class EtaBelowTwoWarning(UserWarning):
    """Path-loss exponent below 2: the large-d limit theorems need eta >= 2."""


class NearFieldWarning(UserWarning):
    """Hop distance at or below the far-field reference distance."""


@dataclass(frozen=True)
class HopProblem:
    """Inputs of the hop-length optimization.

    ``pt_prime`` is the transmit power averaged over transmission
    periods only (watts); ``d0`` the far-field reference distance below
    which the path-loss model over-estimates received power.
    """

    model: FadingModel
    eta: float
    pt_prime: float
    d0: float = 0.0

    def __post_init__(self):
        if self.eta <= 0:
            raise ValidationError(f"path loss exponent must be > 0, got {self.eta}")
        if self.pt_prime <= 0:
            raise ValidationError(f"pt_prime must be > 0, got {self.pt_prime}")
        if self.d0 < 0:
            raise ValidationError(f"d0 must be >= 0, got {self.d0}")
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


@dataclass(frozen=True)
class ScalingCheck:
    """Observed ratios when the power budget is scaled by a factor."""

    d_ratio: float
    psi_ratio: float
    gamma_opt_delta: float


@dataclass(frozen=True)
class BoundaryLimits:
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
    """All interior roots of the stationary equation, with the maximizer.

    Discrete models delegate to the exhaustive closed-form enumeration.
    Continuous models are scanned on a log grid of the multiplier
    (equivalent to the pi window [PI_MIN, PI_MAX] through the monotone
    map pi <-> lam, and free of nested root-finding); each sign change
    is refined by Brent's method.
    """
    if problem.model.is_discrete:
        table = problem.model.table
        return _discrete.stationary_points_discrete(table, problem.eta, problem.pt_prime)

    model = problem.model
    eta = problem.eta
    lam_lo = _waterfill.solve(model, PI_MAX).lam
    lam_hi = _waterfill.solve(model, PI_MIN).lam
    lams = np.geomspace(lam_lo, lam_hi, SCAN_POINTS)

    def residual_of_lam(lam: float) -> float:
        return _waterfill.optimal_rate(model, lam) - eta * lam * _waterfill.expected_power(
            model, lam
        )

    vals = np.array([residual_of_lam(l) for l in lams])
    points = []
    for i in range(lams.size - 1):
        if vals[i] == 0.0:
            lam_root = float(lams[i])
        elif vals[i] * vals[i + 1] < 0.0:
            lam_root = float(brentq(residual_of_lam, lams[i], lams[i + 1], xtol=1e-30, rtol=1e-15))
        else:
            continue
        pi_root = _waterfill.expected_power(model, lam_root)
        gamma = _waterfill.optimal_rate(model, lam_root)
        residual = gamma - eta * pi_root * lam_root
        if abs(residual) > _RESIDUAL_REL * max(gamma, 1e-12):
            continue
        d = problem.d_of_pi(pi_root)
        points.append(
            StationaryPoint(d=d, pi=pi_root, lam=lam_root, gamma=gamma, psi=d * gamma)
        )
    points.sort(key=lambda pt: pt.d)

    if not points:
        raise NoStationaryPoint(
            "no interior stationary point in the scanned window; the optimum "
            "sits at a boundary (d -> inf when the objective is unbounded)"
        )

    maximizer_index = max(range(len(points)), key=lambda i: points[i].psi)
    boundary = None
    psi_low = psi(problem, problem.d_of_pi(PI_MAX) / 10.0)
    psi_high = psi(problem, problem.d_of_pi(PI_MIN) * 10.0)
    if max(psi_low, psi_high) > points[maximizer_index].psi:
        boundary = "d->0" if psi_low > psi_high else "d->inf"
        maximizer_index = None

    certified = check_monotonicity_condition(model)
    return StationarySet(
        points=tuple(points),
        maximizer_index=maximizer_index,
        unique=certified and len(points) == 1,
        boundary=boundary,
    )


def stationarity_weight(y, eta: float):
    """Sign-switching factor log(y) - eta*(y - 1); vanishes at y = 1."""
    yv = np.asarray(y, dtype=float)
    out = np.log(yv) - eta * (yv - 1.0)
    return float(out) if np.isscalar(y) else out


def rechar_integral(model: FadingModel, lam: float, eta: float) -> float:
    """The y-domain stationarity integral at multiplier lam.

    integral_0^1 (log y - eta(y-1)) * (lam^2/y^2) * f(lam/y) dy
    """
    if model.is_discrete:
        raise DiscreteKindError("the y-domain characterisation needs a density")
    if isinstance(model.kind, Exponential):
        # substituting t = nu*lam/y tames the integrand for quadrature
        # (the zero set in lam is unchanged); no closed forms involved,
        # so this stays an independent route to the stationary equation
        nu = model.kind.rate / model.alpha_over_sigma2
        u = nu * lam

        def integrand(t):
            return (math.log(u / t) - eta * (u / t - 1.0)) * math.exp(-t)

        val, _ = quad(integrand, u, np.inf, epsabs=1e-14, epsrel=1e-11, limit=300)
        return lam * val
    # tabulated: f(lam/y) is piecewise linear in lam/y with kinks at
    # y = lam/x_i; integrate per smooth y-cell
    xg, fg = model.x_grid()
    y_lo = max(lam / xg[-1], 1e-300)
    y_hi = min(1.0, lam / xg[0]) if xg[0] > 0 else 1.0
    if y_hi <= y_lo:
        return 0.0
    kinks = lam / xg[xg > 0][::-1]
    edges = np.concatenate(([y_lo], kinks[(kinks > y_lo) & (kinks < y_hi)], [y_hi]))
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)
    ys = 0.5 * (a + b)[:, None] + half[:, None] * _RECHAR_NODES[None, :]
    fv = np.interp(lam / ys, xg, fg, left=0.0, right=0.0)
    cells = half[:, None] * _RECHAR_WEIGHTS[None, :]
    return float(np.sum(cells * stationarity_weight(ys, eta) * (lam**2 / ys**2) * fv))


def solve_rechar(problem: HopProblem) -> float:
    """Solve the y-domain characterisation directly for the multiplier.

    Returns the optimal lam without ever inverting the power constraint;
    when several sign changes appear, the root with the largest psi
    wins.  The result is verified against the pi-space stationary-point
    scan to 1e-6 relative.
    """
    model = problem.model
    if model.is_discrete:
        raise DiscreteKindError("solve_rechar requires a continuous model")
    eta = problem.eta
    if isinstance(model.kind, Exponential):
        scale = 1.0 / (model.kind.rate / model.alpha_over_sigma2)
        lams = scale * np.geomspace(1e-6, 1e2, RECHAR_POINTS)
    else:
        x_lo, x_hi = model.x_support()
        lams = np.geomspace(max(x_lo, x_hi * 1e-9) * 1e-3, x_hi * (1 - 1e-9), RECHAR_POINTS)
    vals = np.array([rechar_integral(model, l, eta) for l in lams])
    roots = []
    for i in range(lams.size - 1):
        if vals[i] == 0.0 and vals[i + 1] != 0.0:
            continue  # flat zero tail outside the support
        if vals[i] * vals[i + 1] < 0.0:
            roots.append(
                float(
                    brentq(
                        lambda l: rechar_integral(model, l, eta),
                        lams[i],
                        lams[i + 1],
                        xtol=1e-30,
                        rtol=1e-13,
                    )
                )
            )
    if not roots:
        raise BracketFailure("the stationarity integral never changes sign on the scan grid")
    if len(roots) == 1:
        lam_opt = roots[0]
    else:
        def psi_of_lam(lam):
            pi = _waterfill.expected_power(model, lam)
            return problem.d_of_pi(pi) * _waterfill.optimal_rate(model, lam)

        lam_opt = max(roots, key=psi_of_lam)
    sset = stationary_points(problem)
    nearest = min(sset.points, key=lambda pt: abs(math.log(pt.lam / lam_opt)))
    if abs(nearest.lam - lam_opt) > 1e-6 * lam_opt:
        raise NumericalError(
            f"y-domain root lam={lam_opt} disagrees with the pi-space scan "
            f"(nearest lam={nearest.lam})"
        )
    return lam_opt


def check_monotonicity_condition(model: FadingModel) -> bool:
    """Certify that f(lam2/y)/f(lam1/y) strictly decreases in y.

    Sufficient condition for a unique interior stationary point; a False
    return means "not certified", never "violated".  Checked in log
    space on ``MONOTONE_PAIRS`` seeded random multiplier pairs drawn
    around the mean channel state.
    """
    if model.is_discrete:
        raise DiscreteKindError("the monotonicity condition needs a density")
    rng = np.random.Generator(np.random.PCG64(MONOTONE_SEED))
    scale = model.alpha_over_sigma2 * model.mean_h()
    ys = np.linspace(1.0 / MONOTONE_GRID_POINTS, 1.0, MONOTONE_GRID_POINTS)
    for _ in range(MONOTONE_PAIRS):
        pair = scale * np.exp(rng.uniform(math.log(1 / 30), math.log(30), size=2))
        lam1, lam2 = max(pair), min(pair)
        if lam1 == lam2:
            continue
        with np.errstate(invalid="ignore"):
            log_ratio = model.logpdf_x(lam2 / ys) - model.logpdf_x(lam1 / ys)
        if not np.all(np.isfinite(log_ratio)):
            return False
        if not np.all(np.diff(log_ratio) < 0.0):
            return False
    return True


def scaling_check(problem: HopProblem, factor: float):
    """Re-solve with the power budget scaled by ``factor``.

    Returns the observed (d_opt ratio, psi_opt ratio, |Gamma_opt change|);
    the expected values are factor**(1/eta), factor**(1/eta) and 0.
    """
    if factor <= 0:
        raise ValidationError(f"scale factor must be > 0, got {factor}")
    base = stationary_points(problem)
    scaled = stationary_points(replace(problem, pt_prime=factor * problem.pt_prime))
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
