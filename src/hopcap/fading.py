"""Fading-gain distributions and their change-of-variable densities.

Everything downstream works with the composite channel state
``X = (alpha/sigma^2) * H`` (per-watt SNR at unit distance) and its
reciprocal ``Z = 1/X``.  This module owns the supported distribution
kinds, the H -> X -> Z transforms, moments, tail diagnostics, sampling
and CSV ingestion for tabulated densities.

Models are immutable after construction; every operation is pure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DiscreteKindError, ValidationError

PROB_SUM_TOL = 1e-12
DENSITY_NORM_TOL = 1e-6
_TAIL_POINTS = 50

# Fixed-order Gauss-Legendre rule applied per grid cell.  Tabulated
# densities are piecewise linear, so a 12-point rule integrates
# (density x smooth factor) to near machine precision per cell.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


@dataclass(frozen=True)
class Exponential:
    """Exponential gain distribution with pdf ``rate * exp(-rate*h)``."""

    rate: float


@dataclass(frozen=True)
class DiscreteFinite:
    """Finite set of fading states, gains strictly descending."""

    gains: tuple
    probs: tuple


@dataclass(frozen=True, eq=False)
class TabulatedDensity:
    """Sampled pdf on an increasing grid; linear between nodes, zero outside."""

    grid: np.ndarray
    density: np.ndarray


@dataclass(frozen=True, eq=False)
class FadingModel:
    """A fading distribution plus the composite gain-to-noise factor.

    Use the classmethod constructors (`exponential`, `discrete`,
    `tabulated`, `tabulated_from_csv`); they validate invariants and
    normalise representation (e.g. discrete states sorted by descending
    gain).
    """

    kind: Exponential | DiscreteFinite | TabulatedDensity
    alpha_over_sigma2: float = 1.0

    # -- constructors ---------------------------------------------------

    @classmethod
    def exponential(cls, rate: float, alpha_over_sigma2: float = 1.0) -> "FadingModel":
        if rate <= 0:
            raise ValidationError(f"exponential rate must be > 0, got {rate}")
        _check_scale(alpha_over_sigma2)
        return cls(Exponential(float(rate)), float(alpha_over_sigma2))

    @classmethod
    def discrete(cls, states, alpha_over_sigma2: float = 1.0) -> "FadingModel":
        """Build from (gain, probability) pairs; sorted descending internally."""
        _check_scale(alpha_over_sigma2)
        pairs = [(float(h), float(a)) for h, a in states]
        if not pairs:
            raise ValidationError("discrete model needs at least one state")
        gains = np.array([h for h, _ in pairs])
        probs = np.array([a for _, a in pairs])
        if np.any(gains <= 0):
            raise ValidationError("discrete gains must be strictly positive")
        if np.any(probs <= 0):
            raise ValidationError("discrete probabilities must be strictly positive")
        if abs(probs.sum() - 1.0) > PROB_SUM_TOL:
            raise ValidationError(
                f"discrete probabilities sum to {probs.sum()!r}, expected 1"
            )
        order = np.argsort(-gains)
        gains, probs = gains[order], probs[order]
        if np.any(np.diff(gains) == 0):
            raise ValidationError("discrete gains must be pairwise distinct")
        return cls(DiscreteFinite(tuple(gains), tuple(probs)), float(alpha_over_sigma2))

    @classmethod
    def tabulated(cls, grid, density, alpha_over_sigma2: float = 1.0) -> "FadingModel":
        _check_scale(alpha_over_sigma2)
        g = np.asarray(grid, dtype=float)
        a = np.asarray(density, dtype=float)
        if g.ndim != 1 or g.size < 2 or a.shape != g.shape:
            raise ValidationError("tabulated density needs matching 1-d arrays, >= 2 points")
        if np.any(np.diff(g) <= 0):
            raise ValidationError("tabulated grid must be strictly increasing")
        if g[0] < 0:
            raise ValidationError("tabulated grid must be non-negative")
        if np.any(a < 0):
            raise ValidationError("tabulated density must be non-negative")
        total = np.trapezoid(a, g)
        if abs(total - 1.0) > DENSITY_NORM_TOL:
            raise ValidationError(
                f"tabulated density integrates to {total!r} (trapezoid), expected 1"
            )
        g = g.copy()
        a = a.copy()
        g.flags.writeable = False
        a.flags.writeable = False
        return cls(TabulatedDensity(g, a), float(alpha_over_sigma2))

    @classmethod
    def tabulated_from_csv(cls, path, alpha_over_sigma2: float = 1.0) -> "FadingModel":
        """Load a two-column (h, a(h)) CSV; header row optional."""
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline()
        skip = 0
        try:
            [float(tok) for tok in first.strip().split(",")[:2]]
        except ValueError:
            skip = 1
        data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
        if data.shape[1] < 2:
            raise ValidationError(f"{path}: expected two columns (h, a(h))")
        return cls.tabulated(data[:, 0], data[:, 1], alpha_over_sigma2)

    # -- kind helpers ----------------------------------------------------

    @property
    def is_discrete(self) -> bool:
        return isinstance(self.kind, DiscreteFinite)

    @functools.cached_property
    def table(self):
        """Closed-form water-fill table of a discrete model, built once per model."""
        from . import discrete  # discrete imports this module

        return discrete.build_table(self)

    def x_states(self):
        """Discrete states in x-space: (values descending, probabilities)."""
        if not self.is_discrete:
            raise DiscreteKindError("x_states is only defined for discrete models")
        c = self.alpha_over_sigma2
        return (
            np.array(self.kind.gains) * c,
            np.array(self.kind.probs),
        )

    def x_support(self):
        """(lower, upper) bounds of the support of X."""
        c = self.alpha_over_sigma2
        if isinstance(self.kind, Exponential):
            return 0.0, math.inf
        if isinstance(self.kind, DiscreteFinite):
            return c * self.kind.gains[-1], c * self.kind.gains[0]
        return c * float(self.kind.grid[0]), c * float(self.kind.grid[-1])

    def x_grid(self):
        """Tabulated density transformed to x-space: (grid, f values)."""
        if not isinstance(self.kind, TabulatedDensity):
            raise DiscreteKindError("x_grid is only defined for tabulated models")
        c = self.alpha_over_sigma2
        return c * self.kind.grid, self.kind.density / c

    # -- densities --------------------------------------------------------

    def pdf_h(self, h: float) -> float:
        """Density a(h) of the fading gain; errors on discrete models."""
        if h < 0:
            raise ValidationError("fading gain must be non-negative")
        if isinstance(self.kind, Exponential):
            return self.kind.rate * math.exp(-self.kind.rate * h)
        if isinstance(self.kind, DiscreteFinite):
            raise DiscreteKindError("discrete models have a pmf, not a density")
        return float(np.interp(h, self.kind.grid, self.kind.density, left=0.0, right=0.0))

    def pdf_x(self, x):
        """Density f(x) = a(x / c) / c of X = c*H, with c = alpha/sigma^2."""
        c = self.alpha_over_sigma2
        if isinstance(self.kind, Exponential):
            nu = self.kind.rate / c
            return nu * np.exp(-nu * np.asarray(x, dtype=float))
        if isinstance(self.kind, DiscreteFinite):
            raise DiscreteKindError("discrete models have a pmf, not a density")
        xv = np.asarray(x, dtype=float)
        return np.interp(xv / c, self.kind.grid, self.kind.density, left=0.0, right=0.0) / c

    def logpdf_x(self, x):
        """log f(x); -inf where the density vanishes."""
        if isinstance(self.kind, Exponential):
            nu = self.kind.rate / self.alpha_over_sigma2
            return math.log(nu) - nu * np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return np.log(self.pdf_x(x))

    def pdf_z(self, z):
        """Density g(z) = f(1/z) / z**2 of Z = 1/X."""
        zv = np.asarray(z, dtype=float)
        return self.pdf_x(1.0 / zv) / zv**2

    # -- moments and tails --------------------------------------------------

    def mean_h(self) -> float:
        """E[H]; closed form where available, trapezoid otherwise."""
        if isinstance(self.kind, Exponential):
            return 1.0 / self.kind.rate
        if isinstance(self.kind, DiscreteFinite):
            return float(np.dot(self.kind.gains, self.kind.probs))
        g, a = self.kind.grid, self.kind.density
        return float(np.trapezoid(g * a, g))

    def mean_x(self) -> float:
        return self.alpha_over_sigma2 * self.mean_h()

    def tail_decay_check(self) -> bool:
        """True when h^2 * P(H > h) stays bounded past the 99th percentile.

        Exponential and finite discrete models pass unconditionally; a
        tabulated model is tested on a log grid of ``_TAIL_POINTS`` abscissae.
        """
        if isinstance(self.kind, (Exponential, DiscreteFinite)):
            return True
        g, a = self.kind.grid, self.kind.density
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (a[1:] + a[:-1]) * np.diff(g))))
        cdf = np.minimum(cdf / cdf[-1], 1.0)
        surv = np.maximum(1.0 - cdf, 0.0)
        idx = int(np.searchsorted(cdf, 0.99))
        q99 = g[min(idx, g.size - 1)]
        if q99 <= 0 or q99 >= g[-1]:
            return True
        hs = np.geomspace(q99, g[-1], _TAIL_POINTS)
        t = hs**2 * np.interp(hs, g, surv)
        slack = 1e-9 * max(float(t.max()), 1e-300)
        return bool(np.all(np.diff(t) <= slack))

    # -- sampling -------------------------------------------------------------

    def sample_h(self, rng: np.random.Generator, size: int):
        """Draw i.i.d. fading gains; deterministic for a given generator state."""
        if isinstance(self.kind, Exponential):
            return rng.exponential(1.0 / self.kind.rate, size=size)
        if isinstance(self.kind, DiscreteFinite):
            idx = rng.choice(len(self.kind.gains), size=size, p=self.kind.probs)
            return np.array(self.kind.gains)[idx]
        g, a = self.kind.grid, self.kind.density
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (a[1:] + a[:-1]) * np.diff(g))))
        cdf /= cdf[-1]
        u = rng.random(size)
        # invert the piecewise-quadratic cdf linearly per cell; adequate for
        # validation purposes and exactly reproducible
        return np.interp(u, cdf, g)


def _check_scale(alpha_over_sigma2: float) -> None:
    if alpha_over_sigma2 <= 0:
        raise ValidationError(
            f"alpha_over_sigma2 must be > 0, got {alpha_over_sigma2}"
        )


def integrate_against_density(x_grid, f_values, func, lower=None) -> float:
    """Integrate ``func(x) * f(x)`` over a piecewise-linear density.

    The integral runs from ``max(lower, x_grid[0])`` to ``x_grid[-1]``,
    splitting the cell containing ``lower`` so the integrand stays smooth
    on every subinterval.
    """
    lo = float(x_grid[0] if lower is None else max(lower, x_grid[0]))
    if lo >= x_grid[-1]:
        return 0.0
    j = int(np.searchsorted(x_grid, lo, side="right"))
    edges = np.concatenate(([lo], x_grid[j:]))
    a, b = edges[:-1], edges[1:]
    keep = b > a
    a, b = a[keep], b[keep]
    half = 0.5 * (b - a)
    nodes = 0.5 * (a + b)[:, None] + half[:, None] * _GL_NODES[None, :]
    dens = np.interp(nodes, x_grid, f_values)
    return float(np.sum(half[:, None] * _GL_WEIGHTS[None, :] * func(nodes) * dens))
