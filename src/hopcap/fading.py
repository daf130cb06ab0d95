"""Fading-gain distributions and their change-of-variable densities.

Everything downstream works with the composite channel state
``X = (alpha/sigma^2) * H`` (per-watt SNR at unit distance) and its
reciprocal ``Z = 1/X``.  This module owns the supported distribution
kinds, the H -> X -> Z transforms, moments, tail diagnostics, sampling
and CSV ingestion for tabulated densities.  A tabulated density is
linear between its nodes, so its moments and tails are exact: `TailTable`
(``FadingModel.tails``) holds the mass, water-fill power and rate above
each x-node, and a query at any ``lam`` adds one closed-form partial cell.

Models are immutable after construction; every operation is pure.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DiscreteKindError, ValidationError

PROB_SUM_TOL = 1e-12
DENSITY_NORM_TOL = 1e-6
_TAIL_POINTS = 50

# For f linear on [a, b] and t = (b - a)/a, int_a^b (1/a - 1/x) f dx =
# f(a)*pa + f(b)*pb and int_a^b log(x/a) f dx = a*(f(a)*ra + f(b)*rb).  Below
# t = _SERIES_BELOW the closed form of pb cancels O(1) terms down to O(t**2),
# so its series in t (k = 2..25) is summed and the other three follow from pb;
# either way all four agree with 40-digit references to 5e-15 relative.
_SERIES_BELOW = 0.25
_SERIES = tuple((-1) ** k / (k + 1) for k in range(25, 1, -1))


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

    @functools.cached_property
    def tails(self) -> "TailTable":
        """Exact tail table of a tabulated model in x-space, built once per model."""
        return TailTable(*self.x_grid())

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
        """E[H]; exact for every kind (a tabulated density is linear per cell)."""
        if isinstance(self.kind, Exponential):
            return 1.0 / self.kind.rate
        if isinstance(self.kind, DiscreteFinite):
            return float(np.dot(self.kind.gains, self.kind.probs))
        return self.tails.mean / self.alpha_over_sigma2

    def tail_decay_check(self) -> bool:
        """True when h^2 * P(H > h) stays bounded past the 99th percentile.

        Exponential and finite discrete models pass unconditionally; a
        tabulated model is tested on a log grid of ``_TAIL_POINTS`` abscissae.
        """
        if isinstance(self.kind, (Exponential, DiscreteFinite)):
            return True
        g = self.kind.grid
        surv = np.array(self.tails.mass) / self.tails.mass[0]
        idx = int(np.searchsorted(1.0 - surv, 0.99))
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
        total = cdf[-1]
        cdf /= total
        u = rng.random(size)
        # invert the piecewise-quadratic cdf exactly: u < 1 falls in a cell j
        # of positive mass, where the offset s above g_j solves
        # a_j*s + k*s**2/2 = w (k the cell's slope, w the mass to cover).
        # The root 2w/(a_j + sqrt(a_j**2 + 2kw)) keeps its digits for either
        # sign of k and is w/a_j on a flat cell.
        j = np.searchsorted(cdf, u, side="right") - 1
        w = (u - cdf[j]) * total
        width = g[j + 1] - g[j]
        k = (a[j + 1] - a[j]) / width
        root = a[j] + np.sqrt(np.maximum(a[j] * a[j] + 2.0 * k * w, 0.0))
        s = np.divide(2.0 * w, root, out=np.zeros_like(w), where=root > 0.0)
        return g[j] + np.minimum(s, width)


def _check_scale(alpha_over_sigma2: float) -> None:
    if alpha_over_sigma2 <= 0:
        raise ValidationError(
            f"alpha_over_sigma2 must be > 0, got {alpha_over_sigma2}"
        )


class TailTable:
    """Exact tails of a piecewise-linear density f on x-nodes x_0 < ... < x_{n-1}.

    At node j, ``mass[j] = P(X > x_j)``, ``power[j] = E[(1/x_j - 1/X)^+]``
    and ``rate[j] = E[log(X/x_j)^+]``; ``mean`` is E[X].  A row is the row
    above, plus the mass above times the weight at the node above, plus the
    closed-form cell between them: all non-negative, so no digits cancel
    near the top.  A node at x = 0 has only mass (1/x, log x are undefined).
    """

    def __init__(self, x, f):
        self.x, self.f = x.tolist(), f.tolist()
        n = len(self.x)
        self.mass, self.power, self.rate = [0.0] * n, [0.0] * n, [0.0] * n
        self.mean = 0.0
        for j in range(n - 2, -1, -1):
            a, b, fa, fb = self.x[j], self.x[j + 1], self.f[j], self.f[j + 1]
            self.mass[j] = self.mass[j + 1] + 0.5 * (b - a) * (fa + fb)
            self.mean += (b - a) * (fa * (2.0 * a + b) + fb * (a + 2.0 * b)) / 6.0
            if a > 0.0:
                self.power[j], self.rate[j] = self._from(j + 1, a, fa, fb)

    def above(self, lam: float):
        """(E[(1/lam - 1/X)^+], E[log(X/lam)^+]) for lam > 0."""
        x, f = self.x, self.f
        j = bisect.bisect_left(x, lam)
        if j == len(x):
            return 0.0, 0.0
        if j == 0:  # the density is zero below the support
            return self._from(0, lam, 0.0, 0.0)
        a, b = x[j - 1], x[j]
        return self._from(j, lam, (f[j - 1] * (b - lam) + f[j] * (lam - a)) / (b - a), f[j])

    def _from(self, j, lam, fa, fb):
        """Tails at lam <= x_j, the density linear from (lam, fa) to (x_j, fb)."""
        b, mass = self.x[j], self.mass[j]
        t = (b - lam) / lam
        log1p = math.log1p(t)
        if t < _SERIES_BELOW:
            pb = 0.0
            for c in _SERIES:
                pb = pb * t + c
            pb *= t * t
            rb = 0.5 * (t * t - 1.0) * pb + 0.5 * t * t - 0.25 * t**3
            pa, ra = 0.5 * t * t - (1.0 + t) * pb, t * log1p - 0.5 * t * t + t * pb - rb
        else:
            pb = log1p / t - 1.0 + 0.5 * t
            rb = 0.5 * (t - 1.0 / t) * log1p - 0.25 * t + 0.5
            pa, ra = t - log1p - pb, (1.0 + t) * log1p - t - rb
        power = fa * pa + fb * pb + t / b * mass + self.power[j]
        rate = lam * (fa * ra + fb * rb) + log1p * mass + self.rate[j]
        return power, rate
