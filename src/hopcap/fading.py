"""Fading-gain distributions at unit scale, and the density of X = c*H.

The channel state ``X = c*H``, with ``c = alpha/sigma^2`` the per-watt SNR
at unit distance, only rescales the power axis, so every kernel works on
H and ``c`` enters at the edges (`waterfill.gamma_and_lambda`,
`hopopt.stationary_points`).  This module owns the distribution kinds,
the continuous kinds' sampling and CSV ingestion for tabulated densities.
A tabulated density is two float tuples, nodes and values, and is linear
between its nodes, so its tails are exact: `TailTable`
(``FadingModel.tails``) holds the mass, water-fill power and rate above
each node, and a query at any ``lam`` adds one closed-form partial cell.
Its draws invert the CDF exactly, at every scale of the values, through
`InverseTable` (``FadingModel.inverse``): per-cell columns and a guide
table, built with numpy.  Every kind's scalar path is plain ``math``;
numpy is imported only for sampling, by ``sample_h``, which returns an
array, and by the inverse table it reads.  Every root of the stationary
enumerations is found here, by `log_root`: safeguarded Halley steps in
log x, which stop on a relative step, so a root keeps its digits at any
scale of the nodes.  The discrete and tabulated enumerations reach it
through one scan, `sign_change_roots`.

Models are immutable after construction; every operation is pure.
"""

from __future__ import annotations

import bisect
import functools
import math
from typing import NamedTuple

from .errors import BracketFailure, DiscreteKindError, ValidationError

# how far from 1 the math.fsum of a discrete model's or a MacProfile's probabilities may lie
PROB_SUM_TOL = 1e-12
DENSITY_NORM_TOL = 1e-6

# For f linear on [a, b] and t = (b - a)/a, int_a^b (1/a - 1/x) f dx =
# f(a)*pa + f(b)*pb and int_a^b log(x/a) f dx = a*(f(a)*ra + f(b)*rb).  Below
# t = _SERIES_BELOW the closed form of pb cancels O(1) terms down to O(t**2),
# so its series in t (k = 2..25) is summed and the other three follow from pb;
# either way all four agree with 40-digit references to 5e-15 relative.
_SERIES_BELOW = 0.25
_SERIES = tuple((-1) ** k / (k + 1) for k in range(25, 1, -1))
# `log_root` stops on a step below _ROOT_STEP_TOL in log x; x4 or /4 alone
# crosses the float range in 1049 steps
_ROOT_STEP_TOL = 1e-14
_ROOT_STEPS = 1100
_GUIDE_BINS = 4096  # equal bins of u in the guide table of `InverseTable`


class Exponential(NamedTuple):
    """Exponential gain distribution with pdf ``rate * exp(-rate*h)``."""

    rate: float


class DiscreteFinite(NamedTuple):
    """Finite set of fading states, gains strictly descending."""

    gains: tuple
    probs: tuple


class TabulatedDensity(NamedTuple):
    """Sampled pdf on an increasing grid of floats; linear between nodes, zero outside."""

    grid: tuple
    density: tuple


class _FadingModelFields(NamedTuple):
    kind: Exponential | DiscreteFinite | TabulatedDensity
    alpha_over_sigma2: float = 1.0


class FadingModel(_FadingModelFields):
    """A fading distribution plus the composite gain-to-noise factor.

    Use the classmethod constructors (`exponential`, `discrete`,
    `tabulated`, `tabulated_from_csv`); they validate invariants and
    normalise representation (e.g. discrete states sorted by descending
    gain).  No ``__slots__``: ``table``, ``tails`` and ``inverse`` are cached in ``__dict__``.
    """

    # -- constructors ---------------------------------------------------

    @classmethod
    def exponential(cls, rate: float, alpha_over_sigma2: float = 1.0) -> "FadingModel":
        rate = _positive(rate, "exponential rate")
        return cls(Exponential(rate), _positive(alpha_over_sigma2, "alpha_over_sigma2"))

    @classmethod
    def discrete(cls, states, alpha_over_sigma2: float = 1.0) -> "FadingModel":
        """Build from (gain, probability) pairs; sorted descending internally."""
        scale = _positive(alpha_over_sigma2, "alpha_over_sigma2")
        pairs = sorted(((float(h), float(a)) for h, a in states), reverse=True)
        if not pairs:
            raise ValidationError("discrete model needs at least one state")
        gains, probs = (tuple(column) for column in zip(*pairs))
        if not all(0.0 < v < math.inf for v in gains + probs):
            raise ValidationError("discrete gains and probabilities must be finite and > 0")
        total = math.fsum(probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"discrete probabilities sum to {total!r}, expected 1")
        if any(h1 == h2 for h1, h2 in zip(gains, gains[1:])):
            raise ValidationError("discrete gains must be pairwise distinct")
        return cls(DiscreteFinite(gains, probs), scale)

    @classmethod
    def tabulated(cls, grid, density, alpha_over_sigma2: float = 1.0) -> "FadingModel":
        """Build from node abscissae h and density values a(h), as float tuples."""
        scale = _positive(alpha_over_sigma2, "alpha_over_sigma2")
        g, a = tuple(map(float, grid)), tuple(map(float, density))
        if len(g) < 2 or len(a) != len(g):
            raise ValidationError("tabulated density needs matching sequences, >= 2 points")
        if not all(0.0 <= v < math.inf for v in g + a):
            raise ValidationError("tabulated grid and density must be finite and >= 0")
        if any(h1 <= h0 for h0, h1 in zip(g, g[1:])):
            raise ValidationError("tabulated grid must be strictly increasing")
        total = math.fsum((h1 - h0) * (a0 + a1) / 2.0
                          for h0, h1, a0, a1 in zip(g, g[1:], a, a[1:]))
        if abs(total - 1.0) > DENSITY_NORM_TOL:
            raise ValidationError(
                f"tabulated density integrates to {total!r} (trapezoid), expected 1"
            )
        return cls(TabulatedDensity(g, a), scale)

    @classmethod
    def tabulated_from_csv(cls, path, alpha_over_sigma2: float = 1.0) -> "FadingModel":
        """Load a (h, a(h)) CSV: comma-separated, one node per line.

        A header row before the first node is optional; blank lines, ``#``
        comments and columns after the second are skipped.
        """
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"cannot read tabulated density {path}: {exc}") from None
        rows = [(number, text.split(",")) for number, line in enumerate(lines, 1)
                if (text := line.split("#", 1)[0]).strip()]
        nodes = []
        for i, (number, cells) in enumerate(rows):
            try:
                nodes.append((float(cells[0]), float(cells[1])))
            except (ValueError, IndexError):
                if i > 0:  # only the first row may be a header
                    raise ValidationError(
                        f"{path}, line {number}: expected two numbers h,a(h)") from None
        return cls.tabulated([h for h, _ in nodes], [a for _, a in nodes], alpha_over_sigma2)

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
        """Exact tail table of a tabulated model's H, built once per model."""
        if not isinstance(self.kind, TabulatedDensity):
            raise DiscreteKindError("the tail table is only defined for tabulated models")
        return TailTable(self.kind.grid, self.kind.density)

    @functools.cached_property
    def inverse(self) -> "InverseTable":
        """Inverse-CDF table of a tabulated model's H, built once per model."""
        if not isinstance(self.kind, TabulatedDensity):
            raise DiscreteKindError("the inverse table is only defined for tabulated models")
        return InverseTable(self.kind.grid, self.kind.density)

    # -- sampling -------------------------------------------------------------

    def sample_h(self, rng: np.random.Generator, size: int, out=None, work=None):
        """Draw i.i.d. fading gains; deterministic for a given generator state.

        ``out``, if given, is a float array of length ``size`` that receives
        the draws.  A discrete model raises DiscreteKindError (`simulator`
        counts its fades by state).  A tabulated model's draws invert its
        CDF exactly (`InverseTable`, ``FadingModel.inverse``): one
        guide-table lookup and one step up find a draw's cell, and
        ``searchsorted`` runs only on the draws in a bin that spans several
        cells.  ``work``, if given, holds its scratch arrays of length
        ``size``: two of floats, then two of ``np.intp``.
        """
        import numpy as np

        out = np.empty(size) if out is None else out
        if isinstance(self.kind, Exponential):
            # as rng.exponential(1/rate, size), which scales the same draws
            rng.standard_exponential(size, out=out)
            out *= 1.0 / self.kind.rate
            return out
        inv = self.inverse
        u = rng.random(size, out=out)
        upper, lower, g, a, width, slope2, a2 = inv.columns
        tmp, root, bins, j = work or (np.empty(size), np.empty(size),
                                      np.empty(size, dtype=np.intp), np.empty(size, dtype=np.intp))

        def column(values, into=tmp):
            """``values`` at the cells ``j``, in ``into``: every index is in range,
            and mode="clip" gathers into ``out=`` unbuffered."""
            return np.take(values, j, out=into, mode="clip")

        np.copyto(bins, np.multiply(u, _GUIDE_BINS, out=tmp), casting="unsafe")
        np.take(inv.guide, bins, out=j, mode="clip")
        j += column(upper) <= u
        spans = np.flatnonzero(np.take(inv.spans, bins))
        if spans.size:
            j[spans] = np.searchsorted(inv.cdf, u[spans], side="right") - 1
        # invert the piecewise-quadratic cdf exactly: u < 1 falls in a cell j
        # of positive mass, where the offset s above g_j solves
        # a_j*s + k*s**2/2 = w (k the cell's slope, w the mass to cover).
        # The root 2w/(a_j + sqrt(a_j**2 + 2kw)) keeps its digits for either
        # sign of k and is w/a_j on a flat cell.
        w = np.subtract(u, column(lower), out=out)
        w *= inv.total
        column(slope2, root)
        root *= w
        root += column(a2)
        np.maximum(root, 0.0, out=root)
        np.sqrt(root, out=root)
        root += column(a)
        positive = root > 0.0
        w *= 2.0
        s = np.divide(w, root, out=w, where=positive)
        s[~positive] = 0.0
        np.minimum(s, column(width), out=s)
        s += column(g)
        return s


def log_root(func, x: float, lo: float, hi: float, rising: bool) -> float:
    """The root of g in (lo, hi) by safeguarded Halley steps in log x, from x.

    ``func(x)`` returns g and its first two derivatives in log x, all from
    one evaluation; a zero second derivative makes the step Newton's.  g
    changes sign once in the bracket, from negative to positive if
    ``rising``; lo may be 0 and hi inf.  Every value seen narrows the
    bracket.  A step that leaves it, or that is not below half the step
    before, becomes a geometric bisection, or x4 or /4 while a side is
    still open.  The routine stops on a step below 1e-14 in log x,
    returning the x stepped to, or on two neighbouring floats, never on an
    absolute tolerance, so the scale of x does not matter.  A NaN value,
    a bracket that closes on an end with no sign change, or no convergence
    raises BracketFailure.
    """
    g_lo = g_hi = None  # g at the ends, once evaluated
    last = math.inf
    for _ in range(_ROOT_STEPS):
        g, g1, g2 = func(x)
        if g == 0.0:
            return x
        if math.isnan(g):
            raise BracketFailure(f"the function is NaN at {x!r}")
        if (g > 0.0) == rising:
            hi, g_hi = x, g
        else:
            lo, g_lo = x, g
        if not 0.0 < abs(g1) < math.inf:  # no slope to step by: bisect
            g1 = math.nan
        step = -g / g1
        den = 1.0 + 0.5 * step * g2 / g1
        if den > 0.0:
            step /= den
        if abs(step) <= _ROOT_STEP_TOL:
            return min(max(x + x * math.expm1(step), lo), hi)
        new = x * math.exp(step) if abs(step) < min(700.0, 0.5 * last) else math.nan
        if not lo < new < hi:
            new = (4.0 * lo if hi == math.inf else 0.25 * hi if lo == 0.0
                   else math.sqrt(lo) * math.sqrt(hi))
            if not lo < new < hi:  # two neighbouring floats, or the end of the float range
                break
        last, x = abs(math.log(new / x)), new
    else:
        raise BracketFailure(f"no root found on [{lo!r}, {hi!r}] in {_ROOT_STEPS} steps")
    # an end never evaluated is the caller's: evaluate it, unless it is 0 or inf
    if g_lo is None:
        g_lo = func(lo)[0] if lo > 0.0 else math.nan
    elif g_hi is None:
        g_hi = func(hi)[0] if hi < math.inf else math.nan
    if not (g_lo <= 0.0 <= g_hi if rising else g_lo >= 0.0 >= g_hi):
        raise BracketFailure(f"no sign change on [{lo!r}, {hi!r}]")
    return lo if abs(g_lo) <= abs(g_hi) else hi


def sign_change_roots(func, xs, values) -> list:
    """One root of ``func`` per sign change of ``values`` along increasing ``xs``.

    ``values`` are g at ``xs``, where ``func`` returns g and its two
    derivatives in log x; each change is solved by `log_root`.  A zero
    value is a root itself.  The first point may be x = 0, where g is a
    limit; its step starts at v/sqrt(10).
    """
    roots = [xs[0]] if values[0] == 0.0 else []
    for u, v, fu, fv in zip(xs, xs[1:], values, values[1:]):
        if fv == 0.0:
            roots.append(v)
        elif fu * fv < 0.0:
            start = math.sqrt(u) * math.sqrt(v) if u else v / math.sqrt(10.0)
            roots.append(log_root(func, start, u, v, rising=fv > 0.0))
    return roots


def _positive(value, what: str) -> float:
    """``value`` as a float, which must be finite and > 0."""
    value = float(value)
    if not 0.0 < value < math.inf:
        raise ValidationError(f"{what} must be finite and > 0, got {value}")
    return value


class TailTable:
    """Exact tails of a piecewise-linear density f on nodes x_0 < ... < x_{n-1}.

    ``x`` and ``f`` are float tuples (a model's nodes and values of H), the
    columns lists of floats.  At node
    j, ``mass[j] = P(X > x_j)``, ``power[j] = E[(1/x_j - 1/X)^+]`` and
    ``rate[j] = E[log(X/x_j)^+]``.  A row is the row
    above, plus the mass above times the weight at the node above, plus the
    closed-form cell between them: all non-negative, so no digits cancel
    near the top.  A node at x = 0 has only mass (1/x, log x are undefined).
    ``top`` indexes the top of the support, the first node with no mass
    above it; ``power`` decreases strictly from the first positive node to it.
    ``above(lam)`` returns the same three tails, mass first, at any lam > 0,
    and the density at lam: the row of the node above lam plus one
    closed-form partial cell, whose interpolated density it already needs.
    """

    def __init__(self, x, f):
        self.x, self.f = x, f
        n = len(self.x)
        self.mass, self.power, self.rate = [0.0] * n, [0.0] * n, [0.0] * n
        for j in range(n - 2, -1, -1):
            a, b, fa, fb = self.x[j], self.x[j + 1], self.f[j], self.f[j + 1]
            self.mass[j] = self.mass[j + 1] + 0.5 * (b - a) * (fa + fb)
            if a > 0.0:
                _, self.power[j], self.rate[j], _ = self._from(j + 1, a, fa, fb)
        self.top = self.mass.index(0.0)

    def above(self, lam: float):
        """(P(X > lam), E[(1/lam - 1/X)^+], E[log(X/lam)^+], f(lam)) for lam > 0."""
        x, f = self.x, self.f
        j = bisect.bisect_left(x, lam)
        if j == len(x):
            return 0.0, 0.0, 0.0, 0.0
        if j == 0:  # zero density below the support: row 0 plus the gap up to x_0
            b, mass, t = x[0], self.mass[0], (x[0] - lam) / lam
            # where t = b/lam - 1 overflows, 1/lam - 1/b and log(b/lam) by their terms
            gap, log_gap = ((t / b, math.log1p(t)) if t < math.inf
                            else (1.0 / lam - 1.0 / b, math.log(b) - math.log(lam)))
            return mass, gap * mass + self.power[0], log_gap * mass + self.rate[0], 0.0
        a, b = x[j - 1], x[j]
        return self._from(j, lam, (f[j - 1] * (b - lam) + f[j] * (lam - a)) / (b - a), f[j])

    def _from(self, j, lam, fa, fb):
        """(mass, power, rate, fa) above lam <= x_j, the density linear from (lam, fa) to (x_j, fb)."""
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
        return mass + 0.5 * (b - lam) * (fa + fb), power, rate, fa


class InverseTable:
    """The CDF of a piecewise-linear density by cell, and a guide table into it.

    ``x`` and ``f`` are float tuples (a model's nodes and values of H).
    ``cdf`` holds the running sums of the cells' trapezoid masses from 0,
    divided by their total, as ``np.cumsum`` forms them.  A draw u < 1
    falls in the cell j of the last node with ``cdf[j] <= u``, which has
    positive mass.  ``columns`` holds per cell the CDF at its top and at
    its foot, its foot x_j and density f_j, its width, twice its slope and
    f_j**2.  The density columns and ``total`` are in units of ``2**e``, e
    the exponent of the largest f, so that no f_j**2 overflows, at any
    scale of the values; a power of two rounds nothing.  A cell of
    subnormal width can still overflow its slope.  ``guide[b]`` is the cell
    of u = b/4096: a draw in bin b lies in that cell or above it, at most
    one cell above unless ``spans[b]`` is set.  Every column is a numpy
    array, read by `FadingModel.sample_h` as it is.
    """

    def __init__(self, x, f):
        import numpy as np  # only a sampling run needs it

        x, f = np.array(x), np.array(f)
        width = np.diff(x)
        sums = np.concatenate(([0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * width)))
        self.cdf = cdf = sums / sums[-1]
        e = -int(np.frexp(f.max())[1])
        f, self.total = np.ldexp(f, e), np.ldexp(sums[-1], e)
        self.columns = (cdf[1:], cdf[:-1], x[:-1], f[:-1], width,
                        2.0 * (np.diff(f) / width), f[:-1] * f[:-1])
        edges = np.arange(_GUIDE_BINS + 1) / _GUIDE_BINS
        self.guide = np.searchsorted(cdf, edges[:-1], side="right") - 1
        # the cell of the largest draw below each bin's top edge
        self.spans = np.searchsorted(cdf, edges[1:]) - 1 - self.guide > 1
