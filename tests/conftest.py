"""Shared factories and independent numerical oracles for the test suite.

The oracles deliberately avoid the production code paths: dense
trapezoid or per-cell adaptive quadrature plus plain bisection, nothing
from `waterfill` or `discrete`.  They read a model only through
``model.kind`` and its scale ``alpha_over_sigma2`` (`pdf_x`, `mean_h`),
never through its cached ``tails`` or ``table``.  The simulator
references rebuild whole runs with arrays the length of the horizon and
a per-row `csv.writer`.

The paper's claims are checked here, not in the library: `rechar_roots`,
the y-domain characterisation of the optimum (every root, compared with
`hopopt.stationary_points`' roots), `scaling_check` (``d_opt ~
Pt**(1/eta)``), `boundary_limits` (``psi -> 0`` at both ends; `psi`, like
`stationary_residual`, evaluates `waterfill.gamma_and_lambda` by
definition) and `swap_energies`, the swap lemma behind the ordering
precondition of `macmodel.compare_ftt_fp`.
"""

import csv
import math
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ndtri

from hopcap import hopopt, waterfill
from hopcap.errors import DiscreteKindError
from hopcap.fading import Exponential, FadingModel, TabulatedDensity
from hopcap.macmodel import MacProfile


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def random_discrete_model(rng, max_states: int = 6) -> FadingModel:
    """Random finite fading model with well-separated gains."""
    n = int(rng.integers(1, max_states + 1))
    while True:
        gains = np.exp(rng.uniform(np.log(1e-2), np.log(1e3), size=n))
        gains = np.sort(gains)[::-1]
        if n == 1 or np.min(gains[:-1] / gains[1:]) > 1.01:
            break
    while True:
        probs = rng.dirichlet(np.ones(n))
        if probs.min() > 1e-4:
            break
    scale = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
    return FadingModel.discrete(list(zip(gains, probs)), scale)


def random_tabulated_model(rng, points: int = 801) -> FadingModel:
    """Random compact-support density: truncated exp, triangle or bimodal."""
    shape = rng.integers(0, 3)
    if shape == 0:
        mu = float(np.exp(rng.uniform(np.log(0.3), np.log(3.0))))
        h = np.linspace(0.0, 12.0 / mu, points)
        a = np.exp(-mu * h)
    elif shape == 1:
        lo = float(rng.uniform(0.05, 0.5))
        hi = lo + float(rng.uniform(0.5, 3.0))
        h = np.linspace(lo, hi, points)
        a = np.minimum(h - lo, hi - h)
    else:
        h = np.linspace(0.0, 8.0, points)
        a = np.exp(-0.5 * ((h - 1.0) / 0.3) ** 2) + 0.7 * np.exp(
            -0.5 * ((h - 4.0) / 0.8) ** 2
        )
    a = a / np.trapezoid(a, h)
    scale = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
    return FadingModel.tabulated(h, a, scale)


def example_profile(bandwidth: float = 1e6) -> MacProfile:
    """Illustrative DCF-flavoured numbers; not calibrated to any standard."""
    return MacProfile(
        p_idle=0.6,
        p_collision=0.1,
        p_success=0.3,
        t_idle=2e-5,
        t_collision=3e-4,
        t_overhead=2e-4,
        t_txop=2e-3,
        bandwidth=bandwidth,
        e_idle=1e-6,
        e_collision=3e-5,
        e_overhead=5e-5,
    )


def random_model(rng, kinds=("exponential", "discrete", "tabulated")) -> FadingModel:
    kind = kinds[rng.integers(0, len(kinds))]
    if kind == "exponential":
        mu = float(np.exp(rng.uniform(np.log(0.3), np.log(3.0))))
        scale = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
        return FadingModel.exponential(mu, scale)
    if kind == "discrete":
        return random_discrete_model(rng)
    return random_tabulated_model(rng)


def discrete_x_states(model):
    """(states of X = c*H, probabilities) of a discrete model as arrays, states descending."""
    return model.alpha_over_sigma2 * np.asarray(model.kind.gains), np.asarray(model.kind.probs)


def x_top(model) -> float:
    """The top of the support of X: inf for exponential fading, else the largest state or node."""
    if isinstance(model.kind, Exponential):
        return math.inf
    return model.alpha_over_sigma2 * (model.kind.gains[0] if model.is_discrete else model.kind.grid[-1])


def x_tails(model, lam: float):
    """`waterfill.tails_at` in the units of X = c*H: the kernel runs at unit scale, at lam/c.

    The mass and rate are scale-free; the power and the density at lam
    are the unit-scale ones divided by c.
    """
    c = model.alpha_over_sigma2
    mass, power, rate, density = waterfill.tails_at(model, lam / c)
    return mass, power / c, rate, density / c


def pdf_x(model, x):
    """Density f(x) = a(x/c)/c of X = c*H for continuous models, elementwise."""
    if model.is_discrete:
        raise DiscreteKindError("discrete models have a pmf, not a density")
    c, xv = model.alpha_over_sigma2, np.asarray(x, dtype=float)
    if isinstance(model.kind, Exponential):
        nu = model.kind.rate / c
        return nu * np.exp(-nu * xv)
    return np.interp(xv / c, model.kind.grid, model.kind.density, left=0.0, right=0.0) / c


def mean_h(model) -> float:
    """E[H], exact for every kind: a tabulated density is linear per cell."""
    kind = model.kind
    if isinstance(kind, Exponential):
        return 1.0 / kind.rate
    if model.is_discrete:
        return math.fsum(h * a for h, a in zip(kind.gains, kind.probs))
    h, a = kind.grid, kind.density
    return math.fsum((h1 - h0) * (a0 * (2.0 * h0 + h1) + a1 * (h0 + 2.0 * h1)) / 6.0
                     for h0, h1, a0, a1 in zip(h, h[1:], a, a[1:]))


# -- independent oracles -------------------------------------------------------


def oracle_x_samples(model, n_points: int):
    """Dense x-grid and density values covering the model's support."""
    if model.is_discrete:
        raise ValueError("oracle grids are for continuous models")
    if isinstance(model.kind, Exponential):
        nu = model.kind.rate / model.alpha_over_sigma2
        lo, hi = 0.0, 80.0 / nu
    else:
        lo, hi = (model.alpha_over_sigma2 * h for h in (model.kind.grid[0], model.kind.grid[-1]))
    x = np.linspace(max(lo, 1e-12), hi, n_points)
    return x, pdf_x(model, x)


def oracle_power_integral(model, lam: float, n_points: int = 400_001) -> float:
    """Trapezoid evaluation of E[(1/lam - 1/X)^+] for continuous models.

    The grid is logarithmic in x so the 1/x factor stays resolved when
    lam sits orders of magnitude below the support's top.
    """
    if model.is_discrete:
        x, a = discrete_x_states(model)
        mask = x > lam
        return float(np.sum(a[mask] * (1.0 / lam - 1.0 / x[mask])))
    xg, _ = oracle_x_samples(model, 3)
    hi = xg[-1]
    if lam >= hi:
        return 0.0
    x = np.geomspace(lam, hi, n_points)
    return float(np.trapezoid((1.0 / lam - 1.0 / x) * pdf_x(model, x), x))


def oracle_rate_integral(model, lam: float, n_points: int = 400_001) -> float:
    """Trapezoid evaluation of E[log(X/lam)^+] for continuous models."""
    if model.is_discrete:
        x, a = discrete_x_states(model)
        mask = x > lam
        return float(np.sum(a[mask] * np.log(x[mask] / lam)))
    xg, _ = oracle_x_samples(model, 3)
    hi = xg[-1]
    if lam >= hi:
        return 0.0
    x = np.geomspace(lam, hi, n_points)
    return float(np.trapezoid(np.log(x / lam) * pdf_x(model, x), x))


def oracle_cell_integrals(model, lam: float):
    """(E[(1/lam - 1/X)^+], E[log(X/lam)^+]) of a tabulated model, cell by cell.

    Each x-cell above ``lam`` (the density is linear there) is integrated
    with `scipy.integrate.quad` at ``epsabs=0, epsrel=1e-13`` in the offset
    u = x - lam, so the weights u/(lam*(lam + u)) and log1p(u/lam) keep
    their digits near lam, and the cells are summed with `math.fsum`.
    Only the model's grid, density and scale are read.
    """
    c = model.alpha_over_sigma2
    xs = [c * h for h in model.kind.grid]
    fs = [a / c for a in model.kind.density]
    power, rate = [], []
    for a, b, fa, fb in zip(xs, xs[1:], fs, fs[1:]):
        if b <= lam:
            continue
        def f(u, a=a, b=b, fa=fa, fb=fb):  # the density at x = lam + u
            return (fa * ((b - lam) - u) + fb * ((lam - a) + u)) / (b - a)
        lo, hi = max(a - lam, 0.0), b - lam
        power.append(quad(lambda u: u / (lam * (lam + u)) * f(u), lo, hi, epsabs=0, epsrel=1e-13)[0])
        rate.append(quad(lambda u: math.log1p(u / lam) * f(u), lo, hi, epsabs=0, epsrel=1e-13)[0])
    return math.fsum(power), math.fsum(rate)


def oracle_cell_mass(model, lam: float) -> float:
    """P(X > lam) of a tabulated model: `quad` on each x-cell above ``lam``, summed with `math.fsum`."""
    c = model.alpha_over_sigma2
    xs = [c * h for h in model.kind.grid]
    fs = [a / c for a in model.kind.density]
    parts = []
    for a, b, fa, fb in zip(xs, xs[1:], fs, fs[1:]):
        if b <= lam:
            continue
        def f(x, a=a, b=b, fa=fa, fb=fb):
            return (fa * (b - x) + fb * (x - a)) / (b - a)
        parts.append(quad(f, max(a, lam), b, epsabs=0, epsrel=1e-13)[0])
    return math.fsum(parts)


def oracle_stationary_residuals(model, eta: float, lams, step: float = 1e-3):
    """Oracle R = rate - eta*lam*power around sorted roots ``lams`` of a tabulated model.

    Returns R at ``lams[0]/(1 + step)``, at the geometric midpoint of each
    pair of consecutive roots and at ``lams[-1]*(1 + step)``, all from
    `oracle_cell_integrals`.  At a complete, simple root set the signs
    alternate, starting positive.
    """
    probes = [lams[0] / (1.0 + step)]
    probes += [math.sqrt(a * b) for a, b in zip(lams, lams[1:])]
    probes.append(lams[-1] * (1.0 + step))
    out = []
    for lam in probes:
        power, rate = oracle_cell_integrals(model, lam)
        out.append(rate - eta * lam * power)
    return out


def bracketed_brentq(func, start: float) -> float:
    """The root of ``func``, positive below it and not above, by scipy's brentq.

    The bracket [start/2, start] halves down until ``func`` is positive at
    its low end, then doubles up until it is not positive at its high end.
    """
    lo, hi = 0.5 * start, start
    while func(lo) <= 0.0:
        lo, hi = 0.5 * lo, lo
    while func(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    return brentq(func, lo, hi, xtol=1e-30, rtol=1e-15)


def oracle_waterfill_lambda(model, pi: float, n_points: int = 400_001) -> float:
    """Bisection on the trapezoid power integral, to 1e-12 relative."""
    lo, hi = 1e-9, 1e9
    for _ in range(300):
        mid = np.sqrt(lo * hi)
        if oracle_power_integral(model, mid, n_points) > pi:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * mid:
            break
    return float(0.5 * (lo + hi))


def bisect_scalar(func, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Plain bisection; ``func`` must change sign on [lo, hi]."""
    f_lo = func(lo)
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        f_mid = func(mid)
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
        if hi - lo <= tol * max(abs(mid), 1.0):
            break
    return 0.5 * (lo + hi)


def oracle_discrete_waterfill(model, pi: float):
    """(Gamma, lam) of a discrete model at normalized power ``pi``.

    Bisection in the best-state allocation s = 1/lam - 1/x_1: state i
    gets u_i = (s + 1/x_1 - 1/x_i)^+, and the spent power sum a_i*u_i
    lies between a_1*s and s, so [pi*(1-1e-9), 2*pi/a_1] brackets the
    root.  Halving stops when the midpoint equals an endpoint; then
    Gamma = sum a_i*log1p(x_i*u_i).  Every quantity is built by addition
    (exactly rounded sums), so no digits cancel when pi is many orders
    below the gains.
    """
    x, a = (v.tolist() for v in discrete_x_states(model))
    offsets = [1.0 / x[0] - 1.0 / xi for xi in x]

    def spent(s):
        return math.fsum(ai * (s + oi) for ai, oi in zip(a, offsets) if s + oi > 0)

    lo, hi = pi * (1.0 - 1e-9), 2.0 * pi / a[0]
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if spent(mid) > pi:
            hi = mid
        else:
            lo = mid
    gamma = math.fsum(
        ai * math.log1p(xi * (mid + oi)) for ai, xi, oi in zip(a, x, offsets) if mid + oi > 0
    )
    return gamma, 1.0 / (mid + 1.0 / x[0])


def oracle_discrete_psi(model, eta: float, pt_prime: float, d: float) -> float:
    """d * Gamma(pt'/d**eta) for a discrete model, in nats x meters."""
    gamma, _ = oracle_discrete_waterfill(model, pt_prime / d**eta)
    return d * gamma


def oracle_discrete_psi_argmax(model, eta: float, pt_prime: float):
    """(d, psi) at the maximum of psi over a dense log grid of d.

    A 401-point log grid over d in [1e-2, 1e2] locates the peak; a
    401-point log grid spanning the two coarse cells around it (relative
    spacing about 1.2e-4) gives the returned argmax.
    """
    def argmax_on(ds):
        psis = np.array([oracle_discrete_psi(model, eta, pt_prime, d) for d in ds])
        k = int(np.argmax(psis))
        return k, float(ds[k]), float(psis[k])

    coarse = np.geomspace(1e-2, 1e2, 401)
    k, _, _ = argmax_on(coarse)
    fine = np.geomspace(coarse[max(k - 1, 0)], coarse[min(k + 1, coarse.size - 1)], 401)
    _, d_best, psi_best = argmax_on(fine)
    return d_best, psi_best


# -- the paper's claims ----------------------------------------------------------


def psi(problem, d: float) -> float:
    """The objective d * Gamma(pt'/d**eta), nats x meters per use."""
    gamma, _ = waterfill.gamma_and_lambda(problem.model, problem.pt_prime / d**problem.eta)
    return d * gamma


def stationary_residual(problem, pi: float) -> float:
    """Gamma(pi) - eta*pi*lam(pi), the d-derivative of psi at pi(d)."""
    gamma, lam = waterfill.gamma_and_lambda(problem.model, pi)
    return gamma - problem.eta * pi * lam


def _density_top(model) -> int:
    """Index of the top of a tabulated support: the first node with no mass above it."""
    density = model.kind.density
    last = max(j for j, v in enumerate(density) if v > 0.0)
    return min(last + 1, len(density) - 1)


def stationarity_weight(y, eta: float):
    """The sign-switching factor log(y) - eta*(y - 1) of the y-domain integrand; 0 at y = 1."""
    return np.log(y) - eta * (y - 1.0)


_GAUSS_LEGENDRE_24 = np.polynomial.legendre.leggauss(24)
# exp(-nu*x) underflows to 0 past nu*x = 745
_EXP_UNDERFLOW = 745.0


def rechar_integral(model, lam: float, eta: float) -> float:
    """integral_0^1 (log y - eta*(y-1)) * (lam^2/y^2) * f(lam/y) dy, in the units of X = c*H.

    With y = lam/x it is -lam*(rate - eta*lam*power).  A density is
    integrated from the top of its support (x = 745/nu for exponential
    fading) to y = min(1, lam/x_0), one 24-point Gauss-Legendre rule per
    cell, the cells ending at the kinks y = lam/x_i and at every halving of
    y; a pmf gives the sum lam * sum over x_i > lam of a_i*w(lam/x_i).
    """
    c = model.alpha_over_sigma2
    if model.is_discrete:
        terms = [a * stationarity_weight(y, eta)
                 for h, a in zip(model.kind.gains, model.kind.probs) if (y := lam / (c * h)) < 1.0]
        return lam * math.fsum(terms)
    lam_h = lam / c
    if isinstance(model.kind, Exponential):
        h_lo, h_top = 0.0, _EXP_UNDERFLOW / model.kind.rate
        kinks = np.empty(0)
    else:
        grid, top = model.kind.grid, _density_top(model)
        h_lo, h_top = grid[0], grid[top]
        kinks = lam_h / np.array(grid[1:top])
    y_lo = lam_h / h_top
    y_hi = min(1.0, lam_h / h_lo) if h_lo > 0.0 else 1.0
    if y_hi <= y_lo:
        return 0.0
    halvings = y_hi * 0.5 ** np.arange(1, math.ceil(math.log2(y_hi / y_lo)))
    inner = np.concatenate((kinks, halvings))
    edges = np.unique(np.concatenate(([y_lo, y_hi], inner[(inner > y_lo) & (inner < y_hi)])))
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)
    nodes, weights = _GAUSS_LEGENDRE_24
    ys = 0.5 * (a + b)[:, None] + half[:, None] * nodes[None, :]
    cells = half[:, None] * weights[None, :]
    integrand = stationarity_weight(ys, eta) * (lam**2 / ys**2) * pdf_x(model, lam / ys)
    return float(np.sum(cells * integrand))


def rechar_roots(model, eta: float, points: int = 400) -> list:
    """Every root in lam of `rechar_integral`, ascending: one per sign change on a log scan.

    The scan takes ``points`` values of u = nu*lam in [1e-6, 1e2] for
    exponential fading; otherwise from 1e-3 of the lowest positive node
    (at least 1e-9 of the top) to just below the top of the support, above
    which the integral is 0.  Each sign change is refined by `brentq`
    with the package's tolerances; a zero on the scan is a root itself.
    """
    c = model.alpha_over_sigma2
    if isinstance(model.kind, Exponential):
        lams = c / model.kind.rate * np.geomspace(1e-6, 1e2, points)
    else:
        nodes = (model.kind.gains[::-1] if model.is_discrete
                 else model.kind.grid[: _density_top(model) + 1])
        lo, top = nodes[0], nodes[-1]
        lams = c * np.geomspace(max(lo, top * 1e-9) * 1e-3, top * (1 - 1e-9), points)
    integral = lambda lam: rechar_integral(model, lam, eta)
    lams = lams.tolist()
    values = [integral(lam) for lam in lams]
    roots = []
    for u, v, fu, fv in zip(lams, lams[1:], values, values[1:]):
        if fv == 0.0:
            roots.append(v)
        elif fu * fv < 0.0:
            roots.append(brentq(integral, u, v, xtol=1e-30, rtol=1e-15))
    return roots


class ScalingCheck(NamedTuple):
    """Observed ratios when the power budget is scaled by a factor."""

    d_ratio: float
    psi_ratio: float
    gamma_opt_delta: float


def scaling_check(problem, factor: float) -> ScalingCheck:
    """Re-solve with the power budget scaled by ``factor``.

    Returns the observed (d_opt ratio, psi_opt ratio, |Gamma_opt change|);
    the paper's law expects factor**(1/eta), factor**(1/eta) and 0.
    """
    base = hopopt.stationary_points(problem).maximizer
    scaled = hopopt.stationary_points(
        hopopt.HopProblem(problem.model, problem.eta, factor * problem.pt_prime)).maximizer
    return ScalingCheck(
        d_ratio=scaled.d / base.d,
        psi_ratio=scaled.psi / base.psi,
        gamma_opt_delta=abs(scaled.gamma - base.gamma),
    )


def tail_decay_check(model) -> bool:
    """True when h**2 * P(H > h) does not rise past the 99th percentile.

    Exponential and finite discrete models pass; a tabulated model is
    tested on a 50-point log grid from its 99th percentile to its last node.
    """
    if not isinstance(model.kind, TabulatedDensity):
        return True
    g, a = np.array(model.kind.grid), np.array(model.kind.density)
    cells = 0.5 * (a[1:] + a[:-1]) * np.diff(g)
    mass = np.append(np.cumsum(cells[::-1])[::-1], 0.0)  # P(H > g_j)
    surv = mass / mass[0]
    q99 = g[min(int(np.searchsorted(1.0 - surv, 0.99)), g.size - 1)]
    if q99 <= 0 or q99 >= g[-1]:
        return True
    hs = np.geomspace(q99, g[-1], 50)
    t = hs**2 * np.interp(hs, g, surv)
    slack = 1e-9 * max(float(t.max()), 1e-300)
    return bool(np.all(np.diff(t) <= slack))


class BoundaryLimits(NamedTuple):
    """Decay verdicts at d -> 0 and d -> inf; None marks a skipped side."""

    zero_ok: bool | None
    infinity_ok: bool | None


def boundary_limits(problem, decades: int = 6) -> BoundaryLimits:
    """Check psi -> 0 along d_opt * 10**(+-k), k = 1..decades.

    Each side requires monotone decay ending below 1e-3 of the peak.  The
    d -> 0 side needs a finite mean gain, which every kind here has; the
    d -> inf side also needs eta >= 2 and `tail_decay_check`, and is
    skipped (None) without them.
    """
    best = hopopt.stationary_points(problem).maximizer

    def decays(ds) -> bool:
        vals = np.array([psi(problem, d) for d in ds.tolist()])
        return bool(np.all(np.diff(vals) <= 0.0) and vals[-1] < 1e-3 * best.psi)

    ks = np.arange(1, decades + 1, dtype=float)
    inf_applicable = problem.eta >= 2 and tail_decay_check(problem.model)
    return BoundaryLimits(
        zero_ok=decays(best.d * 10.0**-ks),
        infinity_ok=decays(best.d * 10.0**ks) if inf_applicable else None,
    )


def swap_energies(h1: float, h2: float, p1: float, p2: float):
    """(energy, swapped energy, swapped p1) of one bit per state, before and after the swap.

    The states exchange rates, h1*p1 <-> h2*p2, so the total time is kept;
    with h1 > h2 and h1*p1 < h2*p2 the swap strictly lowers the energy.
    """
    t1, t2 = 1.0 / math.log2(1.0 + h1 * p1), 1.0 / math.log2(1.0 + h2 * p2)
    p1_swapped, p2_swapped = h2 * p2 / h1, h1 * p1 / h2
    # state 1 now runs at the old state-2 rate, so for t2, and vice versa
    return p1 * t1 + p2 * t2, p1_swapped * t2 + p2_swapped * t1, p1_swapped


# -- simulator references -------------------------------------------------------


def reference_periods(config, chunk=None):
    """(kinds, durations, energies, bits) of every period of a simulator run, in trace order.

    Draws in the documented order, one call each: the period-type counts
    by ``rng.multinomial``, then a discrete model's state counts by another
    or all the successes' fades by one ``sample_h`` call; then, from the
    order's stream ``PCG64(seed).jumped()``, each chunk's counts by
    ``multivariate_hypergeometric`` and a shuffle of its codes.  ``chunk``
    is ``simulator._CHUNK`` unless given.  Arrays span the whole horizon;
    only a continuous model's sampler and the policy's power come from
    hopcap.
    """
    from hopcap import simulator

    chunk = chunk or simulator._CHUNK
    prof = config.profile
    rng = make_rng(config.seed)
    p = np.array([prof.p_idle, prof.p_collision, prof.p_success])
    colors = rng.multinomial(config.horizon, p / math.fsum(p))
    n = int(colors[2])
    if config.model.is_discrete:
        gains, probs = (np.array(column) for column in config.model.kind)
        colors = np.concatenate([colors[:2], rng.multinomial(n, probs / math.fsum(probs))])
    elif n:
        h = config.model.sample_h(rng, n)
    order = np.random.Generator(np.random.PCG64(config.seed).jumped())
    codes = []
    for start in range(0, config.horizon, chunk):
        counts = order.multivariate_hypergeometric(colors, min(chunk, config.horizon - start))
        colors = colors - counts
        codes.append(np.repeat(np.arange(counts.size), counts))
        order.shuffle(codes[-1])
    codes = np.concatenate(codes)
    kinds = np.minimum(codes, 2)
    success = kinds == 2
    durations = np.where(kinds == 0, prof.t_idle, np.where(kinds == 1, prof.t_collision, 0.0))
    energies = np.where(kinds == 0, prof.e_idle, np.where(kinds == 1, prof.e_collision, 0.0))
    bits = np.zeros(config.horizon)
    if n:
        if config.model.is_discrete:
            h = gains[codes[success] - 2]
        loss = config.d**config.eta
        p = config.policy.power(h, loss)
        rate = np.log1p(config.model.alpha_over_sigma2 * h * p / loss)
        occupancy = np.full(n, prof.t_overhead + prof.t_txop)
        if config.relinquish_overhead is not None:
            occupancy[p == 0.0] = prof.t_overhead + config.relinquish_overhead
        durations[success] = occupancy
        energies[success] = prof.e_overhead + prof.t_txop * p
        bits[success] = prof.t_txop * prof.bandwidth * rate / math.log(2.0)
    return kinds, durations, energies, bits


def reference_tabulated_draws(model, rng, size):
    """Draws of a tabulated model by a plain ``searchsorted`` inversion of its CDF.

    One uniform per draw, located by binary search over the whole CDF; the
    per-cell arithmetic is that of the exact inversion `sample_h` documents,
    written out on gathered arrays.
    """
    g, a = np.array(model.kind.grid), np.array(model.kind.density)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (a[1:] + a[:-1]) * np.diff(g))))
    total = cdf[-1]
    cdf /= total
    u = rng.random(size)
    j = np.searchsorted(cdf, u, side="right") - 1
    w = (u - cdf[j]) * total
    width = g[j + 1] - g[j]
    k = (a[j + 1] - a[j]) / width
    root = a[j] + np.sqrt(np.maximum(a[j] * a[j] + 2.0 * k * w, 0.0))
    s = np.divide(2.0 * w, root, out=np.zeros_like(w), where=root > 0.0)
    return g[j] + np.minimum(s, width)


def reference_trace(path, kinds, durations, energies, bits):
    """The per-period trace CSV, one `csv.writer` row per period, cells as %.17g."""
    names = ["idle", "collision", "success"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["period_type", "duration_s", "energy_J", "bits"])
        for k, t, e, b in zip(kinds.tolist(), durations.tolist(), energies.tolist(), bits.tolist()):
            writer.writerow([names[k], "%.17g" % t, "%.17g" % e, "%.17g" % b])


def oracle_ratio_estimate(numerators, durations):
    """(sum(numerators)/sum(durations), its delta-method 95% half-width).

    Two passes over whole arrays: the ratio, then the sum of squares of
    ``numerators - ratio*durations`` divided by n - 1.
    """
    n = numerators.size
    ratio = float(numerators.sum() / durations.sum())
    if n < 2:
        return ratio, 0.0
    centred = numerators - ratio * durations
    var = float(np.dot(centred, centred)) / (n - 1)
    return ratio, float(ndtri(0.975)) * math.sqrt(var / n) / float(durations.mean())


def _dyadic(values):
    """``(integers, shift)`` with ``values[i] == integers[i] / 2**shift`` exactly."""
    mantissas, exponents = np.frexp(np.asarray(values, dtype=float))
    mantissas = (mantissas * 2.0**53).astype(np.int64).tolist()
    exponents = (exponents - 53).tolist()
    low = min(exponents, default=0)
    return [m << (e - low) for m, e in zip(mantissas, exponents)], -low


def exact_ratio_ci(numerators, durations, factor):
    """``factor`` times the delta-method standard error of sum(numerators)/sum(durations), exactly.

    Every sum is one of exact rationals: with the exact ratio ``r = P/Q``,
    the residuals ``y - r*t`` are ``(Q*y - P*t)/Q`` and their sum of
    squares an integer over a power of two and ``Q**2``.  Only the square
    root is taken in floating point, by mpmath at 60 digits, and the result
    rounded once to a float.  ``durations`` must not sum to 0.
    """
    import mpmath

    n = len(durations)
    if n < 2:
        return 0.0
    # one scale for both columns, so that Q*y - P*t is an integer
    ints, shift = _dyadic(np.concatenate([numerators, durations]))
    y, t = ints[:n], ints[n:]
    p, q = sum(y), sum(t)
    ss = sum((q * a - p * b) ** 2 for a, b in zip(y, t))  # over q**2 * 2**(2*shift)
    with mpmath.workdps(60):
        # sqrt(ss / ((n - 1) * n)) over the mean duration q / n; the scales 2**shift cancel
        se = mpmath.sqrt(mpmath.mpf(ss) / ((n - 1) * n)) * n / (mpmath.mpf(q) * q)
        return float(mpmath.mpf(factor) * se)
