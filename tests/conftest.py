"""Shared factories and independent numerical oracles for the test suite.

The oracles deliberately avoid the production code paths: dense
trapezoid or per-cell adaptive quadrature plus plain bisection, nothing
from `waterfill` or `discrete`.  The simulator references rebuild whole
runs with arrays the length of the horizon and a per-row `csv.writer`.
"""

import csv
import math

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtri

from hopcap.fading import Exponential, FadingModel
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
    from hopcap.waterfill import tails_at

    c = model.alpha_over_sigma2
    mass, power, rate, density = tails_at(model, lam / c)
    return mass, power / c, rate, density / c


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
    return x, model.pdf_x(x)


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
    return float(np.trapezoid((1.0 / lam - 1.0 / x) * model.pdf_x(x), x))


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
    return float(np.trapezoid(np.log(x / lam) * model.pdf_x(x), x))


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


# -- simulator references -------------------------------------------------------


def reference_periods(config):
    """(kinds, durations, energies, bits) of every period of a simulator run.

    Draws in the documented order with one call each: all period types,
    then the fades of all successes.  Arrays span the whole horizon; only
    the model's sampler and the policy's power come from hopcap.
    """
    prof = config.profile
    rng = make_rng(config.seed)
    kinds = rng.choice(3, size=config.horizon, p=[prof.p_idle, prof.p_collision, prof.p_success])
    success = kinds == 2
    durations = np.where(kinds == 0, prof.t_idle, np.where(kinds == 1, prof.t_collision, 0.0))
    energies = np.where(kinds == 0, prof.e_idle, np.where(kinds == 1, prof.e_collision, 0.0))
    bits = np.zeros(config.horizon)
    n = int(success.sum())
    if n:
        h = config.model.sample_h(rng, n)
        p = config.policy.power(h)
        rate = np.log1p(config.model.alpha_over_sigma2 * h * p / config.d**config.eta)
        occupancy = np.full(n, prof.t_overhead + prof.t_txop)
        if config.relinquish_overhead is not None:
            occupancy[p == 0.0] = prof.t_overhead + config.relinquish_overhead
        durations[success] = occupancy
        energies[success] = prof.e_overhead + prof.t_txop * p
        bits[success] = prof.t_txop * prof.bandwidth * rate / math.log(2.0)
    return kinds, durations, energies, bits


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
