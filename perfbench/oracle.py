"""Reference values and output checks, independent of hopcap's solvers.

Nothing here imports hopcap.  Each fading kind gets the two water-fill
integrals over X = (alpha/sigma^2) * H, evaluated its own way:

- exponential: the exponential-integral closed forms (``scipy.special.exp1``);
- discrete: finite sums over the states;
- tabulated: dense-grid trapezoid quadrature of the piecewise-linear
  density on a logarithmic x-grid, the approach of the test suite's
  oracles, with cumulative sums so many multipliers cost one pass.

The multiplier for a given power is found by plain bisection in log-lam,
and stationary points by a dense log-lam scan of the residual
``Gamma - eta*lam*P`` refined by bisection.  Simulator reports are judged
by renewal arithmetic against their own 95% confidence half-widths.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import exp1

from workloads import MAC

LN2 = math.log(2.0)

# Relative agreement demanded of solver outputs, by fading kind.  The
# tabulated reference is a quadrature, so it only agrees to its own
# discretisation error (about 1e-9 at the grid size below).
RTOL = {"exponential": 1e-9, "discrete": 1e-9, "tabulated": 1e-6}
# Scale below which a value counts as zero when comparing relatively.
ATOL = 1e-12
# A simulated rate or power passes when it lies within this many 95%
# confidence half-widths of the renewal value (2.5 half-widths = 4.9 SE).
SIM_TOL_CI95 = 2.5
# pi window scanned for stationary points of continuous models; the same
# [1e-8, 1e8] range hopcap documents for its stationary-point scan.
PI_WINDOW = (1e-8, 1e8)
# The one known miss (see KnownRed): the rate estimate of this op, above the
# renewal value by more than SIM_TOL_CI95 but by less than this many CI95
# half-widths.  Any other miss, or a larger one, counts as failed.
KNOWN_RED_OP = "simulate:tab41_constant_10M"
KNOWN_RED_MAX_CI95 = 12.0

_TAB_GRID_POINTS = 1 << 17
_SCAN_POINTS = 20_001
_BISECT_STEPS = 200


class ExponentialRef:
    """Closed forms for X ~ exponential with rate nu = rate / scale."""

    def __init__(self, rate: float, scale: float):
        self.nu = rate / scale
        self.lam_bounds = (1e-20 / self.nu, 800.0 / self.nu)

    def power(self, lam):
        u = self.nu * np.asarray(lam, dtype=float)
        return np.exp(-u) / lam - self.nu * exp1(u)

    def rate(self, lam):
        return exp1(self.nu * np.asarray(lam, dtype=float))

    def residual(self, lam, eta):
        return self.rate(lam) - eta * lam * self.power(lam)

    def mean_log1p(self, k: float) -> float:
        """E[log(1 + k X)] = exp(nu/k) * E1(nu/k)."""
        z = self.nu / k
        return float(math.exp(z) * exp1(z))


class DiscreteRef:
    """Finite sums over states x_i = scale * gain_i with probabilities a_i."""

    def __init__(self, gains, probs, scale: float):
        self.x = scale * np.asarray(gains, dtype=float)
        self.a = np.asarray(probs, dtype=float)
        self.lam_bounds = (1e-20 * self.x.min(), self.x.max())

    def _terms(self, lam):
        lam = np.asarray(lam, dtype=float)[..., None]
        return lam, self.x > lam

    def power(self, lam):
        lam, on = self._terms(lam)
        return np.sum(np.where(on, self.a * (1.0 / lam - 1.0 / self.x), 0.0), axis=-1)

    def rate(self, lam):
        lam, on = self._terms(lam)
        return np.sum(np.where(on, self.a * np.log(np.where(on, self.x / lam, 1.0)), 0.0), axis=-1)

    def residual(self, lam, eta):
        # per-state form: each term is exactly zero at lam = x_i
        lam, on = self._terms(lam)
        ratio = np.where(on, self.x / lam, 1.0)
        terms = np.log(ratio) - eta * (1.0 - 1.0 / ratio)
        return np.sum(np.where(on, self.a * terms, 0.0), axis=-1)

    def active(self, lam) -> int:
        return int(np.sum(self.x > lam))

    def mean_log1p(self, k: float) -> float:
        return float(np.sum(self.a * np.log1p(k * self.x)))


class TabulatedRef:
    """Trapezoid quadrature of a piecewise-linear density on a dense log grid.

    Tail sums from the top of the support of f, f/x and f*log(x) give every
    integral over [lam, top] as a tail sum plus one partial cell that starts
    exactly at lam.  Trapezoid sums are linear, so the result is the
    trapezoid rule applied to the full integrand.
    """

    def __init__(self, grid, density, scale: float):
        nodes = scale * np.asarray(grid, dtype=float)
        fvals = np.asarray(density, dtype=float) / scale
        top = nodes[-1]
        bottom = max(nodes[0], top * 1e-12)
        x = np.union1d(np.geomspace(bottom, top, _TAB_GRID_POINTS), nodes[nodes >= bottom])
        self.nodes, self.fvals = nodes, fvals
        self.x = x
        self.f = np.interp(x, nodes, fvals)
        self.lam_bounds = (bottom, top)
        g = np.stack([self.f, self.f / x, self.f * np.log(x)])
        cells = 0.5 * (g[:, 1:] + g[:, :-1]) * np.diff(x)
        tail = np.zeros((3, x.size))
        tail[:, :-1] = np.cumsum(cells[:, ::-1], axis=1)[:, ::-1]
        self._tail = tail

    def _moments(self, lam):
        """(F0, F1, F2) = integrals of f, f/x, f*log x over [lam, top]."""
        lam = np.clip(np.asarray(lam, dtype=float), self.x[0], self.x[-1])
        j = np.searchsorted(self.x, lam, side="right")
        j = np.minimum(j, self.x.size - 1)
        xr = self.x[j]
        fl = np.interp(lam, self.nodes, self.fvals)
        fr = self.f[j]
        width = 0.5 * (xr - lam)
        f0 = self._tail[0][j] + width * (fl + fr)
        f1 = self._tail[1][j] + width * (fl / lam + fr / xr)
        f2 = self._tail[2][j] + width * (fl * np.log(lam) + fr * np.log(xr))
        return lam, f0, f1, f2

    def power(self, lam):
        lam, f0, f1, _ = self._moments(lam)
        return f0 / lam - f1

    def rate(self, lam):
        lam, f0, _, f2 = self._moments(lam)
        return f2 - np.log(lam) * f0

    def residual(self, lam, eta):
        lam, f0, f1, f2 = self._moments(lam)
        return f2 - np.log(lam) * f0 - eta * (f0 - lam * f1)

    def mean_log1p(self, k: float) -> float:
        return float(np.trapezoid(self.f * np.log1p(k * self.x), self.x))


def reference(model):
    """Reference integrals for a ``workloads.Model``."""
    if model.kind == "exponential":
        return ExponentialRef(model.rate, model.scale)
    if model.kind == "discrete":
        return DiscreteRef(model.gains, model.probs, model.scale)
    return TabulatedRef(model.grid, model.density, model.scale)


def _bisect_log(func, lo, hi):
    """Vectorised bisection in log space; func(lo) > 0 >= func(hi) elementwise."""
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    for _ in range(_BISECT_STEPS):
        mid = np.sqrt(lo * hi)
        up = func(mid) > 0.0
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    return np.sqrt(lo * hi)


def lam_of_pi(ref, pis):
    """Multiplier lam with P(lam) = pi, by bisection (P decreases in lam)."""
    pis = np.asarray(pis, dtype=float)
    lo, hi = ref.lam_bounds
    return _bisect_log(lambda lam: ref.power(lam) - pis, np.full(pis.shape, lo), np.full(pis.shape, hi))


@dataclass(frozen=True)
class RefPoint:
    d: float
    pi: float
    lam: float
    gamma: float
    psi: float


def stationary_points(ref, eta: float, pt_prime: float):
    """Interior roots of Gamma - eta*pi*lam, sorted by hop distance."""
    if isinstance(ref, DiscreteRef):
        # r(lam) is convex between consecutive states: split each segment at
        # its minimum lam* = p_k / (eta * alpha_k), then every piece is monotone
        xs = np.sort(ref.x)
        edges = [xs[0] * 1e-12] + list(xs)
        cuts = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            on = ref.x > lo
            star = ref.a[on].sum() / (eta * np.sum(ref.a[on] / ref.x[on]))
            cuts += [lo, star] if lo < star < hi else [lo]
        lams = np.array(cuts + [xs[-1]])
    else:
        lam_lo, lam_hi = lam_of_pi(ref, [PI_WINDOW[1], PI_WINDOW[0]])
        lams = np.geomspace(lam_lo, lam_hi, _SCAN_POINTS)
    vals = ref.residual(lams, eta)
    idx = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
    sign = np.sign(vals[idx])
    roots = _bisect_log(lambda lam: sign * ref.residual(lam, eta), lams[idx], lams[idx + 1])
    points = []
    for lam in roots:
        pi = float(ref.power(lam))
        gamma = float(ref.rate(lam))
        d = (pt_prime / pi) ** (1.0 / eta)
        points.append(RefPoint(d=d, pi=pi, lam=float(lam), gamma=gamma, psi=d * gamma))
    return sorted(points, key=lambda p: p.d)


# -- output checks -------------------------------------------------------------


class CheckError(Exception):
    """An output disagrees with the reference; the message says where."""


class KnownRed(CheckError):
    """A disagreement that is known and kept visible rather than counted as failed.

    The only one: ``FadingModel.sample_h`` inverts a tabulated density's
    piecewise-quadratic CDF linearly, which biases every simulation of a
    tabulated model (ROADMAP item 4).  At 1e7 periods on the 41-node grid the
    rate estimate of ``KNOWN_RED_OP`` sits about 9 CI95 half-widths above the
    renewal value; its power estimate does not depend on the sampler.
    """


def _close(name, got, want, rtol):
    if not abs(got - want) <= rtol * max(abs(want), ATOL):
        raise CheckError(f"{name}: got {got!r}, reference {want!r} (rtol {rtol:g})")


def _key_values(text: str) -> dict:
    out = {}
    for token in text.split():
        key, sep, value = token.partition("=")
        if sep:
            out[key] = value
    return out


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Checker:
    """Judges the outputs of one workload's ops against the references."""

    def __init__(self):
        self._refs = {}
        self._points = {}

    def ref(self, model):
        if model.name not in self._refs:
            self._refs[model.name] = reference(model)
        return self._refs[model.name]

    def points(self, model):
        if model.name not in self._points:
            self._points[model.name] = stationary_points(self.ref(model), model.eta, model.pt_prime)
        return self._points[model.name]

    def check(self, op, stdout: str) -> None:
        """Raise CheckError when op's output misses the reference."""
        getattr(self, "_check_" + op.command.replace("-", "_"))(op, stdout)

    def _check_waterfill(self, op, stdout):
        m, rtol = op.model, RTOL[op.model.kind]
        kv = _key_values(stdout)
        lam = float(lam_of_pi(self.ref(m), [op.pi])[0])
        _close("pi", float(kv["pi"]), op.pi, 1e-15)
        _close("lambda", float(kv["lambda"]), lam, rtol)
        _close("gamma_nats", float(kv["gamma_nats"]), float(self.ref(m).rate(lam)), rtol)
        _close("cutoff_h", float(kv["cutoff_h"]), lam / m.scale, rtol)

    def _check_optimize(self, op, stdout):
        m, rtol = op.model, RTOL[op.model.kind]
        kv = _key_values(stdout)
        pts = self.points(m)
        if int(kv["n_points"]) != len(pts):
            raise CheckError(f"n_points: got {kv['n_points']}, reference {len(pts)}")
        best = max(pts, key=lambda p: p.psi)
        for key, want in (("d_opt_m", best.d), ("pi_opt", best.pi), ("lambda_opt", best.lam),
                          ("gamma_opt", best.gamma), ("psi_opt", best.psi)):
            _close(key, float(kv[key]), want, rtol)
        self._check_unique(m, kv["unique"], len(pts))

    def _check_unique(self, model, flag, count):
        # exponential fading is always certified; a discrete enumeration is
        # exhaustive; a tabulated certificate may decline, but never with >1 root
        want = {"exponential": count == 1, "discrete": count == 1}.get(model.kind)
        got = flag == "true"
        if (want is not None and got != want) or (got and count != 1):
            raise CheckError(f"unique: got {flag} with {count} stationary points")

    def _check_stationary_points(self, op, stdout):
        m, rtol = op.model, RTOL[op.model.kind]
        kv = _key_values(stdout.splitlines()[0])
        pts = self.points(m)
        rows = _read_csv(op.out)
        if int(kv["stationary_points"]) != len(pts) or len(rows) != len(pts):
            raise CheckError(f"count: got {kv['stationary_points']}/{len(rows)} rows, reference {len(pts)}")
        self._check_unique(m, kv["unique"], len(pts))
        for i, (row, p) in enumerate(zip(rows, pts)):
            _close(f"row {i} d_m", float(row["d_m"]), p.d, rtol)
            _close(f"row {i} gamma_nats", float(row["gamma_nats"]), p.gamma, rtol)
            _close(f"row {i} psi", float(row["psi"]), p.psi, rtol)
            if m.kind == "discrete":
                want = str(self.ref(m).active(p.lam))
                if row["segment"] != want:
                    raise CheckError(f"row {i} segment: got {row['segment']}, reference {want}")

    def _check_sweep(self, op, stdout):
        m, rtol = op.model, RTOL[op.model.kind]
        rows = _read_csv(op.out)
        spec = op.sweep
        ds = np.geomspace(spec["d_min_m"], spec["d_max_m"], spec["points"])
        factors = np.repeat(spec["power_factors"], ds.size)
        ds = np.tile(ds, len(spec["power_factors"]))
        if len(rows) != ds.size:
            raise CheckError(f"rows: got {len(rows)}, expected {ds.size}")
        col = lambda key: np.array([float(r[key]) for r in rows])
        pis = factors * m.pt_prime / ds**m.eta
        ref = self.ref(m)
        lams = lam_of_pi(ref, pis)
        want = {"power_factor": (factors, 0.0), "d_m": (ds, 1e-15), "pi": (pis, 1e-13),
                "gamma_nats": (ref.rate(lams), rtol), "psi": (ds * ref.rate(lams), rtol)}
        for key, (ref_vals, tol) in want.items():
            got = col(key)
            bad = np.abs(got - ref_vals) > tol * np.maximum(np.abs(ref_vals), ATOL)
            if bad.any():
                i = int(np.argmax(bad))
                raise CheckError(f"row {i} {key}: got {got[i]!r}, reference {ref_vals[i]!r}")
        if m.kind == "discrete":
            segs = np.array([int(r["segment"]) for r in rows])
            want_segs = np.sum(ref.x[None, :] > lams[:, None], axis=1)
            if np.any(segs != want_segs):
                i = int(np.argmax(segs != want_segs))
                raise CheckError(f"row {i} segment: got {segs[i]}, reference {want_segs[i]}")

    def renewal(self, op):
        """(theta_bps, power_w) from the renewal formulas for a simulate op."""
        m, sim, ref = op.model, op.sim, self.ref(op.model)
        path_gain = sim["d_m"] ** m.eta
        if sim["policy"] == "waterfill":
            pi = m.pt_prime / path_gain
            rate = float(ref.rate(lam_of_pi(ref, [pi])[0]))
            tx_power = m.pt_prime  # E[P(h)] = d**eta * pi
        else:
            tx_power = sim["constant_power_W"]
            rate = ref.mean_log1p(tx_power / path_gain)
        p_i, p_c, p_s = MAC["p_idle"], MAC["p_collision"], MAC["p_success"]
        t_txop = MAC["T_txop_s"]
        cycle = p_i * MAC["T_idle_s"] + p_c * MAC["T_collision_s"] + p_s * (MAC["T_overhead_s"] + t_txop)
        theta = p_s * MAC["W_hz"] * t_txop * rate / LN2 / cycle
        energy = p_i * MAC["E_idle_J"] + p_c * MAC["E_collision_J"] + p_s * (MAC["E_overhead_J"] + t_txop * tx_power)
        return theta, energy / cycle

    def sim_z(self, op, report) -> dict:
        """Distance of each estimate from its renewal value, in CI95 half-widths."""
        theta, power = self.renewal(op)
        return {
            "theta": (report["theta_hat_bps"] - theta) / report["theta_ci95_bps"],
            "power": (report["power_hat_w"] - power) / report["power_ci95_w"]
            if report["power_ci95_w"] > 0 else 0.0,
        }

    def _check_simulate(self, op, stdout):
        report = json.loads(stdout.strip().splitlines()[-1])
        with open(op.out, encoding="utf-8") as fh:
            if json.loads(fh.read()) != report:
                raise CheckError("--out report differs from the printed report")
        counts = report["periods"]
        if sum(counts.values()) != op.sim["horizon"] or report["horizon"] != op.sim["horizon"]:
            raise CheckError(f"period counts {counts} do not sum to the horizon {op.sim['horizon']}")
        if report["seed"] != op.sim["seed"]:
            raise CheckError(f"seed: got {report['seed']}, config {op.sim['seed']}")
        _close("theta_hat_bps", report["theta_hat_bps"],
               report["total_bits"] / report["elapsed_time_s"], 1e-12)
        if op.trace_out:
            _check_trace(op.trace_out, report)
        self._raise_if_outside(op, self.sim_z(op, report))

    @staticmethod
    def _raise_if_outside(op, z):
        misses = {k: v for k, v in z.items() if abs(v) > SIM_TOL_CI95}
        if not misses:
            return
        message = "; ".join(f"{k}: {v:+.2f} CI95 half-widths from the renewal value"
                            for k, v in misses.items()) + f" (tolerance {SIM_TOL_CI95})"
        known = (op.label == KNOWN_RED_OP and list(misses) == ["theta"]
                 and 0.0 < misses["theta"] < KNOWN_RED_MAX_CI95)
        raise (KnownRed if known else CheckError)(message)


def _check_trace(path, report):
    """The per-period trace must re-add to the report's totals."""
    counts = {"idle": 0, "collision": 0, "success": 0}
    sums = [0.0, 0.0, 0.0]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["period_type", "duration_s", "energy_J", "bits"]:
            raise CheckError("trace: unexpected header")
        for kind, duration, energy, bits in reader:
            counts[kind] += 1
            sums[0] += float(duration)
            sums[1] += float(energy)
            sums[2] += float(bits)
    if counts != report["periods"]:
        raise CheckError(f"trace: period counts {counts} differ from the report {report['periods']}")
    _close("trace duration sum", sums[0], report["elapsed_time_s"], 1e-9)
    _close("trace energy sum", sums[1], report["total_energy_j"], 1e-9)
    _close("trace bits sum", sums[2], report["total_bits"], 1e-9)
