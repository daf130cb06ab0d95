"""Seeded inputs and the operation list of each benchmark workload.

Every config, tabulated CSV and discrete state set is generated from the
workload seed, so the same seed always gives byte-identical input files.
An operation is one ``hopcap`` invocation (argv without the interpreter)
plus what the reference check needs to judge its output.  See README.md
for why each workload exists and what it predicts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

WORKLOADS = ("design", "curve", "montecarlo")

# the README's MAC profile and sweep grid (600 points x three power levels)
MAC = {
    "p_idle": 0.6,
    "p_collision": 0.1,
    "p_success": 0.3,
    "T_idle_s": 2.0e-5,
    "T_collision_s": 3.0e-4,
    "T_overhead_s": 2.0e-4,
    "T_txop_s": 2.0e-3,
    "W_hz": 1.0e6,
    "E_idle_J": 1.0e-6,
    "E_collision_J": 3.0e-5,
    "E_overhead_J": 5.0e-5,
}
SWEEP = {"d_min_m": 0.05, "d_max_m": 50.0, "points": 600, "power_factors": [1.0, 4.0, 9.0]}

SIM_HORIZON = 10_000_000
TRACE_HORIZON = 1_000_000


@dataclass(frozen=True)
class Model:
    """A fading model as the reference check sees it (no hopcap objects)."""

    name: str
    kind: str  # exponential | discrete | tabulated
    eta: float
    pt_prime: float
    scale: float = 1.0  # alpha_over_sigma2
    rate: float | None = None
    gains: tuple = ()
    probs: tuple = ()
    grid: tuple = ()
    density: tuple = ()


@dataclass(frozen=True)
class Op:
    """One hopcap invocation and the facts its check needs."""

    label: str
    command: str
    model: Model
    argv: tuple
    out: str | None = None  # output file written via --out
    trace_out: str | None = None  # per-period CSV written via --trace
    pi: float | None = None  # waterfill --pi
    sweep: dict | None = None  # sweep section
    sim: dict | None = None  # simulate section
    units: int = 1  # work this op contributes to the workload's throughput


@dataclass
class Inputs:
    ops: list
    warmup: Op
    sha256: dict  # input file name -> SHA-256 hex digest


def _loguniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _discrete_states(rng, n):
    """n well-separated gains in [1e-2, 1e3] with probabilities >= 1e-3."""
    while True:
        gains = np.sort(np.exp(rng.uniform(np.log(1e-2), np.log(1e3), n)))[::-1]
        if np.min(gains[:-1] / gains[1:]) > 1.05:
            break
    while True:
        probs = rng.dirichlet(np.ones(n))
        if probs.min() > 1e-3:
            break
    probs[-1] = 1.0 - probs[:-1].sum()
    return tuple(float(g) for g in gains), tuple(float(p) for p in probs)


def _tabulated(kind, rng, nodes):
    """Piecewise-linear density on ``nodes`` points, normalised by trapezoid.

    ``exp``: truncated exp(-mu*h) on [0, 12/mu]; ``gamma``: h**(m-1)*exp(-m*h)
    on [0, 12], a Nakagami-like shape that vanishes at h = 0.
    """
    if kind == "exp":
        mu = _loguniform(rng, 0.8, 1.25)
        h = np.linspace(0.0, 12.0 / mu, nodes)
        a = np.exp(-mu * h)
    else:
        m = rng.uniform(1.5, 3.0)
        h = np.linspace(0.0, 12.0, nodes)
        a = h ** (m - 1.0) * np.exp(-m * h)
    a = a / np.trapezoid(a, h)
    return tuple(float(v) for v in h), tuple(float(v) for v in a)


def models(seed: int) -> dict:
    """The benchmark's model set; every workload draws from the same one."""
    rng = np.random.Generator(np.random.PCG64([seed, 0x686F70]))
    pt = lambda: _loguniform(rng, 0.5, 2.0)
    out = [
        Model("exp_a1_eta2", "exponential", 2.0, pt(), scale=1.0, rate=1.0),
        Model("exp_a10_eta3", "exponential", 3.0, pt(), scale=10.0, rate=1.0),
        Model("two_state", "discrete", 3.0, pt(), gains=(100.0, 0.5), probs=(0.01, 0.99)),
    ]
    gains, probs = _discrete_states(rng, 12)
    out.append(Model("discrete12", "discrete", 3.0, pt(), gains=gains, probs=probs))
    grid, dens = _tabulated("exp", rng, 41)
    out.append(Model("tab41", "tabulated", 2.0, pt(), grid=grid, density=dens))
    grid, dens = _tabulated("gamma", rng, 801)
    out.append(Model("tab801", "tabulated", 3.0, pt(), grid=grid, density=dens))
    return {m.name: m for m in out}


def _write_config(model: Model, directory: Path, stem=None, sweep=None, simulate=None) -> Path:
    fading = {"kind": model.kind, "alpha_over_sigma2": model.scale}
    if model.kind == "exponential":
        fading["rate"] = model.rate
    elif model.kind == "discrete":
        fading["states"] = [{"gain": g, "prob": p} for g, p in zip(model.gains, model.probs)]
    else:
        csv_path = directory / f"{model.name}.csv"
        if not csv_path.exists():
            lines = ["h,a"] + [f"{h!r},{a!r}" for h, a in zip(model.grid, model.density)]
            csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        fading["csv"] = csv_path.name
    doc = {
        "schema_version": 1,
        "fading": fading,
        "eta": model.eta,
        "power": {"Pt_prime_W": model.pt_prime},
        "mac": MAC,
    }
    if sweep is not None:
        doc["sweep"] = sweep
    if simulate is not None:
        doc["simulate"] = simulate
    path = directory / f"{stem or model.name}.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    return path


def generate(workload: str, seed: int, directory: Path) -> Inputs:
    """Write the workload's inputs into the empty ``directory`` and list its ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    directory.mkdir(parents=True, exist_ok=True)
    ms = models(seed)
    rng = np.random.Generator(np.random.PCG64([seed, 0x6F7073]))
    ops = []
    out = lambda name: str(directory / name)
    if workload == "design":
        for m in ms.values():
            cfg = str(_write_config(m, directory))
            pi = _loguniform(rng, 0.1, 10.0)
            ops += [
                Op(f"optimize:{m.name}", "optimize", m, ("optimize", "--config", cfg)),
                Op(f"stationary-points:{m.name}", "stationary-points", m,
                   ("stationary-points", "--config", cfg, "--out", out(f"{m.name}.points.csv")),
                   out=out(f"{m.name}.points.csv")),
                Op(f"waterfill:{m.name}", "waterfill", m,
                   ("waterfill", "--config", cfg, "--pi", repr(pi)), pi=pi),
            ]
    elif workload == "curve":
        # the README's three curves, then the other two models.  The 801-node
        # tabulated sweep takes power factor 1 only: at three factors it alone
        # would run about 17 s, too long to repeat within one run
        for name in ("exp_a1_eta2", "two_state", "tab801", "exp_a10_eta3", "discrete12"):
            m = ms[name]
            sweep = dict(SWEEP, power_factors=[1.0]) if m.kind == "tabulated" else SWEEP
            cfg = str(_write_config(m, directory, sweep=sweep))
            ops.append(Op(f"sweep:{name}", "sweep", m,
                          ("sweep", "--config", cfg, "--out", out(f"{name}.sweep.csv")),
                          out=out(f"{name}.sweep.csv"), sweep=sweep,
                          units=sweep["points"] * len(sweep["power_factors"])))
    else:
        runs = [
            ("two_state", 0.3233, "waterfill", SIM_HORIZON, False),
            ("exp_a1_eta2", 0.7, "waterfill", SIM_HORIZON, False),
            ("tab41", 1.0, "constant", SIM_HORIZON, False),
            ("two_state", 0.3233, "waterfill", TRACE_HORIZON, True),
            # the same run without --trace: the pair isolates trace-write time
            ("two_state", 0.3233, "waterfill", TRACE_HORIZON, False),
        ]
        sim_seed = int(rng.integers(0, 2**31 - 1))
        for name, d, policy, horizon, traced in runs:
            m = ms[name]
            sim = {"d_m": d, "horizon": horizon, "seed": sim_seed, "policy": policy}
            if policy == "constant":
                sim["constant_power_W"] = 1.0
            tag = f"{name}_{policy}_{horizon // 1_000_000}M" + ("_trace" if traced else "")
            cfg = str(_write_config(m, directory, stem=tag, simulate=sim))
            argv = ["simulate", "--config", cfg, "--out", out(f"{tag}.json")]
            trace_out = out(f"{tag}.periods.csv") if traced else None
            if traced:
                argv += ["--trace", trace_out]
            ops.append(Op(f"simulate:{tag}", "simulate", m, tuple(argv),
                          out=out(f"{tag}.json"), trace_out=trace_out, sim=sim, units=horizon))
    first = ops[0].model
    warm_cfg = str(_write_config(first, directory, stem="warmup"))
    warmup = Op("warmup", "waterfill", first, ("waterfill", "--config", warm_cfg, "--pi", "1.0"),
                pi=1.0)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}
    return Inputs(ops, warmup, digests)
