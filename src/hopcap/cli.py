"""Command-line front end: subcommands, CSV emission and run manifests.

Exit codes: 0 success, 2 validation/config error, 3 numerical failure.
Every run that writes files also writes ``<out>.manifest.json`` beside
them (config hash, seed, versions, wall time, output hashes) so results
can be reproduced byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import discrete, hopopt, macmodel, simulator, waterfill
from .config import RunConfig, load_config
from .errors import ConfigError, HopcapError, NumericalError, ValidationError
from .macmodel import LN2

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def main(argv=None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.invocation = argv
    try:
        return args.handler(args)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except HopcapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopcap",
        description="Hop-distance and water-pouring optimization for "
        "single-cell multihop networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, config_required=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=config_required, help="YAML run configuration")
        p.add_argument("--out", help="CSV/JSON output path (manifest written beside it)")
        units = p.add_mutually_exclusive_group()
        units.add_argument("--bits", action="store_true", help="report rates in bits")
        units.add_argument("--nats", action="store_true", help="report rates in nats (default)")
        p.set_defaults(handler=handler)
        return p

    p = add("waterfill", _cmd_waterfill, "solve the allocation at one power level")
    p.add_argument("--pi", type=float, required=True, help="normalized power level")

    add("optimize", _cmd_optimize, "find the optimal hop distance")

    p = add("sweep", _cmd_sweep, "tabulate d, Gamma and psi over a hop grid")
    p.add_argument("--grid", help="override sweep grid as d_min:d_max:points")

    add("stationary-points", _cmd_stationary, "enumerate stationary points")

    p = add("simulate", _cmd_simulate, "Monte Carlo saturation-MAC run")
    p.add_argument("--seed", type=int, help="override simulate.seed")
    p.add_argument("--horizon", type=int, help="override simulate.horizon")
    p.add_argument("--trace", help="write a per-period trace CSV")

    p = add("compare-ftt", _cmd_compare_ftt, "fixed-time vs fixed-packet totals",
            config_required=False)
    p.add_argument("--count", type=int, default=100, help="random tuples to draw")
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--h1", type=float)
    p.add_argument("--h2", type=float)
    p.add_argument("--p1", type=float)
    p.add_argument("--p2", type=float)

    add("single-cell-bound", _cmd_single_cell_bound, "spatial-reuse rate cap sweep")
    return parser


# -- commands ---------------------------------------------------------------


def _cmd_waterfill(args) -> int:
    cfg = load_config(args.config)
    started = time.monotonic()
    sol = waterfill.solve(cfg.model, args.pi)
    gamma_out, unit = _rate_out(sol.gamma, args), "bits" if args.bits else "nats"
    print(
        f"pi={_g(sol.pi)} lambda={_g(sol.lam)} gamma_{unit}={_g(gamma_out)} "
        f"cutoff_x={_g(sol.lam)} cutoff_h={_g(sol.cutoff_h)}"
    )
    if args.out:
        header = ["pi", "lambda", f"gamma_{unit}", "cutoff_x", "cutoff_h"]
        rows = [(sol.pi, sol.lam, gamma_out, sol.lam, sol.cutoff_h)]
        _write_csv(args.out, header, rows)
        _write_manifest(args, started, outputs=[args.out])
    return EXIT_OK


def _cmd_optimize(args) -> int:
    cfg = load_config(args.config)
    started = time.monotonic()
    problem = _problem(cfg)
    sset = hopopt.stationary_points(problem)
    unit = "bits" if args.bits else "nats"
    rows = [
        (pt.d, pt.pi, pt.lam, _rate_out(pt.gamma, args), _rate_out(pt.psi, args))
        for pt in sset.points
    ]
    summary = _optimize_summary(cfg, sset, args)
    for key, value in summary.items():
        print(f"{key}={value if not isinstance(value, float) else _g(value)}")
    if args.out:
        _write_csv(args.out, ["d_m", "pi", "lambda", f"gamma_{unit}", "psi"], rows)
        _write_manifest(args, started, outputs=[args.out], summary=summary)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    started = time.monotonic()
    spec = cfg.sweep
    if args.grid:
        try:
            lo, hi, n = args.grid.split(":")
            lo, hi, n = float(lo), float(hi), int(n)
        except ValueError as exc:
            raise ConfigError(f"--grid expects d_min:d_max:points, got {args.grid!r}") from exc
        if n < 1 or hi <= lo or lo <= 0:
            raise ConfigError("--grid expects 0 < d_min < d_max and points >= 1")
        factors = spec.power_factors if spec else (1.0,)
        ds = np.geomspace(lo, hi, n)
    elif spec is not None:
        factors = spec.power_factors
        ds = np.geomspace(spec.d_min, spec.d_max, spec.points)
    else:
        raise ConfigError("sweep: section missing and no --grid given")

    base = _problem(cfg)
    model = base.model
    unit = "bits" if args.bits else "nats"
    rows = []
    for factor in factors:
        pt_prime = factor * base.pt_prime
        for d in ds:
            pi = pt_prime / d**base.eta
            gamma, _ = waterfill.gamma_and_lambda(model, pi)
            segment = discrete.segment_index(model.table, pi) + 1 if model.is_discrete else ""
            rows.append(
                (
                    factor,
                    float(d),
                    pi,
                    _rate_out(gamma, args),
                    _rate_out(d * gamma, args),
                    segment,
                )
            )
    header = ["power_factor", "d_m", "pi", f"gamma_{unit}", "psi", "segment"]
    _write_csv(args.out, header, rows)
    if args.out:
        _write_manifest(args, started, outputs=[args.out])
    return EXIT_OK


def _cmd_stationary(args) -> int:
    cfg = load_config(args.config)
    started = time.monotonic()
    problem = _problem(cfg)
    sset = hopopt.stationary_points(problem)
    unit = "bits" if args.bits else "nats"
    rows = [
        (pt.d, _rate_out(pt.gamma, args), _rate_out(pt.psi, args),
         pt.segment if pt.segment is not None else "")
        for pt in sset.points
    ]
    header = ["d_m", f"gamma_{unit}", "psi", "segment"]
    print(f"stationary_points={len(sset.points)} unique={str(sset.unique).lower()}")
    _write_csv(args.out, header, rows)
    if args.out:
        _write_manifest(
            args, started, outputs=[args.out],
            summary={"count": len(sset.points), "unique": sset.unique},
        )
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    started = time.monotonic()
    if cfg.simulate is None:
        raise ConfigError("simulate: section missing")
    if cfg.profile is None:
        raise ConfigError("simulate requires a mac section")
    spec = cfg.simulate
    seed = args.seed if args.seed is not None else spec.seed
    horizon = args.horizon if args.horizon is not None else spec.horizon
    policy = _build_policy(cfg, spec)
    sim_config = simulator.SimConfig(
        profile=cfg.profile,
        model=cfg.model,
        policy=policy,
        d=spec.d,
        eta=cfg.eta,
        horizon=horizon,
        seed=seed,
        relinquish_overhead=spec.relinquish_overhead,
    )
    report = simulator.run(sim_config, trace_path=args.trace)
    payload = report.to_json()
    print(payload)
    if args.out:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
        outputs = [args.out] + ([args.trace] if args.trace else [])
        _write_manifest(args, started, outputs=outputs, seed=seed)
    return EXIT_OK


def _cmd_compare_ftt(args) -> int:
    started = time.monotonic()
    explicit = [args.h1, args.h2, args.p1, args.p2]
    rows = []
    if any(v is not None for v in explicit):
        if any(v is None for v in explicit):
            raise ConfigError("compare-ftt: give all of --h1 --h2 --p1 --p2 or none")
        tuples = [(args.h1, args.h2, args.p1, args.p2)]
    else:
        rng = np.random.Generator(np.random.PCG64(args.seed))
        tuples = []
        for _ in range(args.count):
            h1, h2 = sorted(np.exp(rng.uniform(math.log(1e-2), math.log(1e2), 2)))[::-1]
            p1 = float(np.exp(rng.uniform(math.log(1e-2), math.log(1e2))))
            # keep the tuple valid: the better state carries the higher rate
            p2 = float(h1 * p1 / h2 * rng.uniform(0.0, 1.0)) or p1
            tuples.append((float(h1), float(h2), p1, p2))
    violations = 0
    for h1, h2, p1, p2 in tuples:
        res = simulator.compare_ftt_fp(h1, h2, p1, p2)
        if res.bits_ftt < res.bits_fp * (1 - 1e-9):
            violations += 1
        rows.append((h1, h2, p1, p2, res.bits_fp, res.bits_ftt, res.energy, res.duration))
    print(f"tuples={len(rows)} violations={violations}")
    if args.out:
        _write_csv(
            args.out,
            ["h1", "h2", "P1_W", "P2_W", "bits_fp", "bits_ftt", "energy_J", "duration_s"],
            rows,
        )
        _write_manifest(args, started, outputs=[args.out], seed=args.seed,
                        summary={"violations": violations})
    return EXIT_OK if violations == 0 else EXIT_NUMERICAL


def _cmd_single_cell_bound(args) -> int:
    cfg = load_config(args.config)
    started = time.monotonic()
    if cfg.bound is None:
        raise ConfigError("bound: section missing")
    spec = cfg.bound
    ks = np.unique(np.geomspace(spec.k_min, spec.k_max, spec.points).astype(int))
    rows = []
    for power in spec.powers:
        for k, c_k, bound, reach, bound_reach in macmodel.spatial_reuse_sweep(
            ks, spec.area, cfg.eta, power, spec.noise
        ):
            rows.append((power, k, c_k, bound, reach, c_k * reach, bound_reach))
    header = ["power_W", "K", "C_K_nats", "bound_nats", "reach_m", "C_times_r", "bound_times_r"]
    _write_csv(args.out, header, rows)
    if args.out:
        _write_manifest(args, started, outputs=[args.out])
    return EXIT_OK


# -- helpers ------------------------------------------------------------------


def _problem(cfg: RunConfig) -> hopopt.HopProblem:
    return hopopt.HopProblem(
        model=cfg.model, eta=cfg.eta, pt_prime=cfg.resolve_pt_prime(), d0=cfg.d0
    )


def _build_policy(cfg: RunConfig, spec):
    if spec.policy == "constant":
        return simulator.ConstantPowerPolicy(spec.constant_power)
    pi = cfg.resolve_pt_prime() / spec.d**cfg.eta
    return simulator.WaterfillPolicy(
        solution=waterfill.solve(cfg.model, pi), d=spec.d, eta=cfg.eta
    )


def _optimize_summary(cfg, sset, args) -> dict:
    summary: dict = {"unique": str(sset.unique).lower(), "n_points": len(sset.points)}
    best = sset.maximizer
    if best is None:
        summary["boundary"] = sset.boundary
        return summary
    summary.update(
        d_opt_m=best.d,
        pi_opt=best.pi,
        lambda_opt=best.lam,
        gamma_opt=_rate_out(best.gamma, args),
        psi_opt=_rate_out(best.psi, args),
    )
    if cfg.d0 > 0:
        summary["d_opt_above_d0"] = str(best.d > cfg.d0).lower()
    if cfg.profile is not None:
        summary["theta_opt_bps"] = macmodel.throughput(cfg.profile, best.gamma)
        summary["transport_opt_bit_m_per_s"] = summary["theta_opt_bps"] * best.d
    return summary


def _rate_out(nats: float, args) -> float:
    """A rate, or a rate times meters, in the unit the flags ask for."""
    return nats / LN2 if args.bits else nats


def _g(value: float) -> str:
    return format(float(value), ".17g")


def _write_csv(path, header, rows) -> None:
    """Write header and rows as CSV to the file ``path``, or to stdout when it is None."""
    with (open(path, "w", newline="", encoding="utf-8") if path
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_g(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:  # in blocks: a --trace file can be large
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(args, started, outputs, seed=None, summary=None) -> None:
    manifest = {
        "command": args.invocation,
        "config_path": getattr(args, "config", None),
        "config_sha256": _sha256(args.config) if getattr(args, "config", None) else None,
        "seed": seed,
        "versions": {
            "hopcap": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "wall_time_s": time.monotonic() - started,
        "outputs": {str(p): _sha256(p) for p in outputs},
    }
    if summary is not None:
        manifest["summary"] = summary
    path = Path(str(outputs[0]) + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
