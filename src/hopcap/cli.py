"""Command-line front end: subcommands, CSV emission and run manifests.

Each ``_cmd_*`` handler takes the parsed flags and the loaded config and
returns ``(text, echo, manifest)``: its CSV or JSON text, whether that
text goes to stdout when no ``--out`` is given, and the extra keys of the
manifest.  A handler prints only its own summary.  `main` is the one
writer of results: it loads the config, then either writes ``text`` to
``--out`` and ``<out>.manifest.json`` beside it (config hash, seed,
versions, wall time, output hashes, warnings), so results can be
reproduced byte for byte, or echoes ``text`` when ``echo`` is true.

Exit codes: 0 success, 2 validation/config error (an unwritable stdout,
``--out`` or ``--trace`` included), 3 numerical failure.  `run` is the
process entry of ``hopcap`` and ``python -m hopcap.cli``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from . import discrete, hopopt, macmodel, waterfill
from .config import MAX_TUPLES, SECTIONS, RunConfig, _integer, load_config, read_section
from .errors import ConfigError, NumericalError, ValidationError
from .macmodel import LN2

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
# read once, when numpy loads OpenBLAS; the manifests of the numpy commands record it
BLAS_THREADS = "OPENBLAS_NUM_THREADS"


def main(argv=None) -> int:
    if "numpy" not in sys.modules:
        # hopcap makes no BLAS call, so a BLAS thread pool is only start-up
        # cost; a value the caller set is kept, and the library sets nothing
        os.environ.setdefault(BLAS_THREADS, "1")
    argv = list(argv) if argv is not None else sys.argv[1:]
    args = _build_parser().parse_args(argv)
    args.invocation, args.warnings = argv, []
    try:
        with _recording_warnings(args.warnings):
            args.loading = time.monotonic()  # where simulate's first stage starts
            cfg = load_config(args.config) if "config" in vars(args) else None
            args.started = time.monotonic()  # where wall_time_s starts
            text, echo, manifest = args.handler(args, cfg)
            if args.out:
                try:
                    with open(args.out, "w", encoding="utf-8", newline="") as fh:
                        fh.write(text)
                    _write_manifest(args, text, **manifest)
                except OSError as exc:
                    raise ConfigError(f"cannot write output: {exc}") from exc
            elif echo:
                sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:  # main's own files raise ConfigError, so this is stdout's
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalError, ArithmeticError) as exc:  # d**eta, say, past the float range
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def run() -> None:
    """Run `main` as a whole process, then exit with its code.

    ``gc.freeze()`` moves every object left alive into the permanent
    generation, so the interpreter's collections at exit scan none of what
    the imports made.  ``atexit``, the final flush of stdout and stderr and
    every output byte stay as they are.  A `main()` called from Python
    freezes nothing.
    """
    code = main()
    try:
        sys.stdout.flush()  # holds bytes only when stdout cannot be written
    except OSError:
        # drop what stays buffered, or the interpreter's own flush fails at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    gc.freeze()
    sys.exit(code)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopcap",
        description="Hop-distance and water-pouring optimization for "
        "single-cell multihop networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def flag(*args, **kwargs):
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*args, **kwargs)
        return parent

    config = flag("--config", required=True, help="YAML run configuration")
    bits = flag("--bits", action="store_true", help="report rates in bits, not nats")
    out = flag("--out", help="CSV/JSON output path (manifest written beside it)")

    def add(name, handler, help_text, *flags):
        p = sub.add_parser(name, help=help_text, parents=[*flags, out])
        p.set_defaults(handler=handler)
        return p

    p = add("waterfill", _cmd_waterfill, "solve the allocation at one power level", config, bits)
    p.add_argument("--pi", type=float, required=True, help="normalized power level")

    add("optimize", _cmd_optimize, "find the optimal hop distance", config, bits)

    p = add("sweep", _cmd_sweep, "tabulate d, Gamma and psi over a hop grid", config, bits)
    p.add_argument("--grid", help="override sweep grid as d_min:d_max:points")

    add("stationary-points", _cmd_stationary, "enumerate stationary points", config, bits)

    p = add("simulate", _cmd_simulate, "Monte Carlo saturation-MAC run", config)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="override simulate.seed")
    p.add_argument("--horizon", type=int, default=argparse.SUPPRESS,
                   help="override simulate.horizon")
    p.add_argument("--trace", help="write a per-period trace CSV")

    p = add("compare-ftt", _cmd_compare_ftt, "fixed-time vs fixed-packet totals")
    p.add_argument("--count", type=int, default=100, help="random tuples to draw")
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--h1", type=float)
    p.add_argument("--h2", type=float)
    p.add_argument("--p1", type=float)
    p.add_argument("--p2", type=float)

    add("single-cell-bound", _cmd_single_cell_bound, "spatial-reuse rate cap sweep", config)
    return parser


# -- commands ---------------------------------------------------------------


def _cmd_waterfill(args, cfg) -> tuple:
    sol = waterfill.solve(cfg.model, args.pi)
    gamma_out, unit = _rate_out(sol.gamma, args), "bits" if args.bits else "nats"
    print(
        f"pi={_g(sol.pi)} lambda={_g(sol.lam)} gamma_{unit}={_g(gamma_out)} "
        f"cutoff_x={_g(sol.lam)} cutoff_h={_g(sol.cutoff_h)}"
    )
    header = ["pi", "lambda", f"gamma_{unit}", "cutoff_x", "cutoff_h"]
    return _csv(header, [(sol.pi, sol.lam, gamma_out, sol.lam, sol.cutoff_h)]), False, {}


def _cmd_optimize(args, cfg) -> tuple:
    sset = hopopt.stationary_points(_problem(cfg))
    unit = "bits" if args.bits else "nats"
    rows = [
        (pt.d, pt.pi, pt.lam, _rate_out(pt.gamma, args), _rate_out(pt.psi, args))
        for pt in sset.points
    ]
    summary = _optimize_summary(cfg, sset, args)
    for key, value in summary.items():
        print(f"{key}={value if not isinstance(value, float) else _g(value)}")
    return _csv(["d_m", "pi", "lambda", f"gamma_{unit}", "psi"], rows), False, {"summary": summary}


def _cmd_sweep(args, cfg) -> tuple:
    spec = cfg.sweep
    if args.grid:  # read by the rules of the sweep keys it overrides
        try:
            lo, hi, n = args.grid.split(":")
            grid = {"d_min_m": float(lo), "d_max_m": float(hi), "points": int(n)}
        except ValueError as exc:
            raise ConfigError(f"--grid expects d_min:d_max:points, got {args.grid!r}") from exc
        if spec is not None:
            grid["power_factors"] = list(spec.power_factors)
        spec = read_section(grid, "sweep", "--grid")
    elif spec is None:
        raise ConfigError("sweep: section missing and no --grid given")
    ds = _geomspace(spec.d_min_m, spec.d_max_m, spec.points)

    base = _problem(cfg)
    model = base.model
    unit = "bits" if args.bits else "nats"
    rows = []
    for factor in spec.power_factors:
        pt_prime = factor * base.pt_prime
        for d in ds:
            try:
                loss = d**base.eta
            except OverflowError:  # d -> inf, where pi = 0
                loss = math.inf
            # a loss that underflows to 0 gives pi = inf, which has no water level
            pi = pt_prime / loss if loss else math.inf
            gamma, _ = waterfill.gamma_and_lambda(model, pi)
            segment = (discrete.segment_index(model.table, model.alpha_over_sigma2 * pi) + 1
                       if model.is_discrete else "")
            rows.append(
                (factor, d, pi, _rate_out(gamma, args), _rate_out(d * gamma, args), segment)
            )
    header = ["power_factor", "d_m", "pi", f"gamma_{unit}", "psi", "segment"]
    return _csv(header, rows), True, {}


def _cmd_stationary(args, cfg) -> tuple:
    sset = hopopt.stationary_points(_problem(cfg))
    unit = "bits" if args.bits else "nats"
    rows = [
        (pt.d, _rate_out(pt.gamma, args), _rate_out(pt.psi, args),
         pt.segment if pt.segment is not None else "")
        for pt in sset.points
    ]
    header = ["d_m", f"gamma_{unit}", "psi", "segment"]
    print(f"stationary_points={len(sset.points)} unique={str(sset.unique).lower()}")
    return _csv(header, rows), True, {"summary": {"count": len(sset.points), "unique": sset.unique}}


def _cmd_simulate(args, cfg) -> tuple:
    from . import simulator

    if cfg.simulate is None:
        raise ConfigError("simulate: section missing")
    if cfg.profile is None:
        raise ConfigError("simulate requires a mac section")
    # an override, present only when given, obeys the rule of the key it overrides
    rules = SECTIONS["simulate"]
    spec = cfg.simulate._replace(**{key: rules[key].read(vars(args)[key], f"simulate.{key}")
                                    for key in ("seed", "horizon") if key in vars(args)})
    _require_finite_power("d**eta", spec.d_m, cfg.eta,
                          f"simulate.d_m = {spec.d_m!r} with eta = {cfg.eta!r}")
    policy = _build_policy(cfg, spec)
    if (spec.relinquish_overhead_s or 0.0) > cfg.profile.t_txop:  # SimConfig's rule, by key
        raise ConfigError(f"simulate.relinquish_overhead_s = {spec.relinquish_overhead_s!r} "
                          f"exceeds mac.T_txop_s = {cfg.profile.t_txop!r}")
    sim_config = simulator.SimConfig(
        profile=cfg.profile,
        model=cfg.model,
        policy=policy,
        d=spec.d_m,
        eta=cfg.eta,
        horizon=spec.horizon,
        seed=spec.seed,
        relinquish_overhead=spec.relinquish_overhead_s,
    )
    stages = [("config_and_policy", args.loading), ("run", time.monotonic())]
    # a trace that goes into a manifest is hashed as it is written, not read back
    digest = _sha256() if args.trace is not None and args.out else None
    if args.trace is None:
        report = simulator.run(sim_config)
    else:
        try:
            with open(args.trace, "wb") as fh:
                report = simulator.run(sim_config, fh.write if digest is None else
                                       lambda data: (fh.write(data), digest.update(data)))
        except OSError as exc:
            raise ConfigError(f"cannot write trace: {exc}") from exc
    stages.append(("write_and_hash", time.monotonic()))
    payload = report.to_json()
    print(payload)
    outputs = {args.trace: digest.hexdigest()} if digest is not None else {}
    return payload + "\n", False, {"outputs": outputs, "seed": spec.seed, "stages": stages,
                                   "openblas_num_threads": os.environ.get(BLAS_THREADS)}


def _cmd_compare_ftt(args, cfg) -> tuple:
    seed = SECTIONS["simulate"]["seed"].read(args.seed, "compare-ftt.seed")
    count = _integer(args.count, "compare-ftt.count", minimum=1, maximum=MAX_TUPLES)
    explicit = [args.h1, args.h2, args.p1, args.p2]
    if any(v is not None for v in explicit):
        if any(v is None for v in explicit):
            raise ConfigError("compare-ftt: give all of --h1 --h2 --p1 --p2 or none")
        tuples = [(args.h1, args.h2, args.p1, args.p2)]
    else:  # only drawn tuples need numpy
        import numpy as np

        lo, hi = math.log(1e-2), math.log(1e2)
        # per tuple, as four draws in turn: two log gains, a log power and a share of it
        u = np.random.Generator(np.random.PCG64(seed)).uniform([lo, lo, lo, 0.0], [hi, hi, hi, 1.0],
                                                              size=(count, 4))
        gains, p1 = np.exp(u[:, :2]), np.exp(u[:, 2])
        h1, h2 = gains.max(axis=1), gains.min(axis=1)
        # keep the tuple valid: the better state carries the higher rate
        p2 = h1 * p1 / h2 * u[:, 3]
        p2[p2 == 0.0] = p1[p2 == 0.0]
        tuples = zip(h1.tolist(), h2.tolist(), p1.tolist(), p2.tolist())
    # a shortfall raises NumericalError, so the summary records how close the claim came instead
    rows = [(*t, *macmodel.compare_ftt_fp(*t)) for t in tuples]
    print(f"tuples={len(rows)} violations=0")
    header = ["h1", "h2", "P1_W", "P2_W", "bits_fp", "bits_ftt", "energy_J", "duration_s"]
    closest = min(rows, key=lambda row: row[5] / row[4])
    summary = {"violations": 0, "min_margin": closest[5] / closest[4] - 1.0,
               "min_margin_at": dict(zip(header, closest[:4]))}
    return _csv(header, rows), False, {"seed": seed, "summary": summary,
                                       "openblas_num_threads": os.environ.get(BLAS_THREADS)}


def _cmd_single_cell_bound(args, cfg) -> tuple:
    if cfg.bound is None:
        raise ConfigError("bound: section missing")
    spec = cfg.bound
    ks = sorted({int(k) for k in _geomspace(spec.K_min, spec.K_max, spec.points)})
    _require_finite_power("(2*area)**(eta/2)", 2.0 * spec.area_m2, cfg.eta / 2.0,
                          f"bound.area_m2 = {spec.area_m2!r} with eta = {cfg.eta!r}")
    rows = []
    for power in spec.power_W:
        for k, c_k, bound, reach, bound_reach in macmodel.spatial_reuse_sweep(
            ks, spec.area_m2, cfg.eta, power, spec.noise_W
        ):
            rows.append((power, k, c_k, bound, reach, c_k * reach, bound_reach))
    header = ["power_W", "K", "C_K_nats", "bound_nats", "reach_m", "C_times_r", "bound_times_r"]
    return _csv(header, rows), True, {}


# -- helpers ------------------------------------------------------------------


def _problem(cfg: RunConfig) -> hopopt.HopProblem:
    return hopopt.HopProblem(model=cfg.model, eta=cfg.eta, pt_prime=cfg.resolve_pt_prime())


def _require_finite_power(what: str, base: float, exponent: float, where: str) -> None:
    """Raise a NumericalError that starts with ``where`` unless ``base**exponent`` is a normal float.

    ``what`` names the power.  The commands divide by it, so 0 fails as inf
    does, and so does a subnormal power, whose quotients overflow.
    """
    try:
        ok = sys.float_info.min <= base**exponent < math.inf
    except OverflowError:
        ok = False
    if not ok:
        raise NumericalError(f"{where}: {what} leaves the range of normal floats")


@contextlib.contextmanager
def _recording_warnings(names: list):
    """Append to ``names`` the class name of each warning shown.

    A warning printed to stderr is one line, ``warning: <Category>:
    <message>``, with no file, line number or source line of hopcap's.
    Entering ``catch_warnings`` resets the once-per-location registries, so
    each run shows, and records, a warning that an earlier run in the same
    process showed as well.
    """
    import warnings

    with warnings.catch_warnings():
        show, form = warnings.showwarning, warnings.formatwarning

        def record(message, category, *args, **kwargs):
            if category.__name__ not in names:
                names.append(category.__name__)
            show(message, category, *args, **kwargs)

        warnings.showwarning = record
        # catch_warnings restores showwarning but not formatwarning
        warnings.formatwarning = lambda message, category, *_: (
            f"warning: {category.__name__}: {message}\n")
        try:
            yield
        finally:
            warnings.formatwarning = form


def _build_policy(cfg: RunConfig, spec):
    from . import simulator

    if spec.policy == "constant":
        return simulator.ConstantPowerPolicy(spec.constant_power_W)
    pt_prime, loss = cfg.resolve_pt_prime(), spec.d_m**cfg.eta
    pi = pt_prime / loss
    if not 0.0 < pi < math.inf:  # a quotient of normal floats can still leave the range
        raise NumericalError(f"simulate.d_m = {spec.d_m!r} with eta = {cfg.eta!r}: pi = "
                             f"Pt'/d**eta = {pt_prime!r}/{loss!r} leaves the float range")
    return simulator.WaterfillPolicy(waterfill.solve(cfg.model, pi))


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


def _geomspace(lo: float, hi: float, n: int) -> list:
    """``n`` floats from ``lo`` to ``hi``, evenly spaced in log10, both ends exact.

    The exponents are ``i*step + log10(lo)``, as ``np.geomspace`` (through
    ``np.linspace``) computes them; its vectorised power may round a point
    one ulp away from ``10.0 ** y``.
    """
    a = math.log10(lo)
    step = (math.log10(hi) - a) / (n - 1) if n > 1 else 0.0
    return [lo] + [10.0 ** (i * step + a) for i in range(1, n - 1)] + [hi] * (n > 1)


def _rate_out(nats: float, args) -> float:
    """A rate, or a rate times meters, in the unit the flags ask for."""
    return nats / LN2 if args.bits else nats


def _g(value: float) -> str:
    return format(float(value), ".17g")


def _csv(header, rows) -> str:
    """Header and rows as CSV text.

    Each column keeps the type of its first row: floats are written as
    ``%.17g`` (the same text as `_g`), everything else by ``str``.
    """
    line = ",".join("%.17g" if isinstance(v, float) else "%s" for v in rows[0]) + "\n" if rows else ""
    return ",".join(header) + "\n" + "".join([line % row for row in rows])


def _sha256(data=b""):
    """A SHA-256 hash object over ``data``; hashlib loads only when a run hashes."""
    import hashlib

    return hashlib.sha256(data)


def _write_manifest(args, text, outputs=None, seed=None, stages=None, **extra) -> None:
    """Write ``<out>.manifest.json`` for ``args.out``, which holds ``text``.

    ``outputs`` maps the run's other files to their SHA-256; ``extra`` holds
    the command's own keys.  ``stages`` lists (name, start) in order; the
    last stage ends once the outputs are hashed.  ``args.warnings`` names
    the warnings the run showed.
    """
    import json

    config = getattr(args, "config", None)
    manifest = {
        "command": args.invocation,
        "config_path": config,
        "config_sha256": _sha256(Path(config).read_bytes()).hexdigest() if config else None,
        "seed": seed,
        "versions": {
            "hopcap": __version__,
            "python": sys.version.split()[0],
            "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        },
        "wall_time_s": time.monotonic() - args.started,
        # --out is written last, so it is what a path shared with --trace holds
        "outputs": {**(outputs or {}), str(args.out): _sha256(text.encode()).hexdigest()},
        "warnings": args.warnings,
        **extra,
    }
    if stages is not None:
        ends = [start for _, start in stages[1:]] + [time.monotonic()]
        manifest["stages_s"] = {name: end - start for (name, start), end in zip(stages, ends)}
    path = Path(str(args.out) + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    run()
