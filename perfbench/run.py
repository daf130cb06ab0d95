"""hopcap benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload design --seed 1 --seconds 15 --trace 0

Run from a checkout of the repository: the program under test is
``src/hopcap`` next to this directory, and nothing is installed.

``--trace 0`` runs the workload as fresh ``hopcap`` CLI processes, one at a
time in a closed loop (one client), in whole cycles (at least two) until
``--seconds`` have passed, and reports the end-to-end metrics.  ``--trace 1`` runs one
cycle of the same invocations in process, once untraced and once with
every public hopcap function wrapped, and reports per-layer metrics.
Either way every output is checked against the references in
``oracle.py``; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Inputs, outputs,
spans and a full result record (seed, input hashes, machine, versions)
go under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

import oracle
import stats
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 5
# every op runs at least this often, so its best run has a choice (see timed_run)
MIN_CYCLES = 2
IMPORT_REPEATS = 3
PROC_TIMEOUT_S = 120.0
# stop starting processes once this much of the run has passed, so the
# command ends well inside its 180 s allowance even on a slow machine
STOP_STARTING_S = 140.0

# the throughput metric's meaning per workload; one name in the JSON output
THROUGHPUT = {"design": "solves_per_s", "curve": "sweep_rows_per_s",
              "montecarlo": "sim_periods_per_s"}

END_TO_END = [("setup_s", "s"), ("proc_p50_s", "s"), ("work_per_s", "1/s"),
              ("peak_rss_mb", "MB")]

_TIMED = ["fading.integrate_against_density", "fading.sample_h", "waterfill.solve",
          "waterfill.gamma_and_lambda", "waterfill.expected_power", "waterfill.optimal_rate",
          "discrete.gamma_of_pi", "simulator.run"]
PER_LAYER = (
    [("cli.import_s", "s"), ("cli.main.self_s", "s"), ("cli.out_bytes", "bytes"),
     ("config.load_config.s", "s"), ("fading.tabulated_from_csv.s", "s")]
    + [(f"{n}.{f}", u) for n in _TIMED for f, u in (("calls", "count"), ("s", "s"))]
    + [("fading.sample_h.draws", "count"),
       ("waterfill.power_evals_per_solve", "ratio"),
       ("waterfill.power_evals_per_solve.base", "count"),
       ("discrete.build_table.calls", "count"),
       ("discrete.stationary_points_discrete.s", "s"),
       ("hopopt.stationary_points.calls", "count"), ("hopopt.stationary_points.self_s", "s"),
       ("hopopt.gamma_and_lambda.calls", "count"), ("hopopt.psi.calls", "count"),
       ("hopopt.check_monotonicity_condition.s", "s"),
       ("macmodel.calls", "count"), ("macmodel.s", "s"),
       ("simulator.run.self_s", "s"), ("simulator.periods", "count"),
       ("simulator.trace_write_s", "s"),
       ("trace.spans", "count"), ("trace.untraced_s", "s"), ("trace.traced_s", "s"),
       ("trace.overhead_ratio", "ratio")]
)


@dataclass
class Outcome:
    """One hopcap invocation: how long it took and whether it was right."""

    op: workloads.Op
    wall_s: float
    stdout: str
    maxrss_kb: int = 0
    digest: str = ""
    error: str | None = None
    known_red: bool = False
    out_bytes: int = 0


def _digest(outcome) -> str:
    h = hashlib.sha256(outcome.stdout.encode())
    for path in (outcome.op.out, outcome.op.trace_out):
        if path:
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
    return h.hexdigest()


def _out_bytes(outcome) -> int:
    paths = [p for p in (outcome.op.out, outcome.op.trace_out) if p]
    paths += [p + ".manifest.json" for p in paths[:1]]
    return len(outcome.stdout.encode()) + sum(os.path.getsize(p) for p in paths)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(argv, cwd: Path):
    """Run argv to completion; (wall s, returncode, stdout, max RSS in kB).

    The child is reaped with wait4 so its own peak resident set is read.
    """
    with open(cwd / "stdout.txt", "w+b") as out, open(cwd / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=_child_env())
        killer = threading.Timer(PROC_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stderr = err.read().decode(errors="replace").strip()
        return wall, proc.returncode, out.read().decode(), usage.ru_maxrss, stderr


def hopcap_process(op, cwd) -> Outcome:
    argv = [sys.executable, "-m", "hopcap.cli", *op.argv]
    wall, rc, stdout, rss, stderr = run_process(argv, cwd)
    outcome = Outcome(op, wall, stdout, maxrss_kb=rss)
    if rc != 0:
        outcome.error = f"exit code {rc}: {stderr.splitlines()[-1] if stderr else ''}"
    return outcome


def judge(outcomes, checker) -> None:
    """Check the first output of each op fully, later ones by byte identity."""
    first = {}
    for oc in outcomes:
        if oc.error:
            continue
        ref = first.get(oc.op.label)
        if ref is None:
            first[oc.op.label] = oc
            try:
                checker.check(oc.op, oc.stdout)
            except (oracle.CheckError, KeyError, ValueError, IndexError) as exc:
                oc.error = f"{type(exc).__name__}: {exc}"
                oc.known_red = isinstance(exc, oracle.KnownRed)
        elif oc.digest != ref.digest:
            oc.error = "output differs from the first run of the same seeded op"
        else:
            oc.error, oc.known_red = ref.error, ref.known_red


def _keep_first(outcome, seen: set, keep: Path):
    """Move the first outputs of each op aside so later runs cannot overwrite them."""
    if outcome.error:
        return outcome
    outcome.digest = _digest(outcome)
    if outcome.op.label in seen:
        return outcome
    seen.add(outcome.op.label)
    moved = {}
    for attr in ("out", "trace_out"):
        path = getattr(outcome.op, attr)
        if path:
            target = keep / Path(path).name
            os.replace(path, target)
            moved[attr] = str(target)
    outcome.op = replace(outcome.op, **moved)
    return outcome


# -- end to end -------------------------------------------------------------------


def timed_run(workload: str, seed: int, seconds: float, run_dir: Path) -> dict:
    started = time.perf_counter()
    setups, digests, outcomes, warmups = [], None, [], []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workloads.generate(workload, seed, run_dir / f"inputs{i}")
        warm = hopcap_process(inputs.warmup, run_dir)
        setups.append(time.perf_counter() - t0)
        warmups.append(warm)
        if warm.error:
            raise RuntimeError(f"warm-up failed: {warm.error}")
        if digests is not None and digests != inputs.sha256:
            raise RuntimeError("the same seed produced different input files")
        digests = inputs.sha256
    keep = run_dir / "first_outputs"
    keep.mkdir()
    seen: set = set()
    deadline = time.perf_counter() + seconds
    cycles = 0
    while True:
        for op in inputs.ops:
            outcomes.append(_keep_first(hopcap_process(op, run_dir), seen, keep))
        cycles += 1
        now = time.perf_counter()
        if (now >= deadline and cycles >= MIN_CYCLES) or now - started > STOP_STARTING_S:
            break
    judge(outcomes, oracle.Checker())
    walls = [oc.wall_s for oc in outcomes]
    # Each op is timed by its best run.  The host's CPU speed drops by up to
    # 2x for tens of seconds at a time; the best of runs spread over the
    # measurement is far steadier than any average (timeit's rule).
    best = {op.label: min(oc.wall_s for oc in outcomes if oc.op.label == op.label)
            for op in inputs.ops}
    metrics = {
        "setup_s": statistics.median(setups),
        "proc_p50_s": statistics.median(best.values()),
        "work_per_s": sum(op.units for op in inputs.ops) / sum(best.values()),
        "peak_rss_mb": max(oc.maxrss_kb for oc in outcomes + warmups) / 1024.0,
    }
    tail = stats.tail_percentile(len(walls))
    return {
        "inputs": inputs,
        "outcomes": outcomes,
        "metrics": metrics,
        "units": dict(END_TO_END),
        "detail": {
            "cycles": cycles,
            "processes": len(walls),
            "setup_s_samples": setups,
            "proc_all_p50_s": statistics.median(walls),
            "proc_tail": None if tail is None else [tail, float(np.percentile(walls, tail))],
            "op_best_s": best,
        },
    }


# -- traced, in process ---------------------------------------------------------------


def _import_hopcap():
    sys.path.insert(0, str(SRC))
    import hopcap
    import hopcap.cli

    where = Path(hopcap.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"imported hopcap from {where}, not from {SRC}")
    return hopcap, hopcap.cli


def import_seconds(cwd: Path) -> float:
    """Median wall time of a fresh ``import hopcap.cli`` in a new interpreter."""
    code = ("import time; t = time.perf_counter(); import hopcap.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_REPEATS):
        _, rc, out, _, err = run_process([sys.executable, "-c", code], cwd)
        if rc != 0:
            raise RuntimeError(f"import hopcap.cli failed: {err}")
        samples.append(float(out.strip()))
    return statistics.median(samples)


def invoke(cli, op) -> Outcome:
    buf = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(op.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash in hopcap fails this op, not the whole run
        rc, error = 1, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    outcome = Outcome(op, wall, buf.getvalue())
    if rc != 0:
        outcome.error = error or f"exit code {rc}"
    else:
        outcome.out_bytes = _out_bytes(outcome)
    return outcome


def traced_run(workload: str, seed: int, run_dir: Path) -> dict:
    hopcap, cli = _import_hopcap()
    from hopcap.fading import FadingModel

    inputs = workloads.generate(workload, seed, run_dir / "inputs")
    import_s = import_seconds(run_dir)
    untraced = [invoke(cli, op) for op in inputs.ops]
    tr = tracing.Tracer()
    tallies = {
        "fading.sample_h": lambda a, k: ("fading.sample_h.draws", a[2]),  # (self, rng, size)
        "simulator.run": lambda a, k: ("simulator.periods", a[0].horizon),
    }
    tr.install(hopcap, methods=[(FadingModel, "sample_h", "fading.sample_h"),
                                (FadingModel, "tabulated_from_csv", "fading.tabulated_from_csv")],
               tallies=tallies)
    traced = []
    try:
        for i, op in enumerate(inputs.ops):
            tr.request = i
            traced.append(invoke(cli, op))
    finally:
        tr.uninstall()
    judge(traced, oracle.Checker())
    metrics = layer_metrics(tr, inputs.ops, untraced, traced, import_s)
    _write_spans(tr, inputs.ops, run_dir / "spans.npz")
    return {
        "inputs": inputs,
        "outcomes": traced,
        "metrics": metrics,
        "units": dict(PER_LAYER),
        "detail": {"untraced_s": [oc.wall_s for oc in untraced],
                   "traced_s": [oc.wall_s for oc in traced]},
    }


def layer_metrics(tr, ops, untraced, traced, import_s) -> dict:
    spans = tr.spans
    summary = tracing.summarize(spans)
    get = lambda name, key: summary.get(name, {}).get(key, 0)
    m = {"cli.import_s": import_s,
         "cli.main.self_s": get("cli.main", "self_s"),
         "cli.out_bytes": sum(oc.out_bytes for oc in traced),
         "config.load_config.s": get("config.load_config", "s"),
         "fading.tabulated_from_csv.s": get("fading.tabulated_from_csv", "s")}
    for name in _TIMED:
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.s"] = get(name, "s")
    m["fading.sample_h.draws"] = tr.counts["fading.sample_h.draws"]
    solvers = {"waterfill.solve", "waterfill.gamma_and_lambda"}
    in_solve = lambda n: n in solvers
    evals = sum(1 for i, s in enumerate(spans) if s[tracing.NAME] == "waterfill.expected_power"
                and tracing.has_ancestor(spans, i, in_solve))
    base = sum(1 for i, s in enumerate(spans) if s[tracing.NAME] in solvers
               and not tracing.has_ancestor(spans, i, in_solve))
    m["waterfill.power_evals_per_solve"] = evals / base if base else 0.0
    m["waterfill.power_evals_per_solve.base"] = base
    m["discrete.build_table.calls"] = get("discrete.build_table", "calls")
    m["discrete.stationary_points_discrete.s"] = get("discrete.stationary_points_discrete", "s")
    m["hopopt.stationary_points.calls"] = get("hopopt.stationary_points", "calls")
    m["hopopt.stationary_points.self_s"] = get("hopopt.stationary_points", "self_s")
    m["hopopt.gamma_and_lambda.calls"] = get("hopopt.gamma_and_lambda", "calls")
    m["hopopt.psi.calls"] = get("hopopt.psi", "calls")
    m["hopopt.check_monotonicity_condition.s"] = get("hopopt.check_monotonicity_condition", "s")
    m["macmodel.calls"], m["macmodel.s"] = tracing.group(spans, lambda n: n.startswith("macmodel."))
    m["simulator.run.self_s"] = get("simulator.run", "self_s")
    m["simulator.periods"] = tr.counts["simulator.periods"]
    m["simulator.trace_write_s"] = _trace_write_s(spans, ops)
    m["trace.spans"] = len(spans)
    m["trace.untraced_s"] = sum(oc.wall_s for oc in untraced)
    m["trace.traced_s"] = sum(oc.wall_s for oc in traced)
    m["trace.overhead_ratio"] = m["trace.traced_s"] / m["trace.untraced_s"]
    return m


def _trace_write_s(spans, ops) -> float:
    """simulator.run time of the --trace op minus that of its untraced twin."""
    def run_s(request):
        return sum(s[tracing.END] - s[tracing.START] for s in spans
                   if s[tracing.REQUEST] == request and s[tracing.NAME] == "simulator.run")

    total = 0.0
    for i, op in enumerate(ops):
        if op.trace_out:
            twin = next(j for j, o in enumerate(ops) if o.sim and not o.trace_out
                        and o.model.name == op.model.name and o.sim == op.sim)
            total += run_s(i) - run_s(twin)
    return total


def _write_spans(tr, ops, path: Path) -> None:
    names = sorted({s[tracing.NAME] for s in tr.spans})
    index = {n: i for i, n in enumerate(names)}
    spans = tr.spans
    t0 = spans[0][tracing.START] if spans else 0.0
    np.savez(
        path,
        names=np.array(names),
        requests=np.array([op.label for op in ops]),
        name=np.array([index[s[tracing.NAME]] for s in spans], dtype=np.int32),
        start=np.array([s[tracing.START] - t0 for s in spans]),
        end=np.array([s[tracing.END] - t0 for s in spans]),
        parent=np.array([s[tracing.PARENT] for s in spans], dtype=np.int64),
        request=np.array([s[tracing.REQUEST] for s in spans], dtype=np.int32),
    )


# -- reporting ----------------------------------------------------------------------


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def report(args, result, env) -> dict:
    outcomes = result["outcomes"]
    failed = [oc for oc in outcomes if oc.error and not oc.known_red]
    red = [oc for oc in outcomes if oc.known_red]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "inputs_sha256": result["inputs"].sha256,
        "metrics": {k: {"value": v, "unit": result["units"][k]} for k, v in result["metrics"].items()},
        "detail": result["detail"],
        "attempted": len(outcomes),
        "failed": len(failed),
        "known_red": len(red),
        "errors": [{"op": oc.op.label, "error": oc.error, "known_red": oc.known_red}
                   for oc in outcomes if oc.error],
    }
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v!r}" for k, v in env.items()))
    for name, digest in result["inputs"].sha256.items():
        print(f"input {name} sha256={digest}")
    for name, entry in record["metrics"].items():
        alias = f" ({THROUGHPUT[args.workload]})" if name == "work_per_s" else ""
        print(f"{name}{alias} = {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        d = result["detail"]
        tail = d["proc_tail"]
        print(f"proc_p50_s is over {len(d['op_best_s'])} ops, each timed by its best of "
              f"{d['cycles']} cycle(s); over all n={d['processes']} processes p50 = "
              f"{d['proc_all_p50_s']:.4f} s, "
              + (f"p{tail[0]:g} = {tail[1]:.4f} s" if tail else
                 f"no tail percentile (fewer than {stats.MIN_BEYOND} samples beyond p90)"))
    print(f"fail_ratio = {len(failed)}/{len(outcomes)} = {len(failed) / len(outcomes):.4g}")
    for oc in outcomes:
        if oc.error:
            tag = "KNOWN RED" if oc.known_red else "FAILED"
            print(f"{tag} {oc.op.label}: {oc.error}")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hopcap" / "cli.py").is_file():
        print(f"perfbench: no hopcap sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    if args.trace:
        result = traced_run(args.workload, args.seed, run_dir)
    else:
        result = timed_run(args.workload, args.seed, args.seconds, run_dir)
    record = report(args, result, environment())
    (run_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for path in run_dir.rglob("*.periods.csv"):
        path.unlink()
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
