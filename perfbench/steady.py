"""Steadiness check: run the benchmark on many seeds, twice, and judge the spread.

    python3 perfbench/steady.py

Runs the command in BENCHMARK.json once per seed (SEEDS) for every
workload, repeats the whole set SETS times, and reports for each
end-to-end metric its spread (interquartile distance over median, see
``stats.spread``) in each set against the metric's bound, and how much
the last set's median is worse than the first set's.  A spread should
stay below a third of its bound.  Exits 1 when any shift, or any spread
other than that of ``setup_s``, breaks its bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = 2


def run_once(spec, workload: str, seed: int) -> dict:
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def judge(spec, runs: dict) -> bool:
    """Print the spread table; True when every metric is within its bound."""
    ok = True
    print(f"{'workload':<11} {'metric':<12} {'bound':>6} " + " ".join(
        f"{'median' + str(i + 1):>11} {'spread' + str(i + 1):>8}" for i in range(len(runs))) + f" {'worse':>7}")
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, medians = [], []
            for set_runs in runs.values():
                values = [r["metrics"][name]["value"] for r in set_runs.get(workload, [])]
                if len(values) < 2:
                    continue
                spread = stats.spread(values)
                medians.append(statistics.median(values))
                mark = "" if spread < bound / 3 else ("~" if spread <= bound else "!")
                # As in the benchmark's acceptance rule, the spread of setup_s
                # is shown but only its median shift is bounded: a set-up is
                # one warm-up process, timed by a median rather than a best
                # run, so it carries the host's speed phases in full (README).
                ok &= name == "setup_s" or spread <= bound
                cells.append(f"{medians[-1]:>11.5g} {spread:>7.3f}{mark or ' '}")
            worse = stats.worsening(medians[0], medians[-1], metric["better"]) if medians else 0.0
            ok &= worse <= bound
            flag = "!" if worse > bound else " "
            print(f"{workload:<11} {name:<12} {bound:>6.2f} " + " ".join(cells) + f" {worse:>+6.3f}{flag}")
    print("(spread marks: ~ above a third of the bound, ! above the bound; "
          "worse: last set's median against the first's)")
    return ok


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = {}
    for s in range(SETS):
        runs[s] = {}
        for seed in SEEDS:
            for w in spec["workloads"]:
                r = run_once(spec, w["name"], seed)
                runs[s].setdefault(w["name"], []).append(r)
                values = " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items())
                print(f"set {s + 1} {w['name']:<10} seed {seed:<3} {values} "
                      f"failed={r['failed']}/{r['attempted']} ({r['elapsed_s']:.0f} s)", flush=True)
    out = ROOT / ".perfbench" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    return 0 if judge(spec, runs) else 1


if __name__ == "__main__":
    sys.exit(main())
