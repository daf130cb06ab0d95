"""BENCHMARK.json agrees with what run.py prints, and the command refuses a bare tree."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import oracle
import run
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_metric_lists_match_the_runner():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_known_red_names_a_montecarlo_op(tmp_path):
    inputs = workloads.generate("montecarlo", 1, tmp_path)
    assert oracle.KNOWN_RED_OP in [op.label for op in inputs.ops]


def test_a_crash_inside_hopcap_fails_only_its_op():
    class Crashing:
        @staticmethod
        def main(argv):
            raise ZeroDivisionError("boom")

    op = workloads.Op("waterfill:x", "waterfill", None, ("waterfill",))
    outcome = run.invoke(Crashing, op)
    assert outcome.error == "ZeroDivisionError: boom"
