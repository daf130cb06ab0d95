"""CLI surface: exit codes, CSV round trips, manifests, reproducibility."""

import contextlib
import ast
import csv
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from hopcap.cli import _geomspace, main
from hopcap.config import MAX_HORIZON, MAX_POINTS, MAX_TUPLES, SECTIONS, Rule, _integer

SINGLE_STATE_YAML = """\
schema_version: 1
fading:
  kind: discrete
  states:
    - {gain: 1.0, prob: 1.0}
eta: 3.0
power:
  Pt_prime_W: 1.0
"""

FIG1_YAML = """\
# two-state reproduction setup
schema_version: 1
fading:
  kind: discrete
  alpha_over_sigma2: 1.0
  states:
    - {gain: 100.0, prob: 0.01}
    - {gain: 0.5, prob: 0.99}
eta: 3.0
power:
  Pt_prime_W: 1.0
sweep:
  d_min_m: 0.05
  d_max_m: 50.0
  points: 600
mac:
  p_idle: 0.6
  p_collision: 0.1
  p_success: 0.3
  T_idle_s: 2.0e-5
  T_collision_s: 3.0e-4
  T_overhead_s: 2.0e-4
  T_txop_s: 2.0e-3
  W_hz: 1.0e+6
  E_idle_J: 1.0e-6
  E_collision_J: 3.0e-5
  E_overhead_J: 5.0e-5
simulate:
  d_m: 0.3233
  horizon: 50000
  seed: 97531
  policy: waterfill
bound:
  area_m2: 450.0
  noise_W: 1.0e-10
  power_W: [0.1, 100.0]
  K_min: 2
  K_max: 100000
  points: 300
"""

EXP_FIG2_YAML = """\
schema_version: 1
fading:
  kind: exponential
  rate: 1.0
  alpha_over_sigma2: 1.0
eta: 2.0
power:
  Pt_prime_W: 1.0
sweep:
  d_min_m: 0.05
  d_max_m: 20.0
  points: 1500
  power_factors: [1.0, 4.0, 9.0]
"""

# a bimodal density: three stationary points, the far one the maximizer
BIMODAL_CSV = "h,a\n0.25,0\n0.5,3.6\n0.75,0\n95,0\n100,0.02\n105,0\n"
BIMODAL_YAML = """\
schema_version: 1
fading:
  kind: tabulated
  csv: bimodal.csv
eta: 3.0
power:
  Pt_prime_W: 1.0
"""


@pytest.fixture
def single_cfg(tmp_path):
    path = tmp_path / "single.yaml"
    path.write_text(SINGLE_STATE_YAML)
    return path


@pytest.fixture
def fig1_cfg(tmp_path):
    path = tmp_path / "fig1.yaml"
    path.write_text(FIG1_YAML)
    return path


@pytest.fixture
def exp_cfg(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(EXP_FIG2_YAML)
    return path


@pytest.fixture
def tab_cfg(tmp_path):
    (tmp_path / "bimodal.csv").write_text(BIMODAL_CSV)
    path = tmp_path / "bimodal.yaml"
    path.write_text(BIMODAL_YAML)
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


_SRC = Path(__file__).parents[1] / "src"

# runs each argv list through hopcap.cli.main in one fresh interpreter and
# prints, after each, the numpy, scipy and simulator modules loaded so far,
# and which of dataclasses, inspect and hashlib are loaded
_FRESH_RUNNER = """\
import json, sys
from hopcap.cli import main
loaded, stdlib = [], []
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded.append(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")
                         or m == "hopcap.simulator"))
    stdlib.append([m for m in ("dataclasses", "inspect", "hashlib") if m in sys.modules])
print(json.dumps([loaded, stdlib]))
"""


def loaded_after_each(argvs):
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    out = subprocess.run(
        [sys.executable, "-c", _FRESH_RUNNER, json.dumps(argvs)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_scalar_commands_load_no_numpy_scipy_or_simulator(exp_cfg, fig1_cfg, tab_cfg, tmp_path):
    cfgs = (exp_cfg, fig1_cfg, tab_cfg)
    given = ["compare-ftt", "--h1", "2", "--h2", "1", "--p1", "1", "--p2", "1"]
    # the commands that write no --out file, and so no manifest, run first
    argvs = [argv for cfg in cfgs for argv in (
        ["waterfill", "--config", str(cfg), "--pi", "2.5"],
        ["optimize", "--config", str(cfg)],
    )] + [given]
    bare = len(argvs)
    for cfg in cfgs:
        argvs += [
            ["stationary-points", "--config", str(cfg),
             "--out", str(tmp_path / f"{cfg.stem}.points.csv")],
            ["sweep", "--config", str(cfg), "--grid", "0.05:20:200",
             "--out", str(tmp_path / f"{cfg.stem}.sweep.csv")],
        ]
    argvs.append(["single-cell-bound", "--config", str(fig1_cfg),
                  "--out", str(tmp_path / "fig1.bound.csv")])
    argvs.append(given + ["--out", str(tmp_path / "given.ftt.csv")])
    drawn = ["compare-ftt", "--count", "3"]
    simulate = ["simulate", "--config", str(fig1_cfg), "--horizon", "10000"]
    loaded, stdlib = loaded_after_each(argvs + [drawn, simulate])
    *scalar, after_drawn, after_simulate = loaded
    assert scalar == [[]] * len(argvs)
    # the guard is not vacuous: the commands that build arrays do load them
    assert "numpy" in after_drawn and "hopcap.simulator" not in after_drawn
    assert "numpy" in after_simulate and "hopcap.simulator" in after_simulate
    # no scalar command loads dataclasses or inspect; hashlib comes with the first manifest
    assert stdlib[:len(argvs)] == [[]] * bare + [["hashlib"]] * (len(argvs) - bare)


def test_each_module_imports_alone():
    # the package imports none of its modules, so a cycle among them would
    # show only when one is imported first: each is, in a fresh interpreter
    code = ("import importlib, json, sys; importlib.import_module(sys.argv[1]); print(json.dumps("
            "sorted(m for m in sys.modules if m.split('.')[0] in ('hopcap', 'numpy', 'yaml'))))")
    env = dict(os.environ, PYTHONPATH=str(_SRC))

    def loaded(name):
        out = subprocess.run([sys.executable, "-c", code, name], env=env, capture_output=True,
                             text=True, check=True)
        return json.loads(out.stdout)

    modules = sorted(path.stem for path in (_SRC / "hopcap").glob("*.py") if path.stem != "__init__")
    assert len(modules) >= 9  # cli, config, discrete, errors, fading, hopopt, macmodel, simulator, waterfill
    for module in modules:
        assert f"hopcap.{module}" in loaded(f"hopcap.{module}")
    assert loaded("hopcap") == ["hopcap"]
    assert not any(m.startswith("numpy") for m in loaded("hopcap.fading"))


class TestWaterfillCommand:
    def test_single_state_prints_expected_values(self, single_cfg, capsys):
        assert main(["waterfill", "--config", str(single_cfg), "--pi", "1.0"]) == 0
        out = capsys.readouterr().out
        fields = dict(token.split("=") for token in out.split())
        assert float(fields["lambda"]) == 0.5
        assert float(fields["gamma_nats"]) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_csv_round_trip(self, fig1_cfg, tmp_path, capsys):
        out_path = tmp_path / "wf.csv"
        assert main(
            ["waterfill", "--config", str(fig1_cfg), "--pi", "1.0", "--out", str(out_path)]
        ) == 0
        stdout = capsys.readouterr().out
        row = read_csv(out_path)[0]
        for token in stdout.split():
            key, value = token.split("=")
            if key in ("lambda", "pi"):
                assert float(row[key]) == float(value)
        # 17 significant digits survive the file round trip bit for bit
        from hopcap import waterfill
        from hopcap.fading import FadingModel

        model = FadingModel.discrete([(100.0, 0.01), (0.5, 0.99)])
        sol = waterfill.solve(model, 1.0)
        assert float(row["lambda"]) == sol.lam
        assert float(row["gamma_nats"]) == sol.gamma

    @pytest.mark.parametrize(
        "field, value",
        [
            ("fading.rate", "-2"),
            ("fading.rate", ".inf"),
            ("fading.rate", ".nan"),
            ("fading.states[0].gain", ".inf"),
            ("fading.states[0].gain", ".nan"),
            ("eta", ".inf"),
            ("eta", ".nan"),
            ("power.Pt_prime_W", ".inf"),
            ("sweep.power_factors[0]", ".nan"),
            ("sweep.power_factors[0]", ".inf"),
            ("bound.power_W[0]", ".nan"),
            ("bound.power_W[0]", ".inf"),
        ],
        ids=["rate-negative", "rate-inf", "rate-nan", "gain-inf", "gain-nan", "eta-inf",
             "eta-nan", "pt-inf", "factor-nan", "factor-inf", "bound-power-nan",
             "bound-power-inf"],
    )
    def test_malformed_config_exits_2(self, field, value, tmp_path, capsys):
        # a valid config, but for the one field under test
        rate, gain, eta, pt, factor, power = (
            value if name == field else "2.0" for name in
            ("fading.rate", "fading.states[0].gain", "eta", "power.Pt_prime_W",
             "sweep.power_factors[0]", "bound.power_W[0]"))
        fading = (f"{{kind: discrete, states: [{{gain: {gain}, prob: 1.0}}]}}" if "gain" in field
                  else f"{{kind: exponential, rate: {rate}}}")
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            f"schema_version: 1\nfading: {fading}\neta: {eta}\npower: {{Pt_prime_W: {pt}}}\n"
            f"sweep: {{d_min_m: 1.0, d_max_m: 2.0, points: 3, power_factors: [{factor}]}}\n"
            f"bound: {{area_m2: 1.0, noise_W: 1.0, power_W: [{power}]}}\n"
        )
        for argv in (["waterfill", "--pi", "1.0"], ["optimize"]):
            assert main(argv[:1] + ["--config", str(bad)] + argv[1:]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {field}:") and "Traceback" not in err

    @pytest.mark.parametrize("pi", ["nan", "inf"])
    def test_non_finite_pi_exits_2(self, pi, fig1_cfg, capsys):
        assert main(["waterfill", "--config", str(fig1_cfg), "--pi", pi]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: pi must be") and "Traceback" not in err

    @pytest.mark.parametrize(
        "csv_text",
        [
            "h,a\n0,0.5\n1,abc\n2,0.5\n",
            "h,a\n0,0.5\n1\n2,0.5\n",
            "h;a\n0;0.5\n2;0.5\n",
            None,
            "h,a\n0,0.5\n1,nan\n2,0.5\n",
        ],
        ids=["non-numeric", "ragged", "semicolon", "missing-file", "nan-density"],
    )
    def test_malformed_tabulated_csv_exits_2(self, csv_text, tmp_path, capsys):
        if csv_text is not None:
            (tmp_path / "bimodal.csv").write_text(csv_text)
        cfg = tmp_path / "run.yaml"
        cfg.write_text(BIMODAL_YAML)
        for argv in (["waterfill", "--pi", "1.0"], ["optimize"]):
            assert main(argv[:1] + ["--config", str(cfg)] + argv[1:]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err

    # the kernels run at unit scale: only pi = pi_H/c (up to 1.6e311 at 1e-310)
    # or lam = c*lam_H (up to 6e308 at 1e308) can leave the float range
    @pytest.mark.parametrize(
        "fading, scale, argv, code",
        [
            ("tabulated", "1e-310", ["optimize"], 3),
            ("tabulated", "1e-310", ["waterfill", "--pi", "1"], 0),
            ("tabulated", "1e-320", ["optimize"], 3),
            ("tabulated", "1e-320", ["waterfill", "--pi", "1"], 0),
            ("tabulated", "1e308", ["optimize"], 3),
            ("tabulated", "1e-307", ["optimize"], 0),
            ("exponential", "1e-310", ["waterfill", "--pi", "1"], 0),
        ],
    )
    def test_extreme_alpha_over_sigma2_ends_without_traceback(
        self, fading, scale, argv, code, tmp_path, capsys
    ):
        (tmp_path / "bimodal.csv").write_text(BIMODAL_CSV)
        kind = "csv: bimodal.csv" if fading == "tabulated" else "rate: 1.0"
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            f"schema_version: 1\nfading: {{kind: {fading}, {kind}, alpha_over_sigma2: {scale}}}\n"
            "eta: 3.0\npower: {Pt_prime_W: 1.0}\n"
        )
        assert main(argv[:1] + ["--config", str(cfg)] + argv[1:]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("numerical failure: alpha_over_sigma2 = ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, old, new, field",
        [
            ("simulate", "d_m: 0.3233", "d_m: 1.0e+103", "simulate.d_m = 1e+103"),
            ("simulate", "d_m: 0.3233", "d_m: 1.0e+103\n  constant_power_W: 1.0",
             "simulate.d_m = 1e+103"),
            ("single-cell-bound", "area_m2: 450.0", "area_m2: 1.0e+250", "bound.area_m2 = 1e+250"),
            ("simulate", "d_m: 0.3233", "d_m: 1.0e-200\n  constant_power_W: 1.0",
             "simulate.d_m = 1e-200"),
            ("single-cell-bound", "area_m2: 450.0", "area_m2: 1.0e-300", "bound.area_m2 = 1e-300"),
            ("simulate", "d_m: 0.3233", "d_m: 1.0e-105", "simulate.d_m = 1e-105"),
            ("simulate", "d_m: 0.3233", "d_m: 1.0e-105\n  constant_power_W: 1.0",
             "simulate.d_m = 1e-105"),
            ("single-cell-bound", "area_m2: 450.0", "area_m2: 5.0e-211", "bound.area_m2 = 5e-211"),
        ],
        ids=["simulate-waterfill", "simulate-constant", "bound", "simulate-constant-underflow",
             "bound-underflow", "simulate-waterfill-subnormal", "simulate-constant-subnormal",
             "bound-subnormal"],
    )
    def test_path_loss_out_of_range_names_the_field(self, command, old, new, field, tmp_path, capsys):
        # d**eta = 1e309 and (2*area)**(eta/2) = 2.8e375 leave the float range;
        # 1e-600 and 2.8e-450 underflow to 0, which then divides (the constant
        # policy used to print infinite bits with exit 0).  d**eta = 1e-315 is
        # subnormal: pt'/d**eta overflowed to an infinite pi (exit 2), and the
        # constant policy printed infinite bits with exit 0; (2*area)**(eta/2)
        # = 1e-315 is subnormal too
        text = FIG1_YAML.replace(old, new)
        if "constant_power_W" in new:
            text = text.replace("policy: waterfill", "policy: constant")
        cfg = tmp_path / "run.yaml"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {field} with eta = 3.0: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("power, d_m, quotient", [
        ("1.0e+308", "0.1", "1e+308/0.0010000000000000002"),
        ("1.0e-310", "1.0e+5", "1e-310/1000000000000000.0"),
    ], ids=["overflow", "underflow"])
    def test_water_fill_pi_out_of_range_names_the_field(self, power, d_m, quotient, tmp_path,
                                                          capsys):
        # d**eta is a normal float, but pt'/d**eta overflows to inf (exit 2,
        # "pi must be finite") or underflows to 0 (exit 2, "pi must be > 0")
        cfg = tmp_path / "run.yaml"
        cfg.write_text(FIG1_YAML.replace("Pt_prime_W: 1.0", f"Pt_prime_W: {power}")
                       .replace("d_m: 0.3233", f"d_m: {d_m}"))
        assert main(["simulate", "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"numerical failure: simulate.d_m = {float(d_m)!r} with eta = 3.0: "
                                f"pi = Pt'/d**eta = {quotient} leaves the float range\n")

    def test_overflowing_discrete_breakpoint_is_a_numerical_failure(self, tmp_path, capsys):
        # Pi_1 = 0.25/5e-324 overflows; the table used to take log1p(-inf), a traceback
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            "schema_version: 1\nfading: {kind: discrete, alpha_over_sigma2: 3.0, states: "
            "[{gain: 1000.0, prob: 0.25}, {gain: 5.0e-324, prob: 0.75}]}\neta: 3.0\n"
        )
        assert main(["waterfill", "--config", str(cfg), "--pi", "3.0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("numerical failure: the water-fill breakpoint between the gains "
                                "1000.0 and 5e-324 overflows the float range\n")

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "schema_version: 1\nfading:\n  kind: exponential\n  rate: 1.0\n  typo_key: 3\neta: 2\n"
        )
        assert main(["waterfill", "--config", str(bad), "--pi", "1.0"]) == 2
        assert "typo_key" in capsys.readouterr().err


class TestOptimizeCommand:
    def test_exponential_unique_summary(self, exp_cfg, capsys):
        assert main(["optimize", "--config", str(exp_cfg)]) == 0
        out = capsys.readouterr().out
        assert "unique=true" in out
        assert "pi_opt=1.96" in out

    def test_summary_in_manifest(self, exp_cfg, tmp_path):
        out_path = tmp_path / "opt.csv"
        assert main(["optimize", "--config", str(exp_cfg), "--out", str(out_path)]) == 0
        manifest = json.loads((tmp_path / "opt.csv.manifest.json").read_text())
        assert manifest["summary"]["unique"] == "true"
        assert manifest["config_sha256"]
        rows = read_csv(out_path)
        assert len(rows) == 1

    @pytest.mark.parametrize("d0, above", [("0.1", "true"), ("10.0", "false")])
    def test_d_opt_above_d0_is_printed_and_in_the_manifest(self, d0, above, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(EXP_FIG2_YAML + f"d0_m: {d0}\n")
        assert main(["optimize", "--config", str(cfg)]) == 0
        printed = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
        assert printed["d_opt_above_d0"] == above
        assert (float(printed["d_opt_m"]) > float(d0)) == (above == "true")
        out_path = tmp_path / "opt.csv"
        assert main(["optimize", "--config", str(cfg), "--out", str(out_path)]) == 0
        manifest = json.loads((tmp_path / "opt.csv.manifest.json").read_text())
        assert manifest["summary"]["d_opt_above_d0"] == above

    @pytest.mark.parametrize("command, eta, fired", [
        ("optimize", "1.5", ["EtaBelowTwoWarning"]),
        ("stationary-points", "3.0", []),
    ])
    def test_manifest_names_the_warnings(self, command, eta, fired, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(EXP_FIG2_YAML.replace("eta: 2.0", f"eta: {eta}"))
        out_path = tmp_path / "opt.csv"
        with contextlib.redirect_stderr(io.StringIO()):
            assert main([command, "--config", str(cfg), "--out", str(out_path)]) == 0
        manifest = json.loads((tmp_path / "opt.csv.manifest.json").read_text())
        assert manifest["warnings"] == fired


class TestSweepCommand:
    def test_fig1_grid_shows_three_interior_extrema(self, fig1_cfg, tmp_path):
        out_path = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(fig1_cfg), "--out", str(out_path)]) == 0
        rows = read_csv(out_path)
        psi = np.array([float(r["psi"]) for r in rows])
        slope_sign = np.sign(np.diff(psi))
        flips = int(np.sum(np.abs(np.diff(slope_sign)) > 0))
        assert flips == 3

    def test_fig2_three_power_levels_share_pi_opt(self, exp_cfg, tmp_path):
        out_path = tmp_path / "fig2.csv"
        assert main(["sweep", "--config", str(exp_cfg), "--out", str(out_path)]) == 0
        rows = read_csv(out_path)
        pi_opts = {}
        for factor in ("1", "4", "9"):
            sub = [r for r in rows if float(r["power_factor"]) == float(factor)]
            best = max(sub, key=lambda r: float(r["psi"]))
            pi_opts[factor] = float(best["pi"])
        vals = list(pi_opts.values())
        # common pi_opt up to grid quantisation
        assert max(vals) / min(vals) < 1.02

    def test_grid_override_and_row_count(self, fig1_cfg, tmp_path):
        out_path = tmp_path / "sweep.csv"
        assert main(
            ["sweep", "--config", str(fig1_cfg), "--grid", "0.1:10:50", "--out", str(out_path)]
        ) == 0
        assert len(read_csv(out_path)) == 50

    def test_empty_grid_exits_2(self, fig1_cfg, tmp_path, capsys):
        assert main(["sweep", "--config", str(fig1_cfg), "--grid", "1:10:0"]) == 2

    @pytest.mark.parametrize("grid, key", [("2:1:5", "d_max_m"), ("1:10:0", "points"),
                                           ("0:1:5", "d_min_m"), ("1:-2:5", "d_max_m")])
    def test_grid_obeys_the_sweep_rules(self, grid, key, fig1_cfg, capsys):
        # --grid is read as the sweep keys it overrides, by their rules
        assert main(["sweep", "--config", str(fig1_cfg), "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: --grid") and key in line

    def test_grid_obeys_a_rule_added_to_its_key(self, fig1_cfg, monkeypatch, capsys):
        monkeypatch.setitem(SECTIONS["sweep"], "points", Rule(partial(_integer, minimum=10)))
        assert main(["sweep", "--config", str(fig1_cfg), "--grid", "1:10:5"]) == 2
        assert capsys.readouterr().err == "error: --grid.points: must be >= 10, got 5\n"

    def test_grid_points_have_the_cap_of_sweep_points(self, fig1_cfg, capsys):
        # a list of 10**30 points used to outgrow memory
        for points in ("100001", str(10**30)):
            assert main(["sweep", "--config", str(fig1_cfg), "--grid", f"1:10:{points}"]) == 2
            assert capsys.readouterr().err == f"error: --grid.points: must be <= 100000, got {points}\n"

    def test_grid_rows_have_the_cap_of_sweep_rows(self, exp_cfg, capsys):
        # the section's three power factors repeat every point of the grid
        assert main(["sweep", "--config", str(exp_cfg), "--grid", "1:10:33334"]) == 2
        assert capsys.readouterr().err == (
            "error: --grid: points * len(power_factors) must be <= 100000, got 33334 * 3\n")

    def test_grid_keeps_the_sections_power_factors(self, exp_cfg, tmp_path):
        out_path = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(exp_cfg), "--grid", "0.1:10:5",
                     "--out", str(out_path)]) == 0
        rows = read_csv(out_path)
        assert [float(r["power_factor"]) for r in rows] == [1.0] * 5 + [4.0] * 5 + [9.0] * 5
        assert [float(r["d_m"]) for r in rows[:5]] == _geomspace(0.1, 10.0, 5)

    @pytest.mark.parametrize("grid", ["nan:1:5", "0.5:nan:5", "1:inf:5"])
    def test_non_finite_grid_bound_exits_2(self, grid, fig1_cfg, capsys):
        assert main(["sweep", "--config", str(fig1_cfg), "--grid", grid]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --grid") and "Traceback" not in err

    @pytest.mark.parametrize("cfg", ["exp_cfg", "fig1_cfg", "tab_cfg"])
    def test_path_loss_overflow_gives_zero_pi_rows(self, cfg, request, tmp_path, capsys):
        # d**eta overflows at d = 1e308 (and at 1e154 when eta = 3): the d -> inf limit
        out_path = tmp_path / "sweep.csv"
        argv = ["sweep", "--config", str(request.getfixturevalue(cfg)), "--grid", "1:1e308:3"]
        assert main(argv + ["--out", str(out_path)]) == 0
        rows = read_csv(out_path)
        assert {float(r["d_m"]) for r in rows} == {1.0, 1e154, 1e308}
        for r in rows:
            if float(r["d_m"]) == 1.0:
                assert float(r["pi"]) > 0.0 and float(r["psi"]) > 0.0
            if float(r["d_m"]) == 1e308:
                assert float(r["pi"]) == float(r["psi"]) == 0.0
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("cfg", ["exp_cfg", "fig1_cfg", "tab_cfg"])
    def test_path_loss_underflow_is_a_numerical_failure(self, cfg, request, capsys):
        # d**eta underflows to 0 at d = 1e-320: pi = pt'/0 has no finite water level
        argv = ["sweep", "--config", str(request.getfixturevalue(cfg)), "--grid", "1e-320:1:3"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: no finite water level") and "Traceback" not in err

    def test_round_trip_equals_in_memory(self, fig1_cfg, tmp_path):
        from hopcap import discrete
        from hopcap.fading import FadingModel

        out_path = tmp_path / "sweep.csv"
        main(["sweep", "--config", str(fig1_cfg), "--grid", "0.1:10:25", "--out", str(out_path)])
        model = FadingModel.discrete([(100.0, 0.01), (0.5, 0.99)])
        table = discrete.build_table(model)
        for row in read_csv(out_path):
            d = float(row["d_m"])
            gamma, _ = discrete.gamma_of_pi(table, 1.0 / d**3)
            assert abs(float(row["gamma_nats"]) - gamma) < 1e-12 * max(gamma, 1e-12)


def _seeded_grids(count=20, seed=14):
    rng = np.random.default_rng(seed)
    lo = 10.0 ** rng.uniform(-3.0, 2.0, count)
    hi = lo * 10.0 ** rng.uniform(0.01, 6.0, count)
    return list(zip(lo.tolist(), hi.tolist(), rng.integers(3, 2000, count).tolist()))


class TestGeomspace:
    """The sweep's d grid in plain floats, with np.geomspace as the oracle."""

    @pytest.mark.parametrize("lo, hi, n", [(0.05, 50.0, 600), (1.0, 2.0, 1), (1.0, 2.0, 2),
                                           (1.0, 1e308, 3)] + _seeded_grids())
    def test_exact_ends_increasing_and_within_one_ulp_of_numpy(self, lo, hi, n):
        ds = _geomspace(lo, hi, n)
        assert len(ds) == n and all(type(d) is float for d in ds)
        assert ds[0] == lo and (n == 1 or ds[-1] == hi)
        assert all(a < b for a, b in zip(ds, ds[1:]))
        # np.geomspace's own steps on libm's log10 of the ends; numpy's log10
        # rounds about 2% of inputs to the other neighbouring float
        a, b = math.log10(lo), math.log10(hi)
        ref = np.power(10.0, np.linspace(a, b, n))
        ref[0] = lo
        ref[-1] = hi if n > 1 else lo
        for d, r in zip(ds, ref.tolist()):
            assert abs(d - r) <= math.ulp(r), (d, r)
        if float(np.log10(lo)) == a and float(np.log10(hi)) == b:
            assert ref.tolist() == np.geomspace(lo, hi, n).tolist()
        else:
            assert (lo, hi) != (0.05, 50.0)


class TestStationaryPointsCommand:
    def test_fig1_emits_three_rows_with_segments(self, fig1_cfg, tmp_path, capsys):
        out_path = tmp_path / "sp.csv"
        assert main(
            ["stationary-points", "--config", str(fig1_cfg), "--out", str(out_path)]
        ) == 0
        assert "stationary_points=3" in capsys.readouterr().out
        rows = read_csv(out_path)
        assert len(rows) == 3
        assert [r["segment"] for r in rows] == ["2", "2", "1"]
        for r in rows:
            assert float(r["psi"]) == pytest.approx(
                float(r["d_m"]) * float(r["gamma_nats"]), rel=1e-15
            )


class TestSimulateCommand:
    def test_seeded_rerun_is_byte_identical(self, fig1_cfg, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["simulate", "--config", str(fig1_cfg), "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", str(fig1_cfg), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_manifest_records_output_hash(self, fig1_cfg, tmp_path):
        out_path = tmp_path / "sim.json"
        assert main(["simulate", "--config", str(fig1_cfg), "--out", str(out_path)]) == 0
        manifest = json.loads((tmp_path / "sim.json.manifest.json").read_text())
        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        assert manifest["outputs"][str(out_path)] == digest
        assert manifest["seed"] == 97531
        assert manifest["versions"]["hopcap"]

    def test_rerun_from_manifest_command_reproduces(self, fig1_cfg, tmp_path):
        out_path = tmp_path / "sim.json"
        assert main(["simulate", "--config", str(fig1_cfg), "--out", str(out_path)]) == 0
        manifest = json.loads((tmp_path / "sim.json.manifest.json").read_text())
        first = out_path.read_bytes()
        assert main(manifest["command"]) == 0
        assert out_path.read_bytes() == first

    def test_manifest_records_stage_times(self, fig1_cfg, tmp_path):
        out_path = tmp_path / "sim.json"
        assert main(["simulate", "--config", str(fig1_cfg), "--out", str(out_path)]) == 0
        manifest = json.loads((tmp_path / "sim.json.manifest.json").read_text())
        stages = manifest["stages_s"]
        assert sorted(stages) == ["config_and_policy", "run", "write_and_hash"]
        assert all(t >= 0.0 for t in stages.values()) and stages["run"] > 0.0
        # wall_time_s starts after the config load and ends before the hashing
        assert sum(stages.values()) >= manifest["wall_time_s"]
        assert manifest["warnings"] == []

    def test_manifest_names_the_warnings_and_stderr_keeps_them(self, fig1_cfg, tmp_path):
        import warnings

        out_path = tmp_path / "sim.json"
        argv = ["simulate", "--config", str(fig1_cfg), "--horizon", "100", "--out", str(out_path)]
        show, form = warnings.showwarning, warnings.formatwarning
        with pytest.warns(UserWarning, match="horizon 100 < 10000"):
            assert main(argv) == 0
        assert warnings.showwarning is show and warnings.formatwarning is form
        manifest = json.loads((tmp_path / "sim.json.manifest.json").read_text())
        assert manifest["warnings"] == ["SmallHorizonWarning"]
        # as a process, the warning is one line on stderr, whatever the layout of cli.py
        run = subprocess.run([sys.executable, "-m", "hopcap.cli", *argv],
                             env=dict(os.environ, PYTHONPATH=str(_SRC)),
                             capture_output=True, text=True, check=True)
        assert run.stderr == ("warning: SmallHorizonWarning: horizon 100 < 10000: confidence "
                              "intervals may be unreliable\n")
        assert json.loads((tmp_path / "sim.json.manifest.json").read_text())["warnings"] == [
            "SmallHorizonWarning"]

    def test_each_run_in_a_process_records_its_warnings(self, fig1_cfg, tmp_path):
        # the second run's warning comes from the line the first run's came
        # from, which Python's once-per-location registry would hide
        for name in ("a.json", "b.json"):
            out_path = tmp_path / name
            argv = ["simulate", "--config", str(fig1_cfg), "--horizon", "100",
                    "--out", str(out_path)]
            assert main(argv) == 0
            manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
            assert manifest["warnings"] == ["SmallHorizonWarning"]

    def test_non_finite_estimates_are_a_numerical_failure(self, tmp_path, capsys):
        # d**eta = 1e-300 is a normal float, but 1e10 W over it overflows every
        # success's rate: the report used to print infinite bits with exit 0
        cfg = tmp_path / "run.yaml"
        cfg.write_text(FIG1_YAML.replace("d_m: 0.3233", "d_m: 1.0e-100\n  constant_power_W: 1.0e+10")
                       .replace("policy: waterfill", "policy: constant"))
        assert main(["simulate", "--config", str(cfg), "--horizon", "10000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: the estimates leave the float range")
        assert "Traceback" not in captured.err

    def test_estimates_past_1e154_keep_their_interval(self, tmp_path, capsys):
        # residuals of about 1e201 square past the float range: this used to
        # exit 3 with "the estimates leave the float range"
        reports = []
        for bandwidth in ("1.0e+6", "1.0e+200"):
            cfg = tmp_path / "run.yaml"
            cfg.write_text(FIG1_YAML.replace("W_hz: 1.0e+6", f"W_hz: {bandwidth}"))
            assert main(["simulate", "--config", str(cfg), "--horizon", "20000"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        small, large = reports
        assert 1e200 < large["theta_hat_bps"] < 1e201
        for key in ("theta_hat_bps", "theta_ci95_bps", "total_bits"):
            assert large[key] / small[key] == pytest.approx(1e194, rel=1e-14)
        for key in ("power_hat_w", "power_ci95_w", "elapsed_time_s", "periods"):
            assert large[key] == small[key]

    def test_periods_of_zero_seconds_in_total_are_a_numerical_failure(self, tmp_path, capsys):
        # idle and collision periods take no time, and five periods at
        # p_success = 1e-4 hold no success: this used to print
        # "numerical failure: float division by zero"
        cfg = tmp_path / "run.yaml"
        cfg.write_text(FIG1_YAML.replace("T_idle_s: 2.0e-5", "T_idle_s: 0")
                       .replace("T_collision_s: 3.0e-4", "T_collision_s: 0")
                       .replace("p_idle: 0.6", "p_idle: 0.5").replace("p_collision: 0.1", "p_collision: 0.4999")
                       .replace("p_success: 0.3", "p_success: 1.0e-4"))
        assert main(["simulate", "--config", str(cfg), "--horizon", "5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "numerical failure: the periods last 0 s in total: no rate or power to estimate")

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--seed", "-1"], "simulate.seed: must be >= 0, got -1"),
        (["simulate", "--horizon", "0"], "simulate.horizon: must be >= 1, got 0"),
        (["compare-ftt", "--seed", "-1"], "compare-ftt.seed: must be >= 0, got -1"),
        # a count below 1 used to write a header-only CSV with exit 0
        (["compare-ftt", "--count", "0"], "compare-ftt.count: must be >= 1, got 0"),
        (["compare-ftt", "--count", "-5"], "compare-ftt.count: must be >= 1, got -5"),
        # past a cap: a value that used to size a loop or a list without end
        (["simulate", "--horizon", "1000000001"],
         "simulate.horizon: must be <= 1000000000, got 1000000001"),
        (["compare-ftt", "--count", "100001"], "compare-ftt.count: must be <= 100000, got 100001"),
    ], ids=["simulate-seed", "simulate-horizon", "compare-ftt-seed", "compare-ftt-count-0",
            "compare-ftt-count-negative", "simulate-horizon-past-cap", "compare-ftt-count-past-cap"])
    def test_override_obeys_the_rule_of_its_key(self, argv, message, fig1_cfg, capsys):
        # a negative seed used to end in numpy's ValueError traceback, exit 1
        config = ["--config", str(fig1_cfg)] if argv[0] == "simulate" else []
        assert main(argv[:1] + config + argv[1:]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_count_at_its_cap_is_read(self, capsys):
        # with one given tuple the count is read by its rule but draws nothing
        argv = ["compare-ftt", "--h1", "2", "--h2", "1", "--p1", "1", "--p2", "1"]
        assert main(argv + ["--count", str(MAX_TUPLES)]) == 0
        assert capsys.readouterr().out == "tuples=1 violations=0\n"

    def test_seed_override_changes_output(self, fig1_cfg, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        main(["simulate", "--config", str(fig1_cfg), "--out", str(out_a)])
        main(["simulate", "--config", str(fig1_cfg), "--seed", "1", "--out", str(out_b)])
        assert out_a.read_bytes() != out_b.read_bytes()


class TestCompareFttCommand:
    def test_random_run_reports_no_violations(self, capsys):
        assert main(["compare-ftt", "--count", "200", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "violations=0" in out

    @pytest.mark.parametrize("count, seed, digest", [
        (1000, 7, "048f25b29c7c6054bc5c81171df1ea18ab79f3b1343b5918678831fb74c649ef"),
        (100, 12345, "caad3e7eef55d739674eacd3cf8b6454727cfafebb20e580a42992bd68d4f0a4"),
    ])
    def test_random_tuples_keep_their_bytes(self, count, seed, digest, tmp_path, capsys):
        # one uniform call of shape (count, 4) draws what four calls a tuple drew
        out_path = tmp_path / "cmp.csv"
        assert main(["compare-ftt", "--count", str(count), "--seed", str(seed), "--out", str(out_path)]) == 0
        assert capsys.readouterr().out == f"tuples={count} violations=0\n"
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    def test_explicit_tuple(self, capsys, tmp_path):
        out_path = tmp_path / "cmp.csv"
        assert main(
            [
                "compare-ftt", "--h1", "2.0", "--h2", "0.5",
                "--p1", "1.0", "--p2", "1.0", "--out", str(out_path),
            ]
        ) == 0
        row = read_csv(out_path)[0]
        assert float(row["bits_ftt"]) > float(row["bits_fp"])

    @staticmethod
    def worst_bits_ftt_error(path):
        """The largest relative error of ``bits_ftt`` in a CSV, against a 40-digit water-fill."""
        import mpmath

        worst = 0.0
        with mpmath.workdps(40):
            for row in read_csv(path):
                h1, h2, energy, duration = (mpmath.mpf(row[key]) for key in
                                            ("h1", "h2", "energy_J", "duration_s"))
                budget = 2 * energy / duration  # over two slots of duration/2
                level = (budget + 1 / h1 + 1 / h2) / 2
                q1, q2 = (level - 1 / h1, level - 1 / h2) if level > 1 / h2 else (budget, 0)
                exact = duration / 2 * 10**6 * mpmath.log(
                    (1 + h1 * q1) * (1 + h2 * q2), 2)
                worst = max(worst, float(abs(mpmath.mpf(row["bits_ftt"]) / exact - 1)))
        return worst

    @pytest.mark.parametrize("argv", [
        ["--count", "1000", "--seed", "7"],
        ["--h1", "2.0", "--h2", "0.5", "--p1", "1.0", "--p2", "1.0"],
        ["--h1", "1.3", "--h2", "1.3", "--p1", "0.8", "--p2", "0.8"],
    ], ids=["drawn", "given", "equal-states"])
    def test_summary_records_the_smallest_margin(self, argv, tmp_path, capsys):
        out_path = tmp_path / "cmp.csv"
        assert main(["compare-ftt", *argv, "--out", str(out_path)]) == 0
        summary = json.loads(Path(f"{out_path}.manifest.json").read_text())["summary"]
        rows = read_csv(out_path)
        margins = [float(row["bits_ftt"]) / float(row["bits_fp"]) - 1.0 for row in rows]
        closest = rows[margins.index(min(margins))]
        assert summary == {"violations": 0, "min_margin": min(margins), "min_margin_at": {
            key: float(closest[key]) for key in ("h1", "h2", "P1_W", "P2_W")}}
        assert summary["min_margin"] >= -1e-9

    def test_fixed_time_bits_match_a_40_digit_water_fill(self, tmp_path, capsys):
        # the closed form inv_level - 1/h1 cancels: it was up to 7.1e-14 off on these tuples
        out_path = tmp_path / "cmp.csv"
        assert main(["compare-ftt", "--count", "1000", "--seed", "7", "--out", str(out_path)]) == 0
        assert self.worst_bits_ftt_error(out_path) < 1e-15

    def test_extreme_gains_keep_finite_bits(self, tmp_path, capsys):
        # Pi/alpha_1 = 1e600 overflows in Gamma and in b_2: bits_ftt used to be inf
        out_path = tmp_path / "cmp.csv"
        assert main(["compare-ftt", "--h1", "1e300", "--h2", "1e-300", "--p1", "1e-300",
                     "--p2", "1e300", "--out", str(out_path)]) == 0
        assert self.worst_bits_ftt_error(out_path) < 1e-15


class TestSingleCellBoundCommand:
    def test_bound_holds_and_peak_is_interior(self, fig1_cfg, tmp_path):
        out_path = tmp_path / "bound.csv"
        assert main(["single-cell-bound", "--config", str(fig1_cfg), "--out", str(out_path)]) == 0
        rows = read_csv(out_path)
        assert len({r["power_W"] for r in rows}) == 2
        for r in rows:
            assert float(r["C_K_nats"]) <= float(r["bound_nats"]) * (1 + 1e-12)
        one_power = [r for r in rows if r["power_W"] == rows[0]["power_W"]]
        products = [float(r["bound_times_r"]) for r in one_power]
        peak = int(np.argmax(products))
        assert 0 < peak < len(products) - 1


class TestManifestNumpyVersion:
    @pytest.mark.parametrize(
        "cfg, command",
        [("fig1_cfg", "optimize"), ("tab_cfg", "optimize"), ("exp_cfg", "sweep")],
        ids=["fig1-discrete", "tabulated", "sweep-exponential"],
    )
    def test_null_when_the_run_loaded_no_numpy(self, cfg, command, request, tmp_path):
        out_path = tmp_path / "opt.csv"
        cfg = request.getfixturevalue(cfg)
        loaded_after_each([[command, "--config", str(cfg), "--out", str(out_path)]])
        manifest = json.loads((tmp_path / "opt.csv.manifest.json").read_text())
        assert manifest["versions"]["numpy"] is None

    def test_version_of_the_numpy_the_run_loaded(self, fig1_cfg, tmp_path):
        out_path = tmp_path / "sim.json"
        argv = ["simulate", "--config", str(fig1_cfg), "--horizon", "10000", "--out", str(out_path)]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "sim.json.manifest.json").read_text())
        assert manifest["versions"]["numpy"] == np.__version__


class TestBlasThreads:
    """`main` caps OpenBLAS at one thread before numpy loads; a caller's value
    wins, and the library sets nothing."""

    def fresh(self, args, blas=None):
        """Run ``python args`` with ``OPENBLAS_NUM_THREADS`` set to ``blas``, or unset."""
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(_SRC)
        if blas is not None:
            env["OPENBLAS_NUM_THREADS"] = blas
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                              check=True).stdout

    def test_simulate_records_the_setting_and_its_output_does_not_depend_on_it(self, tmp_path):
        # chunks of about 20,000 successes: rows long enough for a threaded BLAS
        # dot product to split them
        cfg = tmp_path / "run.yaml"
        cfg.write_text(SIMULATE_CASES["exponential-relinquish"])
        reports = []
        for blas, recorded in [(None, "1"), ("2", "2")]:
            out = tmp_path / f"sim{blas}.json"
            self.fresh(["-m", "hopcap.cli", "simulate", "--config", str(cfg), "--out", str(out)],
                       blas)
            manifest = json.loads(Path(f"{out}.manifest.json").read_text())
            assert manifest["openblas_num_threads"] == recorded
            reports.append(out.read_bytes())
        assert reports[0] == reports[1] == GOLDEN_SIMULATE["exponential-relinquish"][0].encode()

    def test_compare_ftt_records_the_default(self, tmp_path):
        out = tmp_path / "ftt.csv"
        self.fresh(["-m", "hopcap.cli", "compare-ftt", "--count", "3", "--out", str(out)])
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["openblas_num_threads"] == "1"

    def test_a_given_tuple_records_the_default_and_no_numpy(self, tmp_path):
        # a given tuple is compared in the scalar layer: numpy never loads
        out = tmp_path / "ftt.csv"
        self.fresh(["-m", "hopcap.cli", "compare-ftt", "--h1", "2", "--h2", "1", "--p1", "1",
                    "--p2", "1", "--out", str(out)])
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["openblas_num_threads"] == "1" and manifest["versions"]["numpy"] is None

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no per-thread /proc")
    def test_a_simulate_process_runs_one_thread(self, fig1_cfg):
        code = ("import os, sys; from hopcap.cli import main; main(sys.argv[1:]); "
                "print(len(os.listdir('/proc/self/task')))")
        out = self.fresh(["-c", code, "simulate", "--config", str(fig1_cfg), "--horizon", "10000"])
        assert out.splitlines()[-1] == "1"

    def test_importing_the_library_sets_nothing(self):
        code = "import os, hopcap.simulator; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        assert self.fresh(["-c", code]) == "None\n"

    def test_main_after_numpy_loaded_leaves_the_environment(self, monkeypatch, tmp_path):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        before = dict(os.environ)
        assert "numpy" in sys.modules
        out = tmp_path / "ftt.csv"
        assert main(["compare-ftt", "--count", "3", "--out", str(out)]) == 0
        assert dict(os.environ) == before
        assert json.loads(Path(f"{out}.manifest.json").read_text())["openblas_num_threads"] is None


class TestProcessEntry:
    """`run`, the entry of ``hopcap`` and ``python -m hopcap.cli``, exits as `main` returns;
    only the entry freezes the collector."""

    MAIN = "import sys; from hopcap.cli import main; sys.exit(main(sys.argv[1:]))"

    @staticmethod
    def process(args, cwd, stdout=subprocess.PIPE, unbuffered=None):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(_SRC)
        if unbuffered is not None:
            env["PYTHONUNBUFFERED"] = unbuffered
        return subprocess.run([sys.executable, *args], cwd=cwd, env=env, stdout=stdout,
                              stderr=subprocess.PIPE, text=True)

    def test_the_script_and_the_main_block_call_one_entry(self):
        # read as text: tomllib is 3.11's
        pyproject = (_SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
        (entry,) = re.findall(r'^hopcap = "hopcap\.cli:(\w+)"$', pyproject, re.MULTILINE)
        tree = ast.parse((_SRC / "hopcap" / "cli.py").read_text(encoding="utf-8"))
        (block,) = [node for node in tree.body if isinstance(node, ast.If)
                    and ast.unparse(node.test) == "__name__ == '__main__'"]
        assert [ast.unparse(stmt) for stmt in block.body] == [f"{entry}()"]
        assert entry != "main"

    def test_only_the_entry_freezes(self):
        freezes = [(path.name, func.name) for path in sorted((_SRC / "hopcap").glob("*.py"))
                   for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if isinstance(func, ast.FunctionDef) for node in ast.walk(func)
                   if isinstance(node, ast.Attribute) and node.attr == "freeze"]
        assert freezes == [("cli.py", "run")]
        for path in (_SRC / "hopcap").glob("*.py"):
            assert "from gc import" not in path.read_text(encoding="utf-8")

    def test_main_leaves_the_collector_as_it_was(self, fig1_cfg, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argvs = [[*argv, "--config", str(fig1_cfg)] for argv in (
            ["waterfill", "--pi", "2.5"], ["optimize", "--out", "o.csv"], ["sweep"],
            ["stationary-points"], ["simulate", "--horizon", "10000", "--trace", "t.csv"],
            ["single-cell-bound", "--out", "b.csv"],
        )] + [["compare-ftt", "--count", "3"]]
        before = gc.isenabled(), gc.get_freeze_count()
        for argv in argvs:
            assert main(argv) == 0, argv
            assert (gc.isenabled(), gc.get_freeze_count()) == before, argv

    @pytest.mark.parametrize("argv, written", [
        (["optimize", "--out", "r.csv"], ["r.csv", "r.csv.manifest.json"]),
        (["simulate", "--horizon", "100", "--trace", "t.csv", "--out", "r.json"],
         ["r.json", "r.json.manifest.json", "t.csv"]),
    ], ids=["scalar", "traced-simulate"])
    def test_a_process_matches_main_called_from_python(self, argv, written, fig1_cfg, tmp_path):
        runs = []
        for name, entry in [("main", ["-c", self.MAIN]), ("entry", ["-m", "hopcap.cli"])]:
            cwd = tmp_path / name
            cwd.mkdir()
            proc = self.process([*entry, *argv, "--config", str(fig1_cfg)], cwd)
            files = {path.name: path.read_bytes() for path in cwd.iterdir()}
            manifest = json.loads(files.pop(f"{argv[-1]}.manifest.json"))
            del manifest["wall_time_s"]
            manifest.pop("stages_s", None)
            runs.append((proc.returncode, proc.stdout, proc.stderr, files, manifest))
        assert runs[0] == runs[1]
        assert runs[1][0] == 0 and sorted([*runs[1][3], f"{argv[-1]}.manifest.json"]) == written

    def test_no_subcommand_exits_2_with_the_usage(self, tmp_path):
        proc = self.process(["-m", "hopcap.cli"], tmp_path)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("usage: hopcap ")
        assert proc.stderr.endswith("hopcap: error: the following arguments are required: command\n")

    def test_help_exits_0(self, tmp_path):
        proc = self.process(["-m", "hopcap.cli", "--help"], tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("usage: hopcap ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to fail the writes")
    @pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", [["waterfill", "--pi", "2.5"], ["sweep"]],
                             ids=["summary", "csv"])
    def test_a_stdout_that_cannot_be_written_exits_2(self, argv, unbuffered, fig1_cfg, tmp_path):
        # this used to end in an OSError traceback, exit 1, or in the interpreter's
        # "Exception ignored" line, exit 120, as the stdout buffer was flushed
        with open("/dev/full", "wb") as full:
            proc = self.process(["-m", "hopcap.cli", *argv, "--config", str(fig1_cfg)], tmp_path,
                                stdout=full, unbuffered=unbuffered)
        assert proc.returncode == 2
        assert proc.stderr == "error: cannot write stdout: [Errno 28] No space left on device\n"


class TestFlagsOnlyWhereRead:
    """A flag that a command does not read fails in argparse with exit 2."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "run.yaml", "--bits"],
        ["compare-ftt", "--bits"],
        ["single-cell-bound", "--config", "run.yaml", "--bits"],
        ["compare-ftt", "--config=run.yaml"],
        ["waterfill", "--config", "run.yaml", "--pi", "1", "--nats"],
    ] + [[command, "--config", "run.yaml", "--nats"] for command in (
        "optimize", "sweep", "stationary-points", "simulate", "single-cell-bound")
    ] + [["compare-ftt", "--nats"]])
    def test_unread_flag_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-1]}" in capsys.readouterr().err


class TestMissingSections:
    def test_simulate_without_section_exits_2(self, single_cfg):
        assert main(["simulate", "--config", str(single_cfg)]) == 2

    def test_bound_without_section_exits_2(self, single_cfg):
        assert main(["single-cell-bound", "--config", str(single_cfg)]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--config", "single"], "sweep: section missing and no --grid given"),
        (["sweep", "--config", "single", "--grid", "1:2"],
         "--grid expects d_min:d_max:points, got '1:2'"),
        (["simulate", "--config", "no-mac"], "simulate requires a mac section"),
        (["compare-ftt", "--h1", "2"], "compare-ftt: give all of --h1 --h2 --p1 --p2 or none"),
    ], ids=["sweep-without-section-or-grid", "grid-of-two-fields", "simulate-without-mac",
            "compare-ftt-h1-alone"])
    def test_missing_input_is_named(self, argv, message, single_cfg, tmp_path, capsys):
        no_mac = yaml.safe_load(FIG1_YAML)
        del no_mac["mac"]
        (tmp_path / "no-mac.yaml").write_text(yaml.safe_dump(no_mac))
        paths = {"single": str(single_cfg), "no-mac": str(tmp_path / "no-mac.yaml")}
        assert main([paths.get(arg, arg) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"


class TestOutputPath:
    """Where each command's result goes: stdout without ``--out``; the file and its manifest with it."""

    # the flags after --config; relative paths land in the run's own directory
    FLAGS = {
        "waterfill": ["--pi", "2.5"],
        "optimize": [],
        "sweep": ["--grid", "0.05:50:6"],
        "stationary-points": [],
        "simulate": ["--horizon", "10000", "--trace", "trace.csv"],
        "compare-ftt": ["--count", "5", "--seed", "7"],
        "single-cell-bound": [],
    }
    HEADERS = {
        "waterfill": "pi,lambda,gamma_nats,cutoff_x,cutoff_h",
        "optimize": "d_m,pi,lambda,gamma_nats,psi",
        "sweep": "power_factor,d_m,pi,gamma_nats,psi,segment",
        "stationary-points": "d_m,gamma_nats,psi,segment",
        "compare-ftt": "h1,h2,P1_W,P2_W,bits_fp,bits_ftt,energy_J,duration_s",
        "single-cell-bound": "power_W,K,C_K_nats,bound_nats,reach_m,C_times_r,bound_times_r",
    }
    ECHOED = {"sweep", "stationary-points", "single-cell-bound"}
    SUMMARY = {"optimize", "stationary-points", "compare-ftt"}
    SEEDED = {"simulate": 97531, "compare-ftt": 7}
    MANIFEST_KEYS = {"command", "config_path", "config_sha256", "seed", "versions",
                     "wall_time_s", "outputs", "warnings"}
    # the commands that load numpy record the BLAS thread setting in force
    NUMPY_KEYS = {"simulate": {"stages_s", "openblas_num_threads"},
                  "compare-ftt": {"openblas_num_threads"}}

    def run(self, command, cfg, directory, out, monkeypatch, capsys):
        """Run ``command`` in the fresh ``directory``: its stdout and the files it leaves there."""
        directory.mkdir()
        monkeypatch.chdir(directory)
        config = [] if command == "compare-ftt" else ["--config", str(cfg)]
        argv = [command, *config, *self.FLAGS[command], *(["--out", "out.dat"] if out else [])]
        assert main(argv) == 0
        return capsys.readouterr().out, {p.name: p.read_bytes() for p in directory.iterdir()}

    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("command", list(FLAGS))
    def test_output_goes_to_one_place(self, command, out, fig1_cfg, tmp_path, monkeypatch, capsys):
        bare, bare_files = self.run(command, fig1_cfg, tmp_path / "bare", False,
                                    monkeypatch, capsys)
        traces = {"trace.csv"} if command == "simulate" else set()
        assert set(bare_files) == traces
        lines = bare.splitlines()
        if command in self.ECHOED:
            counted = command == "stationary-points"
            if counted:
                assert re.fullmatch(r"stationary_points=3 unique=false", lines[0])
            assert lines[counted] == self.HEADERS[command]
            assert len(lines) > counted + 1
        elif command == "simulate":
            assert len(lines) == 1 and json.loads(bare)["seed"] == 97531
        elif command == "waterfill":
            assert len(lines) == 1 and lines[0].startswith("pi=2.5 lambda=")
        elif command == "compare-ftt":
            assert bare == "tuples=5 violations=0\n"
        else:
            assert lines[0] == "unique=false" and all(re.fullmatch(r"\w+=\S+", ln) for ln in lines)
        if not out:
            return

        stdout, files = self.run(command, fig1_cfg, tmp_path / "out", True, monkeypatch, capsys)
        assert set(files) == {"out.dat", "out.dat.manifest.json"} | traces
        text = files["out.dat"].decode()
        if command in self.ECHOED:
            assert stdout + text == bare
        else:
            assert stdout == bare
            if command == "simulate":
                assert text == bare
            else:
                assert text.startswith(self.HEADERS[command] + "\n") and "\r" not in text
        manifest = json.loads(files["out.dat.manifest.json"])
        keys = self.MANIFEST_KEYS | ({"summary"} if command in self.SUMMARY else set()) \
            | self.NUMPY_KEYS.get(command, set())
        assert set(manifest) == keys
        if command in self.NUMPY_KEYS:  # numpy was loaded already, so main set nothing
            assert manifest["openblas_num_threads"] == os.environ.get("OPENBLAS_NUM_THREADS")
        assert manifest["seed"] == self.SEEDED.get(command)
        assert manifest["config_path"] == (None if command == "compare-ftt" else str(fig1_cfg))
        assert manifest["outputs"] == {
            name: hashlib.sha256(files[name]).hexdigest() for name in ["out.dat", *traces]}

    @pytest.mark.parametrize("command, flags, path", [
        ("optimize", ["--out"], "nodir/x.csv"),
        ("simulate", ["--horizon", "10000", "--out"], "nodir/r.json"),
        ("simulate", ["--horizon", "10000", "--trace"], "nodir/t.csv"),
    ], ids=["optimize-out", "simulate-out", "simulate-trace"])
    def test_unwritable_path_exits_2(self, command, flags, path, fig1_cfg, tmp_path,
                                     monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([command, "--config", str(fig1_cfg), *flags, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and path in err and "Traceback" not in err
        assert not (tmp_path / "nodir").exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to fail the writes")
    @pytest.mark.parametrize("horizon", ["10000", "50"], ids=["at-write", "at-close"])
    def test_trace_write_that_fails_exits_2(self, horizon, fig1_cfg, capsys):
        # the open succeeds and the writes fail, a small trace's only when the
        # file closes; this used to end in an OSError traceback, exit 1
        argv = ["simulate", "--config", str(fig1_cfg), "--horizon", horizon, "--trace", "/dev/full"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.endswith("error: cannot write trace: [Errno 28] No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to fail the writes")
    def test_trace_hashed_for_a_manifest_that_fails_exits_2(self, fig1_cfg, tmp_path, capsys):
        out = tmp_path / "sim.json"
        argv = ["simulate", "--config", str(fig1_cfg), "--horizon", "10000",
                "--trace", "/dev/full", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.endswith("error: cannot write trace: [Errno 28] "
                                                "No space left on device\n")
        assert not out.exists() and not Path(f"{out}.manifest.json").exists()


# stdout and CSV bytes as last produced; a change that moves an output on
# purpose updates its strings here and says so
GOLDEN = {
    ('exponential', 'optimize'): (
        'unique=true\n'
        'n_points=1\n'
        'd_opt_m=0.71360135852344309\n'
        'pi_opt=1.9637611488840068\n'
        'lambda_opt=0.25894690868039544\n'
        'gamma_opt=1.0170197577803504\n'
        'psi_opt=0.72574668079724103\n',
        'd_m,pi,lambda,gamma_nats,psi\n'
        '0.71360135852344309,1.9637611488840068,0.25894690868039544,1.0170197577803504,0.72574668079724103\n',
    ),
    ('exponential', 'stationary-points'): (
        'stationary_points=1 unique=true\n',
        'd_m,gamma_nats,psi,segment\n'
        '0.71360135852344309,1.0170197577803504,0.72574668079724103,\n',
    ),
    ('fig1-discrete', 'optimize'): (
        'unique=false\n'
        'n_points=3\n'
        'd_opt_m=0.32333896800711576\n'
        'pi_opt=29.581885819215007\n'
        'lambda_opt=0.031683684471817922\n'
        'gamma_opt=2.8117894091320599\n'
        'psi_opt=0.90916108580209798\n'
        'theta_opt_bps=3467140.7150247279\n'
        'transport_opt_bit_m_per_s=1121061.7007315489\n',
        'd_m,pi,lambda,gamma_nats,psi\n'
        '0.32333896800711576,29.581885819215007,0.031683684471817922,2.8117894091320599,0.90916108580209798\n'
        '2.8382837786337234,0.043735344785331649,0.49411134288993758,0.06483038983090389,0.18400704381955521\n'
        '8.5856199598155438,0.0015801016190708336,5.9520209292640391,0.028214393721220782,0.2422380618870075\n',
    ),
    ('fig1-discrete', 'stationary-points'): (
        'stationary_points=3 unique=false\n',
        'd_m,gamma_nats,psi,segment\n'
        '0.32333896800711576,2.8117894091320599,0.90916108580209798,2\n'
        '2.8382837786337234,0.06483038983090389,0.18400704381955521,2\n'
        '8.5856199598155438,0.028214393721220782,0.2422380618870075,1\n',
    ),
    ('tabulated', 'optimize'): (
        'unique=false\n'
        'n_points=3\n'
        'd_opt_m=3.9848964768487787\n'
        'pi_opt=0.01580333949094908\n'
        'lambda_opt=5.9510502639463718\n'
        'gamma_opt=0.28213940294653994\n'
        'psi_opt=1.124296312781885\n',
        'd_m,pi,lambda,gamma_nats,psi\n'
        '0.40056315558084338,15.55919059693457,0.057326681431276678,2.6758702880369514,1.0718550465011016\n'
        '1.2238821466717307,0.54548297605211171,0.42821040226851331,0.70074445381770178,0.85762862640671833\n'
        '3.9848964768487787,0.01580333949094908,5.9510502639463718,0.28213940294653994,1.124296312781885\n',
    ),
    ('tabulated', 'stationary-points'): (
        'stationary_points=3 unique=false\n',
        'd_m,gamma_nats,psi,segment\n'
        '0.40056315558084338,2.6758702880369514,1.0718550465011016,\n'
        '1.2238821466717307,0.70074445381770178,0.85762862640671833,\n'
        '3.9848964768487787,0.28213940294653994,1.124296312781885,\n',
    ),
}


# `--bits` output as last produced, on the two-state config: optimize's stdout
# and CSV, and sweep's CSV (to stdout) over `--grid 0.05:50:6`
GOLDEN_BITS = {
    "optimize": (
        'unique=false\n'
        'n_points=3\n'
        'd_opt_m=0.32333896800711576\n'
        'pi_opt=29.581885819215007\n'
        'lambda_opt=0.031683684471817922\n'
        'gamma_opt=4.0565546365789311\n'
        'psi_opt=1.3116421898559121\n'
        'theta_opt_bps=3467140.7150247279\n'
        'transport_opt_bit_m_per_s=1121061.7007315489\n',
        'd_m,pi,lambda,gamma_bits,psi\n'
        '0.32333896800711576,29.581885819215007,0.031683684471817922,4.0565546365789311,1.3116421898559121\n'
        '2.8382837786337234,0.043735344785331649,0.49411134288993758,0.09353048190794333,0.26546604960711051\n'
        '8.5856199598155438,0.0015801016190708336,5.9520209292640391,0.04070476590329393,0.34947565059893954\n',
    ),
    "sweep": (
        'power_factor,d_m,pi,gamma_bits,psi,segment\n'
        '1,0.050000000000000003,7999.9999999999982,12.042579887431927,0.60212899437159639,2\n'
        '1,0.1990535852767486,126.79145539688912,6.0851087005607631,1.2112627036453567,2\n'
        '1,0.79244659623055658,2.0095091452076654,1.0726859770443489,0.85004635133304318,2\n'
        '1,3.1547867224009645,0.031848573644279836,0.085031991545879815,0.26825779790825266,2\n'
        '1,12.559432157547896,0.00050476587558415521,0.025963767365919887,0.32609017478662689,1\n'
        '1,50,7.9999999999999996e-06,0.0011103131238874384,0.055515656194371918,1\n',
        None,
    ),
}


# `simulate` on one config of each kind, over 200_003 periods (four chunks of
# `run`): a truncated exp(-h) density on 41 nodes, normalised by trapezoid
TAB41_H = [0.5 * i for i in range(41)]
TAB41_Z = math.fsum(0.25 * (math.exp(-a) + math.exp(-b)) for a, b in zip(TAB41_H, TAB41_H[1:]))
TAB41_CSV = "h,a\n" + "".join(f"{h!r},{math.exp(-h) / TAB41_Z:.12g}\n" for h in TAB41_H)
TWELVE_STATES = [
    {"gain": g, "prob": (i + 1) / 78}
    for i, g in enumerate([800.0, 300.0, 120.0, 50.0, 20.0, 8.0, 3.0, 1.2, 0.5, 0.2, 0.08, 0.03])
]


def simulate_yaml(fading, eta, pt_prime, **simulate):
    return yaml.safe_dump({
        "schema_version": 1, "fading": fading, "eta": eta, "power": {"Pt_prime_W": pt_prime},
        "mac": yaml.safe_load(FIG1_YAML)["mac"],
        "simulate": dict(simulate, horizon=200_003, seed=97531),
    })


SIMULATE_CASES = {
    "two-state-waterfill": simulate_yaml(
        yaml.safe_load(FIG1_YAML)["fading"], 3.0, 1.0, d_m=0.3233, policy="waterfill"),
    "discrete12-waterfill": simulate_yaml(
        {"kind": "discrete", "states": TWELVE_STATES}, 3.0, 1.0, d_m=0.5, policy="waterfill"),
    # a small pi leaves many fades unserved, so relinquished periods occur
    "exponential-relinquish": simulate_yaml(
        {"kind": "exponential", "rate": 1.0}, 2.0, 0.05, d_m=1.0, policy="waterfill",
        relinquish_overhead_s=1.0e-4),
    "tab41-constant": simulate_yaml(
        {"kind": "tabulated", "csv": "tab41.csv"}, 2.0, 1.0, d_m=1.0, policy="constant",
        constant_power_W=1.0),
}

# stdout and the SHA-256 of the --trace file, as GOLDEN above.  The discrete
# runs' totals are exact sums of counts times rows, rounded once; each CI95
# is within 1.3e-15 of conftest.exact_ratio_ci over the run's periods
GOLDEN_SIMULATE = {
    'discrete12-waterfill': (
        '{"elapsed_time_s": 140.34598, "horizon": 200003, "periods": {"collision": 20056, "idle": 119979, "success": 59968}, "power_ci95_w": 0.0046080893342856245, "power_hat_w": 0.877673420286697, "seed": 97531, "theta_ci95_bps": 25117.062936127753, "theta_hat_bps": 3192655.706654683, "total_bits": 448076393.953044, "total_energy_j": 123.17793629008837}\n',
        'a64a628b818b003724e4d608ea963827f86607e402260edea6c423cde2895eb0',
    ),
    'exponential-relinquish': (
        '{"elapsed_time_s": 52.21828, "horizon": 200003, "periods": {"collision": 20056, "idle": 119979, "success": 59968}, "power_ci95_w": 0.0012306405091079835, "power_hat_w": 0.18603878654481223, "seed": 97531, "theta_ci95_bps": 5002.572788072146, "theta_hat_bps": 337287.285181931, "total_bits": 17612561.898069922, "total_energy_j": 9.714625446657237}\n',
        '93cb7e8487a4c6fb8e8109b86a52137cae66ce532cc5ebe11d06aec3d04a290e',
    ),
    'tab41-constant': (
        '{"elapsed_time_s": 140.34598, "horizon": 200003, "periods": {"collision": 20056, "idle": 119979, "success": 59968}, "power_ci95_w": 0.000605772119988184, "power_hat_w": 0.8810801634646037, "seed": 97531, "theta_ci95_bps": 4196.450356333571, "theta_hat_bps": 738076.7329897513, "total_bits": 103586102.40664497, "total_energy_j": 123.656059}\n',
        'd3001d523a35e0eb625598dfece97d6efaa067c5bca3ece145b97f7a93780e8a',
    ),
    'two-state-waterfill': (
        '{"elapsed_time_s": 140.34598, "horizon": 200003, "periods": {"collision": 20056, "idle": 119979, "success": 59968}, "power_ci95_w": 0.0006077176743407092, "power_hat_w": 0.8811389262474554, "seed": 97531, "theta_ci95_bps": 6077.631578415386, "theta_hat_bps": 3473722.7146021607, "total_bits": 487523018.62910056, "total_energy_j": 123.66430612034685}\n',
        '7e2b8aafdf0047918964e810e48859529d919b5f2e9f6b5d843ec5d620b5f009',
    ),
}


class TestGoldenBytes:
    """Seeded outputs stay byte-identical across refactors."""

    @pytest.mark.parametrize("command", ["optimize", "stationary-points"])
    @pytest.mark.parametrize("name", ["exponential", "fig1-discrete", "tabulated"])
    def test_outputs_are_byte_identical(self, name, command, tmp_path, capsys):
        (tmp_path / "bimodal.csv").write_text(BIMODAL_CSV)
        cfg = tmp_path / "run.yaml"
        cfg.write_text({"exponential": EXP_FIG2_YAML, "fig1-discrete": FIG1_YAML,
                        "tabulated": BIMODAL_YAML}[name])
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        stdout, csv_text = GOLDEN[name, command]
        assert capsys.readouterr().out == stdout
        assert out.read_bytes() == csv_text.encode()

    @pytest.mark.parametrize("command", sorted(GOLDEN_BITS))
    def test_bits_outputs_are_byte_identical(self, command, fig1_cfg, tmp_path, capsys):
        out = tmp_path / "out.csv"
        extra = ["--out", str(out)] if command == "optimize" else ["--grid", "0.05:50:6"]
        assert main([command, "--config", str(fig1_cfg), "--bits"] + extra) == 0
        stdout, csv_text = GOLDEN_BITS[command]
        assert capsys.readouterr().out == stdout
        if csv_text is not None:
            assert out.read_bytes() == csv_text.encode()

    @pytest.mark.parametrize("name", sorted(SIMULATE_CASES))
    def test_simulate_outputs_are_byte_identical(self, name, tmp_path, capsys):
        (tmp_path / "tab41.csv").write_text(TAB41_CSV)
        cfg = tmp_path / "run.yaml"
        cfg.write_text(SIMULATE_CASES[name])
        out, trace = tmp_path / "sim.json", tmp_path / "trace.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--trace", str(trace)]) == 0
        stdout, digest = GOLDEN_SIMULATE[name]
        assert capsys.readouterr().out == stdout
        assert out.read_text() == stdout
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == digest


# -- hostile inputs --------------------------------------------------------------

SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 0.0)
# powers of ten from the subnormals to the top of the range: a rate and an
# alpha_over_sigma2 drawn from here have ratios from 1e-631 to 1e631
MAGNITUDES = st.one_of(st.integers(-323, 308).map(lambda e: float(f"1e{e}")),
                       st.sampled_from([5e-324, 1e308, 1.0, 3.0]))
BIMODAL_NODES = [tuple(map(float, row.split(","))) for row in BIMODAL_CSV.split()[1:]]
MAC = {"p_idle": 0.6, "p_collision": 0.1, "p_success": 0.3, "T_idle_s": 2e-5,
       "T_collision_s": 3e-4, "T_overhead_s": 2e-4, "T_txop_s": 2e-3, "W_hz": 1e6}


@st.composite
def hostile_runs(draw):
    """(config mapping, CSV text or None, argv): every number of the schema at an
    extreme magnitude, and one of them, or none, NaN, +-inf, -0.0, 0.0 or any float.

    Half the ``simulate`` runs are moderate instead: a valid ``simulate``
    section and flags and no special value, so that the run can reach the
    simulator; every other number still takes an extreme magnitude.

    Now and then an integer that sizes a run (points, periods, tuples) lies
    at or past its cap: past it anywhere, where it exits 2 at once, and at it
    only where the command does not use it, so that no run works that long."""
    num = lambda: draw(MAGNITUDES)

    def sized(small, cap, used):
        if draw(st.integers(0, 15)) < 15:
            return draw(small)
        return draw(st.sampled_from([cap + 1, 10**30] + ([] if used else [cap])))

    command = draw(st.sampled_from(["waterfill", "optimize", "stationary-points", "sweep",
                                    "simulate", "single-cell-bound", "compare-ftt"]))
    moderate = command == "simulate" and draw(st.booleans())
    kind = draw(st.sampled_from(["exponential", "discrete", "tabulated"]))
    fading = {"kind": kind, "alpha_over_sigma2": num()}
    numbers = [(fading, "alpha_over_sigma2")]
    csv_text = None
    if kind == "exponential":
        fading["rate"] = num()
        numbers.append((fading, "rate"))
    elif kind == "discrete":
        probs = draw(st.sampled_from([[1.0], [0.25, 0.75]]))
        fading["states"] = [{"gain": num(), "prob": p} for p in probs]
        numbers += [(state, key) for state in fading["states"] for key in ("gain", "prob")]
    else:
        # the bimodal density of H*s, which stays normalised while s*h and a/s are floats
        s = num()
        fading["csv"] = "density.csv"
        csv_text = "h,a\n" + "".join(f"{h * s!r},{a / s!r}\n" for h, a in BIMODAL_NODES)
    d_min, d_max = sorted([num(), num()])
    power = {draw(st.sampled_from(["Pt_prime_W", "P_bar_W"])): num()}
    mac = dict(MAC, E_idle_J=num(), E_collision_J=num(), E_overhead_J=num())
    # two power factors, or two powers, take a section at its cap past the row cap
    sweep = {"d_min_m": d_min, "d_max_m": d_max,
             "points": sized(st.integers(1, 4), MAX_POINTS, used=command == "sweep"),
             "power_factors": [num() for _ in range(draw(st.integers(1, 2)))]}
    policy = draw(st.sampled_from(["waterfill", "constant"]))
    if moderate:
        simulate = {"d_m": draw(st.sampled_from([0.1, 0.3233, 1.0, 3.0])),
                    "horizon": draw(st.integers(1, 20_000)), "seed": draw(st.integers(0, 2**32)),
                    "policy": policy, "constant_power_W": draw(st.sampled_from([1e-3, 1.0, 10.0]))}
    else:
        simulate = {"d_m": num(), "horizon": sized(st.integers(1, 200), MAX_HORIZON, command == "simulate"), "seed": 3,
                    "policy": policy, "constant_power_W": num()}
    # left out, or inside [0, mac.T_txop_s], so the simulator's own rule passes
    relinquish = draw(st.sampled_from([None, 0.0, 1e-4, 2e-3]))
    if relinquish is not None:
        simulate["relinquish_overhead_s"] = relinquish
    # a scalar power_W reads as a list of one
    bound = {"area_m2": num(), "noise_W": num(),
             "power_W": draw(st.sampled_from([[num()], num(), [num(), num()]])),
             "K_min": draw(st.integers(2, 50)), "K_max": 50,
             "points": sized(st.just(3), MAX_POINTS, used=command == "single-cell-bound")}
    config = {"schema_version": 1, "fading": fading,
              "eta": draw(st.sampled_from([3.0, 2.0, 1.001, 0.5]) | MAGNITUDES),
              "d0_m": num(), "power": power, "mac": mac, "sweep": sweep, "simulate": simulate,
              "bound": bound}
    numbers += [(config, "eta"), (config, "d0_m"), (power, next(iter(power))),
                (sweep, "d_min_m"), (sweep, "d_max_m"), (simulate, "d_m"),
                (simulate, "constant_power_W"), (simulate, "relinquish_overhead_s"),
                (bound, "area_m2"), (bound, "noise_W")]
    numbers += [(mac, key) for key in ("E_idle_J", "E_collision_J", "E_overhead_J")]
    target = None if moderate else draw(st.sampled_from([None] + numbers))
    if target is not None:
        mapping, key = target
        mapping[key] = draw(st.sampled_from(SPECIAL) | st.floats())
    any_float = lambda: draw(MAGNITUDES | st.sampled_from(SPECIAL) | st.floats())
    # small horizons only: every period allocates
    seeds, horizons = (st.sampled_from([-1, 0, 3, 2**64]),
                       st.sampled_from([-1, 0, 1, 200, MAX_HORIZON + 1, 10**30]))
    if moderate:
        seeds, horizons = st.sampled_from([0, 3]), st.sampled_from([1, 200])
    argv = [command] + (["--config", "run.yaml"] if command != "compare-ftt" else [])
    if command == "waterfill":
        argv.append(f"--pi={any_float()!r}")
    elif command == "simulate":
        argv += [f"--{key}={draw(values)}" for key, values in
                 (("seed", seeds), ("horizon", horizons)) if draw(st.booleans())]
    elif command == "compare-ftt":
        argv += [f"--seed={draw(seeds)}"] if draw(st.booleans()) else []
        explicit = draw(st.booleans())  # one given tuple: --count is read, not used
        if explicit:
            argv += [f"--{key}={any_float()!r}" for key in ("h1", "h2", "p1", "p2")]
        if draw(st.booleans()):
            argv.append(f"--count={sized(st.sampled_from([1, 3]), MAX_TUPLES, used=not explicit)}")
    return config, csv_text, argv


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(run=hostile_runs())
def test_hostile_inputs_end_in_an_exit_code(run):
    config, csv_text, argv = run
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.yaml"
        cfg.write_text(yaml.safe_dump(config))
        if csv_text is not None:
            (Path(tmp) / "density.csv").write_text(csv_text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(cfg) if arg == "run.yaml" else arg for arg in argv])
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


# -- the names perfbench traces ---------------------------------------------------------

_RUN_PY = Path(__file__).parents[1] / "perfbench" / "run.py"
# the per-layer names of perfbench/run.py whose functions are gone, so that
# their metrics read 0 on every run; the set may shrink, and no name may join it
DEAD_TRACED_NAMES = {
    "fading.integrate_against_density", "waterfill.expected_power", "waterfill.optimal_rate",
    "discrete.stationary_points_discrete", "hopopt.check_monotonicity_condition",
    "hopopt.gamma_and_lambda", "hopopt.psi",
}


def perfbench_traced_names():
    """``(names, methods)`` of perfbench/run.py, read from its source.

    ``names`` are the `_TIMED` entries and the first argument of each
    ``get("<name>", ...)``; ``methods`` are the ``(class, attribute, span
    name)`` triples passed to ``install(methods=...)``, the class resolved
    through run.py's own ``from ... import``.
    """
    import importlib

    tree = ast.parse(_RUN_PY.read_text(encoding="utf-8"))
    origin = {alias.asname or alias.name: node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    (timed,) = [node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                and [getattr(target, "id", None) for target in node.targets] == ["_TIMED"]]
    names = {elt.value for elt in timed.elts} | {
        node.args[0].value for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "get"
        and node.args and isinstance(node.args[0], ast.Constant)}
    methods = [
        (getattr(importlib.import_module(origin[cls.id]), cls.id), attr.value, label.value)
        for node in ast.walk(tree) if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "install"
        for keyword in node.keywords if keyword.arg == "methods"
        for cls, attr, label in (elt.elts for elt in keyword.value.elts)]
    return names, methods


def test_perfbench_traces_methods_that_exist():
    # the tracer reads `cls.__dict__[attr]`: a missing method fails `--trace 1` with a KeyError
    _, methods = perfbench_traced_names()
    assert {(cls.__name__, attr) for cls, attr, _ in methods} >= {
        ("FadingModel", "sample_h"), ("FadingModel", "tabulated_from_csv")}
    for cls, attr, _ in methods:
        assert attr in cls.__dict__, (cls.__name__, attr)


def test_perfbench_names_resolve_but_the_known_dead_ones():
    # a span name `<module>.<function>` is that public function of hopcap.<module>,
    # as the tracer labels it, or a traced method's name; a rename in src that
    # zeroes another per-layer metric fails here
    import importlib
    import inspect

    names, methods = perfbench_traced_names()
    labels = {label for _, _, label in methods}

    def resolves(name):
        module, _, attr = name.partition(".")
        try:
            mod = importlib.import_module(f"hopcap.{module}")
        except ImportError:
            return False
        obj = vars(mod).get(attr)
        return inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_")

    assert {"simulator.run", "waterfill.solve", "cli.main"} <= names
    assert {name for name in names if name not in labels and not resolves(name)} <= DEAD_TRACED_NAMES
