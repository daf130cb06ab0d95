"""The config schema's rules, as a run sees them: exit 2 with the exact message, or the same run."""

import copy

import pytest
import yaml

from hopcap import macmodel
from hopcap.cli import main
from hopcap.config import _finite, parse_config

# every section present, so that each section's key check runs on load
FULL = {
    "schema_version": 1,
    "fading": {"kind": "discrete", "alpha_over_sigma2": 1.0,
               "states": [{"gain": 100.0, "prob": 0.01}, {"gain": 0.5, "prob": 0.99}]},
    "eta": 3.0,
    "power": {"Pt_prime_W": 1.0},
    "mac": {"p_idle": 0.6, "p_collision": 0.1, "p_success": 0.3, "T_idle_s": 2e-5,
            "T_collision_s": 3e-4, "T_overhead_s": 2e-4, "T_txop_s": 2e-3, "W_hz": 1e6,
            "E_idle_J": 1e-6, "E_collision_J": 3e-5, "E_overhead_J": 5e-5},
    "sweep": {"d_min_m": 0.05, "d_max_m": 50.0, "points": 60},
    "simulate": {"d_m": 0.3233, "horizon": 50000, "seed": 97531, "policy": "waterfill"},
    "bound": {"area_m2": 450.0, "noise_W": 1e-10, "power_W": [0.1, 100.0],
              "K_min": 2, "K_max": 100000, "points": 30},
}


def write(tmp_path, raw, name="run.yaml"):
    path = tmp_path / name
    path.write_text(raw if isinstance(raw, str) else yaml.safe_dump(raw))
    return path


def edited(change):
    """A deep copy of FULL after ``change(copy)``."""
    raw = copy.deepcopy(FULL)
    change(raw)
    return raw


def error_of(argv, capsys):
    """The stderr of a run of ``argv`` that must exit 2."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_full_config_is_accepted(tmp_path, capsys):
    assert main(["waterfill", "--config", str(write(tmp_path, FULL)), "--pi", "1"]) == 0


@pytest.mark.parametrize("section, path", [
    (lambda raw: raw, "typo"),
    (lambda raw: raw["fading"], "fading.typo"),
    (lambda raw: raw["fading"]["states"][1], "fading.states[1].typo"),
    (lambda raw: raw["mac"], "mac.typo"),
    (lambda raw: raw["power"], "power.typo"),
    (lambda raw: raw["sweep"], "sweep.typo"),
    (lambda raw: raw["simulate"], "simulate.typo"),
    (lambda raw: raw["bound"], "bound.typo"),
], ids=["top", "fading", "fading-state", "mac", "power", "sweep", "simulate", "bound"])
def test_unknown_key_is_rejected(section, path, tmp_path, capsys):
    cfg = write(tmp_path, edited(lambda raw: section(raw).update(typo=1)))
    assert error_of(["waterfill", "--config", str(cfg), "--pi", "1"], capsys) \
        == f"error: {path}: unknown key\n"


def _set(section, key, value):
    return lambda raw: raw[section].__setitem__(key, value)


@pytest.mark.parametrize("command, change, message", [
    ("waterfill", _set("power", "P_bar_W", 0.5),
     "power: Pt_prime_W and P_bar_W are mutually exclusive"),
    ("optimize", lambda raw: (raw.pop("mac"), raw.__setitem__("power", {"P_bar_W": 0.5})),
     "power.P_bar_W requires a mac section"),
    ("waterfill", lambda raw: raw.__setitem__("schema_version", 2),
     "schema_version: expected 1, got 2"),
    ("waterfill", _set("sweep", "d_max_m", 0.05), "sweep: d_max_m must exceed d_min_m"),
    ("waterfill", lambda raw: raw["bound"].update(K_min=1001, K_max=1000),
     "bound: K_max must be >= K_min"),
    ("waterfill", _set("simulate", "policy", "constant"),
     "simulate.constant_power_W is required for the constant policy"),
    ("waterfill", _set("simulate", "policy", "greedy"),
     "simulate.policy: expected waterfill | constant, got 'greedy'"),
], ids=["pt-and-p-bar", "p-bar-without-mac", "schema-version", "d-max-not-above-d-min",
        "k-max-below-k-min", "constant-without-power", "unknown-policy"])
def test_inconsistent_config_names_the_rule(command, change, message, tmp_path, capsys):
    cfg = write(tmp_path, edited(change))
    extra = ["--pi", "1"] if command == "waterfill" else []
    assert error_of([command, "--config", str(cfg), *extra], capsys) == f"error: {message}\n"


def test_top_level_must_be_a_mapping(tmp_path, capsys):
    cfg = write(tmp_path, "- 1\n- 2\n")
    assert error_of(["optimize", "--config", str(cfg)], capsys) \
        == f"error: {cfg}: top level must be a mapping\n"


def test_yaml_parse_error_is_reported(tmp_path, capsys):
    text = "schema_version: 1\nfading: {kind: discrete\n"
    cfg = write(tmp_path, text)
    with pytest.raises(yaml.YAMLError) as parse:
        yaml.safe_load(text)
    assert error_of(["optimize", "--config", str(cfg)], capsys) \
        == f"error: {cfg}: YAML parse error: {parse.value}\n"


def test_missing_config_file_is_reported(tmp_path, capsys):
    cfg = tmp_path / "absent.yaml"
    assert error_of(["optimize", "--config", str(cfg)], capsys) \
        == f"error: cannot read config {cfg}: [Errno 2] No such file or directory: '{cfg}'\n"


def test_p_bar_runs_as_its_pt_prime(tmp_path, capsys):
    p_bar = 0.5
    by_p_bar = edited(lambda raw: raw.__setitem__("power", {"P_bar_W": p_bar}))
    pt_prime = macmodel.pt_prime(parse_config(by_p_bar).profile, p_bar)
    assert pt_prime != 1.0  # the two runs differ from FULL's own power
    by_pt = edited(lambda raw: raw.__setitem__("power", {"Pt_prime_W": pt_prime}))
    outputs = []
    for name, raw in (("p_bar", by_p_bar), ("pt", by_pt)):
        out = tmp_path / f"{name}.csv"
        assert main(["optimize", "--config", str(write(tmp_path, raw, f"{name}.yaml")),
                     "--out", str(out)]) == 0
        outputs.append((capsys.readouterr().out, out.read_bytes()))
    assert outputs[0] == outputs[1]


def test_yaml_1_1_exponent_without_sign_reads_as_a_number():
    # YAML 1.1 resolves 1.0e6 (no sign after the e) as a string, not a float
    raw = yaml.safe_load(yaml.safe_dump(FULL).replace("W_hz: 1000000.0", "W_hz: 1.0e6"))
    assert raw["mac"]["W_hz"] == "1.0e6"
    assert parse_config(raw).profile.bandwidth == 1e6
    assert _finite("1.0e6", "mac.W_hz") == 1e6
