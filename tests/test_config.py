"""The config schema's rules, as a run sees them: exit 2 with the exact message, or the same run."""

import ast
import copy
import re
from pathlib import Path

import pytest
import yaml

from hopcap import macmodel
from hopcap.cli import main
from hopcap import config
from hopcap.config import SECTIONS, _finite, parse_config
from hopcap.macmodel import MacProfile

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


# each fading kind's own key, with a value that it reads
OWN_KEYS = {"exponential": {"rate": 1.0}, "discrete": {"states": FULL["fading"]["states"]},
            "tabulated": {"csv": "uniform.csv"}}


@pytest.mark.parametrize("kind, other", [(kind, other) for kind in OWN_KEYS
                                         for other in OWN_KEYS if other != kind])
def test_another_kinds_key_is_an_unknown_key(kind, other, tmp_path, capsys):
    (tmp_path / "uniform.csv").write_text("h,a\n0,0.5\n2,0.5\n")
    fading = {"kind": kind, **OWN_KEYS[kind], **OWN_KEYS[other]}
    cfg = write(tmp_path, edited(lambda raw: raw.__setitem__("fading", fading)))
    (key,) = OWN_KEYS[other]
    assert error_of(["waterfill", "--config", str(cfg), "--pi", "1"], capsys) \
        == f"error: fading.{key}: unknown key\n"


def test_a_non_string_key_is_an_unknown_key(tmp_path, capsys):
    # YAML reads `1:` as an int key, which must not be compared with a string key
    raw = edited(lambda raw: raw["mac"].update({1: 2, "a": 3}))
    cfg = write(tmp_path, yaml.safe_dump(raw, sort_keys=False))
    assert error_of(["optimize", "--config", str(cfg)], capsys) == "error: mac.1: unknown key\n"


def _set(section, key, value):
    return lambda raw: raw[section].__setitem__(key, value)


@pytest.mark.parametrize("command, change, message", [
    ("waterfill", _set("power", "P_bar_W", 0.5),
     "power: Pt_prime_W and P_bar_W are mutually exclusive"),
    ("optimize", lambda raw: (raw.pop("mac"), raw.__setitem__("power", {"P_bar_W": 0.5})),
     "power.P_bar_W requires a mac section"),
    ("waterfill", lambda raw: raw.__setitem__("schema_version", 2),
     "schema_version: expected 1, got 2"),
    ("waterfill", lambda raw: raw.__setitem__("schema_version", True),
     "schema_version: expected 1, got True"),
    ("waterfill", lambda raw: raw.__setitem__("schema_version", 1.0),
     "schema_version: expected 1, got 1.0"),
    ("waterfill", _set("sweep", "d_max_m", 0.05), "sweep: d_max_m must exceed d_min_m"),
    ("waterfill", lambda raw: raw["bound"].update(K_min=1001, K_max=1000),
     "bound: K_max must be >= K_min"),
    ("waterfill", _set("simulate", "policy", "constant"),
     "simulate.constant_power_W is required for the constant policy"),
    ("waterfill", _set("simulate", "policy", "greedy"),
     "simulate.policy: expected waterfill | constant, got 'greedy'"),
    ("simulate", _set("simulate", "relinquish_overhead_s", 0.0025),
     "simulate.relinquish_overhead_s = 0.0025 exceeds mac.T_txop_s = 0.002"),
], ids=["pt-and-p-bar", "p-bar-without-mac", "schema-version", "schema-version-true",
        "schema-version-float", "d-max-not-above-d-min",
        "k-max-below-k-min", "constant-without-power", "unknown-policy",
        "relinquish-above-txop"])
def test_inconsistent_config_names_the_rule(command, change, message, tmp_path, capsys):
    cfg = write(tmp_path, edited(change))
    extra = ["--pi", "1"] if command == "waterfill" else []
    assert error_of([command, "--config", str(cfg), *extra], capsys) == f"error: {message}\n"


@pytest.mark.parametrize("command, change, message", [
    ("waterfill", lambda raw: raw.pop("fading"), "fading: required section is missing"),
    ("waterfill", lambda raw: raw["fading"].update(states=[]),
     "fading.states: need a non-empty list of {gain, prob}"),
    ("waterfill", lambda raw: raw.__setitem__("fading", {"kind": "tabulated"}),
     "fading.csv: path to a two-column CSV is required"),
    ("waterfill", lambda raw: raw.__setitem__("mac", 3), "mac: expected a mapping"),
    # a config may leave power out; a command that needs the power budget may not
    ("optimize", lambda raw: raw.pop("power"), "power: provide Pt_prime_W or P_bar_W"),
], ids=["no-fading", "no-states", "tabulated-without-csv", "mac-not-a-mapping",
        "optimize-without-power"])
def test_missing_or_malformed_section_is_named(command, change, message, tmp_path, capsys):
    cfg = write(tmp_path, edited(change))
    extra = ["--pi", "1"] if command == "waterfill" else []
    assert error_of([command, "--config", str(cfg), *extra], capsys) == f"error: {message}\n"


def test_each_section_record_is_built_from_its_keys():
    # the table is the one declaration of a flat section: config.py defines no
    # record class beside it, and each record's fields are its keys in table order
    path = Path(__file__).resolve().parents[1] / "src" / "hopcap" / "config.py"
    classes = {node.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef)}
    assert classes == {"Rule", "Section", "RunConfig"}
    cfg = parse_config(FULL)
    records = {name: getattr(cfg, name) for name in ("power", "sweep", "simulate", "bound")}
    records["fading.states"] = SECTIONS["fading.states"].record(0.5, 0.99)
    for name, record in records.items():
        assert record._fields == tuple(SECTIONS[name]), name
    assert SECTIONS["mac"].record is MacProfile and type(cfg.profile) is MacProfile
    assert set(SECTIONS) - set(records) == {"mac"}


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


# -- every key's own rule -----------------------------------------------------

REQUIRED = object()
POSITIVE = [(0, "must be > 0, got 0.0"), (-2.5, "must be > 0, got -2.5"),
            (float("inf"), "must be finite, got inf"), ("x", "expected a number, got 'x'")]
NONNEGATIVE = [(-1, "must be >= 0, got -1.0"), (float("nan"), "must be finite, got nan"),
               ([1.0], "expected a number, got [1.0]")]


def at_least(minimum):
    return [(minimum - 1, f"must be >= {minimum}, got {minimum - 1}"),
            (1.5, "expected an integer, got 1.5"), (True, "expected an integer, got True")]


POSITIVE_LIST = [([], "need a non-empty list of numbers"), ([1.0, 0], "[1]: must be > 0, got 0.0"),
                 (["x"], "[0]: expected a number, got 'x'")]
# FULL with every optional key given, none at its default
EVERY_KEY = edited(lambda raw: (raw["simulate"].update(policy="constant", constant_power_W=0.5,
                                                       relinquish_overhead_s=1e-4),
                                raw["sweep"].update(power_factors=[1.0, 4.0]),
                                raw["bound"].update(K_min=3, K_max=50_000),
                                raw["fading"].update(alpha_over_sigma2=2.0),
                                raw.update(d0_m=0.1)))
# path: (default, or REQUIRED; the record field it fills; the values that break its rule)
KEYS = {
    "fading.kind": (REQUIRED, None, [
        ("rayleigh", "expected exponential | discrete | tabulated, got 'rayleigh'")]),
    "fading.alpha_over_sigma2": (1.0, lambda c: c.model.alpha_over_sigma2, POSITIVE),
    "fading.states[1].gain": (REQUIRED, None, POSITIVE),
    "fading.states[1].prob": (REQUIRED, None, POSITIVE),
    "eta": (REQUIRED, None, POSITIVE),
    "d0_m": (0.0, lambda c: c.d0, NONNEGATIVE),
    # the power section needs one of its two keys
    "power.Pt_prime_W": (REQUIRED, None, POSITIVE),
    "power.P_bar_W": (REQUIRED, None, POSITIVE),
    **{f"mac.{key}": (REQUIRED, None, NONNEGATIVE)
       for key in ("p_idle", "p_collision", "T_idle_s", "T_collision_s", "T_overhead_s")},
    **{f"mac.{key}": (REQUIRED, None, POSITIVE) for key in ("p_success", "T_txop_s", "W_hz")},
    **{f"mac.E_{name}_J": (0.0, lambda c, name=name: getattr(c.profile, f"e_{name}"), NONNEGATIVE)
       for name in ("idle", "collision", "overhead")},
    "sweep.d_min_m": (REQUIRED, None, POSITIVE),
    "sweep.d_max_m": (REQUIRED, None, POSITIVE),
    "sweep.points": (REQUIRED, None, at_least(1)),
    "sweep.power_factors": ((1.0,), lambda c: c.sweep.power_factors,
                            POSITIVE_LIST + [({"a": 1}, "need a non-empty list of numbers"),
                                             (2.0, "need a non-empty list of numbers")]),
    "simulate.d_m": (REQUIRED, None, POSITIVE),
    "simulate.horizon": (REQUIRED, None, at_least(1)),
    "simulate.seed": (REQUIRED, None, at_least(0)),
    "simulate.policy": ("waterfill", lambda c: c.simulate.policy, [
        ("greedy", "expected waterfill | constant, got 'greedy'"),
        (None, "expected waterfill | constant, got None")]),
    "simulate.constant_power_W": (None, lambda c: c.simulate.constant_power_W, POSITIVE),
    "simulate.relinquish_overhead_s": (None, lambda c: c.simulate.relinquish_overhead_s,
                                       NONNEGATIVE),
    "bound.area_m2": (REQUIRED, None, POSITIVE),
    "bound.noise_W": (REQUIRED, None, POSITIVE),
    # a value that is not a list reads as a list of one
    "bound.power_W": ((0.1,), lambda c: c.bound.power_W,
                      POSITIVE_LIST + [({"a": 1}, "[0]: expected a number, got {'a': 1}"),
                                       (0, "[0]: must be > 0, got 0.0")]),
    "bound.K_min": (2, lambda c: c.bound.K_min, at_least(2)),
    "bound.K_max": (100_000, lambda c: c.bound.K_max, at_least(2)),
    "bound.points": (200, lambda c: c.bound.points, at_least(2)),
}


def locate(raw, path):
    """The mapping that holds the key at the dotted ``path``, and that key."""
    *outer, key = path.replace("[1]", ".1").split(".")
    for step in outer:
        raw = raw[int(step) if step.isdigit() else step]
    return raw, key


def with_key(path, change):
    """EVERY_KEY after ``change(mapping, key)`` at ``path``; P_bar_W stands in for Pt_prime_W."""
    raw = copy.deepcopy(EVERY_KEY)
    if path == "power.P_bar_W":
        raw["power"] = {"P_bar_W": 0.5}
    if path == "simulate.constant_power_W":
        raw["simulate"]["policy"] = "waterfill"  # the constant policy needs its power
    change(*locate(raw, path))
    return raw


def test_every_key_of_the_readme_example_has_a_rule():
    readme = {"fading.kind", "fading.alpha_over_sigma2", "eta", "d0_m", "power.Pt_prime_W"}
    for section in ("mac", "sweep", "simulate", "bound"):
        readme |= {f"{section}.{key}" for key in FULL[section]}
    readme |= {f"fading.states[1].{key}" for key in FULL["fading"]["states"][1]}
    assert readme <= set(KEYS)


@pytest.mark.parametrize("path", [path for path, (default, _, _) in KEYS.items()
                                  if default is REQUIRED])
def test_deleted_required_key_is_named(path, tmp_path, capsys):
    cfg = write(tmp_path, with_key(path, lambda mapping, key: mapping.pop(key)))
    message = {
        # the kind switch sees no kind, and power needs one of its two keys
        "fading.kind": "fading.kind: expected exponential | discrete | tabulated, got None",
        "power.Pt_prime_W": "power: provide Pt_prime_W or P_bar_W",
        "power.P_bar_W": "power: provide Pt_prime_W or P_bar_W",
    }.get(path, f"{path}: required value is missing")
    assert error_of(["waterfill", "--config", str(cfg), "--pi", "1"], capsys) \
        == f"error: {message}\n"


@pytest.mark.parametrize("path", [path for path, (default, _, _) in KEYS.items()
                                  if default is not REQUIRED])
def test_deleted_optional_key_takes_its_default(path):
    default, field, _ = KEYS[path]
    assert field(parse_config(with_key(path, lambda mapping, key: None))) != default
    assert field(parse_config(with_key(path, lambda mapping, key: mapping.pop(key)))) == default


def test_scalar_power_reads_as_a_list_of_one():
    raw = with_key("bound.power_W", lambda mapping, key: mapping.__setitem__(key, 0.5))
    assert parse_config(raw).bound.power_W == (0.5,)


@pytest.mark.parametrize("path, value, message", [
    (path, value, message) for path, (_, _, bad) in KEYS.items() for value, message in bad])
def test_value_breaking_the_rule_is_named(path, value, message, tmp_path, capsys):
    cfg = write(tmp_path, with_key(path, lambda mapping, key: mapping.__setitem__(key, value)))
    sep = "" if message.startswith("[") else ": "
    assert error_of(["waterfill", "--config", str(cfg), "--pi", "1"], capsys) \
        == f"error: {path}{sep}{message}\n"


# the integer keys that size a run, each with its cap; README's key table gives them
CAPS = {"sweep.points": 100_000, "bound.points": 100_000, "simulate.horizon": 10**9}


def test_the_caps_are_pinned():
    assert (config.MAX_POINTS, config.MAX_HORIZON, config.MAX_TUPLES) == (100_000, 10**9, 100_000)
    # the integer keys with a cap, read from the rules; K_min and K_max only
    # bound the values of bound's points, and a seed sizes nothing
    caps = {f"{name}.{key}": rule.read.keywords.get("maximum")
            for name, section in SECTIONS.items() for key, rule in section.items()
            if getattr(rule.read, "func", None) is config._integer}
    assert caps == dict(CAPS, **{"simulate.seed": None, "bound.K_min": None, "bound.K_max": None})


# each value of a sweep's power factors or a bound's powers repeats every point
ROWS = {"sweep": "power_factors", "bound": "power_W"}


@pytest.mark.parametrize("path", sorted(CAPS))
def test_a_value_at_the_cap_is_read(path):
    section, _, key = path.partition(".")

    def at_cap(mapping, name):
        mapping[name] = CAPS[path]
        if section in ROWS:  # one value, so that the rows are at their cap too
            mapping[ROWS[section]] = [1.0]

    raw = with_key(path, at_cap)
    assert getattr(getattr(parse_config(raw), section), key) == CAPS[path]


@pytest.mark.parametrize("path", sorted(CAPS))
@pytest.mark.parametrize("past", [1, 10**30], ids=["one", "1e30"])
def test_a_value_past_the_cap_is_named(path, past, tmp_path, capsys):
    value = CAPS[path] + past
    cfg = write(tmp_path, with_key(path, lambda mapping, key: mapping.__setitem__(key, value)))
    assert error_of(["waterfill", "--config", str(cfg), "--pi", "1"], capsys) \
        == f"error: {path}: must be <= {CAPS[path]}, got {value}\n"


@pytest.mark.parametrize("section", sorted(ROWS))
@pytest.mark.parametrize("points, values", [(100_000, 1), (50_000, 2), (25_000, 4), (2, 50_000)])
def test_rows_at_the_cap_are_read(section, points, values):
    raw = edited(lambda raw: raw[section].update(
        {"points": points, ROWS[section]: [1.0 + i for i in range(values)]}))
    record = getattr(parse_config(raw), section)
    assert record.points * len(getattr(record, ROWS[section])) == config.MAX_POINTS


@pytest.mark.parametrize("section", sorted(ROWS))
@pytest.mark.parametrize("points, values", [(50_001, 2), (25_001, 4), (33_334, 3), (2, 50_001)])
def test_rows_past_the_cap_are_named(section, points, values, tmp_path, capsys):
    cfg = write(tmp_path, edited(lambda raw: raw[section].update(
        {"points": points, ROWS[section]: [1.0 + i for i in range(values)]})))
    assert error_of(["waterfill", "--config", str(cfg), "--pi", "1"], capsys) == (
        f"error: {section}: points * len({ROWS[section]}) must be <= 100000, got {points} * {values}\n")


# -- the README's config section ---------------------------------------------

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
CONFIG_DOCS = README.split("### Config file", 1)[1].split("\n### ", 1)[0]


def test_readme_example_parses():
    example = re.search(r"```yaml\n(.*?)```", CONFIG_DOCS, re.S).group(1)
    cfg = parse_config(yaml.safe_load(example))
    assert cfg.sweep.power_factors == (1.0, 4.0, 9.0) and cfg.bound.points == 300


def test_readme_key_table_names_every_key():
    documented = {name for cell in re.findall(r"^\| (`.*?) \|", CONFIG_DOCS, re.M)
                  for name in re.findall(r"`(.+?)`", cell)}
    table = {f"{section}.{key}".replace("states.", "states[i].")
             for section, keys in SECTIONS.items() for key in keys}
    assert table <= documented
