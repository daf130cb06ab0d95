"""Run-configuration ingestion: YAML with a strict, unit-annotated schema.

Physical quantities carry their unit in the key name (``_W``, ``_s``,
``_hz``, ``_m``, ``_m2``, ``_J``).  Unknown keys are rejected with a
dotted field path so typos fail loudly instead of being ignored.

`SECTIONS` is the one declaration of the flat sections (``mac``, ``power``,
``sweep``, ``simulate``, ``bound`` and each ``fading.states[i]``).  Each
`Section` lists every key's reader, with the key's bounds bound in, and its
default; its record is a named tuple built from those keys, in table order
(``mac`` alone fills `MacProfile`, which checks itself), and its rule across
keys, such as ``d_max_m > d_min_m``, sits beside them.  `read_section`
checks a section's keys, reads every value and applies that rule; the
config file and the CLI's overrides are read through it alike.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import yaml

from .errors import ConfigError
from .fading import FadingModel
from .macmodel import MacProfile, pt_prime as _pt_prime

SCHEMA_VERSION = 1
_REQUIRED = object()  # the default of a key that has none

# the fading key that only this kind reads
_KIND_KEYS = {"exponential": "rate", "discrete": "states", "tabulated": "csv"}


def _finite(value, where: str, positive=False, nonnegative=False) -> float:
    """``value`` as a finite float; a ConfigError names ``where`` otherwise."""
    if isinstance(value, str):
        # YAML 1.1 reads "1.0e6" (no signed exponent) as a string
        try:
            value = float(value)
        except ValueError:
            raise ConfigError(f"{where}: expected a number, got {value!r}") from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{where}: must be finite, got {value}")
    if positive and value <= 0:
        raise ConfigError(f"{where}: must be > 0, got {value}")
    if nonnegative and value < 0:
        raise ConfigError(f"{where}: must be >= 0, got {value}")
    return value


def _integer(value, where: str, minimum=None, maximum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{where}: must be <= {maximum}, got {value}")
    return value


# Caps on the integers that size a run: its list of points or of tuples, or
# its chunk loop; MAX_POINTS caps a sweep's or a bound's rows too (`_rows`),
# its points times its power factors or powers.  Without them a huge value
# ends in a MemoryError or in hours of work instead of exit 2.  Each cap
# sits far above the documented workloads (600 sweep points, 1e7 periods,
# 1000 tuples).  Measured on a 2-vCPU machine: a sweep point takes 10 to 30
# us and 85 bytes of CSV per power factor, 1e8 periods 0.13 s (discrete) to
# 1.0 s (continuous), a compare-ftt tuple about 50 us; so a capped run takes
# seconds, up to about 10 s at 10**9 periods.
MAX_POINTS = 100_000
MAX_HORIZON = 10**9
MAX_TUPLES = 100_000


def _positives(values, where: str, scalar=False) -> tuple:
    """A non-empty list of finite numbers > 0 as a tuple; ``scalar`` lets one number stand alone."""
    if scalar and not isinstance(values, list):
        values = [values]
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{where}: need a non-empty list of numbers")
    return tuple(_finite(v, f"{where}[{i}]", positive=True) for i, v in enumerate(values))


def _rows(record, count: str, values: str):
    """The rest of a message when ``count`` times the length of ``values`` passes MAX_POINTS:
    each value repeats every point, so this is the run's row count."""
    n, k = getattr(record, count), len(getattr(record, values))
    return n * k > MAX_POINTS and f": {count} * len({values}) must be <= {MAX_POINTS}, got {n} * {k}"


def _choice(value, where: str, choices) -> str:
    if value not in choices:
        raise ConfigError(f"{where}: expected {' | '.join(choices)}, got {value!r}")
    return value


class Rule(NamedTuple):
    """How a key is read: ``read(value, where)``, or ``default`` when it is absent."""

    read: Callable
    default: object = _REQUIRED


class Section(dict):
    """A flat section: each key's `Rule`, in the field order of ``record``.

    ``record`` holds a read section; unless given, it is a named tuple whose
    fields are the keys.  ``tie``, the section's rule across its keys, takes
    the record and returns the rest of the message after the section's path
    when the record breaks it, and a false value otherwise.
    """

    def __init__(self, rules: dict, record=None, tie=lambda record: None):
        super().__init__(rules)
        self.record, self.tie = record or namedtuple("Record", rules), tie


_positive, _nonnegative = partial(_finite, positive=True), partial(_finite, nonnegative=True)
_POSITIVE, _NONNEGATIVE = Rule(_positive), Rule(_nonnegative)
SECTIONS = {
    "fading.states": Section({"gain": _POSITIVE, "prob": _POSITIVE}),
    "mac": Section({
        "p_idle": _NONNEGATIVE,
        "p_collision": _NONNEGATIVE,
        "p_success": _POSITIVE,
        "T_idle_s": _NONNEGATIVE,
        "T_collision_s": _NONNEGATIVE,
        "T_overhead_s": _NONNEGATIVE,
        "T_txop_s": _POSITIVE,
        "W_hz": _POSITIVE,
        "E_idle_J": Rule(_nonnegative, 0.0),
        "E_collision_J": Rule(_nonnegative, 0.0),
        "E_overhead_J": Rule(_nonnegative, 0.0),
    }, record=MacProfile),
    "power": Section(
        {"Pt_prime_W": Rule(_positive, None), "P_bar_W": Rule(_positive, None)},
        tie=lambda p: (": Pt_prime_W and P_bar_W are mutually exclusive" if None not in p
                       else ": provide Pt_prime_W or P_bar_W" if p == (None, None) else None)),
    "sweep": Section({
        "points": Rule(partial(_integer, minimum=1, maximum=MAX_POINTS)),
        "power_factors": Rule(_positives, (1.0,)),
        "d_min_m": _POSITIVE,
        "d_max_m": _POSITIVE,
    }, tie=lambda s: (s.d_max_m <= s.d_min_m and ": d_max_m must exceed d_min_m"
                      or _rows(s, "points", "power_factors"))),
    "simulate": Section({
        "policy": Rule(partial(_choice, choices=("waterfill", "constant")), "waterfill"),
        "constant_power_W": Rule(_positive, None),
        "relinquish_overhead_s": Rule(_nonnegative, None),
        "d_m": _POSITIVE,
        "horizon": Rule(partial(_integer, minimum=1, maximum=MAX_HORIZON)),
        "seed": Rule(partial(_integer, minimum=0)),
    }, tie=lambda s: (s.policy == "constant" and s.constant_power_W is None
                      and ".constant_power_W is required for the constant policy")),
    "bound": Section({
        "power_W": Rule(partial(_positives, scalar=True), (0.1,)),
        "K_min": Rule(partial(_integer, minimum=2), 2),
        "K_max": Rule(partial(_integer, minimum=2), 100_000),
        "area_m2": _POSITIVE,
        "noise_W": _POSITIVE,
        "points": Rule(partial(_integer, minimum=2, maximum=MAX_POINTS), 200),
    }, tie=lambda b: b.K_max < b.K_min and ": K_max must be >= K_min" or _rows(b, "points", "power_W")),
}
# the sections (fading by its states) and the top-level scalars
_TOP_KEYS = {name.partition(".")[0] for name in SECTIONS} | {"schema_version", "eta", "d0_m"}


class RunConfig(NamedTuple):
    """Validated run inputs; each section holds its `SECTIONS` record, or None when absent."""

    model: FadingModel
    eta: float
    d0: float
    profile: MacProfile | None
    power: tuple | None
    sweep: tuple | None
    simulate: tuple | None
    bound: tuple | None

    def resolve_pt_prime(self) -> float:
        """Per-transmission power budget, direct or derived from P_bar."""
        if self.power is None:
            raise ConfigError("power: provide Pt_prime_W or P_bar_W")
        if self.power.Pt_prime_W is not None:
            return self.power.Pt_prime_W
        if self.profile is None:
            raise ConfigError("power.P_bar_W requires a mac section")
        return _pt_prime(self.profile, self.power.P_bar_W)


def load_config(path) -> RunConfig:
    """Parse and validate a YAML run configuration."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: YAML parse error: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return parse_config(raw, base_dir=Path(path).parent)


def parse_config(raw: dict, base_dir: Path | None = None) -> RunConfig:
    _check_keys(raw, _TOP_KEYS, "")
    version = raw.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # the integer 1: not true, not 1.0
        raise ConfigError(
            f"schema_version: expected {SCHEMA_VERSION}, got {version!r}"
        )
    if "fading" not in raw:
        raise ConfigError("fading: required section is missing")
    model = _parse_fading(raw["fading"], base_dir)
    eta = _read(raw, "eta", _POSITIVE)
    d0 = _read(raw, "d0_m", Rule(_nonnegative, 0.0))

    records = {name: read_section(raw[name], name) if name in raw else None
               for name in SECTIONS if "." not in name}  # the top-level sections
    return RunConfig(model, eta, d0, profile=records.pop("mac"), **records)


def _parse_fading(section: dict, base_dir: Path | None) -> FadingModel:
    # checked twice: a key that no kind reads is reported first, before kind
    # and scale errors; a key of another kind once the kind is known
    _check_keys(section, {"kind", "alpha_over_sigma2", *_KIND_KEYS.values()}, "fading")
    scale = _read(section, "alpha_over_sigma2", Rule(_positive, 1.0), "fading")
    kind = _choice(section.get("kind"), "fading.kind", tuple(_KIND_KEYS))
    _check_keys(section, {"kind", "alpha_over_sigma2", _KIND_KEYS[kind]}, "fading")
    if kind == "exponential":
        return FadingModel.exponential(
            _read(section, "rate", _POSITIVE, "fading"), scale
        )
    if kind == "discrete":
        states = section.get("states")
        if not isinstance(states, list) or not states:
            raise ConfigError("fading.states: need a non-empty list of {gain, prob}")
        return FadingModel.discrete(
            [read_section(state, "fading.states", f"fading.states[{i}]")
             for i, state in enumerate(states)], scale)
    csv_path = section.get("csv")
    if not isinstance(csv_path, str):
        raise ConfigError("fading.csv: path to a two-column CSV is required")
    path = Path(csv_path)
    if base_dir is not None and not path.is_absolute():
        path = base_dir / path
    return FadingModel.tabulated_from_csv(path, scale)


def read_section(mapping, name: str, path: str | None = None):
    """``mapping`` as the record of ``SECTIONS[name]``, each key read by its rule, then tied.

    ``path``, the section's name by default, starts every message.
    """
    section, path = SECTIONS[name], path or name
    _check_keys(mapping, section.keys(), path)
    record = section.record(*[_read(mapping, key, rule, path) for key, rule in section.items()])
    broken = section.tie(record)
    if broken:
        raise ConfigError(path + broken)
    return record


def _read(mapping, key: str, rule: Rule, path: str = ""):
    where = f"{path}.{key}" if path else key
    if key in mapping:
        return rule.read(mapping[key], where)
    if rule.default is _REQUIRED:
        raise ConfigError(f"{where}: required value is missing")
    return rule.default


def _check_keys(mapping, allowed, path: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path or 'config'}: expected a mapping")
    unknown = set(mapping) - allowed
    if unknown:
        where = f"{path}." if path else ""
        raise ConfigError(f"{where}{min(unknown, key=str)}: unknown key")
