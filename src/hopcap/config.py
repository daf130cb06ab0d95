"""Run-configuration ingestion: YAML with a strict, unit-annotated schema.

Physical quantities carry their unit in the key name (``_W``, ``_s``,
``_hz``, ``_m``, ``_m2``, ``_J``).  Unknown keys are rejected with a
dotted field path so typos fail loudly instead of being ignored.

`SECTIONS` holds every key of the flat sections (``mac``, ``power``,
``sweep``, ``simulate``, ``bound`` and each ``fading.states[i]``): its
reader, with the key's bounds bound in, and its default, in the field
order of the record the section fills.  `_section` checks a section's keys
against it and reads every value; the rules that tie two keys together
are checked after that, in `parse_config`.
"""

from __future__ import annotations

import math
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import yaml

from .errors import ConfigError
from .fading import FadingModel
from .macmodel import MacProfile, pt_prime as _pt_prime

SCHEMA_VERSION = 1
_REQUIRED = object()  # the default of a key that has none

_TOP_KEYS = {
    "schema_version",
    "fading",
    "mac",
    "power",
    "eta",
    "d0_m",
    "sweep",
    "simulate",
    "bound",
}
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


def _integer(value, where: str, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {value}")
    return value


def _positives(values, where: str, scalar=False) -> tuple:
    """A non-empty list of finite numbers > 0 as a tuple; ``scalar`` lets one number stand alone."""
    if scalar and not isinstance(values, list):
        values = [values]
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{where}: need a non-empty list of numbers")
    return tuple(_finite(v, f"{where}[{i}]", positive=True) for i, v in enumerate(values))


def _choice(value, where: str, choices) -> str:
    if value not in choices:
        raise ConfigError(f"{where}: expected {' | '.join(choices)}, got {value!r}")
    return value


class Rule(NamedTuple):
    """How a key is read: ``read(value, where)``, or ``default`` when it is absent."""

    read: Callable
    default: object = _REQUIRED


_positive, _nonnegative = partial(_finite, positive=True), partial(_finite, nonnegative=True)
_POSITIVE, _NONNEGATIVE = Rule(_positive), Rule(_nonnegative)
SECTIONS = {
    "fading.states": {"gain": _POSITIVE, "prob": _POSITIVE},
    "mac": {  # MacProfile
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
    },
    # RunConfig's pt_prime_direct and p_bar: exactly one is given
    "power": {"Pt_prime_W": Rule(_positive, None), "P_bar_W": Rule(_positive, None)},
    "sweep": {  # SweepSpec
        "points": Rule(partial(_integer, minimum=1)),
        "power_factors": Rule(_positives, (1.0,)),
        "d_min_m": _POSITIVE,
        "d_max_m": _POSITIVE,
    },
    "simulate": {  # SimulateSpec
        "policy": Rule(partial(_choice, choices=("waterfill", "constant")), "waterfill"),
        "constant_power_W": Rule(_positive, None),
        "relinquish_overhead_s": Rule(_nonnegative, None),
        "d_m": _POSITIVE,
        "horizon": Rule(partial(_integer, minimum=1)),
        "seed": Rule(partial(_integer, minimum=0)),
    },
    "bound": {  # BoundSpec
        "power_W": Rule(partial(_positives, scalar=True), (0.1,)),
        "K_min": Rule(partial(_integer, minimum=2), 2),
        "K_max": Rule(partial(_integer, minimum=2), 100_000),
        "area_m2": _POSITIVE,
        "noise_W": _POSITIVE,
        "points": Rule(partial(_integer, minimum=2), 200),
    },
}


class SweepSpec(NamedTuple):
    points: int
    power_factors: tuple
    d_min: float
    d_max: float


class SimulateSpec(NamedTuple):
    policy: str
    constant_power: float | None
    relinquish_overhead: float | None
    d: float
    horizon: int
    seed: int


class BoundSpec(NamedTuple):
    powers: tuple
    k_min: int
    k_max: int
    area: float
    noise: float
    points: int


class RunConfig(NamedTuple):
    """Validated run inputs; sections absent from the file stay None."""

    model: FadingModel
    eta: float
    d0: float
    profile: MacProfile | None
    pt_prime_direct: float | None
    p_bar: float | None
    sweep: SweepSpec | None
    simulate: SimulateSpec | None
    bound: BoundSpec | None

    def resolve_pt_prime(self) -> float:
        """Per-transmission power budget, direct or derived from P_bar."""
        if self.pt_prime_direct is not None:
            return self.pt_prime_direct
        if self.p_bar is not None:
            if self.profile is None:
                raise ConfigError("power.P_bar_W requires a mac section")
            return _pt_prime(self.profile, self.p_bar)
        raise ConfigError("power: provide Pt_prime_W or P_bar_W")


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

    def section(name, record):
        return record(*_section(raw[name], name)) if name in raw else None

    profile = section("mac", MacProfile)
    pt_direct, p_bar = _section(raw["power"], "power") if "power" in raw else (None, None)
    if pt_direct is not None and p_bar is not None:
        raise ConfigError("power: Pt_prime_W and P_bar_W are mutually exclusive")
    if "power" in raw and pt_direct is None and p_bar is None:
        raise ConfigError("power: provide Pt_prime_W or P_bar_W")
    sweep = section("sweep", SweepSpec)
    if sweep and sweep.d_max <= sweep.d_min:
        raise ConfigError("sweep: d_max_m must exceed d_min_m")
    simulate = section("simulate", SimulateSpec)
    if simulate and simulate.policy == "constant" and simulate.constant_power is None:
        raise ConfigError("simulate.constant_power_W is required for the constant policy")
    bound = section("bound", BoundSpec)
    if bound and bound.k_max < bound.k_min:
        raise ConfigError("bound: K_max must be >= K_min")

    return RunConfig(
        model=model,
        eta=eta,
        d0=d0,
        profile=profile,
        pt_prime_direct=pt_direct,
        p_bar=p_bar,
        sweep=sweep,
        simulate=simulate,
        bound=bound,
    )


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
            [_section(state, "fading.states", f"fading.states[{i}]")
             for i, state in enumerate(states)], scale)
    csv_path = section.get("csv")
    if not isinstance(csv_path, str):
        raise ConfigError("fading.csv: path to a two-column CSV is required")
    path = Path(csv_path)
    if base_dir is not None and not path.is_absolute():
        path = base_dir / path
    return FadingModel.tabulated_from_csv(path, scale)


def _section(mapping, name: str, path: str | None = None) -> list:
    """The values of ``mapping`` by the rules of ``SECTIONS[name]``, named from ``path``."""
    rules, path = SECTIONS[name], path or name
    _check_keys(mapping, rules.keys(), path)
    return [_read(mapping, key, rule, path) for key, rule in rules.items()]


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
