"""Run-configuration ingestion: YAML with a strict, unit-annotated schema.

Physical quantities carry their unit in the key name (``_W``, ``_s``,
``_hz``, ``_m``, ``_m2``, ``_J``).  Unknown keys are rejected with a
dotted field path so typos fail loudly instead of being ignored.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

import yaml

from .errors import ConfigError
from .fading import FadingModel
from .macmodel import MacProfile, pt_prime as _pt_prime

SCHEMA_VERSION = 1

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
_FADING_KEYS = {"kind", "rate", "alpha_over_sigma2", "states", "csv"}
_STATE_KEYS = {"gain", "prob"}
# each mac key with its rule, in MacProfile's field order
_MAC_RULES = {
    "p_idle": {"nonnegative": True},
    "p_collision": {"nonnegative": True},
    "p_success": {"positive": True},
    "T_idle_s": {"nonnegative": True},
    "T_collision_s": {"nonnegative": True},
    "T_overhead_s": {"nonnegative": True},
    "T_txop_s": {"positive": True},
    "W_hz": {"positive": True},
    "E_idle_J": {"default": 0.0, "nonnegative": True},
    "E_collision_J": {"default": 0.0, "nonnegative": True},
    "E_overhead_J": {"default": 0.0, "nonnegative": True},
}
_POWER_KEYS = {"Pt_prime_W", "P_bar_W"}
_SWEEP_KEYS = {"d_min_m", "d_max_m", "points", "power_factors"}
_SIM_KEYS = {
    "d_m",
    "horizon",
    "seed",
    "policy",
    "constant_power_W",
    "relinquish_overhead_s",
}
_BOUND_KEYS = {"area_m2", "noise_W", "power_W", "K_min", "K_max", "points"}


class SweepSpec(NamedTuple):
    d_min: float
    d_max: float
    points: int
    power_factors: tuple = (1.0,)


class SimulateSpec(NamedTuple):
    d: float
    horizon: int
    seed: int
    policy: str = "waterfill"
    constant_power: float | None = None
    relinquish_overhead: float | None = None


class BoundSpec(NamedTuple):
    area: float
    noise: float
    powers: tuple
    k_min: int = 2
    k_max: int = 100_000
    points: int = 200


class RunConfig(NamedTuple):
    """Validated run inputs; sections absent from the file stay None."""

    model: FadingModel
    eta: float
    d0: float = 0.0
    profile: MacProfile | None = None
    pt_prime_direct: float | None = None
    p_bar: float | None = None
    sweep: SweepSpec | None = None
    simulate: SimulateSpec | None = None
    bound: BoundSpec | None = None

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
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version: expected {SCHEMA_VERSION}, got {version!r}"
        )
    model = _parse_fading(_require(raw, "fading", dict), base_dir)
    eta = _number(raw, "eta", positive=True)
    d0 = _number(raw, "d0_m", default=0.0, nonnegative=True)

    profile = None
    if "mac" in raw:
        profile = _parse_mac(raw["mac"])

    pt_direct = p_bar = None
    if "power" in raw:
        power = raw["power"]
        _check_keys(power, _POWER_KEYS, "power")
        if "Pt_prime_W" in power and "P_bar_W" in power:
            raise ConfigError("power: Pt_prime_W and P_bar_W are mutually exclusive")
        if "Pt_prime_W" in power:
            pt_direct = _number(power, "Pt_prime_W", positive=True, path="power")
        elif "P_bar_W" in power:
            p_bar = _number(power, "P_bar_W", positive=True, path="power")
        else:
            raise ConfigError("power: provide Pt_prime_W or P_bar_W")

    sweep = _parse_sweep(raw["sweep"]) if "sweep" in raw else None
    simulate = _parse_simulate(raw["simulate"]) if "simulate" in raw else None
    bound = _parse_bound(raw["bound"]) if "bound" in raw else None

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
    _check_keys(section, _FADING_KEYS, "fading")
    kind = section.get("kind")
    scale = _number(section, "alpha_over_sigma2", default=1.0, positive=True, path="fading")
    if kind == "exponential":
        return FadingModel.exponential(
            _number(section, "rate", positive=True, path="fading"), scale
        )
    if kind == "discrete":
        states = section.get("states")
        if not isinstance(states, list) or not states:
            raise ConfigError("fading.states: need a non-empty list of {gain, prob}")
        pairs = []
        for i, entry in enumerate(states):
            if not isinstance(entry, dict):
                raise ConfigError(f"fading.states[{i}]: expected a mapping")
            _check_keys(entry, _STATE_KEYS, f"fading.states[{i}]")
            pairs.append(
                (
                    _number(entry, "gain", positive=True, path=f"fading.states[{i}]"),
                    _number(entry, "prob", positive=True, path=f"fading.states[{i}]"),
                )
            )
        return FadingModel.discrete(pairs, scale)
    if kind == "tabulated":
        csv_path = section.get("csv")
        if not isinstance(csv_path, str):
            raise ConfigError("fading.csv: path to a two-column CSV is required")
        path = Path(csv_path)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        return FadingModel.tabulated_from_csv(path, scale)
    raise ConfigError(
        f"fading.kind: expected exponential | discrete | tabulated, got {kind!r}"
    )


def _parse_mac(section) -> MacProfile:
    _check_keys(section, _MAC_RULES.keys(), "mac")
    return MacProfile(*[_number(section, key, path="mac", **rule)
                        for key, rule in _MAC_RULES.items()])


def _parse_sweep(section) -> SweepSpec:
    _check_keys(section, _SWEEP_KEYS, "sweep")
    points = _integer(section, "points", minimum=1, path="sweep")
    factors = _positive_list(section.get("power_factors", [1.0]), "sweep.power_factors")
    d_min = _number(section, "d_min_m", positive=True, path="sweep")
    d_max = _number(section, "d_max_m", positive=True, path="sweep")
    if d_max <= d_min:
        raise ConfigError("sweep: d_max_m must exceed d_min_m")
    return SweepSpec(d_min=d_min, d_max=d_max, points=points, power_factors=factors)


def _parse_simulate(section) -> SimulateSpec:
    _check_keys(section, _SIM_KEYS, "simulate")
    policy = section.get("policy", "waterfill")
    if policy not in ("waterfill", "constant"):
        raise ConfigError(f"simulate.policy: expected waterfill | constant, got {policy!r}")
    constant = None
    if "constant_power_W" in section:
        constant = _number(section, "constant_power_W", positive=True, path="simulate")
    if policy == "constant" and constant is None:
        raise ConfigError("simulate.constant_power_W is required for the constant policy")
    relinquish = None
    if "relinquish_overhead_s" in section:
        relinquish = _number(section, "relinquish_overhead_s", nonnegative=True, path="simulate")
    return SimulateSpec(
        d=_number(section, "d_m", positive=True, path="simulate"),
        horizon=_integer(section, "horizon", minimum=1, path="simulate"),
        seed=_integer(section, "seed", minimum=0, path="simulate"),
        policy=policy,
        constant_power=constant,
        relinquish_overhead=relinquish,
    )


def _parse_bound(section) -> BoundSpec:
    _check_keys(section, _BOUND_KEYS, "bound")
    powers = section.get("power_W", [0.1])
    powers = _positive_list(powers if isinstance(powers, list) else [powers], "bound.power_W")
    k_min = _integer(section, "K_min", default=2, minimum=2, path="bound")
    k_max = _integer(section, "K_max", default=100_000, minimum=2, path="bound")
    if k_max < k_min:
        raise ConfigError("bound: K_max must be >= K_min")
    return BoundSpec(
        area=_number(section, "area_m2", positive=True, path="bound"),
        noise=_number(section, "noise_W", positive=True, path="bound"),
        powers=powers,
        k_min=k_min,
        k_max=k_max,
        points=_integer(section, "points", default=200, minimum=2, path="bound"),
    )


def _check_keys(mapping, allowed, path: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path or 'config'}: expected a mapping")
    unknown = set(mapping) - allowed
    if unknown:
        where = f"{path}." if path else ""
        raise ConfigError(f"{where}{sorted(unknown)[0]}: unknown key")


def _require(mapping, key, typ):
    if key not in mapping:
        raise ConfigError(f"{key}: required section is missing")
    value = mapping[key]
    if not isinstance(value, typ):
        raise ConfigError(f"{key}: expected a mapping")
    return value


def _number(mapping, key, default=None, positive=False, nonnegative=False, path=""):
    where = f"{path}.{key}" if path else key
    if key not in mapping:
        if default is not None:
            return float(default)
        raise ConfigError(f"{where}: required value is missing")
    return _finite(mapping[key], where, positive, nonnegative)


def _positive_list(values, where: str) -> tuple:
    """The entries of the non-empty list ``values``, each a finite number > 0."""
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{where}: need a non-empty list of numbers")
    return tuple(_finite(v, f"{where}[{i}]", positive=True) for i, v in enumerate(values))


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


def _integer(mapping, key, default=None, minimum=None, path=""):
    where = f"{path}.{key}" if path else key
    if key not in mapping:
        if default is not None:
            return int(default)
        raise ConfigError(f"{where}: required value is missing")
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {value}")
    return value
