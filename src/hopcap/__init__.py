"""Transport-capacity optimization for single-cell multihop networks.

Core pipeline: a fading model (`fading.FadingModel`) feeds the
water-pouring solver (`waterfill.solve`), whose value function drives
the hop-distance optimization (`hopopt`); the MAC layer converts rates
and powers to network units (`macmodel`), and a Monte Carlo simulator
(`simulator`) validates the renewal formulas.
"""

__version__ = "0.1.0"

from .errors import (
    BracketFailure,
    BudgetExhausted,
    ConfigError,
    DiscreteKindError,
    HopcapError,
    NonPositivePi,
    NoStationaryPoint,
    NumericalError,
    OrderingViolation,
    ValidationError,
)
from .fading import FadingModel
from .hopopt import HopProblem, StationaryPoint, StationarySet
from .macmodel import MacProfile
from .waterfill import WaterfillSolution

# the simulator needs numpy, which the scalar solvers do not: load it on first use
_SIMULATOR_NAMES = {"ConstantPowerPolicy", "SimConfig", "SimReport", "WaterfillPolicy"}


def __getattr__(name):
    if name in _SIMULATOR_NAMES:
        from . import simulator

        return getattr(simulator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "__version__",
    "BracketFailure",
    "BudgetExhausted",
    "ConfigError",
    "ConstantPowerPolicy",
    "DiscreteKindError",
    "FadingModel",
    "HopcapError",
    "HopProblem",
    "MacProfile",
    "NonPositivePi",
    "NoStationaryPoint",
    "NumericalError",
    "OrderingViolation",
    "SimConfig",
    "SimReport",
    "StationaryPoint",
    "StationarySet",
    "ValidationError",
    "WaterfillPolicy",
    "WaterfillSolution",
]
