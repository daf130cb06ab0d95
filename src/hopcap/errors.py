"""Exception hierarchy shared across the package.

Two families matter for the CLI exit-code contract: ``ValidationError``
(bad inputs, exit code 2) and ``NumericalError`` (solver failure, exit
code 3).
"""


class HopcapError(Exception):
    """Base class for all package errors."""


class ValidationError(HopcapError):
    """Invalid inputs, configuration or preconditions."""


class NumericalError(HopcapError):
    """A numerical procedure failed to produce a usable result."""


class ConfigError(ValidationError):
    """Malformed or inconsistent run configuration."""


class DiscreteKindError(ValidationError):
    """An operation was called on a fading kind it does not support."""


class NonPositivePi(ValidationError):
    """The normalized power level must be strictly positive."""


class BudgetExhausted(ValidationError):
    """Network power budget does not exceed the overhead power."""


class OrderingViolation(ValidationError):
    """Powers violate the better-channel-gets-more-rate ordering."""


class BracketFailure(NumericalError):
    """A water level or stationary root has no sign change in its bracket, a NaN, or no float value."""


class NoStationaryPoint(NumericalError):
    """A root enumeration at eta > 1, where psi vanishes at both ends, found no root."""
