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


class HypothesisNotMet(ValidationError):
    """Model does not satisfy the hypotheses required by a limit check."""


class BracketFailure(NumericalError):
    """No sign change found when bracketing a water-level or stationarity equation."""


class NoStationaryPoint(NumericalError):
    """No interior maximizer exists where one is needed.

    Raised when a root enumeration at eta > 1 comes back empty, and by
    `scaling_check` or `boundary_limits` when there is no interior
    maximizer (eta <= 1, where the optimum is d -> inf).
    """
