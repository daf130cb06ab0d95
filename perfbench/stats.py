"""Summary statistics shared by the benchmark and its steadiness check."""

from __future__ import annotations

import statistics

# a tail percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10
TAIL_CANDIDATES = (99.9, 99.0, 90.0)


def tail_percentile(n: int):
    """Highest candidate percentile with at least MIN_BEYOND of n samples beyond it."""
    for p in TAIL_CANDIDATES:
        if n * (1000 - round(p * 10)) >= MIN_BEYOND * 1000:  # in tenths of a percent
            return p
    return None


def spread(values) -> float:
    """Distance between the first and third quartiles, as a share of the median.

    Quartiles are those of ``statistics.quantiles(values, n=4)``.
    """
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def worsening(before: float, after: float, better: str) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``."""
    change = (after - before) / before
    return change if better == "lower" else -change
