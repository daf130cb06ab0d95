"""Result records shared by the stationary-point solvers."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class StationaryPoint:
    """One interior zero of the hop-distance derivative.

    ``psi`` is the transport-capacity core d * Gamma(pi) at the point;
    ``segment`` is the 1-based water-fill segment for discrete models,
    None for continuous ones.
    """

    d: float
    pi: float
    lam: float
    gamma: float
    psi: float
    segment: int | None = None


@dataclass(frozen=True)
class StationarySet:
    """All interior stationary points, sorted by ascending hop distance.

    ``maximizer_index`` is None when a boundary proxy dominated every
    interior point (``boundary`` then names the offending limit);
    ``unique`` records whether at most one point was certified, either by
    exhaustive closed-form enumeration or by the density monotonicity
    condition.
    """

    points: tuple
    maximizer_index: int | None
    unique: bool
    boundary: str | None = None

    @property
    def maximizer(self) -> StationaryPoint | None:
        if self.maximizer_index is None:
            return None
        return self.points[self.maximizer_index]
