"""Saturation-MAC throughput and power accounting.

The contention channel alternates i.i.d. idle / collision / success
periods.  Throughput and network power share one renewal denominator,

    cycle = p_idle*t_idle + p_collision*t_collision + p_success*(t_overhead + t_txop)

so the aggregate bit rate is linear in the mean per-transmission rate
and the drawn power is linear in the mean transmit power.

The case for a fixed transmission time over a fixed packet size,
`compare_ftt_fp`, works on two channel samples: the fixed-packet totals
define a time and energy budget, and the fixed-time scheme water-fills
that budget over the same two states; its bit count never falls short.
Like the rest of this module it is plain ``math``.  The module also
houses the single-cell motivation: with K simultaneous transmissions in
a confined area the aggregate rate is capped independently of transmit
power, so spatial reuse stops paying once the shrinking reach outweighs
it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import BudgetExhausted, NumericalError, OrderingViolation, ValidationError
from .fading import PROB_SUM_TOL, FadingModel
from .waterfill import gamma_and_lambda

LN2 = math.log(2.0)
PACKET_BITS, BANDWIDTH_HZ = 1000.0, 1e6  # the packet and the band of `compare_ftt_fp`


class _MacProfileFields(NamedTuple):
    p_idle: float
    p_collision: float
    p_success: float
    t_idle: float
    t_collision: float
    t_overhead: float
    t_txop: float
    bandwidth: float
    e_idle: float = 0.0
    e_collision: float = 0.0
    e_overhead: float = 0.0


class MacProfile(_MacProfileFields):
    """Contention probabilities plus time and energy overheads.

    Times in seconds, energies in joules, bandwidth in hertz.  ``t_txop``
    is the fixed transmission time T reserved per successful contention.
    """

    __slots__ = ()

    def __init__(self, *_args, **_kwargs):
        for name, value in zip(self._fields, self):
            if not 0 <= value < math.inf:
                raise ValidationError(f"{name} must be finite and >= 0, got {value}")
        total = math.fsum((self.p_idle, self.p_collision, self.p_success))
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"contention probabilities sum to {total!r}, expected 1")
        if self.p_success <= 0:
            raise ValidationError("p_success must be > 0")
        if self.t_txop <= 0:
            raise ValidationError("t_txop must be > 0")
        if self.bandwidth <= 0:
            raise ValidationError("bandwidth must be > 0")

    @property
    def cycle_time(self) -> float:
        """Mean contention-period duration (the shared denominator), seconds."""
        return (
            self.p_idle * self.t_idle
            + self.p_collision * self.t_collision
            + self.p_success * (self.t_overhead + self.t_txop)
        )

    @property
    def overhead_power(self) -> float:
        """Time-average power drawn by overheads alone, watts."""
        return network_power(self, 0.0)


def throughput(profile: MacProfile, mean_rate_nats: float) -> float:
    """Aggregate saturation bit rate (bits/s) for a mean spectral efficiency.

    ``mean_rate_nats`` is the per-transmission expected rate in nats per
    unit bandwidth (the water-fill value Gamma); the nats-to-bits
    conversion happens here, once.
    """
    if mean_rate_nats < 0:
        raise ValidationError("mean rate must be >= 0")
    bits_per_txop = profile.bandwidth * profile.t_txop * mean_rate_nats / LN2
    return profile.p_success * bits_per_txop / profile.cycle_time


def network_power(profile: MacProfile, mean_tx_power: float) -> float:
    """Network average power (watts) for a mean per-transmission power."""
    if mean_tx_power < 0:
        raise ValidationError("mean transmit power must be >= 0")
    energy_per_cycle = (
        profile.p_idle * profile.e_idle
        + profile.p_collision * profile.e_collision
        + profile.p_success * (profile.e_overhead + profile.t_txop * mean_tx_power)
    )
    return energy_per_cycle / profile.cycle_time


def pt_prime(profile: MacProfile, p_bar: float) -> float:
    """Convert a network power budget into the per-transmission budget.

    Subtracts the overhead power, then re-averages over transmission
    periods only.  Raises when the budget cannot cover the overheads.
    """
    p_overhead = profile.overhead_power
    if p_bar <= p_overhead:
        raise BudgetExhausted(
            f"network budget {p_bar} W does not exceed overhead power {p_overhead} W"
        )
    p_t = p_bar - p_overhead
    return profile.cycle_time / (profile.p_success * profile.t_txop) * p_t


class FttFpComparison(NamedTuple):
    """Bit totals of the two schemes over one pair of channel samples."""

    bits_fp: float
    bits_ftt: float
    energy: float
    duration: float


def compare_ftt_fp(h1: float, h2: float, p1: float, p2: float) -> FttFpComparison:
    """Compare fixed-packet and fixed-time transmission on two samples.

    The fixed-packet scheme ships ``PACKET_BITS`` in each state, taking
    total time T_P and energy E_P.  The fixed-time scheme splits T_P
    into two equal slots over the same states and water-fills the energy
    budget E_P; the returned bit counts satisfy bits_ftt >= bits_fp.
    Requires h1*p1 >= h2*p2 (better state carries the higher rate).  This
    loses no generality: exchanging the two rates otherwise keeps the
    total time and strictly lowers the energy.
    """
    if not math.inf > h1 >= h2 > 0:
        raise ValidationError(f"need finite h1 >= h2 > 0, got h1={h1}, h2={h2}")
    if not (0 < p1 < math.inf and 0 < p2 < math.inf):
        raise ValidationError("powers must be finite and > 0")
    if h1 * p1 < h2 * p2:
        raise OrderingViolation(
            f"h1*p1={h1 * p1} < h2*p2={h2 * p2}: swap the rates first"
        )
    r1 = BANDWIDTH_HZ * math.log2(1.0 + h1 * p1)
    r2 = BANDWIDTH_HZ * math.log2(1.0 + h2 * p2)
    t1, t2 = PACKET_BITS / r1, PACKET_BITS / r2
    duration = t1 + t2
    energy = p1 * t1 + p2 * t2
    bits_fp = 2.0 * PACKET_BITS

    # one equally likely state per slot, water-filled at the mean power energy/duration
    states = [(h1, 0.5), (h2, 0.5)] if h1 != h2 else [(h1, 1.0)]
    gamma, _ = gamma_and_lambda(FadingModel.discrete(states), energy / duration)
    bits_ftt = duration * BANDWIDTH_HZ * gamma / LN2
    if not bits_ftt >= bits_fp * (1.0 - 1e-9):
        raise NumericalError(f"fixed-time bits {bits_ftt} fall short of {bits_fp}")
    return FttFpComparison(bits_fp=bits_fp, bits_ftt=bits_ftt, energy=energy, duration=duration)


def spatial_reuse_bound(k: int, power: float, noise: float, area: float, eta: float):
    """Aggregate-rate cap with K simultaneous transmissions in area A.

    Returns (C(K), power-free bound); the second is the P -> inf limit
    K * log(1 + (2A)**(eta/2) / (K-1)) and always dominates the first.
    Rates are in nats per channel use.
    """
    if k < 2:
        raise ValidationError(f"spatial reuse needs K >= 2, got {k}")
    if min(power, noise, area, eta) <= 0:
        raise ValidationError("power, noise, area and eta must all be > 0")
    interference = (k - 1) * power / (2.0 * area) ** (eta / 2.0)
    c_k = k * math.log1p(power / (noise + interference))
    bound = k * math.log1p((2.0 * area) ** (eta / 2.0) / (k - 1))
    return c_k, bound


def spatial_reuse_sweep(ks, area: float, eta: float, power: float, noise: float):
    """Rows (K, C(K), bound(K), reach(K), bound*reach) over a reuse grid.

    ``reach = sqrt(2A/K)`` models the shrinking transmitter-receiver
    separation as the area is split K ways (illustrative; the analysis
    only needs reach -> 0).
    """
    rows = []
    for k in ks:
        c_k, bound = spatial_reuse_bound(int(k), power, noise, area, eta)
        reach = math.sqrt(2.0 * area / k)
        rows.append((int(k), c_k, bound, reach, bound * reach))
    return rows
