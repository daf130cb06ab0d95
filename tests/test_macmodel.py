"""Renewal throughput/power formulas, the two-sample fixed-time vs
fixed-packet comparison and the spatial-reuse rate cap."""

import math

import numpy as np
import pytest

from conftest import make_rng, swap_energies
from hopcap.errors import BudgetExhausted, OrderingViolation, ValidationError
from hopcap import macmodel
from hopcap.macmodel import MacProfile


def mixed_profile():
    return MacProfile(
        p_idle=0.5,
        p_collision=0.1,
        p_success=0.4,
        t_idle=1e-5,
        t_collision=1e-4,
        t_overhead=1e-4,
        t_txop=1e-3,
        bandwidth=1e6,
    )


def loaded_profile():
    return MacProfile(
        p_idle=0.5,
        p_collision=0.1,
        p_success=0.4,
        t_idle=1e-5,
        t_collision=1e-4,
        t_overhead=1e-4,
        t_txop=1e-3,
        bandwidth=1e6,
        e_idle=2e-6,
        e_collision=4e-5,
        e_overhead=9e-5,
    )


class TestThroughput:
    def test_overhead_free_unit_case(self):
        profile = MacProfile(
            p_idle=0.0, p_collision=0.0, p_success=1.0,
            t_idle=0.0, t_collision=0.0, t_overhead=0.0,
            t_txop=1.0, bandwidth=1.0,
        )
        assert macmodel.throughput(profile, math.log(2.0)) == pytest.approx(1.0, rel=1e-15)

    def test_mixed_case_hand_value(self):
        # 0.4 * (1e6 * 1e-3 * ln2/ln2) / 4.55e-4, evaluated by hand
        assert macmodel.throughput(mixed_profile(), math.log(2.0)) == pytest.approx(
            879120.879120879, rel=1e-12
        )

    def test_zero_rate_gives_zero(self):
        assert macmodel.throughput(mixed_profile(), 0.0) == 0.0

    def test_linear_in_rate(self):
        profile = loaded_profile()
        base = macmodel.throughput(profile, 0.31)
        assert macmodel.throughput(profile, 0.62) == pytest.approx(2 * base, rel=1e-12)


class TestNetworkPower:
    def test_pure_transmission(self):
        profile = MacProfile(
            p_idle=0.0, p_collision=0.0, p_success=1.0,
            t_idle=0.0, t_collision=0.0, t_overhead=0.0,
            t_txop=2.0, bandwidth=1.0,
        )
        assert macmodel.network_power(profile, 0.25) == pytest.approx(0.25, rel=1e-15)

    def test_zero_tx_power_gives_overhead_power(self):
        profile = loaded_profile()
        assert macmodel.network_power(profile, 0.0) == pytest.approx(
            profile.overhead_power, rel=1e-15
        )

    def test_linear_in_power(self):
        profile = loaded_profile()
        p0 = macmodel.network_power(profile, 0.0)
        p1 = macmodel.network_power(profile, 1.0)
        p2 = macmodel.network_power(profile, 2.0)
        assert p2 - p1 == pytest.approx(p1 - p0, rel=1e-12)


class TestPtPrime:
    def test_identity_without_overheads(self):
        profile = MacProfile(
            p_idle=0.0, p_collision=0.0, p_success=1.0,
            t_idle=0.0, t_collision=0.0, t_overhead=0.0,
            t_txop=0.7, bandwidth=1.0,
        )
        assert macmodel.pt_prime(profile, 3.0) == pytest.approx(3.0, rel=1e-15)

    def test_budget_exhausted(self):
        profile = loaded_profile()
        with pytest.raises(BudgetExhausted):
            macmodel.pt_prime(profile, profile.overhead_power)

    def test_round_trip_through_network_power(self):
        # feeding the per-transmission budget back through the power
        # formula must recover the original network budget
        profile = loaded_profile()
        p_bar = 0.37
        pt = macmodel.pt_prime(profile, p_bar)
        assert macmodel.network_power(profile, pt) == pytest.approx(p_bar, rel=1e-12)


class TestValidation:
    def test_prob_sum_enforced(self):
        with pytest.raises(ValidationError):
            MacProfile(
                p_idle=0.5, p_collision=0.2, p_success=0.4,
                t_idle=0.0, t_collision=0.0, t_overhead=0.0,
                t_txop=1.0, bandwidth=1.0,
            )

    def test_p_success_positive(self):
        with pytest.raises(ValidationError):
            MacProfile(
                p_idle=0.9, p_collision=0.1, p_success=0.0,
                t_idle=0.0, t_collision=0.0, t_overhead=0.0,
                t_txop=1.0, bandwidth=1.0,
            )


class TestCompareFttFp:
    def test_symmetric_case_exact_equality(self):
        res = macmodel.compare_ftt_fp(1.3, 1.3, 0.8, 0.8)
        assert res.bits_ftt == pytest.approx(res.bits_fp, rel=1e-12)

    def test_reference_case_strictly_better(self):
        res = macmodel.compare_ftt_fp(2.0, 0.5, 1.0, 1.0)
        assert res.bits_fp == 2000.0
        assert res.bits_ftt > res.bits_fp

    def test_ordering_violation_raises(self):
        with pytest.raises(OrderingViolation):
            macmodel.compare_ftt_fp(2.0, 0.5, 0.01, 1.0)

    def test_invalid_states_rejected(self):
        with pytest.raises(ValidationError):
            macmodel.compare_ftt_fp(0.5, 2.0, 1.0, 1.0)

    def test_never_worse_over_random_tuples(self):
        rng = make_rng(606)
        for _ in range(200):
            h2, h1 = np.sort(np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 2)))
            p1 = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
            p2 = float(h1 * p1 / h2) * float(rng.uniform(1e-3, 1.0))
            res = macmodel.compare_ftt_fp(float(h1), float(h2), p1, p2)
            assert res.bits_ftt >= res.bits_fp * (1 - 1e-9)

    def test_swap_strictly_reduces_energy(self):
        rng = make_rng(707)
        checked = 0
        for _ in range(400):
            h2, h1 = np.sort(np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 2)))
            if h1 == h2:
                continue
            p1 = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
            # violate the ordering on purpose: h1*p1 < h2*p2
            p2 = float(h1 * p1 / h2) * float(rng.uniform(1.001, 10.0))
            energy, swapped, p1_swapped = swap_energies(float(h1), float(h2), p1, p2)
            assert swapped < energy
            assert h1 * p1_swapped == pytest.approx(h2 * p2, rel=1e-12)
            checked += 1
        assert checked > 350


class TestSpatialReuseBound:
    def test_high_power_approaches_power_free_bound(self):
        c_k, bound = macmodel.spatial_reuse_bound(
            k=2, power=1e15, noise=1e-10, area=450.0, eta=3.0
        )
        assert c_k == pytest.approx(bound, rel=1e-6)
        assert c_k <= bound

    def test_reference_case_finite_and_bounded(self):
        c_k, bound = macmodel.spatial_reuse_bound(
            k=2, power=0.1, noise=1e-10, area=450.0, eta=3.0
        )
        assert math.isfinite(c_k) and c_k > 0
        assert c_k <= bound

    def test_bound_holds_for_all_powers(self):
        for power in np.geomspace(1e-5, 1e5, 11):
            for k in (2, 10, 1000):
                c_k, bound = macmodel.spatial_reuse_bound(
                    k=k, power=float(power), noise=1e-10, area=450.0, eta=3.0
                )
                assert c_k <= bound

    def test_transport_proxy_peaks_at_finite_reuse(self):
        ks = np.unique(np.geomspace(2, 1e4, 400).astype(int))
        rows = macmodel.spatial_reuse_sweep(ks, area=450.0, eta=3.0, power=0.1, noise=1e-10)
        products = [row[4] for row in rows]
        best = int(np.argmax(products))
        assert 0 < best < len(products) - 1
        assert products[-1] < products[best]

    def test_k_below_two_rejected(self):
        with pytest.raises(ValidationError):
            macmodel.spatial_reuse_bound(k=1, power=1.0, noise=1.0, area=1.0, eta=2.0)
