"""Tests for the M/G/N model (Eqs. 1-2): Erlang formulas and inversion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.queueing import (
    MGNQueue,
    erlang_b,
    erlang_c,
    mgn_mean_wait,
    required_containers,
)


class TestErlangB:
    def test_zero_servers_blocks_everything(self):
        assert erlang_b(1.0, 0) == 1.0

    def test_known_value(self):
        # Classic reference point: B(a=2, k=3) = (8/6)/(1+2+2+8/6) = 0.2105...
        assert erlang_b(2.0, 3) == pytest.approx(4.0 / 19.0, rel=1e-9)

    def test_monotone_decreasing_in_servers(self):
        values = [erlang_b(5.0, k) for k in range(1, 20)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_large_load_stable(self):
        # The recurrence must not overflow at data-center scales.
        value = erlang_b(5000.0, 5100)
        assert 0.0 <= value <= 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            erlang_b(-1.0, 3)


class TestErlangC:
    def test_mm1_equals_rho(self):
        # For M/M/1, P(wait) = rho.
        assert erlang_c(0.6, 1) == pytest.approx(0.6, rel=1e-9)

    def test_saturated_queue_always_waits(self):
        assert erlang_c(5.0, 5) == 1.0
        assert erlang_c(7.0, 5) == 1.0

    def test_zero_load_never_waits(self):
        assert erlang_c(0.0, 3) == 0.0

    def test_matches_direct_formula(self):
        # Direct evaluation of Eq. 2 for small N.
        a, n = 1.5, 3
        direct_num = a**n / (math.factorial(n) * (1 - a / n))
        direct_den = sum(a**k / math.factorial(k) for k in range(n)) + direct_num
        assert erlang_c(a, n) == pytest.approx(direct_num / direct_den, rel=1e-9)

    def test_requires_servers(self):
        with pytest.raises(ValueError):
            erlang_c(1.0, 0)

    def test_large_load_stable(self):
        assert 0.0 <= erlang_c(5000.0, 5200) <= 1.0

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.floats(min_value=0.01, max_value=50.0),
        n=st.integers(min_value=1, max_value=100),
    )
    def test_property_probability_bounds(self, a, n):
        value = erlang_c(a, n)
        assert 0.0 <= value <= 1.0


class TestMeanWait:
    def test_mm1_formula(self):
        # M/M/1: W_q = rho / (mu - lambda).
        lam, mu = 0.5, 1.0
        expected = (lam / mu) / (mu - lam)
        assert mgn_mean_wait(lam, mu, 1, scv=1.0) == pytest.approx(expected, rel=1e-9)

    def test_md1_half_of_mm1(self):
        # Deterministic service (scv=0) halves the M/M/1 wait.
        lam, mu = 0.5, 1.0
        mm1 = mgn_mean_wait(lam, mu, 1, scv=1.0)
        md1 = mgn_mean_wait(lam, mu, 1, scv=0.0)
        assert md1 == pytest.approx(mm1 / 2, rel=1e-9)

    def test_unstable_is_infinite(self):
        assert mgn_mean_wait(2.0, 1.0, 1) == math.inf
        assert mgn_mean_wait(1.0, 1.0, 1) == math.inf

    def test_monotone_decreasing_in_servers(self):
        waits = [mgn_mean_wait(5.0, 1.0, n) for n in range(6, 20)]
        assert all(a >= b for a, b in zip(waits, waits[1:]))

    def test_zero_arrivals_zero_wait(self):
        assert mgn_mean_wait(0.0, 1.0, 3) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            mgn_mean_wait(-1.0, 1.0, 1)
        with pytest.raises(ValueError):
            mgn_mean_wait(1.0, 0.0, 1)
        with pytest.raises(ValueError):
            mgn_mean_wait(1.0, 1.0, 0)
        with pytest.raises(ValueError):
            mgn_mean_wait(1.0, 1.0, 1, scv=-0.5)


class TestRequiredContainers:
    def test_meets_target_and_is_minimal(self):
        lam, mu, target = 3.0, 0.5, 2.0
        n = required_containers(lam, mu, target)
        assert mgn_mean_wait(lam, mu, n) <= target
        assert n == int(math.floor(lam / mu)) + 1 or mgn_mean_wait(lam, mu, n - 1) > target

    def test_zero_arrivals_zero_containers(self):
        assert required_containers(0.0, 1.0, 1.0) == 0

    def test_stability_floor(self):
        # Even a lax target needs rho < 1.
        n = required_containers(10.0, 1.0, 1e9)
        assert n >= 11

    def test_tight_target_needs_more(self):
        lax = required_containers(5.0, 1.0, 10.0)
        tight = required_containers(5.0, 1.0, 0.01)
        assert tight > lax

    def test_high_scv_needs_more(self):
        low = required_containers(20.0, 0.1, 5.0, scv=0.5)
        high = required_containers(20.0, 0.1, 5.0, scv=20.0)
        assert high >= low

    def test_bad_target(self):
        with pytest.raises(ValueError):
            required_containers(1.0, 1.0, 0.0)

    def test_max_servers_guard(self):
        with pytest.raises(ValueError, match="exceeds max_servers|no container count"):
            required_containers(1e6, 1e-6, 1e-9, max_servers=100)

    def test_unstable_queue_raises_structured_code(self):
        from repro.errors import CapacityModelUnstable

        with pytest.raises(CapacityModelUnstable) as excinfo:
            required_containers(1e6, 1e-6, 1e-9, max_servers=100)
        error = excinfo.value
        assert error.code == "capacity_model_unstable"
        assert error.context["max_servers"] == 100
        # Still a ValueError so pre-taxonomy call sites (and the
        # degradation ladder's except clause) keep working.
        assert isinstance(error, ValueError)

    def test_halfin_whitt_matches_exact_inversion(self):
        """The large-load fast path agrees with the exact bisection."""
        lam, mean_duration = 2.0, 1500.0  # offered = 3000 (HW path)
        mu = 1.0 / mean_duration
        fast = required_containers(lam, mu, target_delay=30.0, scv=1.5)
        # Exact check at the returned N and minimality at N-1.
        assert mgn_mean_wait(lam, mu, fast, 1.5) <= 30.0
        assert mgn_mean_wait(lam, mu, fast - 1, 1.5) > 30.0

    @settings(max_examples=40, deadline=None)
    @given(
        # Keep the offered load (lam * mean_duration) below ~5e4: the
        # Erlang-B recurrence is O(N) and the bisection calls it ~20 times.
        lam=st.floats(min_value=0.001, max_value=10.0),
        mean_duration=st.floats(min_value=1.0, max_value=5000.0),
        target=st.floats(min_value=0.1, max_value=3600.0),
        scv=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_property_result_meets_target(self, lam, mean_duration, target, scv):
        mu = 1.0 / mean_duration
        n = required_containers(lam, mu, target, scv=scv)
        assert n >= 1
        assert mgn_mean_wait(lam, mu, n, scv=scv) <= target
        # Stability always holds.
        assert lam / (n * mu) < 1.0


class TestMGNQueue:
    def test_wrapper_consistency(self):
        queue = MGNQueue(arrival_rate=2.0, service_rate=0.5, scv=1.5)
        assert queue.offered_load == pytest.approx(4.0)
        n = queue.containers_for_delay(5.0)
        assert queue.mean_wait(n) <= 5.0
        assert queue.utilization(n) < 1.0
        assert 0 <= queue.wait_probability(n) <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            MGNQueue(arrival_rate=-1.0, service_rate=1.0)
        with pytest.raises(ValueError):
            MGNQueue(arrival_rate=1.0, service_rate=0.0)
        with pytest.raises(ValueError):
            MGNQueue(arrival_rate=1.0, service_rate=1.0, scv=-1.0)
        queue = MGNQueue(arrival_rate=1.0, service_rate=1.0)
        with pytest.raises(ValueError):
            queue.utilization(0)


class TestAgainstDiscreteEventQueue:
    """Eq. 1 validated against the library's M/G/N simulator."""

    def test_mmn_close_to_simulation(self):
        from repro.queueing import simulate_mgn_queue

        lam, mu, n = 8.0, 1.0, 10
        predicted = mgn_mean_wait(lam, mu, n, scv=1.0)
        result = simulate_mgn_queue(lam, mu, n, scv=1.0, num_tasks=8000)
        assert predicted == pytest.approx(result.mean_wait, rel=0.35)
        # The Erlang-C wait probability should also roughly agree.
        from repro.queueing import erlang_c

        assert erlang_c(lam / mu, n) == pytest.approx(
            result.wait_probability, abs=0.15
        )

    def test_mgn_with_high_scv_close_to_simulation(self):
        from repro.queueing import simulate_mgn_queue

        lam, mu, n = 4.0, 1.0, 6
        predicted = mgn_mean_wait(lam, mu, n, scv=4.0)
        result = simulate_mgn_queue(lam, mu, n, scv=4.0, num_tasks=20000)
        # The Allen-Cunneen form is an approximation; 50% agreement is the
        # accepted accuracy class for heavy-tailed service.
        assert predicted == pytest.approx(result.mean_wait, rel=0.5)

    def test_deterministic_service(self):
        from repro.queueing import simulate_mgn_queue

        result = simulate_mgn_queue(0.5, 1.0, 2, scv=0.0, num_tasks=4000)
        assert result.mean_wait < 0.2  # M/D/2 at rho=0.25 barely queues
        assert 0.0 <= result.utilization <= 1.0

    def test_simulator_validation(self):
        from repro.queueing import simulate_mgn_queue

        with pytest.raises(ValueError):
            simulate_mgn_queue(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            simulate_mgn_queue(1.0, 1.0, 0)
        with pytest.raises(ValueError):
            simulate_mgn_queue(1.0, 1.0, 1, num_tasks=5)
        with pytest.raises(ValueError):
            simulate_mgn_queue(1.0, 1.0, 1, warmup_fraction=1.0)


class TestScvBranchBoundary:
    """Service-model selection is tolerance-based, not exact float equality.

    An ``scv`` that reaches the simulator as ``1.0 +/- 1 ulp`` (a common
    artifact of upstream moment computations) must draw from the same
    exponential model as an exact ``1.0``, and likewise near zero.
    """

    def test_scv_one_ulp_above_one_matches_exponential(self):
        from repro.queueing import simulate_mgn_queue

        exact = simulate_mgn_queue(2.0, 1.0, 4, scv=1.0, num_tasks=2000)
        nudged = simulate_mgn_queue(
            2.0, 1.0, 4, scv=math.nextafter(1.0, 2.0), num_tasks=2000
        )
        assert nudged == exact  # bit-identical: same branch, same rng draws

    def test_scv_one_ulp_below_one_matches_exponential(self):
        from repro.queueing import simulate_mgn_queue

        exact = simulate_mgn_queue(2.0, 1.0, 4, scv=1.0, num_tasks=2000)
        nudged = simulate_mgn_queue(
            2.0, 1.0, 4, scv=math.nextafter(1.0, 0.0), num_tasks=2000
        )
        assert nudged == exact

    def test_subtolerance_scv_is_deterministic_service(self):
        from repro.queueing import simulate_mgn_queue

        exact = simulate_mgn_queue(0.5, 1.0, 2, scv=0.0, num_tasks=1000)
        nudged = simulate_mgn_queue(0.5, 1.0, 2, scv=1e-13, num_tasks=1000)
        assert nudged == exact

    def test_scv_outside_tolerance_uses_lognormal(self):
        from repro.queueing import simulate_mgn_queue

        exponential = simulate_mgn_queue(2.0, 1.0, 4, scv=1.0, num_tasks=2000)
        lognormal = simulate_mgn_queue(2.0, 1.0, 4, scv=1.01, num_tasks=2000)
        assert lognormal != exponential
