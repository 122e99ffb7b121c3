"""Property tests for the queueing layer (Eqs. 1-3), stdlib-only sweeps.

Three families of invariants, each checked over seeded random parameter
sweeps (``random.Random`` — no third-party fuzzing dependency):

- Erlang-C is monotonically decreasing in the server count: adding a
  container can only lower the probability of waiting (Eq. 2).
- ``required_containers`` is monotone non-decreasing in the arrival rate:
  more traffic never needs fewer containers (Eq. 3).
- The inversion is consistent with the forward model: the returned N meets
  the delay target, N-1 does not (or is the stability floor), and the
  wait probability at N is a valid probability below saturation.

A final family asserts the memoization added for the MPC hot path is
*transparent*: cached answers are bit-identical to fresh computation, and
the caches actually register hits on repeated queries.
"""

import math
import random

from repro.queueing import (
    MGNQueue,
    clear_queueing_caches,
    erlang_b,
    erlang_c,
    mgn_mean_wait,
    queueing_cache_info,
    required_containers,
)

SWEEP_SEED = 20260806


class TestErlangCMonotonicity:
    def test_monotone_decreasing_in_servers_random_loads(self):
        rng = random.Random(SWEEP_SEED)
        for _ in range(25):
            offered = rng.uniform(0.1, 400.0)
            start = int(math.floor(offered)) + 1
            values = [erlang_c(offered, n) for n in range(start, start + 40)]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:])), (
                f"Erlang-C not monotone at offered load {offered:.3f}"
            )
            assert all(0.0 <= v <= 1.0 for v in values)

    def test_saturated_then_stable_boundary(self):
        rng = random.Random(SWEEP_SEED + 1)
        for _ in range(25):
            offered = rng.uniform(0.5, 50.0)
            floor_n = int(math.floor(offered))
            if floor_n >= 1:
                assert erlang_c(offered, floor_n) == 1.0  # rho >= 1: all wait
            assert erlang_c(offered, floor_n + 1) < 1.0  # first stable N


class TestRequiredContainersMonotonicity:
    def test_monotone_nondecreasing_in_arrival_rate(self):
        rng = random.Random(SWEEP_SEED + 2)
        for _ in range(15):
            mu = rng.uniform(0.01, 2.0)
            target = rng.uniform(0.5, 600.0)
            scv = rng.uniform(0.0, 4.0)
            lam = rng.uniform(0.01, 1.0)
            previous = 0
            for _ in range(8):
                n = required_containers(lam, mu, target, scv=scv)
                assert n >= previous, (
                    f"required_containers decreased ({previous} -> {n}) as "
                    f"lambda grew to {lam:.4f} (mu={mu:.4f}, d={target:.2f})"
                )
                previous = n
                lam *= rng.uniform(1.2, 2.5)

    def test_monotone_nonincreasing_in_target_delay(self):
        rng = random.Random(SWEEP_SEED + 3)
        for _ in range(15):
            lam = rng.uniform(0.1, 20.0)
            mu = rng.uniform(0.05, 1.0)
            loose = required_containers(lam, mu, 100.0)
            tight = required_containers(lam, mu, 0.5)
            assert tight >= loose


class TestInverseConsistency:
    def test_returned_count_meets_target_and_is_minimal(self):
        rng = random.Random(SWEEP_SEED + 4)
        for _ in range(30):
            lam = rng.uniform(0.05, 30.0)
            mu = rng.uniform(0.01, 1.0)
            target = rng.uniform(0.1, 900.0)
            scv = rng.choice([0.0, 0.5, 1.0, 2.0, 8.0])
            n = required_containers(lam, mu, target, scv=scv)
            stability_floor = int(math.floor(lam / mu)) + 1
            assert n >= stability_floor
            assert mgn_mean_wait(lam, mu, n, scv=scv) <= target
            if n > stability_floor:
                assert mgn_mean_wait(lam, mu, n - 1, scv=scv) > target
        # 10**3 to 10**5 Erlangs, both sides of the 2000-Erlang switch to
        # the Halfin-Whitt walk; targets from a tenth to ten times the mean
        # service time over sqrt(a).
        rng = random.Random(SWEEP_SEED + 7)
        for _ in range(20):
            mu = rng.uniform(0.01, 1.0)
            lam = 10.0 ** rng.uniform(3.0, 5.0) * mu
            target = 10.0 ** rng.uniform(-1.0, 1.0) / math.sqrt(lam * mu)
            scv = rng.choice([0.0, 0.5, 1.0, 2.0, 8.0])
            n = required_containers(lam, mu, target, scv=scv)
            stability_floor = int(math.floor(lam / mu)) + 1
            assert n >= stability_floor
            assert mgn_mean_wait(lam, mu, n, scv=scv) <= target
            if n > stability_floor:
                assert mgn_mean_wait(lam, mu, n - 1, scv=scv) > target

    def test_wait_probability_consistent_at_returned_count(self):
        rng = random.Random(SWEEP_SEED + 5)
        for _ in range(30):
            queue = MGNQueue(
                arrival_rate=rng.uniform(0.1, 10.0),
                service_rate=rng.uniform(0.05, 1.0),
                scv=rng.uniform(0.0, 3.0),
            )
            n = queue.containers_for_delay(rng.uniform(1.0, 300.0))
            pi = queue.wait_probability(n)
            # Below saturation the Eq. 2 probability is a genuine probability
            # strictly under 1, and Eq. 1 is its scaled form: both vanish
            # together.
            assert 0.0 <= pi < 1.0
            assert queue.utilization(n) < 1.0
            if pi == 0.0:
                assert queue.mean_wait(n) == 0.0


class TestCacheTransparency:
    def test_cached_values_identical_to_fresh(self):
        rng = random.Random(SWEEP_SEED + 6)
        cases = [
            (rng.uniform(0.1, 200.0), rng.randint(1, 400)) for _ in range(40)
        ]
        clear_queueing_caches()
        first = [erlang_b(a, n) for a, n in cases]
        clear_queueing_caches()
        second = [erlang_b(a, n) for a, n in cases]
        assert first == second  # bit-identical across cache generations
        # And a warm re-query returns the very same values from cache.
        assert [erlang_b(a, n) for a, n in cases] == first

    def test_inverse_cache_registers_hits(self):
        clear_queueing_caches()
        args = (7.5, 0.25, 12.0)
        baseline = required_containers(*args)
        before = queueing_cache_info()["required_containers"]["hits"]
        for _ in range(5):
            assert required_containers(*args) == baseline
        after = queueing_cache_info()["required_containers"]["hits"]
        assert after >= before + 5

    def test_erlang_cache_registers_hits(self):
        clear_queueing_caches()
        value = erlang_b(12.0, 15)
        before = queueing_cache_info()["erlang_b"]["hits"]
        assert erlang_b(12.0, 15) == value
        after = queueing_cache_info()["erlang_b"]["hits"]
        assert after >= before + 1

    def test_validation_still_raised_in_front_of_cache(self):
        import pytest

        with pytest.raises(ValueError):
            erlang_b(-1.0, 3)
        with pytest.raises(ValueError):
            required_containers(1.0, 1.0, 0.0)
