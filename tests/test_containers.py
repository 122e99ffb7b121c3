"""Tests for container sizing (Eq. 3) and the container manager."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.containers import (
    ContainerManager,
    ContainerManagerConfig,
    ContainerSpec,
    gaussian_container_size,
    per_resource_epsilon,
    size_container_for_class,
    z_quantile,
)
from repro.containers.manager import RELATIVE_SLO_FACTOR
from repro.trace import PriorityGroup


class TestZQuantile:
    def test_median(self):
        assert z_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_five_percent(self):
        assert z_quantile(0.05) == pytest.approx(1.6449, abs=1e-3)

    def test_invalid(self):
        for eps in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                z_quantile(eps)


class TestPerResourceEpsilon:
    def test_single_resource_identity(self):
        assert per_resource_epsilon(0.05, 1) == pytest.approx(0.05)

    def test_two_resources_smaller(self):
        eps2 = per_resource_epsilon(0.05, 2)
        assert eps2 < 0.05
        # Joint no-violation probability recomposes to 1 - eps.
        assert (1 - eps2) ** 2 == pytest.approx(0.95)

    def test_invalid(self):
        with pytest.raises(ValueError):
            per_resource_epsilon(0.05, 0)
        with pytest.raises(ValueError):
            per_resource_epsilon(1.5, 2)


class TestGaussianSizing:
    def test_eq3_formula(self):
        size = gaussian_container_size(0.1, 0.02, epsilon=0.05, cap=1.0)
        assert size == pytest.approx(0.1 + 1.6449 * 0.02, abs=1e-3)

    def test_never_below_mean(self):
        assert gaussian_container_size(0.3, 0.0, 0.5) >= 0.3

    def test_capped(self):
        assert gaussian_container_size(0.9, 0.5, 0.01) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gaussian_container_size(-0.1, 0.1, 0.05)

    def test_degenerate_moments_raise_structured_code(self):
        from repro.errors import ContainerSizingError

        for mean, std in ((float("nan"), 0.1), (0.1, float("inf")), (0.1, -0.5)):
            with pytest.raises(ContainerSizingError) as excinfo:
                gaussian_container_size(mean, std, 0.05)
            assert excinfo.value.code == "container_sizing_error"
            assert isinstance(excinfo.value, ValueError)

    def test_zero_std_is_valid_not_degenerate(self):
        # sigma=0 (constant demand) sizes to the mean, no error.
        assert gaussian_container_size(0.2, 0.0, 0.05) == pytest.approx(0.2)

    def test_multiplexing_guarantee_empirically(self):
        """Packing by Eq. 3 sizes keeps violation probability near epsilon."""
        rng = np.random.default_rng(0)
        mean, std, eps = 0.05, 0.01, 0.05
        size = gaussian_container_size(mean, std, eps)
        capacity = 1.0
        per_machine = int(capacity / size)
        violations = 0
        trials = 3000
        for _ in range(trials):
            actual = rng.normal(mean, std, size=per_machine).sum()
            if actual > capacity:
                violations += 1
        assert violations / trials <= eps * 1.6  # sampling slack

    @settings(max_examples=50, deadline=None)
    @given(
        mean=st.floats(min_value=0.001, max_value=0.9),
        std=st.floats(min_value=0.0, max_value=0.3),
        eps=st.floats(min_value=0.001, max_value=0.5),
    )
    def test_property_size_in_bounds(self, mean, std, eps):
        size = gaussian_container_size(mean, std, eps)
        assert mean - 1e-12 <= size <= 1.0
        # Monotone: tighter epsilon -> bigger container.
        tighter = gaussian_container_size(mean, std, eps / 2)
        assert tighter >= size - 1e-12


class TestMultiplexedSizing:
    def test_sqrt_group_gain(self):
        from repro.containers import multiplexed_container_size

        per_task = gaussian_container_size(0.05, 0.02, 0.05)
        grouped = multiplexed_container_size(0.05, 0.02, 0.05, group_size=16)
        # The pad shrinks by sqrt(16) = 4.
        assert (grouped - 0.05) == pytest.approx((per_task - 0.05) / 4, rel=1e-9)

    def test_group_of_one_equals_gaussian(self):
        from repro.containers import multiplexed_container_size

        assert multiplexed_container_size(0.1, 0.03, 0.05, group_size=1) == pytest.approx(
            gaussian_container_size(0.1, 0.03, 0.05)
        )

    def test_aggregate_violation_bound_holds(self):
        """Packing by multiplexed sizes keeps machine violations near eps:
        the empirical check behind inequality (3)."""
        from repro.containers import multiplexed_container_size

        rng = np.random.default_rng(1)
        mean, std, eps, capacity = 0.05, 0.015, 0.05, 1.0
        group = int(capacity / mean)
        size = multiplexed_container_size(mean, std, eps, group_size=group)
        per_machine = int(capacity / size)
        violations = sum(
            rng.normal(mean, std, size=per_machine).sum() > capacity
            for _ in range(3000)
        )
        assert violations / 3000 <= eps * 1.8  # sampling + integer slack

    def test_validation(self):
        from repro.containers import multiplexed_container_size

        with pytest.raises(ValueError):
            multiplexed_container_size(-0.1, 0.1, 0.05, 4)
        with pytest.raises(ValueError):
            multiplexed_container_size(0.1, 0.1, 0.05, 0)


class TestSizeContainerForClass:
    def test_spec_properties(self, classifier):
        spec = size_container_for_class(classifier.classes[0])
        assert spec.class_id == classifier.classes[0].class_id
        assert spec.overhead_ratio >= 1.0 or spec.cpu == pytest.approx(1.0)
        assert 0 < spec.cpu <= 1 and 0 < spec.memory <= 1


class TestContainerManager:
    def test_specs_cover_all_classes(self, classifier, manager):
        assert set(manager.specs) == {c.class_id for c in classifier.classes}

    def test_plan_counts_and_totals(self, manager):
        class_ids = list(manager.specs)[:3]
        rates = {cid: 0.02 for cid in class_ids}
        plan = manager.plan(rates)
        assert set(plan.counts) == set(class_ids)
        assert all(plan.count(cid) > 0 for cid in class_ids)

    def test_plan_by_group_partition(self, manager):
        rates = {cid: 0.01 for cid in manager.specs}
        plan = manager.plan(rates)
        by_group = plan.by_group()
        assert sum(by_group.values()) == sum(plan.counts.values())

    def test_zero_rate_zero_containers(self, manager):
        class_id = next(iter(manager.specs))
        task_class = manager.spec(class_id).task_class
        assert manager.containers_for_class(task_class, 0.0) == 0

    def test_negative_rate_rejected(self, manager):
        task_class = next(iter(manager.specs.values())).task_class
        with pytest.raises(ValueError):
            manager.containers_for_class(task_class, -1.0)

    def test_slo_floor_and_slowdown(self, manager):
        for leaf_spec in manager.specs.values():
            leaf = leaf_spec.task_class
            slo = manager.slo_for(leaf)
            assert slo >= manager.config.delay_slos[leaf.group]
            assert slo >= RELATIVE_SLO_FACTOR * leaf.duration_mean - 1e-9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ContainerManagerConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            ContainerManagerConfig(
                delay_slos={
                    PriorityGroup.GRATIS: 0.0,
                    PriorityGroup.OTHER: 1.0,
                    PriorityGroup.PRODUCTION: 1.0,
                }
            )


class TestTransientDemand:
    def _short_and_long(self, manager):
        classes = [s.task_class for s in manager.specs.values()]
        short = min(classes, key=lambda c: c.duration_mean)
        long = max(classes, key=lambda c: c.duration_mean)
        return short, long

    def test_short_class_reaches_steady_state_immediately(self, manager):
        short, _ = self._short_and_long(manager)
        rate = 0.5
        steady = manager.containers_for_class(short, rate)
        # With occupancy at the offered load, the transient equals steady
        # state (up to ceil).
        occupancy = int(rate / short.service_rate)
        demand = manager.transient_demand(short, rate, occupancy, step=4,
                                          interval_seconds=300.0)
        assert abs(demand - steady) <= 2

    def test_long_class_tracks_occupancy(self, manager):
        _, long = self._short_and_long(manager)
        rate = 0.05
        demand = manager.transient_demand(long, rate, occupancy=10, step=0,
                                          interval_seconds=300.0)
        steady = manager.containers_for_class(long, rate)
        assert demand < steady  # far below steady state early on
        assert demand >= 10  # but covers what is already running

    def test_demand_monotone_in_occupancy(self, manager):
        _, long = self._short_and_long(manager)
        low = manager.transient_demand(long, 0.01, occupancy=5, step=0,
                                       interval_seconds=300.0)
        high = manager.transient_demand(long, 0.01, occupancy=50, step=0,
                                        interval_seconds=300.0)
        assert high > low

    def test_zero_everything_zero_demand(self, manager):
        task_class = next(iter(manager.specs.values())).task_class
        assert manager.transient_demand(task_class, 0.0, 0, 0, 300.0) == 0

    def test_validation(self, manager):
        task_class = next(iter(manager.specs.values())).task_class
        with pytest.raises(ValueError):
            manager.transient_demand(task_class, -1.0, 0, 0, 300.0)
        with pytest.raises(ValueError):
            manager.transient_demand(task_class, 1.0, -1, 0, 300.0)
        with pytest.raises(ValueError):
            manager.transient_demand(task_class, 1.0, 0, -1, 300.0)
        with pytest.raises(ValueError):
            manager.transient_demand(task_class, 1.0, 0, 0, 0.0)
