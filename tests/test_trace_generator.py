"""Tests for the synthetic trace generator's calibration to Section III."""

import numpy as np
import pytest

from repro.trace import (
    PriorityGroup,
    SyntheticTraceConfig,
    generate_trace,
    google_like_machine_census,
    size_scatter_by_group,
    trace_summary,
)


class TestMachineCensus:
    def test_ten_types(self):
        census = google_like_machine_census(1200)
        assert len(census) == 10

    def test_total_machines_exact(self):
        for total in (1200, 12000, 500):
            census = google_like_machine_census(total)
            assert sum(m.count for m in census) == total

    def test_share_shape_matches_fig5(self):
        """Types 1-2 hold ~50%/~30%; types 5-10 are tiny (<1% each)."""
        census = google_like_machine_census(12000)
        shares = [m.count / 12000 for m in census]
        assert 0.45 <= shares[0] <= 0.60
        assert 0.25 <= shares[1] <= 0.35
        for share in shares[4:]:
            assert share < 0.01

    def test_largest_machine_normalized_to_one(self):
        census = google_like_machine_census(1200)
        assert max(m.cpu_capacity for m in census) == pytest.approx(1.0)
        assert max(m.memory_capacity for m in census) == pytest.approx(1.0)

    def test_too_few_machines_rejected(self):
        with pytest.raises(ValueError):
            google_like_machine_census(5)


class TestGeneratorDeterminism:
    def test_same_seed_same_trace(self):
        config = SyntheticTraceConfig(horizon_hours=0.5, seed=3, total_machines=100)
        a, b = generate_trace(config), generate_trace(config)
        assert a.num_tasks == b.num_tasks
        assert [t.uid for t in a.tasks] == [t.uid for t in b.tasks]
        assert [t.cpu for t in a.tasks] == [t.cpu for t in b.tasks]

    def test_different_seed_different_trace(self):
        base = SyntheticTraceConfig(horizon_hours=0.5, seed=3, total_machines=100)
        other = SyntheticTraceConfig(horizon_hours=0.5, seed=4, total_machines=100)
        a, b = generate_trace(base), generate_trace(other)
        assert [t.cpu for t in a.tasks] != [t.cpu for t in b.tasks]


class TestWorkloadMarginals:
    """The Section III statistics the generator must reproduce."""

    def test_all_groups_present(self, small_trace):
        summary = trace_summary(small_trace)
        for group in ("gratis", "other", "production"):
            assert summary["group_counts"][group] > 0

    def test_majority_of_tasks_short(self, small_trace):
        """'More than 50% of the tasks are short (less than 100 seconds)'."""
        summary = trace_summary(small_trace)
        assert summary["short_task_fraction"] > 0.5

    def test_gratis_modal_spike(self, small_trace):
        """'43% of gratis tasks have the same CPU and memory requirements'."""
        scatter = size_scatter_by_group(small_trace)[PriorityGroup.GRATIS]
        fraction = scatter.modal_fraction(0.0125, 0.0159)
        assert 0.30 <= fraction <= 0.55

    def test_size_span_orders_of_magnitude(self, small_trace):
        """'The difference in task size can span several orders of magnitude'."""
        scatter = size_scatter_by_group(small_trace)[PriorityGroup.GRATIS]
        assert scatter.size_span_orders >= 1.5

    def test_low_cpu_memory_correlation(self, small_trace):
        """'There is usually no correlation between CPU and memory'."""
        for group, scatter in size_scatter_by_group(small_trace).items():
            if scatter.num_tasks > 50:
                assert abs(scatter.cpu_memory_correlation) < 0.6

    def test_production_durations_longest(self, small_trace):
        durations = {
            group: np.median([t.duration for t in small_trace.tasks_in_group(group)])
            for group in PriorityGroup
        }
        assert durations[PriorityGroup.PRODUCTION] > durations[PriorityGroup.GRATIS]

    def test_sizes_on_request_grid(self, small_trace):
        """Requests are quantized like real user requests (Section III-D)."""
        step = 0.0125 / 8
        for task in small_trace.tasks[:500]:
            ratio = task.cpu / step
            assert abs(ratio - round(ratio)) < 1e-6 or task.cpu == 1.0

    def test_mode_on_grid(self):
        """The gratis modal point itself must be representable on the grid."""
        step = 0.0125 / 8
        assert abs(0.0125 / step - round(0.0125 / step)) < 1e-9

    def test_tasks_within_job_share_size(self, small_trace):
        jobs = [j for j in small_trace.jobs() if j.num_tasks >= 2][:20]
        assert jobs, "expected some multi-task jobs"
        for job in jobs:
            cpus = {t.cpu for t in job.tasks}
            assert len(cpus) == 1

    def test_load_scaling_hits_target(self):
        """The calibrated p90 demand tracks load_factor."""
        import numpy as np

        from repro.trace import demand_timeseries

        loads = {}
        for load in (0.25, 0.6):
            trace = generate_trace(
                SyntheticTraceConfig(
                    horizon_hours=2, seed=5, total_machines=100, load_factor=load
                )
            )
            _, cpu, _ = demand_timeseries(trace, 600.0)
            capacity = sum(m.cpu_capacity * m.count for m in trace.machine_types)
            loads[load] = float(np.percentile(cpu, 90)) / capacity
        assert loads[0.6] > 1.4 * loads[0.25]
        # Each realized p90 lands near its target.
        assert loads[0.25] == pytest.approx(0.25, rel=0.45)
        assert loads[0.6] == pytest.approx(0.6, rel=0.45)


class TestSizeCatalog:
    def test_popular_sizes_dominate(self, small_trace):
        """Zipf popularity: the top handful of request sizes covers most
        tasks (the discrete-request structure of the real trace)."""
        from collections import Counter

        counts = Counter((t.cpu, t.memory) for t in small_trace.tasks)
        total = sum(counts.values())
        top10 = sum(c for _, c in counts.most_common(10))
        assert top10 / total > 0.5

    def test_memory_ratio_calibrated_per_trace(self):
        """The realized p90-of-series memory/cpu ratio is pinned to the
        configured memory bias on every seed (regime stability)."""
        import numpy as np

        from repro.trace import demand_timeseries

        for seed in (4, 8, 15):
            trace = generate_trace(
                SyntheticTraceConfig(
                    horizon_hours=1.5, seed=seed, total_machines=200,
                    load_factor=0.5,
                )
            )
            _, cpu, mem = demand_timeseries(trace, 600.0)
            ratio = float(np.percentile(mem, 90)) / float(np.percentile(cpu, 90))
            assert ratio == pytest.approx(1.3, rel=0.15)

    def test_modal_point_survives_calibration(self, small_trace):
        """Memory calibration must not move the (0.0125, 0.0159) atom."""
        modal = [
            t for t in small_trace.tasks
            if t.cpu == pytest.approx(0.0125) and t.memory == pytest.approx(0.0159)
        ]
        assert modal, "modal tasks must exist at their exact point"

    def test_constraint_platforms_override(self):
        from repro.energy import table2_fleet

        fleet_types = tuple(m.to_machine_type() for m in table2_fleet(0.1))
        trace = generate_trace(
            SyntheticTraceConfig(
                horizon_hours=1.0, seed=5, total_machines=150,
                constrained_fraction=0.3,
                constraint_platforms=fleet_types,
            )
        )
        constrained = [t for t in trace.tasks if t.allowed_platforms is not None]
        assert constrained
        fleet_ids = {m.platform_id for m in fleet_types}
        for task in constrained:
            assert task.allowed_platforms <= fleet_ids
            # Constraints only name platforms that can host the task.
            for pid in task.allowed_platforms:
                machine = next(m for m in fleet_types if m.platform_id == pid)
                assert task.cpu <= machine.cpu_capacity
                assert task.memory <= machine.memory_capacity


class TestConfigValidation:
    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            SyntheticTraceConfig(horizon_hours=0)

    def test_bad_load_factor(self):
        with pytest.raises(ValueError):
            SyntheticTraceConfig(load_factor=0.0)

    def test_bad_constrained_fraction(self):
        with pytest.raises(ValueError):
            SyntheticTraceConfig(constrained_fraction=1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("arrival_bin_seconds", 0.0),
            ("arrival_bin_seconds", -300.0),
            ("arrival_bin_seconds", float("nan")),
            ("burst_rate_per_day", -1.0),
            ("burst_magnitude", -0.5),
            ("burst_duration_hours", -1.5),
            ("burst_rate_per_day", float("nan")),
        ],
    )
    def test_bad_rate_fields_name_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            SyntheticTraceConfig(**{field: value})

    def test_zero_bursts_allowed(self):
        config = SyntheticTraceConfig(
            horizon_hours=0.5, total_machines=100, burst_rate_per_day=0.0,
            burst_magnitude=0.0, burst_duration_hours=0.0,
        )
        assert generate_trace(config).num_tasks > 0

    def test_constrained_tasks_generated(self):
        trace = generate_trace(
            SyntheticTraceConfig(
                horizon_hours=1, seed=9, total_machines=100, constrained_fraction=0.5
            )
        )
        constrained = [t for t in trace.tasks if t.allowed_platforms is not None]
        assert len(constrained) > 0.2 * trace.num_tasks


class TestCorrelationDegenerateBoundary:
    """Zero-variance samples get correlation 0.0 via a span tolerance."""

    def test_constant_resource_returns_zero(self):
        from repro.trace.statistics import SizeScatter

        scatter = SizeScatter(
            group=PriorityGroup.GRATIS,
            cpu=np.full(10, 0.25),
            memory=np.linspace(0.1, 0.9, 10),
        )
        assert scatter.cpu_memory_correlation == 0.0

    def test_subtolerance_span_treated_as_constant(self):
        from repro.trace.statistics import SizeScatter

        cpu = np.full(10, 0.25)
        cpu[0] += 1e-14  # numerical noise, not real variance
        scatter = SizeScatter(
            group=PriorityGroup.GRATIS,
            cpu=cpu,
            memory=np.linspace(0.1, 0.9, 10),
        )
        assert scatter.cpu_memory_correlation == 0.0

    def test_real_variance_still_correlates(self):
        from repro.trace.statistics import SizeScatter

        values = np.linspace(0.1, 0.9, 10)
        scatter = SizeScatter(
            group=PriorityGroup.GRATIS, cpu=values, memory=values
        )
        assert scatter.cpu_memory_correlation == pytest.approx(1.0)
