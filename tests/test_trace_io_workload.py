"""Tests for trace persistence and workload timelines."""

import numpy as np
import pytest

from repro.trace import (
    PriorityGroup,
    SyntheticTraceConfig,
    arrival_rate_series,
    bin_arrivals,
    demand_timeseries,
    empirical_cdf,
    generate_trace,
    load_trace,
    save_trace,
    load_tasks_csv,
    save_tasks_csv,
    duration_cdf_by_group,
    machine_census_table,
)
from tests.conftest import make_task


class TestTraceIO:
    def test_round_trip(self, tiny_trace, tmp_path):
        save_trace(tiny_trace, tmp_path / "trace")
        loaded = load_trace(tmp_path / "trace")
        assert loaded.num_tasks == tiny_trace.num_tasks
        assert loaded.horizon == pytest.approx(tiny_trace.horizon)
        assert len(loaded.machine_types) == len(tiny_trace.machine_types)
        for a, b in zip(loaded.tasks, tiny_trace.tasks):
            assert a.uid == b.uid
            assert a.cpu == pytest.approx(b.cpu, rel=1e-6)
            assert a.duration == pytest.approx(b.duration, rel=1e-6)
            assert a.allowed_platforms == b.allowed_platforms

    def test_tasks_csv_round_trip_with_constraints(self, tmp_path):
        tasks = [
            make_task(job_id=1, allowed_platforms=frozenset({1, 3})),
            make_task(job_id=2, submit_time=1.0),
        ]
        path = tmp_path / "tasks.csv"
        assert save_tasks_csv(tasks, path) == 2
        loaded = load_tasks_csv(path)
        assert loaded[0].allowed_platforms == frozenset({1, 3})
        assert loaded[1].allowed_platforms is None

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,job_id\n0,1\n")
        with pytest.raises(ValueError, match="missing columns"):
            load_tasks_csv(path)

    def test_metadata_preserved(self, tmp_path):
        trace = generate_trace(
            SyntheticTraceConfig(horizon_hours=0.25, seed=1, total_machines=50)
        )
        loaded = load_trace(save_trace(trace, tmp_path / "t"))
        assert loaded.metadata["seed"] == 1


class TestArrivalBinning:
    def test_counts_sum_to_tasks(self, tiny_trace):
        series = bin_arrivals(tiny_trace.tasks, tiny_trace.horizon, 300.0)
        assert series.total().sum() == tiny_trace.num_tasks

    def test_bin_count(self):
        tasks = [make_task(job_id=i, submit_time=float(i)) for i in range(10)]
        series = bin_arrivals(tasks, horizon=100.0, bin_seconds=10.0)
        assert series.num_bins == 10
        assert series.total()[0] == 10

    def test_rate_units(self):
        tasks = [make_task(job_id=i, submit_time=0.5) for i in range(20)]
        series = bin_arrivals(tasks, horizon=10.0, bin_seconds=10.0,
                              key=lambda t: "all")
        assert series.rate("all")[0] == pytest.approx(2.0)

    def test_custom_key(self, tiny_trace):
        series = bin_arrivals(
            tiny_trace.tasks, tiny_trace.horizon, 600.0, key=lambda t: t.priority
        )
        assert all(isinstance(k, int) for k in series.keys())

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            bin_arrivals([], horizon=10.0, bin_seconds=0.0)
        with pytest.raises(ValueError):
            bin_arrivals([], horizon=0.0, bin_seconds=10.0)

    def test_arrival_rate_series_covers_groups(self, tiny_trace):
        rates = arrival_rate_series(tiny_trace)
        assert set(rates) == set(PriorityGroup)


class TestDemandTimeseries:
    def test_single_task_demand_window(self):
        from repro.trace import Trace, MachineType

        machines = (MachineType(platform_id=1, cpu_capacity=1.0, memory_capacity=1.0, count=1),)
        task = make_task(submit_time=100.0, duration=200.0, cpu=0.5, memory=0.25)
        trace = Trace.from_tasks(machines, [task], horizon=600.0)
        times, cpu, mem = demand_timeseries(trace, bin_seconds=100.0)
        # Task alive in bins [1, 2] (100-300s).
        assert cpu[0] == pytest.approx(0.0)
        assert cpu[1] == pytest.approx(0.5)
        assert cpu[2] == pytest.approx(0.5)
        assert cpu[4] == pytest.approx(0.0)
        assert mem[1] == pytest.approx(0.25)

    def test_demand_includes_pending_definition(self, tiny_trace):
        """Demand counts every alive task regardless of scheduling state."""
        times, cpu, mem = demand_timeseries(tiny_trace, 300.0)
        integral = float(cpu.sum() * 300.0)
        # Work clipped to the observation horizon (long tasks outlive it).
        clipped_work = sum(
            t.cpu * min(t.duration, tiny_trace.horizon - t.submit_time)
            for t in tiny_trace.tasks
        )
        # Bin-granularity padding: each task can gain up to one bin.
        assert integral >= clipped_work * 0.5
        assert integral <= clipped_work + 300.0 * tiny_trace.num_tasks


class TestStatistics:
    def test_empirical_cdf_monotone(self):
        x, f = empirical_cdf([3.0, 1.0, 2.0])
        assert list(x) == [1.0, 2.0, 3.0]
        assert list(f) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_empirical_cdf_empty(self):
        x, f = empirical_cdf([])
        assert x.size == 0 and f.size == 0

    def test_duration_cdf_by_group(self, tiny_trace):
        cdfs = duration_cdf_by_group(tiny_trace)
        for group, (x, f) in cdfs.items():
            if x.size:
                assert np.all(np.diff(f) >= 0)

    def test_machine_census_table_shares_sum_to_one(self, tiny_trace):
        rows = machine_census_table(tiny_trace)
        assert sum(r["share"] for r in rows) == pytest.approx(1.0)
        counts = [r["count"] for r in rows]
        assert counts == sorted(counts, reverse=True)
