"""Integration tests for the cluster simulator and end-to-end HARMONY runs."""

import numpy as np
import pytest

from repro.energy import table2_fleet
from repro.provisioning import ProvisioningDecision
from repro.simulation import (
    ClusterConfig,
    ClusterSimulator,
    ColumnarClusterSimulator,
    HarmonyConfig,
    HarmonySimulation,
    run_policy_comparison,
)
from repro.simulation.harmony import energy_savings
from repro.trace import PriorityGroup, Trace, MachineType
from tests.conftest import make_task


class AllOnPolicy:
    """Keeps every machine powered; no quotas."""

    def __init__(self, fleet):
        self.active = {m.platform_id: m.count for m in fleet}

    def decide(self, view):
        return ProvisioningDecision(time=view.time, active=dict(self.active), quotas=None)


class NothingPolicy:
    """Never powers anything on."""

    def decide(self, view):
        return ProvisioningDecision(time=view.time, active={}, quotas=None)


#: Engine name -> simulator class (same constructor signature).
SIMULATOR_CLASSES = {
    "object": ClusterSimulator,
    "columnar": ColumnarClusterSimulator,
}


def run_simulator(tasks, fleet, policy, horizon=3600.0, engine="object", **kwargs):
    simulator = SIMULATOR_CLASSES[engine](
        tasks=tuple(sorted(tasks, key=lambda t: t.submit_time)),
        horizon=horizon,
        machine_models=fleet,
        policy=policy,
        class_of=lambda task: 0,
        config=ClusterConfig(control_interval=300.0),
        **kwargs,
    )
    metrics = simulator.run()
    return simulator, metrics


class TestClusterSimulator:
    """Simulator-level behaviour, asserted against both replay engines."""

    @pytest.fixture(autouse=True)
    def _engine(self, engine):
        self.engine = engine

    def run_sim(self, tasks, fleet, policy, **kwargs):
        return run_simulator(tasks, fleet, policy, engine=self.engine, **kwargs)

    def test_tasks_complete_with_capacity(self):
        fleet = table2_fleet(0.02)
        tasks = [
            make_task(job_id=i, submit_time=10.0 * i, duration=100.0, cpu=0.05, memory=0.05)
            for i in range(20)
        ]
        _, metrics = self.run_sim(tasks, fleet, AllOnPolicy(fleet))
        assert metrics.num_scheduled == 20
        assert metrics.num_finished == 20
        # All-on from t=0 means no boot delay after the first tick.
        assert metrics.mean_delay() < 300.0

    def test_no_machines_nothing_scheduled(self):
        fleet = table2_fleet(0.02)
        tasks = [make_task(job_id=i, submit_time=1.0, duration=10.0) for i in range(5)]
        _, metrics = self.run_sim(tasks, fleet, NothingPolicy())
        assert metrics.num_scheduled == 0
        assert metrics.num_unscheduled == 5

    def test_boot_delay_gates_first_placements(self):
        fleet = table2_fleet(0.02)
        tasks = [make_task(job_id=1, submit_time=1.0, duration=50.0, cpu=0.05, memory=0.05)]
        _, metrics = self.run_sim(tasks, fleet, AllOnPolicy(fleet))
        record = metrics.records[(1, 0)]
        # Machines are ordered at t=0 and boot in 90-150 s: the task placed
        # at the first MACHINE_READY, not at its arrival.
        assert record.schedule_time is not None
        assert 60.0 <= record.schedule_time <= 300.0

    def test_energy_accounted_per_interval(self):
        fleet = table2_fleet(0.02)
        tasks = [make_task(job_id=1, submit_time=1.0, duration=100.0)]
        simulator, _ = self.run_sim(tasks, fleet, AllOnPolicy(fleet), horizon=1800.0)
        assert simulator.energy.total_kwh > 0
        times = {r.time for r in simulator.energy.records}
        assert len(times) >= 5  # one batch per elapsed interval

    def test_demand_tracking(self):
        fleet = table2_fleet(0.02)
        tasks = [
            make_task(job_id=1, submit_time=1.0, duration=10_000.0, cpu=0.3, memory=0.2)
        ]
        simulator, _ = self.run_sim(tasks, fleet, AllOnPolicy(fleet))
        assert simulator._demand_cpu == pytest.approx(0.3)
        assert simulator._demand_memory == pytest.approx(0.2)

    def test_quota_stocks_released_on_finish(self):
        fleet = table2_fleet(0.02)
        tasks = [make_task(job_id=1, submit_time=1.0, duration=100.0, cpu=0.05, memory=0.05)]
        simulator, metrics = self.run_sim(tasks, fleet, AllOnPolicy(fleet))
        assert metrics.num_finished == 1
        assert simulator.ledger.snapshot() == {}

    def test_constrained_task_only_on_allowed_platform(self):
        fleet = table2_fleet(0.02)
        dl585_pid = fleet[3].platform_id
        tasks = [
            make_task(
                job_id=1, submit_time=1.0, duration=100.0, cpu=0.05, memory=0.05,
                allowed_platforms=frozenset({dl585_pid}),
            )
        ]
        _, metrics = self.run_sim(tasks, fleet, AllOnPolicy(fleet))
        record = metrics.records[(1, 0)]
        assert record.platform_id == dl585_pid

    def test_relabel_updates_ledger_and_record(self):
        fleet = table2_fleet(0.02)
        task = make_task(job_id=1, submit_time=1.0, duration=2000.0, cpu=0.05, memory=0.05)

        observed = []

        def relabel(t, elapsed):
            observed.append(elapsed)
            return 1 if elapsed > 500.0 else 0

        simulator, metrics = self.run_sim(
            [task], fleet, AllOnPolicy(fleet), horizon=1800.0, relabel=relabel
        )
        assert simulator.relabel_events == 1
        # Mislabelled for at most the split boundary, plus the control
        # interval (300 s) it takes the next tick to notice.
        assert min(e for e in observed if e > 500.0) <= 500.0 + 300.0
        assert metrics.records[(1, 0)].class_id == 1
        snapshot = simulator.ledger.snapshot()
        stocks = {cid for by_class in snapshot.values() for cid in by_class}
        assert stocks == {1}

    def test_machine_timeline_recorded_each_tick(self):
        fleet = table2_fleet(0.02)
        _, metrics = self.run_sim([], fleet, AllOnPolicy(fleet), horizon=1500.0)
        times = [t for t, _, _ in metrics.machine_timeline]
        assert times == [0.0, 300.0, 600.0, 900.0, 1200.0, 1500.0]

    def test_bad_horizon(self):
        fleet = table2_fleet(0.02)
        with pytest.raises(ValueError):
            ClusterSimulator(
                tasks=(), horizon=0.0, machine_models=fleet,
                policy=NothingPolicy(), class_of=lambda t: 0,
            )


class TestFailureInjection:
    @pytest.fixture(autouse=True)
    def _engine(self, engine):
        self.engine = engine

    def _run_with_failures(self, rate, duration=2000.0, num_tasks=30, horizon=7200.0):
        fleet = table2_fleet(0.02)
        tasks = [
            make_task(job_id=i, submit_time=1.0 + i, duration=duration,
                      cpu=0.05, memory=0.05)
            for i in range(num_tasks)
        ]
        simulator = SIMULATOR_CLASSES[self.engine](
            tasks=tuple(tasks),
            horizon=horizon,
            machine_models=fleet,
            policy=AllOnPolicy(fleet),
            class_of=lambda task: 0,
            config=ClusterConfig(
                control_interval=300.0,
                failure_rate_per_machine_hour=rate,
                repair_seconds=1800.0,
                failure_seed=3,
            ),
        )
        metrics = simulator.run()
        return simulator, metrics

    def test_no_failures_at_zero_rate(self):
        simulator, _ = self._run_with_failures(rate=0.0)
        assert simulator.tasks_killed == 0
        assert sum(p.stats.failures for p in simulator.pools) == 0

    def test_failures_kill_and_restart_tasks(self):
        simulator, metrics = self._run_with_failures(rate=0.05)
        assert sum(p.stats.failures for p in simulator.pools) > 0
        assert simulator.tasks_killed > 0
        # Restarted tasks eventually finish (capacity is plentiful).
        assert metrics.num_finished >= 25

    def test_ledger_consistent_after_failures(self):
        simulator, metrics = self._run_with_failures(rate=0.05)
        # Every stock corresponds to a task still running at the horizon.
        total_stock = sum(
            count
            for by_class in simulator.ledger.snapshot().values()
            for count in by_class.values()
        )
        running = sum(
            len(m.running) for p in simulator.pools for m in p.machines
        )
        assert total_stock == running

    def test_stale_finish_events_ignored(self):
        """A killed-and-restarted task must finish exactly once."""
        simulator, metrics = self._run_with_failures(rate=0.2, num_tasks=10)
        finished = [r for r in metrics.records.values() if r.finish_time is not None]
        for record in finished:
            # finish must come after the (latest) schedule time plus the
            # full duration, never earlier (stale events would be earlier).
            assert record.finish_time >= record.schedule_time + record.task.duration - 1e-6

    def test_failed_machines_unavailable_until_repair(self):
        fleet = table2_fleet(0.02)
        pool_model = fleet[3]
        from repro.simulation import MachinePool

        pool = MachinePool(pool_model)
        started = pool.reconcile(2, now=0.0)
        for m in started:
            pool.machine_ready(m)
        victim = started[0]
        pool.fail(victim, now=100.0, repair_seconds=1000.0)
        assert victim.state.value == "off"
        # Cannot boot it before repair completes.
        booted = pool.reconcile(pool.total, now=200.0)
        assert victim not in booted
        booted_later = pool.reconcile(pool.total, now=2000.0)
        assert victim in booted_later


class TestHarmonySimulation:
    @pytest.fixture(scope="class")
    def cbs_result(self, tiny_trace):
        config = HarmonyConfig(policy="cbs", predictor="ewma", classifier_sample=1000)
        return HarmonySimulation(config, tiny_trace).run()

    def test_most_tasks_scheduled(self, cbs_result, tiny_trace):
        assert cbs_result.metrics.num_submitted == tiny_trace.num_tasks
        assert cbs_result.metrics.num_scheduled >= 0.85 * tiny_trace.num_tasks

    def test_energy_positive(self, cbs_result):
        assert cbs_result.energy_kwh > 0
        assert cbs_result.total_cost >= cbs_result.energy_cost

    def test_summary_structure(self, cbs_result):
        summary = cbs_result.summary()
        assert summary["policy"] == "cbs"
        assert set(summary["delay_by_group"]) == {"gratis", "other", "production"}
        for stats in summary["delay_by_group"].values():
            assert stats["mean_s"] >= 0

    def test_decisions_and_container_timeline(self, cbs_result):
        assert len(cbs_result.decisions) > 0
        times, by_group = cbs_result.metrics.containers_series()
        assert times.size == len(cbs_result.decisions)
        assert sum(arr.sum() for arr in by_group.values()) > 0

    def test_static_policy_uses_whole_fleet(self, tiny_trace):
        config = HarmonyConfig(policy="static", classifier_sample=1000)
        result = HarmonySimulation(config, tiny_trace).run()
        fleet_size = sum(m.count for m in config.fleet)
        # Skip the t=0 sample (taken before the first decision powers on).
        steady = [p for t, p, _ in result.metrics.machine_timeline if t > 0]
        assert np.mean(steady) == pytest.approx(fleet_size, rel=0.05)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            HarmonyConfig(policy="magic")

    def test_split_arrivals_conserves_mass(self, tiny_trace):
        config = HarmonyConfig(policy="cbs", classifier_sample=1000)
        simulation = HarmonySimulation(config, tiny_trace)
        class_ids = sorted(simulation.manager.specs)
        arrivals = {cid: 5.0 for cid in class_ids[:6]}
        split = simulation.split_arrivals(arrivals)
        assert sum(split.values()) == pytest.approx(sum(arrivals.values()))

    def test_relabel_class_table(self, tiny_trace):
        config = HarmonyConfig(policy="cbs", classifier_sample=1000)
        simulation = HarmonySimulation(config, tiny_trace)
        task = tiny_trace.tasks[0]
        short_label = simulation.relabel_class(task, 0.0)
        long_label = simulation.relabel_class(task, 10 * 24 * 3600.0)
        assert short_label == simulation._class_by_uid[task.uid]
        # After ten days every splittable class has flipped to long.
        leaf = simulation.classifier.class_by_id(long_label)
        assert leaf.class_id == long_label


class TestPolicyComparison:
    @pytest.fixture(scope="class")
    def results(self, tiny_trace):
        config = HarmonyConfig(predictor="ewma", classifier_sample=1000)
        return run_policy_comparison(tiny_trace, config)

    def test_all_policies_ran(self, results):
        assert set(results) == {"baseline", "cbp", "cbs"}

    def test_shared_classifier(self, results):
        ids = {id(r.classifier) for r in results.values()}
        assert len(ids) == 1

    def test_savings_computable(self, results):
        savings = energy_savings(results)
        assert savings["baseline"] == 0.0
        # On a 30-minute trace the ramp dominates and ratios are noisy;
        # this test only checks the computation, the headline shape is
        # asserted at bench scale (bench_fig26_energy_savings).
        for value in savings.values():
            assert -10.0 < value < 1.0

    def test_savings_requires_reference(self, results):
        with pytest.raises(KeyError):
            energy_savings(results, against="static")
