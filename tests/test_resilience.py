"""Resilience subsystem: fault injection, guarded control, recovery metrics.

Covers the fault-plan API and injector determinism, the
:class:`~repro.resilience.guard.GuardedController` invariants (validation,
clamping, solver fallback, circuit breaker), the new recovery metrics, and
the two end-to-end acceptance scenarios: a correlated outage absorbed by
the guarded CBS controller, and a monitoring blackout that trips the
circuit breaker into reactive threshold mode and recovers.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.energy import table2_fleet
from repro.provisioning import ProvisioningDecision
from repro.resilience import (
    CorrelatedOutage,
    FaultPlan,
    GuardedController,
    MachineDegradation,
    MonitoringBlackout,
    RandomMachineFailures,
    build_scenario_plan,
)
from repro.resilience.guard import MAX_STEP_FRACTION, MIN_RESIDUAL, MIN_STEP_MACHINES
from repro.simulation import (
    ClusterConfig,
    HarmonyConfig,
    HarmonySimulation,
    SimulationMetrics,
)
from repro.simulation.cluster import ClusterView
from repro.trace import SyntheticTraceConfig, generate_trace
from tests.conftest import make_task
from tests.test_cluster_simulation import SIMULATOR_CLASSES


# --------------------------------------------------------------------------
# Fault-plan API


class TestFaultSpecs:
    def test_plan_is_immutable_and_composable(self):
        plan = FaultPlan(seed=3)
        extended = plan.with_fault(MonitoringBlackout(time=100.0))
        assert not plan.has_faults
        assert extended.has_faults
        assert extended.seed == 3

    def test_poisson_preset(self):
        plan = build_scenario_plan("poisson", 3600.0, seed=5)
        assert plan.faults == (RandomMachineFailures(rate_per_machine_hour=0.05),)
        assert plan.seed == 5

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: CorrelatedOutage(time=-1.0, fraction=0.5),
            lambda: CorrelatedOutage(time=0.0, fraction=0.0),
            lambda: CorrelatedOutage(time=0.0, fraction=1.5),
            lambda: CorrelatedOutage(time=0.0, fraction=0.5, repair_seconds=-1.0),
            lambda: MachineDegradation(time=0.0, duration=0.0, fraction=0.5),
            lambda: MachineDegradation(time=0.0, duration=60.0, fraction=0.5, slowdown=1.0),
            lambda: MonitoringBlackout(time=0.0, intervals=0),
            lambda: RandomMachineFailures(rate_per_machine_hour=-0.1),
        ],
    )
    def test_bad_fault_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            bad()


# --------------------------------------------------------------------------
# ClusterConfig validation (regression: these used to be accepted silently)


class TestClusterConfigValidation:
    def test_defaults_valid(self):
        ClusterConfig()



# --------------------------------------------------------------------------
# GuardedController unit behaviour, against a hand-built view


def _view(time=0.0, powered=None, available=None, arrivals=None, fleet=None):
    fleet = fleet or table2_fleet(0.02)
    powered = powered if powered is not None else {m.platform_id: 10 for m in fleet}
    available = available if available is not None else {m.platform_id: m.count for m in fleet}
    return ClusterView(
        time=time,
        backlog={},
        running={},
        running_by_platform={},
        demand_cpu=5.0,
        demand_memory=5.0,
        available=available,
        powered=powered,
        arrivals=arrivals or {0: 50.0},
    )


class _ScriptedPolicy:
    """Replays a fixed list of decisions (or raises on ``None``)."""

    def __init__(self, actives):
        self.actives = list(actives)

    def decide(self, view):
        active = self.actives.pop(0)
        if active is None:
            raise RuntimeError("solver exploded")
        return ProvisioningDecision(time=view.time, active=active, quotas=None)


class TestGuardedController:
    @pytest.fixture
    def fleet(self):
        return table2_fleet(0.02)

    def test_nan_target_replaced_by_last_good(self, fleet):
        pid = fleet[0].platform_id
        guard = GuardedController(
            _ScriptedPolicy([{pid: 12}, {pid: float("nan")}]), fleet
        )
        first = guard.decide(_view(time=0.0))
        second = guard.decide(_view(time=300.0))
        assert guard.stats.invalid_decisions == 1
        assert all(
            math.isfinite(v) and v >= 0 for v in second.active.values()
        )
        assert second.active[pid] == first.active[pid]

    def test_negative_target_rejected(self, fleet):
        pid = fleet[0].platform_id
        guard = GuardedController(_ScriptedPolicy([{pid: -3}]), fleet)
        decision = guard.decide(_view())
        assert guard.stats.invalid_decisions == 1
        assert all(v >= 0 for v in decision.active.values())

    def test_solver_exception_falls_back(self, fleet):
        pid = fleet[0].platform_id
        guard = GuardedController(_ScriptedPolicy([{pid: 12}, None]), fleet)
        first = guard.decide(_view(time=0.0))
        second = guard.decide(_view(time=300.0))
        assert guard.stats.solver_failures == 1
        assert guard.stats.fallback_decisions == 1
        assert second.active[pid] == first.active[pid]

    def test_step_clamp_limits_per_tick_delta(self, fleet):
        pid = fleet[0].platform_id
        guard = GuardedController(
            _ScriptedPolicy([{m.platform_id: m.count for m in fleet}]), fleet
        )
        powered = {m.platform_id: 0 for m in fleet}
        decision = guard.decide(_view(powered=powered))
        step = max(MIN_STEP_MACHINES, math.ceil(MAX_STEP_FRACTION * fleet[0].count))
        assert step < fleet[0].count
        assert decision.active[pid] == step
        assert guard.stats.clamped_decisions == 1

    def test_target_never_exceeds_availability(self, fleet):
        pid = fleet[0].platform_id
        guard = GuardedController(_ScriptedPolicy([{pid: 10_000}]), fleet)
        available = {m.platform_id: 3 for m in fleet}
        powered = {m.platform_id: 3 for m in fleet}
        decision = guard.decide(_view(powered=powered, available=available))
        assert decision.active[pid] <= 3

    def test_breaker_trips_and_recovers_on_residuals(self, fleet):
        pid = fleet[0].platform_id
        guard = GuardedController(_ScriptedPolicy([{pid: 5}] * 20), fleet)
        t = 0.0
        # Steady arrivals: prediction converges, no strikes.
        for _ in range(3):
            guard.decide(_view(time=t, arrivals={0: 100.0}))
            t += 300.0
        assert not guard.tripped
        # Arrivals vanish (blackout-like): the second big residual trips it.
        for _ in range(2):
            assert not guard.tripped
            guard.decide(_view(time=t, arrivals={0: 0.0}))
            t += 300.0
        assert guard.tripped
        assert guard.stats.trips == 1
        # The EWMA decays below the absolute residual floor; the third calm
        # interval in a row closes the breaker again.
        calm = 0
        for _ in range(15):
            calm = calm + 1 if guard._predicted_next <= MIN_RESIDUAL else 0
            guard.decide(_view(time=t, arrivals={0: 0.0}))
            t += 300.0
            if not guard.tripped:
                break
        assert calm == 3
        assert guard.stats.recoveries == 1
        modes = {mode for _, mode in guard.mode_timeline}
        assert modes == {"mpc", "reactive"}

    def _trip(self, guard):
        """Steady arrivals, then a blackout long enough to open the breaker."""
        for tick, count in enumerate([100.0] * 3 + [0.0] * 3):
            guard.decide(_view(time=300.0 * tick, arrivals={0: count}))
        assert guard.tripped

    def test_policy_attributes_are_not_probed(self, fleet):
        """The guard calls ``policy.decide`` and its explicit hooks, nothing
        else: attributes that merely look like hooks are left alone."""
        pid = fleet[0].platform_id

        class _LookalikePolicy(_ScriptedPolicy):
            def observe_view(self, view):
                raise AssertionError("observe_view must not be called")

            @property
            def controller(self):
                raise AssertionError("controller must not be read")

        guard = GuardedController(_LookalikePolicy([{pid: 5}] * 6), fleet)
        self._trip(guard)
        assert guard.failure_log == []

    def test_explicit_hooks_drive_observe_and_breaker(self, fleet):
        pid = fleet[0].platform_id
        observed = []
        guard = GuardedController(
            _ScriptedPolicy([{pid: 5}] * 6),
            fleet,
            observe=lambda view: observed.append(view.time),
            forecast=lambda: 100.0,
        )
        self._trip(guard)
        # Closed, observing is policy.decide's job; the hook runs only on
        # the reactive ticks, once each.
        assert observed == [t for t, mode in guard.mode_timeline if mode == "reactive"]
        assert guard._predicted_next == 100.0

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            GuardedController(_ScriptedPolicy([]), ())


# --------------------------------------------------------------------------
# Recovery metrics on hand-fed episodes


class TestResilienceMetrics:
    def test_mttr_and_availability(self):
        metrics = SimulationMetrics()
        metrics.machine_failed(machine_id=1, time=100.0)
        metrics.machine_recovered(machine_id=1, time=700.0)
        metrics.machine_failed(machine_id=2, time=200.0)  # never repaired
        metrics.fault_sample(0.0, failed_machines=0, total_machines=10)
        metrics.fault_sample(300.0, failed_machines=2, total_machines=10)
        assert metrics.availability() == pytest.approx(0.9)
        # Open episode censored at the horizon: (600 + (1000-200)) / 2.
        assert metrics.mttr(censor_at=1000.0) == pytest.approx(700.0)

    def test_recover_without_failure_is_noop(self):
        metrics = SimulationMetrics()
        metrics.machine_recovered(machine_id=9, time=50.0)
        assert metrics.failure_events == []

    def test_restart_latency_closed_by_next_schedule(self):
        metrics = SimulationMetrics((make_task(job_id=7, submit_time=0.0),))
        metrics.task_submitted(0, time=0.0)
        metrics.task_scheduled(0, time=10.0, class_id=0, platform_id=1)
        metrics.task_killed(0, time=100.0)
        metrics.task_scheduled(0, time=160.0, class_id=0, platform_id=1)
        assert metrics.mean_restart_latency() == pytest.approx(60.0)

    def test_slo_attainment_counts_unscheduled_as_miss(self):
        fast, slow, never = 0, 1, 2
        metrics = SimulationMetrics(
            tuple(make_task(job_id=job_id, submit_time=0.0) for job_id in (1, 2, 3))
        )
        for row in (fast, slow, never):
            metrics.task_submitted(row, time=0.0)
        metrics.task_scheduled(fast, time=30.0, class_id=0, platform_id=1)
        metrics.task_scheduled(slow, time=900.0, class_id=0, platform_id=1)
        attained = metrics.slo_attainment(300.0, include_unscheduled_at=3600.0)
        assert attained == pytest.approx(1 / 3)


# --------------------------------------------------------------------------
# Failure-injection determinism (same seed => same run, bit for bit)


def _crash_run(seed, engine, rate=0.1, plan=None):
    fleet = table2_fleet(0.02)
    tasks = tuple(
        make_task(job_id=i, submit_time=1.0 + i, duration=2500.0, cpu=0.05, memory=0.05)
        for i in range(40)
    )

    class AllOn:
        def decide(self, view):
            return ProvisioningDecision(
                time=view.time,
                active={m.platform_id: m.count for m in fleet},
                quotas=None,
            )

    if plan is None:
        plan = FaultPlan(seed=seed).with_fault(
            RandomMachineFailures(rate_per_machine_hour=rate, repair_seconds=1800.0)
        )
    config = ClusterConfig(control_interval=300.0, fault_plan=plan)
    simulator = SIMULATOR_CLASSES[engine](
        tasks=tasks,
        horizon=7200.0,
        machine_models=fleet,
        policy=AllOn(),
        class_of=lambda task: 0,
        config=config,
    )
    metrics = simulator.run()
    signature = (
        tuple((f.machine_id, f.fail_time, f.recover_time) for f in metrics.failure_events),
        simulator.tasks_killed,
        metrics.num_scheduled,
        metrics.num_finished,
    )
    return simulator, metrics, signature


class TestFailureDeterminism:
    """Asserted on the object engine; the subclass below reruns every test
    on the columnar engine."""

    engine = "object"

    def test_same_seed_same_crash_schedule_and_metrics(self):
        _, _, first = _crash_run(seed=3, engine=self.engine)
        _, _, second = _crash_run(seed=3, engine=self.engine)
        assert first == second
        assert len(first[0]) > 0  # the runs actually crashed machines

    def test_different_seed_different_schedule(self):
        _, _, first = _crash_run(seed=3, engine=self.engine)
        _, _, second = _crash_run(seed=4, engine=self.engine)
        assert first[0] != second[0]


# --------------------------------------------------------------------------
# Scripted degradation (stragglers) stretches running work


class TestDegradation:
    """Asserted on the object engine; the subclass below reruns every test
    on the columnar engine."""

    engine = "object"

    def test_stragglers_slow_but_do_not_lose_tasks(self):
        plan = FaultPlan(seed=1).with_fault(
            MachineDegradation(time=600.0, duration=1800.0, fraction=0.5, slowdown=3.0)
        )
        simulator, metrics, _ = _crash_run(seed=1, engine=self.engine, plan=plan)
        assert simulator.fault_injector.stats.machines_degraded > 0
        # Nothing is killed by a slowdown; every task still finishes once,
        # and never earlier than its nominal duration allows.
        assert simulator.tasks_killed == 0
        assert metrics.num_finished == metrics.num_scheduled
        for record in metrics.records():
            if record.finish_time is not None:
                assert (
                    record.finish_time
                    >= record.schedule_time + record.task.duration - 1e-6
                )
        # The degradation window ended inside the horizon: slowdowns reset.
        for pool in simulator.pools:
            assert all(m.slowdown == 1.0 for m in pool.machines)


class TestFailureDeterminismColumnar(TestFailureDeterminism):
    engine = "columnar"


class TestDegradationColumnar(TestDegradation):
    engine = "columnar"


# --------------------------------------------------------------------------
# End-to-end acceptance: outage absorption and blackout breaker


@pytest.fixture(scope="module")
def res_trace():
    """One-hour trace shared by the end-to-end resilience scenarios."""
    return generate_trace(
        SyntheticTraceConfig(
            horizon_hours=1.0, seed=5, total_machines=150, load_factor=0.5
        )
    )


@pytest.fixture(scope="module")
def guarded_runs(res_trace):
    """Clean / outage / blackout runs of the guarded CBS controller."""
    base = HarmonyConfig(
        policy="cbs",
        predictor="ewma",
        guard=True,
        classifier_sample=1000,
    )
    plans = {
        "clean": None,
        "outage": FaultPlan(seed=1).with_fault(
            CorrelatedOutage(time=res_trace.horizon / 2, fraction=0.3)
        ),
        "blackout": FaultPlan(seed=1).with_fault(
            MonitoringBlackout(time=600.0, intervals=3)
        ),
    }
    results = {}
    classifier = None
    for name, plan in plans.items():
        simulation = HarmonySimulation(
            replace(base, fault_plan=plan), res_trace, classifier=classifier
        )
        classifier = simulation.classifier
        results[name] = simulation.run()
    return results


class TestOutageAcceptance:
    def test_outage_kills_quarter_of_a_pool(self, guarded_runs):
        outage = guarded_runs["outage"]
        biggest = max(HarmonyConfig().fleet, key=lambda m: m.count)
        assert len(outage.metrics.failure_events) >= math.ceil(0.25 * biggest.count)
        assert outage.tasks_killed > 0
        assert outage.fault_stats.outages == 1

    def test_guarded_run_absorbs_outage(self, guarded_runs):
        clean, outage = guarded_runs["clean"], guarded_runs["outage"]
        assert outage.metrics.num_scheduled >= 0.85 * clean.metrics.num_scheduled
        assert outage.guard_stats.invalid_decisions == 0

    def test_every_emitted_decision_is_valid(self, guarded_runs):
        fleet_size = {m.platform_id: m.count for m in HarmonyConfig().fleet}
        for result in guarded_runs.values():
            for decision in result.decisions:
                for pid, target in decision.active.items():
                    assert math.isfinite(target)
                    assert 0 <= target <= fleet_size[pid]

    def test_recovery_metrics_populated(self, guarded_runs, res_trace):
        outage = guarded_runs["outage"]
        assert outage.metrics.availability() < 1.0
        assert outage.metrics.mttr(censor_at=res_trace.horizon) > 0.0
        summary = outage.summary()["resilience"]
        assert summary["machines_failed"] > 0
        assert 0.0 < summary["availability"] < 1.0


class TestBlackoutAcceptance:
    def test_blackout_trips_breaker_into_reactive_and_recovers(self, guarded_runs):
        """A 3-interval monitoring blackout must trip the circuit breaker
        into threshold mode and anneal back to MPC before the horizon."""
        blackout = guarded_runs["blackout"]
        stats = blackout.guard_stats
        assert stats.trips >= 1
        assert stats.reactive_ticks >= 1
        assert stats.recoveries >= 1
        assert blackout.fault_stats.blackout_ticks == 3

    def test_arrivals_observed_exactly_once_per_tick(
        self, guarded_runs, res_trace, monkeypatch
    ):
        """Closed or open, each control tick feeds the predictors once."""
        from repro.provisioning import HarmonyController

        calls = []
        observe = HarmonyController.observe
        monkeypatch.setattr(
            HarmonyController,
            "observe",
            lambda self, counts: (calls.append(1), observe(self, counts))[1],
        )
        reference = guarded_runs["blackout"]
        simulation = HarmonySimulation(
            reference.config, res_trace, classifier=reference.classifier
        )
        build, primed = simulation.build_policy, []

        def build_then_mark():
            policy = build()
            primed.append(len(calls))  # prime() observes the history
            return policy

        monkeypatch.setattr(simulation, "build_policy", build_then_mark)
        result = simulation.run()
        assert result.guard_stats.trips >= 1 and result.guard_stats.recoveries >= 1
        assert len(calls) - primed[0] == len(result.guard_timeline)

    def test_mode_timeline_returns_to_mpc(self, guarded_runs):
        timeline = guarded_runs["blackout"].guard_timeline
        modes = [mode for _, mode in timeline]
        assert "reactive" in modes
        assert modes[-1] == "mpc"
        # Reactive ticks sit inside the run, bracketed by MPC control.
        assert modes[0] == "mpc"

    def test_blackout_masks_arrivals_in_fault_timeline(self, guarded_runs):
        samples = guarded_runs["blackout"].metrics.fault_timeline
        blackout_ticks = [s.time for s in samples if s.blackout]
        assert blackout_ticks == [600.0, 900.0, 1200.0]


# --------------------------------------------------------------------------
# Public prepare() accessor


class TestPrepareAccessor:
    def test_prepare_matches_internal_pipeline(self, res_trace):
        simulation = HarmonySimulation(
            HarmonyConfig(policy="cbs", predictor="ewma", classifier_sample=1000),
            res_trace,
        )
        tasks, class_of = simulation.prepare()
        assert len(tasks) == res_trace.num_tasks
        assert [t.submit_time for t in tasks] == sorted(t.submit_time for t in tasks)
        assert len(class_of) == len(tasks)  # a class id for every prepared row
        for row, task in enumerate(tasks[:50]):
            leaf = simulation.classifier.classify(task, observed_runtime=0.0)
            assert class_of[row] == leaf.class_id
