"""Fabric fault universe: topology model, link faults, partition tolerance.

Unit tests pin the deterministic topology/state model
(:mod:`repro.resilience.fabric`) and the bisect-backed blackout index;
cluster-level tests drive link degradation and partial partitions through
:class:`ClusterSimulator` and assert the exact service-time stretch and
placement-deferral semantics; the end-to-end acceptance test shows the
guarded CBS controller degrading *per cell* under a partial partition —
healthy cells keep the MPC rung while the severed cell is held and then
reconciled on heal — with everything surfaced in
``summary()["resilience"]["fabric"]``.  The differential test proves a
no-op fabric plan reproduces the clean summary digest bit for bit, and
the suite-level tests pin serial/parallel/SIGKILL-resume digest equality
for the ``network_faults`` suite.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.provisioning.controller import ProvisioningDecision
from repro.resilience import (
    FabricState,
    FabricTopology,
    FabricView,
    FaultPlan,
    FlappingLink,
    LinkDegradation,
    MonitoringBlackout,
    PartialPartition,
    build_scenario_plan,
    link_key,
    link_label,
)
from repro.resilience.faults import FaultInjector
from repro.runner import (
    BenchDefaults,
    Scenario,
    ScenarioRunner,
    ScenarioSupervisor,
    SupervisorConfig,
    baseline_payload,
)
from repro.runner.suites import NETWORK_FAULT_SCENARIOS, network_faults_scenarios
from repro.simulation import (
    ClusterConfig,
    ClusterSimulator,
    DegradationLadder,
    HarmonyConfig,
    HarmonySimulation,
)
from repro.trace import SyntheticTraceConfig, generate_trace
from tests.conftest import make_task

# --------------------------------------------------------------------------
# Topology model


class TestLinkKey:
    def test_canonical_order(self):
        assert link_key(3, 1) == (1, 3)
        assert link_key(1, 3) == (1, 3)

    def test_self_link_rejected(self):
        with pytest.raises(ValueError):
            link_key(2, 2)

    def test_label(self):
        assert link_label((1, 3)) == "1-3"


class TestFabricTopology:
    def test_full_mesh(self):
        topo = FabricTopology.full_mesh((1, 2, 3))
        assert topo.cells == (1, 2, 3)
        assert topo.links == ((1, 2), (1, 3), (2, 3))
        assert topo.ingest_cell == 1

    def test_ingest_defaults_to_smallest_cell(self):
        assert FabricTopology.full_mesh((4, 2, 9)).ingest_cell == 2

    def test_explicit_ingest_cell(self):
        assert FabricTopology.full_mesh((1, 2), ingest_cell=2).ingest_cell == 2

    def test_link_to_unknown_cell_rejected(self):
        with pytest.raises(ValueError):
            FabricTopology(cells=(1, 2), links=((1, 5),), ingest_cell=1)

    def test_unknown_ingest_rejected(self):
        with pytest.raises(ValueError):
            FabricTopology(cells=(1, 2), links=((1, 2),), ingest_cell=7)

    def test_has_link_is_order_insensitive(self):
        topo = FabricTopology.full_mesh((1, 2, 3))
        assert topo.has_link((3, 1))
        assert not topo.has_link((1, 4))


class TestFabricState:
    def test_initially_everything_reachable(self):
        state = FabricState(FabricTopology.full_mesh((1, 2, 3, 4)))
        assert state.reachable_cells() == frozenset({1, 2, 3, 4})
        assert state.unreachable_cells() == ()
        assert not state.partitioned

    def test_severing_all_links_to_a_cell_partitions_it(self):
        state = FabricState(FabricTopology.full_mesh((1, 2, 3, 4)))
        for pair in ((1, 4), (2, 4), (3, 4)):
            state.sever(pair)
        assert state.unreachable_cells() == (4,)
        assert state.partitioned
        state.heal((2, 4))
        assert state.unreachable_cells() == ()

    def test_mesh_survives_single_cut(self):
        # 1-2 severed, but 2 stays reachable via 1-3-2 (or any other cell).
        state = FabricState(FabricTopology.full_mesh((1, 2, 3)))
        state.sever((1, 2))
        assert state.reachable_cells() == frozenset({1, 2, 3})

    def test_heal_underflow_rejected(self):
        state = FabricState(FabricTopology.full_mesh((1, 2)))
        with pytest.raises(ValueError):
            state.heal((1, 2))

    def test_overlapping_cuts_are_counted(self):
        state = FabricState(FabricTopology.full_mesh((1, 2)))
        state.sever((1, 2))
        state.sever((1, 2))
        state.heal((1, 2))
        assert state.partitioned
        state.heal((1, 2))
        assert not state.partitioned

    def test_stretch_compounds_multiplicatively(self):
        state = FabricState(FabricTopology.full_mesh((1, 2)))
        state.degrade((1, 2), 2.0)
        state.degrade((1, 2), 1.5)
        assert state.link_stretch((1, 2)) == pytest.approx(3.0)
        state.restore((1, 2), 2.0)
        assert state.link_stretch((1, 2)) == pytest.approx(1.5)

    def test_restore_without_degrade_rejected(self):
        state = FabricState(FabricTopology.full_mesh((1, 2)))
        with pytest.raises(ValueError):
            state.restore((1, 2), 2.0)

    def test_cell_stretch_takes_the_cheapest_path(self):
        # Direct 1-3 degraded 4x; detour 1-2-3 degraded 1.5 * 1.2 = 1.8x.
        state = FabricState(FabricTopology.full_mesh((1, 2, 3)))
        state.degrade((1, 3), 4.0)
        state.degrade((1, 2), 1.5)
        state.degrade((2, 3), 1.2)
        stretch = state.cell_stretch()
        assert stretch[1] == pytest.approx(1.0)  # ingest cell never stretches
        assert stretch[3] == pytest.approx(1.8)

    def test_degraded_links_lists_cut_and_stretched(self):
        state = FabricState(FabricTopology.full_mesh((1, 2, 3)))
        state.sever((1, 2))
        state.degrade((2, 3), 2.0)
        assert state.degraded_links() == ((1, 2), (2, 3))


# --------------------------------------------------------------------------
# Scenario plans and suite wiring


class TestFabricScenarios:
    @pytest.mark.parametrize(
        "name, fault_type",
        [
            ("link_degradation", LinkDegradation),
            ("partial_partition", PartialPartition),
            ("link_flapping", FlappingLink),
        ],
    )
    def test_named_scenarios_build_fabric_plans(self, name, fault_type):
        plan = build_scenario_plan(name, 7200.0, seed=3)
        assert isinstance(plan, FaultPlan)
        assert len(plan.faults) == 1
        assert isinstance(plan.faults[0], fault_type)

    def test_partition_scenario_severs_cell_4(self):
        plan = build_scenario_plan("partial_partition", 7200.0)
        assert plan.faults[0].cut == ((1, 4), (2, 4), (3, 4))

    def test_suite_covers_every_fabric_scenario(self):
        scenarios = network_faults_scenarios(
            BenchDefaults(hours=0.5, machines=120, seed=11, load=0.4)
        )
        assert [s.name for s in scenarios] == [
            f"net_{name}" for name in NETWORK_FAULT_SCENARIOS
        ]
        assert all(s.task == "simulate" for s in scenarios)

    def test_unknown_link_in_plan_rejected_at_attach(self):
        plan = FaultPlan(seed=0, topology=FabricTopology.full_mesh((1, 2))).with_fault(
            PartialPartition(time=10.0, duration=10.0, cut=((1, 9),))
        )
        injector = FaultInjector(plan)
        stub = SimpleNamespace(
            config=SimpleNamespace(control_interval=300.0),
            schedule_fault=lambda time, payload: None,
            fabric_cells=lambda: [1, 2],
            attach_fabric=lambda fabric: None,
        )
        with pytest.raises(ValueError, match="unknown link"):
            injector.attach(stub)


# --------------------------------------------------------------------------
# Satellite: blackout bisect index replaces the linear scan


class TestBlackoutBisect:
    def _attached(self, plan: FaultPlan) -> FaultInjector:
        injector = FaultInjector(plan)
        injector.attach(
            SimpleNamespace(
                config=SimpleNamespace(control_interval=300.0),
                schedule_fault=lambda time, payload: None,
            )
        )
        return injector

    def test_many_overlapping_windows_match_linear_reference(self):
        plan = FaultPlan(seed=0)
        # 150 windows with deliberately non-monotone extents: window i
        # starts at 37*i and lasts 1..5 intervals, so later-starting
        # windows frequently end before earlier-starting ones.
        for i in range(150):
            plan = plan.with_fault(
                MonitoringBlackout(time=37.0 * i, intervals=1 + (i * 7) % 5)
            )
        injector = self._attached(plan)
        windows = list(injector._blackouts)
        assert len(windows) == 150
        for tick in range(0, 7000, 13):
            now = float(tick)
            linear = any(start <= now < end for start, end in windows)
            assert injector.in_blackout(now) == linear, f"diverged at t={now}"

    def test_boundaries_are_half_open(self):
        injector = self._attached(
            FaultPlan(seed=0).with_fault(MonitoringBlackout(time=600.0, intervals=2))
        )
        assert not injector.in_blackout(599.9)
        assert injector.in_blackout(600.0)
        assert injector.in_blackout(1199.9)
        assert not injector.in_blackout(1200.0)

    def test_no_windows_never_in_blackout(self):
        injector = self._attached(FaultPlan(seed=0))
        assert not injector.in_blackout(0.0)
        assert not injector.in_blackout(1e9)


# --------------------------------------------------------------------------
# Cluster-level semantics: stretch, deferral, heal


def _fabric_cluster(plan, tasks, horizon=3600.0):
    """An AllOn ClusterSimulator over the Table II fleet with ``plan``."""
    from repro.energy import table2_fleet

    fleet = table2_fleet(0.1)

    class AllOn:
        def decide(self, view):
            return ProvisioningDecision(
                time=view.time,
                active={m.platform_id: m.count for m in fleet},
                quotas=None,
            )

    return ClusterSimulator(
        tasks=tasks,
        horizon=horizon,
        machine_models=fleet,
        policy=AllOn(),
        class_of=lambda task: 0,
        config=ClusterConfig(control_interval=300.0, fault_plan=plan),
    )


#: cpu/memory that only the cell-4 platform (DL585 G7) can host.
_CELL4_ONLY = {"cpu": 0.6, "memory": 0.6}


class TestLinkDegradationStretch:
    def test_degraded_path_stretches_service_time_exactly(self):
        # All links into cell 4 carry stretch 2 for the whole run; the
        # task (placeable only in cell 4) must take exactly twice as long.
        plan = FaultPlan(seed=0).with_fault(
            LinkDegradation(
                time=0.5,
                duration=10_000.0,
                links=((1, 4), (2, 4), (3, 4)),
                throughput_factor=0.5,
                latency_factor=1.0,
            )
        )
        task = make_task(job_id=1, submit_time=1.0, duration=1000.0, **_CELL4_ONLY)
        simulator = _fabric_cluster(plan, (task,))
        metrics = simulator.run()
        record = metrics.records[task.uid]
        # Placement waits for the machine boot; the run itself is 2x.
        assert record.finish_time == pytest.approx(record.schedule_time + 2000.0)
        assert metrics.fabric.degraded_link_ticks["1-4"] > 0

    def test_restore_mid_flight_rescales_remaining_work(self):
        plan = FaultPlan(seed=0).with_fault(
            LinkDegradation(
                time=0.5,
                duration=1500.0,  # restored at t=1500.5, task half done
                links=((1, 4), (2, 4), (3, 4)),
                throughput_factor=0.5,
                latency_factor=1.0,
            )
        )
        task = make_task(job_id=1, submit_time=1.0, duration=1000.0, **_CELL4_ONLY)
        simulator = _fabric_cluster(plan, (task,))
        metrics = simulator.run()
        record = metrics.records[task.uid]
        # Stretched (2x) progress until the restore at t=1500.5, then the
        # remaining work units complete at full speed.
        restore = 1500.5
        done_at_restore = (restore - record.schedule_time) / 2.0
        expected = restore + (1000.0 - done_at_restore)
        assert record.finish_time == pytest.approx(expected)

    def test_noop_degradation_changes_nothing(self):
        plan = FaultPlan(seed=0).with_fault(
            LinkDegradation(time=0.5, duration=10_000.0, links=())
        )
        task = make_task(job_id=1, submit_time=1.0, duration=1000.0, **_CELL4_ONLY)
        metrics = _fabric_cluster(plan, (task,)).run()
        record = metrics.records[task.uid]
        assert record.finish_time == pytest.approx(record.schedule_time + 1000.0)
        assert metrics.fabric.degraded_link_ticks == {}


class TestPartialPartitionPlacement:
    def test_unreachable_cell_defers_placement_until_heal(self):
        # Cell 4 is cut from t=100 to t=1000; the task (cell-4-only,
        # arriving at 200) must wait for the heal and the next control
        # tick before it is placed.
        plan = FaultPlan(seed=0).with_fault(
            PartialPartition(
                time=100.0, duration=900.0, cut=((1, 4), (2, 4), (3, 4))
            )
        )
        task = make_task(job_id=1, submit_time=200.0, duration=100.0, **_CELL4_ONLY)
        simulator = _fabric_cluster(plan, (task,))
        metrics = simulator.run()
        record = metrics.records[task.uid]
        assert record.schedule_time is not None
        assert record.schedule_time >= 1000.0
        assert record.finish_time is not None
        assert metrics.fabric.deferred_placements > 0
        assert metrics.fabric.partition_seconds == pytest.approx(900.0)
        assert metrics.fabric.max_unreachable_cells == 1

    def test_reachable_placement_is_not_deferred(self):
        plan = FaultPlan(seed=0).with_fault(
            PartialPartition(
                time=100.0, duration=900.0, cut=((1, 4), (2, 4), (3, 4))
            )
        )
        # Fits the (reachable) small cells: placed immediately on arrival.
        task = make_task(
            job_id=1, submit_time=200.0, duration=100.0, cpu=0.05, memory=0.05
        )
        metrics = _fabric_cluster(plan, (task,)).run()
        assert metrics.records[task.uid].schedule_time == pytest.approx(200.0)


# --------------------------------------------------------------------------
# Ladder: per-cell degradation and deterministic reconciliation


def _fabric_view(unreachable=(), now=600.0):
    return FabricView(
        unreachable=tuple(unreachable),
        last_heard={cell: now for cell in (1, 2)},
        degraded_links=(),
        partitioned=bool(unreachable),
    )


def _ladder_view(time=600.0, fabric=None):
    return SimpleNamespace(
        time=time,
        demand_cpu=10.0,
        demand_memory=8.0,
        powered={1: 5, 2: 3},
        available={1: 10, 2: 10},
        fabric=fabric,
    )


class _FallbackStub:
    def decide(self, time, cpu, memory, powered=None, available=None):
        raise AssertionError("fallback must not run when the primary succeeds")


def _decision(time, active):
    return ProvisioningDecision(time=time, active=active, quotas=None)


class TestLadderPartitionOverlay:
    def test_healthy_cells_keep_mpc_while_partitioned_cell_holds(self):
        ladder = DegradationLadder(_FallbackStub())
        ladder.decide(
            _ladder_view(time=300.0, fabric=_fabric_view()),
            lambda: _decision(300.0, {1: 4, 2: 6}),
        )
        decision = ladder.decide(
            _ladder_view(time=600.0, fabric=_fabric_view(unreachable=(2,))),
            lambda: _decision(600.0, {1: 5, 2: 9}),
        )
        # Cell 1 takes the fresh target, cell 2 is held at last-known-good.
        assert decision.active == {1: 5, 2: 6}
        assert ladder.cell_hold_ticks == {2: 1}
        time, level, reason = ladder.timeline[-1]
        assert (time, level) == (600.0, 2)
        assert "partition_hold: cells [2]" in reason
        assert ladder.cell_timeline[-1] == (600.0, {1: "mpc", 2: "hold"})

    def test_heal_reconciles_to_fresh_decision_and_records_divergence(self):
        ladder = DegradationLadder(_FallbackStub())
        ladder.decide(
            _ladder_view(time=300.0, fabric=_fabric_view()),
            lambda: _decision(300.0, {1: 4, 2: 6}),
        )
        ladder.decide(
            _ladder_view(time=600.0, fabric=_fabric_view(unreachable=(2,))),
            lambda: _decision(600.0, {1: 5, 2: 9}),
        )
        decision = ladder.decide(
            _ladder_view(time=900.0, fabric=_fabric_view()),
            lambda: _decision(900.0, {1: 5, 2: 9}),
        )
        # Fresh control wins on heal; |held 6 - fresh 9| is recorded.
        assert decision.active == {1: 5, 2: 9}
        assert ladder.reconciliations == 1
        assert ladder.reconciliation_divergence == 3
        time, level, reason = ladder.timeline[-1]
        assert level == 0
        assert "heal: cells [2] reconciled" in reason
        assert ladder.cell_timeline[-1] == (900.0, {1: "mpc", 2: "mpc"})

    def test_partition_before_any_decision_holds_powered_count(self):
        ladder = DegradationLadder(_FallbackStub())
        decision = ladder.decide(
            _ladder_view(time=300.0, fabric=_fabric_view(unreachable=(2,))),
            lambda: _decision(300.0, {1: 4, 2: 9}),
        )
        assert decision.active == {1: 4, 2: 3}  # view.powered[2]

    def test_no_fabric_view_means_no_overlay(self):
        ladder = DegradationLadder(_FallbackStub())
        ladder.decide(_ladder_view(fabric=None), lambda: _decision(600.0, {1: 4}))
        assert ladder.cell_timeline == []
        assert ladder.timeline == [(600.0, 0, "")]


# --------------------------------------------------------------------------
# End-to-end acceptance: partial partition under guarded CBS


@pytest.fixture(scope="module")
def fabric_trace():
    return generate_trace(
        SyntheticTraceConfig(
            horizon_hours=1.0, seed=5, total_machines=150, load_factor=0.5
        )
    )


@pytest.fixture(scope="module")
def partition_run(fabric_trace):
    config = HarmonyConfig(
        policy="cbs",
        predictor="ewma",
        guard=True,
        classifier_sample=1000,
        fault_plan=build_scenario_plan(
            "partial_partition", fabric_trace.horizon, seed=3
        ),
    )
    return HarmonySimulation(config, fabric_trace).run()


class TestPartialPartitionAcceptance:
    def test_fabric_block_shows_partition_exposure(self, partition_run):
        fabric = partition_run.summary()["resilience"]["fabric"]
        assert fabric["partition_seconds"] == pytest.approx(900.0)  # horizon/4
        assert fabric["partition_ticks"] > 0
        assert fabric["max_unreachable_cells"] == 1
        assert fabric["cell_hold_ticks"].get("4", 0) > 0
        assert fabric["reconciliations"] >= 1
        assert set(fabric["degraded_link_ticks"]) == {"1-4", "2-4", "3-4"}

    def test_timeline_shows_hold_then_heal(self, partition_run):
        timeline = partition_run.metrics.degradation_timeline
        holds = [e for e in timeline if "partition_hold: cells [4]" in e[2]]
        heals = [e for e in timeline if "heal: cells [4] reconciled" in e[2]]
        assert holds and heals
        assert all(level == 2 for _, level, _ in holds)
        # Ticks outside the partition stay on the full MPC rung.
        clean_ticks = [e for e in timeline if not e[2]]
        assert clean_ticks
        assert all(level == 0 for _, level, _ in clean_ticks)
        # Recovery: the last hold strictly precedes the heal annotation.
        assert holds[-1][0] < heals[0][0]

    def test_no_tasks_lost_to_the_partition(self, partition_run):
        # Partitions defer placements; they never kill running work.  (The
        # tail of late arrivals is unscheduled at the horizon even in a
        # clean run, so require the bulk rather than all.)
        metrics = partition_run.metrics
        assert partition_run.tasks_killed == 0
        assert metrics.num_scheduled >= 0.85 * metrics.num_submitted
        assert partition_run.guard_stats.partition_held_ticks > 0


# --------------------------------------------------------------------------
# Differential: a no-op fabric plan reproduces the clean digest


class TestNoopFabricDifferential:
    def test_noop_plan_matches_clean_digest_bit_for_bit(self, tiny_trace):
        from repro.runner.runner import summary_digest

        base = HarmonyConfig(policy="cbs", predictor="ewma", guard=True)
        clean = HarmonySimulation(base, tiny_trace).run()
        noop_plan = FaultPlan(seed=3).with_fault(
            LinkDegradation(
                time=tiny_trace.horizon / 4,
                duration=tiny_trace.horizon / 3,
                links=(),
            )
        )
        noop = HarmonySimulation(
            replace(base, fault_plan=noop_plan),
            tiny_trace,
            classifier=clean.classifier,
        ).run()
        assert summary_digest(noop.summary()) == summary_digest(clean.summary())


# --------------------------------------------------------------------------
# Suite determinism: serial vs parallel vs SIGKILL-then-resume


_SUITE_DEFAULTS = BenchDefaults(hours=0.5, machines=120, seed=11, load=0.4)

#: Keep retry waits negligible in tests.
_FAST = SupervisorConfig(backoff_base_seconds=0.01, backoff_cap_seconds=0.05)


class TestNetworkFaultsSuiteDeterminism:
    def test_serial_and_parallel_digests_identical(self):
        suite = network_faults_scenarios(_SUITE_DEFAULTS)
        runner = ScenarioRunner("network_faults")
        serial, parallel = runner.verify_determinism(suite, workers=2)
        assert serial.digests() == parallel.digests()

    def test_sigkill_then_resume_matches_uninterrupted_digests(self, tmp_path):
        from repro.resilience import transient_fault_scenario

        suite = network_faults_scenarios(_SUITE_DEFAULTS)
        partition = next(s for s in suite if s.name == "net_partial_partition")
        reference = (
            ScenarioRunner("ref").run([partition], workers=1)[partition.name].digest()
        )

        # The worker is SIGKILLed mid-scenario on its first attempt; the
        # supervisor respawns it and journals the completion.
        flaky = transient_fault_scenario(
            "net_kill", partition, tmp_path / "markers", fail_attempts=1, mode="kill"
        )
        supervisor = ScenarioSupervisor("network_faults", _FAST, journal_dir=tmp_path)
        report = supervisor.run([flaky])
        assert report.quarantined == ()
        assert report["net_kill"].attempts == 2
        assert report["net_kill"].digest() == reference

        # A resumed supervisor replays the journaled result bit-for-bit
        # without re-executing, fabric block included.
        resumed = ScenarioSupervisor("network_faults", _FAST, journal_dir=tmp_path)
        resumed_report = resumed.run([flaky], resume=True)
        assert resumed.executed == []
        assert resumed_report["net_kill"].digest() == reference

    def test_baseline_payload_carries_fabric_block(self):
        suite = network_faults_scenarios(
            _SUITE_DEFAULTS, scenarios=("clean", "partial_partition")
        )
        report = ScenarioRunner("network_faults").run(suite, workers=1)
        payload = baseline_payload(report)
        by_name = {entry["name"]: entry for entry in payload["scenarios"]}
        assert by_name["net_clean"]["fabric"]["partition_seconds"] == 0.0
        assert by_name["net_partial_partition"]["fabric"]["partition_seconds"] > 0.0

    def test_non_simulation_scenarios_have_no_fabric_block(self):
        tiny = Scenario(
            name="relax_tiny",
            task="relax_solve",
            params={"num_classes": 4, "num_types": 2, "W": 2, "seed": 0, "repeats": 1},
        )
        report = ScenarioRunner("unit").run([tiny], workers=1)
        (entry,) = baseline_payload(report)["scenarios"]
        assert "fabric" not in entry


# --------------------------------------------------------------------------
# Satellite: CLI rejects unknown scenarios with a usage hint


class TestResilienceCliValidation:
    def test_unknown_scenario_exits_2_with_hint(self, capsys):
        assert main(["resilience", "--scenario", "frobnicate"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario 'frobnicate'" in err
        assert "partial_partition" in err  # the hint lists every scenario

    def test_known_fabric_scenario_is_accepted_by_the_parser(self):
        # Parsing alone must not reject it (full runs are covered by the
        # bench suite tests; this guards the argparse wiring).
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["resilience", "--scenario", "partial_partition"]
        )
        assert args.scenario == "partial_partition"
