"""One control stack: the simulator and the daemon hold the same
:class:`~repro.simulation.control.ControlPipeline`."""

import re
from pathlib import Path

from repro.energy import table2_fleet
from repro.provisioning import ProvisioningDecision
from repro.resilience import GuardConfig
from repro.serve import ServeConfig, ServeState
from repro.simulation import HarmonyConfig, HarmonySimulation
from repro.simulation.control import ControlPipeline
from tests.test_resilience import _view

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def test_simulator_and_daemon_hold_the_same_class(tiny_trace):
    classifier = None
    for policy in ("cbs", "cbp"):
        simulation = HarmonySimulation(
            HarmonyConfig(policy=policy, classifier_sample=1000),
            tiny_trace,
            classifier=classifier,
        )
        classifier = simulation.classifier
        assert type(simulation.build_policy()) is ControlPipeline
    assert type(ServeState(ServeConfig()).pipeline) is ControlPipeline


def test_the_ladder_is_constructed_in_one_place():
    sites = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        for _ in re.finditer(r"\bDegradationLadder\(", path.read_text())
    ]
    assert sites == ["simulation/control.py"]


class TestLastTick:
    def _pipeline(self, solve, **kwargs):
        return ControlPipeline(table2_fleet(0.02), solve, **kwargs)

    def _ok(self, view):
        return ProvisioningDecision(
            time=view.time, active=dict(view.powered), quotas=None
        )

    def test_ladder_rung_is_reported_without_a_guard(self):
        def broken(view):
            raise RuntimeError("solver exploded")

        pipeline = self._pipeline(broken)
        pipeline.decide(_view())
        rung, reason, mode = pipeline.last_tick
        assert (rung, mode) == (1, "mpc") and "solver exploded" in reason
        assert pipeline.guard is None

    def test_tripped_tick_is_rung_one_and_skips_the_ladder(self):
        observed = []
        pipeline = self._pipeline(
            self._ok,
            observe=lambda view: observed.append(view.time),
            guard=GuardConfig(trip_after=2, recover_after=2),
        )
        for tick, count in enumerate([100.0] * 3 + [0.0] * 3):
            pipeline.decide(_view(time=300.0 * tick, arrivals={0: count}))
        assert pipeline.last_tick == (1, "guard_tripped", "reactive")
        reactive = pipeline.guard.stats.reactive_ticks
        assert reactive >= 1
        assert len(pipeline.ladder.timeline) == 6 - reactive
        assert observed == [300.0 * tick for tick in range(6)]

    def test_closed_observe_failure_is_the_guards_not_a_rung(self):
        def failing_observe(view):
            raise RuntimeError("telemetry gone")

        pipeline = self._pipeline(
            self._ok, observe=failing_observe, guard=GuardConfig()
        )
        pipeline.decide(_view())
        assert pipeline.guard.stats.solver_failures == 1
        assert pipeline.ladder.timeline == []
