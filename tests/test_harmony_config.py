"""Tests for HarmonyConfig plumbing and the policy adapters."""

import pytest

from repro.containers import ContainerManagerConfig
from repro.energy import time_of_use_price
from repro.simulation import HarmonyConfig, HarmonySimulation
from repro.simulation.control import ControlPipeline
from repro.simulation.harmony import (
    POLICIES,
    _BaselinePolicy,
    _StaticPolicy,
    replace_constraint,
)
from tests.conftest import make_task


class TestHarmonyConfig:
    def test_policies_constant(self):
        assert set(POLICIES) == {"cbs", "cbp", "baseline", "threshold", "static"}

    def test_columnar_is_the_default_engine(self):
        assert HarmonyConfig().engine == "columnar"

    def test_with_policy(self):
        config = HarmonyConfig(policy="cbs")
        other = config.with_policy("baseline")
        assert other.policy == "baseline"
        assert other.fleet == config.fleet
        assert config.policy == "cbs"

    def test_validation(self):
        with pytest.raises(ValueError):
            HarmonyConfig(policy="nope")
        with pytest.raises(ValueError):
            HarmonyConfig(classifier_sample=10)

    def test_custom_manager_config(self, tiny_trace):
        manager_config = ContainerManagerConfig(epsilon=0.2)
        config = HarmonyConfig(manager=manager_config, classifier_sample=1000)
        simulation = HarmonySimulation(config, tiny_trace)
        assert simulation.manager.config.epsilon == 0.2

    def test_price_schedule_plumbed(self, tiny_trace):
        config = HarmonyConfig(
            policy="cbs", price=time_of_use_price(), classifier_sample=1000
        )
        simulation = HarmonySimulation(config, tiny_trace)
        policy = simulation.build_policy()
        assert isinstance(policy, ControlPipeline)
        assert simulation.controller.config.price.name == "time_of_use"


class TestPolicyAdapters:
    def test_build_policy_types(self, tiny_trace):
        classifier = None
        expected = {
            "cbs": ControlPipeline,
            "cbp": ControlPipeline,
            "baseline": _BaselinePolicy,
            "static": _StaticPolicy,
        }
        for name, cls in expected.items():
            config = HarmonyConfig(policy=name, classifier_sample=1000)
            simulation = HarmonySimulation(config, tiny_trace, classifier=classifier)
            classifier = simulation.classifier
            assert isinstance(simulation.build_policy(), cls)

    def test_replace_constraint(self):
        task = make_task(allowed_platforms=frozenset({1, 2}))
        assert replace_constraint(task).allowed_platforms is None

    def test_constraints_dropped_when_fleet_mismatches(self, tiny_trace):
        from dataclasses import replace as dc_replace

        from repro.trace import Trace

        # Force a constraint referencing a platform the fleet lacks (id 9).
        tasks = list(tiny_trace.tasks)
        tasks[0] = dc_replace(tasks[0], allowed_platforms=frozenset({9}))
        trace = Trace.from_tasks(
            tiny_trace.machine_types, tasks, horizon=tiny_trace.horizon
        )
        config = HarmonyConfig(policy="static", classifier_sample=1000)
        simulation = HarmonySimulation(config, trace)
        prepared = simulation._prepare_tasks()
        assert all(t.allowed_platforms is None for t in prepared)

    def test_constraints_kept_when_fleet_matches(self, tiny_trace):
        from dataclasses import replace as dc_replace

        from repro.trace import Trace

        # Constraints referencing only fleet platforms (1-4) are honored.
        tasks = [
            dc_replace(t, allowed_platforms=frozenset({4}) if t.allowed_platforms else None)
            for t in tiny_trace.tasks
        ]
        trace = Trace.from_tasks(
            tiny_trace.machine_types, tasks, horizon=tiny_trace.horizon
        )
        config = HarmonyConfig(policy="static", classifier_sample=1000)
        simulation = HarmonySimulation(config, trace)
        prepared = simulation._prepare_tasks()
        constrained = [t for t in prepared if t.allowed_platforms is not None]
        original = [t for t in tasks if t.allowed_platforms is not None]
        assert len(constrained) == len(original)

    def test_historical_counts_cover_all_observed_classes(self, tiny_trace):
        config = HarmonyConfig(policy="cbs", classifier_sample=1000)
        simulation = HarmonySimulation(config, tiny_trace)
        counts = simulation._historical_interval_counts()
        assert sum(counts.values()) == pytest.approx(
            tiny_trace.num_tasks
            / (tiny_trace.horizon / config.control_interval)
        )
