"""The settable values of the run configs, pinned.

Every field here doubles the configurations tests and benchmarks must
cover, so a value only ever left at its default is a module constant
instead.  Adding a field, or a constructor parameter to a pinned class,
means updating these lists on purpose.
"""

import inspect
from dataclasses import fields

import pytest

import repro.provisioning
import repro.resilience
from repro.classification import ClassifierConfig
from repro.containers import ContainerManagerConfig
from repro.provisioning import ControllerConfig, FirstFitRounder, HarmonyController
from repro.runner import SupervisorConfig
from repro.simulation import ClusterConfig, HarmonyConfig


FIELDS = {
    HarmonyConfig: [
        "policy", "fleet", "control_interval", "price", "predictor",
        "classifier", "manager", "classifier_sample", "enable_preemption",
        "fault_plan", "guard", "engine", "seed",
    ],
    ClusterConfig: ["control_interval", "price", "fault_plan", "enable_preemption"],
    ContainerManagerConfig: ["epsilon", "delay_slos", "capacity_ladders"],
    ClassifierConfig: ["seed"],
    ControllerConfig: [
        "interval_seconds", "horizon", "price", "overprovision", "predictor_factory",
    ],
    SupervisorConfig: [
        "timeout_seconds", "max_attempts", "backoff_base_seconds",
        "backoff_cap_seconds", "memory_ceiling_mb",
    ],
}


@pytest.mark.parametrize("config", list(FIELDS), ids=lambda c: c.__name__)
def test_config_fields_are_pinned(config):
    assert [f.name for f in fields(config)] == FIELDS[config]


#: Constructor parameters of the provisioning classes, pinned like the fields.
PARAMETERS = {
    FirstFitRounder: [],
    HarmonyController: ["machine_models", "manager", "config"],
}


@pytest.mark.parametrize("cls", list(PARAMETERS), ids=lambda c: c.__name__)
def test_constructor_parameters_are_pinned(cls):
    assert list(inspect.signature(cls).parameters) == PARAMETERS[cls]


@pytest.mark.parametrize(
    "module, name",
    [
        (repro.resilience, "GuardConfig"),
        (repro.provisioning, "ThresholdConfig"),
        (repro.provisioning, "BaselineConfig"),
    ],
)
def test_single_value_configs_are_gone(module, name):
    assert not hasattr(module, name)
