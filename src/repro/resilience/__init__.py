"""Resilience: fault injection, controller hardening, degraded-mode control.

The paper's Fig. 8 architecture claims the monitoring module "reports any
failures and anomalies" and that the management loop absorbs them; this
package supplies both sides of that claim for the reproduction:

- :mod:`repro.resilience.faults` -- a composable :class:`FaultPlan` /
  :class:`FaultInjector` API driving correlated domain outages, straggler
  degradation, monitoring blackouts and Poisson machine crashes through
  the simulator's event queue;
- :mod:`repro.resilience.fabric` -- the deterministic fabric topology
  model (machine-type cells joined by links) behind the network fault
  kinds: correlated link degradation, partial partitions and flapping
  links, plus the :class:`FabricView` staleness block that makes the
  control plane partition-tolerant;
- :mod:`repro.resilience.guard` -- :class:`GuardedController`, a policy
  wrapper that validates and clamps every decision, falls back to the
  last-known-good plan on solver failure, and trips a forecast-residual
  circuit breaker into reactive threshold provisioning;
- :mod:`repro.resilience.scenarios` -- the named fault matrix, plus
  data-plane faults: deterministic field-level trace corruption
  (:func:`corrupt_tasks_csv`) replayed through the sanitizer
  (:mod:`repro.trace.sanitize`) by the ``sanitized_simulate`` task.

See ``docs/resilience.md`` for the fault model and guardrail thresholds.
"""

from repro.resilience.fabric import (
    FABRIC_FAULT_TYPES,
    FabricState,
    FabricTopology,
    FabricView,
    FlappingLink,
    LinkDegradation,
    PartialPartition,
    link_key,
    link_label,
)
from repro.resilience.faults import (
    CorrelatedOutage,
    FaultInjector,
    FaultPlan,
    FaultStats,
    MachineDegradation,
    MonitoringBlackout,
    RandomMachineFailures,
)
from repro.resilience.guard import GuardedController, GuardStats
from repro.resilience.scenarios import (
    CORRUPTION_KINDS,
    SCENARIOS,
    WORKER_FAULT_MODES,
    build_scenario_plan,
    corrupt_tasks_csv,
    transient_fault_scenario,
)

__all__ = [
    "CORRUPTION_KINDS",
    "SCENARIOS",
    "WORKER_FAULT_MODES",
    "build_scenario_plan",
    "corrupt_tasks_csv",
    "transient_fault_scenario",
    "CorrelatedOutage",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "MachineDegradation",
    "MonitoringBlackout",
    "RandomMachineFailures",
    "FABRIC_FAULT_TYPES",
    "FabricState",
    "FabricTopology",
    "FabricView",
    "FlappingLink",
    "LinkDegradation",
    "PartialPartition",
    "link_key",
    "link_label",
    "GuardedController",
    "GuardStats",
]
