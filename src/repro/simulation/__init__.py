"""Discrete-event cluster simulator and the end-to-end HARMONY loop.

The paper's evaluation (Section IX) is simulation-based; this package
provides that simulator:

- :mod:`repro.simulation.engine` -- a minimal event-queue core;
- :mod:`repro.simulation.machine` -- machine lifecycle (off / booting /
  on / draining) with boot latency and switch accounting;
- :mod:`repro.simulation.scheduler` -- quota-aware first-fit task
  scheduler with priority ordering and backfill;
- :mod:`repro.simulation.metrics` -- scheduling-delay, energy and
  machine-count instrumentation;
- :mod:`repro.simulation.cluster` -- the replay loop tying trace, policy
  and machines together;
- :mod:`repro.simulation.control` -- :class:`ControlPipeline`, the one
  guard -> degradation ladder -> primary stack the simulator and the serve
  daemon both hold;
- :mod:`repro.simulation.harmony` -- one-call end-to-end runs of CBS / CBP /
  baseline / static policies over a trace.
"""

from repro.simulation.engine import EventQueue, Event
from repro.simulation.machine import Machine, MachinePool, MachineState
from repro.simulation.scheduler import FirstFitScheduler, QuotaLedger
from repro.simulation.metrics import (
    FaultSample,
    MachineFailure,
    SimulationMetrics,
    TaskRecord,
    TaskRestart,
)
from repro.simulation.cluster import ClusterSimulator, ClusterConfig
from repro.simulation.columnar import (
    ColumnarClusterSimulator,
    ColumnarFirstFitScheduler,
    TaskColumns,
    capacity_room,
    first_fit_index,
    reissue_finish_times,
)
from repro.simulation.degradation import DEGRADATION_LEVELS, DegradationLadder
from repro.simulation.timing import PhaseTimer
from repro.simulation.control import ControlPipeline
from repro.simulation.harmony import (
    ENGINES,
    HarmonyConfig,
    HarmonySimulation,
    SimulationResult,
    run_policy_comparison,
    energy_savings,
)
from repro.simulation.merge import fleet_digest, merge_shard_summaries

__all__ = [
    "EventQueue",
    "Event",
    "Machine",
    "MachinePool",
    "MachineState",
    "FirstFitScheduler",
    "QuotaLedger",
    "SimulationMetrics",
    "TaskRecord",
    "FaultSample",
    "MachineFailure",
    "TaskRestart",
    "ClusterSimulator",
    "ClusterConfig",
    "ColumnarClusterSimulator",
    "ColumnarFirstFitScheduler",
    "TaskColumns",
    "capacity_room",
    "first_fit_index",
    "reissue_finish_times",
    "ENGINES",
    "DEGRADATION_LEVELS",
    "DegradationLadder",
    "ControlPipeline",
    "PhaseTimer",
    "HarmonyConfig",
    "HarmonySimulation",
    "SimulationResult",
    "run_policy_comparison",
    "energy_savings",
    "fleet_digest",
    "merge_shard_summaries",
]
