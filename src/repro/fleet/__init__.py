"""Sharded, crash-tolerant fleet simulation at Google-trace scale.

Partitions the machine census into disjoint machine-type cells
(:mod:`repro.fleet.sharding`), replays each cell in a supervised spawn
worker fed by the constant-memory streaming trace generator
(:mod:`repro.fleet.tasks`), and merges per-shard summaries into one
deterministic fleet digest (:mod:`repro.fleet.coordinator` +
:mod:`repro.simulation.merge`).  See ``docs/scaling.md`` for topology,
journal layout, resume and partial-merge semantics.
"""

from repro.fleet.coordinator import (
    FleetConfig,
    FleetReport,
    fleet_baseline_payload,
    fleet_scenarios,
    merge_fleet_report,
    run_fleet,
    write_fleet_baseline,
)
from repro.fleet.sharding import (
    ShardCell,
    TaskRouter,
    max_shards,
    partition_census,
)
from repro.fleet.tasks import fleet_shard_task, shard_progress_path

__all__ = [
    "FleetConfig",
    "FleetReport",
    "ShardCell",
    "TaskRouter",
    "fleet_baseline_payload",
    "fleet_scenarios",
    "fleet_shard_task",
    "max_shards",
    "merge_fleet_report",
    "partition_census",
    "run_fleet",
    "shard_progress_path",
    "write_fleet_baseline",
]
