"""The single source of truth for default bench/scenario parameters.

Both ``benchmarks/conftest.py`` (the pytest figure benches) and the
scenario suites in :mod:`repro.runner.suites` read these values, so the
laptop-scale evaluation point cannot drift between the two.  CI shrinks
everything through the same ``REPRO_BENCH_*`` environment knobs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.trace.generator import SyntheticTraceConfig


def bench_hours() -> float:
    """Evaluation-trace horizon in hours (``REPRO_BENCH_HOURS``)."""
    return float(os.environ.get("REPRO_BENCH_HOURS", 4.0))


def bench_machines() -> int:
    """Evaluation-fleet size (``REPRO_BENCH_MACHINES``)."""
    return int(os.environ.get("REPRO_BENCH_MACHINES", 400))


def bench_seed() -> int:
    """Master seed for traces, classifiers and scenario RNGs."""
    return int(os.environ.get("REPRO_BENCH_SEED", 7))


def bench_load() -> float:
    """Trace load factor (``REPRO_BENCH_LOAD``)."""
    return float(os.environ.get("REPRO_BENCH_LOAD", 0.5))


def bench_repeats() -> int:
    """Solves per scalability scenario (``REPRO_BENCH_REPEATS``)."""
    return int(os.environ.get("REPRO_BENCH_REPEATS", 3))


def bench_replay_hours() -> float:
    """Replay-bench trace horizon in hours (``REPRO_BENCH_REPLAY_HOURS``)."""
    return float(os.environ.get("REPRO_BENCH_REPLAY_HOURS", 4.0))


def bench_replay_machines() -> int:
    """Replay-bench fleet size (``REPRO_BENCH_REPLAY_MACHINES``).

    Deliberately larger than :func:`bench_machines`: the replay scenario
    exists to measure the replay kernel, which only dominates at
    production-ish backlog depths.  CI shrinks it through the
    environment knob like every other bench parameter.
    """
    return int(os.environ.get("REPRO_BENCH_REPLAY_MACHINES", 4000))


def bench_replay_load() -> float:
    """Replay-bench trace load factor (``REPRO_BENCH_REPLAY_LOAD``)."""
    return float(os.environ.get("REPRO_BENCH_REPLAY_LOAD", 0.85))


def bench_fleet_hours() -> float:
    """Fleet-bench trace horizon in hours (``REPRO_BENCH_FLEET_HOURS``).

    The paper's Google trace spans 29 days (~696 h); the default 20 h
    horizon is a documented ~35x time scale-down that still yields >1M
    tasks at the full 12k-machine census (the calibrated arrival rate
    drops slightly as the horizon grows, so task count is sublinear in
    hours).  Set ``REPRO_BENCH_FLEET_HOURS=696`` to replay the full
    paper horizon.
    """
    return float(os.environ.get("REPRO_BENCH_FLEET_HOURS", 20.0))


def bench_fleet_machines() -> int:
    """Fleet-bench machine census (``REPRO_BENCH_FLEET_MACHINES``).

    Defaults to the paper's full ~12,000-machine cluster (Section III).
    """
    return int(os.environ.get("REPRO_BENCH_FLEET_MACHINES", 12_000))


def bench_fleet_load() -> float:
    """Fleet-bench trace load factor (``REPRO_BENCH_FLEET_LOAD``)."""
    return float(os.environ.get("REPRO_BENCH_FLEET_LOAD", 0.55))


def bench_fleet_shards() -> int:
    """Fleet-bench shard count (``REPRO_BENCH_FLEET_SHARDS``)."""
    return int(os.environ.get("REPRO_BENCH_FLEET_SHARDS", 4))


@dataclass(frozen=True)
class BenchDefaults:
    """One resolved snapshot of the bench parameter environment."""

    hours: float
    machines: int
    seed: int
    load: float

    def trace_params(self) -> dict:
        """Picklable trace parameters for scenario configs."""
        return {
            "hours": self.hours,
            "seed": self.seed,
            "machines": self.machines,
            "load": self.load,
        }


def bench_defaults() -> BenchDefaults:
    """Resolve the current bench defaults from the environment."""
    return BenchDefaults(
        hours=bench_hours(),
        machines=bench_machines(),
        seed=bench_seed(),
        load=bench_load(),
    )


def trace_config_from_params(params: dict) -> SyntheticTraceConfig:
    """Build the synthetic-trace config a scenario's ``trace`` params name.

    The canonical decoding used by every runner task, so a scenario's
    result is a pure function of its (picklable) parameter dict.  With
    ``constraints: true`` the trace draws placement constraints against
    the Table II fleet, exactly as the figure benches' shared trace does.
    """
    constraint_platforms = None
    if params.get("constraints"):
        from repro.energy.catalog import table2_fleet

        constraint_platforms = tuple(
            m.to_machine_type() for m in table2_fleet(0.1)
        )
    return SyntheticTraceConfig(
        horizon_hours=float(params.get("hours", bench_hours())),
        seed=int(params.get("seed", bench_seed())),
        total_machines=int(params.get("machines", bench_machines())),
        load_factor=float(params.get("load", bench_load())),
        constraint_platforms=constraint_platforms,
    )
