"""The five workloads: how each is generated, run and checked.

Every workload has a ``setup(params, seed, phase)`` that builds the
program's inputs (``phase`` is ``Tracer.in_phase``, for labelling work that
is a check and not input building) and a ``run(prepared, context)`` that is
the timed region.  ``run`` returns an *outcome*:

``tasks``       arrivals submitted to the program (for ``sim_tasks_per_s``)
``operations``  simulation runs, shards, ticks and restores attempted
``failures``    quarantined shards, watchdog restarts, feeder rejects
``digests``     name -> digest; must repeat exactly at a fixed seed
``summaries``   simulation summaries, checked for task conservation
``checks``      name -> bool, the workload's own output checks
``sim``         deterministic statistics of the simulated cluster
``host``        extra host-time readings (tick gaps, restore, shard walls)

What the seed drives.  The trace generator's own seed is held at
``TRACE_SEED``: at 1 h on the 400-machine census it emits 1,939 to 7,465
tasks depending on that seed and the classifier finds 30 to 41 classes,
which moves ``wall_s`` by a factor of 2.7 between seeds and would bury any
10 % bound.  Even with shapes fixed, moving arrivals across control ticks
changes how long each ARIMA fit iterates (30 % in ``wall_s`` between seeds
at +-150 s).  So ``--seed`` redraws every job's arrival time inside its own
``SLOT_S``-second slot: per-minute and per-tick arrival counts, task shapes,
durations and the fitted classes stay those of the base trace, while the
order and spacing of arrivals differ.  On ``fleet_stream``, where the
program generates the trace itself, the seed is the router's ``route_seed``.
"""

from __future__ import annotations

import gc
import shutil
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from repro.classification import ClassifierConfig, TaskClassifier
from repro.fleet import FleetConfig, run_fleet
from repro.runner.runner import summary_digest
from repro.serve import ReplayFeeder, ServeConfig, ServeDaemon, derive_run_id, restore
from repro.simulation import HarmonyConfig, HarmonySimulation
from repro.trace import SyntheticTraceConfig, Trace, generate_trace

TRACE_SEED = 7
SLOT_S = 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    #: Final sizes, and the ``--quick`` sizes the self-tests use.
    params: dict
    quick: dict
    setup: Callable
    run: Callable


@dataclass
class Context:
    """What a run needs besides its prepared inputs."""

    #: ``fleet_stream`` shard workers; 1 (inline) on the traced pass.
    workers: int
    scratch: Path
    #: ``Tracer.span`` on the traced pass: names what the benchmark itself
    #: does inside a timed region, so that it shows up as such.
    span: Callable = nullcontext

    def fresh_dir(self, name: str) -> Path:
        path = self.scratch / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


# ------------------------------------------------------------------ inputs


def base_trace(params: dict):
    return generate_trace(
        SyntheticTraceConfig(
            horizon_hours=params["hours"],
            seed=TRACE_SEED,
            total_machines=params["machines"],
            load_factor=params["load"],
        )
    )


def jitter_arrivals(trace, seed: int):
    """Redraw each job's arrival time uniformly within its ``SLOT_S`` slot."""
    rng = np.random.default_rng(seed)
    jobs = sorted({task.job_id for task in trace.tasks})
    position = dict(zip(jobs, rng.random(len(jobs))))

    def moved(task):
        slot_start = task.submit_time // SLOT_S * SLOT_S
        slot_end = min(slot_start + SLOT_S, trace.horizon)
        return task.with_submit_time(
            slot_start + position[task.job_id] * (slot_end - slot_start)
        )

    return Trace.from_tasks(
        trace.machine_types,
        map(moved, trace.tasks),
        horizon=trace.horizon,
        metadata=dict(trace.metadata, arrival_jitter_seed=seed),
    )


def trace_and_classifier(params: dict, seed: int):
    """Base trace, classifier fitted on it, then the seed's arrival jitter."""
    trace = base_trace(params)
    classifier = TaskClassifier(ClassifierConfig(seed=TRACE_SEED)).fit(
        list(trace.tasks)
    )
    return jitter_arrivals(trace, seed), classifier


def simulation(trace, classifier, policy: str, predictor: str, engine="columnar"):
    config = HarmonyConfig(policy=policy, predictor=predictor, engine=engine)
    return HarmonySimulation(config, trace, classifier=classifier)


def run_simulations(sims: dict) -> dict:
    """Run each prepared simulation once; the shared part of three workloads."""
    summaries = {name: sim.run().summary() for name, sim in sims.items()}
    first = next(iter(summaries.values()))
    return {
        "tasks": sum(s["tasks_submitted"] for s in summaries.values()),
        "operations": len(summaries),
        "failures": 0,
        "digests": {name: summary_digest(s) for name, s in summaries.items()},
        "summaries": list(summaries.values()),
        "checks": {},
        "sim": {
            "unscheduled_frac": first["tasks_unscheduled"] / first["tasks_submitted"],
            "prod_delay_p95_s": first["delay_by_group"]["production"]["p95_s"],
        },
        "host": {},
    }


# ----------------------------------------------------- control_arima / _mpc


def setup_control_arima(params: dict, seed: int, phase) -> dict:
    trace, classifier = trace_and_classifier(params, seed)
    return {"sims": {"cbs": simulation(trace, classifier, "cbs", "arima")}}


def setup_control_mpc(params: dict, seed: int, phase) -> dict:
    trace, classifier = trace_and_classifier(params, seed)
    # The engines are contractually bit-identical; a short window keeps the
    # object-engine oracle affordable inside set-up.
    with phase("check"):
        window = trace.window(0.0, min(params["differential_s"], trace.horizon))
        engines = {
            engine: summary_digest(
                simulation(window, classifier, "cbs", "ewma", engine).run().summary()
            )
            for engine in ("object", "columnar")
        }
    return {
        "sims": {
            "cbs": simulation(trace, classifier, "cbs", "ewma"),
            "baseline": simulation(trace, classifier, "baseline", "ewma"),
        },
        "checks": {"object_equals_columnar": engines["object"] == engines["columnar"]},
        "digests": {"differential": engines["columnar"]},
    }


def run_control(prepared: dict, context: Context) -> dict:
    return run_simulations(prepared["sims"])


def run_control_mpc(prepared: dict, context: Context) -> dict:
    outcome = run_simulations(prepared["sims"])
    cbs, baseline = outcome["summaries"]
    outcome["sim"]["energy_savings_pct"] = (
        100.0 * (baseline["energy_kwh"] - cbs["energy_kwh"]) / baseline["energy_kwh"]
    )
    return outcome


# ---------------------------------------------------------- replay_backlog


def setup_replay_backlog(params: dict, seed: int, phase) -> dict:
    trace, classifier = trace_and_classifier(params, seed)
    return {"sims": {"threshold": simulation(trace, classifier, "threshold", "ewma")}}


# ------------------------------------------------------------ fleet_stream


def setup_fleet_stream(params: dict, seed: int, phase) -> dict:
    """The program streams its own trace; set-up materialises the oracle.

    ``stream_trace`` is documented bit-identical to ``generate_trace``, so
    every shard must see exactly the reference trace's task count.
    """
    trace_params = {
        "hours": params["hours"],
        "seed": TRACE_SEED,
        "machines": params["machines"],
        "load": params["load"],
    }
    return {
        "trace_params": trace_params,
        "route_seed": seed,
        "shards": params["shards"],
        "reference_tasks": base_trace(params).num_tasks,
    }


def run_fleet_stream(prepared: dict, context: Context) -> dict:
    config = FleetConfig(
        suite="perf_fleet",
        shards=prepared["shards"],
        route_seed=prepared["route_seed"],
    )
    start = perf_counter()
    fleet = run_fleet(
        prepared["trace_params"],
        config,
        workers=context.workers,
        progress_dir=context.fresh_dir("fleet_progress"),
    )
    wall = perf_counter() - start
    merged = fleet.merged
    shards = [result.summary["shard"] for result in fleet.report.results]
    reference = prepared["reference_tasks"]
    return {
        "tasks": merged["tasks_submitted"],
        "operations": 1 + prepared["shards"],
        "failures": len(fleet.missing),
        "digests": {"fleet": fleet.digest},
        "summaries": [merged]
        + [result.summary["simulation"] for result in fleet.report.results],
        "checks": {
            "merged_equals_routed": merged["tasks_submitted"]
            == sum(shard["tasks_routed"] for shard in shards),
            "stream_equals_reference": all(
                shard["tasks_seen"] == reference for shard in shards
            ),
        },
        "sim": {
            "unscheduled_frac": merged["tasks_unscheduled"] / merged["tasks_submitted"]
        },
        "host": {
            "run_wall_s": wall,
            "shard_walls_s": [r.wall_seconds for r in fleet.report.results],
            "worker_rss_mb": [r.rss_peak_mb or 0.0 for r in fleet.report.results]
            if fleet.report.workers > 1
            else [],
            "tasks_seen": sum(shard["tasks_seen"] for shard in shards),
            "tasks_routed": sum(shard["tasks_routed"] for shard in shards),
        },
    }


# ------------------------------------------------------------- serve_ticks


class TimedFeeder:
    """Feeder protocol wrapper that timestamps every hand-out.

    The daemon pulls the next batch only after it finished the previous
    tick, so the gap between two hand-outs is one full tick as its single
    closed-loop client sees it: journal, snapshot, apply, checkpoint and
    event log.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.handed_out: list[float] = []

    @property
    def rejected(self) -> int:
        return self.inner.rejected

    def batches(self, start_tick: int = 0):
        for batch in self.inner.batches(start_tick=start_tick):
            self.handed_out.append(perf_counter())
            yield batch
        self.handed_out.append(perf_counter())

    def tick_gaps_ms(self) -> list[float]:
        stamps = self.handed_out
        return [(later - sooner) * 1e3 for sooner, later in zip(stamps, stamps[1:])]


def setup_serve_ticks(params: dict, seed: int, phase) -> dict:
    trace = jitter_arrivals(base_trace(params), seed)
    config = ServeConfig(tick_seconds=params["tick_seconds"])
    feeder = ReplayFeeder(
        trace.tasks, horizon=trace.horizon, tick_seconds=config.tick_seconds
    )
    spec = {"kind": "perf", "seed": seed, **params}
    return {
        "config": config,
        "feeder": feeder,
        "run_id": derive_run_id(config, spec),
        "arrivals": trace.num_tasks,
    }


def run_serve_ticks(prepared: dict, context: Context) -> dict:
    config, run_id = prepared["config"], prepared["run_id"]
    state_dir = context.fresh_dir("serve_state")
    feeder = TimedFeeder(prepared["feeder"])
    daemon = ServeDaemon(config, feeder, state_dir=state_dir, run_id=run_id)
    summary = daemon.run()
    live_digest = daemon.state.digest()
    # A real restore runs in a fresh process.  Without this the daemon run's
    # garbage makes a full collection land inside about every second
    # restore (70 ms or 100 ms, nothing in between).
    with context.span("bench.collect"):
        gc.collect()
    start = perf_counter()
    restored = restore(config, state_dir, run_id)
    restore_s = perf_counter() - start
    restarts = daemon.metrics.snapshot()["restarts"]
    return {
        "tasks": summary["arrivals_total"],
        "operations": summary["ticks"] + 1,
        "failures": restarts + feeder.rejected,
        "digests": {"serve": live_digest},
        "summaries": [],
        "checks": {
            "restored_equals_live": restored.digest() == live_digest,
            "all_arrivals_applied": summary["arrivals_total"] == prepared["arrivals"],
        },
        "sim": {},
        "host": {
            "tick_gaps_ms": feeder.tick_gaps_ms(),
            "restore_s": restore_s,
            "watchdog_restarts": restarts,
        },
    }


# ------------------------------------------------------------------- table

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "control_arima",
            {"hours": 0.5, "machines": 400, "load": 0.5},
            {"hours": 0.25, "machines": 400, "load": 0.5},
            setup_control_arima,
            run_control,
        ),
        Workload(
            "control_mpc",
            {"hours": 3.0, "machines": 400, "load": 0.5, "differential_s": 900.0},
            {"hours": 0.5, "machines": 400, "load": 0.5, "differential_s": 600.0},
            setup_control_mpc,
            run_control_mpc,
        ),
        Workload(
            "replay_backlog",
            {"hours": 1.0, "machines": 1000, "load": 0.85},
            {"hours": 0.25, "machines": 400, "load": 0.85},
            setup_replay_backlog,
            run_control,
        ),
        Workload(
            "fleet_stream",
            {"hours": 0.5, "machines": 1000, "load": 0.55, "shards": 2},
            {"hours": 0.1, "machines": 400, "load": 0.55, "shards": 2},
            setup_fleet_stream,
            run_fleet_stream,
        ),
        Workload(
            "serve_ticks",
            {"hours": 2.0, "machines": 1000, "load": 0.5, "tick_seconds": 60.0},
            {"hours": 0.5, "machines": 400, "load": 0.5, "tick_seconds": 60.0},
            setup_serve_ticks,
            run_serve_ticks,
        ),
    )
}
