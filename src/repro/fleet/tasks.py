"""The ``fleet_shard`` runner task: one cell's streaming replay.

A shard worker never materializes the fleet-wide trace.  It re-generates
the calibrated task stream from the coordinator's :class:`TracePlan`
(one constant-memory emission pass), keeps only the tasks the
deterministic router assigns to its cell, and replays them on the cell's
machine types with the columnar engine.  Everything the worker does is a
pure function of its picklable params, so a retried or resumed shard
reproduces its summary digest bit for bit.

Crash safety rides on two journals: the supervisor's suite journal (which
records *completed* shards for ``--resume``) and a per-shard progress
journal written here through the digest-verified line machinery — a
heartbeat of periodic checkpoints that survives SIGKILL and lets the
chaos drill (and operators) see how far a dead worker got.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.runner.defaults import trace_config_from_params
from repro.runner.journal import JOURNAL_VERSION, write_journal_record
from repro.runner.rss import process_rss_mb
from repro.runner.scenario import register_task

from repro.fleet.sharding import TaskRouter, partition_census


def shard_progress_path(progress_dir: str | Path, suite: str, index: int) -> Path:
    """Where one shard's progress journal lives."""
    return Path(progress_dir) / f"SHARD_{suite}_{index:02d}.jsonl"


def _progress_record(kind: str, index: int, seen: int, kept: int) -> dict:
    return {
        "version": JOURNAL_VERSION,
        "kind": kind,
        "shard": index,
        "tasks_seen": seen,
        "tasks_kept": kept,
    }


@register_task("fleet_shard")
def fleet_shard_task(params: dict) -> dict:
    """Stream-route-replay one cell of a sharded fleet run.

    Params: ``trace`` (fleet-wide trace params), ``plan`` (the
    coordinator's serialized :class:`~repro.trace.generator.TracePlan`),
    ``shards`` / ``shard_index`` / ``route_seed`` (partition coordinates),
    ``policy`` / ``predictor`` / ``guard`` / ``fault_scenario`` /
    ``fault_seed`` (simulation knobs), ``suite`` +
    ``progress_dir`` (per-shard journal location, optional) and
    ``memory_budget_mb`` (per-worker RSS ceiling, optional).
    """
    from repro.classification import ClassifierConfig, TaskClassifier
    from repro.energy.catalog import google_like_energy_models
    from repro.resilience.scenarios import build_scenario_plan
    from repro.simulation import HarmonyConfig, HarmonySimulation
    from repro.simulation.timing import PhaseTimer
    from repro.trace import NUM_PRIORITIES, PriorityGroup, Trace
    from repro.trace.generator import plan_from_params, stream_trace

    config = trace_config_from_params(params["trace"])
    plan = plan_from_params(params["plan"])
    shards = int(params["shards"])
    index = int(params["shard_index"])
    census = config.census()
    cells = partition_census(census, shards)
    cell = cells[index]
    router = TaskRouter(cells, route_seed=int(params.get("route_seed", 0)))

    progress_dir = params.get("progress_dir")
    progress_path = None
    if progress_dir is not None:
        progress_path = shard_progress_path(
            progress_dir, str(params.get("suite", "fleet")), index
        )
        # A fresh attempt restarts the stream from scratch; stale
        # checkpoints from a killed attempt would read as progress.
        progress_path.unlink(missing_ok=True)
    progress_every = int(params.get("progress_every", 200_000))
    budget_mb = params.get("memory_budget_mb")

    timer = PhaseTimer()
    kept: list = []
    seen = 0
    kept_by_priority = [0] * NUM_PRIORITIES
    # ``route`` is a pure function of these fields, and a job's tasks
    # stream one after another with one shape: route each such run once.
    last_key, cell_of_run = None, -1
    with timer.phase("stream"):
        for task in stream_trace(config, plan=plan):
            seen += 1
            key = (task.job_id, task.cpu, task.memory, task.allowed_platforms)
            if key != last_key:
                last_key, cell_of_run = key, router.route(task)
            if cell_of_run == index:
                kept.append(task)
                kept_by_priority[task.priority] += 1
            if seen % progress_every == 0:
                if progress_path is not None:
                    write_journal_record(
                        progress_path,
                        _progress_record("fleet_progress", index, seen, len(kept)),
                    )
                if budget_mb is not None:
                    rss = process_rss_mb(os.getpid())
                    if rss is not None and rss > float(budget_mb):
                        raise MemoryError(
                            f"shard {index} exceeded its memory budget: "
                            f"{rss:.0f} MiB resident > {float(budget_mb):.0f} MiB"
                        )

    group_tasks = {"gratis": 0, "other": 0, "production": 0}
    for priority, count in enumerate(kept_by_priority):
        group_tasks[PriorityGroup.from_priority(priority).name.lower()] += count

    horizon_s = config.horizon_hours * 3600.0
    trace = Trace(
        machine_types=cell.machine_types,
        tasks=tuple(kept),
        horizon=horizon_s,
        metadata={
            "generator": "repro.fleet",
            "seed": config.seed,
            "shard": index,
            "shards": shards,
        },
    )
    del kept

    with timer.phase("classify"):
        classifier = TaskClassifier(ClassifierConfig(seed=config.seed)).fit(
            list(trace.tasks)
        )

    config_kwargs: dict = {
        "policy": params.get("policy", "cbs"),
        "predictor": params.get("predictor", "ewma"),
        "guard": bool(params.get("guard", False)),
        "fleet": google_like_energy_models(cell.machine_types),
    }
    scenario = params.get("fault_scenario")
    if scenario is not None:
        # Offset the fault seed per shard so correlated faults do not hit
        # every cell with the same draw — still a pure function of params.
        config_kwargs["fault_plan"] = build_scenario_plan(
            scenario, horizon_s, seed=int(params.get("fault_seed", 0)) + index
        )

    result = HarmonySimulation(
        HarmonyConfig(**config_kwargs), trace, classifier=classifier
    ).run()

    kept_count = trace.num_tasks
    with timer.phase("summary"):
        simulation_summary = result.summary()
    summary = {
        "simulation": simulation_summary,
        "shard": {
            "index": index,
            "shards": shards,
            "platforms": [int(p) for p in cell.platforms],
            "machines": int(cell.machines),
            "tasks_seen": seen,
            "tasks_routed": kept_count,
            "group_tasks": dict(group_tasks),
        },
    }
    if progress_path is not None:
        write_journal_record(
            progress_path,
            _progress_record("fleet_shard_done", index, seen, kept_count),
        )
    phases = dict(timer.timings)
    phases.update(dict(result.phase_timings))
    return {"summary": summary, "phases": phases}
