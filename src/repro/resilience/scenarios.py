"""Named fault scenarios shared by the runner suites and ``repro fleet``.

One place defines what "outage" or "blackout" means, so ``repro bench
robustness``, ``repro bench network_faults`` and ``repro fleet --fault``
replay *the same* fault matrix and their numbers stay comparable.
"""

from __future__ import annotations

import csv
import os
import signal
import time
from pathlib import Path

import numpy as np

from repro.errors import ScenarioFailed
from repro.resilience.fabric import FlappingLink, LinkDegradation, PartialPartition
from repro.resilience.faults import (
    CorrelatedOutage,
    FaultPlan,
    MachineDegradation,
    MonitoringBlackout,
    RandomMachineFailures,
)
from repro.runner.scenario import Scenario, get_task, register_task

#: The canonical scenario matrix, in reporting order.  The fabric
#: scenarios (link_degradation, partial_partition, link_flapping) express
#: their link cuts in terms of the default Table II fleet's platform ids
#: (1-4, ingest cell 1); with a custom fleet, compose a
#: :class:`~repro.resilience.faults.FaultPlan` with an explicit
#: :class:`~repro.resilience.fabric.FabricTopology` instead.
SCENARIOS = (
    "clean",
    "outage",
    "stragglers",
    "blackout",
    "poisson",
    "link_degradation",
    "partial_partition",
    "link_flapping",
)


def build_scenario_plan(
    scenario: str, horizon: float, seed: int = 0
) -> FaultPlan | None:
    """The :class:`FaultPlan` for a named scenario over a given horizon.

    Returns ``None`` for the fault-free "clean" scenario.  Fault times are
    placed relative to ``horizon`` so the same scenario scales from a
    30-minute CI smoke to a multi-day evaluation trace.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    plan = FaultPlan(seed=seed)
    if scenario == "clean":
        return None
    if scenario == "outage":
        return plan.with_fault(CorrelatedOutage(time=horizon / 2, fraction=0.3))
    if scenario == "stragglers":
        return plan.with_fault(
            MachineDegradation(
                time=horizon / 3, duration=horizon / 3, fraction=0.25, slowdown=2.5
            )
        )
    if scenario == "blackout":
        return plan.with_fault(MonitoringBlackout(time=horizon / 3, intervals=3))
    if scenario == "poisson":
        return plan.with_fault(RandomMachineFailures(rate_per_machine_hour=0.05))
    if scenario == "link_degradation":
        # Fabric-wide brownout: every link carries halved throughput for a
        # third of the run — cross-cell work stretches, nothing partitions.
        return plan.with_fault(
            LinkDegradation(
                time=horizon / 4,
                duration=horizon / 3,
                links=None,
                throughput_factor=0.5,
                latency_factor=1.5,
            )
        )
    if scenario == "partial_partition":
        # Cut every link into cell 4 (the largest machines): the cell is
        # unreachable from ingest for a quarter of the run, then heals.
        return plan.with_fault(
            PartialPartition(
                time=horizon / 3,
                duration=horizon / 4,
                cut=((1, 4), (2, 4), (3, 4)),
            )
        )
    if scenario == "link_flapping":
        # One inter-cell link oscillating down/up; the mesh keeps every
        # cell reachable, so this stresses hysteresis, not placement.
        return plan.with_fault(
            FlappingLink(
                time=horizon / 4, link=(1, 2), flaps=3, period=max(horizon / 12, 2.0)
            )
        )
    raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")


# ------------------------------------------------------- worker-level faults
#
# The specs above inject faults into the *simulated cluster*; the pieces
# below inject faults into the *bench harness itself* — a worker process
# that raises, hangs or dies mid-scenario — which is what the scenario
# supervisor (repro.runner.supervisor) exists to survive.  Keeping them in
# the fault catalog means chaos tests, CI smokes and ad-hoc debugging all
# speak the same scenario vocabulary.

#: Worker-fault modes: raise a structured error, hang until killed by the
#: supervisor's timeout, or SIGKILL the worker outright (a crash).
WORKER_FAULT_MODES = ("raise", "hang", "kill")


@register_task("transient_fault")
def transient_fault_task(params: dict) -> dict:
    """Fail the first ``fail_attempts`` attempts, then run the inner task.

    Attempt accounting must survive the worker process dying, so it lives
    in a marker file under ``marker_dir`` keyed by ``marker_key``.  Params:

    - ``marker_dir`` / ``marker_key`` — where attempts are counted;
    - ``fail_attempts`` — attempts to sabotage before succeeding;
    - ``mode`` — one of :data:`WORKER_FAULT_MODES`;
    - ``hang_seconds`` — how long ``"hang"`` sleeps (default 3600);
    - ``inner_task`` / ``inner_params`` — the real work, whose summary is
      returned verbatim once the fault budget is exhausted (so a recovered
      run digests identically to an unsabotaged one).
    """
    marker_dir = Path(params["marker_dir"])
    key = str(params.get("marker_key", "fault"))
    fail_attempts = int(params.get("fail_attempts", 1))
    mode = str(params.get("mode", "raise"))
    if mode not in WORKER_FAULT_MODES:
        raise ValueError(f"mode must be one of {WORKER_FAULT_MODES}, got {mode!r}")

    marker = marker_dir / f"{key}.attempts"
    attempts_so_far = int(marker.read_text()) if marker.exists() else 0
    if attempts_so_far < fail_attempts:
        marker_dir.mkdir(parents=True, exist_ok=True)
        marker.write_text(str(attempts_so_far + 1))
        if mode == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if mode == "hang":
            time.sleep(float(params.get("hang_seconds", 3600.0)))
        raise ScenarioFailed(
            "injected transient worker fault",
            marker_key=key,
            attempt=attempts_so_far + 1,
            fail_attempts=fail_attempts,
        )
    inner = get_task(str(params["inner_task"]))
    return inner(dict(params.get("inner_params", {})))


# ------------------------------------------------------- data-plane faults
#
# The worker faults above attack the bench harness; the pieces below attack
# the *input data* — field-level corruption of a saved task CSV, replayed
# through the sanitizer (repro.trace.sanitize) and the analytics fallback
# chain.  Same vocabulary rule as the rest of the catalog: one definition
# of "10% dirty" shared by the CLI, CI smoke and the trace_corruption
# bench suite.

#: Field-level corruption kinds, cycled deterministically over the sampled
#: rows.  Together they hit both sanitizer paths: repairs (negative
#: duration, duplicate id) and quarantines (unparseable cell, NaN
#: resource, out-of-range priority, negative timestamp, truncated row).
CORRUPTION_KINDS = (
    "unparseable_cell",
    "nan_resource",
    "negative_duration",
    "priority_out_of_range",
    "negative_timestamp",
    "duplicate_id",
    "truncated_row",
)


def corrupt_tasks_csv(
    path: str | Path, fraction: float = 0.1, seed: int = 0
) -> int:
    """Corrupt a saved task CSV in place, deterministically.

    Samples ``max(1, round(fraction * rows))`` distinct rows with a
    generator seeded by ``seed`` and cycles :data:`CORRUPTION_KINDS` over
    them in file order, so the same ``(file, fraction, seed)`` triple
    always produces the same dirty bytes — a corruption run is as
    replayable as any other fault scenario.  Returns the number of rows
    corrupted.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [list(row) for row in reader]
    if not rows:
        return 0

    column = {name: i for i, name in enumerate(header)}
    count = min(max(1, round(fraction * len(rows))), len(rows))
    rng = np.random.default_rng(seed)
    victims = sorted(int(i) for i in rng.choice(len(rows), size=count, replace=False))
    for n, index in enumerate(victims):
        kind = CORRUPTION_KINDS[n % len(CORRUPTION_KINDS)]
        row = rows[index]
        if kind == "unparseable_cell":
            row[column["cpu_request"]] = "not-a-number"
        elif kind == "nan_resource":
            row[column["memory_request"]] = "nan"
        elif kind == "negative_duration":
            row[column["duration"]] = "-42.0"
        elif kind == "priority_out_of_range":
            row[column["priority"]] = "99"
        elif kind == "negative_timestamp":
            row[column["timestamp"]] = "-1.0"
        elif kind == "duplicate_id":
            donor = rows[index - 1] if index else rows[-1]
            if len(donor) > column["task_index"]:
                row[column["job_id"]] = donor[column["job_id"]]
                row[column["task_index"]] = donor[column["task_index"]]
        elif kind == "truncated_row":
            del row[3:]
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return len(victims)


@register_task("sanitized_simulate")
def sanitized_simulate_task(params: dict) -> dict:
    """Dirty-trace end to end: generate, corrupt, sanitize, simulate.

    Saves the synthetic trace to a temp directory, corrupts its task CSV
    in place with :func:`corrupt_tasks_csv`, ingests it back through
    :func:`repro.trace.sanitize.sanitize_trace`, refits the classifier on
    the surviving tasks and runs :class:`HarmonySimulation` with the
    sanitization report attached — so ``summary()["resilience"]
    ["data_plane"]`` carries the repair/quarantine counts.  Params:

    - ``trace`` — dict for :func:`trace_config_from_params`;
    - ``corrupt_fraction`` / ``corrupt_seed`` — corruption knobs;
    - ``policy`` / ``predictor`` / ``guard`` — simulation knobs
      (defaults ``cbs`` / ``fallback`` / ``True``);
    - ``window_hours`` — clip the trace before saving.

    The temp directory never leaks into the summary (the report's
    ``quarantine_path`` is excluded from its digest payload), so two runs
    of the same params digest identically.
    """
    import tempfile

    from repro.classification import ClassifierConfig, TaskClassifier
    from repro.runner.defaults import trace_config_from_params
    from repro.simulation import HarmonyConfig, HarmonySimulation
    from repro.simulation.timing import PhaseTimer
    from repro.trace import generate_trace, sanitize_trace, save_trace

    config = trace_config_from_params(dict(params.get("trace", {})))
    trace = generate_trace(config)
    window_hours = params.get("window_hours")
    if window_hours is not None:
        trace = trace.window(0.0, min(float(window_hours) * 3600.0, trace.horizon))

    timer = PhaseTimer()
    with timer.phase("sanitize"), tempfile.TemporaryDirectory(
        prefix="repro-dirty-"
    ) as tmp:
        save_trace(trace, tmp)
        corrupted = corrupt_tasks_csv(
            Path(tmp) / "task_events.csv",
            fraction=float(params.get("corrupt_fraction", 0.1)),
            seed=int(params.get("corrupt_seed", 0)),
        )
        sanitized, report = sanitize_trace(tmp)

    classifier = TaskClassifier(ClassifierConfig(seed=config.seed)).fit(
        list(sanitized.tasks)
    )
    sim_config = HarmonyConfig(
        policy=str(params.get("policy", "cbs")),
        predictor=str(params.get("predictor", "fallback")),
        guard=bool(params.get("guard", True)),
    )
    result = HarmonySimulation(
        sim_config, sanitized, classifier=classifier, sanitization=report
    ).run()
    summary = result.summary()
    summary["corrupted_rows"] = corrupted
    return {
        "summary": summary,
        "phases": {**result.phase_timings, **timer.snapshot()},
    }


def transient_fault_scenario(
    name: str,
    inner: Scenario,
    marker_dir: str | Path,
    fail_attempts: int = 1,
    mode: str = "raise",
    hang_seconds: float = 3600.0,
) -> Scenario:
    """Wrap ``inner`` so its first ``fail_attempts`` attempts fail.

    The wrapper runs the same inner task with the same params once the
    fault budget is spent, so the recovered summary — and therefore its
    digest — matches an uninterrupted run of ``inner`` exactly.  A relative
    ``marker_dir`` is made absolute here, against this process's working
    directory, so a worker finds the same directory whatever its own.
    """
    return Scenario(
        name=name,
        task="transient_fault",
        params={
            "marker_dir": os.path.abspath(marker_dir),
            "marker_key": name,
            "fail_attempts": int(fail_attempts),
            "mode": mode,
            "hang_seconds": float(hang_seconds),
            "inner_task": inner.task,
            "inner_params": dict(inner.params),
        },
    )
