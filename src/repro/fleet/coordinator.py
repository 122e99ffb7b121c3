"""Fleet coordination: plan once, fan out shards, merge deterministically.

``run_fleet`` is the one-call entry point ``repro fleet`` uses:

1. **Plan** — run the trace generator's calibration once, in constant
   memory (:func:`~repro.trace.generator.plan_trace`), and embed the
   serialized plan in every shard's params so workers pay a single
   emission pass instead of re-calibrating.
2. **Fan out** — one ``fleet_shard`` scenario per cell, executed by
   :class:`~repro.runner.supervisor.ScenarioSupervisor`: in process at
   ``workers=1``, else on warm worker processes with timeouts,
   deterministic-backoff retries, memory-ceiling backpressure and, given
   a ``journal_dir``, a suite journal for ``resume``.
3. **Merge** — fold per-shard summaries with
   :func:`~repro.simulation.merge.merge_shard_summaries` and bind the
   shard digests into one fleet digest.  Quarantined shards degrade the
   run to an explicitly marked partial merge instead of sinking it.

The merged digest is invariant across execution topology: in-process,
worker, killed-and-resumed and straggler-retried runs of the same fleet
params all produce the same bytes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro.runner.runner import RunnerReport, summary_digest
from repro.runner.scenario import Scenario
from repro.runner.supervisor import ScenarioSupervisor, SupervisorConfig
from repro.simulation.merge import fleet_digest, merge_shard_summaries
from repro.trace.generator import TracePlan, plan_params, plan_trace

from repro.fleet.sharding import partition_census


@dataclass(frozen=True)
class FleetConfig:
    """Shape of one sharded fleet run (everything but the trace params)."""

    suite: str = "google_fleet"
    shards: int = 4
    policy: str = "cbs"
    predictor: str = "ewma"
    guard: bool = False
    fault_scenario: str | None = None
    fault_seed: int = 0
    route_seed: int = 0
    #: Streamed tasks between progress checkpoints / memory checks.
    progress_every: int = 200_000
    #: Per-worker RSS budget (MiB); a shard that exceeds it fails cleanly
    #: (and quarantines after retries) instead of OOM-killing the host.
    memory_budget_mb: float | None = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.progress_every < 1:
            raise ValueError(
                f"progress_every must be >= 1 streamed task, got {self.progress_every}"
            )
        if self.memory_budget_mb is not None and self.memory_budget_mb <= 0:
            raise ValueError(
                f"memory_budget_mb must be positive MiB, got {self.memory_budget_mb}"
            )


def fleet_scenarios(
    trace_params: dict,
    config: FleetConfig,
    plan: TracePlan | None = None,
    progress_dir: str | Path | None = None,
) -> list[Scenario]:
    """One ``fleet_shard`` scenario per cell, with the plan embedded.

    Validates the shard count against the census (cells are machine-type
    granular) and runs the calibration plan if the caller has not already.
    Scenario params are pure JSON-native picklables, so journal resume's
    params-equality check holds across processes and reruns.  A relative
    ``progress_dir`` is made absolute here, against this process's working
    directory, so a worker finds the same directory whatever its own.
    """
    from repro.runner.defaults import trace_config_from_params

    trace_config = trace_config_from_params(trace_params)
    census = trace_config.census()
    # Raises with the cell bound in the message when shards > len(census).
    partition_census(census, config.shards)
    if plan is None:
        plan = plan_trace(trace_config)
    serialized_plan = plan_params(plan)

    scenarios = []
    for index in range(config.shards):
        params: dict = {
            "trace": dict(trace_params),
            "plan": serialized_plan,
            "shards": config.shards,
            "shard_index": index,
            "route_seed": config.route_seed,
            "policy": config.policy,
            "predictor": config.predictor,
            "guard": config.guard,
            "fault_seed": config.fault_seed,
            "suite": config.suite,
            "progress_every": config.progress_every,
        }
        if config.fault_scenario is not None:
            params["fault_scenario"] = config.fault_scenario
        if progress_dir is not None:
            params["progress_dir"] = os.path.abspath(progress_dir)
        if config.memory_budget_mb is not None:
            params["memory_budget_mb"] = float(config.memory_budget_mb)
        scenarios.append(
            Scenario(
                name=f"fleet_shard_{index:02d}",
                task="fleet_shard",
                params=params,
            )
        )
    return scenarios


@dataclass(frozen=True)
class FleetReport:
    """A fleet run's outcome: the shard report plus the merged view."""

    suite: str
    shards: int
    report: RunnerReport
    #: Merged fleet summary (``None`` when every shard was lost).  On a
    #: partial merge, ``merged["shards"]["missing"]`` names the lost
    #: shard indices — the quarantine marker is *inside* the digested
    #: payload, so a partial digest can never impersonate a complete one.
    merged: dict | None
    #: Fleet digest over (merged summary, per-shard digests).
    digest: str | None
    #: True when at least one shard is missing from the merge.
    partial: bool
    missing: tuple[str, ...]


def merge_fleet_report(
    suite: str, shards: int, report: RunnerReport
) -> FleetReport:
    """Fold a shard-scenario :class:`RunnerReport` into a fleet view."""
    missing = tuple(f.name for f in report.quarantined)
    merged = None
    digest = None
    if report.results:
        merged = merge_shard_summaries([r.summary for r in report.results])
        merged["shards"]["missing"] = sorted(
            int(name.rsplit("_", 1)[1]) for name in missing
        )
        digest = fleet_digest(
            merged,
            {r.name: summary_digest(r.summary) for r in report.results},
        )
    return FleetReport(
        suite=suite,
        shards=shards,
        report=report,
        merged=merged,
        digest=digest,
        partial=bool(missing),
        missing=missing,
    )


def fleet_baseline_payload(
    fleet: FleetReport, trace_params: dict, config: FleetConfig
) -> dict:
    """The ``BENCH_google_fleet.json`` body: runner baseline + fleet block.

    The runner's :func:`~repro.runner.runner.baseline_payload` contributes
    wall times, per-shard phase timings and the peak-RSS high-water mark;
    the ``fleet`` block adds the merged digest, shard topology and
    partial-merge markers.
    """
    from repro.runner.runner import baseline_payload

    payload = baseline_payload(fleet.report)
    merged = fleet.merged
    payload["fleet"] = {
        "trace": dict(trace_params),
        "shards": fleet.shards,
        "policy": config.policy,
        "predictor": config.predictor,
        "digest": fleet.digest,
        "partial": fleet.partial,
        "missing": merged["shards"]["missing"] if merged else sorted(
            int(name.rsplit("_", 1)[1]) for name in fleet.missing
        ),
    }
    if merged is not None:
        payload["fleet"]["machines"] = merged["shards"]["machines"]
        payload["fleet"]["tasks_submitted"] = merged["tasks_submitted"]
        payload["fleet"]["tasks_scheduled"] = merged["tasks_scheduled"]
        payload["fleet"]["energy_kwh"] = round(merged["energy_kwh"], 3)
    return payload


def run_fleet(
    trace_params: dict,
    config: FleetConfig,
    workers: int = 1,
    resume: bool = False,
    journal_dir: str | Path | None = None,
    supervisor_config: SupervisorConfig | None = None,
    progress_dir: str | Path | None = None,
) -> FleetReport:
    """Plan, fan out and merge one sharded fleet run.

    The shards journal exactly when ``journal_dir`` is given.
    """
    scenarios = fleet_scenarios(trace_params, config, progress_dir=progress_dir)
    supervisor = ScenarioSupervisor(
        suite=config.suite, config=supervisor_config, journal_dir=journal_dir
    )
    report = supervisor.run(scenarios, workers=workers, resume=resume)
    return merge_fleet_report(config.suite, config.shards, report)
