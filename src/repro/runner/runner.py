"""Parallel scenario execution and machine-readable perf baselines.

:class:`ScenarioRunner` fans a list of independent :class:`Scenario`
configurations out across ``multiprocessing`` workers (spawn context, so
the same code is fork-safety-agnostic on every platform) or runs them
inline for ``workers=1``.  Because every task seeds its own randomness
from the scenario params (see :mod:`repro.runner.tasks`), the per-scenario
summaries are bit-identical between serial and parallel execution — the
runner can and does verify this on demand.

:func:`write_baseline` records a run as ``BENCH_<name>.json``: wall times,
throughput, per-phase timings and a digest of every summary, giving the
repo a perf trajectory reviewers can diff.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import platform
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from repro.errors import NonFiniteSummary
from repro.runner.rss import self_peak_rss_mb
from repro.runner.scenario import Scenario


def _execute(scenario: Scenario) -> tuple[str, dict, dict, float, float | None]:
    """Worker body: run one scenario, time it, return plain picklables.

    The trailing element is the executing process's high-water RSS in MiB
    (``None`` where the platform cannot report it).  In a spawned worker
    that is a true per-scenario peak; inline (``workers=1``) it is the
    host process's peak, which upper-bounds the scenario's.
    """
    start = perf_counter()
    result = scenario.run()
    elapsed = perf_counter() - start
    if not isinstance(result, dict) or "summary" not in result:
        raise TypeError(
            f"task {scenario.task!r} must return a dict with a 'summary' "
            f"key, got {type(result).__name__}"
        )
    return (
        scenario.name,
        result["summary"],
        dict(result.get("phases", {})),
        elapsed,
        self_peak_rss_mb(),
    )


def canonical_json(payload) -> str:
    """Sorted-key, separator-free JSON — the digest and journal wire form.

    NaN/Inf floats would serialize to non-standard tokens whose meaning
    (and byte form) varies across parsers, silently corrupting digests;
    they are rejected with :class:`~repro.errors.NonFiniteSummary`.
    """
    try:
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except ValueError as exc:
        raise NonFiniteSummary(
            f"payload contains non-finite floats and cannot be canonicalized: {exc}"
        ) from exc


def summary_digest(summary: dict) -> str:
    """Canonical SHA-256 of one scenario summary (sorted-key JSON)."""
    return hashlib.sha256(canonical_json(summary).encode()).hexdigest()


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario's outcome."""

    scenario: Scenario
    summary: dict
    phases: dict[str, float]
    wall_seconds: float
    #: Execution attempts consumed (always 1 on the unsupervised path;
    #: the supervisor counts retries).  Deliberately excluded from
    #: ``BENCH_<suite>.json`` so a retried-then-resumed run stays
    #: byte-identical to an uninterrupted one.
    attempts: int = 1
    #: High-water RSS (MiB) of the process that ran the scenario, when
    #: the platform reports it.  A timing-class side channel: surfaced in
    #: baselines and journals but never folded into the summary digest.
    rss_peak_mb: float | None = None

    @property
    def name(self) -> str:
        return self.scenario.name

    def digest(self) -> str:
        return summary_digest(self.summary)


@dataclass(frozen=True)
class ScenarioFailure:
    """A scenario the supervisor gave up on (quarantined)."""

    scenario: Scenario
    #: ``"timeout"`` | ``"crash"`` | ``"error"`` — the *last* failure kind.
    kind: str
    attempts: int
    message: str

    @property
    def name(self) -> str:
        return self.scenario.name


@dataclass(frozen=True)
class RunnerReport:
    """Everything one suite run produced."""

    suite: str
    workers: int
    results: tuple[ScenarioResult, ...]
    total_wall_seconds: float
    #: Scenarios that kept failing under supervision; empty on the plain
    #: (unsupervised) path, which raises on the first failure instead.
    quarantined: tuple[ScenarioFailure, ...] = ()
    #: Coordinator-observed peak of (supervisor + live workers) current
    #: RSS in MiB, sampled per supervision tick; ``None`` on the plain
    #: path or where procfs is unavailable.
    peak_rss_mb: float | None = None

    def __post_init__(self) -> None:
        by_name = {}
        for result in self.results:
            if result.name in by_name:
                raise ValueError(f"duplicate scenario name {result.name!r}")
            by_name[result.name] = result
        object.__setattr__(self, "_by_name", by_name)

    def __getitem__(self, name: str) -> ScenarioResult:
        return self._by_name[name]

    def __iter__(self):
        return iter(self.results)

    def summaries(self) -> dict[str, dict]:
        """Scenario name -> summary, in execution-request order."""
        return {r.name: r.summary for r in self.results}

    def digests(self) -> dict[str, str]:
        """Scenario name -> canonical summary digest."""
        return {r.name: r.digest() for r in self.results}

    @property
    def serial_seconds(self) -> float:
        """Sum of per-scenario walls — the work the run parallelized."""
        return sum(r.wall_seconds for r in self.results)

    def tasks_per_second(self) -> float:
        """Aggregate simulated-task throughput (simulate-style suites)."""
        tasks = sum(_tasks_submitted(r.summary) or 0 for r in self.results)
        if self.total_wall_seconds <= 0:
            return 0.0
        return tasks / self.total_wall_seconds


class ScenarioRunner:
    """Executes scenario lists serially or across worker processes."""

    def __init__(self, suite: str = "suite") -> None:
        self.suite = suite

    def run(self, scenarios: list[Scenario], workers: int = 1) -> RunnerReport:
        """Run every scenario; returns results in the input order.

        ``workers=1`` executes inline (no processes).  ``workers>1`` uses
        a spawn-context pool; scenario order in the report is preserved
        regardless of completion order.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        names = [s.name for s in scenarios]
        if len(set(names)) != len(names):
            raise ValueError(f"scenario names must be unique, got {names}")

        start = perf_counter()
        if workers == 1 or len(scenarios) <= 1:
            raw = [_execute(s) for s in scenarios]
        else:
            context = multiprocessing.get_context("spawn")
            with context.Pool(processes=min(workers, len(scenarios))) as pool:
                raw = pool.map(_execute, scenarios)
        total = perf_counter() - start

        by_name = {
            name: (summary, phases, wall, rss)
            for name, summary, phases, wall, rss in raw
        }
        results = tuple(
            ScenarioResult(
                scenario=s,
                summary=by_name[s.name][0],
                phases=by_name[s.name][1],
                wall_seconds=by_name[s.name][2],
                rss_peak_mb=by_name[s.name][3],
            )
            for s in scenarios
        )
        return RunnerReport(
            suite=self.suite, workers=workers, results=results,
            total_wall_seconds=total,
        )

    def verify_determinism(
        self, scenarios: list[Scenario], workers: int = 2
    ) -> tuple[RunnerReport, RunnerReport]:
        """Run serially and in parallel; raise if any summary differs."""
        serial = self.run(scenarios, workers=1)
        parallel = self.run(scenarios, workers=workers)
        mismatches = [
            name
            for name in serial.digests()
            if serial.digests()[name] != parallel.digests()[name]
        ]
        if mismatches:
            raise AssertionError(
                f"serial/parallel summaries diverged for scenarios: {mismatches}"
            )
        return serial, parallel


def _tasks_submitted(summary: dict) -> int | None:
    """Simulated tasks a scenario summary accounts for, if it ran any.

    ``simulate``-style summaries carry ``tasks_submitted`` at the top
    level; a ``fleet_shard`` summary nests its replay under
    ``"simulation"``.  Solver scenarios have neither.
    """
    return summary.get("simulation", summary).get("tasks_submitted")


def _scenario_entry(result: ScenarioResult) -> dict:
    """One scenario's row in the baseline payload.

    Simulation scenarios additionally surface their task count (so the
    suite-level ``tasks_per_second`` is auditable per scenario, and a
    suite mixing solver scenarios with replay scenarios does not silently
    report 0.0) and their fabric metrics block
    (``summary["resilience"]["fabric"]``) so network-fault baselines show
    partition exposure, not just a digest.
    """
    entry = {
        "name": result.name,
        "task": result.scenario.task,
        "wall_s": round(result.wall_seconds, 4),
        "phases": {k: round(v, 4) for k, v in sorted(result.phases.items())},
        "summary_digest": result.digest(),
    }
    if result.rss_peak_mb is not None:
        entry["rss_peak_mb"] = round(result.rss_peak_mb, 2)
    tasks = _tasks_submitted(result.summary)
    if tasks is not None:
        entry["tasks"] = int(tasks)
    resilience = result.summary.get("resilience")
    if isinstance(resilience, dict):
        fabric = resilience.get("fabric")
        if isinstance(fabric, dict):
            entry["fabric"] = fabric
    return entry


def baseline_payload(
    report: RunnerReport, compare_serial: RunnerReport | None = None
) -> dict:
    """The JSON body of a ``BENCH_<name>.json`` perf baseline."""
    payload = {
        "bench": report.suite,
        "workers": report.workers,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "total_wall_s": round(report.total_wall_seconds, 4),
        "sum_scenario_wall_s": round(report.serial_seconds, 4),
        "tasks_per_second": round(report.tasks_per_second(), 2),
        "scenarios": [_scenario_entry(r) for r in report.results],
        "quarantined": [
            {"name": f.name, "kind": f.kind, "attempts": f.attempts}
            for f in report.quarantined
        ],
    }
    rss_readings = [
        r.rss_peak_mb for r in report.results if r.rss_peak_mb is not None
    ]
    if report.peak_rss_mb is not None:
        rss_readings.append(report.peak_rss_mb)
    if rss_readings:
        # Worker self-peaks bound any single scenario; the coordinator's
        # tick-sampled tree peak bounds concurrent residency.  The max of
        # the two is the run's best-known high-water mark.
        payload["peak_rss_mb"] = round(max(rss_readings), 2)
    if compare_serial is not None:
        payload["serial_wall_s"] = round(compare_serial.total_wall_seconds, 4)
        payload["speedup_vs_serial"] = (
            round(compare_serial.total_wall_seconds / report.total_wall_seconds, 3)
            if report.total_wall_seconds > 0
            else 0.0
        )
        payload["summaries_match_serial"] = (
            compare_serial.digests() == report.digests()
        )
    return payload


def write_baseline(
    report: RunnerReport,
    directory: str | Path = ".",
    compare_serial: RunnerReport | None = None,
) -> Path:
    """Write ``BENCH_<suite>.json`` into ``directory`` and return the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{report.suite}.json"
    payload = baseline_payload(report, compare_serial=compare_serial)
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return path


def repo_root() -> Path:
    """The repository root (where BENCH_*.json baselines live)."""
    return Path(__file__).resolve().parents[3]
