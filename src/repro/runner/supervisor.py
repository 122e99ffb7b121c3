"""The scenario executor: warm, supervised, journaled.

:class:`ScenarioSupervisor` runs every scenario list in the repo — the
``repro bench`` suites, the ``repro fleet`` shards — with the failure
semantics a long sweep needs:

- **In process at ``workers=1``** — scenarios run one after another in
  the calling process, so tracing wrappers and reference digests see
  them.  Retries, quarantine and the journal work as below; a timeout
  cannot be enforced in this process, so none applies.
- **Warm worker processes at ``workers>=2``** — up to ``workers``
  persistent workers, each handed one scenario at a time over its own
  pipe.  Every worker is a fork of one template process (the
  ``forkserver``), started once per coordinator process on its import
  path, with the task registry and the solver stack imported
  (:data:`TEMPLATE_PRELOAD`) and its BLAS pinned to one thread
  (:data:`WORKER_ENV`): the workers already share the CPUs.  So a worker
  starts in milliseconds, not the second a fresh interpreter takes to
  import numpy, ``repro`` and scipy.  The template only imports: it never
  runs a scenario, so every run's workers start with an empty trace and
  classifier memo (:mod:`repro.runner.tasks`), which a worker then keeps
  from one scenario to the next.  A worker sees the environment the template
  started with, so the coordinator resolves the ``REPRO_BENCH_*``
  defaults of every scenario's trace params before it hands the scenario
  over (:func:`~repro.runner.defaults.resolved_params`).  A worker is
  retired after any failed attempt, so a retry never shares a process
  with the attempt that failed.  The coordinator blocks on the worker
  pipes and sentinels until a result, the next deadline, the next backoff
  wake-up or the next RSS sample, whichever comes first.
- **Per-scenario wall-clock timeouts** — a worker whose attempt overruns
  its budget is SIGKILLed without touching its neighbours;
- **Bounded retries with deterministic backoff** — delays follow a capped
  exponential schedule whose jitter is derived from the scenario *name*
  (SHA-256), never from ``random`` or the clock, so a rerun of the same
  suite retries at bit-identical offsets;
- **Worker-crash detection** — a worker that dies without reporting (OOM
  kill, segfault, SIGKILL) is detected through its sentinel and the
  scenario is retried in another worker;
- **Quarantine** — scenarios that keep failing are reported in
  :attr:`RunnerReport.quarantined` instead of sinking the suite;
- **Journaled resume** — given a ``journal_dir``, each completed result is
  durably appended to a ``JOURNAL_<suite>_<run id>.jsonl`` (see
  :mod:`repro.runner.journal`); a rerun with ``resume=True`` replays the
  journal, verifies digests and only executes what is missing, so an
  interrupted suite finishes where it left off with an identical final
  ``BENCH_<suite>.json`` (modulo timing fields).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import sys
import time
import dataclasses
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing.connection import wait
from pathlib import Path

from repro.errors import ScenarioCrash, ScenarioError, ScenarioFailed, ScenarioTimeout
from repro.runner.defaults import resolved_params
from repro.runner.journal import Journal, JournalEntry, journal_path, suite_run_id
from repro.runner.rss import parent_pid, self_peak_rss_mb, tree_rss_mb
from repro.runner.runner import (
    RunnerReport,
    ScenarioFailure,
    ScenarioResult,
    _execute,
)
from repro.runner.scenario import Scenario

#: Longest the coordinator blocks between two samples of the process
#: tree's RSS while workers run (seconds).
RSS_SAMPLE_SECONDS = 0.1
#: Growth of the retry delay per failed attempt.
BACKOFF_FACTOR = 2.0
#: Max relative jitter added to each retry delay.
JITTER_FRACTION = 0.25
#: Fraction of ``SupervisorConfig.memory_ceiling_mb`` at which admission
#: pauses.
MEMORY_WATERMARK = 0.9
#: Set in the worker template's environment when it starts, because its
#: preload imports numpy: every worker forked from it runs one BLAS thread.
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: Imported once by the worker template, so that no worker pays for them:
#: the task registry (which registers every built-in task), the fleet
#: shard task and the LP / ARIMA solver stack.  Imports only — never
#: ``__main__``, and nothing that runs a scenario.
TEMPLATE_PRELOAD = ("repro.runner.tasks", "repro.fleet.tasks", "scipy.optimize")
#: How workers start: forked from the template, or, on a platform without
#: ``forkserver``, spawned as fresh interpreters.
START_METHOD = (
    "forkserver"
    if "forkserver" in multiprocessing.get_all_start_methods()
    else "spawn"
)


@dataclass(frozen=True)
class SupervisorConfig:
    """Failure-handling knobs for :class:`ScenarioSupervisor`.

    Attributes
    ----------
    timeout_seconds:
        Per-attempt wall-clock budget of a worker; ``None`` disables
        timeouts.  Scenarios run in process (``workers=1``) have none.
    max_attempts:
        Total attempts (first try + retries) before quarantine.
    backoff_base_seconds / backoff_cap_seconds:
        Retry delay after attempt ``k`` (1-based) is
        ``min(cap, base * BACKOFF_FACTOR**(k-1))`` plus the deterministic
        jitter of :func:`backoff_delay`.  The defaults keep test suites
        fast; production sweeps should raise the base.
    memory_ceiling_mb:
        Soft cap on the run's resident memory (coordinator + live
        workers), enforced as admission-control backpressure: while the
        sampled process-tree RSS sits above
        ``MEMORY_WATERMARK * memory_ceiling_mb`` and at least one worker
        is busy, no further scenario is handed out.  Running workers are
        never killed for memory — backpressure only delays *new*
        scenarios, so results (and digests) are unchanged.  ``None``
        disables the ceiling.
    """

    timeout_seconds: float | None = None
    max_attempts: int = 3
    backoff_base_seconds: float = 0.05
    backoff_cap_seconds: float = 2.0
    memory_ceiling_mb: float | None = None

    def __post_init__(self) -> None:
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError(
                f"timeout_seconds must be positive, got {self.timeout_seconds}"
            )
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base_seconds < 0:
            raise ValueError(
                f"backoff_base_seconds must be >= 0, got {self.backoff_base_seconds}"
            )
        if self.backoff_cap_seconds < 0:
            raise ValueError(
                f"backoff_cap_seconds must be >= 0, got {self.backoff_cap_seconds}"
            )
        if self.memory_ceiling_mb is not None and self.memory_ceiling_mb <= 0:
            raise ValueError(
                f"memory_ceiling_mb must be positive, got {self.memory_ceiling_mb}"
            )


def backoff_delay(
    name: str, attempt: int, base_seconds: float, cap_seconds: float
) -> float:
    """Deterministic retry delay after ``attempt`` failures of ``name``.

    ``min(cap_seconds, base_seconds * BACKOFF_FACTOR**(attempt-1))``, plus
    up to ``JITTER_FRACTION`` of it as jitter derived from SHA-256 of
    ``"<name>:<attempt>"`` — no ``random``, no clock — so it is
    bit-identical across reruns and machines, yet de-correlated across
    scenarios so a mass failure does not retry in lockstep.
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    base = min(cap_seconds, base_seconds * BACKOFF_FACTOR ** (attempt - 1))
    digest = hashlib.sha256(f"{name}:{attempt}".encode()).digest()
    fraction = int.from_bytes(digest[:8], "big") / 2**64  # uniform [0, 1)
    return base * (1.0 + JITTER_FRACTION * fraction)


def _worker_main(conn, forked: bool) -> None:
    """Worker body: run each scenario sent over ``conn`` and report it.

    Every reply is ``(kind, payload, cold)``; ``cold`` says that the
    worker was ``forked`` from a template that failed to preload some
    :data:`TEMPLATE_PRELOAD` module (``forkserver`` swallows the
    ``ImportError``), so this worker imports it itself.  Runs until the
    coordinator kills the worker or closes the pipe.  A report that
    cannot be sent ends the worker, which the coordinator classifies as a
    :class:`~repro.errors.ScenarioCrash`.
    """
    cold = forked and not all(name in sys.modules for name in TEMPLATE_PRELOAD)
    while True:
        try:
            scenario = conn.recv()
        except EOFError:
            return
        try:
            conn.send(("ok", _execute(scenario), cold))
        except BaseException as exc:  # noqa: BLE001 — report, parent decides
            conn.send(("error", f"{type(exc).__name__}: {exc}", cold))


@contextmanager
def _environment(values: dict[str, str]):
    """Set ``values`` in this process's environment, restoring it after."""
    saved = {key: os.environ.get(key) for key in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                del os.environ[key]
            else:
                os.environ[key] = value


def _worker_context():
    """The context workers start from, with the template running.

    The template starts on first use in this process (and again if it
    died), inside :data:`WORKER_ENV` and with this process's ``sys.path``
    as its ``PYTHONPATH``: ``forkserver`` hands the template that path
    but never applies it, so a ``repro`` this process put on ``sys.path``
    at run time would not preload, and an installed copy would preload in
    its place.  This process's environment is restored at once.
    """
    context = multiprocessing.get_context(START_METHOD)
    if START_METHOD == "forkserver":
        from multiprocessing import forkserver

        context.set_forkserver_preload(list(TEMPLATE_PRELOAD))
        import_path = os.pathsep.join(entry for entry in sys.path if entry)
        with _environment({**WORKER_ENV, "PYTHONPATH": import_path}):
            forkserver.ensure_running()
    return context


def _portable(scenario: Scenario) -> Scenario:
    """``scenario`` with the environment defaults of its params resolved
    here, as a worker must receive it."""
    return dataclasses.replace(scenario, params=resolved_params(scenario.params))


@dataclass
class _Worker:
    """One persistent worker process and the attempt it is running."""

    process: multiprocessing.process.BaseProcess
    conn: object
    #: The process the worker was forked from (the template; this
    #: process under ``spawn``), resident while the worker runs.
    parent: int | None = None
    scenario: Scenario | None = None
    attempt: int = 0
    deadline: float | None = None
    #: When the attempt was handed over (``perf_counter``).
    assigned_at: float = 0.0
    #: What the worker's first reply said about its template (see
    #: :func:`_worker_main`); ``None`` before it replied.
    cold: bool | None = None


class ScenarioSupervisor:
    """Runs scenario lists with timeouts, retries, quarantine and resume."""

    def __init__(
        self,
        suite: str = "suite",
        config: SupervisorConfig | None = None,
        journal_dir: str | Path | None = None,
    ) -> None:
        self.suite = suite
        self.config = config or SupervisorConfig()
        self._journal_dir = journal_dir
        #: Bound by :meth:`run` once the scenario list (hence the run id)
        #: is known; the path carries the run id so journals from
        #: different scenario sets can never collide.
        self.journal: Journal | None = None
        #: One name per attempt started by the most recent :meth:`run`.
        self.executed: list[str] = []
        #: Names satisfied from the journal by the most recent :meth:`run`.
        self.resumed: list[str] = []
        #: Every per-attempt failure observed, for diagnostics.
        self.failure_log: list[ScenarioError] = []
        #: Peak resident memory of the most recent :meth:`run`'s process
        #: tree, MiB: in process, this process's high-water mark; with
        #: workers, the largest sampled sum of coordinator + worker
        #: template + live worker RSS.  ``None`` where the platform gives
        #: no reading.
        self.peak_rss_mb: float | None = None
        #: Admission rounds on which the memory watermark held back a
        #: ready scenario.
        self.deferred_spawns: int = 0
        #: Workers whose template lacked a :data:`TEMPLATE_PRELOAD`
        #: module, so that each imported it itself.
        self.cold_workers: int = 0

    # ------------------------------------------------------------------ run

    def run(
        self, scenarios: list[Scenario], workers: int = 1, resume: bool = False
    ) -> RunnerReport:
        """Run every scenario; never raises mid-suite.

        ``workers=1`` runs the scenarios in this process; ``workers>=2``
        runs them on up to that many worker processes.  With
        ``resume=True`` and a journal configured, journaled completions
        are verified and skipped; without it, the run starts the journal
        afresh (:meth:`Journal.start`).  Quarantined scenarios appear in
        ``report.quarantined``; everything else in ``report.results`` in
        input order.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        names = [s.name for s in scenarios]
        if len(set(names)) != len(names):
            raise ValueError(f"scenario names must be unique, got {names}")
        if self._journal_dir is not None:
            run_id = suite_run_id(self.suite, scenarios)
            self.journal = Journal(
                journal_path(self.suite, self._journal_dir, run_id), run_id
            )
            if not resume:
                self.journal.start()
        self.executed = []
        self.resumed = []
        self.failure_log = []
        self.peak_rss_mb = None
        self.deferred_spawns = 0
        self.cold_workers = 0

        done: dict[str, ScenarioResult] = {}
        if resume:
            if self.journal is None:
                raise ValueError("resume=True requires a journal_dir")
            done = self.journal.completed(scenarios, self.suite)
            self.resumed = [s.name for s in scenarios if s.name in done]

        start = time.perf_counter()
        todo = [s for s in scenarios if s.name not in done]
        quarantined: dict[str, ScenarioFailure] = {}
        if workers == 1:
            self._run_in_process(todo, done, quarantined)
        else:
            self._run_workers(todo, workers, done, quarantined)
        total = time.perf_counter() - start

        results = tuple(done[s.name] for s in scenarios if s.name in done)
        failures = tuple(
            quarantined[s.name] for s in scenarios if s.name in quarantined
        )
        return RunnerReport(
            suite=self.suite,
            workers=workers,
            results=results,
            total_wall_seconds=total,
            quarantined=failures,
            peak_rss_mb=self.peak_rss_mb,
        )

    def verify_determinism(
        self, scenarios: list[Scenario], workers: int = 2
    ) -> tuple[RunnerReport, RunnerReport]:
        """Run in process, then on ``workers``; raise if any summary differs."""
        serial = self.run(scenarios, workers=1)
        parallel = self.run(scenarios, workers=workers)
        expected, got = serial.digests(), parallel.digests()
        mismatches = sorted(
            name for name in expected.keys() | got.keys()
            if expected.get(name) != got.get(name)
        )
        if mismatches:
            raise AssertionError(
                f"serial/parallel summaries diverged for scenarios: {mismatches}"
            )
        return serial, parallel

    # ------------------------------------------------------------ internals

    def _run_in_process(
        self,
        scenarios: list[Scenario],
        done: dict[str, ScenarioResult],
        quarantined: dict[str, ScenarioFailure],
    ) -> None:
        for scenario in scenarios:
            attempt = 1
            while True:
                self.executed.append(scenario.name)
                start = time.perf_counter()
                try:
                    outcome = ("ok", _execute(_portable(scenario)))
                except Exception as exc:  # noqa: BLE001 — retried or quarantined
                    outcome = ("error", f"{type(exc).__name__}: {exc}")
                delay = self._settle(
                    scenario, attempt, outcome, done, quarantined,
                    observed=time.perf_counter() - start,
                )
                if delay is None:
                    break
                time.sleep(delay)
                attempt += 1
        self.peak_rss_mb = self_peak_rss_mb()

    def _run_workers(
        self,
        scenarios: list[Scenario],
        workers: int,
        done: dict[str, ScenarioResult],
        quarantined: dict[str, ScenarioFailure],
    ) -> None:
        context = _worker_context()
        pending: deque[tuple[Scenario, int]] = deque((s, 1) for s in scenarios)
        delayed: list[tuple[float, Scenario, int]] = []  # (ready_at, s, attempt)
        idle: list[_Worker] = []
        busy: list[_Worker] = []
        try:
            while pending or delayed or busy:
                now = time.monotonic()
                for item in [d for d in delayed if d[0] <= now]:
                    delayed.remove(item)
                    pending.append((item[1], item[2]))

                over_watermark = self._sample_memory(idle + busy)
                while pending and len(busy) < workers:
                    if over_watermark and busy:
                        # Backpressure: above the memory watermark, finish
                        # what is running before handing out more.  With
                        # nothing busy admission proceeds regardless —
                        # deferring then would deadlock the run.
                        self.deferred_spawns += 1
                        break
                    worker = idle.pop() if idle else self._spawn(context)
                    self._assign(worker, *pending.popleft())
                    busy.append(worker)

                waits = [RSS_SAMPLE_SECONDS] + [d[0] - now for d in delayed] + [
                    w.deadline - now for w in busy if w.deadline is not None
                ]
                wait(
                    [w.conn for w in busy] + [w.process.sentinel for w in busy],
                    timeout=max(min(waits), 0.0),
                )
                for worker in list(busy):
                    outcome = self._collect(worker)
                    if outcome is None:
                        continue
                    busy.remove(worker)
                    if outcome[0] == "ok":
                        self._fold_reported_peak(worker, outcome[1][-1])
                        idle.append(worker)
                    else:
                        self._retire(worker)
                    delay = self._settle(
                        worker.scenario, worker.attempt, outcome, done, quarantined,
                        observed=time.perf_counter() - worker.assigned_at,
                    )
                    if delay is not None:
                        delayed.append(
                            (time.monotonic() + delay, worker.scenario,
                             worker.attempt + 1)
                        )
        finally:
            for worker in idle + busy:
                self._retire(worker)

    def _spawn(self, context) -> _Worker:
        parent_conn, child_conn = context.Pipe()
        method = context.get_start_method()
        process = context.Process(
            target=_worker_main,
            args=(child_conn, method == "forkserver"),
            name=f"repro-{self.suite}-worker",
            daemon=True,
        )
        if method == "spawn":
            # A spawned worker inherits this process's environment.
            with _environment(WORKER_ENV):
                process.start()
        else:
            process.start()
        child_conn.close()  # the worker holds the other end
        return _Worker(
            process=process, conn=parent_conn, parent=parent_pid(process.pid)
        )

    def _assign(self, worker: _Worker, scenario: Scenario, attempt: int) -> None:
        timeout = self.config.timeout_seconds
        worker.scenario = scenario
        worker.attempt = attempt
        worker.deadline = None if timeout is None else time.monotonic() + timeout
        worker.assigned_at = time.perf_counter()
        self.executed.append(scenario.name)
        try:
            worker.conn.send(_portable(scenario))
        except OSError:
            pass  # the worker died while idle; _collect reports the crash

    def _collect(self, worker: _Worker) -> tuple[str, object] | None:
        """One non-blocking check: ``None`` while running, else the outcome.

        Outcome kinds: ``("ok", payload)``, ``("error", message)``,
        ``("crash", exitcode)``, ``("timeout", budget)``.
        """
        try:
            if worker.conn.poll():
                kind, payload, cold = worker.conn.recv()
                if worker.cold is None:
                    worker.cold = cold
                    self.cold_workers += cold
                return (kind, payload)  # ("ok", payload) or ("error", text)
        except (EOFError, OSError, ValueError):
            pass
        else:
            if worker.process.is_alive():
                if worker.deadline is None or time.monotonic() <= worker.deadline:
                    return None
                return ("timeout", self.config.timeout_seconds)
        self._retire(worker)
        return ("crash", worker.process.exitcode)

    @staticmethod
    def _retire(worker: _Worker) -> None:
        """Kill (if still running) and join a worker; close its pipe.

        Idempotent, so a crashed worker can be retired where it is found.
        """
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join()
        worker.conn.close()

    def _sample_memory(self, live: list[_Worker]) -> bool:
        """Sample the process tree's RSS; True when above the watermark.

        Tracks the run-wide peak as a side effect.
        """
        pids = {os.getpid(), *(w.process.pid for w in live)}
        pids.update(w.parent for w in live if w.parent is not None)
        observed = tree_rss_mb(sorted(pids))
        if observed is None:
            return False
        if self.peak_rss_mb is None or observed > self.peak_rss_mb:
            self.peak_rss_mb = observed
        ceiling = self.config.memory_ceiling_mb
        return ceiling is not None and observed >= MEMORY_WATERMARK * ceiling

    def _fold_reported_peak(self, worker: _Worker, reported: float | None) -> None:
        """Fold a worker's own high-water mark into the run-wide peak, with
        the coordinator and the template as sampled now: a worker can peak
        and shrink between two periodic samples, but it reports its peak."""
        if reported is None:
            return
        pids = {os.getpid(), worker.parent} - {None}
        observed = reported + (tree_rss_mb(sorted(pids)) or 0.0)
        if self.peak_rss_mb is None or observed > self.peak_rss_mb:
            self.peak_rss_mb = observed

    def _settle(
        self,
        scenario: Scenario,
        attempt: int,
        outcome: tuple[str, object],
        done: dict[str, ScenarioResult],
        quarantined: dict[str, ScenarioFailure],
        observed: float,
    ) -> float | None:
        """Record one attempt's outcome; the retry delay, or ``None`` if final.

        ``observed`` is the attempt's wall as this process saw it, from
        hand-over to outcome; what the task's own wall leaves of it is the
        result's executor overhead.
        """
        kind, payload = outcome
        name = scenario.name
        if kind == "ok":
            _, summary, phases, wall, rss_mb = payload
            result = ScenarioResult(
                scenario=scenario,
                summary=summary,
                phases=phases,
                wall_seconds=wall,
                attempts=attempt,
                rss_peak_mb=rss_mb,
                overhead_seconds=observed - wall,
            )
            done[name] = result
            if self.journal is not None:
                self.journal.append(
                    JournalEntry(
                        suite=self.suite,
                        scenario=scenario,
                        summary=summary,
                        phases=phases,
                        wall_seconds=wall,
                        attempts=attempt,
                        rss_peak_mb=rss_mb,
                    )
                )
            return None
        if kind == "timeout":
            error: ScenarioError = ScenarioTimeout(
                f"scenario {name!r} exceeded its wall-clock budget",
                scenario=name,
                attempt=attempt,
                timeout_seconds=payload,
            )
        elif kind == "crash":
            error = ScenarioCrash(
                f"worker for scenario {name!r} died without reporting",
                scenario=name,
                attempt=attempt,
                exitcode=payload,
            )
        else:
            error = ScenarioFailed(
                f"scenario {name!r} raised: {payload}",
                scenario=name,
                attempt=attempt,
            )
        self.failure_log.append(error)

        if attempt >= self.config.max_attempts:
            quarantined[name] = ScenarioFailure(
                scenario=scenario,
                kind=kind,
                attempts=attempt,
                message=str(error),
            )
            return None
        return backoff_delay(
            name,
            attempt,
            self.config.backoff_base_seconds,
            self.config.backoff_cap_seconds,
        )
