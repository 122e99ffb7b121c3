"""Supervised, crash-safe scenario execution.

:class:`ScenarioSupervisor` wraps the work :class:`~repro.runner.ScenarioRunner`
does with the failure semantics a long sweep needs:

- **Per-scenario wall-clock timeouts** — every attempt runs in its own
  spawned worker process, so a hung scenario can be SIGKILLed without
  touching its neighbours;
- **Bounded retries with deterministic backoff** — delays follow a capped
  exponential schedule whose jitter is derived from the scenario *name*
  (SHA-256), never from ``random`` or the clock, so a rerun of the same
  suite retries at bit-identical offsets;
- **Worker-crash detection and respawn** — a worker that dies without
  reporting (OOM kill, segfault, SIGKILL) is detected by its exit code and
  the scenario is retried in a fresh worker; one poisoned worker can never
  contaminate another scenario's process;
- **Quarantine** — scenarios that keep failing are reported in
  :attr:`RunnerReport.quarantined` instead of sinking the suite;
- **Journaled resume** — each completed result is durably appended to a
  ``JOURNAL_<suite>.jsonl`` (see :mod:`repro.runner.journal`); a rerun with
  ``resume=True`` replays the journal, verifies digests and only executes
  what is missing, so an interrupted suite finishes where it left off with
  an identical final ``BENCH_<suite>.json`` (modulo timing fields).

The plain runner remains the fast path for trusted suites (a shared pool
amortizes per-process trace/classifier caches); the supervisor trades that
warmth for isolation, which is what an overnight thousand-scenario sweep
actually needs.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ScenarioCrash, ScenarioError, ScenarioFailed, ScenarioTimeout
from repro.runner.journal import Journal, JournalEntry, journal_path, suite_run_id
from repro.runner.rss import tree_rss_mb
from repro.runner.runner import (
    RunnerReport,
    ScenarioFailure,
    ScenarioResult,
    _execute,
)
from repro.runner.scenario import Scenario

#: Supervisor poll granularity (seconds); bounds timeout overshoot.
_TICK_SECONDS = 0.01
#: Growth of the retry delay per failed attempt.
BACKOFF_FACTOR = 2.0
#: Max relative jitter added to each retry delay.
JITTER_FRACTION = 0.25
#: Fraction of ``SupervisorConfig.memory_ceiling_mb`` at which admission
#: pauses.
MEMORY_WATERMARK = 0.9


@dataclass(frozen=True)
class SupervisorConfig:
    """Failure-handling knobs for :class:`ScenarioSupervisor`.

    Attributes
    ----------
    timeout_seconds:
        Per-attempt wall-clock budget; ``None`` disables timeouts.
    max_attempts:
        Total attempts (first try + retries) before quarantine.
    backoff_base_seconds / backoff_cap_seconds:
        Retry delay after attempt ``k`` (1-based) is
        ``min(cap, base * BACKOFF_FACTOR**(k-1))`` plus the deterministic
        jitter of :func:`backoff_delay`.  The defaults keep test suites
        fast; production sweeps should raise the base.
    memory_ceiling_mb:
        Soft cap on the run's resident memory (supervisor + live
        workers), enforced as admission-control backpressure: while the
        sampled process-tree RSS sits above
        ``MEMORY_WATERMARK * memory_ceiling_mb`` and at least one worker
        is in flight, no new workers are spawned.  Already-running
        workers are never killed for memory — backpressure only delays
        *new* streaming feeders, so results (and digests) are unchanged.
        ``None`` disables the ceiling.
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


def _worker_main(scenario: Scenario, conn) -> None:
    """Worker body: run one attempt, report over the pipe, exit."""
    try:
        payload = _execute(scenario)
        conn.send(("ok", payload))
    except BaseException as exc:  # noqa: BLE001 — report, parent decides
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (OSError, ValueError):
            # Pipe already gone or payload unpicklable: the parent
            # classifies this attempt as a ScenarioCrash from the exit
            # code instead.
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


@dataclass
class _InFlight:
    """One attempt currently running in a worker process."""

    scenario: Scenario
    attempt: int
    process: multiprocessing.process.BaseProcess
    conn: object
    deadline: float | None


class ScenarioSupervisor:
    """Runs scenario suites with timeouts, retries, quarantine and resume."""

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
        #: Names executed (spawned) by the most recent :meth:`run`.
        self.executed: list[str] = []
        #: Names satisfied from the journal by the most recent :meth:`run`.
        self.resumed: list[str] = []
        #: Every per-attempt failure observed, for diagnostics.
        self.failure_log: list[ScenarioError] = []
        #: Peak sampled (supervisor + workers) RSS over the most recent
        #: :meth:`run`, MiB; ``None`` where procfs is unavailable.
        self.peak_rss_mb: float | None = None
        #: Ticks on which the memory watermark deferred a ready spawn.
        self.deferred_spawns: int = 0

    # ------------------------------------------------------------------ run

    def run(
        self, scenarios: list[Scenario], workers: int = 1, resume: bool = False
    ) -> RunnerReport:
        """Run every scenario under supervision; never raises mid-suite.

        ``workers`` is the number of concurrently running worker processes
        (each attempt always gets a fresh spawned process).  With
        ``resume=True`` and a journal configured, journaled completions are
        verified and skipped.  Quarantined scenarios appear in
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
        self.executed = []
        self.resumed = []
        self.failure_log = []
        self.peak_rss_mb = None
        self.deferred_spawns = 0

        done: dict[str, ScenarioResult] = {}
        if resume:
            if self.journal is None:
                raise ValueError("resume=True requires a journal_dir")
            done = self.journal.completed(scenarios, self.suite)
            self.resumed = [s.name for s in scenarios if s.name in done]

        start = time.perf_counter()
        quarantined = self._supervise(
            [s for s in scenarios if s.name not in done], workers, done
        )
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

    # ------------------------------------------------------------ internals

    def _supervise(
        self,
        scenarios: list[Scenario],
        workers: int,
        done: dict[str, ScenarioResult],
    ) -> dict[str, ScenarioFailure]:
        context = multiprocessing.get_context("spawn")
        pending: deque[tuple[Scenario, int]] = deque((s, 1) for s in scenarios)
        delayed: list[tuple[float, Scenario, int]] = []  # (ready_at, s, attempt)
        in_flight: list[_InFlight] = []
        quarantined: dict[str, ScenarioFailure] = {}

        while pending or delayed or in_flight:
            now = time.monotonic()
            for item in [d for d in delayed if d[0] <= now]:
                delayed.remove(item)
                pending.append((item[1], item[2]))

            over_watermark = self._sample_memory(in_flight)
            while pending and len(in_flight) < workers:
                if over_watermark and in_flight:
                    # Backpressure: above the memory watermark, finish
                    # what is running before admitting new feeders.  With
                    # nothing in flight admission proceeds regardless —
                    # deferring then would deadlock the run.
                    self.deferred_spawns += 1
                    break
                scenario, attempt = pending.popleft()
                in_flight.append(self._spawn(context, scenario, attempt))

            finished: list[_InFlight] = []
            for flight in in_flight:
                outcome = self._poll(flight)
                if outcome is None:
                    continue
                finished.append(flight)
                kind, payload = outcome
                if kind == "ok":
                    name, summary, phases, wall, rss_mb = payload
                    result = ScenarioResult(
                        scenario=flight.scenario,
                        summary=summary,
                        phases=phases,
                        wall_seconds=wall,
                        attempts=flight.attempt,
                        rss_peak_mb=rss_mb,
                    )
                    done[name] = result
                    if self.journal is not None:
                        self.journal.append(
                            JournalEntry(
                                suite=self.suite,
                                scenario=flight.scenario,
                                summary=result.summary,
                                phases=result.phases,
                                wall_seconds=result.wall_seconds,
                                attempts=result.attempts,
                                rss_peak_mb=result.rss_peak_mb,
                            )
                        )
                else:
                    self._handle_failure(
                        flight, kind, payload, pending, delayed, quarantined
                    )
            for flight in finished:
                in_flight.remove(flight)

            if in_flight or pending:
                time.sleep(_TICK_SECONDS)
            elif delayed:
                wake = min(d[0] for d in delayed)
                time.sleep(max(min(wake - time.monotonic(), 0.25), 0.0))
        return quarantined

    def _sample_memory(self, in_flight: list[_InFlight]) -> bool:
        """Sample the process tree's RSS; True when above the watermark.

        Tracks the run-wide peak as a side effect.  Sampling only runs
        when a ceiling is set or a worker is live — a serial resume pass
        that replays the journal pays nothing.
        """
        ceiling = self.config.memory_ceiling_mb
        if ceiling is None and not in_flight:
            return False
        pids = [os.getpid()] + [
            f.process.pid for f in in_flight
            if f.process.pid is not None and f.process.is_alive()
        ]
        observed = tree_rss_mb(pids)
        if observed is None:
            return False
        if self.peak_rss_mb is None or observed > self.peak_rss_mb:
            self.peak_rss_mb = observed
        if ceiling is None:
            return False
        return observed >= MEMORY_WATERMARK * ceiling

    def _spawn(self, context, scenario: Scenario, attempt: int) -> _InFlight:
        parent_conn, child_conn = context.Pipe(duplex=False)
        process = context.Process(
            target=_worker_main,
            args=(scenario, child_conn),
            name=f"repro-{self.suite}-{scenario.name}-a{attempt}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # parent keeps only the read end
        self.executed.append(scenario.name)
        timeout = self.config.timeout_seconds
        return _InFlight(
            scenario=scenario,
            attempt=attempt,
            process=process,
            conn=parent_conn,
            deadline=None if timeout is None else time.monotonic() + timeout,
        )

    def _poll(self, flight: _InFlight) -> tuple[str, object] | None:
        """One non-blocking check: ``None`` if still running, else outcome.

        Outcome kinds: ``("ok", payload)``, ``("error", message)``,
        ``("crash", exitcode)``, ``("timeout", budget)``.
        """
        try:
            if flight.conn.poll():
                try:
                    message = flight.conn.recv()
                except EOFError:
                    message = None
                self._reap(flight)
                if message is not None:
                    return message  # ("ok", payload) or ("error", text)
                return ("crash", flight.process.exitcode)
        except (OSError, ValueError):
            self._reap(flight)
            return ("crash", flight.process.exitcode)
        if not flight.process.is_alive():
            self._reap(flight)
            return ("crash", flight.process.exitcode)
        if flight.deadline is not None and time.monotonic() > flight.deadline:
            flight.process.kill()
            self._reap(flight)
            return ("timeout", self.config.timeout_seconds)
        return None

    @staticmethod
    def _reap(flight: _InFlight) -> None:
        flight.process.join(timeout=5.0)
        try:
            flight.conn.close()
        except OSError:
            # Double-close after a poll() error is fine; the outcome was
            # already classified as a ScenarioCrash by the caller.
            pass

    def _handle_failure(
        self,
        flight: _InFlight,
        kind: str,
        payload,
        pending: deque,
        delayed: list,
        quarantined: dict[str, ScenarioFailure],
    ) -> None:
        name = flight.scenario.name
        if kind == "timeout":
            error: ScenarioError = ScenarioTimeout(
                f"scenario {name!r} exceeded its wall-clock budget",
                scenario=name,
                attempt=flight.attempt,
                timeout_seconds=payload,
            )
        elif kind == "crash":
            error = ScenarioCrash(
                f"worker for scenario {name!r} died without reporting",
                scenario=name,
                attempt=flight.attempt,
                exitcode=payload,
            )
        else:
            error = ScenarioFailed(
                f"scenario {name!r} raised: {payload}",
                scenario=name,
                attempt=flight.attempt,
            )
        self.failure_log.append(error)

        if flight.attempt >= self.config.max_attempts:
            quarantined[name] = ScenarioFailure(
                scenario=flight.scenario,
                kind=kind if kind in ("timeout", "crash") else "error",
                attempts=flight.attempt,
                message=str(error),
            )
            return
        delay = backoff_delay(
            name,
            flight.attempt,
            self.config.backoff_base_seconds,
            self.config.backoff_cap_seconds,
        )
        delayed.append((time.monotonic() + delay, flight.scenario, flight.attempt + 1))
