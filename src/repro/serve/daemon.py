"""The ``repro serve`` daemon: the crash-safe online control loop.

One loop, one invariant.  Per tick batch from the feeder:

1. **Hot reload** — if SIGHUP arrived or ``--config`` changed on disk,
   parse + validate the candidate; swap ops knobs in, or reject it and
   keep running (deterministic knobs can never change mid-run).
2. **Write-ahead journal** — the batch is fsynced to the tick journal
   *before* anything touches state, so a crash at any later point is
   recoverable by replay.
3. **Watchdog control step** — attempt ``apply_tick``; on a
   :class:`~repro.errors.ReproError` roll back through recovery
   (:func:`~repro.serve.checkpoint.restore` up to the previous tick),
   sleep the deterministic backoff
   (:func:`~repro.runner.supervisor.backoff_delay`), retry.  Restore
   rebuilds *exactly* the pre-attempt state, so a retried tick is
   bit-identical to a first-try tick, and no tick pays for a snapshot.
   Exhausted attempts crash the daemon loudly (exit nonzero) — the state
   on disk is consistent and a ``--restore`` resumes from it.
4. **Ops bookkeeping** — decision latency, rung, partition state into
   :class:`~repro.serve.http.ServeMetrics`; a structured JSONL event
   line; per-stage soft budgets (overruns are counted, never allowed to
   change state).
5. **Checkpoint** — every ``checkpoint_interval_ticks`` applied ticks,
   atomically replace the digest-verified checkpoint.

SIGTERM/SIGINT request a graceful drain: the loop finishes the tick in
flight, writes a final checkpoint, marks ``/healthz`` drained and exits
cleanly.  All wall-clock reads go through the injected
:class:`~repro.serve.clock.Clock`; nothing the clock produces ever
reaches digest state.
"""

from __future__ import annotations

import json
import signal
import threading
from pathlib import Path

from repro.errors import ConfigInvalid, ControlStepFailed, ReproError, ServeError
from repro.runner.supervisor import backoff_delay
from repro.serve.chaos import ServeChaos
from repro.serve.checkpoint import CheckpointStore, TickJournal, restore
from repro.serve.clock import Clock, SystemClock
from repro.serve.config import ServeConfig, load_config_file
from repro.serve.feeder import TickBatch
from repro.serve.http import HealthServer, ServeMetrics
from repro.serve.state import NO_EFFECTS, ServeState, TickOutcome

#: Ceiling on one watchdog retry delay (wall time only, never digest state).
WATCHDOG_BACKOFF_CAP_SECONDS = 2.0


def event_log_path(directory: str | Path, run_id: str) -> Path:
    return Path(directory) / f"EVENTS_{run_id}.jsonl"


class EventLog:
    """Structured JSONL ops log (append + flush; never digest-relevant)."""

    def __init__(self, path: Path, clock: Clock) -> None:
        self.path = path
        self._clock = clock
        self._lock = threading.Lock()

    def emit(self, event: str, **fields) -> None:
        record = {"event": event, "ts": self._clock.now(), **fields}
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
                handle.flush()


class ServeDaemon:
    """Drives a feeder through :class:`ServeState` with full crash safety."""

    def __init__(
        self,
        config: ServeConfig,
        feeder,
        state_dir: str | Path,
        run_id: str,
        chaos: ServeChaos | None = None,
        clock: Clock | None = None,
        http_port: int | None = None,
        http_host: str = "127.0.0.1",
        config_path: str | Path | None = None,
    ) -> None:
        self.config = config
        self.feeder = feeder
        self.state_dir = Path(state_dir)
        self.run_id = run_id
        self.chaos = chaos
        self.clock = clock or SystemClock()
        self.journal = TickJournal(self.state_dir, run_id)
        self.checkpoints = CheckpointStore(self.state_dir, run_id)
        self.metrics = ServeMetrics(self.clock)
        self.events = EventLog(event_log_path(self.state_dir, run_id), self.clock)
        self.state: ServeState | None = None
        self.http: HealthServer | None = None
        self._http_port = http_port
        self._http_host = http_host
        self._config_path = None if config_path is None else Path(config_path)
        self._config_mtime = self._mtime()
        self._drain_requested = threading.Event()
        self._reload_requested = threading.Event()

    # ------------------------------------------------------------- controls

    def request_drain(self) -> None:
        """Finish the tick in flight, checkpoint, exit cleanly."""
        self._drain_requested.set()
        stop = getattr(self.feeder, "stop", None)
        if stop is not None:
            stop()

    def request_reload(self) -> None:
        """Re-read ``--config`` before the next tick (SIGHUP semantics)."""
        self._reload_requested.set()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT -> drain, SIGHUP -> reload (main thread only)."""
        try:
            signal.signal(signal.SIGTERM, lambda *_: self.request_drain())
            signal.signal(signal.SIGINT, lambda *_: self.request_drain())
            signal.signal(signal.SIGHUP, lambda *_: self.request_reload())
        except ValueError:
            # Not the main thread (embedded/test use); callers drive
            # request_drain()/request_reload() directly instead.
            pass

    # ------------------------------------------------------------------ run

    def run(self, restore_state: bool = False, max_ticks: int | None = None) -> dict:
        """Run to feeder exhaustion (or drain/max_ticks); return summary."""
        if restore_state:
            self.state = restore(
                self.config, self.state_dir, self.run_id, chaos=self.chaos
            )
            self.metrics.update(restored_from_tick=self.state.ticks_applied)
            self.events.emit(
                "restored",
                tick=self.state.ticks_applied,
                chain=self.state.chain,
            )
        else:
            if self.journal.path.exists() and self.journal.load():
                raise ServeError(
                    f"state dir {self.state_dir} already holds journaled "
                    f"ticks for run {self.run_id}; pass --restore to resume "
                    "or use a fresh --state-dir",
                    run_id=self.run_id,
                )
            self.state = ServeState(self.config)
            self.events.emit("started", run_id=self.run_id)

        if self._http_port is not None:
            self.http = HealthServer(
                self.metrics,
                host=self._http_host,
                port=self._http_port,
                health_stale_seconds=self.config.health_stale_seconds,
            )
            self.http.start()
            self.events.emit("http_listening", port=self.http.port)

        applied = 0
        try:
            for batch in self.feeder.batches(start_tick=self.state.ticks_applied):
                if self._drain_requested.is_set():
                    break
                self._maybe_reload()
                self._run_tick(batch)
                applied += 1
                if self.config.tick_delay_seconds > 0:
                    self.clock.sleep(self.config.tick_delay_seconds)
                if max_ticks is not None and applied >= max_ticks:
                    break
        finally:
            self._shutdown()
        return self.state.summary()

    # ------------------------------------------------------------ internals

    def _run_tick(self, batch: TickBatch) -> None:
        budget = self.config.stage_budget_seconds
        effects = (
            self.chaos.effects(batch.tick) if self.chaos is not None else NO_EFFECTS
        )

        stage_start = self.clock.monotonic()
        self.journal.append(batch)  # write-ahead: journal BEFORE apply
        self._check_budget("journal", stage_start, budget, batch.tick)

        outcome = self._watchdog_apply(batch, effects)

        stage_start = self.clock.monotonic()
        if self.state.ticks_applied % self.config.checkpoint_interval_ticks == 0:
            self.checkpoints.write(self.state)
            self.metrics.checkpoint_written(at_tick=self.state.ticks_applied)
            self.events.emit(
                "checkpoint", tick=self.state.ticks_applied, chain=self.state.chain
            )
        self._check_budget("checkpoint", stage_start, budget, batch.tick)

    def _watchdog_apply(self, batch: TickBatch, effects) -> TickOutcome:
        """Transactional control step: attempt, roll back via restore, retry."""
        attempts = self.config.watchdog_attempts
        last_error: ReproError | None = None
        for attempt in range(1, attempts + 1):
            started = self.clock.monotonic()
            try:
                if attempt <= effects.crash_attempts:
                    raise ControlStepFailed(
                        "injected control-step crash",
                        tick=batch.tick,
                        attempt=attempt,
                    )
                outcome = self.state.apply_tick(batch, effects)
            except ReproError as exc:
                last_error = exc
                # Rebuild the exact pre-attempt state (checkpoint + journal
                # before batch.tick) so the retry, and hence the digest, is
                # indistinguishable from a first-try success.
                self.state = restore(
                    self.config, self.state_dir, self.run_id, self.chaos, batch.tick
                )
                self.metrics.increment("restarts")
                self.events.emit(
                    "control_step_failed",
                    tick=batch.tick,
                    attempt=attempt,
                    code=exc.code,
                    error=str(exc),
                )
                if attempt < attempts:
                    self.clock.sleep(
                        backoff_delay(
                            f"serve:{batch.tick}",
                            attempt,
                            self.config.watchdog_backoff_base_seconds,
                            WATCHDOG_BACKOFF_CAP_SECONDS,
                        )
                    )
                continue
            latency = self.clock.monotonic() - started
            self._record_outcome(outcome, latency, effects)
            return outcome
        raise ControlStepFailed(
            f"tick {batch.tick} failed {attempts} watchdog attempts; state "
            "on disk is consistent — restart with --restore",
            tick=batch.tick,
            attempts=attempts,
            last=str(last_error),
        )

    def _record_outcome(self, outcome: TickOutcome, latency: float, effects) -> None:
        fabric = effects.fabric
        self.metrics.update(
            ticks=self.state.ticks_applied,
            rung=outcome.rung,
            rung_name=outcome.rung_name,
            mode=outcome.mode,
            arrivals_total=self.state.arrivals_total,
            decision_latency_seconds=latency,
            partitioned=bool(fabric.partitioned) if fabric else False,
            unreachable_cells=list(fabric.unreachable) if fabric else [],
            feeder_rejected=getattr(self.feeder, "rejected", 0),
            chain=self.state.chain,
        )
        self.metrics.tick_completed()
        self.events.emit(
            "tick",
            tick=outcome.tick,
            arrivals=outcome.arrivals,
            rung=outcome.rung,
            rung_name=outcome.rung_name,
            mode=outcome.mode,
            masked=outcome.masked,
            latency_s=round(latency, 6),
        )

    def _check_budget(
        self, stage: str, started: float, budget: float | None, tick: int
    ) -> None:
        """Soft per-stage budget: overruns are visible, never behavioral."""
        if budget is None:
            return
        elapsed = self.clock.monotonic() - started
        if elapsed > budget:
            self.metrics.increment("stage_overruns")
            self.events.emit(
                "stage_overrun",
                stage=stage,
                tick=tick,
                elapsed_s=round(elapsed, 6),
                budget_s=budget,
            )

    # ----------------------------------------------------------- hot reload

    def _mtime(self) -> float | None:
        if self._config_path is None or not self._config_path.exists():
            return None
        return self._config_path.stat().st_mtime

    def _maybe_reload(self) -> None:
        mtime = self._mtime()
        changed = mtime is not None and mtime != self._config_mtime
        if not (self._reload_requested.is_set() or changed):
            return
        self._reload_requested.clear()
        self._config_mtime = mtime
        if self._config_path is None:
            return
        try:
            candidate = load_config_file(self._config_path)
            self.config = self.config.reloaded(candidate)
        except ConfigInvalid as exc:
            # Rollback semantics: the old config stays live.
            self.metrics.increment("config_reload_rejections")
            self.events.emit("config_reload_rejected", error=str(exc))
            return
        self.metrics.increment("config_reloads")
        self.events.emit(
            "config_reloaded",
            reloadable={
                k: v
                for k, v in self.config.to_dict().items()
                if k not in self.config.deterministic_fields()
            },
        )

    # ------------------------------------------------------------- shutdown

    def _shutdown(self) -> None:
        self.metrics.mark_draining()
        if self.state is not None and self.state.ticks_applied > 0:
            self.checkpoints.write(self.state)
            self.metrics.checkpoint_written(at_tick=self.state.ticks_applied)
        self.metrics.mark_drained()
        self.events.emit(
            "drained",
            tick=self.state.ticks_applied if self.state else 0,
            chain=self.state.chain if self.state else None,
        )
        if self.http is not None:
            self.http.stop()


__all__ = ["EventLog", "ServeDaemon", "event_log_path"]
