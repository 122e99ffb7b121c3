"""Serve persistence: write-ahead tick journal + digest-verified checkpoints.

Crash safety is two files per run inside ``--state-dir``, both keyed by
the run id (derived from the deterministic config + feeder spec, so a
``--restore`` recomputes the same id and can never mix runs):

``TICKS_<run_id>.jsonl``
    The write-ahead journal.  Every tick batch is appended — digest
    field, flush, fsync — **before** it is applied to state, on the
    shared :mod:`repro.runner.journal` line machinery (torn-tail
    tolerant, run-id header, ``JournalCorrupt`` on mixing).
``CHECKPOINT_<run_id>.json``
    The latest state snapshot, written atomically (tmp + fsync +
    ``os.replace``) every ``checkpoint_interval_ticks`` applied ticks.
    The record carries both a line digest (file integrity) and the
    state's ``summary_digest`` (semantic integrity): a checkpoint that
    loads but does not reproduce its recorded digest is rejected.

:func:`restore` = load checkpoint (or fresh state) + replay the journal
suffix through ``apply_tick`` — bit-identical to the uninterrupted run
because ``apply_tick`` is pure and chaos effects are derived from tick
indices.  Restore is idempotent by construction: it never writes.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from repro.errors import JournalCorrupt
from repro.runner.journal import (
    JOURNAL_VERSION,
    check_run_id,
    ensure_header,
    read_journal_records,
    record_digest,
    unseal_record,
    write_journal_record,
)
from repro.runner.runner import canonical_json
from repro.serve.config import ServeConfig
from repro.serve.feeder import ArrivalRecord, TickBatch
from repro.serve.state import NO_EFFECTS, ServeState


def derive_run_id(config: ServeConfig, feeder_spec: dict) -> str:
    """Stable run id: deterministic config half + feeder identity."""
    payload = {
        "config": config.deterministic_fields(),
        "feeder": feeder_spec,
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:12]


def tick_journal_path(directory: str | Path, run_id: str) -> Path:
    return Path(directory) / f"TICKS_{run_id}.jsonl"


def checkpoint_path(directory: str | Path, run_id: str) -> Path:
    return Path(directory) / f"CHECKPOINT_{run_id}.json"


class TickJournal:
    """Write-ahead journal of tick batches (shared line machinery)."""

    def __init__(self, directory: str | Path, run_id: str) -> None:
        self.path = tick_journal_path(directory, run_id)
        self.run_id = run_id
        self._header_checked = False

    def append(self, batch: TickBatch) -> None:
        """Durably journal one batch BEFORE it is applied."""
        if not self._header_checked:
            ensure_header(self.path, self.run_id)
            self._header_checked = True
        write_journal_record(
            self.path,
            {
                "version": JOURNAL_VERSION,
                "kind": "tick",
                "tick": batch.tick,
                "time": batch.time,
                "arrivals": [a.to_state() for a in batch.arrivals],
            },
        )

    def load(self) -> list[TickBatch]:
        """Every journaled batch, verified, in tick order."""
        records = read_journal_records(self.path)
        check_run_id(self.path, records, self.run_id)
        batches = [
            TickBatch(
                tick=int(r["tick"]),
                time=float(r["time"]),
                arrivals=tuple(
                    ArrivalRecord.from_state(a) for a in r["arrivals"]
                ),
            )
            for r in records
            if r.get("kind") == "tick"
        ]
        return sorted(batches, key=lambda b: b.tick)

    def tick_count(self) -> int:
        return len(self.load())


class CheckpointStore:
    """Atomic, digest-verified single-slot checkpoint."""

    def __init__(self, directory: str | Path, run_id: str) -> None:
        self.path = checkpoint_path(directory, run_id)
        self.run_id = run_id

    def exists(self) -> bool:
        return self.path.exists()

    def write(self, state: ServeState) -> Path:
        """Atomically replace the checkpoint with ``state``'s snapshot."""
        record = {
            "version": JOURNAL_VERSION,
            "kind": "checkpoint",
            "run_id": self.run_id,
            "ticks_applied": state.ticks_applied,
            "summary_digest": state.digest(),
            "state": state.to_state(),
        }
        payload = canonical_json({**record, "sha256": record_digest(record)})
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        return self.path

    def load(self, config: ServeConfig) -> ServeState | None:
        """Verified state from the checkpoint, or ``None`` if absent.

        Three layers of verification: the line digest (file bytes), the
        run id (no mixing), and the semantic ``summary_digest`` (the
        reconstructed state must reproduce the digest recorded at write
        time — a state that loads but drifted is corrupt, not usable).
        """
        if not self.path.exists():
            return None
        payload = unseal_record(
            self.path.read_text(encoding="utf-8"), "checkpoint", self.path
        )
        if payload.get("run_id") != self.run_id:
            raise JournalCorrupt(
                f"checkpoint {self.path} belongs to run "
                f"{payload.get('run_id')!r}, not {self.run_id!r}; refusing "
                "to mix runs",
                expected_run_id=self.run_id,
                found_run_id=payload.get("run_id"),
            )
        state = ServeState.from_state(payload["state"], config)
        if state.digest() != payload["summary_digest"]:
            raise JournalCorrupt(
                f"checkpoint {self.path} state does not reproduce its "
                "recorded summary digest",
                expected=payload["summary_digest"],
                got=state.digest(),
            )
        return state


def restore(
    config: ServeConfig,
    directory: str | Path,
    run_id: str,
    chaos=None,
) -> ServeState:
    """Checkpoint + journal-suffix replay -> bit-identical state.

    Pure read path (idempotent): loads the checkpoint if one exists,
    then re-applies every journaled batch at or past the checkpoint's
    tick, recomputing chaos effects per tick.  A gap in the journal
    (a tick the daemon never journaled) is unrecoverable and raises
    :class:`~repro.errors.JournalCorrupt`.
    """
    store = CheckpointStore(directory, run_id)
    journal = TickJournal(directory, run_id)
    state = store.load(config) or ServeState(config)
    for batch in journal.load():
        if batch.tick < state.ticks_applied:
            continue
        if batch.tick > state.ticks_applied:
            raise JournalCorrupt(
                f"tick journal {journal.path} has a gap: checkpoint is at "
                f"tick {state.ticks_applied} but the next journaled tick "
                f"is {batch.tick}",
                expected=state.ticks_applied,
                got=batch.tick,
            )
        effects = chaos.effects(batch.tick) if chaos is not None else NO_EFFECTS
        state.apply_tick(batch, effects)
    return state


__all__ = [
    "CheckpointStore",
    "TickJournal",
    "checkpoint_path",
    "derive_run_id",
    "restore",
    "tick_journal_path",
]
