"""Streaming dirty-trace sanitizer: clean / repair / quarantine.

The paper analyzes the public Google cluster trace, which is famously messy
(missing fields, clock skew, zero-duration records).  ``load_tasks_csv``
deliberately raises :class:`repro.errors.TraceFieldCorrupt` on the first
bad cell — the right contract for data that *should* be pristine — but the
robustness suite needs to ingest traces that are known-dirty without
crashing on row one.  This module sits in front of the reader and
classifies every record into one of three buckets:

``clean``
    Parsed and validated untouched.
``repaired``
    Usable after a deterministic rule fired (see table below); the record
    stays in the trace.
``quarantined``
    Unusable; the record is dropped from the trace and appended to a
    quarantine JSONL file with its row number, rule and raw cells.

Repair rules (applied in order; one record can trigger several):

| rule | trigger | repair |
|---|---|---|
| ``scheduling_class_defaulted`` | missing/unparseable or outside 0..3 | default to 0 (batch) |
| ``allowed_platforms_defaulted`` | missing/unparseable constraint cell | drop the constraint |
| ``duration_clamped`` | finite duration <= 0 | clamp to ``MIN_DURATION`` |
| ``resource_clamped`` | finite cpu/memory outside (0, 1] | clamp into ``[RESOURCE_FLOOR, 1]`` |
| ``duplicate_id_renumbered`` | (job_id, task_index) already seen | bump index to the next free one |

Quarantine rules:

| rule | trigger |
|---|---|
| ``unparseable`` | a core cell is missing or fails to cast |
| ``nonfinite_time`` | NaN/Inf timestamp or duration |
| ``nonfinite_resource`` | NaN/Inf cpu or memory request |
| ``priority_out_of_range`` | priority outside 0..11 |
| ``timestamp_out_of_range`` | negative submit time, or beyond the trace horizon |
| ``schema_rejected`` | :class:`~repro.trace.schema.Task` still refused the record |

Everything is deterministic: the same byte stream yields the same tasks,
the same per-rule counts, and the same :attr:`SanitizationReport.digest`
(SHA-256 over the canonical-JSON report payload), so two sanitization runs
can be compared byte-for-byte in CI.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TextIO

from repro.trace.reader import (
    _TASK_FIELDS,
    _parse_allowed_platforms,
    load_machine_types_csv,
    load_meta_csv,
)
from repro.trace.schema import NUM_PRIORITIES, Task, Trace

#: Floor applied when clamping non-positive durations (seconds).  Mirrors
#: the zero-duration records in the real trace: they ran, just briefly.
MIN_DURATION = 1.0

#: Floor applied when clamping non-positive resource requests — the same
#: floor Eq. 3 sizing uses, so repaired tasks stay schedulable.
RESOURCE_FLOOR = 1e-4

REPAIR_RULES = (
    "scheduling_class_defaulted",
    "allowed_platforms_defaulted",
    "duration_clamped",
    "resource_clamped",
    "duplicate_id_renumbered",
)

QUARANTINE_RULES = (
    "unparseable",
    "nonfinite_time",
    "nonfinite_resource",
    "priority_out_of_range",
    "timestamp_out_of_range",
    "schema_rejected",
)


class _Quarantine(Exception):
    """Internal signal: drop this record under the given rule."""

    def __init__(self, rule: str, detail: str) -> None:
        super().__init__(detail)
        self.rule = rule
        self.detail = detail


@dataclass(frozen=True)
class SanitizationReport:
    """Deterministic summary of one sanitization pass.

    ``digest`` is the SHA-256 of the canonical-JSON ``to_dict()`` payload
    (sorted keys, compact separators, NaN rejected) — byte-identical
    corpora produce byte-identical digests.  ``quarantine_path`` is kept
    *out* of the digest payload so reports stay comparable across temp
    directories.
    """

    records_total: int
    records_clean: int
    records_repaired: int
    records_quarantined: int
    repairs_by_rule: dict = field(default_factory=dict)
    quarantine_by_rule: dict = field(default_factory=dict)
    quarantined_rows: tuple = ()
    quarantine_path: str | None = None

    def to_dict(self) -> dict:
        """The canonical payload: everything except filesystem paths."""
        return {
            "records_total": self.records_total,
            "records_clean": self.records_clean,
            "records_repaired": self.records_repaired,
            "records_quarantined": self.records_quarantined,
            "repairs_by_rule": dict(sorted(self.repairs_by_rule.items())),
            "quarantine_by_rule": dict(sorted(self.quarantine_by_rule.items())),
            "quarantined_rows": [list(entry) for entry in self.quarantined_rows],
        }

    @property
    def digest(self) -> str:
        blob = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _cast(row: dict, column: str, cast):
    """Cast one cell or raise ``_Quarantine('unparseable', ...)``."""
    value = row.get(column)
    if value is None:
        raise _Quarantine("unparseable", f"missing cell for column {column!r}")
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise _Quarantine(
            "unparseable", f"column {column!r} has unparseable value {value!r}"
        ) from None


def _sanitize_row(
    row: dict,
    horizon: float | None,
    seen_uids: set[tuple[int, int]],
    repairs: list[str],
) -> Task:
    """One record through the rule table; raises ``_Quarantine`` to drop."""
    job_id = _cast(row, "job_id", int)
    index = _cast(row, "task_index", int)
    submit_time = _cast(row, "timestamp", float)
    duration = _cast(row, "duration", float)
    priority = _cast(row, "priority", int)
    cpu = _cast(row, "cpu_request", float)
    memory = _cast(row, "memory_request", float)

    # Defaultable fields repair instead of quarantining.
    try:
        scheduling_class = _cast(row, "scheduling_class", int)
    except _Quarantine:
        scheduling_class = 0
        repairs.append("scheduling_class_defaulted")
    try:
        allowed = _cast(row, "allowed_platforms", _parse_allowed_platforms)
    except _Quarantine:
        allowed = None
        repairs.append("allowed_platforms_defaulted")

    if not math.isfinite(submit_time) or not math.isfinite(duration):
        raise _Quarantine(
            "nonfinite_time", f"timestamp={submit_time}, duration={duration}"
        )
    if not math.isfinite(cpu) or not math.isfinite(memory):
        raise _Quarantine("nonfinite_resource", f"cpu={cpu}, memory={memory}")
    if not 0 <= priority < NUM_PRIORITIES:
        raise _Quarantine("priority_out_of_range", f"priority={priority}")
    if submit_time < 0:
        raise _Quarantine("timestamp_out_of_range", f"timestamp={submit_time} < 0")
    if horizon is not None and submit_time > horizon:
        raise _Quarantine(
            "timestamp_out_of_range",
            f"timestamp={submit_time} beyond horizon {horizon}",
        )

    if duration <= 0:
        duration = MIN_DURATION
        repairs.append("duration_clamped")
    if not 0 <= scheduling_class <= 3:
        scheduling_class = 0
        repairs.append("scheduling_class_defaulted")
    if not 0 < cpu <= 1:
        cpu = min(max(cpu, RESOURCE_FLOOR), 1.0)
        repairs.append("resource_clamped")
    if not 0 < memory <= 1:
        memory = min(max(memory, RESOURCE_FLOOR), 1.0)
        repairs.append("resource_clamped")
    if (job_id, index) in seen_uids:
        while (job_id, index) in seen_uids:
            index += 1
        repairs.append("duplicate_id_renumbered")
    seen_uids.add((job_id, index))

    try:
        return Task(
            job_id=job_id,
            index=index,
            submit_time=submit_time,
            duration=duration,
            priority=priority,
            scheduling_class=scheduling_class,
            cpu=cpu,
            memory=memory,
            allowed_platforms=allowed,
        )
    except ValueError as exc:  # belt and braces: no rule should reach here
        raise _Quarantine("schema_rejected", str(exc)) from None


def _record_payload(row: dict) -> dict:
    """A JSON-safe copy of the raw row (DictReader may use a None restkey)."""
    return {str(k): v for k, v in row.items()}


def sanitize_tasks_csv(
    path: str | Path,
    quarantine_path: str | Path | None = None,
    horizon: float | None = None,
) -> tuple[list[Task], SanitizationReport]:
    """Stream a (possibly dirty) task CSV into tasks plus a report.

    Never raises on record content: malformed rows land in the quarantine
    file (JSONL, one ``{"row", "rule", "detail", "record"}`` object per
    dropped record) and the per-rule counters.  ``horizon``, when given,
    quarantines records arriving after the trace end instead of letting a
    corrupt timestamp stretch the simulation horizon.
    """
    path = Path(path)
    if quarantine_path is None:
        quarantine_path = path.with_name(path.name + ".quarantine.jsonl")
    quarantine_path = Path(quarantine_path)

    tasks: list[Task] = []
    repairs_by_rule: dict[str, int] = {}
    quarantine_by_rule: dict[str, int] = {}
    quarantined_rows: list[tuple[int, str]] = []
    seen_uids: set[tuple[int, int]] = set()
    clean = 0
    repaired = 0
    total = 0

    with path.open(newline="") as handle, quarantine_path.open(
        "w", encoding="utf-8"
    ) as sink:
        reader = csv.DictReader(handle, restkey="_extra")
        for row_number, row in enumerate(reader, start=1):
            total += 1
            repairs: list[str] = []
            try:
                task = _sanitize_row(row, horizon, seen_uids, repairs)
            except _Quarantine as drop:
                quarantine_by_rule[drop.rule] = quarantine_by_rule.get(drop.rule, 0) + 1
                quarantined_rows.append((row_number, drop.rule))
                _write_quarantine_line(sink, row_number, drop, row)
                continue
            tasks.append(task)
            if repairs:
                repaired += 1
                for rule in repairs:
                    repairs_by_rule[rule] = repairs_by_rule.get(rule, 0) + 1
            else:
                clean += 1

    report = SanitizationReport(
        records_total=total,
        records_clean=clean,
        records_repaired=repaired,
        records_quarantined=total - clean - repaired,
        repairs_by_rule=repairs_by_rule,
        quarantine_by_rule=quarantine_by_rule,
        quarantined_rows=tuple(quarantined_rows),
        quarantine_path=str(quarantine_path),
    )
    return tasks, report


def _write_quarantine_line(
    sink: TextIO, row_number: int, drop: _Quarantine, row: dict
) -> None:
    entry = {
        "row": row_number,
        "rule": drop.rule,
        "detail": drop.detail,
        "record": _record_payload(row),
    }
    sink.write(json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n")


def sanitize_trace(
    directory: str | Path,
    quarantine_path: str | Path | None = None,
) -> tuple[Trace, SanitizationReport]:
    """Load a saved trace directory through the sanitizer.

    The machine census and meta files are loaded strictly (they are tiny
    and written by us); ``task_events.csv`` — the file that mirrors the
    messy public table — goes through :func:`sanitize_tasks_csv` with the
    meta horizon as the timestamp bound.
    """
    directory = Path(directory)
    machine_types = load_machine_types_csv(directory / "machine_types.csv")
    horizon, metadata = load_meta_csv(directory / "meta.csv")
    tasks, report = sanitize_tasks_csv(
        directory / "task_events.csv",
        quarantine_path=quarantine_path
        or directory / "task_events.csv.quarantine.jsonl",
        horizon=horizon,
    )
    trace = Trace.from_tasks(machine_types, tasks, horizon=horizon, metadata=metadata)
    return trace, report


def expected_columns() -> tuple[str, ...]:
    """The task CSV schema the sanitizer understands (reader's field list)."""
    return _TASK_FIELDS


__all__ = [
    "MIN_DURATION",
    "RESOURCE_FLOOR",
    "REPAIR_RULES",
    "QUARANTINE_RULES",
    "SanitizationReport",
    "sanitize_tasks_csv",
    "sanitize_trace",
    "expected_columns",
]
