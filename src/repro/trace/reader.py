"""Trace persistence in a clusterdata-like CSV layout.

A saved trace is a directory with two files:

- ``machine_types.csv`` -- one row per platform type
  (platform_id, cpu_capacity, memory_capacity, count, name);
- ``task_events.csv`` -- one SUBMIT row per task, mirroring the columns of
  the public Google ``task_events`` table that the paper analyzes
  (timestamp, job_id, task_index, priority, scheduling_class, cpu_request,
  memory_request, duration, allowed_platforms).

plus a small ``meta.csv`` holding the horizon and free-form metadata.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable

from repro.errors import TraceFieldCorrupt
from repro.trace.schema import MachineType, Task, Trace

_MACHINE_FIELDS = ("platform_id", "cpu_capacity", "memory_capacity", "count", "name")
_META_FIELDS = ("horizon", "metadata_json")
_TASK_FIELDS = (
    "timestamp",
    "job_id",
    "task_index",
    "priority",
    "scheduling_class",
    "cpu_request",
    "memory_request",
    "duration",
    "allowed_platforms",
)


def save_tasks_csv(tasks: Iterable[Task], path: str | Path) -> int:
    """Write tasks as SUBMIT events; returns the number of rows written."""
    path = Path(path)
    count = 0
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_TASK_FIELDS)
        for task in tasks:
            allowed = (
                "|".join(str(p) for p in sorted(task.allowed_platforms))
                if task.allowed_platforms is not None
                else ""
            )
            writer.writerow(
                [
                    f"{task.submit_time:.6f}",
                    task.job_id,
                    task.index,
                    task.priority,
                    task.scheduling_class,
                    # %g keeps *relative* precision for tiny requests, where
                    # fixed decimals would truncate (sizes span 3+ orders).
                    f"{task.cpu:.12g}",
                    f"{task.memory:.12g}",
                    f"{task.duration:.6f}",
                    allowed,
                ]
            )
            count += 1
    return count


def _parse_field(
    row: dict, column: str, cast, row_number: int, file: Path | None = None
):
    """Cast one CSV cell, raising a locatable error instead of a bare one.

    ``file``, when given, joins row, column and value in the error's context.
    """
    context = {} if file is None else {"file": str(file)}
    value = row.get(column)
    if value is None:
        raise TraceFieldCorrupt(
            f"row {row_number}: missing cell for column {column!r}",
            row=row_number,
            column=column,
            value=None,
            **context,
        )
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise TraceFieldCorrupt(
            f"row {row_number}: column {column!r} has unparseable value {value!r}",
            row=row_number,
            column=column,
            value=value,
            **context,
        ) from exc


def _checked_reader(handle, path: Path, fields: tuple[str, ...]) -> csv.DictReader:
    """A ``DictReader`` over ``handle`` whose header has every one of ``fields``."""
    reader = csv.DictReader(handle)
    missing = set(fields) - set(reader.fieldnames or ())
    if missing:
        raise TraceFieldCorrupt(
            f"trace csv {path} missing columns: {sorted(missing)}",
            file=str(path),
            row=0,
            column=",".join(sorted(missing)),
            value=None,
        )
    return reader


def _parse_allowed_platforms(raw: str) -> frozenset[int] | None:
    raw = raw.strip()
    if not raw:
        return None
    return frozenset(int(p) for p in raw.split("|"))


def parse_task_row(row: dict, row_number: int) -> Task:
    """Build a :class:`Task` from one CSV row.

    Any malformed cell raises :class:`repro.errors.TraceFieldCorrupt`
    carrying the 1-based data ``row`` number, ``column`` name and the
    offending ``value``.
    """
    return Task(
        job_id=_parse_field(row, "job_id", int, row_number),
        index=_parse_field(row, "task_index", int, row_number),
        submit_time=_parse_field(row, "timestamp", float, row_number),
        duration=_parse_field(row, "duration", float, row_number),
        priority=_parse_field(row, "priority", int, row_number),
        scheduling_class=_parse_field(row, "scheduling_class", int, row_number),
        cpu=_parse_field(row, "cpu_request", float, row_number),
        memory=_parse_field(row, "memory_request", float, row_number),
        allowed_platforms=_parse_field(
            row, "allowed_platforms", _parse_allowed_platforms, row_number
        ),
    )


def load_tasks_csv(path: str | Path) -> list[Task]:
    """Read tasks written by :func:`save_tasks_csv`.

    A malformed cell raises :class:`repro.errors.TraceFieldCorrupt` (also a
    ``ValueError``) locating the row, column and offending value.  To load a
    dirty file without raising, sanitize it first with
    :func:`repro.trace.sanitize.sanitize_tasks_csv`.
    """
    path = Path(path)
    tasks: list[Task] = []
    with path.open(newline="") as handle:
        reader = _checked_reader(handle, path, _TASK_FIELDS)
        for row_number, row in enumerate(reader, start=1):
            tasks.append(parse_task_row(row, row_number))
    return tasks


def save_trace(trace: Trace, directory: str | Path) -> Path:
    """Persist a trace to ``directory`` (created if needed); returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    with (directory / "machine_types.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_MACHINE_FIELDS)
        for machine in trace.machine_types:
            writer.writerow(
                [
                    machine.platform_id,
                    f"{machine.cpu_capacity:.9f}",
                    f"{machine.memory_capacity:.9f}",
                    machine.count,
                    machine.name,
                ]
            )

    save_tasks_csv(trace.tasks, directory / "task_events.csv")

    with (directory / "meta.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_META_FIELDS)
        writer.writerow([f"{trace.horizon:.6f}", json.dumps(trace.metadata, default=str)])

    return directory


def load_machine_types_csv(path: str | Path) -> list[MachineType]:
    """Read the machine census written by :func:`save_trace`.

    A missing column or malformed cell raises
    :class:`repro.errors.TraceFieldCorrupt` naming the file, row and column.
    """
    path = Path(path)
    machine_types: list[MachineType] = []
    with path.open(newline="") as handle:
        reader = _checked_reader(handle, path, _MACHINE_FIELDS)
        for n, row in enumerate(reader, start=1):
            machine_types.append(
                MachineType(
                    platform_id=_parse_field(row, "platform_id", int, n, path),
                    cpu_capacity=_parse_field(row, "cpu_capacity", float, n, path),
                    memory_capacity=_parse_field(
                        row, "memory_capacity", float, n, path
                    ),
                    count=_parse_field(row, "count", int, n, path),
                    name=_parse_field(row, "name", str, n, path),
                )
            )
    return machine_types


def load_meta_csv(path: str | Path) -> tuple[float, dict]:
    """Read the ``(horizon, metadata)`` pair written by :func:`save_trace`.

    ``save_trace`` writes this file last, so a save killed midway leaves it
    empty or header-only: that, like a malformed cell or undecodable
    ``metadata_json``, raises :class:`repro.errors.TraceFieldCorrupt`.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        # A header-only file has no row 1: every cell of it is missing.
        meta_row = next(_checked_reader(handle, path, _META_FIELDS), {})
    return (
        _parse_field(meta_row, "horizon", float, 1, path),
        _parse_field(meta_row, "metadata_json", json.loads, 1, path),
    )


def load_trace(directory: str | Path) -> Trace:
    """Load a trace saved with :func:`save_trace`."""
    directory = Path(directory)
    machine_types = load_machine_types_csv(directory / "machine_types.csv")
    tasks = load_tasks_csv(directory / "task_events.csv")
    horizon, metadata = load_meta_csv(directory / "meta.csv")
    return Trace.from_tasks(machine_types, tasks, horizon=horizon, metadata=metadata)
