"""Crash-safe, digest-verified JSONL journals.

Two layers live here:

**The line machinery** (:func:`write_journal_record`,
:func:`read_journal_records`) — generic append-only JSONL where every
line is canonical JSON carrying a ``sha256`` field over the rest of the
record, flushed and fsynced per line.  A SIGKILLed writer leaves at most
one torn trailing line, which reads drop silently (that is the crash
signature journaling exists to survive); any *other* malformed line, or
any digest/version mismatch, raises
:class:`~repro.errors.JournalCorrupt` naming the line.  The serve
daemon's tick journal and checkpoints reuse this layer.

**The scenario journal** (:class:`Journal`, ``JOURNAL_<suite>*.jsonl``) —
one line per completed bench scenario, with resume semantics: an entry
satisfies a scenario only when suite, name, task *and* params all match,
so a journal written at different bench parameters can never leak stale
results into a run.

Collision safety: journals carry an optional **run-id header** (first
line, ``kind: "header"``).  :func:`suite_run_id` derives a stable id from
the suite name plus the exact scenario list; :func:`journal_path` folds
it into the filename; and a :class:`Journal` opened with a ``run_id``
refuses — with a clear ``journal_corrupt`` code, not silent mixing — to
append to or load a file whose header belongs to a different run.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.errors import JournalCorrupt
from repro.runner.runner import ScenarioResult, canonical_json
from repro.runner.scenario import Scenario

#: Bumped when the line format changes; loads reject other versions.
JOURNAL_VERSION = 1


def journal_path(
    suite: str, directory: str | Path = ".", run_id: str | None = None
) -> Path:
    """Where the journal for ``suite`` (optionally one run of it) lives."""
    stem = f"JOURNAL_{suite}" if run_id is None else f"JOURNAL_{suite}_{run_id}"
    return Path(directory) / f"{stem}.jsonl"


def suite_run_id(suite: str, scenarios: list[Scenario]) -> str:
    """Stable run id for one suite execution: suite + exact scenario list.

    Two runs over the same scenarios share an id (so resume finds the
    journal); any change to the scenario set, tasks or params yields a
    different id (so journals can never collide across configurations).
    """
    payload = {
        "suite": suite,
        "scenarios": [
            {"name": s.name, "task": s.task, "params": s.params} for s in scenarios
        ],
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:12]


# ------------------------------------------------------- the line machinery


def record_digest(record: dict) -> str:
    """SHA-256 of a record's canonical JSON (the per-line integrity seal)."""
    return hashlib.sha256(canonical_json(record).encode()).hexdigest()


def write_journal_record(path: str | Path, record: dict) -> None:
    """Durably append one record (digest field + flush + fsync per line)."""
    path = Path(path)
    line = canonical_json({**record, "sha256": record_digest(record)})
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def unseal_record(
    text: str, kind: str, path: Path, line: int | None = None, torn_ok: bool = False
) -> dict | None:
    """Parse one sealed record and verify its ``sha256`` (digest stripped).

    ``kind``/``path``/``line`` only word the error.  With ``torn_ok`` a
    record that is not JSON, or carries no digest, reads as ``None`` — a
    crash-torn tail — instead of raising; a digest *mismatch* is corruption
    in any position.
    """
    where = f"{kind} {path}" if line is None else f"{kind} {path} line {line}"
    context = {} if line is None else {"line": line}
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        if torn_ok:
            return None
        raise JournalCorrupt(f"{where} is not valid JSON", **context) from exc
    if not isinstance(payload, dict) or "sha256" not in payload:
        if torn_ok:
            return None
        raise JournalCorrupt(f"{where} has no digest", **context)
    stored = payload.pop("sha256")
    if record_digest(payload) != stored:
        raise JournalCorrupt(
            f"{where} digest mismatch (edited or bit-rotted {kind})",
            expected=stored,
            **context,
        )
    return payload


def read_journal_records(path: str | Path) -> list[dict]:
    """Parse and verify every journaled record (digest stripped).

    A torn final line (no trailing newline, or unparseable JSON in the
    last position) is dropped — the signature of a writer killed
    mid-append.  Anywhere else, or on any digest/version mismatch, the
    journal is corrupt and the error says which line.
    """
    path = Path(path)
    if not path.exists():
        return []
    raw = path.read_text(encoding="utf-8")
    lines = raw.split("\n")
    torn_tail = lines and lines[-1] != ""
    if not torn_tail:
        lines = lines[:-1]
    records: list[dict] = []
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        payload = unseal_record(
            line,
            "journal",
            path,
            line=index + 1,
            torn_ok=torn_tail and index == len(lines) - 1,
        )
        if payload is None:
            break  # torn by a crash mid-append; resume re-runs it
        if payload.get("version") != JOURNAL_VERSION:
            raise JournalCorrupt(
                f"journal {path} line {index + 1} has version "
                f"{payload.get('version')!r}, expected {JOURNAL_VERSION}",
                line=index + 1,
            )
        records.append(payload)
    return records


def check_run_id(path: str | Path, records: list[dict], run_id: str | None) -> None:
    """Refuse a journal whose header belongs to a different run.

    With ``run_id`` set, the first record must be a matching header — a
    missing header means the file predates run-id journaling (or is some
    other file entirely) and appending would silently mix runs.
    """
    if run_id is None or not records:
        return
    head = records[0]
    if head.get("kind") != "header":
        raise JournalCorrupt(
            f"journal {path} has no run-id header; refusing to mix runs",
            expected_run_id=run_id,
        )
    if head.get("run_id") != run_id:
        raise JournalCorrupt(
            f"journal {path} belongs to run {head.get('run_id')!r}, "
            f"not {run_id!r}; refusing to mix runs",
            expected_run_id=run_id,
            found_run_id=head.get("run_id"),
        )


def ensure_header(path: str | Path, run_id: str | None) -> None:
    """Make ``path`` safe to append to as run ``run_id``.

    A fresh (missing or empty) file gets the run-id header line; an
    existing one is read and verified through :func:`check_run_id`.  That
    costs a full read of the file, so each journal object calls this once,
    before its first append.
    """
    if run_id is None:
        return
    path = Path(path)
    if path.exists() and path.stat().st_size > 0:
        check_run_id(path, read_journal_records(path), run_id)
        return
    write_journal_record(
        path, {"version": JOURNAL_VERSION, "kind": "header", "run_id": run_id}
    )


# ------------------------------------------------------ the scenario journal


@dataclass(frozen=True)
class JournalEntry:
    """One journaled scenario completion."""

    suite: str
    scenario: Scenario
    summary: dict
    phases: dict
    wall_seconds: float
    attempts: int
    #: Worker high-water RSS in MiB; optional so pre-RSS journals (and
    #: platforms without the reading) stay loadable under version 1.
    rss_peak_mb: float | None = None

    def matches(self, scenario: Scenario, suite: str) -> bool:
        """Whether this entry is a completed run of exactly ``scenario``."""
        return (
            self.suite == suite
            and self.scenario.name == scenario.name
            and self.scenario.task == scenario.task
            and self.scenario.params == scenario.params
        )

    def to_result(self) -> ScenarioResult:
        return ScenarioResult(
            scenario=self.scenario,
            summary=self.summary,
            phases=dict(self.phases),
            wall_seconds=self.wall_seconds,
            attempts=self.attempts,
            rss_peak_mb=self.rss_peak_mb,
        )

    def record(self) -> dict:
        """The digestable line payload (everything but the digest)."""
        record = {
            "version": JOURNAL_VERSION,
            "suite": self.suite,
            "name": self.scenario.name,
            "task": self.scenario.task,
            "params": self.scenario.params,
            "summary": self.summary,
            "phases": self.phases,
            "wall_s": round(self.wall_seconds, 6),
            "attempts": self.attempts,
        }
        if self.rss_peak_mb is not None:
            record["rss_peak_mb"] = round(self.rss_peak_mb, 2)
        return record


class Journal:
    """Append-only, digest-verified scenario journal.

    With ``run_id`` set, the journal is collision-safe: the first line of
    a fresh file is a run-id header, and appends/loads against a file
    carrying a different (or no) header raise
    :class:`~repro.errors.JournalCorrupt` instead of mixing runs.
    Without ``run_id`` the pre-run-id behaviour is preserved exactly.
    """

    def __init__(self, path: str | Path, run_id: str | None = None) -> None:
        self.path = Path(path)
        self.run_id = run_id
        self._header_checked = False

    def exists(self) -> bool:
        return self.path.exists()

    def append(self, entry: JournalEntry) -> None:
        """Durably append one completed scenario (flush + fsync per line)."""
        if not self._header_checked:
            ensure_header(self.path, self.run_id)
            self._header_checked = True
        write_journal_record(self.path, entry.record())

    def load(self) -> list[JournalEntry]:
        """Parse and verify every journaled entry (header lines skipped)."""
        records = read_journal_records(self.path)
        check_run_id(self.path, records, self.run_id)
        entries: list[JournalEntry] = []
        for payload in records:
            if payload.get("kind") == "header":
                continue
            entries.append(
                JournalEntry(
                    suite=payload["suite"],
                    scenario=Scenario(
                        name=payload["name"],
                        task=payload["task"],
                        params=payload["params"],
                    ),
                    summary=payload["summary"],
                    phases=payload["phases"],
                    wall_seconds=float(payload["wall_s"]),
                    attempts=int(payload["attempts"]),
                    rss_peak_mb=(
                        float(payload["rss_peak_mb"])
                        if payload.get("rss_peak_mb") is not None
                        else None
                    ),
                )
            )
        return entries

    def completed(
        self, scenarios: list[Scenario], suite: str
    ) -> dict[str, ScenarioResult]:
        """Scenario name -> journaled result, for exact-match entries only.

        Later entries win (a scenario retried across resumed runs keeps
        its most recent completion).
        """
        by_name: dict[str, ScenarioResult] = {}
        entries = self.load()
        for scenario in scenarios:
            for entry in entries:
                if entry.matches(scenario, suite):
                    by_name[scenario.name] = entry.to_result()
        return by_name
