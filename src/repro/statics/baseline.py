"""Baseline support: grandfathered findings with justifications.

A baseline is a committed JSON file listing findings that are known,
justified, and deliberately not fixed (legitimate wall-clock reads in the
solver-timeout guard, for example).  Matching is by
:attr:`~repro.statics.findings.Finding.fingerprint` — path, code and the
offending line's *text*, not its number — so unrelated edits do not
invalidate the baseline, while any change to the offending line itself
forces a fresh decision.

Duplicate fingerprints (the same code on identical lines) are handled by
count: a baseline entry with ``count: 2`` absorbs at most two matching
findings; a third is reported.  An entry for a linted file that matches
*no* finding is stale and fails the run: the finding was fixed, or its
rule stopped working.  ``repro lint --fix-baseline`` rewrites the file
from the current findings, preserving justifications for entries that
survive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.statics.findings import Finding

BASELINE_VERSION = 1

#: Default baseline location, relative to the lint root.
DEFAULT_BASELINE_NAME = "lint-baseline.json"


class BaselineError(ValueError):
    """The baseline file is unreadable or structurally invalid."""


@dataclass
class BaselineEntry:
    """One grandfathered finding."""

    fingerprint: str
    code: str
    path: str
    count: int = 1
    message: str = ""
    justification: str = ""

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "code": self.code,
            "path": self.path,
            "count": self.count,
            "message": self.message,
            "justification": self.justification,
        }


@dataclass
class Baseline:
    """A set of grandfathered findings, keyed by fingerprint."""

    entries: dict[str, BaselineEntry] = field(default_factory=dict)

    def apply(self, findings: list[Finding]) -> tuple[list[Finding], int]:
        """Split findings into (reported, number_baselined).

        Each entry absorbs at most ``count`` findings with its
        fingerprint; the rest are reported.
        """
        budget = {fp: entry.count for fp, entry in self.entries.items()}
        reported: list[Finding] = []
        absorbed = 0
        for finding in findings:
            remaining = budget.get(finding.fingerprint, 0)
            if remaining > 0:
                budget[finding.fingerprint] = remaining - 1
                absorbed += 1
            else:
                reported.append(finding)
        return reported, absorbed

    def stale_fingerprints(
        self, findings: list[Finding], checked: set[str] | None = None
    ) -> list[str]:
        """Entries no longer matched by any current finding.

        ``checked`` is the set of paths linted in this run: an entry for a
        file the run never looked at is unknown, not stale.
        """
        current = {finding.fingerprint for finding in findings}
        return sorted(
            fp
            for fp, entry in self.entries.items()
            if fp not in current and (checked is None or entry.path in checked)
        )


def load_baseline(path: str | Path) -> Baseline:
    """Read a baseline file; raises :class:`BaselineError` if malformed."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BaselineError(f"cannot read baseline {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("version") != BASELINE_VERSION:
        raise BaselineError(
            f"baseline {path} has unsupported structure/version "
            f"(expected version {BASELINE_VERSION})"
        )
    entries: dict[str, BaselineEntry] = {}
    for raw in payload.get("findings", []):
        try:
            entry = BaselineEntry(
                fingerprint=raw["fingerprint"],
                code=raw["code"],
                path=raw["path"],
                count=int(raw.get("count", 1)),
                message=raw.get("message", ""),
                justification=raw.get("justification", ""),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BaselineError(
                f"baseline {path} has a malformed entry: {raw!r}"
            ) from exc
        if entry.count < 1:
            raise BaselineError(
                f"baseline {path}: entry {entry.fingerprint} has "
                f"non-positive count {entry.count}"
            )
        if entry.fingerprint in entries:
            # Silently keeping the last duplicate would let two people
            # "justify" the same fingerprint differently and one
            # justification vanish without trace — refuse instead.
            raise BaselineError(
                f"baseline {path}: duplicate fingerprint "
                f"{entry.fingerprint} (use 'count' for repeated identical "
                f"lines, not repeated entries)"
            )
        entries[entry.fingerprint] = entry
    return Baseline(entries=entries)


def build_baseline(
    findings: list[Finding], previous: Baseline | None = None
) -> Baseline:
    """Baseline for the *current* findings, keeping old justifications."""
    entries: dict[str, BaselineEntry] = {}
    for finding in findings:
        entry = entries.get(finding.fingerprint)
        if entry is not None:
            entry.count += 1
            continue
        justification = ""
        if previous is not None and finding.fingerprint in previous.entries:
            justification = previous.entries[finding.fingerprint].justification
        entries[finding.fingerprint] = BaselineEntry(
            fingerprint=finding.fingerprint,
            code=finding.code,
            path=finding.path,
            count=1,
            message=finding.message,
            justification=justification or "TODO: justify or fix",
        )
    return Baseline(entries=entries)


def save_baseline(baseline: Baseline, path: str | Path) -> Path:
    """Write the baseline as deterministic, diff-friendly JSON."""
    path = Path(path)
    entries = sorted(
        baseline.entries.values(), key=lambda e: (e.path, e.code, e.fingerprint)
    )
    payload = {
        "version": BASELINE_VERSION,
        "tool": "harmonylint",
        "findings": [entry.to_dict() for entry in entries],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


__all__ = [
    "Baseline",
    "BaselineEntry",
    "BaselineError",
    "BASELINE_VERSION",
    "DEFAULT_BASELINE_NAME",
    "build_baseline",
    "load_baseline",
    "save_baseline",
]
