"""Finding model for the ``harmonylint`` static-analysis suite.

A :class:`Finding` is one rule violation at one source location.  Findings
are plain, hashable data so the engine can sort, deduplicate and suppress
them without touching the AST again, and so ``--format json``
output is a direct serialization of the same objects the text formatter
prints.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

#: Severity levels, most severe first (used for ordering in reports).
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes
    ----------
    code:
        Stable rule identifier (``DET001``, ``ERR001``, ...).  ``SYN000``
        is reserved for files the engine could not parse.
    severity:
        ``"error"`` or ``"warning"``; informational — both fail the build
        unless suppressed.
    path:
        Root-relative POSIX path of the offending file.
    line / column:
        1-based line and 0-based column of the offending node.
    message:
        Human-readable description of the violation.
    source_line:
        The stripped text of the offending source line, used for
        line-number-independent fingerprints.
    trace:
        For interprocedural findings (FLOW001, ORD001): the
        source→sink call path as a tuple of ``module.qualname`` steps,
        source end first.  Empty for single-site findings.
    """

    code: str
    severity: str
    path: str
    line: int
    column: int
    message: str
    source_line: str = ""
    trace: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    @property
    def fingerprint(self) -> str:
        """Location-content fingerprint, independent of the line number.

        Hashes ``path``, ``code`` and the *text* of the offending line, so
        code scanning keeps matching an alert when unrelated edits shift it
        up or down the file, but treats it as new when the offending line
        itself changes.
        """
        body = f"{self.path}::{self.code}::{self.source_line}"
        return hashlib.sha256(body.encode()).hexdigest()[:16]

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.column, self.code)

    def format_text(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.column + 1}: "
            f"{self.code} [{self.severity}] {self.message}"
        )

    def to_dict(self) -> dict:
        """JSON-ready representation (the ``--format json`` schema).

        ``trace`` appears only on interprocedural findings so the
        single-site schema stays byte-compatible with v1 consumers.
        """
        payload = {
            "code": self.code,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }
        if self.trace:
            payload["trace"] = list(self.trace)
        return payload


__all__ = ["Finding", "SEVERITIES"]
