"""Finding model for the ``harmonylint`` static-analysis suite.

A :class:`Finding` is one rule violation at one source location.  Findings
are plain, hashable data so the engine can sort and suppress them without
touching the AST again, and so ``--format json`` output is a direct
serialization of the same objects the text formatter prints.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

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
    """

    code: str
    severity: str
    path: str
    line: int
    column: int
    message: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.column, self.code)

    def format_text(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.column + 1}: "
            f"{self.code} [{self.severity}] {self.message}"
        )

    def to_dict(self) -> dict:
        """JSON-ready representation (the ``--format json`` schema)."""
        return asdict(self)


__all__ = ["Finding", "SEVERITIES"]
