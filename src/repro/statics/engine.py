"""The harmonylint engine: discovery, dispatch, suppression, reporting.

One serial pipeline per module, run start to finish on every
invocation — :meth:`LintEngine.lint_source` and
:meth:`LintEngine.lint_paths` share it:

1. parse, then walk the AST once (rules register by defining
   ``visit_<NodeType>`` methods; the dispatcher indexes handlers per node
   type);
2. drop the findings a ``# repro: noqa`` comment covers;
3. SUP001: report every suppression that names an unknown code or
   matched nothing.

Findings are sorted deterministically at the end — the linter is held to
the same reproducibility bar it enforces.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.statics.context import ModuleContext, Suppression
from repro.statics.findings import Finding
from repro.statics.rules import KNOWN_CODES, Rule, UselessSuppression, default_rules

#: Directory names never descended into during discovery.  ``fixtures``
#: is excluded because the lint fixture corpus under tests/fixtures/lint/
#: contains deliberately bad snippets (lint it explicitly via ``--root``).
EXCLUDED_DIRS = frozenset(
    {".git", "__pycache__", ".venv", "venv", "build", "dist", "fixtures"}
)


class _Walk(ast.NodeVisitor):
    """Single-pass dispatcher: node events fan out to interested rules."""

    def __init__(self, ctx: ModuleContext, rules: list[Rule], sink: list[Finding]):
        self.ctx = ctx
        self.scopes: list[ast.AST] = []
        self._sink = sink
        self._current_rule: Rule | None = None
        self._handlers: dict[str, list[tuple[Rule, object]]] = {}
        for rule in rules:
            for attr in dir(rule):
                if attr.startswith("visit_"):
                    node_type = attr[len("visit_"):]
                    self._handlers.setdefault(node_type, []).append(
                        (rule, getattr(rule, attr))
                    )

    def report(self, node: ast.AST, message: str) -> None:
        rule = self._current_rule
        line = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0)
        self._sink.append(
            Finding(
                code=rule.code,
                severity=rule.severity,
                path=self.ctx.rel_path,
                line=line,
                column=column,
                message=message,
            )
        )

    def visit(self, node: ast.AST) -> None:
        is_scope = isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        )
        if is_scope:
            self.scopes.append(node)
        try:
            for rule, handler in self._handlers.get(type(node).__name__, ()):
                self._current_rule = rule
                handler(node, self)
            self._current_rule = None
            self.generic_visit(node)
        finally:
            if is_scope:
                self.scopes.pop()


def _unsuppressed(
    findings: list[Finding], suppressions: list[Suppression]
) -> list[Finding]:
    """Findings no ``# repro: noqa`` comment covers; each comment that
    does cover one is marked used (SUP001 judges the rest)."""
    kept: list[Finding] = []
    for finding in findings:
        match = next(
            (
                s
                for s in suppressions
                if s.line == finding.line and s.covers(finding.code)
            ),
            None,
        )
        if match is None:
            kept.append(finding)
        else:
            match.used_codes.add(finding.code)
    return kept


# ---------------------------------------------------------------- reporting


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    #: Root-relative paths of every file linted, sorted.
    files: list[str] = field(default_factory=list)
    suppressed: int = 0

    @property
    def files_checked(self) -> int:
        return len(self.files)

    def by_code(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return dict(sorted(counts.items()))


class LintEngine:
    """Runs the rule set over files and directories."""

    def __init__(self, rules: list[Rule] | None = None) -> None:
        self.rules = rules if rules is not None else default_rules()
        self._sup001 = next(
            (r for r in self.rules if isinstance(r, UselessSuppression)), None
        )

    # ------------------------------------------------------------- discovery

    @staticmethod
    def discover(paths: list[Path]) -> list[Path]:
        """All ``.py`` files under ``paths``, deterministically sorted.

        Explicit file arguments are always linted, even inside excluded
        directories; discovery only prunes while walking directories.
        """
        files: set[Path] = set()
        for path in paths:
            if path.is_file():
                files.add(path)
                continue
            for candidate in sorted(path.rglob("*.py")):
                relative = candidate.relative_to(path)
                if any(part in EXCLUDED_DIRS for part in relative.parts[:-1]):
                    continue
                files.add(candidate)
        return sorted(files)

    def _gather(
        self, paths: list[str | Path], root: Path
    ) -> dict[str, str]:
        """Discover and read sources: root-relative POSIX path -> text."""
        resolved: list[Path] = []
        for path in paths:
            path = Path(path)
            if not path.is_absolute():
                path = root / path
            if not path.exists():
                raise FileNotFoundError(f"no such file or directory: {path}")
            resolved.append(path)
        sources: dict[str, str] = {}
        for file_path in self.discover(resolved):
            try:
                rel = file_path.resolve().relative_to(root).as_posix()
            except ValueError:
                rel = file_path.as_posix()
            sources[rel] = file_path.read_text(encoding="utf-8")
        return sources

    # ------------------------------------------------------------------ lint

    def lint_source(self, rel_path: str, source: str) -> list[Finding]:
        """Lint one in-memory module (the test-facing entry point)."""
        return self._lint_module(rel_path, source)[0]

    def _lint_module(self, rel_path: str, source: str) -> tuple[list[Finding], int]:
        """One module's sorted findings and how many were suppressed."""
        ctx = ModuleContext(rel_path, source)
        if ctx.tree is None:
            error = ctx.syntax_error
            finding = Finding(
                code="SYN000",
                severity="error",
                path=ctx.rel_path,
                line=error.lineno or 1,
                column=(error.offset or 1) - 1,
                message=f"file does not parse: {error.msg}",
            )
            return [finding], 0

        active = [rule for rule in self.rules if rule.applies(ctx)]
        for rule in active:
            rule.start_module(ctx)
        raw: list[Finding] = []
        _Walk(ctx, active, raw).visit(ctx.tree)

        kept = _unsuppressed(raw, ctx.suppressions)
        suppressed = len(raw) - len(kept)
        kept.extend(self._useless_suppressions(ctx.rel_path, ctx.suppressions))
        kept.sort(key=Finding.sort_key)
        return kept, suppressed

    def _useless_suppressions(
        self, rel_path: str, suppressions: list[Suppression]
    ) -> list[Finding]:
        """SUP001 findings: unknown codes and suppressions that matched
        nothing.  Exempt from suppression by design."""
        if self._sup001 is None:
            return []
        findings = []

        def emit(suppression, message):
            findings.append(
                Finding(
                    code=self._sup001.code,
                    severity=self._sup001.severity,
                    path=rel_path,
                    line=suppression.line,
                    column=0,
                    message=message,
                )
            )

        for suppression in suppressions:
            if suppression.codes is None:
                if not suppression.used_codes:
                    emit(suppression, "blanket 'repro: noqa' suppressed nothing")
                continue
            for code in sorted(suppression.codes):
                if code not in KNOWN_CODES:
                    emit(suppression, f"unknown rule code {code} in suppression")
                elif code not in suppression.used_codes:
                    emit(
                        suppression,
                        f"suppression for {code} matched no finding; delete it",
                    )
        return findings

    def lint_paths(
        self, paths: list[str | Path], root: str | Path = "."
    ) -> LintReport:
        """Lint files/directories (resolved against ``root``).

        Finding paths are reported relative to ``root`` (POSIX form), so
        the same tree lints identically from any working directory.
        """
        root = Path(root).resolve()
        sources = self._gather(paths, root)
        report = LintReport(files=sorted(sources))
        for rel in report.files:
            findings, suppressed = self._lint_module(rel, sources[rel])
            report.findings.extend(findings)
            report.suppressed += suppressed
        return report


def lint_paths(
    paths: list[str | Path],
    root: str | Path = ".",
    rules: list[Rule] | None = None,
) -> LintReport:
    """Convenience wrapper: lint ``paths`` with the default rule set."""
    return LintEngine(rules=rules).lint_paths(paths, root=root)


__all__ = ["EXCLUDED_DIRS", "LintEngine", "LintReport", "lint_paths"]
