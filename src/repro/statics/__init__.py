"""``repro.statics`` — harmonylint, the project's static-analysis suite.

An AST-based, per-file lint engine with HARMONY-specific rules: every
guarantee the runtime test layers enforce after the fact (bit-identical
sweeps, canonical-JSON digests, the structured error taxonomy,
numerically guarded queueing math) has a rule that catches the violation
before it runs.  See ``docs/static-analysis.md`` for the rule catalog and
workflow, and ``repro lint --help`` for the CLI.

Public surface::

    from repro.statics import lint_paths, LintEngine, default_rules
    report = lint_paths(["src"], root=".")
    for finding in report.findings:
        print(finding.format_text())
"""

from repro.statics.context import ModuleContext, Suppression
from repro.statics.engine import EXCLUDED_DIRS, LintEngine, LintReport, lint_paths
from repro.statics.findings import Finding, SEVERITIES
from repro.statics.rules import ALL_RULES, KNOWN_CODES, Rule, default_rules

__all__ = [
    "ALL_RULES",
    "EXCLUDED_DIRS",
    "Finding",
    "KNOWN_CODES",
    "LintEngine",
    "LintReport",
    "ModuleContext",
    "Rule",
    "SEVERITIES",
    "Suppression",
    "default_rules",
    "lint_paths",
]
