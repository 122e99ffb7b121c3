"""``repro.statics`` — harmonylint, the project's static-analysis suite.

An AST-based lint engine with HARMONY-specific rules: every guarantee the
runtime test layers enforce after the fact (bit-identical sweeps,
canonical-JSON digests, the structured error taxonomy, numerically
guarded queueing math) has a rule that catches the violation before it
runs.  See ``docs/static-analysis.md`` for the rule
catalog and workflow, and ``repro lint --help`` for the CLI.

Public surface::

    from repro.statics import lint_paths, LintEngine, default_rules
    report = lint_paths(["src"], root=".")
    for finding in report.findings:
        print(finding.format_text())
"""

from repro.statics.baseline import (
    BASELINE_VERSION,
    Baseline,
    BaselineEntry,
    BaselineError,
    DEFAULT_BASELINE_NAME,
    build_baseline,
    load_baseline,
    save_baseline,
)
from repro.statics.context import ModuleContext, Suppression
from repro.statics.engine import (
    EXCLUDED_DIRS,
    FileAnalysis,
    LintEngine,
    LintReport,
    analyze_source,
    lint_paths,
)
from repro.statics.findings import Finding, SEVERITIES
from repro.statics.graph import ProjectGraph, build_graph, summarize_module
from repro.statics.rules import (
    ALL_RULES,
    KNOWN_CODES,
    PROJECT_RULES,
    Rule,
    default_rules,
)
from repro.statics.sarif import to_sarif

__all__ = [
    "ALL_RULES",
    "BASELINE_VERSION",
    "Baseline",
    "BaselineEntry",
    "BaselineError",
    "DEFAULT_BASELINE_NAME",
    "EXCLUDED_DIRS",
    "FileAnalysis",
    "Finding",
    "KNOWN_CODES",
    "LintEngine",
    "LintReport",
    "ModuleContext",
    "PROJECT_RULES",
    "ProjectGraph",
    "Rule",
    "SEVERITIES",
    "Suppression",
    "analyze_source",
    "build_baseline",
    "build_graph",
    "default_rules",
    "lint_paths",
    "load_baseline",
    "save_baseline",
    "summarize_module",
    "to_sarif",
]
