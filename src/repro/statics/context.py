"""Per-module analysis context shared by every lint rule.

:class:`ModuleContext` parses one file once and precomputes everything the
rules keep asking for: the import alias table (so ``import time as _time``
still resolves ``_time.perf_counter`` to ``time.perf_counter``), a parent
map for upward navigation, ``# repro: noqa[...]`` suppression comments, and
the path-derived scoping flags (test file? inside ``src/repro``? part of
the timing allowlist? a queueing/sizing hot path?).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import PurePosixPath

#: Inline suppression syntax: a comment *starting with* ``repro: noqa`` —
#: blanket (``# repro: noqa``, discouraged) or code-scoped
#: (``# repro: noqa[DET001]`` / ``# repro: noqa[DET001,NUM001]``).  Only
#: genuine comment tokens count; a docstring mentioning the syntax is not
#: a suppression.
_NOQA_RE = re.compile(
    r"^#+:?\s*repro:\s*noqa(?:\[(?P<codes>[A-Za-z0-9_,\s]*)\])?", re.IGNORECASE
)

#: Directories whose wall-clock reads are legitimate (DET002 allowlist):
#: the runner measures scenario wall time by design, and PhaseTimer *is*
#: the sanctioned timing primitive.
TIMING_ALLOWLIST_DIRS = ("src/repro/runner",)
TIMING_ALLOWLIST_FILES = (
    "src/repro/simulation/timing.py",
    # SystemClock is the serve daemon's one sanctioned wall-clock reader.
    "src/repro/serve/clock.py",
)

#: Control-plane trees where DET006 applies: every clock read and every
#: stdlib-random call must flow through an injected seam.
CONTROL_PLANE_DIRS = ("src/repro/serve", "src/repro/simulation")
#: The seams themselves — the only files in those trees allowed to touch
#: the raw primitives.
CONTROL_PLANE_SEAM_FILES = (
    "src/repro/serve/clock.py",
    "src/repro/simulation/timing.py",
)

#: Numerically touchy modules where NUM001 (unguarded division/log/sqrt)
#: applies: the Erlang-C/M/G/N inversion and Eq. 3 container sizing.
NUMERIC_HOT_PATHS = ("src/repro/queueing",)
NUMERIC_HOT_PATH_FILES = ("src/repro/containers/sizing.py",)


#: Wall-clock reads.  DET002 flags them outside the timing allowlist,
#: DET006 (plus ``time.sleep``) in the control plane, and FLOW001 treats
#: them as nondeterministic value sources — one table, so the three rules
#: cannot drift apart on what counts as a clock.
CLOCK_CALLS = frozenset(
    {
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)

#: Functions of the process-global stdlib RNG (DET001, DET006; FLOW001
#: uses the value-returning subset).
STDLIB_RANDOM_GLOBALS = frozenset(
    {
        "random", "randint", "randrange", "uniform", "choice", "choices",
        "sample", "shuffle", "gauss", "normalvariate", "expovariate",
        "betavariate", "gammavariate", "lognormvariate", "paretovariate",
        "weibullvariate", "triangular", "vonmisesvariate", "getrandbits",
        "randbytes", "seed",
    }
)

#: Functions of numpy's legacy global RNG (DET001; FLOW001 as above).
NUMPY_LEGACY_GLOBALS = frozenset(
    {
        "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "choice", "shuffle", "permutation", "seed", "uniform",
        "normal", "standard_normal", "exponential", "poisson", "lognormal",
        "beta", "gamma", "binomial", "get_state", "set_state",
    }
)


@dataclass
class Suppression:
    """One ``# repro: noqa`` comment, tracked for SUP001 usefulness."""

    line: int
    codes: frozenset[str] | None  # None = blanket (suppresses everything)
    text: str = ""  # stripped source of the comment's line (SUP001 fingerprint)
    used_codes: set[str] = field(default_factory=set)

    def covers(self, code: str) -> bool:
        return self.codes is None or code in self.codes


class ModuleContext:
    """Everything rules need to know about one parsed module."""

    def __init__(self, rel_path: str, source: str) -> None:
        self.rel_path = str(PurePosixPath(rel_path))
        self.source = source
        self.lines = source.splitlines()
        self.tree: ast.Module | None = None
        self.syntax_error: SyntaxError | None = None
        try:
            self.tree = ast.parse(source)
        except SyntaxError as exc:
            self.syntax_error = exc
        self.aliases: dict[str, str] = {}
        self.parents: dict[int, ast.AST] = {}
        if self.tree is not None:
            self._collect_imports(self.tree)
            self._collect_parents(self.tree)
        self.suppressions: list[Suppression] = self._collect_suppressions()

    # ------------------------------------------------------------ path flags

    @property
    def is_test(self) -> bool:
        """Under ``tests/`` (or a conftest/test_* file anywhere)."""
        parts = PurePosixPath(self.rel_path).parts
        name = parts[-1] if parts else ""
        return (
            "tests" in parts
            or name.startswith("test_")
            or name == "conftest.py"
        )

    @property
    def in_src(self) -> bool:
        """Part of the shipped ``src/repro`` package tree."""
        return self.rel_path.startswith("src/repro/")

    @property
    def timing_allowlisted(self) -> bool:
        """May read wall clocks (runner/, PhaseTimer) without DET002."""
        return self.rel_path in TIMING_ALLOWLIST_FILES or any(
            self.rel_path.startswith(prefix + "/")
            for prefix in TIMING_ALLOWLIST_DIRS
        )

    @property
    def control_plane(self) -> bool:
        """Inside the serve/simulation trees DET006 protects (seams exempt)."""
        if self.rel_path in CONTROL_PLANE_SEAM_FILES:
            return False
        return any(
            self.rel_path.startswith(prefix + "/")
            for prefix in CONTROL_PLANE_DIRS
        )

    @property
    def numeric_hot_path(self) -> bool:
        """Inside the queueing/sizing modules NUM001 protects."""
        return self.rel_path in NUMERIC_HOT_PATH_FILES or any(
            self.rel_path.startswith(prefix + "/")
            for prefix in NUMERIC_HOT_PATHS
        )

    # ------------------------------------------------------------ navigation

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self.parents.get(id(node))

    def source_line(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    # ------------------------------------------------------- name resolution

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted qualified name of a Name/Attribute chain, alias-resolved.

        ``np.random.rand`` with ``import numpy as np`` resolves to
        ``numpy.random.rand``; ``perf_counter`` with ``from time import
        perf_counter`` resolves to ``time.perf_counter``.  Returns ``None``
        for anything that is not a plain dotted chain (calls, subscripts).
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.aliases.get(node.id, node.id))
        return ".".join(reversed(parts))

    def _collect_imports(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.aliases[alias.asname] = alias.name
                    else:
                        # ``import a.b`` binds ``a`` to the top package.
                        top = alias.name.split(".")[0]
                        self.aliases.setdefault(top, top)
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{node.module}.{alias.name}"

    def _collect_parents(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self.parents[id(child)] = node

    # ----------------------------------------------------------- suppressions

    def _collect_suppressions(self) -> list[Suppression]:
        found = []
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(self.source).readline))
        except (tokenize.TokenError, SyntaxError, IndentationError):
            return []
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.match(token.string)
            if match is None:
                continue
            raw = match.group("codes")
            codes = None
            if raw is not None:
                codes = frozenset(
                    c.strip().upper() for c in raw.split(",") if c.strip()
                )
            line = token.start[0]
            found.append(
                Suppression(line=line, codes=codes, text=self.source_line(line))
            )
        return found


__all__ = [
    "ModuleContext",
    "Suppression",
    "TIMING_ALLOWLIST_DIRS",
    "TIMING_ALLOWLIST_FILES",
    "CONTROL_PLANE_DIRS",
    "CONTROL_PLANE_SEAM_FILES",
    "NUMERIC_HOT_PATHS",
    "NUMERIC_HOT_PATH_FILES",
    "CLOCK_CALLS",
    "STDLIB_RANDOM_GLOBALS",
    "NUMPY_LEGACY_GLOBALS",
]
