"""Project-wide symbol table and call graph for harmonylint.

Per-file analysis (:mod:`repro.statics.rules`) can only see one module;
the failure modes that actually threaten the repo's determinism
guarantees are cross-module — an unseeded RNG three calls upstream of
``canonical_json``, an unsorted set feeding a digest payload.  This
module extracts a compact :class:`ModuleSummary` from each file (function
definitions, resolved call references, nondeterministic source sites,
digest-sink calls, unsorted-iteration sites) and assembles summaries into
a :class:`ProjectGraph` the interprocedural passes in
:mod:`repro.statics.flow` walk.

Resolution is deliberately conservative, in layers of confidence:

- ``project``/``local``/``self_method``/``typed`` references (imports,
  same-module defs, ``self.m()``, locals/attributes whose constructor is
  visible) resolve to exact symbols — *high-confidence* edges.
- bare ``obj.m()`` method calls resolve by name to **every** project
  method called ``m`` — *low-confidence* edges.  Generic collection /
  protocol names (``append``, ``get``, ``items``, ...) are excluded from
  this matching: linking every ``list.append`` to ``JournalWriter.append``
  would drown the taint passes in false paths.  The journal/checkpoint
  writers are still covered because their own bodies contain the precise
  digest-sink calls.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import PurePosixPath

from repro.statics.context import (
    CLOCK_CALLS,
    NUMPY_LEGACY_GLOBALS,
    STDLIB_RANDOM_GLOBALS,
    ModuleContext,
)

#: Module-level functions whose call sites are digest sinks: anything
#: passed into them lands in a canonical-JSON digest, a journal line or a
#: checkpoint.  Matched by the final dotted-name segment so every import
#: style (module call, re-export, ``from ... import``) resolves.
DIGEST_SINK_NAMES = frozenset(
    {
        "canonical_json",
        "summary_digest",
        "fleet_digest",
        "record_digest",
        "write_journal_record",
    }
)

#: Methods whose *return value* is a digest payload by repo convention:
#: every ``summary()`` in src/repro feeds ``summary_digest`` downstream.
DIGEST_ROOT_METHODS = frozenset({"summary"})

#: Method names excluded from conservative bare-name matching.  These are
#: overwhelmingly builtin-collection protocol calls; matching them against
#: same-named project methods would connect nearly every function to
#: nearly every other and bury real taint paths in noise.
GENERIC_METHOD_NAMES = frozenset(
    {
        "append", "add", "get", "pop", "update", "extend", "insert",
        "remove", "discard", "clear", "copy", "count", "index", "sort",
        "reverse", "setdefault", "popitem", "items", "keys", "values",
        "join", "split", "strip", "read", "write", "close", "open",
        "encode", "decode", "format", "startswith", "endswith", "lower",
        "upper", "replace",
    }
)

#: FLOW001's RNG *value* sources: the DET001 tables minus the calls that
#: only manage generator state and return nothing a digest could carry.
_STDLIB_RANDOM_SOURCES = STDLIB_RANDOM_GLOBALS - {"seed"}
_NUMPY_LEGACY_SOURCES = NUMPY_LEGACY_GLOBALS - {"seed", "get_state", "set_state"}

_ENTROPY_SOURCES = frozenset(
    {"os.urandom", "uuid.uuid1", "uuid.uuid4", "secrets.token_bytes",
     "secrets.token_hex", "secrets.token_urlsafe", "secrets.randbelow",
     "secrets.choice"}
)

#: Pseudo-function holding a module's top-level statements.
MODULE_BODY = "<module>"


def module_dotted_name(rel_path: str) -> str | None:
    """Dotted import name for a src-tree file (``None`` outside src/)."""
    parts = PurePosixPath(rel_path).parts
    if len(parts) < 2 or parts[0] != "src" or not rel_path.endswith(".py"):
        return None
    dotted = list(parts[1:])
    dotted[-1] = dotted[-1][: -len(".py")]
    if dotted[-1] == "__init__":
        dotted.pop()
    return ".".join(dotted) if dotted else None


# ---------------------------------------------------------------- summaries


@dataclass
class FunctionSummary:
    """One function (or the module body) as the graph sees it."""

    qualname: str
    name: str
    is_method: bool = False
    class_name: str | None = None
    calls: list[dict] = field(default_factory=list)
    sources: list[dict] = field(default_factory=list)
    sinks: list[dict] = field(default_factory=list)
    ord_sites: list[dict] = field(default_factory=list)


@dataclass
class ModuleSummary:
    """Everything the project graph needs to know about one file."""

    rel_path: str
    module: str | None
    is_test: bool
    functions: list[FunctionSummary] = field(default_factory=list)
    #: ``self.<attr> = ClassRef(...)`` bindings per class, for typed
    #: method resolution: {class_name: {attr: class_ref}}.
    attr_types: dict = field(default_factory=dict)


# ------------------------------------------------------------- extraction


class _Extractor(ast.NodeVisitor):
    """Single pass over one module: functions, calls, source/sink sites."""

    def __init__(self, ctx: ModuleContext, summary: ModuleSummary):
        self.ctx = ctx
        self.summary = summary
        self.class_stack: list[str] = []
        self.func_stack: list[FunctionSummary] = []
        #: Per active function frame (innermost last): set-valued locals
        #: (ORD001) and locals whose constructor is visible (typed calls).
        self.set_locals_stack: list[set[str]] = []
        self.local_types_stack: list[dict[str, str]] = []
        self.module_fn = FunctionSummary(qualname=MODULE_BODY, name=MODULE_BODY)
        summary.functions.append(self.module_fn)
        self._source_allowlisted = ctx.timing_allowlisted

    # -------------------------------------------------------------- helpers

    @property
    def fn(self) -> FunctionSummary:
        return self.func_stack[-1] if self.func_stack else self.module_fn

    def _text(self, node: ast.AST) -> str:
        return self.ctx.source_line(getattr(node, "lineno", 1))

    def _local_type(self, name: str) -> str | None:
        for frame in reversed(self.local_types_stack):
            if name in frame:
                return frame[name]
        return None

    def _rooted_in_import(self, node: ast.AST) -> bool:
        """Whether an attribute chain hangs off an imported name."""
        while isinstance(node, ast.Attribute):
            node = node.value
        return isinstance(node, ast.Name) and node.id in self.ctx.aliases

    def _class_ref(self, node: ast.AST) -> str | None:
        """Dotted reference when ``node`` looks like a class constructor."""
        qualified = self.ctx.resolve(node)
        if qualified is None:
            return None
        tail = qualified.rsplit(".", 1)[-1]
        if tail[:1].isupper():
            return qualified
        return None

    # ------------------------------------------------------------ structure

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(node.name)
        self.summary.attr_types.setdefault(node.name, {})
        self.generic_visit(node)
        self.class_stack.pop()

    def _enter_function(self, node) -> None:
        in_class = bool(self.class_stack) and not self.func_stack
        prefix = ""
        if self.func_stack:
            prefix = self.func_stack[-1].qualname + "."
        elif self.class_stack:
            prefix = ".".join(self.class_stack) + "."
        fn = FunctionSummary(
            qualname=prefix + node.name,
            name=node.name,
            is_method=in_class,
            class_name=self.class_stack[-1] if in_class else None,
        )
        self.summary.functions.append(fn)
        self.func_stack.append(fn)
        self.local_types_stack.append({})
        self.set_locals_stack.append(self._set_typed_params(node.args))

    @staticmethod
    def _set_typed_params(args: ast.arguments) -> set[str]:
        names: set[str] = set()
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            annotation = arg.annotation
            if isinstance(annotation, ast.Subscript):
                annotation = annotation.value
            if isinstance(annotation, ast.Name) and annotation.id in (
                "set", "frozenset", "Set", "FrozenSet",
            ):
                names.add(arg.arg)
        return names

    def _leave_function(self) -> None:
        self.func_stack.pop()
        self.local_types_stack.pop()
        self.set_locals_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)
        self.generic_visit(node)
        self._leave_function()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)
        self.generic_visit(node)
        self._leave_function()

    # ---------------------------------------------------------- assignments

    @staticmethod
    def _is_set_expr(value: ast.AST) -> bool:
        if isinstance(value, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("set", "frozenset")
        )

    def _note_binding(self, target: ast.AST, value: ast.AST | None) -> None:
        if not isinstance(target, ast.Name) or not self.func_stack:
            return
        name = target.id
        if value is not None and self._is_set_expr(value):
            self.set_locals_stack[-1].add(name)
        if isinstance(value, ast.Call):
            ref = self._class_ref(value.func)
            if ref is not None:
                self.local_types_stack[-1][name] = ref

    def _note_self_attr(self, target: ast.AST, value: ast.AST | None) -> None:
        if (
            self.class_stack
            and isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and isinstance(value, ast.Call)
        ):
            ref = self._class_ref(value.func)
            if ref is not None:
                self.summary.attr_types.setdefault(self.class_stack[-1], {})[
                    target.attr
                ] = ref

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._note_binding(target, node.value)
            self._note_self_attr(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._note_binding(node.target, node.value)
        self._note_self_attr(node.target, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._note_binding(node.target, node.value)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_ord_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_ord_iter(node.iter)
        self.generic_visit(node)

    def _check_ord_iter(self, iter_node: ast.AST) -> None:
        """ORD001 raw data: unsorted set / dict.keys() iteration."""
        if (
            isinstance(iter_node, ast.Name)
            and any(iter_node.id in frame for frame in self.set_locals_stack)
        ):
            self.fn.ord_sites.append(
                dict(
                    desc=f"set {iter_node.id!r}",
                    line=iter_node.lineno,
                    col=iter_node.col_offset,
                    text=self._text(iter_node),
                )
            )
        elif (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Attribute)
            and iter_node.func.attr == "keys"
            and not iter_node.args
        ):
            self.fn.ord_sites.append(
                dict(
                    desc="dict.keys()",
                    line=iter_node.lineno,
                    col=iter_node.col_offset,
                    text=self._text(iter_node),
                )
            )

    # ---------------------------------------------------------------- calls

    def visit_Call(self, node: ast.Call) -> None:
        self._classify_call(node)
        self._check_source(node)
        self._check_sink(node)
        self.generic_visit(node)

    def _classify_call(self, node: ast.Call) -> None:
        func = node.func
        line = node.lineno
        if isinstance(func, ast.Name):
            name = func.id
            qualified = self.ctx.resolve(func)
            if qualified is not None and qualified != name:
                self.fn.calls.append(
                    dict(kind="qualified", target=qualified, line=line)
                )
            else:
                # Unaliased bare name: nested def, same-module def, or
                # builtin.  Candidate scopes are the enclosing *function*
                # qualnames (innermost first) — class bodies do not form
                # name scopes for calls.
                scopes = [
                    f"{frame.qualname}." for frame in reversed(self.func_stack)
                ] + [""]
                self.fn.calls.append(
                    dict(kind="local", name=name, line=line, scopes=scopes)
                )
            return
        if not isinstance(func, ast.Attribute):
            return
        if isinstance(func.value, ast.Name) and func.value.id in ("self", "cls"):
            self.fn.calls.append(
                dict(
                    kind="self_method",
                    name=func.attr,
                    class_name=self.class_stack[-1] if self.class_stack else None,
                    line=line,
                )
            )
            return
        # ``resolve`` echoes unknown roots verbatim ("pool.map" for a local
        # named ``pool``), so only an *imported* root makes the reference a
        # genuine qualified name; everything else falls through to the
        # typed-receiver and bare-method layers.
        if self._rooted_in_import(func):
            qualified = self.ctx.resolve(func)
            if qualified is not None:
                self.fn.calls.append(
                    dict(kind="qualified", target=qualified, line=line)
                )
                return
        if isinstance(func.value, ast.Name):
            ref = self._local_type(func.value.id)
            if ref is not None:
                self.fn.calls.append(
                    dict(kind="typed", class_ref=ref, name=func.attr,
                            line=line)
                )
                return
        if (
            isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "self"
            and self.class_stack
        ):
            attrs = self.summary.attr_types.get(self.class_stack[-1], {})
            ref = attrs.get(func.value.attr)
            if ref is not None:
                self.fn.calls.append(
                    dict(kind="typed", class_ref=ref, name=func.attr,
                            line=line)
                )
                return
        self.fn.calls.append(
            dict(kind="method", name=func.attr, line=line)
        )

    def _check_source(self, node: ast.Call) -> None:
        """FLOW001 raw data: nondeterministic value sources."""
        if self._source_allowlisted or self.ctx.is_test:
            return
        qualified = self.ctx.resolve(node.func)
        kind = None
        label = qualified
        if qualified is None:
            return
        if qualified in CLOCK_CALLS:
            kind = "wall-clock"
        elif qualified in _ENTROPY_SOURCES:
            kind = "entropy"
        elif qualified == "id":
            kind = "object-identity"
            label = "id"
        elif qualified == "random.Random" and not node.args and not node.keywords:
            kind = "unseeded-rng"
        elif (
            qualified.startswith("random.")
            and qualified.split(".", 1)[1] in _STDLIB_RANDOM_SOURCES
        ):
            kind = "unseeded-rng"
        elif (
            qualified.startswith("numpy.random.")
            and qualified.rsplit(".", 1)[1] in _NUMPY_LEGACY_SOURCES
        ):
            kind = "unseeded-rng"
        elif qualified.endswith("default_rng") and qualified.startswith("numpy"):
            has_seed = bool(node.args) or any(
                kw.arg == "seed" for kw in node.keywords
            )
            if not has_seed:
                kind = "unseeded-rng"
        if kind is not None:
            self.fn.sources.append(
                dict(
                    kind=kind,
                    name=label,
                    line=node.lineno,
                    col=node.col_offset,
                    text=self._text(node),
                )
            )

    def _check_sink(self, node: ast.Call) -> None:
        qualified = self.ctx.resolve(node.func)
        if qualified is None:
            return
        tail = qualified.rsplit(".", 1)[-1]
        if tail in DIGEST_SINK_NAMES:
            self.fn.sinks.append(dict(name=tail, line=node.lineno))


def _prescan(ctx: ModuleContext, summary: ModuleSummary) -> None:
    """First pass: ``self.attr = Class()`` types.

    Collected before the main walk so that definition order (``__init__``
    defined after the method using the attribute) cannot hide a binding.
    """
    extractor = _Extractor.__new__(_Extractor)
    extractor.ctx = ctx  # only resolve() is needed below
    for stmt in ctx.tree.body:
        if not isinstance(stmt, ast.ClassDef):
            continue
        attrs = summary.attr_types.setdefault(stmt.name, {})
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and isinstance(node.value, ast.Call)
                ):
                    ref = _Extractor._class_ref(extractor, node.value.func)
                    if ref is not None:
                        attrs.setdefault(target.attr, ref)


def summarize_module(ctx: ModuleContext) -> ModuleSummary:
    """Extract the graph-facing summary of one parsed module."""
    summary = ModuleSummary(
        rel_path=ctx.rel_path,
        module=module_dotted_name(ctx.rel_path),
        is_test=ctx.is_test,
    )
    if ctx.tree is not None:
        _prescan(ctx, summary)
        _Extractor(ctx, summary).visit(ctx.tree)
    return summary


# ------------------------------------------------------------------- graph


@dataclass(frozen=True)
class FunctionNode:
    """A resolved symbol in the project graph."""

    key: str  # "<rel_path>::<qualname>"
    rel_path: str
    module: str | None
    summary: FunctionSummary

    @property
    def label(self) -> str:
        """Human-facing name: dotted module + qualname when available."""
        if self.module:
            return f"{self.module}.{self.summary.qualname}"
        return f"{self.rel_path}::{self.summary.qualname}"


class ProjectGraph:
    """Symbol table + call graph assembled from module summaries."""

    def __init__(self, summaries: list[ModuleSummary]):
        #: Graph membership: non-test modules only.  Test files still get
        #: per-file rules; routing taint through test helpers would only
        #: manufacture paths no production run ever takes.
        self.modules: dict[str, ModuleSummary] = {
            s.rel_path: s for s in summaries if not s.is_test
        }
        self.functions: dict[str, FunctionNode] = {}
        self._module_by_dotted: dict[str, str] = {}
        self._by_name: dict[str, list[str]] = {}
        self._by_class_method: dict[tuple[str, str], list[str]] = {}
        self._class_by_name: dict[str, list[str]] = {}
        for rel in sorted(self.modules):
            summary = self.modules[rel]
            if summary.module:
                self._module_by_dotted[summary.module] = rel
            for fn in summary.functions:
                key = f"{rel}::{fn.qualname}"
                self.functions[key] = FunctionNode(
                    key=key,
                    rel_path=rel,
                    module=summary.module,
                    summary=fn,
                )
                self._by_name.setdefault(fn.name, []).append(key)
                if fn.class_name:
                    self._by_class_method.setdefault(
                        (fn.class_name, fn.name), []
                    ).append(key)
            for cls in summary.attr_types:
                self._class_by_name.setdefault(cls, []).append(rel)
        self.edges: dict[str, list[tuple[str, bool]]] = {}
        self.reverse: dict[str, list[tuple[str, bool]]] = {}
        self._build_edges()

    # ------------------------------------------------------------ resolution

    def _resolve_qualified(self, qualified: str) -> list[str]:
        """Project keys for a dotted reference, by longest module prefix."""
        parts = qualified.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            rel = self._module_by_dotted.get(module)
            if rel is None:
                continue
            remainder = ".".join(parts[cut:])
            key = f"{rel}::{remainder}"
            if key in self.functions:
                return [key]
            # Re-exported name (package __init__): fall back to matching
            # the bare tail conservatively.
            tail = parts[-1]
            return self._resolve_bare_name(tail)
        return []

    def _resolve_bare_name(self, name: str) -> list[str]:
        if name in GENERIC_METHOD_NAMES:
            return []
        return sorted(self._by_name.get(name, ()))

    def _resolve_call(self, node: FunctionNode, call: dict) -> tuple[list[str], bool]:
        """Target keys plus a high-confidence flag for one call record."""
        kind = call["kind"]
        if kind == "local":
            for prefix in call.get("scopes", [""]):
                key = f"{node.rel_path}::{prefix}{call['name']}"
                if key in self.functions:
                    return [key], True
            return [], True
        if kind == "qualified":
            targets = self._resolve_qualified(call["target"])
            return targets, len(targets) == 1
        if kind == "self_method":
            cls = call.get("class_name")
            if cls:
                key = f"{node.rel_path}::{cls}.{call['name']}"
                if key in self.functions:
                    return [key], True
            return self._resolve_bare_name(call["name"]), False
        if kind == "typed":
            ref = call["class_ref"]
            cls = ref.rsplit(".", 1)[-1]
            targets = self._resolve_qualified(f"{ref}.{call['name']}")
            if targets:
                return targets, True
            exact = sorted(self._by_class_method.get((cls, call["name"]), ()))
            if exact:
                return exact, True
            return self._resolve_bare_name(call["name"]), False
        if kind == "method":
            return self._resolve_bare_name(call["name"]), False
        return [], False

    def _build_edges(self) -> None:
        for key in sorted(self.functions):
            node = self.functions[key]
            seen: dict[str, bool] = {}
            for call in node.summary.calls:
                targets, high = self._resolve_call(node, call)
                for target in targets:
                    if target == key:
                        continue
                    seen[target] = seen.get(target, False) or high
            self.edges[key] = sorted(seen.items())
        for key, outs in self.edges.items():
            for target, high in outs:
                self.reverse.setdefault(target, []).append((key, high))
        for target in self.reverse:
            self.reverse[target].sort()

    # ----------------------------------------------------------- reachability

    def sink_functions(self) -> list[str]:
        """Functions containing a direct digest-sink call."""
        return [
            key
            for key in sorted(self.functions)
            if self.functions[key].summary.sinks
        ]

    def digest_roots(self) -> list[str]:
        """Sink functions plus ``summary()`` methods (payload builders)."""
        roots = set(self.sink_functions())
        for key in sorted(self.functions):
            fn = self.functions[key].summary
            if fn.name in DIGEST_ROOT_METHODS and fn.is_method:
                roots.add(key)
        return sorted(roots)

    def _bfs(
        self, roots: list[str], adjacency: dict[str, list[tuple[str, bool]]]
    ) -> dict[str, str | None]:
        """Deterministic multi-source BFS; returns node -> predecessor."""
        parent: dict[str, str | None] = {root: None for root in sorted(roots)}
        queue = deque(sorted(roots))
        while queue:
            current = queue.popleft()
            for target, _high in adjacency.get(current, ()):
                if target not in parent:
                    parent[target] = current
                    queue.append(target)
        return parent

    def sink_reach(self) -> dict[str, str | None]:
        """Functions from which a digest-sink call is *reachable*
        (argument-direction taint): node -> next hop toward the sink."""
        return self._bfs(self.sink_functions(), self.reverse)

    def digest_feed(self) -> dict[str, str | None]:
        """Functions reachable *from* a digest root (return-direction
        taint): node -> caller hop back toward the root."""
        return self._bfs(self.digest_roots(), self.edges)

    def path_to_root(
        self, key: str, parents: dict[str, str | None]
    ) -> list[str]:
        """Chain from ``key`` back to its BFS root, inclusive."""
        chain = [key]
        while parents.get(chain[-1]) is not None:
            chain.append(parents[chain[-1]])
        return chain

    def label(self, key: str) -> str:
        node = self.functions.get(key)
        return node.label if node is not None else key


def build_graph(summaries: list[ModuleSummary]) -> ProjectGraph:
    """Assemble the project graph from per-module summaries."""
    return ProjectGraph(summaries)


__all__ = [
    "DIGEST_SINK_NAMES",
    "DIGEST_ROOT_METHODS",
    "GENERIC_METHOD_NAMES",
    "MODULE_BODY",
    "FunctionNode",
    "FunctionSummary",
    "ModuleSummary",
    "ProjectGraph",
    "build_graph",
    "module_dotted_name",
    "summarize_module",
]
