"""The HARMONY-specific lint rules (``harmonylint``).

Each rule subclasses :class:`Rule` and implements ``visit_<NodeType>``
methods that the engine's single-pass dispatcher calls while walking a
module's AST (see :mod:`repro.statics.engine`).  Rules report findings
through the walk object; scoping (src-only, test-exempt, allowlists) is
declared per rule via :meth:`Rule.applies` against the precomputed
:class:`~repro.statics.context.ModuleContext` flags.

The catalog (code — what it protects):

=========  ==============================================================
DET001     unseeded randomness / OS entropy → bit-identical sweeps
DET002     wall-clock reads outside runner//PhaseTimer → stable digests
DET003     unsorted set / dict.keys() iteration → canonical output order
DET004     float ``==``/``!=`` → Lemma 1 / Erlang boundary robustness
DET005     filesystem-order iteration → reproducible file discovery
DET006     raw clock/random in serve//simulation/ → injected seams only
ERR001     broad ``except`` swallowing → the repro.errors taxonomy
NUM001     unguarded division/log/sqrt in queueing/sizing hot paths
API001     mutable default arguments → no cross-call state leaks
SUP001     useless/unknown ``# repro: noqa`` suppressions
=========  ==============================================================

Every rule sees one module at a time; none needs a call graph.
"""

from __future__ import annotations

import ast

from repro.errors import __all__ as _TAXONOMY_NAMES

from repro.statics.context import (
    CLOCK_CALLS,
    NUMPY_LEGACY_GLOBALS,
    STDLIB_RANDOM_GLOBALS,
    ModuleContext,
)


class Rule:
    """Base class: one code, one severity, a set of ``visit_*`` handlers."""

    code: str = "XXX000"
    name: str = "rule"
    severity: str = "error"
    summary: str = ""
    rationale: str = ""

    def applies(self, ctx: ModuleContext) -> bool:
        """Whether this rule runs on the module at all (path scoping)."""
        return True

    def start_module(self, ctx: ModuleContext) -> None:
        """Reset any per-module state before the walk begins."""


def _leaf_names(expr: ast.AST, ctx: ModuleContext):
    """Plain data-reference names under ``expr``.

    Skips attribute-chain roots (``math`` in ``math.pi``, ``self`` in
    ``self.x``) and function references (``f`` in ``f(x)``) so only names
    used *as values* count.
    """
    for node in ast.walk(expr):
        if not isinstance(node, ast.Name):
            continue
        parent = ctx.parent(node)
        if isinstance(parent, ast.Attribute) and parent.value is node:
            continue
        if isinstance(parent, ast.Call) and parent.func is node:
            continue
        yield node.id


# --------------------------------------------------------------------- DET001


#: OS entropy: never reproducible, whatever the seed.
_ENTROPY_CALLS = frozenset(
    {
        "os.urandom", "uuid.uuid1", "uuid.uuid4", "secrets.token_bytes",
        "secrets.token_hex", "secrets.token_urlsafe", "secrets.randbelow",
        "secrets.choice",
    }
)


class UnseededRandomness(Rule):
    code = "DET001"
    name = "unseeded-randomness"
    summary = "randomness must flow through an explicitly seeded generator"
    rationale = (
        "Serial/parallel scenario sweeps are digest-compared bit for bit; "
        "one draw from a global or unseeded RNG, or one read of OS "
        "entropy (os.urandom, uuid4, secrets), in src/repro makes the "
        "digest depend on process scheduling, import order or the host."
    )

    def applies(self, ctx: ModuleContext) -> bool:
        return ctx.in_src and not ctx.is_test

    def visit_Call(self, node: ast.Call, walk) -> None:
        qualified = walk.ctx.resolve(node.func)
        if qualified is None:
            return
        if qualified in _ENTROPY_CALLS:
            walk.report(
                node,
                f"OS entropy ({qualified}) is never reproducible; derive "
                "the value from a seeded generator or the input",
            )
            return
        if qualified == "random.Random" and not node.args and not node.keywords:
            walk.report(node, "random.Random() instantiated without a seed")
            return
        if qualified.startswith("random."):
            tail = qualified.split(".", 1)[1]
            if tail in STDLIB_RANDOM_GLOBALS:
                walk.report(
                    node,
                    f"call to the process-global stdlib RNG ({qualified}); "
                    "use an explicitly seeded random.Random or "
                    "numpy default_rng(seed)",
                )
            return
        if qualified.startswith("numpy.random."):
            tail = qualified.rsplit(".", 1)[1]
            if tail in NUMPY_LEGACY_GLOBALS:
                walk.report(
                    node,
                    f"legacy numpy global RNG ({qualified}); use "
                    "numpy.random.default_rng(seed) and pass the generator",
                )
                return
        if qualified.endswith("default_rng") and qualified.startswith("numpy"):
            has_seed = bool(node.args) or any(
                kw.arg == "seed" for kw in node.keywords
            )
            if not has_seed:
                walk.report(
                    node, "default_rng() without a seed argument"
                )


# --------------------------------------------------------------------- DET002


class WallClockRead(Rule):
    code = "DET002"
    name = "wall-clock-read"
    summary = "wall-clock reads only inside the timing allowlist"
    rationale = (
        "Scenario summaries are canonical-JSON digested; a clock read "
        "outside runner/ or simulation/timing.py (PhaseTimer) risks "
        "leaking wall time into digest-compared payloads."
    )

    def applies(self, ctx: ModuleContext) -> bool:
        return ctx.in_src and not ctx.timing_allowlisted

    def visit_Call(self, node: ast.Call, walk) -> None:
        qualified = walk.ctx.resolve(node.func)
        if qualified in CLOCK_CALLS:
            walk.report(
                node,
                f"wall-clock read ({qualified}) outside the timing "
                "allowlist (runner/, simulation/timing.py)",
            )


# --------------------------------------------------------------------- DET003


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


_SET_ANNOTATIONS = frozenset({"set", "frozenset", "Set", "FrozenSet"})
_FUNCTION_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _set_typed_params(args: ast.arguments) -> set[str]:
    """Parameters annotated ``set``/``frozenset`` (bare or subscripted)."""
    names: set[str] = set()
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        annotation = arg.annotation
        if isinstance(annotation, ast.Subscript):
            annotation = annotation.value
        if isinstance(annotation, ast.Name) and annotation.id in _SET_ANNOTATIONS:
            names.add(arg.arg)
    return names


class UnsortedSetIteration(Rule):
    code = "DET003"
    name = "unsorted-set-iteration"
    summary = "iterating a set or dict.keys() without sorted() is unstable"
    rationale = (
        "Set iteration order varies with hash seeding; any set feeding "
        "ordered output (digests, JSONL, summaries) must go through "
        "sorted() first.  Besides set expressions, the rule follows the "
        "set-typed names of each function (locals bound to a set "
        "expression, parameters annotated set/frozenset) and flags bare "
        "dict.keys() iteration, whose order is insertion history."
    )

    def __init__(self) -> None:
        #: id(function node) -> its set-typed locals and parameters.
        self._set_names: dict[int, set[str]] = {}

    def applies(self, ctx: ModuleContext) -> bool:
        return ctx.in_src

    def start_module(self, ctx: ModuleContext) -> None:
        self._set_names = {}

    def visit_FunctionDef(self, node: ast.FunctionDef, walk) -> None:
        self._set_names[id(node)] = _set_typed_params(node.args)

    visit_AsyncFunctionDef = visit_FunctionDef

    def _note_binding(self, target: ast.AST, value: ast.AST | None, walk) -> None:
        if not (isinstance(target, ast.Name) and _is_set_expr(value)):
            return
        scope = next(
            (s for s in reversed(walk.scopes) if isinstance(s, _FUNCTION_SCOPES)),
            None,
        )
        if scope is not None:
            self._set_names[id(scope)].add(target.id)

    def visit_Assign(self, node: ast.Assign, walk) -> None:
        for target in node.targets:
            self._note_binding(target, node.value, walk)

    def visit_AnnAssign(self, node: ast.AnnAssign, walk) -> None:
        self._note_binding(node.target, node.value, walk)

    def visit_AugAssign(self, node: ast.AugAssign, walk) -> None:
        self._note_binding(node.target, node.value, walk)

    def _set_valued(self, node: ast.AST, walk) -> str | None:
        """How ``node`` is known to be a set, or None."""
        if _is_set_expr(node):
            return "a set expression"
        if isinstance(node, ast.Name) and any(
            node.id in self._set_names.get(id(scope), ())
            for scope in walk.scopes
        ):
            return f"set {node.id!r}"
        return None

    def _check_iter(self, node: ast.AST, kind: str, walk) -> None:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "keys"
            and not node.args
        ):
            what = "dict.keys()"
        else:
            what = self._set_valued(node, walk)
        if what is not None:
            walk.report(
                node,
                f"{kind} over {what}; wrap it in sorted() "
                "before it can feed ordered output",
            )

    def visit_For(self, node: ast.For, walk) -> None:
        self._check_iter(node.iter, "for-loop", walk)

    def visit_comprehension(self, node: ast.comprehension, walk) -> None:
        self._check_iter(node.iter, "comprehension", walk)

    def visit_Call(self, node: ast.Call, walk) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple")
            and node.args
        ):
            what = self._set_valued(node.args[0], walk)
            if what is not None:
                walk.report(
                    node,
                    f"{node.func.id}() over {what} freezes an "
                    "unstable order; use sorted() instead",
                )


# --------------------------------------------------------------------- DET004


def _is_float_constant(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is float


class FloatEquality(Rule):
    code = "DET004"
    name = "float-equality"
    summary = "no == / != against float literals outside tests"
    rationale = (
        "Exact float comparison makes branch selection depend on the last "
        "ulp of an upstream computation (the Erlang inversion and Lemma 1 "
        "rounding are exactly where that bites); use math.isclose or an "
        "epsilon guard."
    )

    def applies(self, ctx: ModuleContext) -> bool:
        return not ctx.is_test

    def visit_Compare(self, node: ast.Compare, walk) -> None:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_float_constant(left) or _is_float_constant(right):
                walk.report(
                    node,
                    "float equality comparison; use math.isclose or an "
                    "explicit epsilon guard",
                )
                return


# --------------------------------------------------------------------- DET005


_FS_ORDER_CALLS = frozenset(
    {"os.listdir", "os.scandir", "os.walk", "glob.glob", "glob.iglob"}
)
_FS_ORDER_METHODS = frozenset({"iterdir", "glob", "rglob"})


class FilesystemOrder(Rule):
    code = "DET005"
    name = "filesystem-order"
    summary = "directory listings must be sorted before use"
    rationale = (
        "os.listdir/Path.glob order is filesystem-dependent; unsorted "
        "listings make trace discovery and report assembly "
        "machine-dependent."
    )

    def applies(self, ctx: ModuleContext) -> bool:
        return ctx.in_src

    def visit_Call(self, node: ast.Call, walk) -> None:
        ctx = walk.ctx
        qualified = ctx.resolve(node.func)
        is_fs = qualified in _FS_ORDER_CALLS
        if (
            not is_fs
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _FS_ORDER_METHODS
            and not (qualified and qualified.startswith(("glob.", "os.")))
        ):
            is_fs = True
        if not is_fs:
            return
        parent = ctx.parent(node)
        if (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id == "sorted"
        ):
            return
        walk.report(
            node,
            "filesystem-order iteration; wrap the listing in sorted() "
            "for reproducible discovery",
        )


# --------------------------------------------------------------------- DET006


#: Raw timing primitives the control plane must reach only through a
#: :class:`repro.serve.clock.Clock` — the DET002 set plus ``time.sleep``
#: (pacing through the seam is what makes ManualClock tests possible).
_CONTROL_CLOCK_CALLS = CLOCK_CALLS | {"time.sleep"}


class ControlPlaneSeamBypass(Rule):
    code = "DET006"
    name = "control-plane-seam-bypass"
    summary = "serve//simulation/ code must use the injected Clock/rng seams"
    rationale = (
        "The online control plane's digests are bit-compared across "
        "crash/restore; a raw time.time()/datetime.now()/time.sleep() or "
        "any stdlib-random call (seeded or not) outside the Clock and "
        "seeded-generator seams makes live state diverge from its replay."
    )

    def applies(self, ctx: ModuleContext) -> bool:
        return ctx.control_plane

    def visit_Call(self, node: ast.Call, walk) -> None:
        qualified = walk.ctx.resolve(node.func)
        if qualified is None:
            return
        if qualified in _CONTROL_CLOCK_CALLS:
            walk.report(
                node,
                f"raw timing call ({qualified}) in control-plane code; "
                "inject a repro.serve.clock.Clock and use "
                "now()/monotonic()/sleep()",
            )
            return
        if qualified == "random.Random" or (
            qualified.startswith("random.")
            and qualified.split(".", 1)[1] in STDLIB_RANDOM_GLOBALS
        ):
            walk.report(
                node,
                f"stdlib random call ({qualified}) in control-plane code; "
                "randomness must come in through config-seeded generators "
                "(numpy default_rng(seed)), never ad-hoc RNGs",
            )


# --------------------------------------------------------------------- ERR001


class BroadExceptSwallow(Rule):
    code = "ERR001"
    name = "broad-except-swallow"
    summary = "broad except must re-raise, examine, or map to repro.errors"
    rationale = (
        "except Exception: pass hides the failure from the supervisor, "
        "journal and degradation ladder; narrow the exception types or "
        "record a structured repro.errors code before falling back."
    )

    _taxonomy = frozenset(_TAXONOMY_NAMES)

    def visit_ExceptHandler(self, node: ast.ExceptHandler, walk) -> None:
        if not self._is_broad(node.type, walk.ctx):
            return
        body_nodes = [n for stmt in node.body for n in ast.walk(stmt)]
        if any(isinstance(n, ast.Raise) for n in body_nodes):
            return
        for n in body_nodes:
            if isinstance(n, ast.Name):
                if n.id in self._taxonomy:
                    return  # maps onto the structured taxonomy
                if node.name and n.id == node.name:
                    return  # the caught exception is examined/reported
            qualified = walk.ctx.resolve(n) if isinstance(n, ast.Attribute) else None
            if qualified and qualified.startswith("repro.errors."):
                return
        walk.report(
            node,
            "broad except swallows the failure; narrow the types or map "
            "it onto the repro.errors taxonomy (keeping the fallback)",
        )

    @staticmethod
    def _is_broad(type_node: ast.AST | None, ctx: ModuleContext) -> bool:
        if type_node is None:
            return True
        candidates = (
            type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
        )
        for candidate in candidates:
            name = ctx.resolve(candidate)
            if name in ("Exception", "BaseException"):
                return True
        return False


# --------------------------------------------------------------------- NUM001


_GUARD_CALLS = frozenset(
    {"math.isfinite", "math.isnan", "numpy.isfinite", "numpy.isnan"}
)
_GUARD_BUILTINS = frozenset({"isfinite", "isnan", "max", "min", "abs"})
_RISKY_MATH = frozenset(
    {"math.log", "math.log2", "math.log10", "math.sqrt"}
)


class UnguardedNumerics(Rule):
    code = "NUM001"
    name = "unguarded-numerics"
    summary = "division/log/sqrt in hot paths need a guard on their inputs"
    rationale = (
        "The Erlang-C/M/G/N inversion is numerically touchy; a division "
        "or log/sqrt fed a raw, unexamined value turns one poisoned input "
        "into NaN container counts three calls later."
    )

    def __init__(self) -> None:
        self._guarded_cache: dict[int, frozenset[str]] = {}

    def applies(self, ctx: ModuleContext) -> bool:
        return ctx.numeric_hot_path

    def start_module(self, ctx: ModuleContext) -> None:
        self._guarded_cache = {}

    def visit_BinOp(self, node: ast.BinOp, walk) -> None:
        if isinstance(node.op, (ast.Div, ast.FloorDiv, ast.Mod)):
            self._check(node.right, node, "division denominator", walk)

    def visit_Call(self, node: ast.Call, walk) -> None:
        qualified = walk.ctx.resolve(node.func)
        if qualified in _RISKY_MATH and node.args:
            self._check(
                node.args[0], node, f"argument of {qualified}", walk
            )

    def _check(self, expr: ast.AST, site: ast.AST, what: str, walk) -> None:
        scope = next(
            (
                s
                for s in reversed(walk.scopes)
                if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
            ),
            None,
        )
        if scope is None:
            return  # module-level constants are not hot-path inputs
        guarded = self._guarded(scope, walk.ctx)
        unguarded = sorted(
            {n for n in _leaf_names(expr, walk.ctx) if n not in guarded}
        )
        if unguarded:
            walk.report(
                site,
                f"{what} uses {', '.join(unguarded)} with no "
                "finiteness/range guard in this function",
            )

    def _guarded(self, scope: ast.AST, ctx: ModuleContext) -> frozenset[str]:
        cached = self._guarded_cache.get(id(scope))
        if cached is not None:
            return cached
        guarded: set[str] = set()
        nodes = list(ast.walk(scope))
        for node in nodes:
            if isinstance(node, ast.Compare):
                guarded.update(_leaf_names(node, ctx))
            elif isinstance(node, ast.Assert):
                guarded.update(_leaf_names(node.test, ctx))
            elif isinstance(node, ast.Call):
                qualified = ctx.resolve(node.func)
                is_guard = qualified in _GUARD_CALLS or (
                    isinstance(node.func, ast.Name)
                    and node.func.id in _GUARD_BUILTINS
                )
                if is_guard:
                    for arg in node.args:
                        guarded.update(_leaf_names(arg, ctx))
            elif isinstance(node, ast.For):
                # range() targets are integers by construction.
                if (
                    isinstance(node.iter, ast.Call)
                    and isinstance(node.iter.func, ast.Name)
                    and node.iter.func.id == "range"
                ):
                    guarded.update(
                        n.id
                        for n in ast.walk(node.target)
                        if isinstance(n, ast.Name)
                    )
        # Taint propagation: a value computed only from guarded names (or
        # constants) is itself considered examined.  Fixpoint because
        # assignments can appear in any order across branches.
        assigns = [
            node
            for node in nodes
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        ]
        changed = True
        while changed:
            changed = False
            for assign in assigns:
                value = getattr(assign, "value", None)
                if value is None:
                    continue
                leaves = set(_leaf_names(value, ctx))
                if not leaves <= guarded:
                    continue
                if isinstance(assign, ast.Assign):
                    targets = assign.targets
                else:
                    targets = [assign.target]
                for target in targets:
                    for name_node in ast.walk(target):
                        if (
                            isinstance(name_node, ast.Name)
                            and name_node.id not in guarded
                        ):
                            guarded.add(name_node.id)
                            changed = True
        result = frozenset(guarded)
        self._guarded_cache[id(scope)] = result
        return result


# --------------------------------------------------------------------- API001


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("list", "dict", "set", "bytearray")
    )


class MutableDefaultArgument(Rule):
    code = "API001"
    name = "mutable-default-argument"
    summary = "no mutable default arguments"
    rationale = (
        "A mutable default is shared across calls (and across scenarios "
        "within one worker), leaking state between runs that must stay "
        "independent."
    )

    def visit_FunctionDef(self, node: ast.FunctionDef, walk) -> None:
        self._check(node.args, walk)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef, walk) -> None:
        self._check(node.args, walk)

    def visit_Lambda(self, node: ast.Lambda, walk) -> None:
        self._check(node.args, walk)

    def _check(self, args: ast.arguments, walk) -> None:
        defaults = list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_literal(default):
                walk.report(
                    default,
                    "mutable default argument is shared across calls; "
                    "default to None and construct inside the function",
                )


# --------------------------------------------------------------------- SUP001


class UselessSuppression(Rule):
    """Engine-level rule: emitted after the walk, not during it.

    The engine compares every ``# repro: noqa`` comment against the
    findings it actually suppressed; unknown codes and suppressions that
    matched nothing are reported so stale escapes cannot accumulate.
    SUP001 findings are themselves exempt from suppression.
    """

    code = "SUP001"
    name = "useless-suppression"
    severity = "warning"
    summary = "every noqa must name known codes and suppress something"
    rationale = (
        "Stale suppressions are silent holes in the determinism "
        "guarantees; a noqa that no longer matches a finding must be "
        "deleted (or its code fixed)."
    )


#: All rule classes, in catalog order.
ALL_RULES: tuple[type[Rule], ...] = (
    UnseededRandomness,
    WallClockRead,
    UnsortedSetIteration,
    FloatEquality,
    FilesystemOrder,
    ControlPlaneSeamBypass,
    BroadExceptSwallow,
    UnguardedNumerics,
    MutableDefaultArgument,
    UselessSuppression,
)

#: Known rule codes (includes SYN000, the engine's parse-failure code).
KNOWN_CODES = frozenset(
    {rule.code for rule in ALL_RULES} | {"SYN000"}
)


def default_rules() -> list[Rule]:
    """Fresh instances of every rule, in catalog order."""
    return [rule() for rule in ALL_RULES]


__all__ = [
    "Rule",
    "UnseededRandomness",
    "WallClockRead",
    "UnsortedSetIteration",
    "FloatEquality",
    "FilesystemOrder",
    "ControlPlaneSeamBypass",
    "BroadExceptSwallow",
    "UnguardedNumerics",
    "MutableDefaultArgument",
    "UselessSuppression",
    "ALL_RULES",
    "KNOWN_CODES",
    "default_rules",
]
