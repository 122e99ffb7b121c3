"""Interprocedural (whole-program) lint passes over the project graph.

Two rule families run here rather than in the per-file engine because
their evidence spans modules:

FLOW001
    Taint: a nondeterministic *value* source (wall clock outside the
    timing allowlist, unseeded RNG, ``os.urandom``, ``id()``) in a
    function from which a digest sink is reachable — in either taint
    direction.  *Argument direction*: the function transitively calls
    into sink-containing code, so the value can ride down as an
    argument.  *Return direction*: the function is reachable from a
    digest root (``canonical_json`` callers, ``summary()`` builders), so
    the value can ride back up in a return.  The finding renders the
    full source→sink call path.
ORD001
    Ordering: unsorted iteration over a set-typed local/parameter or a
    bare ``dict.keys()`` in a function on a digest path.  Set order
    varies with hash seeding; key order echoes insertion history.

Every finding is attributed to the *source* site (the clock read, the
iteration), carries the call path in both the message and
the structured ``trace`` field, and fingerprints on the source line — so
baselining and ``# repro: noqa`` behave exactly as for per-file rules.
"""

from __future__ import annotations

from repro.statics.findings import Finding
from repro.statics.graph import ProjectGraph


def _rule(code: str):
    from repro.statics.rules import PROJECT_RULES

    for rule in PROJECT_RULES:
        if rule.code == code:
            return rule
    raise KeyError(code)


def _shortest(paths: list[list[str]], graph: ProjectGraph) -> list[str]:
    return min(paths, key=lambda p: (len(p), [graph.label(k) for k in p]))


def _sink_description(graph: ProjectGraph, key: str) -> str:
    fn = graph.functions[key].summary
    if fn.sinks:
        names = sorted({sink["name"] for sink in fn.sinks})
        return f"{names[0]}()"
    return f"{fn.name}() digest payload"


def _digest_paths(
    graph: ProjectGraph,
    key: str,
    reach: dict[str, str | None],
    feed: dict[str, str | None],
) -> list[str] | None:
    """Shortest source-first call chain from ``key`` to a digest sink."""
    candidates = []
    if key in reach:
        candidates.append(graph.path_to_root(key, reach))
    if key in feed:
        candidates.append(graph.path_to_root(key, feed))
    if not candidates:
        return None
    return _shortest(candidates, graph)


def _flow_pass(
    graph: ProjectGraph,
    reach: dict[str, str | None],
    feed: dict[str, str | None],
) -> list[Finding]:
    rule = _rule("FLOW001")
    findings = []
    for key in sorted(graph.functions):
        node = graph.functions[key]
        sources = node.summary.sources
        if not sources:
            continue
        path = _digest_paths(graph, key, reach, feed)
        if path is None:
            continue
        trace = tuple(graph.label(step) for step in path)
        sink_desc = _sink_description(graph, path[-1])
        rendered = " -> ".join(trace)
        for source in sources:
            findings.append(
                Finding(
                    code=rule.code,
                    severity=rule.severity,
                    path=node.rel_path,
                    line=source["line"],
                    column=source["col"],
                    message=(
                        f"nondeterministic {source['kind']} source "
                        f"{source['name']}() can reach digest sink "
                        f"{sink_desc} [call path: {rendered}]"
                    ),
                    source_line=source["text"],
                    trace=trace,
                )
            )
    return findings


def _ord_pass(
    graph: ProjectGraph,
    reach: dict[str, str | None],
    feed: dict[str, str | None],
) -> list[Finding]:
    rule = _rule("ORD001")
    findings = []
    for key in sorted(graph.functions):
        node = graph.functions[key]
        sites = node.summary.ord_sites
        if not sites:
            continue
        path = _digest_paths(graph, key, reach, feed)
        if path is None:
            continue
        trace = tuple(graph.label(step) for step in path)
        sink_desc = _sink_description(graph, path[-1])
        rendered = " -> ".join(trace)
        for site in sites:
            findings.append(
                Finding(
                    code=rule.code,
                    severity=rule.severity,
                    path=node.rel_path,
                    line=site["line"],
                    column=site["col"],
                    message=(
                        f"unsorted iteration over {site['desc']} on a "
                        f"digest path to {sink_desc}; wrap it in sorted() "
                        f"[call path: {rendered}]"
                    ),
                    source_line=site["text"],
                    trace=trace,
                )
            )
    return findings


def run_project_passes(graph: ProjectGraph) -> list[Finding]:
    """All interprocedural findings, deterministically ordered."""
    reach = graph.sink_reach()
    feed = graph.digest_feed()
    findings = _flow_pass(graph, reach, feed) + _ord_pass(graph, reach, feed)
    findings.sort(key=Finding.sort_key)
    return findings


__all__ = ["run_project_passes"]
