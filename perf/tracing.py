"""Spans recorded from outside the program.

The benchmark wraps each layer's public callables (see :mod:`layers`) for
the traced pass only and restores the originals afterwards, so the
untraced pass — the one the end-to-end metrics come from — runs the
program exactly as a user would.

A span carries ``id``, ``name``, ``start``, ``end``, ``parent``,
``workload`` and ``phase`` plus ``count`` and ``busy_s``.  For an ordinary
span ``count`` is 1 and ``busy_s`` is ``end - start``.  Callables invoked
once per task (``TaskRouter.route``, each ``next()`` of ``stream_trace``)
are *tallied*: their calls under one parent fold into one span whose
``busy_s`` is the time spent inside the calls, which keeps a fleet run at
dozens of spans, not hundreds of thousands.  Self time is a span's
``busy_s`` minus the ``busy_s`` of its children.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    """In-memory span store with a parent stack (single-threaded)."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.phase = "setup"
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._tallies: dict[tuple[str, int | None], dict] = {}

    @contextmanager
    def in_phase(self, phase: str):
        """Label the spans opened inside with ``phase`` ("setup", "check", "run")."""
        previous, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = previous

    # ------------------------------------------------------------ recording

    def _open(self, name: str, start: float) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": start,
            "end": start,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "phase": self.phase,
            "count": 1,
            "busy_s": 0.0,
        }
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        span = self._open(name, perf_counter())
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            self._stack.pop()
            span["end"] = perf_counter()
            span["busy_s"] = span["end"] - span["start"]

    def open_tally(self, name: str, start: float) -> dict:
        """A span that accumulates ``count`` and ``busy_s`` over many calls."""
        span = self._open(name, start)
        span["count"] = 0
        return span

    def tally(self, name: str, start: float, end: float) -> None:
        """Fold one call of a per-task callable into its parent's tally span."""
        parent = self._stack[-1] if self._stack else None
        span = self._tallies.get((name, parent))
        if span is None:
            span = self._tallies[(name, parent)] = self.open_tally(name, start)
        span["count"] += 1
        span["busy_s"] += end - start
        span["end"] = end

    # -------------------------------------------------------------- queries

    def children(self, span_id: int | None) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span_id]

    def descendants(self, span_id: int) -> list[dict]:
        """Every span below ``span_id`` (ids grow in opening order)."""
        inside = {span_id}
        found = []
        for span in self.spans[span_id + 1 :]:
            if span["parent"] in inside:
                inside.add(span["id"])
                found.append(span)
        return found

    def self_time(self, span: dict) -> float:
        return span["busy_s"] - sum(c["busy_s"] for c in self.children(span["id"]))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


class Wrappers:
    """Installs span wrappers on the program's callables and removes them.

    A method is patched on its class.  A module-level function is patched
    in every loaded module that holds a reference to it, the benchmark's own
    included, since most importers bind it by name.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def _holders(self, owner, attr: str) -> list:
        if isinstance(owner, type):
            return [owner]
        original = getattr(owner, attr)
        return [
            module
            for _, module in sorted(sys.modules.items())
            if getattr(module, "__dict__", {}).get(attr) is original
        ]

    def _replace(self, owner, attr: str, make) -> None:
        original = (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        )
        replacement = make(original)
        for holder in self._holders(owner, attr):
            self._undo.append((holder, attr, original))
            setattr(holder, attr, replacement)

    def call(self, owner, attr: str, name: str, note=None) -> None:
        """One span per call; ``note(span, result, args)`` may add fields."""
        tracer = self.tracer

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                with tracer.span(name) as span:
                    result = original(*args, **kwargs)
                    if note is not None:
                        note(span, result, args)
                    return result

            return traced

        self._replace(owner, attr, make)

    def tally(self, owner, attr: str, name: str) -> None:
        """Per-task leaf callable: all calls under a parent share one span."""
        tracer = self.tracer

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                start = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.tally(name, start, perf_counter())

            return traced

        self._replace(owner, attr, make)

    def generator(self, owner, attr: str, name: str) -> None:
        """Generator function: one span per pass, busy only while producing.

        ``count`` is the number of items yielded; the consumer's time
        between items is not the generator's and is left out of ``busy_s``.
        """
        tracer = self.tracer

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                iterator = original(*args, **kwargs)
                span = tracer.open_tally(name, perf_counter())
                while True:
                    start = perf_counter()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        span["end"] = perf_counter()
                        span["busy_s"] += span["end"] - start
                    span["count"] += 1
                    yield item

            return traced

        self._replace(owner, attr, make)

    def targets(self) -> list[tuple[object, str]]:
        """Every (holder, attribute) currently replaced."""
        return [(holder, attr) for holder, attr, _ in self._undo]

    def remove(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)
