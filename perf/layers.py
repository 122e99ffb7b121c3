"""Layer boundaries: which public callables are wrapped, and what they yield.

Layers are the packages under ``src/repro``.  ``install`` puts one wrapper
on each boundary callable; ``span_metrics`` turns the recorded spans into
the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import statistics

from tracing import Tracer, Wrappers

#: Span names whose set-up occurrences count (inputs are built there on
#: every workload but ``fleet_stream``).  Other set-up spans, such as the
#: replays of the ``control_mpc`` engine differential, are left out.
SETUP_SPANS = frozenset(
    {
        "trace.generate",
        "classification.fit",
        "classification.classify_batch",
        "clustering.kmeans_fit",
        "serve.feeder_build",
    }
)


def install(tracer: Tracer) -> Wrappers:
    """Wrap every layer boundary; the caller must ``remove()`` them."""
    # Loaded first so that the names they imported get the wrappers too.
    import repro.fleet.coordinator  # noqa: F401
    import repro.fleet.tasks  # noqa: F401
    import repro.serve.checkpoint  # noqa: F401
    import repro.runner.journal as journal
    import repro.simulation.merge as merge
    import repro.trace.generator as generator
    from repro.classification.classifier import TaskClassifier
    from repro.clustering.kmeans import KMeans
    from repro.fleet.sharding import TaskRouter
    from repro.fleet import sharding
    from repro.provisioning.controller import HarmonyController
    from repro.provisioning.relax import CbsRelaxSolver
    from repro.provisioning.rounding import FirstFitRounder
    from repro.serve.checkpoint import CheckpointStore, TickJournal
    from repro.serve.daemon import EventLog
    from repro.serve.feeder import ReplayFeeder
    from repro.serve.state import ServeState
    from repro.simulation.cluster import ClusterSimulator
    from repro.simulation.columnar import ColumnarClusterSimulator
    from repro.simulation.harmony import HarmonySimulation, SimulationResult

    def items(count):
        def note(span, result, args):
            span["items"] = int(count(result, args))

        return note

    def placed_and_dropped(span, plan, args):
        span["placed"] = int(plan.packed.sum())
        span["dropped"] = int(plan.dropped.sum())

    w = Wrappers(tracer)
    try:
        w.call(generator, "generate_trace", "trace.generate",
               items(lambda trace, args: trace.num_tasks))
        w.call(generator, "plan_trace", "trace.plan")
        w.generator(generator, "stream_trace", "trace.stream")

        w.call(TaskClassifier, "fit", "classification.fit",
               items(lambda result, args: len(args[1])))
        w.call(TaskClassifier, "classify_batch", "classification.classify_batch",
               items(lambda result, args: len(args[1])))
        w.call(KMeans, "fit", "clustering.kmeans_fit")

        w.call(HarmonyController, "observe", "forecasting.observe")
        w.call(HarmonyController, "forecast_rates", "forecasting.forecast")
        w.call(HarmonyController, "container_demand", "containers.demand")

        w.call(HarmonyController, "decide", "provisioning.decide")
        w.call(HarmonyController, "build_problem", "provisioning.build_problem")
        w.call(CbsRelaxSolver, "solve", "provisioning.relax_solve")
        w.call(FirstFitRounder, "round", "provisioning.round", placed_and_dropped)

        for simulator in (ClusterSimulator, ColumnarClusterSimulator):
            w.call(simulator, "run", "simulation.replay",
                   items(lambda result, args: len(args[0].tasks)))
        w.call(HarmonySimulation, "prepare", "simulation.prepare")
        w.call(SimulationResult, "summary", "simulation.summary")
        w.call(merge, "merge_shard_summaries", "simulation.merge",
               items(lambda result, args: len(args[0])))
        w.call(merge, "fleet_digest", "simulation.merge")

        w.tally(TaskRouter, "route", "fleet.route")
        w.call(sharding, "partition_census", "fleet.partition")
        w.call(journal, "write_journal_record", "journal.append")

        w.call(TickJournal, "append", "serve.journal_append")
        w.call(TickJournal, "load", "serve.journal_load")
        w.call(ServeState, "to_state", "serve.snapshot")
        w.call(ServeState, "apply_tick", "serve.apply_tick")
        w.call(CheckpointStore, "write", "serve.checkpoint_write")
        w.call(CheckpointStore, "load", "serve.checkpoint_load")
        w.call(EventLog, "emit", "serve.events_emit")
        w.call(ReplayFeeder, "__init__", "serve.feeder_build")
    except BaseException:
        w.remove()
        raise
    return w


# ------------------------------------------------------------- aggregation


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile, lowered (never below the median) until at least
    ten samples lie beyond it (choosing-metrics guide); 0 with no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    rank = min(q, max(50.0, 100.0 * (1.0 - 10.0 / n))) / 100.0 * (n - 1)
    low = int(rank)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Repeats:
    """The spans of a traced pass, grouped per repeat (one root each)."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.roots = [
            s for s in tracer.spans if s["name"] == "bench.repeat"
        ]
        self.groups = [tracer.descendants(root["id"]) for root in self.roots]
        self.setup = [
            s for s in tracer.spans
            if s["phase"] == "setup" and s["name"] in SETUP_SPANS
        ]

    def total(self, name: str, value) -> float:
        """Set-up occurrences plus the median over repeats of the per-repeat sum."""
        total = sum(value(s) for s in self.setup if s["name"] == name)
        sums = [
            sum(value(s) for s in group if s["name"] == name) for group in self.groups
        ]
        return total + (statistics.median(sums) if sums else 0.0)

    def _all(self, name: str) -> list[dict]:
        pooled = [s for s in self.setup if s["name"] == name]
        for group in self.groups:
            pooled.extend(s for s in group if s["name"] == name)
        return pooled

    def seconds(self, name: str) -> float:
        return self.total(name, lambda s: s["busy_s"])

    def calls(self, name: str) -> float:
        return self.total(name, lambda s: s["count"])

    def field(self, name: str, key: str) -> float:
        return self.total(name, lambda s: s.get(key, 0))

    def self_seconds(self, name: str) -> float:
        return self.total(name, self.tracer.self_time)

    def call_ms(self, name: str, q: float) -> float:
        """Percentile of single-call durations, pooled over the repeats."""
        return percentile([s["busy_s"] * 1e3 for s in self._all(name)], q)

    def max_ms(self, name: str) -> float:
        return max((s["busy_s"] * 1e3 for s in self._all(name)), default=0.0)

    def coverage(self) -> float:
        """Share of the timed wall that top-level spans account for."""
        shares = [
            sum(c["busy_s"] for c in self.tracer.children(root["id"]))
            / root["busy_s"]
            for root in self.roots
        ]
        return statistics.median(shares) if shares else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def span_metrics(r: Repeats) -> dict[str, tuple[float, str]]:
    """Every per-layer metric that comes from spans alone: name -> (value, unit)."""
    s, n = r.seconds, r.calls
    replay_tasks = r.field("simulation.replay", "items")
    placed = r.field("provisioning.round", "placed")
    dropped = r.field("provisioning.round", "dropped")
    return {
        "trace.generate_s": (s("trace.generate"), "s"),
        "trace.generate_tasks": (r.field("trace.generate", "items"), "count"),
        "trace.plan_s": (s("trace.plan"), "s"),
        "trace.stream_s": (s("trace.stream"), "s"),
        "trace.stream_tasks": (n("trace.stream"), "count"),
        "trace.stream_tasks_per_s": (ratio(n("trace.stream"), s("trace.stream")), "1/s"),
        "trace.stream_passes": (r.total("trace.stream", lambda _: 1), "count"),
        "classification.fit_s": (s("classification.fit"), "s"),
        "classification.fit_tasks": (r.field("classification.fit", "items"), "count"),
        "classification.fit_us_per_task": (
            ratio(s("classification.fit") * 1e6, r.field("classification.fit", "items")),
            "us",
        ),
        "classification.classify_batch_s": (s("classification.classify_batch"), "s"),
        "classification.classify_tasks_per_s": (
            ratio(
                r.field("classification.classify_batch", "items"),
                s("classification.classify_batch"),
            ),
            "1/s",
        ),
        "clustering.kmeans_fit_s": (s("clustering.kmeans_fit"), "s"),
        "clustering.kmeans_fits": (n("clustering.kmeans_fit"), "count"),
        "forecasting.observe_s": (s("forecasting.observe"), "s"),
        "forecasting.observe_calls": (n("forecasting.observe"), "count"),
        "forecasting.observe_max_ms": (r.max_ms("forecasting.observe"), "ms"),
        "forecasting.forecast_s": (s("forecasting.forecast"), "s"),
        "forecasting.forecast_calls": (n("forecasting.forecast"), "count"),
        "containers.demand_s": (s("containers.demand"), "s"),
        "containers.demand_calls": (n("containers.demand"), "count"),
        "provisioning.decide_s": (s("provisioning.decide"), "s"),
        "provisioning.decide_p50_ms": (r.call_ms("provisioning.decide", 50), "ms"),
        "provisioning.decide_p99_ms": (r.call_ms("provisioning.decide", 99), "ms"),
        "provisioning.decides": (n("provisioning.decide"), "count"),
        "provisioning.build_problem_s": (s("provisioning.build_problem"), "s"),
        "provisioning.relax_solve_s": (s("provisioning.relax_solve"), "s"),
        "provisioning.relax_solves": (n("provisioning.relax_solve"), "count"),
        "provisioning.round_s": (s("provisioning.round"), "s"),
        "provisioning.round_placed_ratio": (
            ratio(placed, placed + dropped), "ratio",
        ),
        "simulation.replay_s": (s("simulation.replay"), "s"),
        "simulation.replay_self_s": (r.self_seconds("simulation.replay"), "s"),
        "simulation.replay_tasks_per_s": (
            ratio(replay_tasks, s("simulation.replay")), "1/s"
        ),
        "simulation.prepare_s": (s("simulation.prepare"), "s"),
        "simulation.summary_s": (s("simulation.summary"), "s"),
        "simulation.merge_s": (s("simulation.merge"), "s"),
        "simulation.merge_shards": (r.field("simulation.merge", "items"), "count"),
        "fleet.route_s": (s("fleet.route"), "s"),
        "fleet.route_calls": (n("fleet.route"), "count"),
        "fleet.partition_s": (s("fleet.partition"), "s"),
        "runner.journal_append_s": (
            r.total("journal.append", lambda x: x["busy_s"] * runner_append(r, x)),
            "s",
        ),
        "runner.journal_appends": (
            r.total("journal.append", lambda x: runner_append(r, x)), "count"
        ),
        "serve.journal_append_s": (s("serve.journal_append"), "s"),
        "serve.journal_append_p50_ms": (r.call_ms("serve.journal_append", 50), "ms"),
        "serve.journal_append_p99_ms": (r.call_ms("serve.journal_append", 99), "ms"),
        "serve.snapshot_s": (s("serve.snapshot"), "s"),
        "serve.apply_tick_s": (s("serve.apply_tick"), "s"),
        "serve.apply_tick_p50_ms": (r.call_ms("serve.apply_tick", 50), "ms"),
        "serve.apply_tick_p99_ms": (r.call_ms("serve.apply_tick", 99), "ms"),
        "serve.checkpoint_write_s": (s("serve.checkpoint_write"), "s"),
        "serve.checkpoint_writes": (n("serve.checkpoint_write"), "count"),
        "serve.checkpoint_write_p99_ms": (
            r.call_ms("serve.checkpoint_write", 99), "ms"
        ),
        "serve.events_emit_s": (s("serve.events_emit"), "s"),
        "serve.feeder_build_s": (s("serve.feeder_build"), "s"),
        "serve.checkpoint_load_s": (s("serve.checkpoint_load"), "s"),
        "serve.journal_load_s": (s("serve.journal_load"), "s"),
        "bench.span_coverage": (r.coverage(), "ratio"),
    }


def runner_append(r: Repeats, span: dict) -> int:
    """1 for a runner-journal write, 0 for one made inside TickJournal.append."""
    parent = span["parent"]
    if parent is not None and r.tracer.spans[parent]["name"] == "serve.journal_append":
        return 0
    return 1
