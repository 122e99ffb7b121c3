"""Canonical scenario suites, and the shapes ``repro bench`` checks.

``repro bench`` builds its scenario lists here, from the shared defaults
in :mod:`repro.runner.defaults` — one definition of each sweep — and
checks each shaped suite's results against the shapes written next to it;
``repro fleet`` checks :func:`google_fleet_shapes` the same way.
"""

from __future__ import annotations

import math
import operator
import os
from types import SimpleNamespace
from typing import NamedTuple

from repro.runner.defaults import (
    REPLAY_LOAD,
    BenchDefaults,
    bench_defaults,
    bench_fleet_hours,
    bench_fleet_load,
    bench_fleet_machines,
    bench_repeats,
    bench_replay_hours,
    bench_replay_machines,
    bench_seed,
)
from repro.runner.scenario import Scenario


class ShapeRow(NamedTuple):
    """One claim about a run: ``measured`` ``op`` ``bound``.  ``ok`` is
    ``None`` ("not checked") when a scenario it reads has no result (it
    was quarantined) or the claim does not apply to the run."""

    shape: str
    measured: float | None
    op: str
    bound: float | None
    ok: bool | None


class Rel(NamedTuple):
    """A bound: ``factor`` x the least ``path`` value (default: the shape's
    own) of scenario(s) ``of``, plus ``offset``."""

    factor: float
    of: str | tuple[str, ...]
    offset: float = 0.0
    path: str | None = None


_OPS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "==": operator.eq,
}


def _value(results: dict, scenario: str, path):
    """``path(result)``, or the result's summary at dotted ``path``."""
    if scenario not in results:
        return None
    if callable(path):
        return path(results[scenario])
    value = results[scenario].summary
    for key in path.split("."):
        value = value[key]
    return value


def _shape_row(shape: str, measured, op: str, bound) -> ShapeRow:
    ok = None if measured is None or bound is None else _OPS[op](measured, bound)
    return ShapeRow(shape, measured, op, bound, ok)


def check_shapes(specs, results: dict) -> list[ShapeRow]:
    """Rows of ``(scenario, path, op, bound)`` specs over scenario results:
    ``path`` is a dotted summary path or a function of the result, and
    ``bound`` a number or a :class:`Rel`."""
    rows = []
    for scenario, path, op, bound in specs:
        shape = f"{scenario} {getattr(path, '__name__', path)}"
        if isinstance(bound, Rel):
            of = (bound.of,) if isinstance(bound.of, str) else bound.of
            values = [_value(results, name, bound.path or path) for name in of]
            label = of[0] if len(of) == 1 else f"the least of {len(of)}"
            shape += f" vs {bound.factor:g} x {label} {bound.path or ''}".rstrip()
            if bound.offset:
                shape += f" {'+' if bound.offset > 0 else '-'} {abs(bound.offset):g}"
            least = None if None in values else min(values)
            bound = None if least is None else least * bound.factor + bound.offset
        rows.append(_shape_row(shape, _value(results, scenario, path), op, bound))
    return rows


#: Problem sizes of the CBS-RELAX scalability sweep (classes, machine types).
#: The first four are the paper-scale points; the last two stretch toward
#: the production-scale regime so the sweep is heavy enough to measure
#: parallel speedup meaningfully.
SCALABILITY_SIZES = ((20, 4), (80, 4), (80, 10), (160, 10), (320, 16), (640, 10))


def scalability_scenarios(
    repeats: int | None = None, seeds: tuple[int, ...] = (0, 1)
) -> list[Scenario]:
    """The multi-scenario CBS-RELAX sweep (sizes x seeds, repeated solves).

    ``len(SCALABILITY_SIZES) * len(seeds)`` independent scenarios — enough
    parallel grain for a 4-worker pool to show its speedup, each scenario
    substantial enough (``repeats`` solves, default ``REPRO_BENCH_REPEATS``)
    to dwarf process overhead.
    """
    if repeats is None:
        repeats = bench_repeats()
    return [
        Scenario(
            name=f"relax_c{num_classes}_t{num_types}_s{seed}",
            task="relax_solve",
            params={
                "num_classes": num_classes,
                "num_types": num_types,
                "W": 4,
                "seed": seed,
                "repeats": repeats,
            },
        )
        for num_classes, num_types in SCALABILITY_SIZES
        for seed in seeds
    ] + [sizing_scenario(repeats), replay_scenario()]


#: Eq. 1 inversions per decade of offered load in the sizing scenario.
SIZING_INVERSIONS = 1200


def sizing_scenario(repeats: int) -> Scenario:
    """Eq. 1 inverted cold over a seeded grid, 10 to 10**5 Erlangs.

    The M/G/N sizing layer's own data point: its wall is all sizing (one
    phase per decade), and its shape checks that an inversion's cost does
    not grow with the offered load the way an O(a) recurrence does.
    """
    return Scenario(
        name="mgn_sizing",
        task="mgn_sizing",
        params={"inversions": SIZING_INVERSIONS, "seed": 0, "repeats": repeats},
    )


def replay_scenario() -> Scenario:
    """The deep-backlog threshold-policy replay, ``replay_backlog``.

    Large fleet, high load: the replay loop, not the LP solver, dominates,
    so this scenario's wall-time share is what gates the replay kernel in
    ``scripts/check_bench_regression.py``.  Separate ``REPRO_BENCH_REPLAY_*``
    knobs so CI can shrink it independently of the solver sweep.
    """
    return Scenario(
        name="replay_backlog",
        task="simulate",
        params={
            "trace": {
                "hours": bench_replay_hours(),
                "seed": bench_seed(),
                "machines": bench_replay_machines(),
                "load": REPLAY_LOAD,
            },
            "policy": "threshold",
        },
    )


def scalability_shapes(report, serial=None) -> list[ShapeRow]:
    """Section VII-B's online-control claim, an Eq. 1 inversion at 10**5
    Erlangs costing under 10x one at 10**3 (the same number of cold
    inversions per decade; an O(a) search costs ~89x there), and the parallel
    speedup of a ``--verify`` run (``serial``) on >= 4 workers with as many
    cores."""

    def seconds_per_solve(result):
        return result.wall_seconds / result.summary["repeats"]

    def sizing_cost_1e5_over_1e3(result):
        return result.phases["sizing_1e5"] / result.phases["sizing_1e3"]

    specs = [
        (f"relax_c80_t10_s{seed}", seconds_per_solve, "<", 10.0) for seed in (0, 1)
    ] + [("mgn_sizing", sizing_cost_1e5_over_1e3, "<", 10.0)]
    rows = check_shapes(specs, {r.name: r for r in report})
    speedup = None
    if serial is not None and 4 <= report.workers <= (os.cpu_count() or 1):
        wall = report.total_wall_seconds
        speedup = serial.total_wall_seconds / wall if wall > 0 else 0.0
    rows.append(_shape_row("parallel speedup over serial", speedup, ">=", 2.0))
    return rows


def _bench_trace_params(defaults: BenchDefaults | None) -> dict:
    defaults = defaults or bench_defaults()
    params = defaults.trace_params()
    # Placement constraints drawn against the Table II fleet the suites
    # replay on.
    params["constraints"] = True
    return params


#: Predictor name -> factory kwargs, as in the Section VI ablation.
PREDICTOR_GRID: tuple[tuple[str, str, dict], ...] = (
    ("naive", "naive", {}),
    ("moving_average", "moving_average", {"window": 6}),
    ("ewma", "ewma", {"alpha": 0.3}),
    ("holt", "holt", {}),
    ("arima(2,0,1)", "arima", {"order": (2, 0, 1), "window": 48}),
    # 288 bins of 300 s = the 24 h diurnal period of the trace.
    ("seasonal_ewma", "seasonal_ewma", {"period": 288}),
)


def ablation_scenarios(defaults: BenchDefaults | None = None) -> list[Scenario]:
    """Every ablation sweep as one suite.

    ``omega_*`` solves and rounds one CBS instance per Eq. 17 factor;
    ``horizon_W*`` solves one MPC instance per look-ahead W on a step-2
    demand surge; ``predictor_*`` scores one-step forecasts of each
    :data:`PREDICTOR_GRID` entry; ``preemption_*`` and ``slo_*`` run CBS
    over a 2 h window with eviction off/on and with the group SLOs scaled;
    ``consolidation_frag`` migrates containers off fragmented fleets.
    """
    trace = _bench_trace_params(defaults)
    cbs = {"trace": trace, "policy": "cbs", "predictor": "ewma"}
    return (
        [
            Scenario(f"omega_{omega}", "omega_round",
                     {"trace": trace, "omega": omega, "demand_seed": 5})
            for omega in (1.0, 1.25, 1.5, 2.0, 3.0, 4.0)
        ]
        + [
            Scenario(f"horizon_W{W}", "horizon_solve", {"trace": trace, "W": W})
            for W in (1, 2, 4, 8)
        ]
        + [
            Scenario(f"predictor_{label}", "predictor_eval", {
                "trace": trace, "predictor": name,
                "predictor_kwargs": dict(kwargs), "warmup": 12,
            })
            for label, name, kwargs in PREDICTOR_GRID
        ]
        + [
            Scenario(f"preemption_{'on' if flag else 'off'}", "simulate",
                     {**cbs, "enable_preemption": flag, "window_hours": 2.0})
            for flag in (False, True)
        ]
        + [
            Scenario(f"slo_{multiplier}x", "simulate",
                     {**cbs, "slo_multiplier": multiplier, "window_hours": 2.0})
            for multiplier in (0.25, 1.0, 4.0)
        ]
        + [
            Scenario("consolidation_frag", "consolidation",
                     {"seed": 11, "trials": 10, "num_machines": 20, "mean_load": 0.35})
        ]
    )


BASELINE_PREDICTORS = tuple(
    f"predictor_{label}" for label, name, _ in PREDICTOR_GRID if name != "arima"
)


def lp_solve_seconds(result) -> float:
    return result.phases["solve"]


#: The claims of EXPERIMENTS.md's "Ablations" table.
ABLATION_SHAPES = (
    # Eq. 17: mild omega buys packing headroom; heavy omega hits the
    # utility cliff and sheds work instead of buying machines.
    ("omega_1.0", "placement_ratio", ">", 0.6),
    ("omega_1.25", "placement_ratio", ">=", 0.9),
    ("omega_1.25", "machines", ">=", Rel(0.8, "omega_1.0")),
    ("omega_4.0", "machines", "<=", Rel(1.0, "omega_1.5")),
    # The MPC stays interactive at W = 8, and W = 1 still provisions.
    ("horizon_W8", lp_solve_seconds, "<", 30.0),
    ("horizon_W1", "z_first_step", ">", 0.0),
    # Section VI: ARIMA within 25% of the best baseline predictor.
    ("predictor_arima(2,0,1)", "mean_rmse", "<=", Rel(1.25, BASELINE_PREDICTORS)),
    # Preemption must not hurt the production tail.
    ("preemption_on", "delay_by_group.production.p95_s", "<=",
     Rel(1.05, "preemption_off", offset=1.0)),
    # Tight SLOs buy delay with energy; loose SLOs do the reverse.
    ("slo_0.25x", "energy_kwh", ">=", Rel(0.95, "slo_4.0x")),
    ("slo_4.0x", "mean_delay_s", ">=", Rel(0.8, "slo_0.25x")),
    # Migration releases a meaningful share of fragmented machines.
    ("consolidation_frag", "released", ">=", 30),
    ("consolidation_frag", "moves", ">", 0),
)


def ablation_shapes(report, serial=None) -> list[ShapeRow]:
    """:data:`ABLATION_SHAPES` over one ablation run."""
    return check_shapes(ABLATION_SHAPES, {r.name: r for r in report})


#: Fault scenarios the robustness suite replays: the machine faults of
#: :data:`repro.resilience.scenarios.SCENARIOS` (the network_faults suite
#: replays the fabric ones).
ROBUSTNESS_SCENARIOS = ("clean", "outage", "blackout", "poisson", "stragglers")


def _guarded_fault_scenarios(
    prefix: str, scenarios: tuple[str, ...], fault_seed: int, defaults
) -> list[Scenario]:
    """Guarded CBS (EWMA) under each named fault scenario, 2 h window."""
    trace = _bench_trace_params(defaults)
    return [
        Scenario(
            name=f"{prefix}_{scenario}",
            task="simulate",
            params={
                "trace": trace,
                "policy": "cbs",
                "predictor": "ewma",
                "guard": True,
                "fault_scenario": None if scenario == "clean" else scenario,
                "fault_seed": fault_seed,
                "window_hours": 2.0,
            },
        )
        for scenario in scenarios
    ]


def robustness_scenarios(
    defaults: BenchDefaults | None = None,
    scenarios: tuple[str, ...] = ROBUSTNESS_SCENARIOS,
) -> list[Scenario]:
    """Guarded CBS under the named fault scenarios, 2 h window."""
    return _guarded_fault_scenarios("fault", scenarios, 1, defaults)


def robustness_shapes(report, serial=None) -> list[ShapeRow]:
    """Graceful degradation (Fig. 8): the outage takes >= 25% of the largest
    Table II pool, yet the guarded controller keeps >= 85% of the clean
    scheduled count with no invalid decision; Poisson churn costs < 10%;
    stragglers slow machines down but kill nothing and cost < 10%."""
    from repro.energy.catalog import table2_fleet

    quarter_pool = math.ceil(0.25 * max(m.count for m in table2_fleet(0.1)))
    specs = (
        ("fault_outage", "resilience.machines_failed", ">=", quarter_pool),
        ("fault_outage", "tasks_killed", ">", 0),
        ("fault_outage", "tasks_scheduled", ">=", Rel(0.85, "fault_clean")),
        ("fault_outage", "resilience.invalid_decisions", "==", 0),
        ("fault_outage", "resilience.availability", "<", 1.0),
        ("fault_outage", "resilience.mttr_s", ">", 0.0),
        ("fault_poisson", "resilience.machines_failed", ">", 0),
        ("fault_poisson", "tasks_scheduled", ">=", Rel(0.9, "fault_clean")),
        ("fault_stragglers", "tasks_killed", "==", 0),
        ("fault_stragglers", "resilience.invalid_decisions", "==", 0),
        ("fault_stragglers", "tasks_scheduled", ">=", Rel(0.9, "fault_clean")),
    )
    return check_shapes(specs, {r.name: r for r in report})


#: Fabric fault scenarios the network_faults suite replays — the clean
#: baseline plus every fabric fault kind from
#: :mod:`repro.resilience.fabric`, in escalating severity order.
NETWORK_FAULT_SCENARIOS = (
    "clean",
    "link_degradation",
    "link_flapping",
    "partial_partition",
)


def network_faults_scenarios(
    defaults: BenchDefaults | None = None,
    scenarios: tuple[str, ...] = NETWORK_FAULT_SCENARIOS,
) -> list[Scenario]:
    """Guarded CBS under the fabric fault scenarios, 2 h window.

    Same shape as :func:`robustness_scenarios` but over the network fault
    universe: correlated link degradation, flapping links and a partial
    partition severing cell 4 from the ingest cell.
    """
    return _guarded_fault_scenarios("net", scenarios, 3, defaults)


#: Corruption fractions the dirty-trace suite replays; the first satisfies
#: the ">= 10% corrupted records" acceptance bar, the second stresses it.
TRACE_CORRUPTION_FRACTIONS = (0.1, 0.25)


def trace_corruption_scenarios(
    defaults: BenchDefaults | None = None,
    fractions: tuple[float, ...] = TRACE_CORRUPTION_FRACTIONS,
) -> list[Scenario]:
    """Dirty-trace ingestion: corrupt, sanitize, simulate with fallbacks.

    Each scenario saves the shared bench trace, corrupts a fraction of its
    task rows in place (``repro.resilience.scenarios.corrupt_tasks_csv``),
    re-ingests it through the sanitizer and runs guarded CBS with the
    forecast fallback chain — the data-plane counterpart of the
    machine-fault robustness matrix.
    """
    trace = _bench_trace_params(defaults)
    return [
        Scenario(
            name=f"dirty_{round(fraction * 100):d}pct",
            task="sanitized_simulate",
            params={
                "trace": trace,
                "corrupt_fraction": fraction,
                "corrupt_seed": 7,
                "policy": "cbs",
                "predictor": "fallback",
                "guard": True,
                "window_hours": 2.0,
            },
        )
        for fraction in fractions
    ]


def google_fleet_trace_params() -> dict:
    """Trace parameters of the sharded fleet bench (``REPRO_BENCH_FLEET_*``).

    The Google-trace-scale point: the paper's full ~12k-machine census
    over a horizon that emits >1M tasks, replayed by the sharded fleet
    layer (:mod:`repro.fleet`) rather than a single process.  Separate
    ``REPRO_BENCH_FLEET_*`` knobs so CI can shrink it independently.
    """
    return {
        "hours": bench_fleet_hours(),
        "seed": bench_seed(),
        "machines": bench_fleet_machines(),
        "load": bench_fleet_load(),
    }


def shards_missing(result) -> int:
    return len(result.summary["shards"]["missing"])


def google_fleet_shapes(merged: dict | None) -> list[ShapeRow]:
    """Every shard merged (``merged`` is ``None`` when none did), and the
    fleet serves the bulk of the workload."""
    specs = (
        ("merged", shards_missing, "==", 0),
        ("merged", "tasks_scheduled", ">", Rel(0.5, "merged", path="tasks_submitted")),
        ("merged", "energy_kwh", ">", 0.0),
    )
    results = {} if merged is None else {"merged": SimpleNamespace(summary=merged)}
    return check_shapes(specs, results)


#: The Fig. 26 pressure regime's trace: memory-bound, near fleet capacity.
PRESSURE_TRACE = {
    "hours": 2.0, "seed": 7, "machines": 400, "load": 0.75, "constraints": True,
}
#: Policies of the standard-regime comparison (Figs. 20-26).
FIGURE_POLICIES = ("baseline", "cbp", "cbs")


def figures_scenarios(defaults: BenchDefaults | None = None) -> list[Scenario]:
    """The paper's figures over the constrained bench trace.

    ``trace`` (Figs. 1-2, 6-7, 19) and ``classification`` (Figs. 10-18)
    read the memoized trace and classifier; ``static`` (Figs. 3-4) and the
    :data:`FIGURE_POLICIES` (Figs. 20-26) replay it under ``HarmonyConfig()``
    defaults; ``threshold`` is the reactive autoscaler as ``simulate`` runs
    it; ``pressure_*`` is Fig. 26's pressure pair on :data:`PRESSURE_TRACE`.
    """
    trace = _bench_trace_params(defaults)
    return [
        Scenario("trace", "trace_figures", {"trace": trace}),
        Scenario("classification", "classification_figures", {"trace": trace}),
        *(
            Scenario(policy, "figure_simulate", {"trace": trace, "policy": policy})
            for policy in ("static", *FIGURE_POLICIES)
        ),
        Scenario("threshold", "simulate",
                 {"trace": trace, "policy": "threshold", "predictor": "arima"}),
        *(
            Scenario(f"pressure_{policy}", "figure_simulate",
                     {"trace": PRESSURE_TRACE, "policy": policy})
            for policy in ("baseline", "cbs")
        ),
    ]


GROUPS = ("gratis", "other", "production")


def cpu_demand_swing(result) -> float:
    """Fig. 1: peak CPU demand over the lesser of 1.3 x the demand a tenth
    into the trace and 2 x its trough; above 1, demand fluctuates."""
    demand = result.summary["demand"]
    floor = min(1.3 * max(demand["cpu_tenth"], 1e-9), 2 * demand["cpu_min"])
    if floor <= 0:
        return math.inf if demand["cpu_max"] > floor else 0.0
    return demand["cpu_max"] / floor


def kwh_per_machine(result) -> float:
    """Fig. 26: energy per mean powered machine, i.e. the fleet mix's draw."""
    summary = result.summary
    return summary["energy_kwh"] / max(summary["mean_active_machines"], 1e-9)


#: The figures' claims (EXPERIMENTS.md's figure table).
FIGURES_SHAPES = (
    # Figs. 1-2: demand fluctuates and is never negative.
    ("trace", cpu_demand_swing, ">", 1.0),
    ("trace", "demand.cpu_min", ">=", 0.0),
    ("trace", "demand.memory_min", ">=", 0.0),
    # Fig. 6: most tasks are short; production runs longest.
    ("trace", "short_fraction", ">", 0.5),
    ("trace", "duration_cdf.gratis.36000", ">", 0.85),
    ("trace", "duration_cdf.production.100", "<=",
     Rel(1.0, "trace", path="duration_cdf.gratis.100")),
    # Fig. 7: the gratis mode holds 30-55 % of gratis tasks; sizes span
    # orders of magnitude with little cpu-memory correlation.
    ("trace", "sizes.gratis.modal_fraction", ">=", 0.30),
    ("trace", "sizes.gratis.modal_fraction", "<=", 0.55),
    *(("trace", f"sizes.{g}.span_orders", ">=", 1.5) for g in GROUPS),
    *(("trace", f"sizes.{g}.abs_correlation", "<", 0.7) for g in GROUPS),
    # Fig. 19: every group arrives; production is a smaller stream than other.
    *(("trace", f"arrival_rates.{g}", ">", 0.0) for g in GROUPS),
    ("trace", "arrival_rates.production", "<",
     Rel(1.0, "trace", path="arrival_rates.other")),
    # Figs. 10-18: every group has classes, tight within and uneven across,
    # and the k = 2 split yields long classes far longer than their siblings.
    *(("classification", f"classes_by_group.{g}", ">", 0) for g in GROUPS),
    ("classification", "cpu_std_over_mean", "<", 0.6),
    ("classification", "max_class_tasks", ">",
     Rel(10.0, "classification", path="min_class_tasks")),
    ("classification", "short_classes", ">", 0),
    ("classification", "long_classes", ">", 0),
    ("classification", "long_over_short_duration", ">", 3.0),
    # Figs. 3-4: the all-on cluster serves nearly everything at low
    # utilization, production no slower than gratis at any CDF point.
    ("static", "tasks_scheduled", ">", Rel(0.9, "static", path="tasks_submitted")),
    ("static", "figures.cpu_utilization_mean", "<", 0.6),
    *(
        ("static", f"figures.delay_cdf.production.{p}", ">=",
         Rel(1.0, "static", offset=-0.10, path=f"figures.delay_cdf.gratis.{p}"))
        for p in (1, 10, 60, 300, 1800)
    ),
    ("static", "figures.delay_cdf.production.300", ">", 0.5),
    # Fig. 20: CBS holds containers for every group once warm.
    ("cbs", "figures.containers_total", ">", 0.0),
    *(("cbs", f"figures.containers_warm.{g}", ">", 0.0) for g in GROUPS),
    # Figs. 21-22: every policy keeps machines on, CBS's premium over the
    # baseline is bounded, and the fleet tracks the workload's ramp.
    *((policy, "figures.powered_mean", ">", 0.0) for policy in FIGURE_POLICIES),
    ("cbs", "figures.powered_mean", "<=", Rel(1.5, "baseline")),
    *(
        (policy, "figures.powered_late", ">",
         Rel(1.0, policy, path="figures.powered_early"))
        for policy in ("baseline", "cbs")
    ),
    # Figs. 23-26: CBS keeps the production tail competitive, everybody
    # serves > 90 % of the work, CBS's fleet draws no more per machine and
    # its cost premium stays under 35 %.
    ("cbs", "delay_by_group.production.p95_s", "<=", Rel(1.25, "baseline")),
    *(
        (policy, "tasks_unscheduled", "<", Rel(0.1, policy, path="tasks_submitted"))
        for policy in FIGURE_POLICIES
    ),
    ("cbs", kwh_per_machine, "<=", Rel(1.02, "baseline")),
    ("cbs", "total_cost", "<", Rel(1.35, "baseline")),
    # Fig. 26 under pressure: the paper's direction, CBS saves > 8 % of cost
    # and uses less energy.
    ("pressure_cbs", "total_cost", "<", Rel(0.92, "pressure_baseline")),
    ("pressure_cbs", "energy_kwh", "<", Rel(1.0, "pressure_baseline")),
    # The reactive autoscaler serves most of the workload.
    ("threshold", "tasks_scheduled", ">",
     Rel(0.85, "threshold", path="tasks_submitted")),
)


def figures_shapes(report, serial=None) -> list[ShapeRow]:
    """:data:`FIGURES_SHAPES`, and Fig. 3's all-on cluster keeping > 90 % of
    the Table II fleet powered."""
    from repro.energy.catalog import table2_fleet

    fleet = sum(m.count for m in table2_fleet(0.1))
    specs = (*FIGURES_SHAPES, ("static", "figures.powered_mean", ">", 0.9 * fleet))
    return check_shapes(specs, {r.name: r for r in report})


#: Suite name -> builder, for the ``repro bench`` CLI.  The sharded
#: ``google_fleet`` run is deliberately absent: it does not fit the plain
#: scenario-list shape (it plans, fans out and *merges*) and is priced at
#: Google-trace scale, so it has its own command, ``repro fleet``, which
#: checks :func:`google_fleet_shapes`.
SUITES = {
    "scalability": lambda defaults: scalability_scenarios(),
    "ablation": ablation_scenarios,
    "robustness": robustness_scenarios,
    "network_faults": network_faults_scenarios,
    "trace_corruption": trace_corruption_scenarios,
    "figures": figures_scenarios,
}
#: Suite name -> ``shapes(report, serial)``; ``serial`` is ``--verify``'s.
SHAPES = {
    "scalability": scalability_shapes,
    "ablation": ablation_shapes,
    "robustness": robustness_shapes,
    "figures": figures_shapes,
}
