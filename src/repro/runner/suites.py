"""Canonical scenario suites.

The pytest benches (``benchmarks/bench_*.py``) and the ``repro bench`` CLI
both build their scenario lists here, from the shared defaults in
:mod:`repro.runner.defaults` — one definition of each sweep, everywhere.
"""

from __future__ import annotations

from repro.runner.defaults import (
    BenchDefaults,
    bench_defaults,
    bench_repeats,
    bench_replay_hours,
    bench_replay_load,
    bench_replay_machines,
    bench_seed,
)
from repro.runner.scenario import Scenario

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
    ] + [replay_scenario()]


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
                "load": bench_replay_load(),
            },
            "policy": "threshold",
        },
    )


def _bench_trace_params(defaults: BenchDefaults | None) -> dict:
    defaults = defaults or bench_defaults()
    params = defaults.trace_params()
    # The figure benches' shared trace draws placement constraints against
    # the Table II fleet; the runner suites replay the identical trace.
    params["constraints"] = True
    return params


def omega_scenarios(defaults: BenchDefaults | None = None) -> list[Scenario]:
    """Eq. 17 over-provisioning sweep (one scenario per omega)."""
    trace = _bench_trace_params(defaults)
    return [
        Scenario(
            name=f"omega_{omega}",
            task="omega_round",
            params={"trace": trace, "omega": omega, "demand_seed": 5},
        )
        for omega in (1.0, 1.25, 1.5, 2.0, 3.0, 4.0)
    ]


def horizon_scenarios(defaults: BenchDefaults | None = None) -> list[Scenario]:
    """MPC look-ahead sweep (one scenario per W)."""
    trace = _bench_trace_params(defaults)
    return [
        Scenario(
            name=f"horizon_W{W}",
            task="horizon_solve",
            params={"trace": trace, "W": W},
        )
        for W in (1, 2, 4, 8)
    ]


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


def predictor_scenarios(defaults: BenchDefaults | None = None) -> list[Scenario]:
    """Arrival-predictor ablation (one scenario per predictor)."""
    trace = _bench_trace_params(defaults)
    return [
        Scenario(
            name=f"predictor_{label}",
            task="predictor_eval",
            params={
                "trace": trace,
                "predictor": name,
                "predictor_kwargs": dict(kwargs),
                "warmup": 12,
            },
        )
        for label, name, kwargs in PREDICTOR_GRID
    ]


def preemption_scenarios(defaults: BenchDefaults | None = None) -> list[Scenario]:
    """CBS with and without priority preemption, 2 h window."""
    trace = _bench_trace_params(defaults)
    return [
        Scenario(
            name=f"preemption_{'on' if flag else 'off'}",
            task="simulate",
            params={
                "trace": trace,
                "policy": "cbs",
                "predictor": "ewma",
                "enable_preemption": flag,
                "window_hours": 2.0,
            },
        )
        for flag in (False, True)
    ]


def slo_scenarios(defaults: BenchDefaults | None = None) -> list[Scenario]:
    """SLO-tightness sweep (energy/delay trade-off), 2 h window."""
    trace = _bench_trace_params(defaults)
    return [
        Scenario(
            name=f"slo_{multiplier}x",
            task="simulate",
            params={
                "trace": trace,
                "policy": "cbs",
                "predictor": "ewma",
                "slo_multiplier": multiplier,
                "window_hours": 2.0,
            },
        )
        for multiplier in (0.25, 1.0, 4.0)
    ]


def consolidation_scenarios() -> list[Scenario]:
    """Migration consolidation over fragmented fleets."""
    return [
        Scenario(
            name="consolidation_frag",
            task="consolidation",
            params={"seed": 11, "trials": 10, "num_machines": 20, "mean_load": 0.35},
        )
    ]


def ablation_scenarios(defaults: BenchDefaults | None = None) -> list[Scenario]:
    """Every ablation sweep as one suite."""
    return (
        omega_scenarios(defaults)
        + horizon_scenarios(defaults)
        + predictor_scenarios(defaults)
        + preemption_scenarios(defaults)
        + slo_scenarios(defaults)
        + consolidation_scenarios()
    )


#: Fault scenarios the robustness suite replays (a subset of
#: :data:`repro.resilience.scenarios.SCENARIOS` — stragglers and poisson
#: stay CLI-only to keep the bench matrix at its historical three rows).
ROBUSTNESS_SCENARIOS = ("clean", "outage", "blackout")


def robustness_scenarios(
    defaults: BenchDefaults | None = None,
    scenarios: tuple[str, ...] = ROBUSTNESS_SCENARIOS,
) -> list[Scenario]:
    """Guarded CBS under the named fault scenarios, 2 h window."""
    trace = _bench_trace_params(defaults)
    return [
        Scenario(
            name=f"fault_{scenario}",
            task="simulate",
            params={
                "trace": trace,
                "policy": "cbs",
                "predictor": "ewma",
                "guard": True,
                "fault_scenario": None if scenario == "clean" else scenario,
                "fault_seed": 1,
                "window_hours": 2.0,
            },
        )
        for scenario in scenarios
    ]


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
    trace = _bench_trace_params(defaults)
    return [
        Scenario(
            name=f"net_{scenario}",
            task="simulate",
            params={
                "trace": trace,
                "policy": "cbs",
                "predictor": "ewma",
                "guard": True,
                "fault_scenario": None if scenario == "clean" else scenario,
                "fault_seed": 3,
                "window_hours": 2.0,
            },
        )
        for scenario in scenarios
    ]


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
    from repro.runner.defaults import (
        bench_fleet_hours,
        bench_fleet_load,
        bench_fleet_machines,
    )

    return {
        "hours": bench_fleet_hours(),
        "seed": bench_seed(),
        "machines": bench_fleet_machines(),
        "load": bench_fleet_load(),
    }


#: Suite name -> builder, for the ``repro bench`` CLI.  The sharded
#: ``google_fleet`` suite is deliberately absent: it does not fit the
#: plain scenario-list shape (it plans, fans out and *merges*), is priced
#: at Google-trace scale, and so must be requested explicitly — see
#: ``repro fleet`` / ``repro bench google_fleet``.
SUITES = {
    "scalability": lambda defaults: scalability_scenarios(),
    "ablation": ablation_scenarios,
    "robustness": robustness_scenarios,
    "network_faults": network_faults_scenarios,
    "trace_corruption": trace_corruption_scenarios,
}
