"""Built-in scenario tasks.

Each task is a pure function of its picklable parameter dict: all
randomness is seeded from the params, so a scenario produces bit-identical
summaries whether it runs serially, in a worker process, or on a different
worker count.  Expensive shared artifacts (the synthetic trace and the
classifier fitted on it) are memoized *per process*, keyed by the exact
trace parameters — pool workers serving many scenarios pay for them once.

Every task returns ``{"summary": <deterministic JSON-able dict>,
"phases": <wall-clock timings dict>}``; only ``summary`` participates in
determinism checks.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.runner.defaults import trace_config_from_params
from repro.runner.scenario import register_task

#: trace-params key -> [Trace, TaskClassifier or None]; per-process memo.
_TRACE_CACHE: dict[tuple, list] = {}


def _trace_key(params: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in params.items()))


def _trace(trace_params: dict, timer=None):
    """The memoized trace for one trace parameter dict; a build is timed
    into ``timer`` (a :class:`~repro.simulation.timing.PhaseTimer`, if
    given) as the ``trace`` phase."""
    key = _trace_key(trace_params)
    if key not in _TRACE_CACHE:
        from repro.simulation.timing import PhaseTimer
        from repro.trace import generate_trace

        with (timer or PhaseTimer()).phase("trace"):
            _TRACE_CACHE[key] = [
                generate_trace(trace_config_from_params(trace_params)), None
            ]
    return _TRACE_CACHE[key][0]


def _trace_and_classifier(trace_params: dict, timer=None):
    """The (trace, fitted classifier) pair for one trace parameter dict.

    When it builds them (not on a memo hit), the build is timed into
    ``timer`` as the ``trace`` and ``classifier_fit`` phases.
    """
    trace = _trace(trace_params, timer)
    entry = _TRACE_CACHE[_trace_key(trace_params)]
    if entry[1] is None:
        from repro.classification import ClassifierConfig, TaskClassifier
        from repro.simulation.timing import PhaseTimer

        seed = trace_config_from_params(trace_params).seed
        with (timer or PhaseTimer()).phase("classifier_fit"):
            entry[1] = TaskClassifier(ClassifierConfig(seed=seed)).fit(
                list(trace.tasks)
            )
    return trace, entry[1]


@register_task("simulate")
def simulate_task(params: dict) -> dict:
    """One end-to-end :class:`HarmonySimulation` run.

    Params: ``trace`` (dict, see :func:`trace_config_from_params`),
    ``policy``, ``predictor``, ``guard``, ``enable_preemption``,
    ``slo_multiplier``, ``fault_scenario`` (+ ``fault_seed``) and
    ``window_hours`` (clip the trace to its first H hours).
    """
    from repro.containers import ContainerManagerConfig
    from repro.containers.manager import default_delay_slos
    from repro.resilience.scenarios import build_scenario_plan
    from repro.simulation import HarmonyConfig, HarmonySimulation
    from repro.simulation.timing import PhaseTimer

    timer = PhaseTimer()
    trace, classifier = _trace_and_classifier(params.get("trace", {}), timer)
    window_hours = params.get("window_hours")
    if window_hours is not None:
        trace = trace.window(0.0, min(float(window_hours) * 3600.0, trace.horizon))

    config_kwargs: dict = {
        "policy": params.get("policy", "cbs"),
        "predictor": params.get("predictor", "ewma"),
        "guard": bool(params.get("guard", False)),
        "enable_preemption": bool(params.get("enable_preemption", False)),
    }
    multiplier = params.get("slo_multiplier")
    if multiplier is not None:
        base = HarmonyConfig()
        config_kwargs["manager"] = ContainerManagerConfig(
            delay_slos={
                g: s * float(multiplier) for g, s in default_delay_slos().items()
            },
            capacity_ladders=(
                tuple(sorted({m.cpu_capacity for m in base.fleet})),
                tuple(sorted({m.memory_capacity for m in base.fleet})),
            ),
        )
    scenario = params.get("fault_scenario")
    if scenario is not None:
        config_kwargs["fault_plan"] = build_scenario_plan(
            scenario, trace.horizon, seed=int(params.get("fault_seed", 0))
        )

    config = HarmonyConfig(**config_kwargs)
    result = HarmonySimulation(config, trace, classifier=classifier).run()
    with timer.phase("summary"):
        summary = result.summary()
    return {"summary": summary, "phases": {**timer.timings, **result.phase_timings}}


#: Delay-CDF points (seconds) of Figs. 4 and 23-25.
DELAY_CDF_POINTS = (1, 10, 60, 300, 1800)
#: Duration-CDF points (seconds) of Fig. 6.
DURATION_CDF_POINTS = (10, 100, 1000, 36000, 432000)
#: Fig. 7's modal gratis request (cpu, memory).
GRATIS_MODE = (0.0125, 0.0159)


def _cdf_at(values, points) -> dict:
    """Fraction of ``values`` <= each point, keyed ``f"{point:g}"``; ``None``
    for an empty sample."""
    values = np.sort(np.asarray(values, dtype=float))
    return {
        f"{point:g}": (
            float(np.searchsorted(values, point, side="right")) / values.size
            if values.size else None
        )
        for point in points
    }


def _mean(values) -> float | None:
    values = np.asarray(values, dtype=float)
    return float(values.mean()) if values.size else None


@register_task("figure_simulate")
def figure_simulate_task(params: dict) -> dict:
    """One ``HarmonyConfig(policy=...)`` run, plus the series of Figs. 3-4
    and 20-22.

    Params: ``trace``, ``policy``.  Unlike ``simulate``, the run fits its
    own classifier from the config, as :func:`run_policy_comparison` does.
    The summary is ``summary()`` plus ``figures``: the powered-machine mean
    past the first sample, over samples 2-6 and over the last five; the mean
    CPU utilization; per-group delay CDFs (censored at the horizon) at
    :data:`DELAY_CDF_POINTS`; per-group peak containers past the first two
    samples, and the container total.
    """
    from repro.simulation import HarmonyConfig, HarmonySimulation
    from repro.simulation.timing import PhaseTimer
    from repro.trace import PriorityGroup

    timer = PhaseTimer()
    trace = _trace(params.get("trace", {}), timer)
    config = HarmonyConfig(policy=params.get("policy", "cbs"))
    result = HarmonySimulation(config, trace).run()
    with timer.phase("summary"):
        summary = result.summary()
    with timer.phase("figures"):
        metrics = result.metrics
        _, powered = metrics.machines_series()
        _, containers = metrics.containers_series()
        delays = metrics.delays_by_group(include_unscheduled_at=trace.horizon)
        summary["figures"] = {
            "powered_mean": _mean(powered[1:]),
            "powered_early": _mean(powered[2:7]),
            "powered_late": _mean(powered[-5:]),
            "cpu_utilization_mean": _mean(
                [u for _, u, _ in metrics.utilization_timeline]
            ),
            "delay_cdf": {
                g.name.lower(): _cdf_at(delays[g], DELAY_CDF_POINTS)
                for g in PriorityGroup
            },
            "containers_warm": {
                g.name.lower(): float(containers[g][2:].max(initial=0))
                for g in PriorityGroup
            },
            "containers_total": float(sum(s.sum() for s in containers.values())),
        }
    return {"summary": summary, "phases": {**timer.timings, **result.phase_timings}}


@register_task("trace_figures")
def trace_figures_task(params: dict) -> dict:
    """The trace characterization of Figs. 1-2, 6-7 and 19.

    Params: ``trace``.  CPU demand's peak, trough and value a tenth into
    the trace, and memory demand's trough (300 s bins); the share of tasks
    under 100 s and per-group duration CDFs at :data:`DURATION_CDF_POINTS`;
    per-group size span (orders of magnitude), |cpu-memory correlation| and
    share at :data:`GRATIS_MODE`; per-group arrival rates summed over the
    300 s bins.
    """
    from repro.simulation.timing import PhaseTimer
    from repro.trace import (
        PriorityGroup,
        arrival_rate_series,
        demand_timeseries,
        duration_cdf_by_group,
        size_scatter_by_group,
    )

    timer = PhaseTimer()
    trace = _trace(params.get("trace", {}), timer)
    with timer.phase("figures"):
        _, cpu, memory = demand_timeseries(trace, 300.0)
        durations = duration_cdf_by_group(trace)
        scatters = size_scatter_by_group(trace)
        rates = arrival_rate_series(trace, 300.0)
        all_durations = np.array([t.duration for t in trace.tasks])
        summary = {
            "demand": {
                "cpu_max": float(cpu.max()),
                "cpu_min": float(cpu.min()),
                "cpu_tenth": float(cpu[len(cpu) // 10]),
                "memory_min": float(memory.min()),
            },
            "short_fraction": float((all_durations < 100.0).mean()),
            "duration_cdf": {
                g.name.lower(): _cdf_at(durations[g][0], DURATION_CDF_POINTS)
                for g in PriorityGroup
            },
            "sizes": {
                g.name.lower(): {
                    "span_orders": scatters[g].size_span_orders,
                    "abs_correlation": abs(scatters[g].cpu_memory_correlation),
                    "modal_fraction": scatters[g].modal_fraction(*GRATIS_MODE),
                }
                for g in PriorityGroup
            },
            "arrival_rates": {
                g.name.lower(): float(rates[g].sum()) for g in PriorityGroup
            },
        }
    return {"summary": summary, "phases": timer.timings}


@register_task("classification_figures")
def classification_figures_task(params: dict) -> dict:
    """The task classes of Figs. 10-18 (Section IX-A).

    Params: ``trace`` (the memoized classifier's).  Per group, the class
    count; the task-weighted mean cpu std/mean; the largest and smallest
    class; short and long class counts; and the least ratio of a long
    class's mean duration to its short sibling's (``None`` without a pair).
    """
    from repro.classification import DurationCategory
    from repro.simulation.timing import PhaseTimer
    from repro.trace import PriorityGroup

    timer = PhaseTimer()
    _, classifier = _trace_and_classifier(params.get("trace", {}), timer)
    with timer.phase("figures"):
        leaves = classifier.classes
        weighted = [
            (leaf.cpu_std / leaf.cpu_mean, leaf.num_tasks)
            for leaf in leaves if leaf.cpu_mean > 0
        ]
        ratios = [
            leaf.duration_mean / sibling.duration_mean
            for leaf in leaves
            if leaf.duration_category is DurationCategory.LONG
            and (sibling := classifier.sibling(leaf)) is not None
        ]
        counts = [leaf.num_tasks for leaf in leaves]
        categories = [leaf.duration_category for leaf in leaves]
        summary = {
            "classes_by_group": {
                g.name.lower(): len(classifier.classes_in_group(g))
                for g in PriorityGroup
            },
            "cpu_std_over_mean": float(
                np.average([r for r, _ in weighted], weights=[w for _, w in weighted])
            ),
            "max_class_tasks": max(counts),
            "min_class_tasks": min(counts),
            "short_classes": categories.count(DurationCategory.SHORT),
            "long_classes": categories.count(DurationCategory.LONG),
            "long_over_short_duration": min(ratios) if ratios else None,
        }
    return {"summary": summary, "phases": timer.timings}


def synthetic_relax_problem(num_classes: int, num_machine_types: int,
                            W: int = 4, seed: int = 0):
    """The randomized CBS-RELAX instance of the scalability bench."""
    from repro.provisioning import (
        ContainerType,
        MachineClass,
        ProvisioningProblem,
        UtilityFunction,
    )

    rng = np.random.default_rng(seed)
    machines = tuple(
        MachineClass(
            platform_id=m + 1,
            name=f"type{m}",
            capacity=(float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.2, 1.0))),
            available=int(rng.integers(100, 2000)),
            idle_watts=float(rng.uniform(60, 320)),
            alpha_watts=(float(rng.uniform(30, 250)), float(rng.uniform(5, 60))),
            switch_cost=0.02,
        )
        for m in range(num_machine_types)
    )
    containers = tuple(
        ContainerType(
            class_id=n,
            name=f"c{n}",
            size=(float(rng.uniform(0.005, 0.15)), float(rng.uniform(0.005, 0.15))),
            utility=UtilityFunction.capped_linear(0.01, 100_000),
        )
        for n in range(num_classes)
    )
    demand = rng.uniform(0, 200, size=(W, num_classes))
    return ProvisioningProblem(
        machines=machines,
        containers=containers,
        demand=demand,
        prices=np.full(W, 0.1),
        interval_seconds=300.0,
    )


@register_task("relax_solve")
def relax_solve_task(params: dict) -> dict:
    """Solve randomized CBS-RELAX instances of one size.

    Params: ``num_classes``, ``num_types``, ``W``, ``seed``, ``repeats``.
    Repeats re-solve fresh instances (seeds ``seed + i``) — the unit of
    work the scalability sweep parallelizes.
    """
    from repro.provisioning import CbsRelaxSolver

    num_classes = int(params["num_classes"])
    num_types = int(params["num_types"])
    W = int(params.get("W", 4))
    seed = int(params.get("seed", 0))
    repeats = int(params.get("repeats", 1))

    solver = CbsRelaxSolver()
    objectives = []
    start = perf_counter()
    for i in range(repeats):
        problem = synthetic_relax_problem(num_classes, num_types, W=W, seed=seed + i)
        solution = solver.solve(problem)
        objectives.append(float(solution.objective))
    elapsed = perf_counter() - start
    variables = 4 * (num_types + num_types * num_classes + 2 * num_types + num_classes)
    return {
        "summary": {
            "num_classes": num_classes,
            "num_types": num_types,
            "W": W,
            "repeats": repeats,
            "lp_variables": variables,
            "objectives": objectives,
        },
        "phases": {"solve": elapsed},
    }


#: Decades of offered load the ``mgn_sizing`` grid covers: 10 .. 10**5 Erlangs.
SIZING_DECADES = (1, 2, 3, 4, 5)


@register_task("mgn_sizing")
def mgn_sizing_task(params: dict) -> dict:
    """Invert Eq. 1 over a seeded grid of classes, decade by decade.

    Params: ``inversions`` (per decade), ``seed``, ``repeats``.  Decade
    ``k`` draws offered loads in ``[10**k, 1.1 * 10**k]`` Erlangs, service
    rates in ``[0.01, 1]`` and delay targets from a tenth to ten times
    ``1 / (mu sqrt(a))`` (the square-root-staffing regime the controller
    sizes in).  Every repeat clears the queueing caches and inverts the
    whole grid cold; the container counts go in the summary, and each
    decade's sizing time is its own ``sizing_1e<k>`` phase.
    """
    from repro.queueing import clear_queueing_caches, required_containers

    rng = np.random.default_rng(int(params.get("seed", 0)))
    inversions = int(params.get("inversions", 1))
    repeats = int(params.get("repeats", 1))
    grid = {}
    for k in SIZING_DECADES:
        loads = 10.0**k * rng.uniform(1.0, 1.1, inversions)
        service_rates = rng.uniform(0.01, 1.0, inversions)
        spread = 10.0 ** rng.uniform(-1.0, 1.0, inversions)
        scvs = rng.choice([0.0, 0.5, 1.0, 2.0, 4.0], inversions)
        grid[k] = [
            (float(a * mu), float(mu), float(c / (mu * np.sqrt(a))), float(scv))
            for a, mu, c, scv in zip(loads, service_rates, spread, scvs)
        ]
    containers: dict[str, list[int]] = {}
    phases = {f"sizing_1e{k}": 0.0 for k in SIZING_DECADES}
    for _ in range(repeats):
        clear_queueing_caches()
        for k, classes in grid.items():
            start = perf_counter()
            counts = [required_containers(*c) for c in classes]
            phases[f"sizing_1e{k}"] += perf_counter() - start
            containers[f"1e{k}"] = counts
    clear_queueing_caches()
    return {
        "summary": {
            "inversions": inversions,
            "repeats": repeats,
            "containers": containers,
        },
        "phases": phases,
    }


@register_task("omega_round")
def omega_round_task(params: dict) -> dict:
    """Solve + round one CBS instance at a given omega (Eq. 17 ablation).

    Params: ``trace`` (classifier source), ``omega``, ``demand_seed``.
    """
    from repro.containers import ContainerManager, ContainerManagerConfig
    from repro.energy import table2_fleet
    from repro.provisioning import CbsRelaxSolver, FirstFitRounder, build_problem

    _, classifier = _trace_and_classifier(params.get("trace", {}))
    omega = float(params["omega"])
    fleet = table2_fleet(0.1)
    manager = ContainerManager(classifier, ContainerManagerConfig())
    class_ids = sorted(manager.specs)
    rng = np.random.default_rng(int(params.get("demand_seed", 5)))
    demand = np.maximum(
        rng.poisson(8.0, size=(1, len(class_ids))).astype(float), 0
    )
    problem = build_problem(
        fleet,
        manager.specs,
        demand=demand,
        prices=np.array([0.1]),
        interval_seconds=300.0,
        overprovision=np.full(len(class_ids), omega),
    )
    solver = CbsRelaxSolver()
    start = perf_counter()
    solution = solver.solve(problem)
    plan = FirstFitRounder().round(problem, solution)
    elapsed = perf_counter() - start
    return {
        "summary": {
            "omega": omega,
            "z_fractional": float(solution.z[0].sum()),
            "machines": int(plan.active.sum()),
            "placed": int(plan.total_packed().sum()),
            "dropped": int(plan.dropped.sum()),
            "placement_ratio": float(plan.placement_ratio(solution.scheduled(0))),
        },
        "phases": {"solve_round": elapsed},
    }


@register_task("horizon_solve")
def horizon_solve_task(params: dict) -> dict:
    """Solve one MPC instance at look-ahead W with a step-2 demand surge.

    Params: ``trace`` (classifier source), ``W``.
    """
    from repro.containers import ContainerManager, ContainerManagerConfig
    from repro.energy import table2_fleet
    from repro.provisioning import CbsRelaxSolver, build_problem

    _, classifier = _trace_and_classifier(params.get("trace", {}))
    W = int(params["W"])
    fleet = table2_fleet(0.1)
    manager = ContainerManager(classifier, ContainerManagerConfig())
    N = len(manager.specs)
    base = np.full(N, 4.0)
    demand = np.tile(base, (W, 1))
    if W >= 3:
        demand[2:] = base * 5.0
    problem = build_problem(
        fleet,
        manager.specs,
        demand=demand,
        prices=np.full(W, 0.1),
        interval_seconds=300.0,
    )
    solver = CbsRelaxSolver()
    start = perf_counter()
    solution = solver.solve(problem, initial_active=np.zeros(len(fleet)))
    elapsed = perf_counter() - start
    return {
        "summary": {
            "W": W,
            "z_first_step": float(solution.z[0].sum()),
            "z_last_step": float(solution.z[-1].sum()),
            "objective": float(solution.objective),
        },
        "phases": {"solve": elapsed},
    }


@register_task("predictor_eval")
def predictor_eval_task(params: dict) -> dict:
    """Rolling-origin forecast evaluation of one predictor on one trace.

    Params: ``trace``, ``predictor``, ``predictor_kwargs``, ``warmup``.
    """
    from repro.forecasting import make_predictor, rolling_origin_evaluation
    from repro.trace import PriorityGroup, bin_arrivals

    trace, _ = _trace_and_classifier(params.get("trace", {}))
    name = params["predictor"]
    kwargs = dict(params.get("predictor_kwargs", {}))
    if "order" in kwargs:
        kwargs["order"] = tuple(kwargs["order"])
    warmup = int(params.get("warmup", 12))

    series = bin_arrivals(trace.tasks, trace.horizon, 300.0)
    by_group: dict[str, dict[str, float]] = {}
    start = perf_counter()
    for group in PriorityGroup:
        counts = series.counts.get(group)
        if counts is None or counts.sum() < 10:
            continue
        # CI-scale traces may be shorter than the requested warmup; clamp
        # deterministically so the same scenario runs at any REPRO_BENCH_HOURS.
        effective_warmup = min(warmup, max(len(counts) // 2, 1))
        score = rolling_origin_evaluation(
            counts, lambda: make_predictor(name, **kwargs), warmup=effective_warmup
        )
        by_group[group.name.lower()] = {
            "mae": float(score.mae),
            "rmse": float(score.rmse),
        }
    elapsed = perf_counter() - start
    rmses = [v["rmse"] for v in by_group.values()]
    return {
        "summary": {
            "predictor": name,
            "by_group": by_group,
            "mean_rmse": float(np.mean(rmses)) if rmses else 0.0,
        },
        "phases": {"evaluate": elapsed},
    }


@register_task("consolidation")
def consolidation_task(params: dict) -> dict:
    """Migration-driven consolidation over fragmented machine states.

    Params: ``seed``, ``trials``, ``num_machines``, ``mean_load``.
    """
    from repro.provisioning import consolidation_savings
    from repro.provisioning.rounding import MachineAssignment

    rng = np.random.default_rng(int(params.get("seed", 11)))
    trials = int(params.get("trials", 10))
    num_machines = int(params.get("num_machines", 20))
    mean_load = float(params.get("mean_load", 0.35))
    sizes = {0: (0.05, 0.08), 1: (0.12, 0.10), 2: (0.25, 0.20)}

    total_released = total_moves = 0
    net_total = 0.0
    start = perf_counter()
    for _ in range(trials):
        machines = []
        for machine_id in range(num_machines):
            m = MachineAssignment(
                platform_id=1, capacity=(1.0, 1.0), used=np.zeros(2),
                containers={}, machine_id=machine_id,
            )
            target_load = float(np.clip(rng.normal(mean_load, 0.15), 0.05, 0.85))
            while m.used.max() < target_load:
                n = int(rng.integers(0, 3))
                if not m.fits(sizes[n]):
                    break
                m.add(n, sizes[n])
            machines.append(m)
        used = sum(m.used[0] for m in machines)
        target = max(int(np.ceil(used / 0.9)), 1)
        plan, net = consolidation_savings(
            machines, sizes, target_active=target,
            idle_watts=138.0, horizon_seconds=3600.0,
            price_per_kwh=0.10, migration_cost=0.001,
        )
        total_released += len(plan.released_machines)
        total_moves += plan.num_moves
        net_total += net
    elapsed = perf_counter() - start
    return {
        "summary": {
            "trials": trials,
            "released": total_released,
            "moves": total_moves,
            "net_dollars": float(net_total),
        },
        "phases": {"consolidate": elapsed},
    }


# The worker-fault injection task ("transient_fault") lives with the fault
# catalog, and the sharded-fleet task ("fleet_shard") with the fleet layer;
# importing them here guarantees every worker — which has this module
# preloaded, or imports it on a registry miss — sees them too.
import repro.fleet.tasks  # noqa: E402,F401
import repro.resilience.scenarios  # noqa: E402,F401
