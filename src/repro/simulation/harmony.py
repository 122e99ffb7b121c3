"""End-to-end HARMONY runs: trace in, comparable policy results out.

:class:`HarmonySimulation` wires the whole pipeline together — classifier,
container manager, predictor-driven MPC controller (or baseline), cluster
simulator, energy meter — exactly as Figure 8 sketches the architecture.
:func:`run_policy_comparison` reruns the same trace under CBS, CBP and the
heterogeneity-oblivious baseline for the Figs. 21-26 comparisons.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from repro.classification.classifier import ClassifierConfig, TaskClassifier
from repro.containers.manager import ContainerManager, ContainerManagerConfig
from repro.energy.catalog import table2_fleet
from repro.energy.models import MachineModel
from repro.energy.prices import PriceSchedule, constant_price
from repro.forecasting.predictors import make_predictor
from repro.provisioning.autoscaler import ThresholdAutoscaler
from repro.provisioning.baseline import BaselineProvisioner
from repro.provisioning.cbp import CbpController
from repro.provisioning.controller import (
    ControllerConfig,
    HarmonyController,
    ProvisioningDecision,
)
from repro.resilience.faults import FaultPlan, FaultStats
from repro.resilience.guard import GuardedController, GuardStats
from repro.simulation.cluster import ClusterConfig, ClusterSimulator, ClusterView
from repro.simulation.control import ControlPipeline
from repro.simulation.metrics import SimulationMetrics
from repro.simulation.timing import PhaseTimer
from repro.trace.sanitize import SanitizationReport
from repro.trace.schema import PriorityGroup, Task, Trace

POLICIES = ("cbs", "cbp", "baseline", "threshold", "static")

#: Replay engines: the per-task-object oracle and the vectorized columnar
#: core (:mod:`repro.simulation.columnar`), contractually bit-identical.
ENGINES = ("object", "columnar")

#: Eq. 17's omega for the cbs / cbp pipelines: headroom for first-fit
#: bin-packing slack, so the rounder can realize (nearly) everything the
#: LP schedules.  ``ControllerConfig`` itself defaults to 1.0 (no
#: headroom), which the controller's unit tests rely on.
OVERPROVISION = 1.05


@dataclass(frozen=True)
class HarmonyConfig:
    """One-stop configuration for an end-to-end run.

    Attributes
    ----------
    policy:
        "cbs" (Algorithm 1), "cbp" (Section VIII-B), "baseline"
        (Section IX-B) or "static" (all machines always on — used for the
        Section III trace-characterization figures).
    fleet:
        Machine models to simulate; defaults to the Table II fleet at 1/10
        scale.
    control_interval / price / predictor:
        Controller knobs (Algorithm 1, Section VI); the MPC horizon W and
        Eq. 17's omega are :class:`ControllerConfig`'s default and
        :data:`OVERPROVISION`.
    manager:
        Container manager knobs; by default the Eq. 3 bound of
        :class:`ContainerManagerConfig` with the fleet's capacity ladders.
    classifier_sample:
        Max tasks used to fit the classifier (sampled deterministically).
    """

    policy: str = "cbs"
    fleet: tuple[MachineModel, ...] = field(default_factory=lambda: table2_fleet(0.1))
    control_interval: float = 300.0
    price: PriceSchedule = field(default_factory=constant_price)
    predictor: str = "arima"
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    manager: ContainerManagerConfig | None = None
    classifier_sample: int = 40_000
    #: Enable priority preemption in the simulated scheduler (the trace's
    #: priority semantics: production evicts gratis when room is tight).
    enable_preemption: bool = False
    #: Fault scenario injected into the run (see :mod:`repro.resilience`).
    fault_plan: FaultPlan | None = None
    #: Wrap the policy in a :class:`~repro.resilience.guard.GuardedController`
    #: (decision validation, delta clamping, forecast circuit breaker).
    guard: bool = False
    #: Replay engine: "columnar" (vectorized batches, what every run uses)
    #: or "object" (per-task dispatch; the oracle the differential tests
    #: compare against, bit-identical summaries).
    engine: str = "columnar"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.classifier_sample < 100:
            raise ValueError(
                f"classifier_sample must be >= 100, got {self.classifier_sample}"
            )

    def with_policy(self, policy: str) -> "HarmonyConfig":
        return replace(self, policy=policy)


class _BaselinePolicy:
    """Adapter: BaselineProvisioner -> cluster Policy protocol."""

    def __init__(self, provisioner: BaselineProvisioner) -> None:
        self.provisioner = provisioner

    def decide(self, view: ClusterView) -> ProvisioningDecision:
        return self.provisioner.decide(
            view.time, view.demand_cpu, view.demand_memory, view.available
        )


class _ThresholdPolicy:
    """Adapter: ThresholdAutoscaler -> cluster Policy protocol."""

    def __init__(self, autoscaler: ThresholdAutoscaler) -> None:
        self.autoscaler = autoscaler

    def decide(self, view: ClusterView) -> ProvisioningDecision:
        return self.autoscaler.decide(
            view.time,
            view.demand_cpu,
            view.demand_memory,
            powered=view.powered,
            available=view.available,
        )


class _StaticPolicy:
    """Every machine always on, no quotas (the paper's status quo, Fig. 3)."""

    def __init__(self, fleet: tuple[MachineModel, ...]) -> None:
        self.active = {m.platform_id: m.count for m in fleet}

    def decide(self, view: ClusterView) -> ProvisioningDecision:
        return ProvisioningDecision(time=view.time, active=dict(self.active), quotas=None)


@dataclass
class SimulationResult:
    """Everything one policy run produced."""

    policy: str
    config: HarmonyConfig
    metrics: SimulationMetrics
    energy_kwh: float
    energy_cost: float
    switch_cost: float
    switch_events: int
    horizon: float
    classifier: TaskClassifier
    decisions: list[ProvisioningDecision] = field(default_factory=list)
    tasks_killed: int = 0
    tasks_preempted: int = 0
    relabel_events: int = 0
    #: What the guard had to do, when ``HarmonyConfig.guard`` was on.
    guard_stats: GuardStats | None = None
    #: (time, "mpc" | "reactive") per control tick, when the guard was on.
    guard_timeline: list[tuple[float, str]] = field(default_factory=list)
    #: What the fault injector actually did, when faults were configured.
    fault_stats: FaultStats | None = None
    #: Wall-clock seconds per pipeline phase (classifier fit, task
    #: labelling, policy build, prepare, replay) — feeds the scenario
    #: runner's ``BENCH_<name>.json`` perf baselines.  Not part of
    #: :meth:`summary`, which must stay deterministic for a given scenario.
    phase_timings: dict[str, float] = field(default_factory=dict)
    #: What the trace sanitizer did, when the run ingested a dirty trace.
    sanitization: SanitizationReport | None = None
    #: Aggregated forecast fallback-chain activity (rung counts + per-class
    #: degraded forecast counts), when the predictor is a
    #: :class:`~repro.forecasting.predictors.FallbackChainPredictor`.
    forecast_fallback: dict = field(default_factory=dict)

    @property
    def total_cost(self) -> float:
        return self.energy_cost + self.switch_cost

    def summary(self) -> dict:
        """Headline numbers for reports and EXPERIMENTS.md."""
        delays = self.metrics.delay_summary(self.horizon)
        return {
            "policy": self.policy,
            "tasks_submitted": self.metrics.num_submitted,
            "tasks_scheduled": delays["scheduled"],
            "tasks_unscheduled": self.metrics.num_submitted - delays["scheduled"],
            "energy_kwh": self.energy_kwh,
            "energy_cost": self.energy_cost,
            "switch_cost": self.switch_cost,
            "switch_events": self.switch_events,
            "tasks_killed": self.tasks_killed,
            "tasks_preempted": self.tasks_preempted,
            "relabel_events": self.relabel_events,
            "total_cost": self.total_cost,
            "mean_active_machines": self.metrics.mean_active_machines(),
            "mean_delay_s": delays["mean_s"],
            "delay_by_group": delays["by_group"],
            "resilience": {
                "availability": self.metrics.availability(),
                "mttr_s": self.metrics.mttr(censor_at=self.horizon),
                "mean_restart_latency_s": self.metrics.mean_restart_latency(
                    censor_at=self.horizon
                ),
                "slo_attainment_5m": self.metrics.slo_attainment(
                    300.0, include_unscheduled_at=self.horizon
                ),
                "machines_failed": len(self.metrics.failure_events),
                "breaker_trips": self.guard_stats.trips if self.guard_stats else 0,
                "invalid_decisions": (
                    self.guard_stats.invalid_decisions if self.guard_stats else 0
                ),
                "degradation": {
                    "max_level": self.metrics.max_degradation_level(),
                    "degraded_ticks": self.metrics.degraded_ticks(),
                    "levels": self.metrics.degradation_level_counts(),
                },
                "fabric": self.metrics.fabric.to_summary(),
                "data_plane": self._data_plane_summary(),
            },
        }

    def _data_plane_summary(self) -> dict:
        """What the input-hardening layer absorbed during this run.

        Deterministic by construction: sanitizer counts and digest (no
        filesystem paths), forecast fallback rung counts, classifier
        degenerate-input events, and capacity-model errors the degradation
        ladder classified by code.
        """
        sanitizer = None
        if self.sanitization is not None:
            sanitizer = {
                "records_total": self.sanitization.records_total,
                "records_clean": self.sanitization.records_clean,
                "records_repaired": self.sanitization.records_repaired,
                "records_quarantined": self.sanitization.records_quarantined,
                "repairs_by_rule": dict(
                    sorted(self.sanitization.repairs_by_rule.items())
                ),
                "quarantine_by_rule": dict(
                    sorted(self.sanitization.quarantine_by_rule.items())
                ),
                "digest": self.sanitization.digest,
            }
        capacity_guard = {"capacity_model_unstable": 0, "container_sizing_error": 0}
        for _, _, reason in self.metrics.degradation_timeline:
            for code in capacity_guard:
                if code in str(reason):
                    capacity_guard[code] += 1
        fallback = self.forecast_fallback or {
            "rungs": {"primary": 0, "seasonal_naive": 0, "last_value": 0},
            "degraded_forecasts": 0,
            "per_class": {},
        }
        classifier_events = dict(
            sorted(getattr(self.classifier, "degenerate_events", {}).items())
        )
        return {
            "sanitizer": sanitizer,
            "forecast_fallback": fallback,
            "classifier": classifier_events,
            "capacity_guard": capacity_guard,
        }


class HarmonySimulation:
    """Builds and runs the full pipeline for one policy over one trace."""

    def __init__(
        self,
        config: HarmonyConfig,
        trace: Trace,
        classifier: TaskClassifier | None = None,
        sanitization: SanitizationReport | None = None,
    ) -> None:
        self.config = config
        self.trace = trace
        #: Report from :func:`repro.trace.sanitize.sanitize_trace` when the
        #: trace went through the sanitizer; surfaced in
        #: ``summary()["resilience"]["data_plane"]``.
        self.sanitization = sanitization
        self.timer = PhaseTimer()
        if classifier is not None:
            self.classifier = classifier
        else:
            with self.timer.phase("classifier_fit"):
                self.classifier = self._fit_classifier()
        manager_config = config.manager or ContainerManagerConfig(
            capacity_ladders=(
                tuple(sorted({m.cpu_capacity for m in config.fleet})),
                tuple(sorted({m.memory_capacity for m in config.fleet})),
            ),
        )
        self.manager = ContainerManager(self.classifier, manager_config)
        #: The MPC controller behind a ``cbs`` / ``cbp`` pipeline, set by
        #: :meth:`build_policy`.
        self.controller: HarmonyController | None = None
        with self.timer.phase("label_tasks"):
            #: Row -> arrival (short) class id: the trace classified once.
            self.labels = array(
                "q",
                [
                    leaf.class_id
                    for leaf in self.classifier.classify_batch(
                        self.trace.tasks, observed_runtime=0.0
                    )
                ],
            )
            self._long_of = self._long_siblings()

    def _fit_classifier(self) -> TaskClassifier:
        tasks = list(self.trace.tasks)
        if len(tasks) > self.config.classifier_sample:
            rng = np.random.default_rng(self.config.seed)
            indices = rng.choice(
                len(tasks), size=self.config.classifier_sample, replace=False
            )
            tasks = [tasks[i] for i in sorted(indices)]
        return TaskClassifier(self.config.classifier).fit(tasks)

    def _long_siblings(self) -> dict[int, tuple[int, float]]:
        """Leaf class id -> (its long sibling's id, the split boundary):
        all :meth:`relabel_class` needs, one entry per leaf."""
        long_of: dict[int, tuple[int, float]] = {}
        for leaf in self.classifier.classes:
            sibling = self.classifier.sibling(leaf)
            boundary = self.classifier.split_boundary(leaf.group, leaf.static_index)
            long_id = sibling.class_id if sibling is not None else leaf.class_id
            long_of[leaf.class_id] = (long_id, boundary)
        return long_of

    def relabel_class(self, class_id: int, elapsed: float) -> int:
        """The class a task that arrived as ``class_id`` should carry after
        running ``elapsed`` seconds."""
        long_id, boundary = self._long_of[class_id]
        return long_id if elapsed > boundary else class_id

    def split_arrivals(self, arrivals: dict[int, float]) -> dict[int, float]:
        """Redistribute arrival counts short->long by historical fractions."""
        result: dict[int, float] = {}
        for class_id, count in arrivals.items():
            leaf = self.manager.spec(class_id).task_class
            sibling = self.classifier.sibling(leaf)
            if sibling is None:
                result[class_id] = result.get(class_id, 0.0) + count
                continue
            fraction = self.classifier.long_fraction(leaf.group, leaf.static_index)
            if leaf.duration_category.value == "long":
                short_leaf, long_leaf = sibling, leaf
            else:
                short_leaf, long_leaf = leaf, sibling
            result[short_leaf.class_id] = (
                result.get(short_leaf.class_id, 0.0) + count * (1.0 - fraction)
            )
            result[long_leaf.class_id] = (
                result.get(long_leaf.class_id, 0.0) + count * fraction
            )
        return result

    def _historical_interval_counts(self) -> dict[int, float]:
        """Mean arrivals per control interval per class (historical profile).

        Derived from the trace at aggregate level — the stand-in for the
        multi-week history a production deployment would profile — and split
        short/long by the classifier's historical fractions.
        """
        totals = Counter(self.labels)
        num_intervals = max(self.trace.horizon / self.config.control_interval, 1.0)
        per_interval = {cid: n / num_intervals for cid, n in totals.items()}
        return self.split_arrivals(per_interval)

    def _honor_constraints(self) -> bool:
        """Placement constraints only make sense when the simulated fleet
        exposes the trace's platform ids (DESIGN.md, fidelity notes)."""
        fleet_platforms = {m.platform_id for m in self.config.fleet}
        trace_platforms = {
            platform
            for task in self.trace.tasks
            if task.allowed_platforms is not None
            for platform in task.allowed_platforms
        }
        return trace_platforms.issubset(fleet_platforms)

    def _prepare_tasks(self) -> tuple[Task, ...]:
        if self._honor_constraints():
            return self.trace.tasks
        return tuple(
            task if task.allowed_platforms is None else replace_constraint(task)
            for task in self.trace.tasks
        )

    def prepare(self):
        """The replay-ready task stream and its class-of mapping.

        Returns ``(tasks, class_of)`` exactly as :meth:`run` hands them to
        the :class:`~repro.simulation.cluster.ClusterSimulator` — the public
        seam for benchmarks and examples that drive a simulator directly
        with a custom :class:`~repro.simulation.cluster.ClusterConfig`.
        ``class_of`` is row-indexed: ``class_of[row]`` is the arrival class
        of ``tasks[row]``, so hand the simulator ``tasks`` exactly as
        returned — reordered or filtered, its rows no longer match their
        labels (filtering is caught as a length mismatch, reordering is
        not).
        """
        return self._prepare_tasks(), self.labels

    def build_policy(self):
        """Instantiate the configured policy (exposed for tests).

        ``cbs`` / ``cbp`` come back as the
        :class:`~repro.simulation.control.ControlPipeline` (guard -> ladder
        -> controller; the guard only with ``config.guard``).  The other
        policies need no ladder and with ``config.guard`` are wrapped in a
        bare :class:`~repro.resilience.guard.GuardedController`.
        """
        config = self.config
        if config.policy in ("cbs", "cbp"):
            return self._build_pipeline()
        if config.policy == "baseline":
            policy = _BaselinePolicy(BaselineProvisioner(config.fleet))
        elif config.policy == "threshold":
            policy = _ThresholdPolicy(ThresholdAutoscaler(config.fleet))
        else:
            policy = _StaticPolicy(config.fleet)
        if config.guard:
            return GuardedController(policy, config.fleet)
        return policy

    def _build_pipeline(self) -> ControlPipeline:
        config = self.config
        controller_config = ControllerConfig(
            interval_seconds=config.control_interval,
            price=config.price,
            overprovision=OVERPROVISION,
            predictor_factory=lambda: make_predictor(config.predictor),
        )
        cls = HarmonyController if config.policy == "cbs" else CbpController
        controller = cls(config.fleet, self.manager, controller_config)
        controller.prime(self._historical_interval_counts())
        self.controller = controller
        return ControlPipeline(
            config.fleet,
            solve=lambda view: controller.decide(
                view.time,
                backlog=view.backlog,
                available=view.available,
                running=view.running,
                running_by_platform=view.running_by_platform,
                powered=view.powered,
            ),
            # Every task is labeled short at arrival (Section V), so raw
            # counts would starve the long classes the forecasts provision for.
            observe=lambda view: controller.observe(
                self.split_arrivals(view.arrivals)
            ),
            forecast=lambda: float(controller.forecast_rates()[0].sum())
            * float(config.control_interval),
            guard=config.guard,
        )

    def run(self) -> SimulationResult:
        with self.timer.phase("policy_build"):
            policy = self.build_policy()
        # The simulator's build (the columnar engine's task columns) is
        # part of preparing the replay, so it is timed with it.
        with self.timer.phase("prepare"):
            tasks, class_of = self.prepare()
            if self.config.engine == "columnar":
                from repro.simulation.columnar import ColumnarClusterSimulator

                simulator_cls = ColumnarClusterSimulator
            else:
                simulator_cls = ClusterSimulator
            simulator = simulator_cls(
                tasks=tasks,
                horizon=self.trace.horizon,
                machine_models=self.config.fleet,
                policy=policy,
                class_of=class_of,
                config=ClusterConfig(
                    control_interval=self.config.control_interval,
                    price=self.config.price,
                    enable_preemption=self.config.enable_preemption,
                    fault_plan=self.config.fault_plan,
                ),
                relabel=self.relabel_class,
            )
        with self.timer.phase("replay"):
            metrics = simulator.run()

        pipeline = policy if isinstance(policy, ControlPipeline) else None
        inner = policy
        if pipeline is not None:
            guard = pipeline.guard
        elif isinstance(policy, GuardedController):
            guard, inner = policy, policy.policy
        else:
            guard = None
        forecast_fallback: dict = {}
        decisions: list[ProvisioningDecision] = []
        if guard is not None:
            # The sanitized decisions are what the cluster actually applied.
            decisions = guard.decisions
        elif pipeline is not None:
            decisions = self.controller.decisions
        elif isinstance(inner, _ThresholdPolicy):
            decisions = inner.autoscaler.decisions
        elif isinstance(inner, _BaselinePolicy):
            decisions = inner.provisioner.decisions
        if pipeline is not None:
            pipeline.fold_into(metrics)
            forecast_fallback = _collect_forecast_fallback(self.controller)
            for decision in decisions:
                by_group: dict[PriorityGroup, int] = {g: 0 for g in PriorityGroup}
                for class_id, demand in decision.demand.items():
                    group = self.manager.spec(class_id).task_class.group
                    by_group[group] += int(demand)
                metrics.container_timeline.append((decision.time, by_group))

        return SimulationResult(
            policy=self.config.policy,
            config=self.config,
            metrics=metrics,
            energy_kwh=simulator.energy.total_kwh,
            energy_cost=simulator.energy.total_energy_cost,
            switch_cost=simulator.energy.total_switch_cost,
            switch_events=simulator.energy.switch_events,
            horizon=self.trace.horizon,
            classifier=self.classifier,
            decisions=decisions,
            tasks_killed=simulator.tasks_killed,
            tasks_preempted=simulator.tasks_preempted,
            relabel_events=simulator.relabel_events,
            guard_stats=guard.stats if guard is not None else None,
            guard_timeline=guard.mode_timeline if guard is not None else [],
            fault_stats=(
                simulator.fault_injector.stats
                if simulator.fault_injector is not None
                else None
            ),
            phase_timings=self.timer.snapshot(),
            sanitization=self.sanitization,
            forecast_fallback=forecast_fallback,
        )


def _collect_forecast_fallback(controller: HarmonyController) -> dict:
    """Aggregate fallback-chain rung activity across the per-class predictors.

    Empty dict when the configured predictor is not a fallback chain — the
    summary then reports all-zero rungs, keeping the block shape stable.
    """
    rungs = {"primary": 0, "seasonal_naive": 0, "last_value": 0}
    per_class: dict[str, int] = {}
    chained = False
    for class_id, predictor in sorted(controller.predictors.items()):
        counts = getattr(predictor, "rung_counts", None)
        timeline = getattr(predictor, "timeline", None)
        if counts is None or timeline is None:
            continue
        chained = True
        for rung, count in counts.items():
            rungs[rung] = rungs.get(rung, 0) + count
        if timeline:
            per_class[str(class_id)] = len(timeline)
    if not chained:
        return {}
    return {
        "rungs": rungs,
        "degraded_forecasts": sum(per_class.values()),
        "per_class": per_class,
    }


def replace_constraint(task: Task) -> Task:
    """Drop a task's platform constraint (fleet does not expose those ids)."""
    return replace(task, allowed_platforms=None)


def run_policy_comparison(
    trace: Trace,
    config: HarmonyConfig | None = None,
    policies: tuple[str, ...] = ("baseline", "cbp", "cbs"),
) -> dict[str, SimulationResult]:
    """Run several policies over the same trace with a shared classifier.

    Sharing the fitted classifier keeps the comparison apples-to-apples and
    roughly halves total runtime.
    """
    config = config or HarmonyConfig()
    classifier: TaskClassifier | None = None
    results: dict[str, SimulationResult] = {}
    for policy in policies:
        simulation = HarmonySimulation(
            config.with_policy(policy), trace, classifier=classifier
        )
        classifier = simulation.classifier
        results[policy] = simulation.run()
    return results


def energy_savings(results: dict[str, SimulationResult],
                   against: str = "baseline") -> dict[str, float]:
    """Relative energy-cost savings of each policy vs. a reference policy."""
    if against not in results:
        raise KeyError(f"reference policy {against!r} not in results")
    reference = results[against].total_cost
    if reference <= 0:
        return {policy: 0.0 for policy in results}
    return {
        policy: 1.0 - result.total_cost / reference
        for policy, result in results.items()
    }
