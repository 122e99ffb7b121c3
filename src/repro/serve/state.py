"""The serve daemon's deterministic control-plane state.

:class:`ServeState` is the whole digest-relevant world of a ``repro
serve`` run: the online task classifier, per-class forecast chains, the
virtual cluster bookkeeping (running containers, powered machines), and
the guarded + laddered decision pipeline.  One invariant rules the
module:

    ``apply_tick`` is a pure function of (state, tick batch, chaos
    effects) — no wall clock, no RNG, no ambient environment.

Everything observable flows from that: a checkpoint plus a journal-suffix
replay reconstructs the state bit-identically, two runs over the same
feeder trace produce the same rolling :attr:`chain` digest, and a SIGKILL
at any point is recoverable.

The decision stack is the same object the batch simulator holds: a
:class:`~repro.simulation.control.ControlPipeline` (guard -> degradation
ladder -> primary), here built around the MPC-lite primary — per-class
M/G/N sizing (:func:`~repro.queueing.mgn.required_containers`) over
forecast arrival rates, translated to machine targets over the Table II
fleet.  ``apply_tick`` feeds the predictors itself, so the pipeline gets no
``observe`` / ``forecast`` hook and the breaker scores its own EWMA.  Solver
failures step the ladder down; bad decisions and forecast residual storms
trip the guard; fabric partitions hold per-cell targets in both layers.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field

from repro.energy.catalog import table2_fleet
from repro.errors import ServeError
from repro.provisioning.controller import ProvisioningDecision
from repro.queueing.mgn import required_containers
from repro.resilience.fabric import FabricView
from repro.resilience.guard import GuardConfig
from repro.runner.runner import canonical_json, summary_digest
from repro.serve.config import ServeConfig
from repro.serve.feeder import TickBatch
from repro.simulation.cluster import ClusterView
from repro.simulation.control import ControlPipeline
from repro.simulation.degradation import DEGRADATION_LEVELS

#: Bumped when the checkpoint/state payload layout changes.
STATE_VERSION = 1

#: Cap handed to M/G/N sizing so a pathological forecast degrades (ladder
#: rung 1 via CapacityModelUnstable) instead of looping forever.
_MAX_CONTAINERS = 1_000_000

#: Centroid used for classes that have not been seeded yet.
_DEFAULT_CENTROID = (0.1, 0.1)


def pairs(mapping: dict) -> list[list]:
    """Int-keyed dict -> sorted ``[key, value]`` pair list (JSON-safe)."""
    return [[k, mapping[k]] for k in sorted(mapping)]


def unpairs(items: list, key=int) -> dict:
    """Inverse of :func:`pairs`."""
    return {key(k): v for k, v in items}


@dataclass
class WelfordStats:
    """Streaming mean/variance of per-class task durations."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def update(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    @property
    def scv(self) -> float:
        """Squared coefficient of variation, clamped to a sane band."""
        if self.count < 2 or self.mean <= 0:
            return 1.0
        variance = self.m2 / self.count
        return min(max(variance / (self.mean * self.mean), 0.0), 100.0)

    def to_state(self) -> dict:
        return {"count": self.count, "mean": self.mean, "m2": self.m2}

    @classmethod
    def from_state(cls, state: dict) -> "WelfordStats":
        return cls(
            count=int(state["count"]),
            mean=float(state["mean"]),
            m2=float(state["m2"]),
        )


class OnlineClassifier:
    """Streaming nearest-centroid classifier over (cpu, memory) requests.

    The batch pipeline clusters the whole trace offline (k-means,
    ``repro.clustering``); the online plane cannot wait for the trace to
    finish, so it grows centroids incrementally: the first ``k`` arrivals
    seed the centroids, every later arrival joins its nearest centroid and
    drags it by a running mean.  Deterministic — assignment and update
    depend only on arrival order.
    """

    def __init__(self, num_classes: int) -> None:
        if num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {num_classes}")
        self.num_classes = num_classes
        self._centroids: list[list[float] | None] = [None] * num_classes
        self.counts: list[int] = [0] * num_classes

    def centroid(self, class_id: int) -> tuple[float, float]:
        point = self._centroids[class_id]
        return _DEFAULT_CENTROID if point is None else (point[0], point[1])

    def observe(self, cpu: float, memory: float, update: bool = True) -> int:
        """Assign (and optionally learn from) one arrival."""
        seeded = [i for i, c in enumerate(self._centroids) if c is not None]
        if update and len(seeded) < self.num_classes:
            class_id = next(
                i for i, c in enumerate(self._centroids) if c is None
            )
            self._centroids[class_id] = [float(cpu), float(memory)]
            self.counts[class_id] = 1
            return class_id
        if not seeded:
            return 0
        class_id = min(
            seeded,
            key=lambda i: (
                (self._centroids[i][0] - cpu) ** 2
                + (self._centroids[i][1] - memory) ** 2,
                i,
            ),
        )
        if update:
            centroid = self._centroids[class_id]
            self.counts[class_id] += 1
            n = self.counts[class_id]
            centroid[0] += (cpu - centroid[0]) / n
            centroid[1] += (memory - centroid[1]) / n
        return class_id

    def to_state(self) -> dict:
        return {
            "centroids": [c if c is None else list(c) for c in self._centroids],
            "counts": list(self.counts),
        }

    @classmethod
    def from_state(cls, state: dict, num_classes: int) -> "OnlineClassifier":
        classifier = cls(num_classes)
        classifier._centroids = [
            None if c is None else [float(c[0]), float(c[1])]
            for c in state["centroids"]
        ]
        classifier.counts = [int(n) for n in state["counts"]]
        return classifier


@dataclass(frozen=True)
class ChaosEffects:
    """Per-tick fault effects, derived (never journaled) from a FaultPlan."""

    #: Monitoring blackout: the control plane observes zero arrivals.
    arrivals_masked: bool = False
    #: Machines down per platform id (correlated outages under repair).
    pool_unavailable: dict[int, int] = field(default_factory=dict)
    #: Fabric snapshot when partitions/flaps are active; ``None`` = healthy.
    fabric: FabricView | None = None
    #: Injected primary-solver outage: the MPC-lite path raises with this
    #: reason and the ladder steps down to rung 1.
    primary_fail: str | None = None
    #: Control-step sabotage: the first N watchdog attempts of this tick
    #: raise before touching state (exercises snapshot/retry; digest-safe).
    crash_attempts: int = 0


NO_EFFECTS = ChaosEffects()


@dataclass(frozen=True)
class TickOutcome:
    """What one applied tick produced (for logs, metrics and the chain)."""

    tick: int
    time: float
    arrivals: int
    observed: list[float]
    decision: ProvisioningDecision
    rung: int
    rung_reason: str
    mode: str
    masked: bool

    @property
    def rung_name(self) -> str:
        return DEGRADATION_LEVELS[self.rung]


class ServeState:
    """Deterministic online control-plane state (see module docstring)."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.fleet = table2_fleet(config.fleet_scale)
        self._efficiency_order = tuple(
            sorted(self.fleet, key=lambda m: -m.efficiency)
        )
        self.classifier = OnlineClassifier(config.num_classes)
        self.durations = [WelfordStats() for _ in range(config.num_classes)]
        from repro.forecasting.predictors import EwmaPredictor, FallbackChainPredictor

        self.predictors = [
            FallbackChainPredictor(
                primary=EwmaPredictor(alpha=config.ewma_alpha),
                period=config.seasonal_period,
            )
            for _ in range(config.num_classes)
        ]
        self.pipeline = ControlPipeline(
            self.fleet, self._primary_decide, guard=GuardConfig()
        )
        #: Applied-tick count == the next tick index expected.
        self.ticks_applied = 0
        #: Rolling SHA-256 chain over every applied tick's record.
        self.chain = hashlib.sha256(
            canonical_json(config.deterministic_fields()).encode()
        ).hexdigest()
        self.arrivals_total = 0
        self.masked_ticks = 0
        self.per_class_arrivals = [0] * config.num_classes
        #: finish_tick -> class id -> [count, cpu_sum, memory_sum].
        self._running: dict[int, dict[int, list[float]]] = {}
        self._powered: dict[int, int] = {m.platform_id: m.count for m in self.fleet}
        self._last_active: dict[int, int] = {}
        self._last_rung: int | None = None
        self._pending_primary_fail: str | None = None

    # ------------------------------------------------------------ tick apply

    def apply_tick(
        self, batch: TickBatch, effects: ChaosEffects = NO_EFFECTS
    ) -> TickOutcome:
        """Advance one control tick.  Pure in (state, batch, effects)."""
        if batch.tick != self.ticks_applied:
            raise ServeError(
                "tick applied out of order",
                expected=self.ticks_applied,
                got=batch.tick,
            )
        tick = batch.tick
        masked = effects.arrivals_masked

        # Virtual cluster: expire containers whose tasks finished, then
        # admit this tick's arrivals (the cluster keeps running even when
        # the monitoring plane is dark).
        for finish in sorted(t for t in self._running if t <= tick):
            del self._running[finish]
        observed = [0.0] * self.config.num_classes
        for arrival in batch.arrivals:
            class_id = self.classifier.observe(
                arrival.cpu, arrival.memory, update=not masked
            )
            if not masked:
                self.durations[class_id].update(arrival.duration)
                observed[class_id] += 1.0
                self.per_class_arrivals[class_id] += 1
            finish = tick + max(
                1, int(math.ceil(arrival.duration / self.config.tick_seconds))
            )
            slot = self._running.setdefault(finish, {}).setdefault(
                class_id, [0, 0.0, 0.0]
            )
            slot[0] += 1
            slot[1] += arrival.cpu
            slot[2] += arrival.memory
        self.arrivals_total += len(batch.arrivals)
        if masked:
            self.masked_ticks += 1

        view = self._build_view(batch.time, observed, effects)
        for class_id in range(self.config.num_classes):
            self.predictors[class_id].update(observed[class_id])

        self._pending_primary_fail = effects.primary_fail
        try:
            decision = self.pipeline.decide(view)
        finally:
            self._pending_primary_fail = None
        self._powered = dict(decision.active)

        rung, reason, mode = self.pipeline.last_tick
        outcome = TickOutcome(
            tick=tick,
            time=batch.time,
            arrivals=len(batch.arrivals),
            observed=observed,
            decision=decision,
            rung=rung,
            rung_reason=reason,
            mode=mode,
            masked=masked,
        )
        record = {
            "tick": tick,
            "arrivals": len(batch.arrivals),
            "observed": observed,
            "active": pairs(decision.active),
            "rung": rung,
            "mode": mode,
            "masked": masked,
        }
        self.chain = hashlib.sha256(
            (self.chain + canonical_json(record)).encode()
        ).hexdigest()
        self.ticks_applied += 1
        self._last_active = dict(decision.active)
        self._last_rung = rung
        return outcome

    # ------------------------------------------------------------- pipeline

    def _build_view(
        self, time: float, observed: list[float], effects: ChaosEffects
    ) -> ClusterView:
        running: dict[int, int] = {}
        demand_cpu = 0.0
        demand_memory = 0.0
        for per_class in self._running.values():
            for class_id, (count, cpu, memory) in per_class.items():
                running[class_id] = running.get(class_id, 0) + int(count)
                demand_cpu += cpu
                demand_memory += memory
        available = {
            m.platform_id: max(
                m.count - effects.pool_unavailable.get(m.platform_id, 0), 0
            )
            for m in self.fleet
        }
        powered = {
            pid: min(self._powered.get(pid, 0), available[pid]) for pid in available
        }
        arrivals = {
            class_id: observed[class_id]
            for class_id in range(self.config.num_classes)
        }
        return ClusterView(
            time=time,
            backlog={},
            running=running,
            running_by_platform={},
            demand_cpu=demand_cpu,
            demand_memory=demand_memory,
            available=available,
            powered=powered,
            arrivals=arrivals,
            fabric=effects.fabric,
        )

    def _primary_decide(self, view: ClusterView) -> ProvisioningDecision:
        """MPC-lite: forecast -> M/G/N sizing -> machine targets."""
        if self._pending_primary_fail is not None:
            reason = self._pending_primary_fail
            raise ServeError(
                f"injected solver outage: {reason}", tick=self.ticks_applied
            )
        containers: dict[int, float] = {}
        demand_cpu = view.demand_cpu
        demand_memory = view.demand_memory
        for class_id in range(self.config.num_classes):
            forecast = float(self.predictors[class_id].forecast(1)[0])
            if forecast <= 0:
                containers[class_id] = 0.0
                continue
            stats = self.durations[class_id]
            mean_duration = (
                stats.mean if stats.count and stats.mean > 0
                else self.config.tick_seconds
            )
            count = required_containers(
                arrival_rate=forecast / self.config.tick_seconds,
                service_rate=1.0 / mean_duration,
                target_delay=self.config.target_delay_seconds,
                scv=stats.scv,
                max_servers=_MAX_CONTAINERS,
            )
            containers[class_id] = float(count)
            cpu, memory = self.classifier.centroid(class_id)
            demand_cpu += count * cpu * self.config.overprovision
            demand_memory += count * memory * self.config.overprovision
        active = self._machine_targets(demand_cpu, demand_memory, view.available)
        return ProvisioningDecision(
            time=view.time, active=active, quotas=None, demand=containers
        )

    def _machine_targets(
        self, demand_cpu: float, demand_memory: float, available: dict[int, int]
    ) -> dict[int, int]:
        """Cover (cpu, memory) demand greedily in energy-efficiency order."""
        active = {m.platform_id: 0 for m in self.fleet}
        remaining_cpu, remaining_memory = demand_cpu, demand_memory
        for model in self._efficiency_order:
            cap = available.get(model.platform_id, model.count)
            need = 0
            if remaining_cpu > 0:
                need = int(math.ceil(remaining_cpu / model.cpu_capacity))
            if remaining_memory > 0:
                need = max(
                    need, int(math.ceil(remaining_memory / model.memory_capacity))
                )
            take = min(need, cap)
            active[model.platform_id] = take
            remaining_cpu -= take * model.cpu_capacity
            remaining_memory -= take * model.memory_capacity
        return active

    # ------------------------------------------------------------- summaries

    def summary(self) -> dict:
        """The digest-relevant summary (canonical-JSON clean, no wall time)."""
        ladder, guard = self.pipeline.ladder, self.pipeline.guard
        rung_counts = {name: 0 for name in DEGRADATION_LEVELS}
        for _, level, _ in ladder.timeline:
            rung_counts[DEGRADATION_LEVELS[level]] += 1
        forecast_rungs = {name: 0 for name in self.predictors[0].RUNGS}
        for predictor in self.predictors:
            for name, count in predictor.rung_counts.items():
                forecast_rungs[name] += count
        return {
            "version": STATE_VERSION,
            "config": self.config.deterministic_fields(),
            "ticks": self.ticks_applied,
            "chain": self.chain,
            "arrivals_total": self.arrivals_total,
            "per_class_arrivals": list(self.per_class_arrivals),
            "masked_ticks": self.masked_ticks,
            "classifier": self.classifier.to_state(),
            "rung_counts": rung_counts,
            "forecast_rungs": forecast_rungs,
            "guard": asdict(guard.stats),
            "guard_tripped": guard.tripped,
            "partition_hold_ticks": pairs(ladder.cell_hold_ticks),
            "reconciliations": ladder.reconciliations,
            "reconciliation_divergence": ladder.reconciliation_divergence,
            "last_active": pairs(self._last_active),
            "last_rung": self._last_rung,
        }

    def digest(self) -> str:
        return summary_digest(self.summary())

    # ------------------------------------------------------- (de)serializing

    def to_state(self) -> dict:
        """Full behavior-relevant state, canonical-JSON serializable."""
        return {
            "version": STATE_VERSION,
            "config": self.config.deterministic_fields(),
            "ticks_applied": self.ticks_applied,
            "chain": self.chain,
            "arrivals_total": self.arrivals_total,
            "masked_ticks": self.masked_ticks,
            "per_class_arrivals": list(self.per_class_arrivals),
            "classifier": self.classifier.to_state(),
            "durations": [s.to_state() for s in self.durations],
            "predictors": [p.to_state() for p in self.predictors],
            **self.pipeline.to_state(),  # the "ladder" and "guard" blocks
            "powered": pairs(self._powered),
            "last_active": pairs(self._last_active),
            "last_rung": self._last_rung,
            "running": [
                [finish, pairs(per_class)]
                for finish, per_class in sorted(self._running.items())
            ],
        }

    @classmethod
    def from_state(cls, payload: dict, config: ServeConfig) -> "ServeState":
        if payload.get("version") != STATE_VERSION:
            raise ServeError(
                f"checkpoint state version {payload.get('version')!r} is not "
                f"{STATE_VERSION}",
            )
        if payload["config"] != config.deterministic_fields():
            raise ServeError(
                "checkpoint was written under different deterministic config",
                checkpoint=payload["config"],
                current=config.deterministic_fields(),
            )
        state = cls(config)
        state.ticks_applied = int(payload["ticks_applied"])
        state.chain = str(payload["chain"])
        state.arrivals_total = int(payload["arrivals_total"])
        state.masked_ticks = int(payload["masked_ticks"])
        state.per_class_arrivals = [int(n) for n in payload["per_class_arrivals"]]
        state.classifier = OnlineClassifier.from_state(
            payload["classifier"], config.num_classes
        )
        state.durations = [WelfordStats.from_state(s) for s in payload["durations"]]
        for predictor, snapshot in zip(state.predictors, payload["predictors"]):
            predictor.restore_state(snapshot)
        state.pipeline.restore_state(payload)
        state._powered = unpairs(payload["powered"])
        state._last_active = {k: int(v) for k, v in unpairs(payload["last_active"]).items()}
        state._last_rung = (
            None if payload["last_rung"] is None else int(payload["last_rung"])
        )
        state._running = {
            int(finish): {
                class_id: [int(v[0]), float(v[1]), float(v[2])]
                for class_id, v in unpairs(per_class).items()
            }
            for finish, per_class in payload["running"]
        }
        return state


__all__ = [
    "STATE_VERSION",
    "ChaosEffects",
    "NO_EFFECTS",
    "OnlineClassifier",
    "ServeState",
    "TickOutcome",
    "WelfordStats",
    "pairs",
    "unpairs",
]
