"""Composable fault injection for the cluster simulator.

Fig. 8's monitoring module "reports any failures and anomalies to the
management framework"; this module is where those failures come from.  A
:class:`FaultPlan` composes scripted and stochastic fault specs; a
:class:`FaultInjector` drives them through the simulator's event queue so
faults interleave deterministically with arrivals, finishes and control
ticks.  Fault kinds:

- :class:`CorrelatedOutage` -- a power/rack domain failure taking down a
  contiguous slice of one machine pool at once;
- :class:`MachineDegradation` -- stragglers: a sampled subset of a pool
  runs its tasks at a slowdown factor for a while;
- :class:`MonitoringBlackout` -- the controller sees zero arrival counts
  for ``intervals`` control periods (the telemetry pipeline is down, the
  cluster is not);
- :class:`RandomMachineFailures` -- independent Poisson crashes per
  powered machine-hour;
- the fabric specs from :mod:`repro.resilience.fabric` --
  :class:`~repro.resilience.fabric.LinkDegradation` (correlated link
  brownout stretching cross-cell service times),
  :class:`~repro.resilience.fabric.PartialPartition` (a cut severing cell
  pairs) and :class:`~repro.resilience.fabric.FlappingLink` (one link
  oscillating down/up) -- mutating a
  :class:`~repro.resilience.fabric.FabricState` the simulator reacts to.

The injector decides *what* fails and *when*; the mechanics of killing
tasks, releasing quota stocks and rescheduling finishes stay inside
:class:`~repro.simulation.cluster.ClusterSimulator`, which exposes the
``crash_machine`` / ``rescale_machine`` / ``schedule_fault`` hooks the
injector calls.  This module intentionally imports nothing from
:mod:`repro.simulation` so the layering keeps pointing downward.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Union

import numpy as np

from repro.resilience.fabric import (
    FABRIC_FAULT_TYPES,
    FabricState,
    FabricTopology,
    FlappingLink,
    LinkDegradation,
    PartialPartition,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.cluster import ClusterSimulator
    from repro.simulation.machine import MachinePool


@dataclass(frozen=True)
class CorrelatedOutage:
    """A correlated domain failure: a slice of one pool dies at once.

    Models a power/rack domain outage — the first
    ``ceil(fraction * pool_size)`` machines of the pool (a fixed "domain"
    slice, so repeated runs hit the same machines) crash simultaneously at
    ``time``.  Running tasks are killed and restart elsewhere; the machines
    stay under repair for ``repair_seconds``.
    """

    time: float
    fraction: float
    #: Platform to hit; ``None`` hits every pool (a site-wide event).
    platform_id: int | None = None
    repair_seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"time must be >= 0, got {self.time}")
        if not 0 < self.fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")
        if self.repair_seconds < 0:
            raise ValueError(f"repair_seconds must be >= 0, got {self.repair_seconds}")


@dataclass(frozen=True)
class MachineDegradation:
    """Stragglers: sampled machines run tasks ``slowdown``× slower.

    Starting at ``time`` a random ``fraction`` of the pool's machines are
    degraded for ``duration`` seconds.  Tasks already running there have
    their remaining work stretched by the slowdown; tasks placed on a
    degraded machine take ``duration * slowdown`` end to end.
    """

    time: float
    duration: float
    fraction: float
    slowdown: float = 2.0
    platform_id: int | None = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"time must be >= 0, got {self.time}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if not 0 < self.fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")
        if self.slowdown <= 1.0:
            raise ValueError(f"slowdown must be > 1, got {self.slowdown}")


@dataclass(frozen=True)
class MonitoringBlackout:
    """The monitoring pipeline goes dark for ``intervals`` control periods.

    The cluster keeps running, but the arrival counts handed to the policy
    read zero — the poisoned-telemetry scenario a predictor-driven
    controller must not trust blindly (see
    :class:`repro.resilience.guard.GuardedController`).
    """

    time: float
    intervals: int = 3

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"time must be >= 0, got {self.time}")
        if self.intervals < 1:
            raise ValueError(f"intervals must be >= 1, got {self.intervals}")


@dataclass(frozen=True)
class RandomMachineFailures:
    """Independent Poisson crashes per powered machine-hour.

    Each control interval, each pool loses a Poisson-sampled number of its
    powered machines.
    """

    rate_per_machine_hour: float
    repair_seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.rate_per_machine_hour < 0:
            raise ValueError(
                f"rate_per_machine_hour must be >= 0, got {self.rate_per_machine_hour}"
            )
        if self.repair_seconds < 0:
            raise ValueError(f"repair_seconds must be >= 0, got {self.repair_seconds}")


FaultSpec = Union[
    CorrelatedOutage,
    MachineDegradation,
    MonitoringBlackout,
    RandomMachineFailures,
    LinkDegradation,
    PartialPartition,
    FlappingLink,
]


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, composable collection of fault specs for one run."""

    faults: tuple[FaultSpec, ...] = ()
    #: Seeds the injector's RNG (Poisson sampling, straggler selection).
    seed: int = 0
    #: Fabric graph the plan's fabric faults play out on.  ``None`` (the
    #: default) derives a full mesh over the simulated fleet's platform
    #: ids with the smallest id as the ingest cell.
    topology: FabricTopology | None = None

    def with_fault(self, fault: FaultSpec) -> "FaultPlan":
        """A new plan with ``fault`` appended."""
        return replace(self, faults=self.faults + (fault,))

    @property
    def has_faults(self) -> bool:
        return bool(self.faults)



@dataclass(frozen=True)
class _DegradationEnd:
    """Internal event payload: restore a degradation's machines."""

    fault: MachineDegradation


@dataclass(frozen=True)
class _LinksDegrade:
    """Internal event payload: start/end one link-degradation window."""

    links: tuple[tuple[int, int], ...]
    stretch: float
    start: bool


@dataclass(frozen=True)
class _LinksSever:
    """Internal event payload: cut or heal a set of links."""

    links: tuple[tuple[int, int], ...]
    heal: bool
    #: "partition" or "flap" — which stats counter the sever feeds.
    kind: str = "partition"


@dataclass
class FaultStats:
    """What the injector actually did during one run."""

    machines_crashed: int = 0
    outages: int = 0
    machines_degraded: int = 0
    blackout_ticks: int = 0
    links_degraded: int = 0
    links_severed: int = 0
    link_flaps: int = 0


class FaultInjector:
    """Executes a :class:`FaultPlan` against one simulator run.

    Lifecycle: the simulator constructs the injector with the effective
    plan and calls :meth:`attach` once, which schedules every scripted
    fault as a ``FAULT`` event through ``simulator.schedule_fault``.
    Stochastic specs (:class:`RandomMachineFailures`) schedule a
    self-rechaining sweep event per control interval, so the whole fault
    history is a deterministic function of the plan seed.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.stats = FaultStats()
        self._rng = np.random.default_rng(plan.seed)
        self._sim: "ClusterSimulator | None" = None
        #: Resolved blackout windows [start, end), filled at attach time.
        self._blackouts: list[tuple[float, float]] = []
        #: Sorted window starts + running max of window ends, so
        #: :meth:`in_blackout` answers in O(log B) instead of scanning.
        self._blackout_starts: list[float] = []
        self._blackout_max_end: list[float] = []
        #: Machine ids currently degraded (for timeline sampling).
        self._degraded_ids: set[int] = set()
        #: Fabric link state, built at attach when the plan has fabric faults.
        self.fabric: FabricState | None = None

    # ------------------------------------------------------------ lifecycle

    def attach(self, simulator: "ClusterSimulator") -> None:
        """Bind to a simulator and schedule the plan's fault events."""
        if self._sim is not None:
            raise RuntimeError("FaultInjector is already attached to a simulator")
        self._sim = simulator
        interval = simulator.config.control_interval
        if any(isinstance(f, FABRIC_FAULT_TYPES) for f in self.plan.faults):
            topology = self.plan.topology or FabricTopology.full_mesh(
                simulator.fabric_cells()
            )
            self.fabric = FabricState(topology)
            simulator.attach_fabric(self.fabric)
        for fault in self.plan.faults:
            if isinstance(fault, (CorrelatedOutage, MachineDegradation)):
                simulator.schedule_fault(fault.time, fault)
                if isinstance(fault, MachineDegradation):
                    simulator.schedule_fault(
                        fault.time + fault.duration, _DegradationEnd(fault)
                    )
            elif isinstance(fault, MonitoringBlackout):
                self._blackouts.append(
                    (fault.time, fault.time + fault.intervals * interval)
                )
            elif isinstance(fault, RandomMachineFailures):
                if fault.rate_per_machine_hour > 0:
                    # First sweep fires one interval in; it re-chains itself.
                    simulator.schedule_fault(interval, fault)
            elif isinstance(fault, FABRIC_FAULT_TYPES):
                self._attach_fabric_fault(fault)
            else:  # pragma: no cover - exhaustive over FaultSpec
                raise TypeError(f"unknown fault spec {fault!r}")
        # Windows sorted by start with a running max of ends answer the
        # per-tick in_blackout query by bisection, overlap included.
        self._blackouts.sort()
        self._blackout_starts = [start for start, _ in self._blackouts]
        running_end = float("-inf")
        for _, end in self._blackouts:
            running_end = max(running_end, end)
            self._blackout_max_end.append(running_end)

    def _attach_fabric_fault(
        self, fault: "LinkDegradation | PartialPartition | FlappingLink"
    ) -> None:
        """Validate one fabric spec against the topology and schedule it."""
        assert self._sim is not None and self.fabric is not None
        topology = self.fabric.topology
        if isinstance(fault, LinkDegradation):
            links = topology.links if fault.links is None else fault.links
            for pair in links:
                if not topology.has_link(pair):
                    raise ValueError(f"fault names unknown link {pair}")
            self._sim.schedule_fault(
                fault.time, _LinksDegrade(links, fault.stretch, start=True)
            )
            self._sim.schedule_fault(
                fault.time + fault.duration,
                _LinksDegrade(links, fault.stretch, start=False),
            )
        elif isinstance(fault, PartialPartition):
            for pair in fault.cut:
                if not topology.has_link(pair):
                    raise ValueError(f"fault names unknown link {pair}")
            self._sim.schedule_fault(
                fault.time, _LinksSever(fault.cut, heal=False, kind="partition")
            )
            self._sim.schedule_fault(
                fault.time + fault.duration,
                _LinksSever(fault.cut, heal=True, kind="partition"),
            )
        else:
            if not topology.has_link(fault.link):
                raise ValueError(f"fault names unknown link {fault.link}")
            links = (fault.link,)
            for flap in range(fault.flaps):
                down = fault.time + flap * fault.period
                self._sim.schedule_fault(
                    down, _LinksSever(links, heal=False, kind="flap")
                )
                self._sim.schedule_fault(
                    down + fault.down_seconds,
                    _LinksSever(links, heal=True, kind="flap"),
                )

    # ------------------------------------------------------------- dispatch

    def fire(self, payload: object, now: float) -> None:
        """Handle one FAULT event popped by the simulator."""
        if isinstance(payload, CorrelatedOutage):
            self._fire_outage(payload, now)
        elif isinstance(payload, MachineDegradation):
            self._fire_degradation(payload, now)
        elif isinstance(payload, _DegradationEnd):
            self._end_degradation(payload.fault, now)
        elif isinstance(payload, RandomMachineFailures):
            self._fire_poisson_sweep(payload, now)
        elif isinstance(payload, _LinksDegrade):
            self._fire_links_degrade(payload, now)
        elif isinstance(payload, _LinksSever):
            self._fire_links_sever(payload, now)
        else:  # pragma: no cover - payloads are scheduled by attach()
            raise TypeError(f"unknown fault payload {payload!r}")

    # -------------------------------------------------------------- queries

    def in_blackout(self, now: float) -> bool:
        index = bisect_right(self._blackout_starts, now)
        return index > 0 and now < self._blackout_max_end[index - 1]

    def mask_arrivals(self, now: float, arrivals: dict[int, float]) -> dict[int, float]:
        """Arrival counts as the (possibly dark) monitoring pipe reports them."""
        if self.in_blackout(now):
            self.stats.blackout_ticks += 1
            return {}
        return arrivals

    @property
    def degraded_machines(self) -> int:
        return len(self._degraded_ids)

    # ------------------------------------------------------------ internals

    def _pools(self, platform_id: int | None) -> list["MachinePool"]:
        assert self._sim is not None
        if platform_id is None:
            return list(self._sim.pools)
        pools = [p for p in self._sim.pools if p.platform_id == platform_id]
        if not pools:
            raise ValueError(f"fault names unknown platform id {platform_id}")
        return pools

    def _fire_outage(self, fault: CorrelatedOutage, now: float) -> None:
        assert self._sim is not None
        self.stats.outages += 1
        for pool in self._pools(fault.platform_id):
            count = math.ceil(fault.fraction * pool.total)
            # The failure domain is the slice carrying the work: busiest
            # powered machines first, then cold spares (ties by id, so the
            # schedule is deterministic).  A domain of idle spares would
            # make the scenario vacuous.
            victims = sorted(
                pool.machines,
                key=lambda m: (m.is_off, -len(m.running), m.machine_id),
            )[:count]
            for machine in victims:
                self._sim.crash_machine(pool, machine, now, fault.repair_seconds)
                self.stats.machines_crashed += 1

    def _fire_degradation(self, fault: MachineDegradation, now: float) -> None:
        assert self._sim is not None
        for pool in self._pools(fault.platform_id):
            count = math.ceil(fault.fraction * pool.total)
            picks = self._rng.choice(pool.total, size=min(count, pool.total), replace=False)
            for index in picks:
                machine = pool.machines[int(index)]
                self._sim.rescale_machine(machine, fault.slowdown, now)
                self._degraded_ids.add(machine.machine_id)
                self.stats.machines_degraded += 1

    def _end_degradation(self, fault: MachineDegradation, now: float) -> None:
        assert self._sim is not None
        for pool in self._pools(fault.platform_id):
            for machine in pool.machines:
                if machine.machine_id in self._degraded_ids and machine.slowdown > 1.0:
                    self._sim.rescale_machine(machine, 1.0, now)
                    self._degraded_ids.discard(machine.machine_id)

    def _fire_poisson_sweep(self, fault: RandomMachineFailures, now: float) -> None:
        """One interval's Poisson crash sampling; re-chains the next sweep."""
        assert self._sim is not None
        sim = self._sim
        for pool in sim.pools:
            powered = [m for m in pool.machines if not m.is_off]
            if not powered:
                continue
            expected = (
                fault.rate_per_machine_hour
                * len(powered)
                * sim.config.control_interval
                / 3600.0
            )
            crashes = min(int(self._rng.poisson(expected)), len(powered))
            if crashes == 0:
                continue
            victims = self._rng.choice(len(powered), size=crashes, replace=False)
            for index in victims:
                sim.crash_machine(pool, powered[int(index)], now, fault.repair_seconds)
                self.stats.machines_crashed += 1
        next_sweep = now + sim.config.control_interval
        if next_sweep < sim.horizon:
            sim.schedule_fault(next_sweep, fault)

    def _fire_links_degrade(self, payload: _LinksDegrade, now: float) -> None:
        assert self._sim is not None and self.fabric is not None
        for pair in payload.links:
            if payload.start:
                self.fabric.degrade(pair, payload.stretch)
                self.stats.links_degraded += 1
            else:
                self.fabric.restore(pair, payload.stretch)
        self._sim.on_fabric_changed(now)

    def _fire_links_sever(self, payload: _LinksSever, now: float) -> None:
        assert self._sim is not None and self.fabric is not None
        for pair in payload.links:
            if payload.heal:
                self.fabric.heal(pair)
            else:
                self.fabric.sever(pair)
                self.stats.links_severed += 1
                if payload.kind == "flap":
                    self.stats.link_flaps += 1
        self._sim.on_fabric_changed(now)
