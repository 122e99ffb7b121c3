"""Serve-side chaos: FaultPlans projected onto the live control loop.

The batch simulator executes a :class:`~repro.resilience.faults.FaultPlan`
through its event queue; the serve daemon has no event queue — just the
tick stream — so this module projects the same fault specs into per-tick
:class:`~repro.serve.state.ChaosEffects`, **derived, never journaled**:

- :class:`~repro.resilience.faults.MonitoringBlackout` masks the arrivals
  the control plane observes;
- :class:`~repro.resilience.faults.CorrelatedOutage` shrinks pool
  availability for its repair window;
- :class:`~repro.resilience.fabric.PartialPartition` /
  :class:`~repro.resilience.fabric.FlappingLink` /
  :class:`~repro.resilience.fabric.LinkDegradation` build a per-tick
  :class:`~repro.resilience.fabric.FabricView` (reachability computed on
  the plan's topology), driving the ladder's and guard's partition holds;
- stochastic machine-level specs (``RandomMachineFailures``,
  ``MachineDegradation``) are *ignored* — they need the simulator's RNG
  and machine pool, and the serve loop refuses nondeterministic faults.

Two serve-only specs exercise the crash machinery itself:

- :class:`SolverOutage` makes the MPC-lite primary raise for a window of
  ticks (visible as ladder rung 1);
- :class:`ControlCrash` makes the first ``attempts`` watchdog attempts of
  one tick fail — each failure rolls back through ``restore`` (checkpoint
  + journal replay) before the retry, so the final digest still matches a
  clean run.

Because every effect is a pure function of the tick index, a restored
daemon recomputes the exact same effects for the replayed suffix — chaos
needs no checkpoint state of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.energy.models import MachineModel
from repro.resilience.fabric import (
    FabricState,
    FabricTopology,
    FabricView,
    FlappingLink,
    LinkDegradation,
    PartialPartition,
    link_label,
)
from repro.resilience.faults import CorrelatedOutage, FaultPlan, MonitoringBlackout
from repro.serve.state import ChaosEffects


@dataclass(frozen=True)
class SolverOutage:
    """The MPC-lite primary raises for ``ticks`` ticks starting at ``tick``."""

    tick: int
    ticks: int = 1
    reason: str = "solver_outage"

    def __post_init__(self) -> None:
        if self.tick < 0:
            raise ValueError(f"tick must be >= 0, got {self.tick}")
        if self.ticks < 1:
            raise ValueError(f"ticks must be >= 1, got {self.ticks}")


@dataclass(frozen=True)
class ControlCrash:
    """The first ``attempts`` control-step attempts of ``tick`` raise."""

    tick: int
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.tick < 0:
            raise ValueError(f"tick must be >= 0, got {self.tick}")
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")


class ServeChaos:
    """Projects a FaultPlan (+ serve-only specs) onto tick effects."""

    def __init__(
        self,
        plan: FaultPlan | None,
        fleet: tuple[MachineModel, ...],
        tick_seconds: float,
        serve_faults: tuple[SolverOutage | ControlCrash, ...] = (),
    ) -> None:
        if tick_seconds <= 0:
            raise ValueError(f"tick_seconds must be positive, got {tick_seconds}")
        self.plan = plan or FaultPlan()
        self.fleet = fleet
        self.tick_seconds = float(tick_seconds)
        self.serve_faults = tuple(serve_faults)
        self._pool_size = {m.platform_id: m.count for m in fleet}
        cells = tuple(sorted(self._pool_size))
        self.topology = self.plan.topology or FabricTopology.full_mesh(cells)
        self._fabric_specs = tuple(
            f
            for f in self.plan.faults
            if isinstance(f, (PartialPartition, FlappingLink, LinkDegradation))
        )
        #: tick -> last_heard snapshot, grown monotonically so ``last
        #: heard`` stays a pure function of the tick index (a restored
        #: daemon refills the cache identically from tick 0).
        self._last_heard_cache: list[dict[int, float]] = []

    # --------------------------------------------------------------- effects

    def effects(self, tick: int) -> ChaosEffects:
        """Pure per-tick effects (see module docstring)."""
        time = tick * self.tick_seconds
        masked = any(
            isinstance(f, MonitoringBlackout)
            and f.time <= time < f.time + f.intervals * self.tick_seconds
            for f in self.plan.faults
        )
        pool_unavailable: dict[int, int] = {}
        for fault in self.plan.faults:
            if not isinstance(fault, CorrelatedOutage):
                continue
            if not fault.time <= time < fault.time + fault.repair_seconds:
                continue
            hit = (
                sorted(self._pool_size)
                if fault.platform_id is None
                else [fault.platform_id]
            )
            for pid in hit:
                down = int(math.ceil(fault.fraction * self._pool_size.get(pid, 0)))
                pool_unavailable[pid] = pool_unavailable.get(pid, 0) + down
        fabric = self._fabric_view(tick, time) if self._fabric_specs else None
        primary_fail = next(
            (
                f.reason
                for f in self.serve_faults
                if isinstance(f, SolverOutage) and f.tick <= tick < f.tick + f.ticks
            ),
            None,
        )
        crash_attempts = max(
            (
                f.attempts
                for f in self.serve_faults
                if isinstance(f, ControlCrash) and f.tick == tick
            ),
            default=0,
        )
        return ChaosEffects(
            arrivals_masked=masked,
            pool_unavailable=pool_unavailable,
            fabric=fabric,
            primary_fail=primary_fail,
            crash_attempts=crash_attempts,
        )

    # ---------------------------------------------------------------- fabric

    def _severed_links(self, time: float) -> set[tuple[int, int]]:
        severed: set[tuple[int, int]] = set()
        for fault in self._fabric_specs:
            if isinstance(fault, PartialPartition):
                if fault.time <= time < fault.time + fault.duration:
                    severed.update(fault.cut)
            elif isinstance(fault, FlappingLink):
                for flap in range(fault.flaps):
                    start = fault.time + flap * fault.period
                    if start <= time < start + fault.down_seconds:
                        severed.add(fault.link)
                        break
        return severed

    def _degraded_links(self, time: float) -> tuple[str, ...]:
        labels: set[str] = set()
        for fault in self._fabric_specs:
            if not isinstance(fault, LinkDegradation):
                continue
            if not fault.time <= time < fault.time + fault.duration:
                continue
            links = fault.links if fault.links is not None else self.topology.links
            labels.update(link_label(pair) for pair in links)
        return tuple(sorted(labels))

    def _fabric_view(self, tick: int, time: float) -> FabricView:
        state = FabricState(self.topology)
        severed = self._severed_links(time)
        for pair in sorted(severed):
            if self.topology.has_link(pair):
                state.sever(pair)
        unreachable = state.unreachable_cells()
        degraded = tuple(
            sorted(
                set(self._degraded_links(time))
                | {link_label(pair) for pair in sorted(severed)}
            )
        )
        # last_heard: the last tick time each cell was reachable, filled
        # forward from tick 0 so it is independent of call history.
        while len(self._last_heard_cache) <= tick:
            t = len(self._last_heard_cache)
            t_time = t * self.tick_seconds
            probe = FabricState(self.topology)
            for pair in sorted(self._severed_links(t_time)):
                if self.topology.has_link(pair):
                    probe.sever(pair)
            reachable = probe.reachable_cells()
            previous = (
                dict(self._last_heard_cache[-1])
                if self._last_heard_cache
                else {cell: 0.0 for cell in self.topology.cells}
            )
            for cell in reachable:
                previous[cell] = t_time
            self._last_heard_cache.append(previous)
        return FabricView(
            unreachable=unreachable,
            last_heard=dict(self._last_heard_cache[tick]),
            degraded_links=degraded,
            partitioned=bool(unreachable),
        )


# ----------------------------------------------------------------- presets


def drill_plan(tick_seconds: float) -> tuple[FaultPlan, tuple]:
    """The standard serve chaos drill, scaled to the tick length.

    One blackout (ticks 4-6), one correlated outage on pool 2 (ticks
    8-15), one partition cutting cell 4 off (ticks 10-13), one solver
    outage (ticks 16-17) and one control-step crash (tick 18, retried by
    the watchdog).  Everything keyed off tick indices so any tick length
    sees the same story.
    """
    t = tick_seconds
    plan = FaultPlan(
        faults=(
            MonitoringBlackout(time=4 * t, intervals=3),
            CorrelatedOutage(time=8 * t, fraction=0.5, platform_id=2, repair_seconds=8 * t),
            PartialPartition(
                time=10 * t,
                duration=4 * t,
                cut=((1, 4), (2, 4), (3, 4)),
            ),
        )
    )
    serve_faults = (
        SolverOutage(tick=16, ticks=2),
        ControlCrash(tick=18, attempts=2),
    )
    return plan, serve_faults


def partition_plan(tick_seconds: float) -> tuple[FaultPlan, tuple]:
    """Partition-only drill: cell 4 cut off for ticks 6-11, then heals."""
    t = tick_seconds
    plan = FaultPlan(
        faults=(
            PartialPartition(
                time=6 * t,
                duration=6 * t,
                cut=((1, 4), (2, 4), (3, 4)),
            ),
        )
    )
    return plan, ()


#: CLI-facing chaos presets: name -> builder(tick_seconds).
CHAOS_PRESETS = {
    "drill": drill_plan,
    "partition": partition_plan,
}


__all__ = [
    "CHAOS_PRESETS",
    "ControlCrash",
    "ServeChaos",
    "SolverOutage",
    "drill_plan",
    "partition_plan",
]
