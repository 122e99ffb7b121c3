"""Simulation instrumentation.

Collects exactly the series the paper's evaluation plots: per-task
scheduling delays grouped by priority (Figs. 4, 23-25), active-machine
timelines (Figs. 3, 21-22), per-group container counts (Fig. 20), and — via
the :class:`~repro.energy.accounting.EnergyMeter` owned by the cluster —
energy totals (Fig. 26).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.trace.schema import PriorityGroup, Task


def _pooled(by_group: dict[PriorityGroup, np.ndarray]) -> np.ndarray:
    return np.concatenate(list(by_group.values()))


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if values.size else 0.0


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def _within(delays: np.ndarray, tolerance: float) -> float:
    return float((delays <= tolerance).mean()) if delays.size else 0.0


@dataclass
class TaskRecord:
    """Lifecycle of one task through the simulator."""

    task: Task
    submit_time: float
    schedule_time: float | None = None
    finish_time: float | None = None
    class_id: int | None = None
    platform_id: int | None = None

    @property
    def scheduling_delay(self) -> float | None:
        if self.schedule_time is None:
            return None
        return self.schedule_time - self.submit_time

    @property
    def group(self) -> PriorityGroup:
        return self.task.priority_group


@dataclass
class MachineFailure:
    """One machine crash and (if observed) its return to service."""

    machine_id: int
    fail_time: float
    #: When the machine was next booted back to ON; ``None`` = still down.
    recover_time: float | None = None


@dataclass
class TaskRestart:
    """One fault-driven task kill and its eventual re-placement."""

    uid: tuple[int, int]
    kill_time: float
    #: When the task was scheduled again; ``None`` = never restarted.
    reschedule_time: float | None = None


@dataclass
class FabricMetrics:
    """What the network fault layer did to one run.

    All-zero (and the same shape) when no fabric faults were configured,
    so ``summary()["resilience"]["fabric"]`` is always present and a no-op
    fabric plan digests identically to a clean run.
    """

    #: Wall-clock simulated seconds during which any cell was unreachable.
    partition_seconds: float = 0.0
    #: Control ticks observed while partitioned.
    partition_ticks: int = 0
    #: Worst simultaneous unreachable-cell count.
    max_unreachable_cells: int = 0
    #: Placement attempts that failed after skipping an unreachable cell.
    deferred_placements: int = 0
    #: Link label ("a-b") -> control ticks the link spent severed/degraded.
    degraded_link_ticks: dict[str, int] = field(default_factory=dict)
    #: Cell id (as str) -> control ticks its targets were partition-held.
    cell_hold_ticks: dict[str, int] = field(default_factory=dict)
    #: Cells reconciled back to fresh control after a heal.
    reconciliations: int = 0
    #: Total |held target - fresh target| machines across reconciliations.
    reconciliation_divergence: int = 0

    def to_summary(self) -> dict:
        """Deterministic JSON block for ``summary()["resilience"]["fabric"]``."""
        return {
            "partition_seconds": self.partition_seconds,
            "partition_ticks": self.partition_ticks,
            "max_unreachable_cells": self.max_unreachable_cells,
            "deferred_placements": self.deferred_placements,
            "degraded_link_ticks": dict(sorted(self.degraded_link_ticks.items())),
            "cell_hold_ticks": dict(sorted(self.cell_hold_ticks.items())),
            "reconciliations": self.reconciliations,
            "reconciliation_divergence": self.reconciliation_divergence,
        }


@dataclass(frozen=True)
class FaultSample:
    """Per-tick fleet health snapshot."""

    time: float
    failed_machines: int
    total_machines: int
    degraded_machines: int
    blackout: bool


@dataclass
class SimulationMetrics:
    """Aggregated run metrics."""

    records: dict[tuple[int, int], TaskRecord] = field(default_factory=dict)
    #: (time, powered machines, schedulable machines) samples per interval.
    machine_timeline: list[tuple[float, int, int]] = field(default_factory=list)
    #: (time, {platform_id: powered}) samples.
    machine_timeline_by_type: list[tuple[float, dict[int, int]]] = field(default_factory=list)
    #: (time, {group: containers}) samples from controller decisions.
    container_timeline: list[tuple[float, dict[PriorityGroup, int]]] = field(default_factory=list)
    #: (time, mean cpu utilization, mean memory utilization) over powered machines.
    utilization_timeline: list[tuple[float, float, float]] = field(default_factory=list)
    #: Machine crash/repair episodes (resilience reporting).
    failure_events: list[MachineFailure] = field(default_factory=list)
    #: Fault-driven task kill/restart episodes.
    restart_events: list[TaskRestart] = field(default_factory=list)
    #: Per-tick fleet health samples.
    fault_timeline: list[FaultSample] = field(default_factory=list)
    #: (time, ladder level, reason) per MPC control tick — which rung of
    #: the control-plane degradation ladder (0 = mpc, 1 = threshold,
    #: 2 = hold; see :mod:`repro.simulation.degradation`) produced each
    #: decision.  Empty for non-MPC policies.
    degradation_timeline: list[tuple[float, int, str]] = field(default_factory=list)
    #: Network fault layer accounting (always present; all-zero without
    #: fabric faults) — see :class:`FabricMetrics`.
    fabric: FabricMetrics = field(default_factory=FabricMetrics)
    #: machine_id -> open failure episode awaiting recovery.
    _open_failures: dict[int, MachineFailure] = field(default_factory=dict, repr=False)
    #: task uid -> open restart episode awaiting re-placement.
    _open_restarts: dict[tuple[int, int], TaskRestart] = field(
        default_factory=dict, repr=False
    )

    # --------------------------------------------------------------- events

    def task_submitted(self, task: Task, time: float) -> None:
        self.records[task.uid] = TaskRecord(task=task, submit_time=time)

    def task_scheduled(
        self, task: Task, time: float, class_id: int, platform_id: int
    ) -> None:
        record = self.records[task.uid]
        record.schedule_time = time
        record.class_id = class_id
        record.platform_id = platform_id
        if self._open_restarts:
            restart = self._open_restarts.pop(task.uid, None)
            if restart is not None:
                restart.reschedule_time = time

    def task_finished(self, task: Task, time: float) -> None:
        self.records[task.uid].finish_time = time

    def task_killed(self, task: Task, time: float) -> None:
        """A fault killed a running task; it re-enters the pending queue."""
        restart = TaskRestart(uid=task.uid, kill_time=time)
        self.restart_events.append(restart)
        self._open_restarts[task.uid] = restart

    def machine_failed(self, machine_id: int, time: float) -> None:
        episode = MachineFailure(machine_id=machine_id, fail_time=time)
        self.failure_events.append(episode)
        self._open_failures[machine_id] = episode

    def machine_recovered(self, machine_id: int, time: float) -> None:
        """A previously failed machine is back in service (no-op otherwise)."""
        episode = self._open_failures.pop(machine_id, None)
        if episode is not None:
            episode.recover_time = time

    def fault_sample(
        self,
        time: float,
        failed_machines: int,
        total_machines: int,
        degraded_machines: int = 0,
        blackout: bool = False,
    ) -> None:
        self.fault_timeline.append(
            FaultSample(time, failed_machines, total_machines, degraded_machines, blackout)
        )

    # -------------------------------------------------------------- queries

    def delays_by_group(self, include_unscheduled_at: float | None = None
                        ) -> dict[PriorityGroup, np.ndarray]:
        """Scheduling delays per priority group.

        ``include_unscheduled_at``: when set (typically the horizon), tasks
        never scheduled contribute a censored delay of ``horizon - submit``
        instead of being silently dropped — otherwise a starving policy
        would look *better* on delay.
        """
        delays: dict[PriorityGroup, list[float]] = {g: [] for g in PriorityGroup}
        for record in self.records.values():
            delay = record.scheduling_delay
            if delay is None:
                if include_unscheduled_at is None:
                    continue
                delay = max(include_unscheduled_at - record.submit_time, 0.0)
            delays[record.group].append(delay)
        return {g: np.asarray(v) for g, v in delays.items()}

    def mean_delay(self, group: PriorityGroup | None = None,
                   include_unscheduled_at: float | None = None) -> float:
        """Mean scheduling delay, overall or for one group."""
        by_group = self.delays_by_group(include_unscheduled_at)
        return _mean(by_group[group] if group is not None else _pooled(by_group))

    def delay_percentile(self, q: float, group: PriorityGroup | None = None,
                         include_unscheduled_at: float | None = None) -> float:
        by_group = self.delays_by_group(include_unscheduled_at)
        return _percentile(
            by_group[group] if group is not None else _pooled(by_group), q
        )

    @property
    def num_submitted(self) -> int:
        return len(self.records)

    @property
    def num_scheduled(self) -> int:
        return sum(1 for r in self.records.values() if r.schedule_time is not None)

    @property
    def num_finished(self) -> int:
        return sum(1 for r in self.records.values() if r.finish_time is not None)

    @property
    def num_unscheduled(self) -> int:
        return self.num_submitted - self.num_scheduled

    def immediate_fraction(self, group: PriorityGroup, tolerance: float = 1.0) -> float:
        """Fraction of a group's scheduled tasks placed within ``tolerance`` s."""
        return _within(self.delays_by_group()[group], tolerance)

    def delay_summary(self, horizon: float) -> dict:
        """The delay figures of a run summary from two walks over ``records``.

        ``by_group`` holds, per lower-case group name, :meth:`mean_delay`
        and the p95 of :meth:`delay_percentile` censored at ``horizon``, and
        :meth:`immediate_fraction`; ``mean_s`` is the censored overall mean
        and ``scheduled`` is :attr:`num_scheduled` — each value bit-identical
        to its query, which walks ``records`` again per call.
        """
        censored = self.delays_by_group(include_unscheduled_at=horizon)
        scheduled = self.delays_by_group()
        return {
            "by_group": {
                group.name.lower(): {
                    "mean_s": _mean(censored[group]),
                    "p95_s": _percentile(censored[group], 95),
                    "immediate_fraction": _within(scheduled[group], 1.0),
                }
                for group in PriorityGroup
            },
            "mean_s": _mean(_pooled(censored)),
            "scheduled": sum(delays.size for delays in scheduled.values()),
        }

    def mean_active_machines(self) -> float:
        if not self.machine_timeline:
            return 0.0
        return float(np.mean([powered for _, powered, _ in self.machine_timeline]))

    def machines_series(self) -> tuple[np.ndarray, np.ndarray]:
        """(times, powered machines) arrays (Figs. 21-22)."""
        if not self.machine_timeline:
            return np.array([]), np.array([])
        times = np.array([t for t, _, _ in self.machine_timeline])
        powered = np.array([p for _, p, _ in self.machine_timeline])
        return times, powered

    # -------------------------------------------------- resilience queries

    def availability(self) -> float:
        """Mean fraction of the fleet not under repair, over the run.

        1.0 when no fault samples were recorded (fault-free run).
        """
        if not self.fault_timeline:
            return 1.0
        fractions = [
            1.0 - sample.failed_machines / sample.total_machines
            for sample in self.fault_timeline
            if sample.total_machines > 0
        ]
        return float(np.mean(fractions)) if fractions else 1.0

    def mttr(self, censor_at: float | None = None) -> float:
        """Mean time from machine crash to its return to service (seconds).

        Machines still down at the end contribute a censored episode of
        ``censor_at - fail_time`` when ``censor_at`` (typically the
        horizon) is given, and are skipped otherwise.  0.0 with no
        failures.
        """
        durations: list[float] = []
        for episode in self.failure_events:
            if episode.recover_time is not None:
                durations.append(episode.recover_time - episode.fail_time)
            elif censor_at is not None:
                durations.append(max(censor_at - episode.fail_time, 0.0))
        return float(np.mean(durations)) if durations else 0.0

    def mean_restart_latency(self, censor_at: float | None = None) -> float:
        """Mean time a fault-killed task waited to be re-placed (seconds)."""
        latencies: list[float] = []
        for restart in self.restart_events:
            if restart.reschedule_time is not None:
                latencies.append(restart.reschedule_time - restart.kill_time)
            elif censor_at is not None:
                latencies.append(max(censor_at - restart.kill_time, 0.0))
        return float(np.mean(latencies)) if latencies else 0.0

    def slo_attainment(
        self,
        bound_seconds: float,
        group: PriorityGroup | None = None,
        include_unscheduled_at: float | None = None,
    ) -> float:
        """Fraction of tasks scheduled within ``bound_seconds`` of submit.

        Unscheduled tasks count as violations (censored at
        ``include_unscheduled_at`` when given, or unconditionally missed
        otherwise).  1.0 with no tasks.
        """
        hits = total = 0
        for record in self.records.values():
            if group is not None and record.group is not group:
                continue
            total += 1
            delay = record.scheduling_delay
            if delay is None:
                if include_unscheduled_at is not None:
                    delay = max(include_unscheduled_at - record.submit_time, 0.0)
                else:
                    continue  # still a miss: counted in total only
            if delay <= bound_seconds:
                hits += 1
        return hits / total if total else 1.0

    def max_degradation_level(self) -> int:
        """Worst control-plane ladder rung hit during the run (0 if clean)."""
        if not self.degradation_timeline:
            return 0
        return max(level for _, level, _ in self.degradation_timeline)

    def degraded_ticks(self) -> int:
        """Control ticks decided below the full MPC path (level > 0)."""
        return sum(1 for _, level, _ in self.degradation_timeline if level > 0)

    def degradation_level_counts(self) -> dict[str, int]:
        """Ladder level name -> tick count (zeros for unused levels)."""
        from repro.simulation.degradation import DEGRADATION_LEVELS

        counts = {name: 0 for name in DEGRADATION_LEVELS}
        for _, level, _ in self.degradation_timeline:
            counts[DEGRADATION_LEVELS[level]] += 1
        return counts

    def containers_series(self) -> tuple[np.ndarray, dict[PriorityGroup, np.ndarray]]:
        """(times, per-group container counts) arrays (Fig. 20)."""
        if not self.container_timeline:
            return np.array([]), {g: np.array([]) for g in PriorityGroup}
        times = np.array([t for t, _ in self.container_timeline])
        by_group = {
            g: np.array([counts.get(g, 0) for _, counts in self.container_timeline])
            for g in PriorityGroup
        }
        return times, by_group
