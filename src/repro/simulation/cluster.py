"""The cluster simulator: trace replay under a provisioning policy.

Event loop (Section IX's simulation methodology):

- **task arrival**: classify, enqueue, try to place immediately;
- **task finish**: release capacity, power off drained machines, backfill;
- **machine ready**: a booted machine becomes schedulable, backfill;
- **fault**: the :class:`~repro.resilience.faults.FaultInjector` fires a
  scripted or stochastic fault (correlated outage, straggler degradation,
  Poisson crash sweep) against the fleet;
- **control tick** (every ``control_interval`` s): account energy for the
  elapsed interval (Eq. 7 + switching, Eq. 9), report observed arrivals to
  the policy (masked during monitoring blackouts), apply its new machine
  targets and quotas, then schedule.

Policies plug in through the small :class:`Policy` protocol; adapters for
CBS / CBP / baseline / static live in :mod:`repro.simulation.harmony`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence


from repro.energy.accounting import EnergyMeter
from repro.energy.models import MachineModel
from repro.energy.prices import PriceSchedule, constant_price
from repro.provisioning.controller import ProvisioningDecision
from repro.resilience.fabric import FabricState, FabricView, link_label
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.simulation.engine import EventKind, EventQueue
from repro.simulation.machine import Machine, MachinePool, MachineState
from repro.simulation.metrics import SimulationMetrics
from repro.simulation.scheduler import FirstFitScheduler, QuotaLedger
from repro.trace.schema import Task


@dataclass(frozen=True)
class ClusterView:
    """Snapshot handed to the policy at each control tick."""

    time: float
    #: Tasks waiting, per class id.
    backlog: dict[int, int]
    #: Tasks currently running, per class id (current label).
    running: dict[int, int]
    #: Tasks currently running, per platform id then class id.
    running_by_platform: dict[int, dict[int, int]]
    #: Aggregate requested (cpu, memory) of tasks in the system
    #: (pending + running), normalized machine units.
    demand_cpu: float
    demand_memory: float
    #: Machines per platform id that exist (the availability bound N_m).
    available: dict[int, int]
    #: Machines per platform id currently drawing power (on or booting) —
    #: the true z_{t-1} against which switching costs accrue.
    powered: dict[int, int]
    #: Observed arrival counts per class id in the finished interval.
    arrivals: dict[int, float]
    #: Fabric snapshot (per-cell staleness stamps, unreachable cells,
    #: degraded links) when the run has a fabric; ``None`` otherwise.
    #: During a partition the per-cell fields above (``available``,
    #: ``powered``, ``running_by_platform``) are frozen at last-known
    #: values for unreachable cells — a scoped blackout the control plane
    #: detects through :attr:`FabricView.last_heard`.
    fabric: FabricView | None = None


class Policy(Protocol):
    """A provisioning policy driving the cluster."""

    def decide(self, view: ClusterView) -> ProvisioningDecision:
        """Return machine targets and (optional) container quotas."""


#: Cap on pending-queue entries examined per scheduling round.
MAX_SCHEDULE_ATTEMPTS = 5000
#: Smaller cap for the opportunistic pass after each task finish.
BACKFILL_ATTEMPTS = 200
#: With preemption on, a task may evict running tasks at least this many
#: priority levels below it.
PREEMPTION_PRIORITY_GAP = 2


@dataclass(frozen=True)
class ClusterConfig:
    """Simulator knobs."""

    control_interval: float = 300.0
    price: PriceSchedule = field(default_factory=constant_price)
    #: Composable fault scenario (scripted + stochastic): Poisson machine
    #: crashes, correlated outages, stragglers, monitoring blackouts and
    #: fabric faults.
    fault_plan: FaultPlan | None = None
    #: Priority preemption (the trace's priority semantics, Section III):
    #: a task may evict running tasks at least ``PREEMPTION_PRIORITY_GAP``
    #: priority levels below it when no machine has room.  Evicted tasks
    #: restart from scratch (the clusterdata EVICT/resubmit cycle).
    enable_preemption: bool = False

    def __post_init__(self) -> None:
        if self.control_interval <= 0:
            raise ValueError(f"control_interval must be positive, got {self.control_interval}")


def row_labels(
    tasks: Sequence[Task], class_of: Callable[[Task], int] | array
) -> array:
    """The arrival class of every row: ``class_of`` called once per task,
    or shared as given (not copied) when it is already a row-indexed
    ``array("q")``: labels are never written."""
    if callable(class_of):
        return array("q", map(class_of, tasks))
    if len(class_of) != len(tasks):
        raise ValueError(f"{len(class_of)} class labels for {len(tasks)} tasks")
    return class_of


class ClusterSimulator:
    """Replays a task stream against a machine fleet under one policy.

    Every task is a *row*: its index in ``tasks``.  Per-task state lives in
    flat row-indexed columns allocated once here — the arrival class
    (``labels``), the placement generation, the scheduled finish and the
    hosting machine id — and in :class:`SimulationMetrics`' columns; no
    handler builds a per-task entry.  ``class_of`` gives the arrival class,
    as a callable on the task or a row-indexed ``array("q")``, and ``relabel``
    maps (arrival class, seconds running) to the class a running task
    carries now.
    """

    def __init__(
        self,
        tasks: Sequence[Task],
        horizon: float,
        machine_models: tuple[MachineModel, ...],
        policy: Policy,
        class_of: Callable[[Task], int] | array,
        config: ClusterConfig | None = None,
        relabel: Callable[[int, float], int] | None = None,
    ) -> None:
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        self.config = config or ClusterConfig()
        self.horizon = horizon
        self.policy = policy
        self.relabel = relabel
        self.relabel_events = 0
        self.tasks = tasks
        count = len(tasks)
        #: Row -> arrival class (Section V labels every arrival short).
        self.labels = row_labels(tasks, class_of)

        self.pools: list[MachinePool] = []
        offset = 0
        for model in machine_models:
            self.pools.append(MachinePool(model, id_offset=offset))
            offset += model.count
        self._pool_by_platform = {pool.platform_id: pool for pool in self.pools}

        #: Machine id -> machine (ids run 0..N-1 across the pools).
        self._machines: list[Machine] = [
            machine for pool in self.pools for machine in pool.machines
        ]

        self.scheduler = FirstFitScheduler(self.pools, tasks, self.labels)
        self.ledger = QuotaLedger()
        self.metrics = SimulationMetrics(tasks)
        self.energy = EnergyMeter(
            models={m.platform_id: m for m in machine_models},
            price=self.config.price,
        )

        self._queue = EventQueue()
        self._interval_arrivals: dict[int, float] = {}
        self._last_switch_counts: dict[int, tuple[int, int]] = {
            pool.platform_id: (0, 0) for pool in self.pools
        }
        self._demand_cpu = 0.0
        self._demand_memory = 0.0
        self._last_tick = 0.0
        self._total_machines = sum(pool.total for pool in self.pools)
        #: Row -> id of the machine hosting it, -1 when not running.
        self._host = array("q", [-1]) * count
        #: Row -> absolute scheduled finish time (for fault rescaling).
        self._finish_at = array("d", [0.0]) * count
        self.tasks_killed = 0
        self.tasks_preempted = 0
        #: Row -> placement generation: a finish event carries the
        #: generation it was issued under, so a restart or a rescale makes
        #: the earlier event stale.
        self._generation = array("q", [0]) * count
        #: Fabric link state, attached by the injector when the plan has
        #: fabric faults (None = no network fault universe this run).
        self.fabric: FabricState | None = None
        #: Per-cell fabric stretch currently applied to each pool.
        self._pool_stretch: dict[int, float] = {
            pool.platform_id: 1.0 for pool in self.pools
        }
        #: Cells currently unreachable from the trace-ingest cell.
        self._unreachable: frozenset[int] = frozenset()
        #: Cell id -> time of its last fresh telemetry report.
        self._last_heard: dict[int, float] = {
            pool.platform_id: 0.0 for pool in self.pools
        }
        #: Cell id -> last fresh (available, powered, running-by-class)
        #: report, replayed for unreachable cells (the scoped blackout).
        self._cell_report: dict[int, tuple[int, int, dict[int, int] | None]] = {
            pool.platform_id: (pool.total, 0, None) for pool in self.pools
        }
        #: When the current partition started (None = not partitioned).
        self._partition_since: float | None = None
        self.fault_injector = self._build_fault_injector()

    def _build_fault_injector(self) -> FaultInjector | None:
        """Attach an injector for the configured fault plan, if it has faults."""
        plan = self.config.fault_plan
        if plan is None or not plan.has_faults:
            return None
        injector = FaultInjector(plan)
        injector.attach(self)
        return injector

    # ---------------------------------------------------------------- runs

    def run(self) -> SimulationMetrics:
        """Replay the full trace; returns the collected metrics."""
        for row, task in enumerate(self.tasks):
            self._queue.schedule(task.submit_time, EventKind.TASK_ARRIVAL, row)
        self._push_control_ticks()

        while self._queue:
            next_time = self._queue.peek_time()
            if next_time is None or next_time > self.horizon:
                break
            self._dispatch(self._queue.pop())
        return self._finish_run()

    def _push_control_ticks(self) -> None:
        """Queue every control tick up to (and closing at) the horizon."""
        tick = 0.0
        while tick < self.horizon:
            self._queue.schedule(tick, EventKind.CONTROL_TICK, None)
            tick += self.config.control_interval
        # A final tick at the horizon closes the last energy interval.
        self._queue.schedule(self.horizon, EventKind.CONTROL_TICK, None)

    def _dispatch(self, event) -> None:
        """Route one popped event to its handler."""
        if event.kind is EventKind.TASK_ARRIVAL:
            self._on_arrival(event.payload)
        elif event.kind is EventKind.TASK_FINISH:
            self._on_finish(event.payload)
        elif event.kind is EventKind.MACHINE_READY:
            self._on_machine_ready(event.payload)
        elif event.kind is EventKind.FAULT:
            assert self.fault_injector is not None
            self.fault_injector.fire(event.payload, self._queue.now)
        elif event.kind is EventKind.CONTROL_TICK:
            self._on_tick(self._queue.now)

    def _finish_run(self) -> SimulationMetrics:
        """Close per-run accounting once the event loop drains."""
        if self._partition_since is not None:
            # A partition still open at the horizon ends with the run.
            self.metrics.fabric.partition_seconds += (
                self.horizon - self._partition_since
            )
            self._partition_since = None
        self.metrics.fabric.deferred_placements = self.scheduler.fabric_deferrals
        return self.metrics

    # -------------------------------------------------------------- events

    def _on_arrival(self, row: int) -> None:
        now = self._queue.now
        task = self.tasks[row]
        self.metrics.task_submitted(row, now)
        class_id = self.labels[row]
        self._interval_arrivals[class_id] = self._interval_arrivals.get(class_id, 0.0) + 1.0
        self._demand_cpu += task.cpu
        self._demand_memory += task.memory
        machine = self.scheduler.try_place(row, class_id, self.ledger)
        if machine is None and self.config.enable_preemption:
            machine = self._try_preempt(row, class_id, now)
        if machine is None:
            self.scheduler.enqueue(row, proven=True)
        else:
            self._start_task(row, class_id, machine, now)

    def _start_task(self, row: int, class_id: int, machine: Machine, now: float) -> None:
        """Account a placement just made and issue its finish event."""
        self._host[row] = machine.machine_id
        self.metrics.task_scheduled(row, now, class_id, machine.model.platform_id)
        generation = self._generation[row] + 1
        self._generation[row] = generation
        # Stragglers and degraded fabric paths stretch the work: a degraded
        # machine (or cell) runs its tasks slower.
        finish = now + self.tasks[row].duration * machine.effective_slowdown
        self._finish_at[row] = finish
        self._queue.schedule(finish, EventKind.TASK_FINISH, (row, generation))

    def _unplace(self, row: int) -> None:
        """A running row was evicted or killed: its finish event goes stale
        and it is pending again."""
        self._host[row] = -1
        self._generation[row] += 1
        self.metrics.task_unplaced(row)

    def _on_finish(self, payload: tuple[int, int]) -> None:
        row, generation = payload
        if self._generation[row] != generation:
            return  # stale event: the task was killed and restarted
        now = self._queue.now
        task = self.tasks[row]
        machine = self._machines[self._host[row]]
        self._host[row] = -1
        class_id = machine.release(row, task)
        self.ledger.release(machine.model.platform_id, class_id)
        self.scheduler.released(machine, class_id)
        self.metrics.task_finished(row, now)
        self._demand_cpu = max(self._demand_cpu - task.cpu, 0.0)
        self._demand_memory = max(self._demand_memory - task.memory, 0.0)
        pool = self._pool_by_platform[machine.model.platform_id]
        pool.maybe_power_off(machine)
        self._schedule_round(BACKFILL_ATTEMPTS)

    def _on_machine_ready(self, machine) -> None:
        pool = self._pool_by_platform[machine.model.platform_id]
        pool.machine_ready(machine)
        self.scheduler.machine_changed(machine)
        if machine.state is MachineState.ON:
            # Closes the repair episode if this machine had crashed (no-op
            # otherwise); a boot cancelled by a mid-boot crash stays open.
            self.metrics.machine_recovered(machine.machine_id, self._queue.now)
        self._schedule_round(BACKFILL_ATTEMPTS)

    def _on_tick(self, now: float) -> None:
        self._account_energy(now)
        self._record_timelines(now)
        if now >= self.horizon:
            return
        if self.relabel is not None:
            # Moves ledger slots without notifying the scheduler; sound
            # only because _apply_decision invalidates it in this tick.
            self._relabel_running(now)

        # What the monitoring pipe reports — zeroed during a blackout, even
        # though the tasks really arrived (the policy must cope).
        arrivals = self._interval_arrivals
        if self.fault_injector is not None:
            arrivals = self.fault_injector.mask_arrivals(now, arrivals)

        available = {
            pool.platform_id: pool.total
            - sum(1 for m in pool.machines if m.failed_until > now)
            for pool in self.pools
        }
        powered = {pool.platform_id: pool.powered for pool in self.pools}
        running_by_platform = self.ledger.snapshot()
        fabric_view = None
        if self.fabric is not None:
            fabric_view = self._fabric_view(
                now, available, powered, running_by_platform
            )
        view = ClusterView(
            time=now,
            backlog=self.scheduler.backlog_by_class(),
            running=self._running_by_class(),
            running_by_platform=running_by_platform,
            demand_cpu=self._demand_cpu,
            demand_memory=self._demand_memory,
            available=available,
            powered=powered,
            arrivals=dict(arrivals),
            fabric=fabric_view,
        )
        self._interval_arrivals = {}
        decision = self.policy.decide(view)
        self._apply_decision(decision, now)
        self._schedule_round(MAX_SCHEDULE_ATTEMPTS)

    # ------------------------------------------------------------ internals

    def _try_preempt(self, row: int, class_id: int, now: float) -> Machine | None:
        """Priority preemption: evict enough strictly-lower-priority work.

        Scans schedulable machines the task could run on for the one where
        evicting the smallest set of tasks at least
        ``PREEMPTION_PRIORITY_GAP`` levels below frees enough room.
        Evicted tasks restart from scratch (re-enqueued pending), matching
        the clusterdata EVICT/resubmit semantics.  Quota admission still
        applies to the preemptor.
        """
        tasks = self.tasks
        task = tasks[row]
        threshold = task.priority - PREEMPTION_PRIORITY_GAP
        if threshold < 0:
            return None
        best_machine = None
        best_victims: list[tuple[int, int]] | None = None
        for pool in self.pools:
            if pool.platform_id in self._unreachable:
                continue  # no placements into partitioned cells
            model = pool.model
            if task.cpu > model.cpu_capacity or task.memory > model.memory_capacity:
                continue
            if (
                task.allowed_platforms is not None
                and pool.platform_id not in task.allowed_platforms
            ):
                continue
            if not self.ledger.admits(pool.platform_id, class_id):
                continue
            for machine in pool.machines:
                if not machine.schedulable:
                    continue
                candidates = sorted(
                    (
                        (victim, vid)
                        for victim, vid in machine.running.items()
                        if tasks[victim].priority <= threshold
                    ),
                    key=lambda pair: tasks[pair[0]].cpu + tasks[pair[0]].memory,
                )
                need_cpu = task.cpu - machine.cpu_free
                need_memory = task.memory - machine.memory_free
                victims: list[tuple[int, int]] = []
                freed_cpu = freed_memory = 0.0
                for victim, vid in candidates:
                    if freed_cpu >= need_cpu and freed_memory >= need_memory:
                        break
                    victims.append((victim, vid))
                    freed_cpu += tasks[victim].cpu
                    freed_memory += tasks[victim].memory
                if freed_cpu >= need_cpu and freed_memory >= need_memory:
                    if best_victims is None or len(victims) < len(best_victims):
                        best_machine, best_victims = machine, victims
            if best_victims is not None and len(best_victims) <= 1:
                break
        if best_machine is None or best_victims is None:
            return None

        for victim, victim_class in best_victims:
            best_machine.release(victim, tasks[victim])
            self.ledger.release(best_machine.model.platform_id, victim_class)
            self._unplace(victim)
            self.tasks_preempted += 1
            self.scheduler.enqueue(victim)
        best_machine.place(row, task, class_id)
        self.ledger.place(best_machine.model.platform_id, class_id)
        self.scheduler.invalidate()
        return best_machine

    # -------------------------------------------------------- fault hooks
    #
    # The FaultInjector decides *what* fails and *when*; these methods own
    # the mechanics (quota stocks, finish events, metrics bookkeeping).

    def schedule_fault(self, time: float, payload: object) -> None:
        """Queue a fault event (fired back to ``fault_injector.fire``)."""
        self._queue.schedule(time, EventKind.FAULT, payload)

    def crash_machine(
        self, pool: MachinePool, machine, now: float, repair_seconds: float
    ) -> None:
        """Crash one machine: its tasks restart elsewhere, repair begins."""
        if machine.is_off and machine.failed_until > now:
            return  # already down (overlapping faults)
        killed = pool.fail(machine, now, repair_seconds)
        self.metrics.machine_failed(machine.machine_id, now)
        self.scheduler.machine_changed(machine)
        for row, class_id in killed:
            self.ledger.release(machine.model.platform_id, class_id)
            self.scheduler.released(machine, class_id)
            self._unplace(row)
            self.metrics.task_killed(row, now)
            self.tasks_killed += 1
            self.scheduler.enqueue(row)

    def rescale_machine(self, machine, slowdown: float, now: float) -> None:
        """Set a machine's straggler factor.

        Remaining work of every task running there is stretched (or, on
        restore, compressed) by the slowdown ratio; their finish events are
        re-issued under a new generation.
        """
        if slowdown <= 0:
            raise ValueError(f"slowdown must be positive, got {slowdown}")
        old = machine.slowdown
        if old == slowdown:
            return
        machine.slowdown = slowdown
        self._reissue_finishes(machine, slowdown / old, now)

    def _reissue_finishes(self, machine, ratio: float, now: float) -> None:
        """Stretch/compress remaining work of a machine's running tasks."""
        for row in machine.running:
            remaining = max(self._finish_at[row] - now, 0.0)
            new_finish = now + remaining * ratio
            generation = self._generation[row] + 1
            self._generation[row] = generation
            self._finish_at[row] = new_finish
            self._queue.schedule(new_finish, EventKind.TASK_FINISH, (row, generation))

    # ------------------------------------------------------- fabric hooks

    def fabric_cells(self) -> tuple[int, ...]:
        """The fleet's cells (platform ids, sorted) for topology derivation."""
        return tuple(sorted(pool.platform_id for pool in self.pools))

    def attach_fabric(self, fabric: FabricState) -> None:
        """Bind the injector's fabric state (called from ``attach``)."""
        if self.fabric is not None:
            raise RuntimeError("a fabric is already attached to this simulator")
        cells = set(fabric.topology.cells)
        pools = set(self._pool_by_platform)
        if cells != pools:
            raise ValueError(
                f"fabric cells {sorted(cells)} do not match the fleet's "
                f"platform ids {sorted(pools)}"
            )
        self.fabric = fabric

    def on_fabric_changed(self, now: float) -> None:
        """React to a fabric mutation: stretches, reachability, accounting.

        Per-cell service-time stretch is the best-surviving-path compound
        stretch from the ingest cell (1.0 inside the ingest cell itself);
        it applies pool-wide, re-issuing finish events exactly like
        straggler rescaling.  An unreachable cell keeps its last applied
        stretch frozen — work already running there continues locally —
        while the scheduler stops placing new work into it.
        """
        assert self.fabric is not None
        stretch_by_cell = self.fabric.cell_stretch()
        for pool in self.pools:
            stretch = stretch_by_cell.get(pool.platform_id)
            if stretch is None:  # unreachable: freeze the last stretch
                continue
            current = self._pool_stretch[pool.platform_id]
            if stretch != current:
                self._pool_stretch[pool.platform_id] = stretch
                for machine in pool.machines:
                    machine.fabric_stretch = stretch
                    self._reissue_finishes(machine, stretch / current, now)

        unreachable = frozenset(self.fabric.unreachable_cells())
        if unreachable == self._unreachable:
            return
        self._unreachable = unreachable
        self.scheduler.set_unreachable(unreachable)
        fabric_metrics = self.metrics.fabric
        fabric_metrics.max_unreachable_cells = max(
            fabric_metrics.max_unreachable_cells, len(unreachable)
        )
        if unreachable and self._partition_since is None:
            self._partition_since = now
        elif not unreachable and self._partition_since is not None:
            fabric_metrics.partition_seconds += now - self._partition_since
            self._partition_since = None

    def _fabric_view(
        self,
        now: float,
        available: dict[int, int],
        powered: dict[int, int],
        running_by_platform: dict[int, dict[int, int]],
    ) -> FabricView:
        """Per-tick fabric snapshot; masks unreachable cells' telemetry.

        Reachable cells report fresh values and advance their staleness
        stamp; unreachable cells replay their last fresh report (the
        scoped-blackout semantics) so the policy sees a partitioned — not
        merely shrunken — cluster.
        """
        assert self.fabric is not None
        for pool in self.pools:
            cell = pool.platform_id
            if cell in self._unreachable:
                stale_available, stale_powered, stale_running = self._cell_report[cell]
                available[cell] = stale_available
                powered[cell] = stale_powered
                if stale_running is None:
                    running_by_platform.pop(cell, None)
                else:
                    running_by_platform[cell] = dict(stale_running)
            else:
                self._last_heard[cell] = now
                running = running_by_platform.get(cell)
                self._cell_report[cell] = (
                    available[cell],
                    powered[cell],
                    dict(running) if running is not None else None,
                )
        return FabricView(
            unreachable=tuple(sorted(self._unreachable)),
            last_heard=dict(sorted(self._last_heard.items())),
            degraded_links=tuple(
                link_label(pair) for pair in self.fabric.degraded_links()
            ),
            partitioned=bool(self._unreachable),
        )

    def _relabel_running(self, now: float) -> None:
        """Section V's progressive relabeling: running tasks that outlive
        their class's short/long boundary migrate to the long sub-class,
        moving their quota stock with them."""
        relabel = self.relabel
        assert relabel is not None
        labels = self.labels
        schedule_time = self.metrics.schedule_time
        for pool in self.pools:
            for machine in pool.machines:
                if not machine.running:
                    continue
                updates: list[tuple[int, int, int]] = []
                for row, class_id in machine.running.items():
                    new_class = relabel(labels[row], now - schedule_time[row])
                    if new_class != class_id:
                        updates.append((row, class_id, new_class))
                for row, old_class, new_class in updates:
                    machine.running[row] = new_class
                    self.ledger.release(machine.model.platform_id, old_class)
                    self.ledger.place(machine.model.platform_id, new_class)
                    self.metrics.task_relabeled(row, new_class)
                    self.relabel_events += 1

    def _running_by_class(self) -> dict[int, int]:
        running: dict[int, int] = {}
        for pool in self.pools:
            for class_id, count in pool.running_count_by_class().items():
                running[class_id] = running.get(class_id, 0) + count
        return running

    def _apply_decision(self, decision: ProvisioningDecision, now: float) -> None:
        self.ledger.set_quotas(decision.quotas)
        for pool in self.pools:
            target = decision.active.get(pool.platform_id, 0)
            started = pool.reconcile(target, now=now)
            for machine in started:
                self._queue.schedule(
                    now + machine.model.boot_seconds, EventKind.MACHINE_READY, machine
                )
        self.scheduler.invalidate()

    def _schedule_round(self, max_attempts: int) -> None:
        if not self.scheduler.queued:
            return
        now = self._queue.now
        for placement in self.scheduler.schedule_round(self.ledger, max_attempts):
            self._start_task(placement.row, placement.class_id, placement.machine, now)

    def _account_energy(self, now: float) -> None:
        # The interval that just ended may be shorter at the horizon edge.
        seconds = now - self._last_tick
        self._last_tick = now
        if seconds <= 0:
            return
        for pool in self.pools:
            cpu_util, memory_util = pool.utilization()
            on_events, off_events = (
                pool.stats.switch_on_events,
                pool.stats.switch_off_events,
            )
            prev_on, prev_off = self._last_switch_counts[pool.platform_id]
            switches = (on_events - prev_on) + (off_events - prev_off)
            self._last_switch_counts[pool.platform_id] = (on_events, off_events)
            self.energy.record_interval(
                time=now - seconds,
                seconds=seconds,
                platform_id=pool.platform_id,
                active_machines=pool.powered,
                cpu_utilization=cpu_util,
                memory_utilization=memory_util,
                switches=switches,
            )

    def _record_timelines(self, now: float) -> None:
        powered = sum(pool.powered for pool in self.pools)
        schedulable = sum(len(pool.schedulable_machines()) for pool in self.pools)
        self.metrics.machine_timeline.append((now, powered, schedulable))
        failed = sum(
            1 for pool in self.pools for m in pool.machines if m.failed_until > now
        )
        degraded = sum(
            1 for pool in self.pools for m in pool.machines if m.slowdown > 1.0
        )
        blackout = (
            self.fault_injector.in_blackout(now)
            if self.fault_injector is not None
            else False
        )
        self.metrics.fault_sample(now, failed, self._total_machines, degraded, blackout)
        if self.fabric is not None:
            fabric_metrics = self.metrics.fabric
            if self._unreachable:
                fabric_metrics.partition_ticks += 1
            for pair in self.fabric.degraded_links():
                label = link_label(pair)
                fabric_metrics.degraded_link_ticks[label] = (
                    fabric_metrics.degraded_link_ticks.get(label, 0) + 1
                )
        self.metrics.machine_timeline_by_type.append(
            (now, {pool.platform_id: pool.powered for pool in self.pools})
        )
        total_cpu = sum(pool.total * pool.model.cpu_capacity for pool in self.pools)
        total_memory = sum(pool.total * pool.model.memory_capacity for pool in self.pools)
        used_cpu = sum(
            machine.cpu_used for pool in self.pools for machine in pool.machines
        )
        used_memory = sum(
            machine.memory_used for pool in self.pools for machine in pool.machines
        )
        self.metrics.utilization_timeline.append(
            (
                now,
                used_cpu / total_cpu if total_cpu else 0.0,
                used_memory / total_memory if total_memory else 0.0,
            )
        )
