"""Machine lifecycle for the cluster simulator.

Each physical machine walks the state machine

    OFF --turn_on--> BOOTING --(boot_seconds)--> ON --turn_off(idle)--> OFF

An ON machine with running tasks cannot power down immediately; it is marked
*draining* (no new placements) and turns off when its last task finishes.
Booting and draining machines draw idle power, so aggressive flapping is
penalized both here and through the controller's switching cost.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.energy.models import MachineModel
from repro.trace.schema import Task


class MachineState(enum.Enum):
    """Machine power state (OFF -> BOOTING -> ON)."""

    OFF = "off"
    BOOTING = "booting"
    ON = "on"


@dataclass
class Machine:
    """One physical machine instance."""

    machine_id: int
    model: MachineModel
    state: MachineState = MachineState.OFF
    draining: bool = False
    #: A failed machine cannot be booted again before this time.
    failed_until: float = 0.0
    #: Straggler factor: tasks here take ``slowdown`` times their nominal
    #: duration (1.0 = healthy; set by degradation faults).
    slowdown: float = 1.0
    #: Fabric factor: extra stretch from degraded links on the best path
    #: between this machine's cell and the trace-ingest cell (1.0 =
    #: healthy; set pool-wide by fabric faults, composed with
    #: ``slowdown`` via :attr:`effective_slowdown`).
    fabric_stretch: float = 1.0
    cpu_used: float = 0.0
    memory_used: float = 0.0
    #: task row -> class id for everything currently running here (a row
    #: indexes the simulator's ``tasks`` tuple).
    running: dict[int, int] = field(default_factory=dict)

    @property
    def effective_slowdown(self) -> float:
        """Total service-time multiplier: straggler x fabric stretch."""
        return self.slowdown * self.fabric_stretch

    @property
    def cpu_free(self) -> float:
        return self.model.cpu_capacity - self.cpu_used

    @property
    def memory_free(self) -> float:
        return self.model.memory_capacity - self.memory_used

    @property
    def is_idle(self) -> bool:
        return not self.running

    @property
    def is_off(self) -> bool:
        return self.state is MachineState.OFF

    @property
    def schedulable(self) -> bool:
        """Whether new tasks may be placed here.

        Draining machines remain schedulable: they draw power until their
        last task finishes anyway, so refusing work would strand paid-for
        capacity.  They power off the moment they go idle
        (:meth:`MachinePool.maybe_power_off`); under falling demand the
        shrinking quotas starve them of new placements and they do empty.
        """
        return self.state is MachineState.ON

    def fits(self, task: Task) -> bool:
        if not self.schedulable:
            return False
        if (
            task.allowed_platforms is not None
            and self.model.platform_id not in task.allowed_platforms
        ):
            return False
        return task.cpu <= self.cpu_free + 1e-9 and task.memory <= self.memory_free + 1e-9

    def place(self, row: int, task: Task, class_id: int) -> None:
        """Start ``task`` (the task at ``row``) here under ``class_id``."""
        if not self.fits(task):
            raise ValueError(f"task {task.uid} does not fit machine {self.machine_id}")
        self.running[row] = class_id
        self.cpu_used += task.cpu
        self.memory_used += task.memory

    def release(self, row: int, task: Task) -> int:
        """Remove a finished task; returns the class id it ran under."""
        class_id = self.running.pop(row, None)
        if class_id is None:
            raise KeyError(f"task {task.uid} is not running on machine {self.machine_id}")
        self.cpu_used = max(self.cpu_used - task.cpu, 0.0)
        self.memory_used = max(self.memory_used - task.memory, 0.0)
        return class_id


@dataclass
class PoolStats:
    """Switch and failure accounting for one machine pool."""

    switch_on_events: int = 0
    switch_off_events: int = 0
    failures: int = 0


class MachinePool:
    """All machines of one platform type, with target-count reconciliation."""

    def __init__(self, model: MachineModel, id_offset: int = 0) -> None:
        self.model = model
        self.machines: list[Machine] = [
            Machine(machine_id=id_offset + i, model=model) for i in range(model.count)
        ]
        self.stats = PoolStats()

    # ------------------------------------------------------------- queries

    @property
    def platform_id(self) -> int:
        return self.model.platform_id

    @property
    def total(self) -> int:
        return len(self.machines)

    @property
    def powered(self) -> int:
        """Machines drawing power (ON or BOOTING)."""
        return sum(1 for m in self.machines if m.state is not MachineState.OFF)

    @property
    def active_non_draining(self) -> int:
        return sum(
            1
            for m in self.machines
            if m.state is not MachineState.OFF and not m.draining
        )

    def schedulable_machines(self) -> list[Machine]:
        return [m for m in self.machines if m.schedulable]

    def capacity_columns(self) -> tuple[list[float], list[float], list[bool]]:
        """Snapshot of (cpu_free, memory_free, schedulable) per machine.

        The columnar engine mirrors these into numpy arrays; the machine
        objects stay authoritative, so the free values are computed exactly
        as the :class:`Machine` properties compute them.
        """
        cpu_capacity = self.model.cpu_capacity
        memory_capacity = self.model.memory_capacity
        cpu_free = [cpu_capacity - m.cpu_used for m in self.machines]
        memory_free = [memory_capacity - m.memory_used for m in self.machines]
        schedulable = [m.state is MachineState.ON for m in self.machines]
        return cpu_free, memory_free, schedulable

    def utilization(self) -> tuple[float, float]:
        """Mean (cpu, memory) utilization over powered machines."""
        powered = [m for m in self.machines if m.state is not MachineState.OFF]
        if not powered:
            return (0.0, 0.0)
        cpu = sum(m.cpu_used for m in powered) / (
            len(powered) * self.model.cpu_capacity
        )
        memory = sum(m.memory_used for m in powered) / (
            len(powered) * self.model.memory_capacity
        )
        return (min(cpu, 1.0), min(memory, 1.0))

    def running_count_by_class(self) -> dict[int, int]:
        """Running tasks per class id across the pool (for quota stocks)."""
        counts: dict[int, int] = {}
        for machine in self.machines:
            for class_id in machine.running.values():
                counts[class_id] = counts.get(class_id, 0) + 1
        return counts

    # ------------------------------------------------------- reconciliation

    def reconcile(self, target: int, now: float = 0.0) -> list[Machine]:
        """Adjust the pool toward ``target`` powered, non-draining machines.

        Powers on OFF machines (returned so the caller can schedule their
        MACHINE_READY events) and drains/offs surplus ones.  Draining
        machines are revived first when scaling up — cheaper than booting.
        Machines under repair (``failed_until > now``) are not booted.
        """
        target = max(0, min(target, self.total))
        current = self.active_non_draining
        started: list[Machine] = []

        if current < target:
            needed = target - current
            # Revive draining machines first.
            for machine in self.machines:
                if needed == 0:
                    break
                if machine.state is not MachineState.OFF and machine.draining:
                    machine.draining = False
                    needed -= 1
            # Then boot cold machines (skipping those under repair).
            for machine in self.machines:
                if needed == 0:
                    break
                if machine.state is MachineState.OFF and machine.failed_until <= now:
                    machine.state = MachineState.BOOTING
                    machine.draining = False
                    self.stats.switch_on_events += 1
                    started.append(machine)
                    needed -= 1
        elif current > target:
            surplus = current - target
            # Shut idle machines instantly; mark the emptiest busy ones as
            # draining.  A draining machine keeps serving (and accepting)
            # tasks until it empties — powering it draws idle watts either
            # way, so stranding its capacity would only hurt scheduling
            # delay (see Machine.schedulable).
            candidates = sorted(
                (
                    m
                    for m in self.machines
                    if m.state is not MachineState.OFF and not m.draining
                ),
                key=lambda m: (not m.is_idle, len(m.running), m.cpu_used),
            )
            for machine in candidates[:surplus]:
                if machine.is_idle and machine.state is MachineState.ON:
                    machine.state = MachineState.OFF
                    self.stats.switch_off_events += 1
                else:
                    machine.draining = True
        return started

    def machine_ready(self, machine: Machine) -> None:
        """Complete a boot (BOOTING -> ON); no-op if it was shut off meanwhile."""
        if machine.state is MachineState.BOOTING:
            machine.state = MachineState.ON

    def fail(self, machine: Machine, now: float, repair_seconds: float
             ) -> list[tuple[int, int]]:
        """Crash a machine: kill its tasks, power off, start repair.

        Returns the (row, class_id) pairs that were running so the caller
        can re-enqueue them and release their quota stocks.
        """
        if repair_seconds < 0:
            raise ValueError(f"repair_seconds must be >= 0, got {repair_seconds}")
        victims = list(machine.running.items())
        machine.running.clear()
        machine.cpu_used = 0.0
        machine.memory_used = 0.0
        machine.state = MachineState.OFF
        machine.draining = False
        machine.failed_until = now + repair_seconds
        machine.slowdown = 1.0  # repairs also clear any degradation
        self.stats.failures += 1
        return victims

    def maybe_power_off(self, machine: Machine) -> bool:
        """Turn a draining machine off once idle; returns True if it powered off."""
        if machine.draining and machine.is_idle and machine.state is MachineState.ON:
            machine.state = MachineState.OFF
            machine.draining = False
            self.stats.switch_off_events += 1
            return True
        return False
