"""Task schedulers for the cluster simulator.

Schedulers place pending tasks onto schedulable machines subject to:

- per-machine capacity (cpu, memory);
- per-task placement constraints (``allowed_platforms``);
- optionally, per-(machine type, task class) quotas — the ``x^{mn}_t`` caps
  CBS/CBP hand the scheduler (Sections VII-VIII).

Placement is first-fit (the paper's assumption for production schedulers),
processing the queue highest-priority first with backfill: a blocked large
task does not stop smaller lower-priority tasks from using leftover capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.simulation.machine import Machine, MachinePool
from repro.trace.schema import Task


class QuotaLedger:
    """Tracks per-(platform, class) running-task stocks against quotas.

    The CBS quota ``x^{mn}_t`` bounds the *number of type-n containers on
    type-m machines at time t* — a stock, not a flow — so the ledger counts
    currently running tasks and admits a placement only while the stock is
    below quota.  A ``None`` quota table means unrestricted (baseline).
    """

    def __init__(self) -> None:
        self._quotas: dict[int, dict[int, int]] | None = None
        self._running: dict[tuple[int, int], int] = {}

    def set_quotas(self, quotas: dict[int, dict[int, int]] | None) -> None:
        self._quotas = quotas

    @property
    def restricted(self) -> bool:
        """Whether a quota table is active (admission can actually refuse)."""
        return self._quotas is not None

    def admits(self, platform_id: int, class_id: int) -> bool:
        if self._quotas is None:
            return True
        limit = self._quotas.get(platform_id, {}).get(class_id, 0)
        return self._running.get((platform_id, class_id), 0) < limit

    def admits_each(self, platform_id: int, class_ids) -> list[bool]:
        """:meth:`admits` over many class ids without per-call overhead.

        The columnar engine's round-start feasibility mask asks about every
        distinct pending class against every pool; batching the lookups
        keeps that out of the per-task hot path.
        """
        if self._quotas is None:
            return [True] * len(class_ids)
        limits = self._quotas.get(platform_id, {})
        running = self._running
        return [
            running.get((platform_id, c), 0) < limits.get(c, 0) for c in class_ids
        ]

    def place(self, platform_id: int, class_id: int) -> None:
        key = (platform_id, class_id)
        self._running[key] = self._running.get(key, 0) + 1

    def release(self, platform_id: int, class_id: int) -> None:
        key = (platform_id, class_id)
        current = self._running.get(key, 0)
        if current <= 0:
            raise ValueError(f"release without matching place for {key}")
        self._running[key] = current - 1

    def running(self, platform_id: int, class_id: int) -> int:
        return self._running.get((platform_id, class_id), 0)

    def snapshot(self) -> dict[int, dict[int, int]]:
        """Current stocks as {platform_id: {class_id: running}}."""
        result: dict[int, dict[int, int]] = {}
        for (platform_id, class_id), count in self._running.items():
            if count > 0:
                result.setdefault(platform_id, {})[class_id] = count
        return result


@dataclass(frozen=True)
class Placement:
    """One successful task placement."""

    task: Task
    machine: Machine
    class_id: int


class FirstFitScheduler:
    """First machine with room, scanning pools smallest-capacity first.

    The scan starts at a per-pool rotating hint (the index of the last
    successful placement) and wraps around: early machines fill first and
    re-scanning them for every task would make placement O(pool size).
    The wrap-around keeps the scan complete, so this is first-fit from a
    moving origin rather than next-fit.
    """

    def __init__(self, pools: list[MachinePool]) -> None:
        if not pools:
            raise ValueError("scheduler needs at least one machine pool")
        # Prefer the smallest machine that can host a task: better packing
        # and it reserves big machines for big tasks.
        self.pools = sorted(pools, key=lambda p: (p.model.cpu_capacity, p.model.memory_capacity))
        #: Cells (platform ids) currently unreachable from the trace-ingest
        #: cell — no placements there while a partition holds.
        self._unreachable: frozenset[int] = frozenset()
        #: Placement attempts that failed after skipping an unreachable
        #: cell (the partition may be why the task stayed pending).
        self.fabric_deferrals = 0
        self._hints: dict[int, int] = {pool.platform_id: 0 for pool in self.pools}

    def set_unreachable(self, cells: frozenset[int]) -> None:
        """Update which cells the fabric has cut off from ingest."""
        self._unreachable = frozenset(cells)

    def _pick_machine(self, task: Task, pool: MachinePool) -> Machine | None:
        machines = pool.machines
        count = len(machines)
        start = self._hints.get(pool.platform_id, 0) % max(count, 1)
        for offset in range(count):
            index = (start + offset) % count
            machine = machines[index]
            if machine.fits(task):
                self._hints[pool.platform_id] = index
                return machine
        return None

    def try_place(
        self,
        task: Task,
        class_id: int,
        ledger: QuotaLedger,
        failed: dict[int, list[tuple[float, float]]] | None = None,
    ) -> Machine | None:
        """Place one task; returns the machine or None.

        ``failed`` is an intra-round memo of (cpu, memory) demands that
        already failed a pool's machine scan purely on capacity.  A task
        dominating a failed demand in both dimensions cannot fit either, so
        its scan is skipped — capacity only shrinks within a round.
        """
        skipped_unreachable = False
        for pool in self.pools:
            if pool.platform_id in self._unreachable:
                skipped_unreachable = True
                continue
            if task.cpu > pool.model.cpu_capacity or task.memory > pool.model.memory_capacity:
                continue
            if (
                task.allowed_platforms is not None
                and pool.platform_id not in task.allowed_platforms
            ):
                continue
            if not ledger.admits(pool.platform_id, class_id):
                continue
            pool_failed = failed.get(pool.platform_id) if failed is not None else None
            if pool_failed is not None and any(
                task.cpu >= fc and task.memory >= fm for fc, fm in pool_failed
            ):
                continue
            machine = self._pick_machine(task, pool)
            if machine is not None:
                machine.place(task, class_id)
                ledger.place(pool.platform_id, class_id)
                return machine
            if failed is not None:
                entry = failed.setdefault(pool.platform_id, [])
                # Keep only pareto-minimal failed demands.
                entry[:] = [
                    (fc, fm) for fc, fm in entry
                    if not (fc >= task.cpu and fm >= task.memory)
                ]
                entry.append((task.cpu, task.memory))
        if skipped_unreachable:
            self.fabric_deferrals += 1
        return None

    def schedule(
        self,
        pending: Iterable[Task],
        ledger: QuotaLedger,
        class_of: Callable[[Task], int],
        max_attempts: int | None = None,
    ) -> tuple[list[Placement], list[Task]]:
        """Walk the pending queue (assumed priority-ordered) with backfill.

        Returns (placements, still-pending).  ``max_attempts`` caps how many
        queue entries are examined per round, bounding worst-case cost under
        a deep backlog.
        """
        placements: list[Placement] = []
        leftover: list[Task] = []
        attempts = 0
        failed: dict[int, list[tuple[float, float]]] = {}
        iterator = iter(pending)
        for task in iterator:
            if max_attempts is not None and attempts >= max_attempts:
                leftover.append(task)
                leftover.extend(iterator)
                break
            attempts += 1
            class_id = class_of(task)
            machine = self.try_place(task, class_id, ledger, failed)
            if machine is None:
                leftover.append(task)
            else:
                placements.append(Placement(task=task, machine=machine, class_id=class_id))
        return placements, leftover

