"""Columnar replay engine: the object engine's loop over a numpy scheduler.

The two replay engines share the event loop and every handler of
:class:`~repro.simulation.cluster.ClusterSimulator` and differ only in the
scheduler it holds.  :class:`ColumnarFirstFitScheduler` answers the calls
of the object engine's :class:`~repro.simulation.scheduler.FirstFitScheduler`
through numpy columns instead of per-task python walks:

- the task population lives in plain numpy columns (:class:`TaskColumns`:
  arrival, size, class, queue rank), one row per task;
- the pending queue is an array of task rows sorted by their static queue
  rank, ties in enqueue order, merged with one binary search per batch;
- per-pool capacity columns (cpu-free / memory-free / schedulable) mirror
  the machine objects and are refreshed from them, never integrated
  independently, so no float drift can accumulate;
- each scheduling round consults a vectorized *feasibility cache* over the
  examined window and only runs the exact serial first-fit logic on tasks
  the cache admits, and after a failed placement it skips straight to the
  next candidate that can be placed;
- the per-pool first-fit machine scan is a numpy kernel
  (:func:`first_fit_index`) with scalar-identical semantics.

:class:`ColumnarClusterSimulator` installs that scheduler and streams task
arrivals from the sorted submit column, merged against the event heap
under the exact ``(time, kind)`` ordering.

The feasibility cache is the core speedup.  A failed placement attempt is
a *proof of infeasibility* that stays valid until something opens up, and
every opening reaches the scheduler as a notice from the shared handlers:
``released`` (a finish or crash kill frees one machine and one quota
slot), ``machine_changed`` (a boot or crash) and ``invalidate`` (a control
tick's reconciliation and quotas, a preemption, a reachability flip).  The
scheduler keeps a per-task ``infeasible`` bit and retests only the flagged
tasks against only the *grown* capacity or the *opened* quota slot;
``invalidate`` drops every bit, and the next round rebuilds them with one
full vectorized mask.  Within a round the same vectorized pass
(:meth:`ColumnarFirstFitScheduler.placeable`) runs again after each failed
``try_place`` over the candidates still to come; those it rejects are
skipped, flagged and counted as their failing walk would count them.

Determinism contract: for any scenario, the columnar engine produces a
``summary()`` bit-identical to the object engine's.  The cache may only
*over*-approximate feasibility (capacity and quota stocks tighten
monotonically within a round, and retests clear bits conservatively), and
a task examined without being placed has no outcome-affecting side effects
in the object engine: the rotating hints mutate only on success, and its
pareto memo only rejects demands dominating one that already failed in
that pool this round, which cannot fit there either.  The columnar walk
therefore keeps no memo, and skipping a walk changes nothing but the work
done.  The differential suite (``tests/test_columnar_differential.py``)
enforces the digests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.simulation.cluster import ClusterSimulator
from repro.simulation.engine import EventKind
from repro.simulation.machine import Machine, MachinePool
from repro.simulation.scheduler import Placement, QuotaLedger, pool_order
from repro.trace.schema import Task

#: The capacity epsilon of :meth:`Machine.fits` — the kernels must compare
#: with the exact same float expression (``demand <= free + EPS``).
FIT_EPS = 1e-9


# ---------------------------------------------------------------- kernels


def capacity_room(
    free: np.ndarray, schedulable: np.ndarray
) -> np.ndarray:
    """Fit-comparable room per machine: ``free + FIT_EPS``, or ``-inf``.

    A demand ``d`` fits a machine exactly when ``d <= room`` — the same
    float expression as :meth:`Machine.fits` (``d <= free + eps``) for
    schedulable machines, and unsatisfiable for any demand (>= 0) on
    non-schedulable ones.
    """
    return np.where(schedulable, free + FIT_EPS, -np.inf)


def first_fit_index(
    cpu_room: np.ndarray,
    memory_room: np.ndarray,
    cpu: float,
    memory: float,
    start: int,
) -> int:
    """First machine index fitting (cpu, memory), scanning from ``start``.

    Vectorized replica of :meth:`FirstFitScheduler._pick_machine`'s scan
    over :func:`capacity_room` arrays: offsets ``0..n-1`` from the
    rotating hint, wrapping around, returning the first index whose
    machine is schedulable and has room under the exact
    :meth:`Machine.fits` float semantics.  Returns -1 when nothing fits.
    """
    count = len(cpu_room)
    if count == 0:
        return -1
    start = start % count
    fits = (cpu <= cpu_room) & (memory <= memory_room)
    tail = fits[start:]
    offset = int(tail.argmax())
    if tail.size and tail[offset]:
        return start + offset
    head = fits[:start]
    if head.size:
        offset = int(head.argmax())
        if head[offset]:
            return offset
    return -1


# ----------------------------------------------------------- task columns


class TaskColumns:
    """The task population as plain numpy columns plus constraint bits.

    One row per task in trace order: ``submit``, ``cpu``, ``memory`` and
    ``class_id`` columns (``class_id`` is a view of the simulator's label
    column, not a copy); a static queue ``rank``, ordering rows as the
    object engine's pending sort key ``(-priority, submit_time)`` does,
    with equal keys getting equal ranks; and a dense boolean
    ``allowed[row, pool]`` matrix resolving each task's
    ``allowed_platforms`` against a pool ordering.
    """

    def __init__(
        self,
        tasks: Sequence[Task],
        labels: Sequence[int],
        pool_platform_ids: tuple[int, ...],
    ) -> None:
        self.submit = np.array([task.submit_time for task in tasks], dtype=np.float64)
        self.cpu = np.array([task.cpu for task in tasks], dtype=np.float64)
        self.memory = np.array([task.memory for task in tasks], dtype=np.float64)
        self.class_id = np.asarray(labels, dtype=np.int64)
        keys = [(-task.priority, task.submit_time) for task in tasks]
        rank_of = {key: rank for rank, key in enumerate(sorted(set(keys)))}
        self.rank = np.array([rank_of[key] for key in keys], dtype=np.intp)
        self.allowed = np.ones((len(tasks), len(pool_platform_ids)), dtype=bool)
        pool_index = {pid: j for j, pid in enumerate(pool_platform_ids)}
        for row, task in enumerate(tasks):
            if task.allowed_platforms is not None:
                self.allowed[row, :] = False
                for platform_id in task.allowed_platforms:
                    j = pool_index.get(platform_id)
                    if j is not None:
                        self.allowed[row, j] = True

    def __len__(self) -> int:
        return len(self.submit)


# ----------------------------------------------------- columnar scheduler


class ColumnarFirstFitScheduler:
    """First-fit over numpy capacity columns, outcome-identical.

    Answers the calls of :class:`FirstFitScheduler` — the pending queue,
    rounds, backlog and capacity notices — with the same outcomes.  The
    machine objects stay authoritative; the per-pool columns are
    refreshed *from* them (point updates for single-machine notices, full
    rebuilds after :meth:`invalidate`) and consulted by the vectorized
    machine scan and the feasibility mask.  A per-pool upper bound on free
    (cpu, memory) across schedulable machines — exact after a full
    rebuild, never understated by point updates — rejects most placement
    attempts against a saturated pool in O(1).
    """

    def __init__(
        self,
        pools: list[MachinePool],
        tasks: Sequence[Task],
        labels: Sequence[int],
    ) -> None:
        self.pools = pool_order(pools)
        #: Cells (platform ids) currently unreachable from ingest.
        self._unreachable: frozenset[int] = frozenset()
        #: Failing walks that skipped an unreachable cell.
        self.fabric_deferrals = 0
        #: Per-pool rotating first-fit origin, as the object scheduler's.
        self._hints: dict[int, int] = {pool.platform_id: 0 for pool in self.pools}
        self._tasks = tasks
        self.columns = TaskColumns(
            tasks, labels, tuple(pool.platform_id for pool in self.pools)
        )
        self._pool_index = {pool.platform_id: j for j, pool in enumerate(self.pools)}
        #: Per-pool :func:`capacity_room` columns (fit-comparable free
        #: capacity, ``-inf`` for non-schedulable machines).
        self._cpu_room: list[np.ndarray] = []
        self._memory_room: list[np.ndarray] = []
        for pool in self.pools:
            n = len(pool.machines)
            self._cpu_room.append(np.full(n, -np.inf))
            self._memory_room.append(np.full(n, -np.inf))
        #: Per-pool exact maxima of the room columns: a demand exceeding
        #: either bound cannot fit any machine, so a saturated pool
        #: rejects placement attempts in O(1) without a scan.
        self._cpu_bound = [-np.inf] * len(self.pools)
        self._memory_bound = [-np.inf] * len(self.pools)
        #: Pool walk order with the per-pool constants the placement loop
        #: needs, avoiding repeated property lookups in the hot path.
        self._pool_meta = [
            (
                j,
                pool.platform_id,
                pool.model.cpu_capacity,
                pool.model.memory_capacity,
                pool.machines,
            )
            for j, pool in enumerate(self.pools)
        ]
        #: machine_id -> (pool index, machine index) for point updates.
        self._slot_of = {
            machine.machine_id: (j, i)
            for j, pool in enumerate(self.pools)
            for i, machine in enumerate(pool.machines)
        }
        self._dirty = [True] * len(self.pools)
        self._any_dirty = True
        #: (pool index, machine index) slots to re-read at the next flush.
        self._stale: set[tuple[int, int]] = set()
        #: Per-pool machine-model capacities, the walk's size check.
        self._cpu_capacity = np.array([pool.model.cpu_capacity for pool in self.pools])
        self._memory_capacity = np.array(
            [pool.model.memory_capacity for pool in self.pools]
        )
        #: Per-pool reachability from the ingest cell, kept in step with
        #: :meth:`set_unreachable`.
        self._reachable = np.ones(len(self.pools), dtype=bool)
        #: Whether a failing :meth:`try_place` walk counts a fabric
        #: deferral: it does exactly when it skipped an unreachable pool,
        #: and a failing walk visits every pool.
        self.defers = False
        #: The priority queue: the queued tasks' rows, in the exact order
        #: the object scheduler's sorted list would have — by queue rank,
        #: ties in enqueue order — and their ranks alongside.
        self._queue_rows = np.empty(0, dtype=np.intp)
        self._queue_rank = np.empty(0, dtype=np.intp)
        #: Rows enqueued since the last merge, in enqueue order.
        self._appended: list[int] = []
        #: Per-task proof bits: True = a placement attempt (or a full
        #: vectorized mask) proved this pending task unplaceable, and no
        #: capacity growth / quota opening has invalidated the proof yet.
        self._infeasible = np.zeros(len(self.columns), dtype=bool)
        #: Whether the proof bits are trustworthy; False forces the next
        #: round to rebuild them with one full feasibility mask.
        self._mask_valid = False
        #: (pool index, machine index) slots whose capacity grew (or whose
        #: machine became schedulable) since the last round.
        self._growth: set[tuple[int, int]] = set()
        #: (platform, class) quota slots that released a unit since the
        #: last round; retested only while a quota table is active.
        self._openings: set[tuple[int, int]] = set()

    def set_unreachable(self, cells: frozenset[int]) -> None:
        """Update which cells the fabric has cut off from ingest."""
        self._unreachable = frozenset(cells)
        self._reachable = np.array(
            [pool.platform_id not in self._unreachable for pool in self.pools],
            dtype=bool,
        )
        self.defers = not self._reachable.all()
        # A cell coming back re-opens its pool to every proven task.
        self.invalidate()

    # ------------------------------------------------------------ notices

    def enqueue(self, row: int, proven: bool = False) -> None:
        """Queue an unplaced row; ``proven`` = a walk just failed for it."""
        self._appended.append(row)
        self._infeasible[row] = proven

    @property
    def queued(self) -> int:
        """Tasks waiting; the simulator runs a round only when non-zero."""
        return len(self._queue_rows) + len(self._appended)

    def machine_changed(self, machine: Machine) -> None:
        """One machine's capacity or state changed: re-read it, retest."""
        slot = self._slot_of[machine.machine_id]
        self._stale.add(slot)
        self._growth.add(slot)

    def released(self, machine: Machine, class_id: int) -> None:
        """A task left ``machine``: its room and its quota slot opened."""
        self.machine_changed(machine)
        self._openings.add((machine.model.platform_id, class_id))

    def invalidate(self) -> None:
        """Machines, quotas or reachability changed wholesale: rebuild
        every pool's columns and drop every proof; the next round
        re-derives them in one mask."""
        self._dirty = [True] * len(self.pools)
        self._any_dirty = True
        self._stale.clear()
        self._mask_valid = False
        self._infeasible[:] = False
        self._growth.clear()
        self._openings.clear()

    # ------------------------------------------------------ column upkeep

    def _recompute_bounds(self, j: int) -> None:
        cpu_room = self._cpu_room[j]
        if len(cpu_room):
            self._cpu_bound[j] = float(cpu_room.max())
            self._memory_bound[j] = float(self._memory_room[j].max())
        else:
            self._cpu_bound[j] = -np.inf
            self._memory_bound[j] = -np.inf

    def _refresh_machine(self, j: int, i: int) -> None:
        machine = self.pools[j].machines[i]
        if machine.schedulable:
            model = machine.model
            self._cpu_room[j][i] = model.cpu_capacity - machine.cpu_used + FIT_EPS
            self._memory_room[j][i] = (
                model.memory_capacity - machine.memory_used + FIT_EPS
            )
        else:
            self._cpu_room[j][i] = -np.inf
            self._memory_room[j][i] = -np.inf

    def _flush(self) -> None:
        """Bring the columns up to date with the machine objects."""
        if not self._stale and not self._any_dirty:
            return
        touched: set[int] = set()
        for j, i in self._stale:
            if self._dirty[j]:
                continue
            self._refresh_machine(j, i)
            touched.add(j)
        self._stale.clear()
        if self._any_dirty:
            for j, dirty in enumerate(self._dirty):
                if not dirty:
                    continue
                cpu_free, memory_free, schedulable = self.pools[j].capacity_columns()
                mask = np.asarray(schedulable, dtype=bool)
                self._cpu_room[j][:] = capacity_room(np.asarray(cpu_free), mask)
                self._memory_room[j][:] = capacity_room(
                    np.asarray(memory_free), mask
                )
                self._dirty[j] = False
                touched.add(j)
            self._any_dirty = False
        for j in sorted(touched):
            self._recompute_bounds(j)

    # --------------------------------------------------------- placement

    def try_place(
        self, row: int, class_id: int, ledger: QuotaLedger
    ) -> Machine | None:
        """Check-for-check replica of the base walk over the room columns.

        Same pool order, same skip conditions and deferral accounting as
        :meth:`FirstFitScheduler.try_place`, without its pareto memo (which
        only rejects demands that cannot fit either) — but the machine scan
        is the vectorized kernel, preceded by the O(1) bound reject, and a
        successful placement fixes the placed machine's room and the pool
        bounds up immediately so the bounds stay exact within a round.
        """
        self._flush()
        task = self._tasks[row]
        skipped_unreachable = False
        task_cpu = task.cpu
        task_memory = task.memory
        allowed = task.allowed_platforms
        unreachable = self._unreachable
        hints = self._hints
        for j, platform_id, cpu_capacity, memory_capacity, machines in self._pool_meta:
            if platform_id in unreachable:
                skipped_unreachable = True
                continue
            if task_cpu > cpu_capacity or task_memory > memory_capacity:
                continue
            if allowed is not None and platform_id not in allowed:
                continue
            if not ledger.admits(platform_id, class_id):
                continue
            if task_cpu > self._cpu_bound[j] or task_memory > self._memory_bound[j]:
                index = -1
            else:
                index = first_fit_index(
                    self._cpu_room[j],
                    self._memory_room[j],
                    task_cpu,
                    task_memory,
                    hints.get(platform_id, 0),
                )
            if index >= 0:
                machine = machines[index]
                hints[platform_id] = index
                machine.place(row, task, class_id)
                ledger.place(platform_id, class_id)
                if not self._dirty[j]:
                    self._refresh_machine(j, index)
                    self._recompute_bounds(j)
                return machine
        if skipped_unreachable:
            self.fabric_deferrals += 1
        return None

    # ------------------------------------------------------ feasibility

    def admission_table(
        self, ledger: QuotaLedger, class_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(table, index)``: ``table[index[k], j]`` is whether the ledger
        admits ``class_ids[k]`` on pool j, one table row per distinct class.

        A snapshot: a caller that places tasks afterwards must patch the
        placed (class, pool) cell, the only one a placement moves.
        """
        classes, index = np.unique(class_ids, return_inverse=True)
        class_list = classes.tolist()
        table = np.empty((len(class_list), len(self.pools)), dtype=bool)
        for j, pool in enumerate(self.pools):
            table[:, j] = ledger.admits_each(pool.platform_id, class_list)
        return table, index

    def placeable(self, rows: np.ndarray, admits: np.ndarray | None) -> np.ndarray:
        """Exactly which rows :meth:`try_place` would place on the current state.

        A row is placeable when some pool passes every check of the walk —
        reachable, within the machine model's size, ``allowed``, admitted
        (``admits[k, j]`` for row k, ``None`` meaning unrestricted) — and
        has a schedulable machine with room.  The first four checks are one
        (row x pool) prefilter, including the pools' exact room maxima;
        machine rooms are compared only for the pools a row passes it on.
        """
        self._flush()
        columns = self.columns
        cpu = columns.cpu[rows]
        memory = columns.memory[rows]
        cpu_limit = np.minimum(self._cpu_capacity, self._cpu_bound)
        memory_limit = np.minimum(self._memory_capacity, self._memory_bound)
        passes = (
            columns.allowed[rows]
            & self._reachable
            & (cpu[:, None] <= cpu_limit)
            & (memory[:, None] <= memory_limit)
        )
        if admits is not None:
            passes &= admits
        fits = np.zeros(len(rows), dtype=bool)
        for j in np.flatnonzero(passes.any(axis=0)).tolist():
            sub = np.flatnonzero(passes[:, j] & ~fits)
            if not len(sub):
                continue
            sub_cpu = cpu[sub]
            sub_memory = memory[sub]
            cpu_room = self._cpu_room[j]
            memory_room = self._memory_room[j]
            # Only a machine with room for the smallest demands can host
            # any of them; compare the rows against those machines alone.
            roomy = np.flatnonzero(
                (sub_cpu.min() <= cpu_room) & (sub_memory.min() <= memory_room)
            )
            fits[sub] = (
                (sub_cpu[:, None] <= cpu_room[roomy])
                & (sub_memory[:, None] <= memory_room[roomy])
            ).any(axis=1)
        return fits


    # -------------------------------------------------------------- queue

    def _merge(self) -> None:
        """Merge the rows enqueued since the last merge into the queue.

        The object scheduler's stable ``list.sort(key=(-priority, submit))``
        over *already-sorted prefix + appended tail* is exactly a stable
        merge: each appended task lands after every equal-rank entry of
        the queue, and appended tasks keep their relative order on ties.
        A stable sort of the batch by rank, a right-side binary search and
        one multi-index ``np.insert`` (which keeps equal insertion points
        in value order) reproduce the python sort's permutation exactly.
        """
        if not self._appended:
            return
        rows = np.array(self._appended, dtype=np.intp)
        self._appended = []
        rows = rows[np.argsort(self.columns.rank[rows], kind="stable")]
        rank = self.columns.rank[rows]
        at = np.searchsorted(self._queue_rank, rank, side="right")
        self._queue_rows = np.insert(self._queue_rows, at, rows)
        self._queue_rank = np.insert(self._queue_rank, at, rank)

    def backlog_by_class(self) -> dict[int, int]:
        """Queued tasks per class id, from the class column.

        Keys come in class-id order, not the object scheduler's
        first-encounter order; the controller reads the census by key only.
        """
        self._merge()
        classes, counts = np.unique(
            self.columns.class_id[self._queue_rows], return_counts=True
        )
        return dict(zip(classes.tolist(), counts.tolist()))

    def _consume_events(self, ledger: QuotaLedger) -> None:
        """Retest flagged tasks against capacity growth / quota openings.

        Clearing a proof bit is always safe (the task just gets examined
        serially again); the invariant that matters is the converse —
        every event that could turn a proven-infeasible task placeable
        must clear its bit, and this retest is deliberately a superset:
        a task fitting a grown machine clears even if admission would
        still refuse elsewhere.  Without a quota table no slot can be
        the reason a task was refused, so openings need no retest.
        """
        growth = self._growth
        openings = self._openings
        if not ledger.restricted:
            openings.clear()
        if not growth and not openings:
            return
        flags = self._infeasible
        rows = self._queue_rows
        flagged = flags[rows]
        if flagged.any():
            sub = rows[flagged]
            cols = self.columns
            cpu = cols.cpu[sub]
            memory = cols.memory[sub]
            classes = cols.class_id[sub]
            cleared = np.zeros(len(sub), dtype=bool)
            by_pool: dict[int, list[int]] = {}
            for j, i in growth:
                by_pool.setdefault(j, []).append(i)
            for j in sorted(by_pool):
                self._retest(
                    ledger, sub, cleared, cpu, memory, classes, j,
                    machine_index=np.asarray(sorted(by_pool[j]), dtype=np.intp),
                )
            for platform_id, class_id in sorted(openings):
                j = self._pool_index.get(platform_id)
                if j is None:
                    continue
                if not ledger.admits(platform_id, class_id):
                    continue  # the slot refilled already; nothing opened
                self._retest(
                    ledger, sub, cleared, cpu, memory, classes, j,
                    machine_index=None,
                    class_id=class_id,
                )
            if cleared.any():
                flags[sub[cleared]] = False
        growth.clear()
        openings.clear()

    def _retest(
        self,
        ledger: QuotaLedger,
        sub: np.ndarray,
        cleared: np.ndarray,
        cpu: np.ndarray,
        memory: np.ndarray,
        classes: np.ndarray,
        j: int,
        machine_index: np.ndarray | None,
        class_id: int | None = None,
    ) -> None:
        """Clear proof bits for flagged tasks now fitting pool ``j``.

        ``machine_index`` restricts the fit test to the grown machines
        (the quota-opening path retests the whole pool instead, filtered
        to the opened ``class_id``).
        """
        pool = self.pools[j]
        if pool.platform_id in self._unreachable:
            return  # a cell becoming reachable invalidates wholesale
        candidates = ~cleared & self.columns.allowed[sub, j]
        if class_id is not None:
            candidates &= classes == class_id
        elif ledger.restricted:
            unique_classes, inverse = np.unique(classes, return_inverse=True)
            admits = np.asarray(
                ledger.admits_each(
                    pool.platform_id, [int(c) for c in unique_classes]
                ),
                dtype=bool,
            )
            candidates &= admits[inverse]
        k = np.flatnonzero(candidates)
        if not len(k):
            return
        cpu_room = self._cpu_room[j]
        memory_room = self._memory_room[j]
        if machine_index is not None:
            cpu_room = cpu_room[machine_index]
            memory_room = memory_room[machine_index]
        fits = (cpu[k, None] <= cpu_room[None, :]) & (
            memory[k, None] <= memory_room[None, :]
        )
        cleared[k[fits.any(axis=1)]] = True

    # ------------------------------------------------------------- rounds

    def schedule_round(
        self,
        ledger: QuotaLedger,
        max_attempts: int,
    ) -> list[Placement]:
        """One round over the first ``max_attempts`` queued tasks.

        Places exactly what :meth:`FirstFitScheduler.schedule_round` places,
        in the same order; classes come from the class column.
        """
        self._merge()
        rows = self._queue_rows
        total = len(rows)
        self._flush()
        self._consume_events(ledger)
        window_len = min(max_attempts, total)
        window_rows = rows[:window_len]
        infeasible = self._infeasible
        class_ids = self.columns.class_id
        # Round-local (class x pool) admission over the window's classes,
        # built on first use when the ledger is restricted; each placement
        # patches the one cell it moves, so it stays exact all round.
        admission: np.ndarray | None = None
        local_class: np.ndarray | None = None

        def placeable(index: np.ndarray) -> np.ndarray:
            """Which window entries ``try_place`` would place right now."""
            nonlocal admission, local_class
            if admission is None and ledger.restricted:
                admission, local_class = self.admission_table(
                    ledger, class_ids[window_rows]
                )
            admits = None if admission is None else admission[local_class[index]]
            return self.placeable(window_rows[index], admits)

        if self._mask_valid:
            feasible = ~infeasible[window_rows]
        else:
            feasible = placeable(np.arange(window_len))
            infeasible[window_rows] = ~feasible
            self._mask_valid = True
        # Only candidate entries need the serial walk; proven-infeasible
        # entries keep their queue position wholesale.  A failing
        # examination in the object engine walks every pool, so each one
        # counts a fabric deferral exactly when any pool is unreachable
        # (and serial failures count their own inside ``try_place``).
        candidates = np.flatnonzero(feasible)
        defers = self.defers
        if defers:
            self.fabric_deferrals += int(window_len - len(candidates))
        if not len(candidates):
            return []
        placed = np.zeros(window_len, dtype=bool)
        placements: list[Placement] = []
        pool_index = self._pool_index
        order = candidates.tolist()
        k = 0
        while k < len(order):
            i = order[k]
            k += 1
            row = int(window_rows[i])
            class_id = int(class_ids[row])
            machine = self.try_place(row, class_id, ledger)
            if machine is not None:
                placed[i] = True
                placements.append(Placement(row=row, machine=machine, class_id=class_id))
                if admission is not None:
                    platform_id = machine.model.platform_id
                    admission[local_class[i], pool_index[platform_id]] = (
                        ledger.admits(platform_id, class_id)
                    )
                continue
            infeasible[row] = True
            if k == len(order):
                break
            # Skip straight to the next candidate the walk can place.  Stocks
            # only tighten within a round, so each candidate the pass
            # rejects fails its walk here too, and counts as that walk would.
            rest = np.asarray(order[k:], dtype=np.intp)
            fits = placeable(rest)
            skipped = rest[~fits]
            infeasible[window_rows[skipped]] = True
            if defers:
                self.fabric_deferrals += len(skipped)
            order = rest[fits].tolist()
            k = 0
        if placements:
            keep = np.ones(total, dtype=bool)
            keep[:window_len] = ~placed
            self._queue_rows = rows[keep]
            self._queue_rank = self._queue_rank[keep]
        return placements


# ----------------------------------------------------- columnar simulator


class ColumnarClusterSimulator(ClusterSimulator):
    """:class:`ClusterSimulator` on the columnar scheduler.

    The engine ``HarmonyConfig`` selects by default; the object engine
    (``engine="object"``) remains the oracle.  Every handler is the
    object engine's; only the scheduler differs, and :meth:`run` streams
    arrivals from the scheduler's sorted submit column.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.scheduler = ColumnarFirstFitScheduler(
            self.pools, self.tasks, self.labels
        )

    def run(self):
        """Replay with arrivals streamed from the submit column.

        Arrival order matches the object engine exactly: a stable argsort
        of the submit column reproduces heap order (equal submit times tie
        on insertion order, which is trace order), and the merge against
        the remaining event heap compares the same ``(time, kind)`` key the
        heap sorts by.  No TASK_ARRIVAL event is ever pushed.
        """
        self._push_control_ticks()
        order = np.argsort(self.scheduler.columns.submit, kind="stable")
        submits = self.scheduler.columns.submit[order]
        queue = self._queue
        cursor = 0
        count = len(order)
        arrival_key = int(EventKind.TASK_ARRIVAL)
        while True:
            key = queue.peek_key()
            if cursor < count:
                submit = float(submits[cursor])
                if submit <= self.horizon and (
                    key is None or (submit, arrival_key) < key
                ):
                    queue.advance(submit)
                    self._on_arrival(int(order[cursor]))
                    cursor += 1
                    continue
            if key is None or key[0] > self.horizon:
                break
            self._dispatch(queue.pop())
        return self._finish_run()
