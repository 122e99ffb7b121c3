"""Columnar replay engine: vectorized batches over the object-engine rules.

The object engine (:class:`~repro.simulation.cluster.ClusterSimulator`)
walks the pending queue task by task every scheduling round, scanning
machines in pure python.  This module keeps the *object state* — machines,
pools, quota ledger, metrics — authoritative and bit-identical, but drives
the hot paths through numpy columns:

- the task population lives in a numpy structured array
  (:class:`TaskColumns`: arrival, size, duration, priority, class);
- per-pool capacity columns (cpu-free / memory-free / schedulable) mirror
  the machine objects and are refreshed from them, never integrated
  independently, so no float drift can accumulate;
- each scheduling round consults a vectorized *feasibility cache* over the
  examined window and only runs the exact serial first-fit logic on tasks
  the cache admits;
- the per-pool first-fit machine scan and the fault-driven finish-time
  reissue are numpy kernels (:func:`first_fit_index`,
  :func:`reissue_finish_times`) with scalar-identical semantics;
- task arrivals stream from a pre-sorted column instead of the event heap,
  merged against the heap under the exact ``(time, kind)`` ordering.

The feasibility cache is the core speedup.  A failed placement attempt is
a *proof of infeasibility*: no reachable, constraint-allowed,
quota-admitting pool had a machine with room.  That proof stays valid
until something opens up, and every opening is a discrete, observable
event — a task finish frees one machine (and one quota slot), a boot
makes one machine schedulable, a control tick rewrites quotas, a fabric
flip changes reachability.  The engine therefore keeps a per-task
``infeasible`` bit and, instead of re-deriving feasibility from scratch
each round, retests only the flagged tasks against only the *grown*
capacity (usually a single machine) or the *opened* quota slot.  Bulk
invalidations (reconcile, preemption, fabric changes) clear the cache and
the next round rebuilds it with one full vectorized mask.

Determinism contract: for any scenario, the columnar engine produces a
``summary()`` bit-identical to the object engine's.  The cache may only
*over*-approximate feasibility (capacity and quota stocks tighten
monotonically within a round, so round-start feasibility is a superset of
feasibility at any later point in the round, and retests clear bits
conservatively), and a task examined without being placed has no
outcome-affecting side effects in the object engine — the pareto memo and
rotating hints mutate only on success.  Everything else (placement order,
ledger stocks, metrics, fabric deferrals, event ordering) follows the
object engine's code paths exactly; the differential suite
(``tests/test_columnar_differential.py``) enforces the digests.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.simulation.cluster import ClusterSimulator
from repro.simulation.engine import EventKind
from repro.simulation.machine import Machine, MachinePool
from repro.simulation.scheduler import FirstFitScheduler, QuotaLedger
from repro.trace.schema import Task

#: The capacity epsilon of :meth:`Machine.fits` — the kernels must compare
#: with the exact same float expression (``demand <= free + EPS``).
FIT_EPS = 1e-9

_TASK_DTYPE = np.dtype(
    [
        ("submit", np.float64),
        ("cpu", np.float64),
        ("memory", np.float64),
        ("duration", np.float64),
        ("priority", np.int64),
        ("class_id", np.int64),
    ]
)


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


def reissue_finish_times(
    finish_times: np.ndarray, now: float, ratio: float
) -> np.ndarray:
    """Stretch/compress remaining service, batched.

    Scalar-identical to the object engine's per-task update:
    ``new = now + max(finish - now, 0.0) * ratio``.  Total remaining
    service time scales by exactly ``ratio``.
    """
    return now + np.maximum(finish_times - now, 0.0) * ratio


# ----------------------------------------------------------- task columns


class TaskColumns:
    """The task population as a numpy structured array plus constraint bits.

    One row per task in trace order: arrival (submit), size (cpu, memory),
    duration, priority and class-id columns in :attr:`table`, and a dense
    boolean ``allowed[row, pool]`` matrix resolving each task's
    ``allowed_platforms`` against a pool ordering.  ``row_of`` maps task
    uid -> row for O(1) gather of any pending window.
    """

    def __init__(
        self,
        tasks: tuple[Task, ...],
        class_of: Callable[[Task], int],
        pool_platform_ids: tuple[int, ...],
    ) -> None:
        n = len(tasks)
        self.table = np.zeros(n, dtype=_TASK_DTYPE)
        self.allowed = np.ones((n, len(pool_platform_ids)), dtype=bool)
        self.row_of: dict[tuple[int, int], int] = {}
        pool_index = {pid: j for j, pid in enumerate(pool_platform_ids)}
        for row, task in enumerate(tasks):
            self.table[row] = (
                task.submit_time,
                task.cpu,
                task.memory,
                task.duration,
                task.priority,
                class_of(task),
            )
            if task.allowed_platforms is not None:
                self.allowed[row, :] = False
                for platform_id in task.allowed_platforms:
                    j = pool_index.get(platform_id)
                    if j is not None:
                        self.allowed[row, j] = True
            self.row_of[task.uid] = row
        self.submit = self.table["submit"]
        self.cpu = self.table["cpu"]
        self.memory = self.table["memory"]
        self.duration = self.table["duration"]
        self.priority = self.table["priority"]
        self.class_id = self.table["class_id"]

    def __len__(self) -> int:
        return len(self.table)

    def rows_for(self, tasks: Iterable[Task]) -> np.ndarray:
        """Row indices of ``tasks``, in the given order."""
        row_of = self.row_of
        return np.fromiter((row_of[t.uid] for t in tasks), dtype=np.intp)


# ----------------------------------------------------- columnar scheduler


class ColumnarFirstFitScheduler(FirstFitScheduler):
    """First-fit over numpy capacity columns, outcome-identical.

    The machine objects stay authoritative; the per-pool columns are
    refreshed *from* them (point updates for single-machine mutations,
    full rebuilds after control-tick reconciliation) and consulted by the
    vectorized machine scan and the feasibility mask.  A per-pool upper
    bound on free (cpu, memory) across schedulable machines — exact after
    a full rebuild, never understated by point updates — rejects most
    placement attempts against a saturated pool in O(1).
    """

    def __init__(self, pools: list[MachinePool]) -> None:
        super().__init__(pools)
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
        self._stale: set[int] = set()

    # ------------------------------------------------------ column upkeep

    def mark_stale(self, machine: Machine) -> None:
        """One machine's capacity/state changed; re-read it lazily."""
        self._stale.add(machine.machine_id)

    def invalidate_all(self) -> None:
        """Bulk mutation (reconcile, crash sweep): rebuild every pool."""
        self._dirty = [True] * len(self.pools)
        self._any_dirty = True
        self._stale.clear()

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
        for machine_id in self._stale:
            j, i = self._slot_of[machine_id]
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
        self,
        task: Task,
        class_id: int,
        ledger: QuotaLedger,
        failed: dict[int, list[tuple[float, float]]] | None = None,
    ) -> Machine | None:
        """Check-for-check replica of the base walk over the room columns.

        Same pool order, same skip conditions, same pareto-memo handling
        and deferral accounting as :meth:`FirstFitScheduler.try_place` — but
        the machine scan is the vectorized kernel, preceded by the O(1)
        bound reject, and a successful placement fixes the placed
        machine's room and the pool bounds up immediately so the bounds
        stay exact within a round.
        """
        self._flush()
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
            if failed is not None:
                pool_failed = failed.get(platform_id)
                if pool_failed is not None and any(
                    task_cpu >= fc and task_memory >= fm for fc, fm in pool_failed
                ):
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
                machine.place(task, class_id)
                ledger.place(platform_id, class_id)
                if not self._dirty[j]:
                    self._refresh_machine(j, index)
                    self._recompute_bounds(j)
                return machine
            if failed is not None:
                entry = failed.setdefault(platform_id, [])
                entry[:] = [
                    (fc, fm)
                    for fc, fm in entry
                    if not (fc >= task_cpu and fm >= task_memory)
                ]
                entry.append((task_cpu, task_memory))
        if skipped_unreachable:
            self.fabric_deferrals += 1
        return None

    def _pick_machine(self, task: Task, pool: MachinePool) -> Machine | None:
        j = self._pool_index[pool.platform_id]
        if task.cpu > self._cpu_bound[j] or task.memory > self._memory_bound[j]:
            return None
        index = first_fit_index(
            self._cpu_room[j],
            self._memory_room[j],
            task.cpu,
            task.memory,
            self._hints.get(pool.platform_id, 0),
        )
        if index < 0:
            return None
        self._hints[pool.platform_id] = index
        return pool.machines[index]

    # ------------------------------------------------------ feasibility

    def feasible_mask(
        self, rows: np.ndarray, columns: TaskColumns, ledger: QuotaLedger
    ) -> np.ndarray:
        """Round-start feasibility of each window row (superset of success).

        A row is marked feasible when *some* reachable, constraint-allowed,
        quota-admitting pool has a schedulable machine with room at the
        current (round-start) capacities.  Rows marked infeasible cannot be
        placed by the serial walk either — capacity and quota stocks only
        tighten within a round — so skipping them changes no outcome.
        """
        self._flush()
        cpu = columns.cpu[rows]
        memory = columns.memory[rows]
        classes = columns.class_id[rows]
        allowed = columns.allowed[rows]
        mask = np.zeros(len(rows), dtype=bool)
        unique_classes, inverse = np.unique(classes, return_inverse=True)
        class_list = [int(c) for c in unique_classes]
        for j, pool in enumerate(self.pools):
            if pool.platform_id in self._unreachable:
                continue
            if self._cpu_bound[j] == -np.inf:
                continue  # nothing schedulable in this pool
            admits = np.asarray(
                ledger.admits_each(pool.platform_id, class_list), dtype=bool
            )
            candidates = admits[inverse] & allowed[:, j] & ~mask
            # O(1)-per-row bound prefilter: a demand above the pool's
            # exact per-dimension room maxima cannot fit any machine, so
            # it is excluded before the row-by-machine broadcast.
            candidates &= (cpu <= self._cpu_bound[j]) & (
                memory <= self._memory_bound[j]
            )
            if not candidates.any():
                continue
            sub = np.flatnonzero(candidates)
            fits = (cpu[sub, None] <= self._cpu_room[j][None, :]) & (
                memory[sub, None] <= self._memory_room[j][None, :]
            )
            mask[sub] = fits.any(axis=1)
        return mask


# ----------------------------------------------------- columnar simulator


class ColumnarClusterSimulator(ClusterSimulator):
    """Drop-in :class:`ClusterSimulator` with columnar hot paths.

    The engine ``HarmonyConfig`` selects by default; the object engine
    (``engine="object"``) remains the oracle.  All object state (pools, ledger, metrics,
    generation/finish bookkeeping) is inherited unchanged — the overrides
    (a) source arrivals from the sorted submit column, (b) run scheduling
    rounds through the feasibility cache, (c) keep the capacity columns
    and the cache in sync with machine mutations, and (d) hold the
    priority queue as parallel numpy arrays over an append-only backing
    list, merged incrementally instead of resorting a python list.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.scheduler = ColumnarFirstFitScheduler(self.pools)
        self.columns = TaskColumns(
            self.tasks,
            self._task_class,
            tuple(pool.platform_id for pool in self.scheduler.pools),
        )
        #: The priority queue as parallel numpy arrays instead of a sorted
        #: python list.  ``self._pending`` stays append-only (the parent
        #: only ever appends); these arrays hold the *active* entries in
        #: the exact order the object engine's sorted list would have:
        #: positions into ``self._pending``, task rows, and the sort-key
        #: columns (negated priority, submit) used for incremental merges.
        self._sorted_pos = np.empty(0, dtype=np.intp)
        self._sorted_rows = np.empty(0, dtype=np.intp)
        self._sorted_negp = np.empty(0, dtype=np.int64)
        self._sorted_submit = np.empty(0, dtype=np.float64)
        #: Prefix of ``self._pending`` already merged into the arrays;
        #: entries past it are appends awaiting the next round's merge.
        self._merged_len = 0
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
        #: last round (only tracked while a quota table is active).
        self._openings: set[tuple[int, int]] = set()

    # ------------------------------------------------------------- replay

    def run(self):
        """Replay with arrivals streamed from the submit column.

        Arrival order matches the object engine exactly: a stable argsort
        of the submit column reproduces heap order (equal submit times tie
        on insertion order, which is trace order), and the merge against
        the remaining event heap compares the same ``(time, kind)`` key the
        heap sorts by.  No TASK_ARRIVAL event is ever pushed.
        """
        self._push_control_ticks()
        order = np.argsort(self.columns.submit, kind="stable")
        submits = self.columns.submit[order]
        tasks = self.tasks
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
                    self._on_arrival(tasks[order[cursor]])
                    cursor += 1
                    continue
            if key is None or key[0] > self.horizon:
                break
            self._dispatch(queue.pop())
        return self._finish_run()

    # ------------------------------------------------------------- events

    def _on_arrival(self, task: Task) -> None:
        super()._on_arrival(task)
        pending = self._pending
        if pending and pending[-1] is task:
            # The arrival walk just failed to place it: a fresh proof.
            self._infeasible[self.columns.row_of[task.uid]] = True

    def _on_finish(self, payload) -> None:
        task, generation = payload
        if self._generation.get(task.uid) == generation:
            machine = self._machine_of.get(task.uid)
            if machine is not None:
                self.scheduler.mark_stale(machine)
                self._growth.add(self.scheduler._slot_of[machine.machine_id])
                if self.ledger.restricted:
                    entry = machine.running.get(task.uid)
                    if entry is not None:
                        self._openings.add((machine.model.platform_id, entry[1]))
        super()._on_finish(payload)

    def _on_machine_ready(self, machine) -> None:
        self.scheduler.mark_stale(machine)
        self._growth.add(self.scheduler._slot_of[machine.machine_id])
        super()._on_machine_ready(machine)

    def _try_preempt(self, task, class_id, now):
        machine = super()._try_preempt(task, class_id, now)
        if machine is not None:
            # Evictions freed quota slots and possibly net capacity on the
            # target machine; rare enough to just rebuild the cache.
            self.scheduler.mark_stale(machine)
            self._invalidate_proofs()
        return machine

    def crash_machine(self, pool, machine, now, repair_seconds) -> None:
        self.scheduler.mark_stale(machine)
        if self.ledger.restricted:
            for _uid, (_victim, class_id) in machine.running.items():
                self._openings.add((machine.model.platform_id, class_id))
        super().crash_machine(pool, machine, now, repair_seconds)

    def _apply_decision(self, decision, now) -> None:
        super()._apply_decision(decision, now)
        # Reconciliation can flip many machines across every pool, and a
        # fresh quota table may re-open admission: rebuild wholesale.
        self.scheduler.invalidate_all()
        self._invalidate_proofs()

    def on_fabric_changed(self, now: float) -> None:
        super().on_fabric_changed(now)
        # Reachability may have grown; stretch reissues don't touch
        # capacity but partitions healing re-open whole cells.
        self._invalidate_proofs()

    def _reissue_finishes(self, machine, ratio: float, now: float) -> None:
        """Batch finish-time reissue (straggler/fabric stretch)."""
        running = machine.running
        if not running:
            return
        uids = list(running.keys())
        finish_time = self._finish_time
        finishes = np.fromiter(
            (finish_time.get(uid, np.nan) for uid in uids),
            dtype=np.float64,
            count=len(uids),
        )
        new_finishes = reissue_finish_times(finishes, now, ratio)
        generations = self._generation
        queue = self._queue
        for uid, old, new in zip(uids, finishes, new_finishes):
            if np.isnan(old):
                continue
            generation = generations.get(uid, 0) + 1
            generations[uid] = generation
            new = float(new)
            finish_time[uid] = new
            queue.schedule(new, EventKind.TASK_FINISH, (running[uid][0], generation))

    # ---------------------------------------------------- proof-bit cache

    def _invalidate_proofs(self) -> None:
        """Drop every proof; the next round re-derives them in one mask."""
        self._mask_valid = False
        self._infeasible[:] = False
        self._growth.clear()
        self._openings.clear()

    def _merge_appends(self) -> None:
        """Merge tasks appended to ``_pending`` into the sorted arrays.

        The object engine's stable ``list.sort(key=(-priority, submit))``
        over *already-sorted prefix + appended tail* is exactly a stable
        merge: each appended task lands after every equal-key entry of the
        prefix (stability), appended tasks keep their relative order on
        ties, and unequal keys find their positions independently.  Small
        batches binary-search their slots against the cached key columns
        and go in with one multi-index ``np.insert``; large batches (crash
        sweeps) fall back to a full stable lexsort of the concatenation —
        both reproduce the python sort's permutation bit-exactly, without
        ever rebuilding a python list.
        """
        pending = self._pending
        n = len(pending)
        m = self._merged_len
        if n == m:
            return
        cols = self.columns
        row_of = cols.row_of
        rows_new = np.fromiter(
            (row_of[t.uid] for t in pending[m:n]), dtype=np.intp, count=n - m
        )
        pos_new = np.arange(m, n, dtype=np.intp)
        negp_new = -cols.priority[rows_new]
        submit_new = cols.submit[rows_new]
        sorted_negp = self._sorted_negp
        sorted_submit = self._sorted_submit
        if len(sorted_negp) == 0 or (n - m) > 32:
            pos_cat = np.concatenate([self._sorted_pos, pos_new])
            rows_cat = np.concatenate([self._sorted_rows, rows_new])
            negp_cat = np.concatenate([sorted_negp, negp_new])
            submit_cat = np.concatenate([sorted_submit, submit_new])
            order = np.lexsort((submit_cat, negp_cat))
            self._sorted_pos = pos_cat[order]
            self._sorted_rows = rows_cat[order]
            self._sorted_negp = negp_cat[order]
            self._sorted_submit = submit_cat[order]
        else:
            # Stable-sort the batch by key first: two appends landing in
            # the same gap of the prefix must come out in key order (ties
            # in append order), which multi-index ``np.insert`` preserves
            # only if the values already arrive sorted.
            batch_order = np.lexsort((submit_new, negp_new))
            pos_new = pos_new[batch_order]
            rows_new = rows_new[batch_order]
            negp_new = negp_new[batch_order]
            submit_new = submit_new[batch_order]
            ins = np.empty(n - m, dtype=np.intp)
            for k in range(n - m):
                lo = int(np.searchsorted(sorted_negp, negp_new[k], side="left"))
                hi = int(np.searchsorted(sorted_negp, negp_new[k], side="right"))
                ins[k] = lo + int(
                    np.searchsorted(
                        sorted_submit[lo:hi], submit_new[k], side="right"
                    )
                )
            self._sorted_pos = np.insert(self._sorted_pos, ins, pos_new)
            self._sorted_rows = np.insert(self._sorted_rows, ins, rows_new)
            self._sorted_negp = np.insert(sorted_negp, ins, negp_new)
            self._sorted_submit = np.insert(sorted_submit, ins, submit_new)
        self._merged_len = n
        self._pending_dirty = False

    def _sort_pending(self) -> None:
        # The sorted order lives in the parallel arrays; never let the
        # parent resort the append-only backing list.
        self._merge_appends()

    def _backlog_by_class(self) -> dict[int, int]:
        """Parent's backlog census, vectorized, in the parent's key order.

        The object engine iterates its pending list as *last sorted order
        plus appends* and the dict's keys appear in first-encounter
        order; counting the class-id column over the sorted rows plus the
        unmerged tail and emitting classes sorted by first occurrence
        reproduces both the counts and that key order exactly (the
        append-only backing list's placed entries are skipped because the
        sorted arrays never reference them).
        """
        cols = self.columns
        rows = self._sorted_rows
        pending = self._pending
        m = self._merged_len
        n = len(pending)
        if n > m:
            rows = np.concatenate([rows, cols.rows_for(pending[m:n])])
        if not len(rows):
            return {}
        unique, first_index, counts = np.unique(
            cols.class_id[rows], return_index=True, return_counts=True
        )
        order = np.argsort(first_index, kind="stable")
        return {int(unique[i]): int(counts[i]) for i in order.tolist()}

    def _consume_events(self) -> None:
        """Retest flagged tasks against capacity growth / quota openings.

        Clearing a proof bit is always safe (the task just gets examined
        serially again); the invariant that matters is the converse —
        every event that could turn a proven-infeasible task placeable
        must clear its bit, and this retest is deliberately a superset:
        a task fitting a grown machine clears even if admission would
        still refuse elsewhere.
        """
        growth = self._growth
        openings = self._openings
        if not growth and not openings:
            return
        flags = self._infeasible
        rows = self._sorted_rows
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
                    sub, cleared, cpu, memory, classes, j,
                    machine_index=np.asarray(sorted(by_pool[j]), dtype=np.intp),
                )
            for platform_id, class_id in sorted(openings):
                j = self.scheduler._pool_index.get(platform_id)
                if j is None:
                    continue
                if not self.ledger.admits(platform_id, class_id):
                    continue  # the slot refilled already; nothing opened
                self._retest(
                    sub, cleared, cpu, memory, classes, j,
                    machine_index=None,
                    class_id=class_id,
                )
            if cleared.any():
                flags[sub[cleared]] = False
        growth.clear()
        openings.clear()

    def _retest(
        self,
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
        scheduler = self.scheduler
        pool = scheduler.pools[j]
        if pool.platform_id in scheduler._unreachable:
            return  # a cell becoming reachable invalidates wholesale
        candidates = ~cleared & self.columns.allowed[sub, j]
        if class_id is not None:
            candidates &= classes == class_id
        elif self.ledger.restricted:
            unique_classes, inverse = np.unique(classes, return_inverse=True)
            admits = np.asarray(
                self.ledger.admits_each(
                    pool.platform_id, [int(c) for c in unique_classes]
                ),
                dtype=bool,
            )
            candidates &= admits[inverse]
        k = np.flatnonzero(candidates)
        if not len(k):
            return
        cpu_room = scheduler._cpu_room[j]
        memory_room = scheduler._memory_room[j]
        if machine_index is not None:
            cpu_room = cpu_room[machine_index]
            memory_room = memory_room[machine_index]
        fits = (cpu[k, None] <= cpu_room[None, :]) & (
            memory[k, None] <= memory_room[None, :]
        )
        cleared[k[fits.any(axis=1)]] = True

    # ------------------------------------------------------------- rounds

    def _schedule_round(self, max_attempts: int) -> None:
        if not self._pending:
            return
        self._merge_appends()
        spos = self._sorted_pos
        total = len(spos)
        if not total:
            # The append-only backing list may still reference placed
            # tasks; an empty active queue means the object engine would
            # not have run this round at all.
            return
        scheduler = self.scheduler
        scheduler._flush()
        self._consume_events()
        now = self._queue.now
        pending = self._pending
        window_len = min(max_attempts, total)
        window_pos = spos[:window_len]
        window_rows = self._sorted_rows[:window_len]
        if self._mask_valid:
            feasible = ~self._infeasible[window_rows]
        else:
            feasible = scheduler.feasible_mask(window_rows, self.columns, self.ledger)
            self._infeasible[window_rows] = ~feasible
            self._mask_valid = True
        # Only candidate entries need the serial walk; proven-infeasible
        # entries keep their queue position wholesale.  A failing
        # examination in the object engine walks every pool, so each one
        # counts a fabric deferral exactly when any pool is unreachable
        # (and serial failures count their own inside ``try_place``).
        candidate_index = np.flatnonzero(feasible)
        if bool(scheduler._unreachable):
            scheduler.fabric_deferrals += int(window_len - len(candidate_index))
        if not len(candidate_index):
            return
        infeasible = self._infeasible
        placed = np.zeros(window_len, dtype=bool)
        placements: list[tuple[Task, int, Machine]] = []
        failed: dict[int, list[tuple[float, float]]] = {}
        class_ids = self.columns.class_id
        ledger = self.ledger
        for i in candidate_index.tolist():
            task = pending[window_pos[i]]
            class_id = int(class_ids[window_rows[i]])
            machine = scheduler.try_place(task, class_id, ledger, failed)
            if machine is None:
                infeasible[window_rows[i]] = True
            else:
                placed[i] = True
                placements.append((task, class_id, machine))
        if placements:
            keep = ~placed
            self._sorted_pos = np.concatenate([window_pos[keep], spos[window_len:]])
            self._sorted_rows = np.concatenate(
                [window_rows[keep], self._sorted_rows[window_len:]]
            )
            self._sorted_negp = np.concatenate(
                [self._sorted_negp[:window_len][keep], self._sorted_negp[window_len:]]
            )
            self._sorted_submit = np.concatenate(
                [
                    self._sorted_submit[:window_len][keep],
                    self._sorted_submit[window_len:],
                ]
            )
        for task, class_id, machine in placements:
            self._machine_of[task.uid] = machine
            self._start_task(task, class_id, machine, now)
