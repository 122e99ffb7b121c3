"""Columnar replay engine: the object engine's loop over a numpy scheduler.

The two replay engines share the event loop and every handler of
:class:`~repro.simulation.cluster.ClusterSimulator` and differ only in the
scheduler it holds.  :class:`ColumnarFirstFitScheduler` answers the calls
of the object engine's :class:`~repro.simulation.scheduler.FirstFitScheduler`
through numpy columns instead of per-task python walks:

- the task population lives in plain numpy columns (:class:`TaskColumns`:
  arrival, size, class, queue rank, placement signature), one row per task;
- the pending queue is an array of task rows sorted by their static queue
  rank, ties in enqueue order, merged with one binary search per batch;
- per-pool capacity columns (cpu-free / memory-free / schedulable) mirror
  the machine objects and are refreshed from them, never integrated
  independently, so no float drift can accumulate;
- infeasibility proofs are kept per placement signature, so a task shape
  proven unplaceable is not walked again until something opens up;
- the per-pool first-fit machine scan is a numpy kernel
  (:func:`first_fit_index`) with scalar-identical semantics.

:class:`ColumnarClusterSimulator` installs that scheduler and streams task
arrivals from the sorted submit column, merged against the event heap
under the exact ``(time, kind)`` ordering.

The proofs are the core speedup.  A row's *placement signature* is its
(cpu, memory, class, allowed pools): ``try_place`` succeeds or fails on
exactly these fields and the cluster state, and the rotating hint only
picks *which* machine.  So one failed walk proves every row of its
signature unplaceable, and the proof stays valid until something opens
up.  Every opening reaches the scheduler as a notice from the shared
handlers: ``released`` (a finish or crash kill frees one machine and one
quota slot), ``machine_changed`` (a boot or crash) and ``invalidate`` (a
control tick's reconciliation and quotas, a preemption, a reachability
flip).  The scheduler keeps one proof bit per signature and retests only
the proven signatures against only the *grown* machines or the *opened*
quota slot; ``invalidate`` drops every bit, and the next round proves its
window's signatures with one vectorized mask
(:meth:`ColumnarFirstFitScheduler.placeable_signatures`).  The bits save
work in three places:

- an arrival whose signature is proven, with no growth or quota opening
  pending, fails without a walk;
- a round walks only rows of unproven signatures, and once a walk fails
  it skips the rest of that signature's rows: capacity and quota stocks
  only tighten within a round;
- a round that places nothing leaves its window proven, so until a bit
  clears, an unproven row is queued or ``invalidate`` runs, a later round
  over no more rows returns at once: rows leave the queue only by
  placement, so that window still holds proven rows only.

Each skipped walk counts the fabric deferral the failing walk would have.

Determinism contract: for any scenario, the columnar engine produces a
``summary()`` bit-identical to the object engine's.  A proof bit is set
only on a signature that really is unplaceable (capacity and quota stocks
tighten monotonically within a round), clearing one is always safe (its
rows just get walked again), and a task examined without being placed has
no outcome-affecting side effects in the object engine: the rotating hints
mutate only on success, and its pareto memo only rejects demands
dominating one that already failed in that pool this round, which cannot
fit there either.  The columnar walk therefore keeps no memo, and
skipping a walk changes nothing but the work done.  The differential
suite (``tests/test_columnar_differential.py``) enforces the digests.
"""

from __future__ import annotations

from itertools import compress
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


def _dense_codes(key: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Row -> index of its key among the sorted distinct keys, and the
    first row holding each distinct key.

    ``key`` holds equal-length columns, the most significant first; two
    rows share a code exactly when every column compares equal (``==``,
    as tuple keys of a dict do), and codes follow the lexicographic order
    of the keys, as ``sorted(set(...))`` would rank them.
    """
    count = len(key[0])
    order = np.lexsort(key[::-1])
    new = np.zeros(count, dtype=bool)
    new[:1] = True
    for column in key:
        ordered = column[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    codes = np.empty(count, dtype=np.intp)
    codes[order] = np.cumsum(new) - 1
    # lexsort is stable, so each run of equal keys starts at its first row.
    return codes, order[new]


class TaskColumns:
    """The task population as plain numpy columns plus placement signatures.

    One row per task in trace order: ``submit``, ``cpu``, ``memory`` and
    ``class_id`` columns (``class_id`` is a view of the simulator's label
    column, not a copy); a static queue ``rank``, ordering rows as the
    object engine's pending sort key ``(-priority, submit_time)`` does,
    with equal keys getting equal ranks; and a ``signature`` column
    numbering each row's distinct (cpu, memory, class, allowed pools).
    The per-signature table sits next to it: ``sig_cpu``, ``sig_memory``,
    ``sig_class`` and a dense boolean ``sig_allowed[signature, pool]``
    resolving ``allowed_platforms`` against a pool ordering.
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
        priority = np.array([task.priority for task in tasks], dtype=np.int64)
        self.rank, _ = _dense_codes((-priority, self.submit))
        # Each distinct constraint resolves to a pool mask once, and rows
        # key on the mask: constraints naming only absent platforms coincide.
        mask_code: dict[frozenset[int] | None, int] = {}
        masks: dict[tuple[bool, ...], int] = {}
        for platforms in dict.fromkeys(task.allowed_platforms for task in tasks):
            mask = tuple(
                platforms is None or platform_id in platforms
                for platform_id in pool_platform_ids
            )
            mask_code[platforms] = masks.setdefault(mask, len(masks))
        mask_of_row = np.array(
            [mask_code[task.allowed_platforms] for task in tasks], dtype=np.int64
        )
        key = (self.cpu, self.memory, self.class_id, mask_of_row)
        codes, first_rows = _dense_codes(key)
        # Signatures are numbered in order of first appearance in the trace.
        by_first = np.argsort(first_rows)
        renumber = np.empty(len(by_first), dtype=np.intp)
        renumber[by_first] = np.arange(len(by_first), dtype=np.intp)
        self.signature = renumber[codes]
        table = first_rows[by_first]
        self.sig_cpu = self.cpu[table]
        self.sig_memory = self.memory[table]
        self.sig_class = self.class_id[table]
        self.sig_allowed = np.array(list(masks), dtype=bool).reshape(
            len(masks), len(pool_platform_ids)
        )[mask_of_row[table]]

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
    machine scan and the signature mask.  A per-pool exact maximum of free
    (cpu, memory) across schedulable machines rejects most placement
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
        self._signature = self.columns.signature
        #: The signature table as python lists, for the scalar retests.
        self._sig_cpu, self._sig_memory, self._sig_class, self._sig_allowed = (
            getattr(self.columns, name).tolist()
            for name in ("sig_cpu", "sig_memory", "sig_class", "sig_allowed")
        )
        self._pool_index = {pool.platform_id: j for j, pool in enumerate(self.pools)}
        #: Per-pool :func:`capacity_room` columns (fit-comparable free
        #: capacity, ``-inf`` for non-schedulable machines).
        self._cpu_room = [np.full(len(p.machines), -np.inf) for p in self.pools]
        self._memory_room = [np.full(len(p.machines), -np.inf) for p in self.pools]
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
        #: Per-signature proof bits: True = a failed walk (or the signature
        #: mask) proved every row of this signature unplaceable, and no
        #: capacity growth / quota opening has invalidated the proof yet.
        self._proven = np.zeros(len(self.columns.sig_cpu), dtype=bool)
        #: Whether a round has re-proven its window since the last
        #: :meth:`invalidate`; False makes the next round run the mask.
        self._mask_valid = False
        #: Window length of the last round, if it placed nothing (-1 =
        #: none): its rows are all proven, so a round over no more rows
        #: would place nothing either.
        self._idle_window = -1
        #: (pool index, machine index) slots whose capacity grew (or whose
        #: machine became schedulable) since the last round.
        self._growth: set[tuple[int, int]] = set()
        #: (platform, class) quota slots that released a unit since the
        #: last round; retested only while a quota table is active.
        self._openings: set[tuple[int, int]] = set()
        #: Work the proofs saved: arrivals failed without a walk, window
        #: rows skipped after their signature's walk failed, and rounds
        #: that returned at once over an idle window.
        self.proven_arrivals = 0
        self.proven_skips = 0
        self.idle_rounds = 0

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
        signature = self._signature[row]
        if proven:
            self._proven[signature] = True
        elif not self._proven[signature]:
            self._idle_window = -1  # a row no idle window has seen fail

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
        re-derives its window's in one mask."""
        self._dirty = [True] * len(self.pools)
        self._any_dirty = True
        self._stale.clear()
        self._mask_valid = False
        self._proven[:] = False
        self._idle_window = -1
        self._growth.clear()
        self._openings.clear()

    # ------------------------------------------------------ column upkeep

    def _refresh_machine(self, j: int, i: int) -> None:
        """Re-read one machine's room and keep the pool bounds exact.

        A room that grew can only raise a bound; one that shrank moves a
        bound only if it held it, and only then is the pool rescanned.
        """
        machine = self.pools[j].machines[i]
        cpu_room, memory_room = self._cpu_room[j], self._memory_room[j]
        old_cpu, old_memory = cpu_room[i], memory_room[i]
        if machine.schedulable:
            model = machine.model
            cpu_room[i] = model.cpu_capacity - machine.cpu_used + FIT_EPS
            memory_room[i] = model.memory_capacity - machine.memory_used + FIT_EPS
        else:
            cpu_room[i] = -np.inf
            memory_room[i] = -np.inf
        if cpu_room[i] >= old_cpu:
            self._cpu_bound[j] = max(self._cpu_bound[j], float(cpu_room[i]))
        elif old_cpu >= self._cpu_bound[j]:
            self._cpu_bound[j] = float(cpu_room.max())
        if memory_room[i] >= old_memory:
            self._memory_bound[j] = max(self._memory_bound[j], float(memory_room[i]))
        elif old_memory >= self._memory_bound[j]:
            self._memory_bound[j] = float(memory_room.max())

    def _flush(self) -> None:
        """Bring the columns up to date with the machine objects."""
        if not self._stale and not self._any_dirty:
            return
        for j, i in self._stale:
            if not self._dirty[j]:
                self._refresh_machine(j, i)
        self._stale.clear()
        if self._any_dirty:
            for j, dirty in enumerate(self._dirty):
                if not dirty:
                    continue
                cpu_free, memory_free, schedulable = self.pools[j].capacity_columns()
                mask = np.asarray(schedulable, dtype=bool)
                cpu_room = self._cpu_room[j]
                memory_room = self._memory_room[j]
                cpu_room[:] = capacity_room(np.asarray(cpu_free), mask)
                memory_room[:] = capacity_room(np.asarray(memory_free), mask)
                self._dirty[j] = False
                self._cpu_bound[j] = float(cpu_room.max(initial=-np.inf))
                self._memory_bound[j] = float(memory_room.max(initial=-np.inf))
            self._any_dirty = False

    # --------------------------------------------------------- placement

    def try_place(
        self, row: int, class_id: int, ledger: QuotaLedger
    ) -> Machine | None:
        """Check-for-check replica of the base walk over the room columns.

        Same pool order, same skip conditions and deferral accounting as
        :meth:`FirstFitScheduler.try_place`, without its pareto memo (which
        only rejects demands that cannot fit either) — but the machine scan
        is the vectorized kernel, preceded by the O(1) bound reject.  A row
        whose signature is proven, with no growth or quota opening pending,
        fails without a walk; a failing walk proves its signature.
        """
        signature = self._signature[row]
        if (
            self._proven[signature]
            and not self._growth
            and not (self._openings and ledger.restricted)
        ):
            self.proven_arrivals += 1
            if self.defers:
                self.fabric_deferrals += 1
            return None
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
                continue
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
                self._refresh_machine(j, index)
                return machine
        self._proven[signature] = True
        if skipped_unreachable:
            self.fabric_deferrals += 1
        return None

    # ------------------------------------------------------ feasibility

    def placeable_signatures(
        self, signatures: np.ndarray, ledger: QuotaLedger
    ) -> np.ndarray:
        """Exactly which signatures :meth:`try_place` would place right now.

        A signature is placeable when some pool passes every check of the
        walk — reachable, within the machine model's size, ``allowed``,
        admitted — and has a schedulable machine with room.  The first four
        checks are one (signature x pool) prefilter, including the pools'
        exact room maxima; machine rooms are compared only for the pools a
        signature passes it on.
        """
        self._flush()
        columns = self.columns
        cpu = columns.sig_cpu[signatures]
        memory = columns.sig_memory[signatures]
        passes = (
            columns.sig_allowed[signatures]
            & self._reachable
            & (cpu[:, None] <= np.minimum(self._cpu_capacity, self._cpu_bound))
            & (memory[:, None] <= np.minimum(self._memory_capacity, self._memory_bound))
        )
        if ledger.restricted:
            classes, index = np.unique(
                columns.sig_class[signatures], return_inverse=True
            )
            class_list = classes.tolist()
            admits = np.array(
                [ledger.admits_each(p.platform_id, class_list) for p in self.pools],
                dtype=bool,
            )
            passes &= admits.T[index]
        fits = np.zeros(len(signatures), dtype=bool)
        for j in np.flatnonzero(passes.any(axis=0)).tolist():
            sub = np.flatnonzero(passes[:, j] & ~fits)
            if not len(sub):
                continue
            sub_cpu = cpu[sub]
            sub_memory = memory[sub]
            cpu_room = self._cpu_room[j]
            memory_room = self._memory_room[j]
            # Only a machine with room for the smallest demands can host
            # any of them; compare the signatures against those alone.
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
        """Clear the proofs that capacity growth or a quota opening undid.

        Every event that could make a proven signature placeable must clear
        its bit, and clearing one is always safe.  A grown machine clears
        the proven signatures that fit its room, on a reachable pool they
        are allowed on and, under quotas, admitted to (no model-size check:
        a needless clear only costs a walk); an opened slot is
        :meth:`_opening_clears`.  Scalar compares against the room columns'
        own float64 values, over the few proven signatures only.
        """
        growth, openings = self._growth, self._openings
        if not ledger.restricted:
            openings.clear()  # no slot can be why a walk failed
        proven = self._proven.nonzero()[0].tolist() if growth or openings else []
        sig_cpu, sig_memory = self._sig_cpu, self._sig_memory
        allowed = self._sig_allowed
        opened: list[int] = []
        for j, i in growth if proven else ():
            if not self._reachable[j]:
                continue  # a cell becoming reachable invalidates wholesale
            cpu, memory = self._cpu_room[j].item(i), self._memory_room[j].item(i)
            fit = [
                s for s in proven
                if sig_cpu[s] <= cpu and sig_memory[s] <= memory and allowed[s][j]
            ]
            if fit and ledger.restricted:
                classes = [self._sig_class[s] for s in fit]
                admits = ledger.admits_each(self.pools[j].platform_id, classes)
                fit = compress(fit, admits)
            opened += fit
        rest = [s for s in proven if s not in opened] if openings else []
        for platform_id, class_id in openings if rest else ():
            opened += self._opening_clears(rest, platform_id, class_id, ledger)
        for s in opened:
            self._proven[s] = False
            self._idle_window = -1
        growth.clear()
        openings.clear()

    def _opening_clears(
        self, proven: list[int], platform_id: int, class_id: int, ledger: QuotaLedger
    ) -> list[int]:
        """Those of ``proven`` that one free ``class_id`` slot on ``platform_id``
        lets the walk place: of that class, on a reachable pool they are
        allowed on, fitting one machine; the room maxima filter first."""
        j = self._pool_index.get(platform_id, -1)
        if j < 0 or not self._reachable[j] or not ledger.admits(platform_id, class_id):
            return []  # a slot that refilled opened nothing
        cpu_bound, memory_bound = self._cpu_bound[j], self._memory_bound[j]
        fit = [
            s for s in proven
            if self._sig_class[s] == class_id and self._sig_allowed[s][j]
            and self._sig_cpu[s] <= cpu_bound and self._sig_memory[s] <= memory_bound
        ]
        if not fit:
            return []
        fits = (
            (self.columns.sig_cpu[fit, None] <= self._cpu_room[j])
            & (self.columns.sig_memory[fit, None] <= self._memory_room[j])
        ).any(axis=1)
        return list(compress(fit, fits.tolist()))

    # ------------------------------------------------------------- rounds

    def schedule_round(
        self,
        ledger: QuotaLedger,
        max_attempts: int,
    ) -> list[Placement]:
        """One round over the first ``max_attempts`` queued tasks.

        Places exactly what :meth:`FirstFitScheduler.schedule_round` places,
        in the same order; classes come from the class column.  Only rows of
        unproven signatures are walked, and a failing walk skips the rest of
        its signature's rows: capacity and quota stocks only tighten within
        a round.  A failing examination in the object engine walks every
        pool, so each skipped row counts a fabric deferral exactly when any
        pool is unreachable (walks count their own inside ``try_place``).
        """
        self._flush()
        self._consume_events(ledger)
        window_len = min(max_attempts, self.queued)
        defers = self.defers
        if window_len <= self._idle_window:
            # The window still holds proven rows only: rows leave the queue
            # only by placement, and every way a row can become placeable
            # or unproven resets the idle window.
            self.idle_rounds += 1
            if defers:
                self.fabric_deferrals += window_len
            return []
        self._merge()
        window_rows = self._queue_rows[:window_len]
        window_signature = self._signature[window_rows]
        proven = self._proven
        if not self._mask_valid:
            signatures = np.unique(window_signature)
            signatures = signatures[~proven[signatures]]
            proven[signatures[~self.placeable_signatures(signatures, ledger)]] = True
            self._mask_valid = True
        order = np.flatnonzero(~proven[window_signature])
        if defers:
            self.fabric_deferrals += window_len - len(order)
        placed = np.zeros(window_len, dtype=bool)
        placements: list[Placement] = []
        class_ids = self.columns.class_id
        pending = order.tolist()
        k = 0
        while k < len(pending):
            i = pending[k]
            k += 1
            row = int(window_rows[i])
            class_id = int(class_ids[row])
            machine = self.try_place(row, class_id, ledger)
            if machine is not None:
                placed[i] = True
                placements.append(Placement(row=row, machine=machine, class_id=class_id))
                continue
            if k == len(pending):
                break
            # The walk proved its signature: skip that signature's rows.
            rest = order[k:]
            same = window_signature[rest] == window_signature[i]
            skipped = int(np.count_nonzero(same))
            self.proven_skips += skipped
            if defers:
                self.fabric_deferrals += skipped
            order = rest[~same]
            pending = order.tolist()
            k = 0
        # A round that placed nothing proved its whole window.
        self._idle_window = -1 if placements else window_len
        if placements:
            keep = np.ones(len(self._queue_rows), dtype=bool)
            keep[:window_len] = ~placed
            self._queue_rows = self._queue_rows[keep]
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
