"""Property tests for the columnar engine's numpy kernels in isolation.

Each kernel has a scalar reference implementation transcribed from the
object engine's code path; hypothesis drives randomized agreement checks:

- :func:`first_fit_index` must pick exactly the machine the rotating
  first-fit scan of :class:`FirstFitScheduler._pick_machine` picks;
- :func:`capacity_room` must make ``demand <= room`` equivalent to
  :meth:`Machine.fits`'s ``demand <= free + 1e-9`` (and unsatisfiable for
  non-schedulable machines);
- ``try_place`` must give every row of one placement signature the same
  outcome, :meth:`ColumnarFirstFitScheduler.placeable_signatures` (the
  mask a round proves its window with) must equal it, and a proven
  signature must fail without a walk, counting the walk's deferral;
- after every capacity or quota notice, the proof retest must leave
  exactly the proof bits the frozen vectorized retest
  (``tests/reference_retest.py``) leaves;
- a scheduling round — proofs, signature skips and idle windows included
  — must place what the object scheduler's round places and count the
  same fabric deferrals;
- :meth:`ColumnarFirstFitScheduler._merge` must leave the queue in the
  order of the object scheduler's stable pending sort;
- :class:`TaskColumns` must rank rows as ``sorted(set(...))`` ranks their
  ``(-priority, submit_time)`` keys and number signatures in order of
  first appearance, as dict-keyed numbering does.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.models import LinearPowerModel, MachineModel
from repro.simulation.columnar import (
    FIT_EPS,
    ColumnarFirstFitScheduler,
    TaskColumns,
    capacity_room,
    first_fit_index,
)
from repro.simulation.machine import MachinePool, MachineState
from repro.simulation.scheduler import FirstFitScheduler, QuotaLedger
from repro.trace.schema import Task
from tests import reference_retest as reference

finite = st.floats(
    min_value=0.0, max_value=8.0, allow_nan=False, allow_infinity=False
)


def room_arrays(draw, count):
    cpu_free = np.array([draw(finite) for _ in range(count)])
    memory_free = np.array([draw(finite) for _ in range(count)])
    schedulable = np.array([draw(st.booleans()) for _ in range(count)])
    return (
        capacity_room(cpu_free, schedulable),
        capacity_room(memory_free, schedulable),
        cpu_free,
        memory_free,
        schedulable,
    )


def scalar_first_fit(cpu_room, memory_room, cpu, memory, start):
    """The object engine's rotating scan, transcribed over room arrays."""
    count = len(cpu_room)
    if count == 0:
        return -1
    start = start % count
    for offset in range(count):
        index = (start + offset) % count
        if cpu <= cpu_room[index] and memory <= memory_room[index]:
            return index
    return -1


class TestFirstFitIndex:
    @given(st.data())
    def test_matches_scalar_reference(self, data):
        count = data.draw(st.integers(min_value=0, max_value=12))
        cpu_room, memory_room, _, _, _ = room_arrays(data.draw, count)
        cpu = data.draw(finite)
        memory = data.draw(finite)
        start = data.draw(st.integers(min_value=0, max_value=30))
        expected = scalar_first_fit(cpu_room, memory_room, cpu, memory, start)
        assert first_fit_index(cpu_room, memory_room, cpu, memory, start) == expected

    def test_wraps_around_hint(self):
        cpu_room = np.array([1.0, 0.0, 1.0]) + FIT_EPS
        memory_room = np.array([1.0, 1.0, 1.0]) + FIT_EPS
        # From hint 1: index 1 has no cpu room, index 2 fits first.
        assert first_fit_index(cpu_room, memory_room, 0.5, 0.5, 1) == 2
        # From hint 2 it fits immediately; wrap to 0 only after the tail.
        assert first_fit_index(cpu_room, memory_room, 0.5, 0.5, 2) == 2

    def test_empty_pool(self):
        empty = np.empty(0)
        assert first_fit_index(empty, empty, 0.1, 0.1, 0) == -1


class TestCapacityRoom:
    @given(st.data())
    def test_fit_semantics_match_machine_fits(self, data):
        count = data.draw(st.integers(min_value=1, max_value=8))
        cpu_room, memory_room, cpu_free, memory_free, schedulable = room_arrays(
            data.draw, count
        )
        cpu = data.draw(finite)
        memory = data.draw(finite)
        for i in range(count):
            # Machine.fits: schedulable and demand <= free + 1e-9 per dim.
            expected = bool(
                schedulable[i]
                and cpu <= cpu_free[i] + 1e-9
                and memory <= memory_free[i] + 1e-9
            )
            got = bool(cpu <= cpu_room[i] and memory <= memory_room[i])
            assert got == expected

    def test_non_schedulable_is_unsatisfiable(self):
        room = capacity_room(np.array([5.0]), np.array([False]))
        assert room[0] == -np.inf
        assert not (0.0 <= room[0])


# ------------------------------------------------- signature proofs

PLATFORMS = (1, 2, 3, 4)
CLASSES = (0, 1, 2)
demand = st.sampled_from([0.05, 0.1, 0.25, 0.3, 0.5, 0.75, 1.0])


def draw_state(draw):
    """Random pools, machine rooms, ledger stocks, fabric and tasks.

    Tasks often repeat an earlier task's shape (and a third of the time
    its class), so most states hold several rows of one placement
    signature, and rows that share a shape but not a class.
    """
    pools = []
    for offset, platform_id in enumerate(PLATFORMS[: draw(st.integers(1, 4))]):
        model = MachineModel(
            name=f"m{platform_id}",
            platform_id=platform_id,
            cpu_capacity=draw(st.sampled_from([0.25, 0.5, 1.0])),
            memory_capacity=draw(st.sampled_from([0.25, 0.5, 1.0])),
            count=draw(st.integers(0, 4)),
            power_model=LinearPowerModel(100.0, (50.0, 10.0)),
        )
        pool = MachinePool(model, id_offset=offset * 100)
        for machine in pool.machines:
            machine.state = draw(st.sampled_from([*MachineState, MachineState.ON]))
            machine.cpu_used = draw(st.floats(0.0, model.cpu_capacity))
            machine.memory_used = draw(st.floats(0.0, model.memory_capacity))
        pools.append(pool)
    platforms = [pool.platform_id for pool in pools]
    ledger = QuotaLedger()
    if draw(st.booleans()):
        # A platform left out of the table admits nothing.
        ledger.set_quotas(
            {
                p: {c: draw(st.integers(0, 4)) for c in CLASSES}
                for p in platforms
                if draw(st.integers(0, 3)) > 0
            }
        )
        for p in platforms:
            for c in CLASSES:
                for _ in range(draw(st.integers(0, 1))):
                    ledger.place(p, c)
    tasks = []
    classes = []
    for index in range(draw(st.integers(2, 12))):
        if tasks and draw(st.booleans()):
            twin = draw(st.integers(0, len(tasks) - 1))
            tasks.append(
                dataclasses.replace(
                    tasks[twin], index=index, priority=draw(st.integers(0, 2))
                )
            )
            classes.append(draw(st.sampled_from(CLASSES)))
            continue
        allowed = None
        if draw(st.booleans()):
            allowed = frozenset(
                p for p in PLATFORMS if draw(st.booleans())
            )
        task = Task(
            job_id=0,
            index=index,
            submit_time=0.0,
            duration=1.0,
            priority=draw(st.integers(0, 2)),
            scheduling_class=0,
            cpu=draw(demand),
            memory=draw(demand),
            allowed_platforms=allowed,
        )
        tasks.append(task)
        classes.append(draw(st.sampled_from(CLASSES)))
    scheduler = ColumnarFirstFitScheduler(pools, tuple(tasks), classes)
    scheduler.set_unreachable(
        frozenset(p for p in platforms if draw(st.integers(0, 3)) == 0)
    )
    return scheduler, ledger, tasks, classes


def walk_places(scheduler, ledger, row, class_id):
    """Whether ``try_place`` places the task at ``row`` on a copy of the state.

    Also checks the deferral a failing walk counts, which a round adds
    for every row it skips on a proof.
    """
    scheduler, ledger = copy.deepcopy((scheduler, ledger))
    before = scheduler.fabric_deferrals
    placed = scheduler.try_place(row, class_id, ledger) is not None
    deferred = scheduler.fabric_deferrals - before
    assert deferred == (0 if placed else int(scheduler.defers))
    return placed


def send_notice(draw, scheduler, ledger) -> None:
    """Open room on one machine with the notice the simulator sends: a
    task leaving it, which frees its quota slot, or a bare capacity change."""
    machines = [m for pool in scheduler.pools for m in pool.machines]
    if not machines:
        return
    machine = draw(st.sampled_from(machines))
    machine.state = MachineState.ON
    machine.cpu_used = draw(st.floats(0.0, machine.cpu_used))
    machine.memory_used = draw(st.floats(0.0, machine.memory_used))
    platform_id = machine.model.platform_id
    class_id = draw(st.sampled_from(CLASSES))
    if draw(st.booleans()) and ledger.running(platform_id, class_id):
        ledger.release(platform_id, class_id)
        scheduler.released(machine, class_id)
    else:
        scheduler.machine_changed(machine)


class TestSignatureProofs:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mask_matches_every_walk_of_a_signature(self, data):
        """One signature, one outcome, and the mask is that outcome.

        The rows are placed serially as a round places them.  At every
        step each remaining row's walk (on a copy of the state) must agree
        with the other rows of its signature and with
        ``placeable_signatures``.  A row of an unplaceable signature, once
        its walk has failed, must fail again without a walk and count the
        same deferral.
        """
        scheduler, ledger, tasks, classes = draw_state(data.draw)
        signature = scheduler.columns.signature
        every = np.arange(len(scheduler.columns.sig_cpu))
        for k in range(len(tasks)):
            fits = scheduler.placeable_signatures(every, ledger)
            outcome: dict[int, bool] = {}
            for row in range(k, len(tasks)):
                placed = walk_places(scheduler, ledger, row, classes[row])
                assert outcome.setdefault(int(signature[row]), placed) == placed
                assert placed == fits[signature[row]]
                if placed:
                    continue
                proven, proven_ledger = copy.deepcopy((scheduler, ledger))
                before = proven.fabric_deferrals
                assert proven.try_place(row, classes[row], proven_ledger) is None
                skipped = proven.proven_arrivals
                assert proven.try_place(row, classes[row], proven_ledger) is None
                assert proven.proven_arrivals == skipped + 1
                assert proven.fabric_deferrals - before == 2 * int(proven.defers)
            scheduler.try_place(k, classes[k], ledger)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_notices_reopen_proven_signatures(self, data):
        """A proof holds until a notice says something opened.

        Every row is tried once, so failures prove their signatures.  Then
        one machine's room grows, or a task leaves it and frees its quota
        slot, with the notice the simulator sends.  Every row is tried again
        on a copy: each must place exactly when the object scheduler's walk
        places it on the same state.
        """
        scheduler, ledger, tasks, classes = draw_state(data.draw)
        for row in range(len(tasks)):
            scheduler.try_place(row, classes[row], ledger)
        send_notice(data.draw, scheduler, ledger)
        for row in range(len(tasks)):
            oracle_pools, oracle_ledger = copy.deepcopy((scheduler.pools, ledger))
            oracle = FirstFitScheduler(oracle_pools, tuple(tasks), classes)
            oracle.set_unreachable(scheduler._unreachable)
            expected = oracle.try_place(row, classes[row], oracle_ledger) is not None
            assert walk_places(scheduler, ledger, row, classes[row]) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_retest_clears_exactly_the_oracles_bits(self, data):
        """After each batch of notices the proof bits equal the oracle's.

        Unplaced rows are tried again before every batch, so proofs the
        retest cleared are set again wherever the rows still fail.
        """
        scheduler, ledger, tasks, classes = draw_state(data.draw)
        unplaced = set(range(len(tasks)))
        for _ in range(data.draw(st.integers(1, 4))):
            for row in sorted(unplaced):
                if scheduler.try_place(row, classes[row], ledger) is not None:
                    unplaced.discard(row)
            for _ in range(data.draw(st.integers(1, 3))):
                send_notice(data.draw, scheduler, ledger)
            scheduler._flush()
            expected = reference.retested_proofs(scheduler, ledger)
            scheduler._consume_events(ledger)
            assert np.array_equal(scheduler._proven, expected)
            assert not scheduler._growth and not scheduler._openings

    def test_an_opening_needs_one_machine_with_room_for_both(self):
        """A pool's room maxima can come from two machines: a freed quota
        slot leaves the proof of a shape that neither machine alone fits."""
        model = MachineModel(
            name="m1",
            platform_id=1,
            cpu_capacity=1.0,
            memory_capacity=1.0,
            count=2,
            power_model=LinearPowerModel(100.0, (50.0, 10.0)),
        )
        pool = MachinePool(model, id_offset=0)
        for machine, used in zip(pool.machines, [(0.5, 0.9), (0.9, 0.5)]):
            machine.state = MachineState.ON
            machine.cpu_used, machine.memory_used = used
        task = Task(
            job_id=0, index=0, submit_time=0.0, duration=1.0, priority=0,
            scheduling_class=0, cpu=0.3, memory=0.3, allowed_platforms=None,
        )
        scheduler = ColumnarFirstFitScheduler([pool], (task,), [0])
        ledger = QuotaLedger()
        ledger.set_quotas({1: {0: 1}})
        ledger.place(1, 0)
        assert scheduler.try_place(0, 0, ledger) is None
        ledger.release(1, 0)
        scheduler.released(pool.machines[0], 0)
        scheduler._flush()
        expected = reference.retested_proofs(scheduler, ledger)
        scheduler._consume_events(ledger)
        assert scheduler._proven[0] and expected[0]
        assert not scheduler.placeable_signatures(np.arange(1), ledger)[0]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rounds_match_the_object_rounds(self, data):
        """Back-to-back rounds place and defer as the object engine's do.

        Both schedulers queue the same rows on copies of one state and run
        the same rounds.  The second round's window is no longer than the
        first's, so a first round that places nothing leaves an idle window;
        the rows queued between the rounds, some ahead of that window by
        priority, must end it when unproven.
        """
        scheduler, ledger, tasks, classes = draw_state(data.draw)
        oracle = FirstFitScheduler(
            copy.deepcopy(scheduler.pools), tuple(tasks), classes
        )
        oracle.set_unreachable(scheduler._unreachable)
        oracle_ledger = copy.deepcopy(ledger)
        rows = data.draw(st.permutations(range(len(tasks))))
        split = data.draw(st.integers(1, len(rows)))
        batches = (rows[:split], rows[split:])
        window = data.draw(st.integers(1, len(tasks)))
        windows = (window, data.draw(st.integers(1, window)))
        for batch, attempts in zip(batches, windows):
            for row in batch:
                scheduler.enqueue(row)
                oracle.enqueue(row)
            got = scheduler.schedule_round(ledger, attempts)
            expected = oracle.schedule_round(oracle_ledger, attempts)
            assert [(p.row, p.machine.machine_id) for p in got] == [
                (p.row, p.machine.machine_id) for p in expected
            ]
            assert scheduler.fabric_deferrals == oracle.fabric_deferrals
            assert scheduler.queued == oracle.queued


# --------------------------------------------------------- the queue merge


class TestQueueMerge:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_merges_match_the_object_engine_sort(self, data):
        """The queue's rows follow ``list.sort(key=(-priority, submit))``.

        Steps enqueue batches of 1-100 tasks not currently queued — first
        arrivals and re-enqueues of removed rows alike, as preemption and
        crash sweeps enqueue them — or remove a subset of the front window
        as a round's placements do.  Priorities and submit times come from
        small sets, so most keys tie.  After every merge the rows must be
        the object scheduler's stable sort of its own pending list.
        """
        count = data.draw(st.integers(1, 150))
        tasks = tuple(
            Task(
                job_id=0,
                index=index,
                submit_time=data.draw(st.sampled_from([0.0, 1.0, 2.5])),
                duration=1.0,
                priority=data.draw(st.integers(0, 2)),
                scheduling_class=0,
                cpu=0.1,
                memory=0.1,
            )
            for index in range(count)
        )
        model = MachineModel(
            name="m",
            platform_id=1,
            cpu_capacity=1.0,
            memory_capacity=1.0,
            count=1,
            power_model=LinearPowerModel(100.0, (50.0, 10.0)),
        )
        scheduler = ColumnarFirstFitScheduler([MachinePool(model)], tasks, [0] * count)
        expected: list[Task] = []
        for _ in range(data.draw(st.integers(1, 8))):
            queued = {task.uid for task in expected}
            idle = [task for task in tasks if task.uid not in queued]
            if idle and data.draw(st.booleans()):
                batch = data.draw(
                    st.lists(
                        st.sampled_from(idle),
                        min_size=1,
                        max_size=min(100, len(idle)),
                        unique_by=lambda task: task.uid,
                    )
                )
                for task in batch:
                    scheduler.enqueue(task.index)
                expected.extend(batch)
                scheduler._merge()
                expected.sort(key=lambda t: (-t.priority, t.submit_time))
                # A task's index is its row.
                assert scheduler._queue_rows.tolist() == [t.index for t in expected]
                assert scheduler.queued == len(expected)
            elif expected:
                window = data.draw(st.integers(1, len(expected)))
                placed = [data.draw(st.booleans()) for _ in range(window)]
                keep = np.ones(len(expected), dtype=bool)
                keep[:window] = np.logical_not(placed)
                scheduler._queue_rows = scheduler._queue_rows[keep]
                scheduler._queue_rank = scheduler._queue_rank[keep]
                expected = [t for t, kept in zip(expected, keep) if kept]


# ------------------------------------------------------------ task columns


def scalar_columns(tasks, labels, pool_platform_ids):
    """Rank and signature numbering, transcribed with tuple-keyed dicts."""
    keys = [(-task.priority, task.submit_time) for task in tasks]
    rank_of = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    signatures: dict = {}
    masks: dict = {}
    rows = []
    for task, label in zip(tasks, labels):
        mask = tuple(
            task.allowed_platforms is None or p in task.allowed_platforms
            for p in pool_platform_ids
        )
        code = masks.setdefault(mask, len(masks))
        key = (task.cpu, task.memory, label, code)
        rows.append(signatures.setdefault(key, len(signatures)))
    table = list(signatures)
    allowed = [list(masks)[key[3]] for key in table]
    return [rank_of[key] for key in keys], rows, table, allowed


class TestTaskColumns:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_dict_numbering(self, data):
        count = data.draw(st.integers(0, 40))
        tasks = []
        for index in range(count):
            allowed = None
            if data.draw(st.booleans()):
                allowed = frozenset(
                    p for p in PLATFORMS + (9,) if data.draw(st.booleans())
                )
            tasks.append(
                Task(
                    job_id=0,
                    index=index,
                    submit_time=data.draw(st.sampled_from([0.0, 1.0, 2.5, 7.25])),
                    duration=1.0,
                    priority=data.draw(st.integers(0, 11)),
                    scheduling_class=0,
                    cpu=data.draw(demand),
                    memory=data.draw(demand),
                    allowed_platforms=allowed,
                )
            )
        labels = [data.draw(st.sampled_from(CLASSES)) for _ in range(count)]
        order = data.draw(st.permutations(PLATFORMS))
        pools = tuple(order[: data.draw(st.integers(1, 4))])
        columns = TaskColumns(tuple(tasks), labels, pools)
        rank, signature, table, allowed = scalar_columns(tasks, labels, pools)
        assert columns.rank.tolist() == rank
        assert columns.signature.tolist() == signature
        assert columns.sig_cpu.tolist() == [key[0] for key in table]
        assert columns.sig_memory.tolist() == [key[1] for key in table]
        assert columns.sig_class.tolist() == [key[2] for key in table]
        assert columns.sig_allowed.shape == (len(table), len(pools))
        assert columns.sig_allowed.tolist() == [list(mask) for mask in allowed]
