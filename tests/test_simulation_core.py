"""Tests for the simulator core: event queue, machines, schedulers, metrics."""

import numpy as np
import pytest

from repro.energy import table2_fleet
from repro.simulation import (
    Event,
    EventQueue,
    FirstFitScheduler,
    Machine,
    MachinePool,
    MachineState,
    QuotaLedger,
    SimulationMetrics,
)
from repro.simulation.engine import EventKind
from repro.trace import PriorityGroup
from tests.conftest import make_task


class TestEventQueue:
    def test_time_ordering(self):
        queue = EventQueue()
        queue.schedule(5.0, EventKind.TASK_ARRIVAL, "b")
        queue.schedule(1.0, EventKind.TASK_ARRIVAL, "a")
        queue.schedule(9.0, EventKind.TASK_ARRIVAL, "c")
        assert [queue.pop().payload for _ in range(3)] == ["a", "b", "c"]

    def test_kind_priority_at_equal_time(self):
        """Finishes process before arrivals before control ticks."""
        queue = EventQueue()
        queue.schedule(1.0, EventKind.CONTROL_TICK, "tick")
        queue.schedule(1.0, EventKind.TASK_ARRIVAL, "arrive")
        queue.schedule(1.0, EventKind.TASK_FINISH, "finish")
        assert [queue.pop().payload for _ in range(3)] == ["finish", "arrive", "tick"]

    def test_insertion_order_stable(self):
        queue = EventQueue()
        for i in range(5):
            queue.schedule(1.0, EventKind.TASK_ARRIVAL, i)
        assert [queue.pop().payload for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_now_advances(self):
        queue = EventQueue()
        queue.schedule(3.0, EventKind.TASK_ARRIVAL)
        queue.pop()
        assert queue.now == 3.0

    def test_past_event_rejected(self):
        queue = EventQueue()
        queue.schedule(5.0, EventKind.TASK_ARRIVAL)
        queue.pop()
        with pytest.raises(ValueError):
            queue.schedule(4.0, EventKind.TASK_ARRIVAL)

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_peek_and_len(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        assert not queue
        queue.schedule(2.0, EventKind.TASK_ARRIVAL)
        assert queue.peek_time() == 2.0
        assert len(queue) == 1

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Event(time=-1.0, kind=EventKind.TASK_ARRIVAL)


class TestMachine:
    def _machine(self):
        model = table2_fleet(0.1)[3]  # DL585: 1.0 / 1.0
        machine = Machine(machine_id=0, model=model, state=MachineState.ON)
        return machine

    def test_place_and_release(self):
        machine = self._machine()
        task = make_task(cpu=0.4, memory=0.3)
        machine.place(0, task, class_id=7)
        assert machine.cpu_free == pytest.approx(0.6)
        assert machine.memory_free == pytest.approx(0.7)
        assert not machine.is_idle
        assert machine.release(0, task) == 7
        assert machine.is_idle
        assert machine.cpu_free == pytest.approx(1.0)

    def test_fits_only_when_on(self):
        machine = self._machine()
        task = make_task(cpu=0.1, memory=0.1)
        assert machine.fits(task)
        # Draining machines stay schedulable (their power is sunk anyway).
        machine.draining = True
        assert machine.fits(task)
        machine.draining = False
        machine.state = MachineState.BOOTING
        assert not machine.fits(task)

    def test_fits_platform_constraint(self):
        machine = self._machine()
        task = make_task(cpu=0.1, memory=0.1, allowed_platforms=frozenset({99}))
        assert not machine.fits(task)

    def test_place_overflow_rejected(self):
        machine = self._machine()
        machine.place(0, make_task(cpu=0.9, memory=0.1), class_id=0)
        with pytest.raises(ValueError):
            machine.place(1, make_task(job_id=2, cpu=0.2, memory=0.1), class_id=0)

    def test_release_unknown_raises(self):
        with pytest.raises(KeyError):
            self._machine().release(0, make_task())


def _count(pool, state):
    return sum(1 for m in pool.machines if m.state is state)


class TestMachinePool:
    def _pool(self):
        return MachinePool(table2_fleet(0.1)[2])  # 100 x DL385

    def test_initially_off(self):
        pool = self._pool()
        assert pool.powered == 0
        assert _count(pool, MachineState.OFF) == pool.total == 100

    def test_reconcile_up_boots_machines(self):
        pool = self._pool()
        started = pool.reconcile(10)
        assert len(started) == 10
        assert _count(pool, MachineState.BOOTING) == 10
        assert pool.stats.switch_on_events == 10
        for machine in started:
            pool.machine_ready(machine)
        assert _count(pool, MachineState.ON) == 10
        assert len(pool.schedulable_machines()) == 10

    def test_reconcile_down_prefers_idle(self):
        pool = self._pool()
        started = pool.reconcile(3)
        for machine in started:
            pool.machine_ready(machine)
        busy = pool.machines[0]
        busy.place(0, make_task(cpu=0.1, memory=0.1), class_id=0)
        pool.reconcile(1)
        # The two idle machines shut off; the busy one stays.
        assert busy.state is MachineState.ON
        assert _count(pool, MachineState.ON) == 1
        assert pool.stats.switch_off_events == 2

    def test_reconcile_down_drains_busy(self):
        pool = self._pool()
        for machine in pool.reconcile(1):
            pool.machine_ready(machine)
        task = make_task(cpu=0.1, memory=0.1)
        pool.machines[0].place(0, task, class_id=0)
        pool.reconcile(0)
        assert pool.machines[0].draining
        assert pool.machines[0].state is MachineState.ON
        # Once the task finishes the machine can power off.
        pool.machines[0].release(0, task)
        assert pool.maybe_power_off(pool.machines[0])
        assert pool.machines[0].state is MachineState.OFF

    def test_reconcile_revives_draining_first(self):
        pool = self._pool()
        for machine in pool.reconcile(2):
            pool.machine_ready(machine)
        task = make_task(cpu=0.1, memory=0.1)
        pool.machines[0].place(0, task, class_id=0)
        pool.machines[1].place(1, make_task(job_id=2, cpu=0.1, memory=0.1), class_id=0)
        pool.reconcile(0)  # both drain (busy)
        switch_ons_before = pool.stats.switch_on_events
        pool.reconcile(2)
        # No new boots: draining machines were revived.
        assert pool.stats.switch_on_events == switch_ons_before
        assert pool.active_non_draining == 2

    def test_reconcile_caps_at_total(self):
        pool = self._pool()
        pool.reconcile(10_000)
        assert pool.powered == pool.total

    def test_utilization(self):
        pool = self._pool()
        for machine in pool.reconcile(2):
            pool.machine_ready(machine)
        pool.machines[0].place(0, make_task(cpu=0.25, memory=0.125), class_id=0)
        cpu, mem = pool.utilization()
        # 0.25 cpu over 2 machines x 0.5 capacity.
        assert cpu == pytest.approx(0.25)
        assert mem == pytest.approx(0.25)

    def test_running_count_by_class(self):
        pool = self._pool()
        for machine in pool.reconcile(1):
            pool.machine_ready(machine)
        pool.machines[0].place(0, make_task(cpu=0.1, memory=0.1), class_id=3)
        pool.machines[0].place(1, make_task(job_id=2, cpu=0.1, memory=0.1), class_id=3)
        assert pool.running_count_by_class() == {3: 2}


class TestQuotaLedger:
    def test_unrestricted_by_default(self):
        ledger = QuotaLedger()
        assert ledger.admits(1, 5)

    def test_quota_stock_semantics(self):
        ledger = QuotaLedger()
        ledger.set_quotas({1: {5: 2}})
        assert ledger.admits(1, 5)
        ledger.place(1, 5)
        ledger.place(1, 5)
        assert not ledger.admits(1, 5)
        ledger.release(1, 5)
        assert ledger.admits(1, 5)

    def test_unlisted_class_denied(self):
        ledger = QuotaLedger()
        ledger.set_quotas({1: {5: 2}})
        assert not ledger.admits(1, 6)
        assert not ledger.admits(2, 5)

    def test_release_without_place_raises(self):
        with pytest.raises(ValueError):
            QuotaLedger().release(1, 1)

    def test_snapshot(self):
        ledger = QuotaLedger()
        ledger.place(1, 5)
        ledger.place(2, 6)
        ledger.place(1, 5)
        assert ledger.snapshot() == {1: {5: 2}, 2: {6: 1}}


class TestSchedulers:
    def _pools(self):
        fleet = table2_fleet(0.02)  # 14 R210, 3 R515, 2 DL385, 1 DL585
        pools = [MachinePool(m, id_offset=i * 1000) for i, m in enumerate(fleet)]
        for pool in pools:
            for machine in pool.reconcile(pool.total):
                pool.machine_ready(machine)
        return pools

    def test_small_task_goes_to_small_machine(self):
        pools = self._pools()
        scheduler = FirstFitScheduler(pools, (make_task(cpu=0.05, memory=0.05),), [0])
        machine = scheduler.try_place(0, 0, QuotaLedger())
        assert machine is not None
        assert machine.model.name == "Dell PowerEdge R210"

    def test_big_task_goes_to_big_machine(self):
        pools = self._pools()
        scheduler = FirstFitScheduler(pools, (make_task(cpu=0.9, memory=0.9),), [0])
        machine = scheduler.try_place(0, 0, QuotaLedger())
        assert machine is not None
        assert machine.model.name == "HP DL585 G7"

    def test_quota_blocks_placement(self):
        pools = self._pools()
        scheduler = FirstFitScheduler(pools, (make_task(cpu=0.05, memory=0.05),), [0])
        ledger = QuotaLedger()
        ledger.set_quotas({})  # nothing allowed anywhere
        assert scheduler.try_place(0, 0, ledger) is None

    def test_quota_allows_specific_platform(self):
        pools = self._pools()
        scheduler = FirstFitScheduler(pools, (make_task(cpu=0.05, memory=0.05),), [0])
        ledger = QuotaLedger()
        dl585_pid = pools[3].platform_id
        ledger.set_quotas({dl585_pid: {0: 1}})
        machine = scheduler.try_place(0, 0, ledger)
        assert machine is not None
        assert machine.model.platform_id == dl585_pid

    def test_schedule_backfill(self):
        """A blocked big task does not block smaller ones behind it."""
        pools = self._pools()
        huge = make_task(job_id=1, cpu=1.0, memory=1.0, priority=11)
        small = make_task(job_id=2, cpu=0.05, memory=0.05, priority=0)
        tasks = (huge, small)
        scheduler = FirstFitScheduler(pools, tasks, [0, 0])
        # Fill every DL585 so the huge task cannot place anywhere.
        for i, machine in enumerate(pools[3].machines):
            machine.place(100 + i, make_task(job_id=100 + i, cpu=0.9, memory=0.9), 0)
        placements, leftover = scheduler.schedule([0, 1], QuotaLedger())
        assert [tasks[p.row].job_id for p in placements] == [2]
        assert [tasks[row].job_id for row in leftover] == [1]

    def test_max_attempts_caps_scan(self):
        pools = self._pools()
        tasks = [make_task(job_id=i, cpu=0.01, memory=0.01) for i in range(10)]
        scheduler = FirstFitScheduler(pools, tasks, [0] * 10)
        placements, leftover = scheduler.schedule(range(10), QuotaLedger(), max_attempts=4)
        assert len(placements) == 4
        assert len(leftover) == 6

    def test_empty_pools_rejected(self):
        with pytest.raises(ValueError):
            FirstFitScheduler([], (), [])

    def test_failed_demand_memo_skips_dominating_tasks(self):
        """Within a round, a task dominating an already-failed demand skips
        the machine scan (and is correctly left pending)."""
        pools = self._pools()
        # Saturate everything except tiny gaps.
        for pool in pools:
            for machine in pool.machines:
                filler_cpu = machine.model.cpu_capacity * 0.97
                filler_mem = machine.model.memory_capacity * 0.97
                machine.place(
                    machine.machine_id,
                    make_task(job_id=hash((pool.platform_id, machine.machine_id)) % 10**6,
                              cpu=filler_cpu, memory=filler_mem),
                    0,
                )
        big = [make_task(job_id=10_000 + i, cpu=0.5, memory=0.5) for i in range(20)]
        scheduler = FirstFitScheduler(pools, big, [0] * 20)
        placements, leftover = scheduler.schedule(range(20), QuotaLedger())
        assert placements == []
        assert len(leftover) == 20

    def test_memo_does_not_block_smaller_tasks(self):
        pools = self._pools()
        dl585 = pools[3]
        # Leave exactly one 0.3/0.3 hole in the DL585 pool.
        for i, machine in enumerate(dl585.machines):
            fill = 0.7 if i == 0 else 0.95
            machine.place(500 + i, make_task(job_id=500 + i, cpu=fill, memory=fill), 0)
        tasks = [
            make_task(job_id=1, cpu=0.6, memory=0.6, priority=11),   # fails
            make_task(job_id=2, cpu=0.25, memory=0.25, priority=0),  # fits hole
        ]
        scheduler = FirstFitScheduler(pools, tasks, [0, 0])
        placements, leftover = scheduler.schedule([0, 1], QuotaLedger())
        placed_ids = {tasks[p.row].job_id for p in placements}
        assert 2 in placed_ids
        assert [tasks[row].job_id for row in leftover] == [1]


class TestSimulationMetrics:
    def test_lifecycle_and_delays(self):
        task = make_task(priority=10, submit_time=5.0)
        metrics = SimulationMetrics((task,))
        metrics.task_submitted(0, 5.0)
        metrics.task_scheduled(0, 8.0, class_id=1, platform_id=2)
        metrics.task_finished(0, 108.0)
        assert metrics.num_submitted == metrics.num_scheduled == metrics.num_finished == 1
        delays = metrics.delays_by_group()
        assert delays[PriorityGroup.PRODUCTION][0] == pytest.approx(3.0)
        assert metrics.mean_delay(PriorityGroup.PRODUCTION) == pytest.approx(3.0)

    def test_unscheduled_censoring(self):
        task = make_task(priority=0, submit_time=10.0)
        metrics = SimulationMetrics((task,))
        metrics.task_submitted(0, 10.0)
        assert (metrics.num_submitted, metrics.num_scheduled) == (1, 0)
        assert metrics.delays_by_group()[PriorityGroup.GRATIS].size == 0
        censored = metrics.delays_by_group(include_unscheduled_at=100.0)
        assert censored[PriorityGroup.GRATIS][0] == pytest.approx(90.0)

    def test_immediate_fraction(self):
        metrics = SimulationMetrics(
            tuple(make_task(job_id=i, priority=9, submit_time=0.0) for i in range(3))
        )
        for row, delay in enumerate((0.0, 0.5, 30.0)):
            metrics.task_submitted(row, 0.0)
            metrics.task_scheduled(row, delay, class_id=0, platform_id=1)
        assert metrics.immediate_fraction(PriorityGroup.PRODUCTION) == pytest.approx(2 / 3)

    def test_delay_summary_equals_the_per_query_values(self):
        rng = np.random.default_rng(3)
        tasks, delays = [], []
        for i in range(300):
            priority = (0, 2, 9)[i % 3] if i < 250 else 0  # gratis-heavy tail
            submit = float(rng.uniform(0, 1000))
            tasks.append(make_task(job_id=i, priority=priority, submit_time=submit))
            delay = None
            if rng.random() < 0.7:
                delay = float(rng.choice([0.0, 0.5, rng.uniform(0, 600)]))
            delays.append(delay)
        metrics = SimulationMetrics(tuple(tasks))
        for row, (task, delay) in enumerate(zip(tasks, delays)):
            metrics.task_submitted(row, task.submit_time)
            if delay is not None:
                metrics.task_scheduled(
                    row, task.submit_time + delay, class_id=0, platform_id=1
                )
        horizon = 1200.0
        summary = metrics.delay_summary(horizon)
        for group in PriorityGroup:
            stats = summary["by_group"][group.name.lower()]
            assert stats["mean_s"] == metrics.mean_delay(group, include_unscheduled_at=horizon)
            assert stats["p95_s"] == metrics.delay_percentile(
                95, group, include_unscheduled_at=horizon
            )
            assert stats["immediate_fraction"] == metrics.immediate_fraction(group)
        assert summary["mean_s"] == metrics.mean_delay(include_unscheduled_at=horizon)
        assert summary["scheduled"] == metrics.num_scheduled

    def test_delay_summary_of_an_empty_run_is_zero(self):
        summary = SimulationMetrics().delay_summary(100.0)
        assert summary["mean_s"] == 0.0 and summary["scheduled"] == 0
        assert all(
            value == 0.0 for stats in summary["by_group"].values() for value in stats.values()
        )

    def test_series_helpers(self):
        metrics = SimulationMetrics()
        metrics.machine_timeline.append((0.0, 10, 8))
        metrics.machine_timeline.append((300.0, 20, 18))
        times, powered = metrics.machines_series()
        assert list(times) == [0.0, 300.0]
        assert list(powered) == [10, 20]
        assert metrics.mean_active_machines() == 15.0
