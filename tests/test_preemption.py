"""Tests for priority preemption in the cluster simulator."""

import pytest

from repro.energy import table2_fleet
from repro.simulation import ClusterConfig
from tests.conftest import make_task
from tests.test_cluster_simulation import SIMULATOR_CLASSES, AllOnPolicy


def run(tasks, engine, preemption=True, horizon=3600.0, fleet_scale=0.002):
    fleet = table2_fleet(fleet_scale)
    simulator = SIMULATOR_CLASSES[engine](
        tasks=tuple(sorted(tasks, key=lambda t: t.submit_time)),
        horizon=horizon,
        machine_models=fleet,
        policy=AllOnPolicy(fleet),
        class_of=lambda task: 0,
        config=ClusterConfig(
            control_interval=300.0,
            enable_preemption=preemption,
        ),
    )
    metrics = simulator.run()
    return simulator, metrics


def record(simulator, uid):
    """The metrics record of the task with ``uid``, looked up by row."""
    row = next(row for row, task in enumerate(simulator.tasks) if task.uid == uid)
    return simulator.metrics.record(row)


def big_task(job_id, submit, priority, duration=2000.0):
    return make_task(
        job_id=job_id, submit_time=submit, duration=duration,
        priority=priority, cpu=0.9, memory=0.9,
    )


class TestPreemption:
    """Asserted on the object engine; the subclass below reruns every test
    on the columnar engine."""

    engine = "object"

    def test_production_evicts_gratis(self):
        # Fleet 0.002: exactly one DL585 can host 0.9/0.9 tasks.
        gratis = big_task(1, submit=400.0, priority=0)
        production = big_task(2, submit=800.0, priority=11)
        simulator, metrics = run([gratis, production], self.engine)
        assert simulator.tasks_preempted == 1
        prod_record = record(simulator, (2, 0))
        gratis_record = record(simulator, (1, 0))
        # Production placed immediately at arrival (after eviction)...
        assert prod_record.schedule_time == pytest.approx(800.0)
        # ...and the gratis task restarted later (or stayed pending).
        assert gratis_record.schedule_time is None or gratis_record.schedule_time > 800.0

    def test_no_preemption_when_disabled(self):
        gratis = big_task(1, submit=400.0, priority=0)
        production = big_task(2, submit=800.0, priority=11)
        simulator, metrics = run([gratis, production], self.engine, preemption=False)
        assert simulator.tasks_preempted == 0
        prod_record = record(simulator, (2, 0))
        # Production must wait for the gratis task to finish.
        assert prod_record.schedule_time is None or prod_record.schedule_time > 2000.0

    def test_priority_gap_respected(self):
        """A task only 1 level above cannot preempt with gap=2."""
        low = big_task(1, submit=400.0, priority=9)
        slightly_higher = big_task(2, submit=800.0, priority=10)
        simulator, _ = run([low, slightly_higher], self.engine)
        assert simulator.tasks_preempted == 0

    def test_equal_priority_never_preempts(self):
        a = big_task(1, submit=400.0, priority=11)
        b = big_task(2, submit=800.0, priority=11)
        simulator, _ = run([a, b], self.engine)
        assert simulator.tasks_preempted == 0

    def test_minimal_victim_set(self):
        """Eviction removes as few tasks as needed, smallest first."""
        # Four small gratis tasks on the DL585 plus a production task that
        # needs most of the machine.
        smalls = [
            make_task(job_id=i, submit_time=300.0 + i, duration=5000.0,
                      priority=0, cpu=0.2, memory=0.2,
                      allowed_platforms=frozenset({4}))
            for i in range(1, 5)
        ]
        production = make_task(
            job_id=9, submit_time=600.0, duration=1000.0,
            priority=11, cpu=0.5, memory=0.5,
            allowed_platforms=frozenset({4}),
        )
        simulator, metrics = run(smalls + [production], self.engine)
        # 0.2 free after 4 smalls; need 0.3 more -> evict exactly 2 smalls.
        assert simulator.tasks_preempted == 2
        assert record(simulator, (9, 0)).schedule_time == pytest.approx(600.0)

    def test_evicted_tasks_eventually_finish(self):
        gratis = big_task(1, submit=300.0, priority=0, duration=500.0)
        production = big_task(2, submit=400.0, priority=11, duration=500.0)
        simulator, metrics = run([gratis, production], self.engine, horizon=7200.0)
        assert metrics.num_finished == 2
        # No double finish: the evicted task's stale finish event is void.
        gratis_record = record(simulator, (1, 0))
        assert gratis_record.finish_time == pytest.approx(
            gratis_record.schedule_time + 500.0
        )


class TestPreemptionColumnar(TestPreemption):
    engine = "columnar"
