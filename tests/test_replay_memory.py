"""The replay's per-task state stays a few flat columns.

Every replayed task is a row, and the simulator keeps one slot per row in
a handful of columns (arrival class, generation, scheduled finish, host,
and the metrics' submit / schedule / finish / class / platform / arrival
order), plus the columnar scheduler's numpy columns.  That is ~80 bytes
per task on the object engine and ~120 on the columnar one, measured with
``tracemalloc`` on the fixed trace below.  A uid-keyed dict entry or a
record object per task costs well over 100 bytes more, so either one,
reintroduced, breaks the bound.

The measurement is a difference: the bytes still held by a finished
simulator at twice the task count minus those at the base count, divided
by the extra tasks.  The fleet, horizon and ticks are the same at both
sizes, so everything that does not grow with the trace cancels.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.energy import table2_fleet
from repro.simulation import ClusterConfig
from repro.trace.schema import Task
from tests.test_cluster_simulation import SIMULATOR_CLASSES, AllOnPolicy

#: Retained bytes per replayed task, either engine.  Written down before
#: measuring against ~80 (object) and ~120 (columnar): low enough that one
#: more per-task dict entry or record object fails it.
BYTES_PER_TASK_BOUND = 160

BASE_TASKS = 2000
HORIZON_S = 3600.0


def fixed_trace(count: int) -> tuple[Task, ...]:
    """``count`` small tasks spread over 3000 s; all fit and finish."""
    return tuple(
        Task(
            job_id=10_000 + row,
            index=row % 3,
            submit_time=3000.0 * row / count,
            duration=60.0,
            priority=row % 12,
            scheduling_class=0,
            cpu=0.01,
            memory=0.01,
        )
        for row in range(count)
    )


def retained_bytes(engine: str, count: int) -> int:
    """Bytes allocated by building and running a simulator over ``count``
    tasks that are still held once the run is over."""
    fleet = table2_fleet(0.02)
    tasks = fixed_trace(count)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        simulator = SIMULATOR_CLASSES[engine](
            tasks=tasks,
            horizon=HORIZON_S,
            machine_models=fleet,
            policy=AllOnPolicy(fleet),
            class_of=lambda task: task.priority % 4,
            config=ClusterConfig(control_interval=300.0),
        )
        metrics = simulator.run()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert metrics.num_finished == count
    return after - before


def test_retained_bytes_per_task_stay_bounded(engine):
    grown = retained_bytes(engine, 2 * BASE_TASKS) - retained_bytes(engine, BASE_TASKS)
    per_task = grown / BASE_TASKS
    assert per_task <= BYTES_PER_TASK_BOUND, (
        f"{engine} engine retains {per_task:.0f} B per replayed task"
    )
