"""Property tests for the columnar engine's numpy kernels in isolation.

Each kernel has a scalar reference implementation transcribed from the
object engine's code path; hypothesis drives randomized agreement checks:

- :func:`first_fit_index` must pick exactly the machine the rotating
  first-fit scan of :class:`FirstFitScheduler._pick_machine` picks;
- :func:`capacity_room` must make ``demand <= room`` equivalent to
  :meth:`Machine.fits`'s ``demand <= free + 1e-9`` (and unsatisfiable for
  non-schedulable machines).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.simulation.columnar import (
    FIT_EPS,
    capacity_room,
    first_fit_index,
)

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
