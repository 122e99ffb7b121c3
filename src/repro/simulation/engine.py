"""Minimal discrete-event simulation core.

A binary-heap event queue with stable ordering: events at equal timestamps
pop in (kind-priority, insertion) order so control ticks observe a
consistent world state (finishes before arrivals before ticks).
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass
from typing import Any


class EventKind(enum.IntEnum):
    """Event kinds, ordered by processing priority at equal timestamps."""

    TASK_FINISH = 0
    MACHINE_READY = 1
    TASK_ARRIVAL = 2
    #: Fault injection fires before the control tick at the same timestamp,
    #: so the policy observes the post-fault world state.
    FAULT = 3
    CONTROL_TICK = 4


@dataclass(frozen=True, order=False, slots=True)
class Event:
    """A scheduled simulation event."""

    time: float
    kind: EventKind
    payload: Any = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"event time must be >= 0, got {self.time}")


class EventQueue:
    """Priority queue of events keyed by (time, kind, insertion order)."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulation time (time of the last popped event)."""
        return self._now

    def push(self, event: Event) -> None:
        if event.time < self._now - 1e-9:
            raise ValueError(
                f"cannot schedule event at {event.time} before current time {self._now}"
            )
        heapq.heappush(self._heap, (event.time, int(event.kind), next(self._counter), event))

    def schedule(self, time: float, kind: EventKind, payload: Any = None) -> None:
        """Convenience: construct and push an event."""
        self.push(Event(time=time, kind=kind, payload=payload))

    def pop(self) -> Event:
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        time, _, _, event = heapq.heappop(self._heap)
        self._now = time
        return event

    def peek_time(self) -> float | None:
        """Timestamp of the next event, or None if empty."""
        return self._heap[0][0] if self._heap else None

    def peek_key(self) -> tuple[float, int] | None:
        """(time, kind) of the next event, or None if empty.

        Lets an external ordered event source (the columnar engine's
        arrival array) merge against the heap with the exact same
        ``(time, kind)`` ordering the heap itself uses.
        """
        if not self._heap:
            return None
        time, kind, _, _ = self._heap[0]
        return (time, kind)

    def advance(self, time: float) -> None:
        """Move the clock forward without popping an event.

        Used when events are consumed from a source outside the heap (the
        columnar arrival cursor); enforces the same monotonicity contract
        as :meth:`push`.
        """
        if time < self._now - 1e-9:
            raise ValueError(
                f"cannot advance the clock to {time} before current time {self._now}"
            )
        self._now = time

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
