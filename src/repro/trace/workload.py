"""Workload timelines: arrival binning and demand time series.

These are the inputs the HARMONY pipeline consumes at run time:

- :func:`bin_arrivals` / :class:`ArrivalSeries` -- per-class arrival counts
  per control interval, feeding the ARIMA predictor (Section VI, Fig. 19);
- :func:`demand_timeseries` -- total requested CPU/memory of all tasks in
  the system over time (Figs. 1-2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

import numpy as np

from repro.trace.schema import PriorityGroup, Task, Trace


@dataclass(frozen=True)
class ArrivalSeries:
    """Arrival counts per (class key, time bin).

    Attributes
    ----------
    bin_seconds:
        Width of each time bin.
    edges:
        Bin edges, length ``num_bins + 1``.
    counts:
        Mapping from class key to an integer array of length ``num_bins``.
    """

    bin_seconds: float
    edges: np.ndarray
    counts: dict[Hashable, np.ndarray]

    @property
    def num_bins(self) -> int:
        return len(self.edges) - 1

    def rate(self, key: Hashable) -> np.ndarray:
        """Arrival rate (per second) series for one class."""
        return self.counts[key] / self.bin_seconds

    def total(self) -> np.ndarray:
        """Summed counts across all classes."""
        result = np.zeros(self.num_bins, dtype=float)
        for series in self.counts.values():
            result += series
        return result

    def keys(self) -> list[Hashable]:
        return list(self.counts.keys())


def bin_arrivals(
    tasks: Iterable[Task],
    horizon: float,
    bin_seconds: float,
    key: Callable[[Task], Hashable] | None = None,
) -> ArrivalSeries:
    """Count task arrivals per class per time bin.

    Parameters
    ----------
    key:
        Classifies each task; defaults to its priority group.
    """
    if bin_seconds <= 0:
        raise ValueError("bin_seconds must be positive")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    key = key or (lambda task: task.priority_group)
    num_bins = int(np.ceil(horizon / bin_seconds))
    edges = np.arange(num_bins + 1, dtype=float) * bin_seconds
    counts: dict[Hashable, np.ndarray] = {}
    for task in tasks:
        k = key(task)
        if k not in counts:
            counts[k] = np.zeros(num_bins, dtype=float)
        idx = min(int(task.submit_time // bin_seconds), num_bins - 1)
        counts[k][idx] += 1
    return ArrivalSeries(bin_seconds=bin_seconds, edges=edges, counts=counts)


def arrival_rate_series(
    trace: Trace, bin_seconds: float = 300.0
) -> dict[PriorityGroup, np.ndarray]:
    """Per-priority-group arrival rates (tasks/second) over the trace (Fig. 19)."""
    series = bin_arrivals(trace.tasks, trace.horizon, bin_seconds)
    return {
        group: series.counts.get(group, np.zeros(series.num_bins)) / bin_seconds
        for group in PriorityGroup
    }


def demand_timeseries(
    trace: Trace, bin_seconds: float = 300.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Total requested (cpu, memory) of tasks alive per time bin (Figs. 1-2).

    A task contributes its request from ``submit_time`` until
    ``submit_time + duration`` — i.e. demand includes tasks waiting to be
    scheduled, matching the paper's definition ("including the tasks that
    are waiting to be scheduled").

    Returns
    -------
    (times, cpu_demand, memory_demand):
        ``times`` are bin midpoints; demands are in normalized machine units.
    """
    if bin_seconds <= 0:
        raise ValueError("bin_seconds must be positive")
    num_bins = int(np.ceil(trace.horizon / bin_seconds))
    cpu = np.zeros(num_bins + 1)
    mem = np.zeros(num_bins + 1)
    # Difference arrays: +demand at arrival bin, -demand after departure bin.
    for task in trace.tasks:
        start = min(int(task.submit_time // bin_seconds), num_bins - 1)
        end = min(int((task.submit_time + task.duration) // bin_seconds) + 1, num_bins)
        cpu[start] += task.cpu
        cpu[end] -= task.cpu
        mem[start] += task.memory
        mem[end] -= task.memory
    cpu_series = np.cumsum(cpu[:num_bins])
    mem_series = np.cumsum(mem[:num_bins])
    times = (np.arange(num_bins) + 0.5) * bin_seconds
    return times, cpu_series, mem_series
