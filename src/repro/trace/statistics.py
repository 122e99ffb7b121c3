"""Trace analysis helpers reproducing the Section III characterization.

Each function returns plain numpy/dict data so benches can print the same
series the paper plots (duration CDFs, size scatters, machine census).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.schema import PriorityGroup, Task, Trace

#: A resource span at or below this is treated as zero variance: requests
#: are normalized to [0, 1], so anything smaller than 1e-12 is numerical
#: noise, and exact float equality against 0.0 would miss it.
_DEGENERATE_SPAN = 1e-12


def empirical_cdf(values: np.ndarray | list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of a sample.

    Returns ``(x, F)`` where ``F[i]`` is the fraction of the sample that is
    ``<= x[i]``; ``x`` is the sorted sample.
    """
    array = np.sort(np.asarray(values, dtype=float))
    if array.size == 0:
        return np.array([]), np.array([])
    fractions = np.arange(1, array.size + 1) / array.size
    return array, fractions


def duration_cdf_by_group(
    trace: Trace,
) -> dict[PriorityGroup, tuple[np.ndarray, np.ndarray]]:
    """Per-priority-group task duration CDFs (Fig. 6)."""
    return {
        group: empirical_cdf([t.duration for t in trace.tasks_in_group(group)])
        for group in PriorityGroup
    }


@dataclass(frozen=True)
class SizeScatter:
    """Task-size summary for one priority group (one panel of Fig. 7)."""

    group: PriorityGroup
    cpu: np.ndarray
    memory: np.ndarray

    @property
    def num_tasks(self) -> int:
        return self.cpu.size

    @property
    def size_span_orders(self) -> float:
        """log10 ratio of the largest to smallest task CPU request."""
        if self.cpu.size == 0:
            return 0.0
        return float(np.log10(self.cpu.max() / self.cpu.min()))

    @property
    def cpu_memory_correlation(self) -> float:
        """Pearson correlation between CPU and memory requests.

        Degenerate samples — fewer than two tasks, or zero variance in
        either resource (every task the same size) — have no defined
        correlation; return 0.0 instead of letting ``np.corrcoef`` emit
        NaN (and a divide warning) into calibration reports.
        """
        if self.cpu.size < 2:
            return 0.0
        if (
            float(np.ptp(self.cpu)) <= _DEGENERATE_SPAN
            or float(np.ptp(self.memory)) <= _DEGENERATE_SPAN
        ):
            return 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            correlation = float(np.corrcoef(self.cpu, self.memory)[0, 1])
        return correlation if np.isfinite(correlation) else 0.0

    def modal_fraction(self, cpu: float, memory: float, tol: float = 1e-9) -> float:
        """Fraction of tasks sitting exactly at a modal (cpu, memory) point."""
        if self.cpu.size == 0:
            return 0.0
        at_mode = (np.abs(self.cpu - cpu) < tol) & (np.abs(self.memory - memory) < tol)
        return float(at_mode.mean())


def size_scatter_by_group(trace: Trace) -> dict[PriorityGroup, SizeScatter]:
    """Task sizes per priority group (Fig. 7a-c)."""
    result = {}
    for group in PriorityGroup:
        tasks = trace.tasks_in_group(group)
        result[group] = SizeScatter(
            group=group,
            cpu=np.array([t.cpu for t in tasks]),
            memory=np.array([t.memory for t in tasks]),
        )
    return result


def machine_census_table(trace: Trace) -> list[dict]:
    """Machine heterogeneity table (Fig. 5): one row per platform type."""
    total = trace.num_machines
    rows = []
    for machine in sorted(trace.machine_types, key=lambda m: -m.count):
        rows.append(
            {
                "platform_id": machine.platform_id,
                "name": machine.name,
                "cpu_capacity": machine.cpu_capacity,
                "memory_capacity": machine.memory_capacity,
                "count": machine.count,
                "share": machine.count / total if total else 0.0,
            }
        )
    return rows


def trace_summary(trace: Trace) -> dict:
    """One-look summary used by examples and reports."""
    durations = np.array([t.duration for t in trace.tasks])
    group_counts = {
        group.name.lower(): len(trace.tasks_in_group(group)) for group in PriorityGroup
    }
    return {
        "num_tasks": trace.num_tasks,
        "num_jobs": trace.num_jobs,
        "num_machines": trace.num_machines,
        "num_machine_types": len(trace.machine_types),
        "horizon_hours": trace.horizon / 3600.0,
        "group_counts": group_counts,
        "short_task_fraction": float((durations < 100.0).mean()) if durations.size else 0.0,
        "median_duration_s": float(np.median(durations)) if durations.size else 0.0,
        "max_duration_days": float(durations.max() / 86400.0) if durations.size else 0.0,
    }
