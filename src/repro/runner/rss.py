"""Resident-set-size sampling without external dependencies.

Two probes, both best-effort (they return ``None`` where the platform
does not expose the reading, never raise):

- :func:`self_peak_rss_mb` — the calling process's *high-water* RSS from
  ``getrusage``.  Each scenario reports it at its end, so the baseline
  payload carries a peak the coordinator's periodic samples may miss.
- :func:`process_rss_mb` — a process's *current* RSS from
  ``/proc/<pid>/status`` (``VmRSS``).  The executor samples itself, its
  live workers and the template they were forked from (found through
  :func:`parent_pid`) to enforce the fleet memory ceiling and to observe
  the run-wide peak.
"""

from __future__ import annotations

import sys

try:
    import resource
except ImportError:  # pragma: no cover — non-POSIX platform
    resource = None  # type: ignore[assignment]


def self_peak_rss_mb() -> float | None:
    """High-water RSS of the calling process, in MiB (None if unknown)."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if peak <= 0:
        return None
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    divisor = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return float(peak) / divisor


def _status_field(pid: int, field: str) -> int | None:
    """The first number of ``field`` in ``/proc/<pid>/status`` (None if
    unreadable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith(field):
                    parts = line.split()
                    if len(parts) >= 2:
                        return int(parts[1])
    except (OSError, ValueError):
        return None
    return None


def process_rss_mb(pid: int) -> float | None:
    """Current RSS of ``pid`` in MiB via procfs (None if unreadable)."""
    rss_kb = _status_field(pid, "VmRSS:")
    return None if rss_kb is None else float(rss_kb) / 1024.0


def parent_pid(pid: int) -> int | None:
    """The parent of ``pid`` via procfs (None if unreadable)."""
    return _status_field(pid, "PPid:")


def tree_rss_mb(pids: list[int]) -> float | None:
    """Sum of current RSS over ``pids`` (self + workers), None if no reading.

    Dead or unreadable pids contribute nothing; the reading is ``None``
    only when *no* pid could be sampled, so a missing procfs disables the
    memory ceiling gracefully instead of stalling admission forever.
    """
    readings = [rss for pid in pids for rss in (process_rss_mb(pid),) if rss is not None]
    if not readings:
        return None
    return sum(readings)
