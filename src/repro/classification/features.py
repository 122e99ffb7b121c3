"""Feature extraction for task clustering.

Static features are the attributes known at submission time (CPU and memory
request); duration is only known once the task finishes, which is why the
classifier treats it in a separate second step (Section V).

The features are log-scaled: task sizes span several orders of magnitude
(Section III-D), and clustering in raw units would collapse everything but
the few largest tasks into one class.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.clustering.scaling import LogScaler
from repro.trace.schema import Task

_SIZE_SCALER = LogScaler(floor=1e-6)


def static_features(tasks: Sequence[Task]) -> np.ndarray:
    """``(n, 2)`` array of (log10 cpu, log10 memory) requests."""
    if not tasks:
        return np.empty((0, 2))
    raw = np.array([[t.cpu, t.memory] for t in tasks], dtype=float)
    return _SIZE_SCALER.transform(raw)
