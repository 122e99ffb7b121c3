"""Feature scaling for clustering.

Task sizes span several orders of magnitude (Section III-D), so clustering in
raw units would be dominated by the few largest tasks.  The classifier scales
features with a log transform, provided here.
"""

from __future__ import annotations

import numpy as np


class LogScaler:
    """Elementwise ``log10`` with a positivity floor.

    Appropriate for features like task size and duration whose heterogeneity
    spans orders of magnitude.
    """

    def __init__(self, floor: float = 1e-6) -> None:
        if floor <= 0:
            raise ValueError(f"floor must be positive, got {floor}")
        self.floor = floor

    def transform(self, data: np.ndarray) -> np.ndarray:
        return np.log10(np.maximum(np.asarray(data, dtype=float), self.floor))
