"""Feature scaling for clustering.

Task sizes span several orders of magnitude (Section III-D), so clustering in
raw units would be dominated by the few largest tasks.  The classifier scales
features with a log transform, provided here with a fit/transform/inverse
interface.
"""

from __future__ import annotations

import numpy as np


class LogScaler:
    """Elementwise ``log10`` with a positivity floor, plus inverse.

    Appropriate for features like task size and duration whose heterogeneity
    spans orders of magnitude.
    """

    def __init__(self, floor: float = 1e-6) -> None:
        if floor <= 0:
            raise ValueError(f"floor must be positive, got {floor}")
        self.floor = floor

    def transform(self, data: np.ndarray) -> np.ndarray:
        return np.log10(np.maximum(np.asarray(data, dtype=float), self.floor))

    def inverse_transform(self, data: np.ndarray) -> np.ndarray:
        return np.power(10.0, np.asarray(data, dtype=float))

    # LogScaler is stateless; fit is provided for interface symmetry.
    def fit(self, data: np.ndarray) -> "LogScaler":
        return self

    def fit_transform(self, data: np.ndarray) -> np.ndarray:
        return self.transform(data)
