"""Choosing k: inertia curves and the elbow rule.

Section IX-A: "the best value of k for each priority group is selected as the
one for which no significant benefit can be achieved by increasing the value
of k" — i.e. the elbow rule on the inertia curve, implemented here as the
smallest k whose marginal relative inertia improvement falls below a
threshold.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.kmeans import KMeans


def inertia_curve(
    data: np.ndarray,
    k_values: list[int] | range,
    seed: int = 0,
    n_init: int = 2,
) -> dict[int, float]:
    """Inertia of the best K-means fit for each candidate k."""
    data = np.asarray(data, dtype=float)
    curve: dict[int, float] = {}
    for k in k_values:
        result = KMeans(k=k, n_init=n_init, seed=seed).fit(data)
        curve[k] = result.inertia
    return curve


def select_k_elbow(
    data: np.ndarray,
    k_max: int = 12,
    improvement_threshold: float = 0.05,
    seed: int = 0,
) -> tuple[int, dict[int, float]]:
    """Pick k with the elbow rule.

    Starting from k=1, accept k+1 while it reduces inertia by more than
    ``improvement_threshold`` of the *total* (k=1) inertia; stop at the
    first k whose marginal gain is insignificant.  Normalizing by the k=1
    inertia (rather than the current one) makes the rule converge: past the
    elbow, each extra cluster shaves a roughly constant *fraction* of the
    residual, which would never fall below a current-relative threshold.

    Each k is fitted by its own seeded :class:`KMeans`, independent of every
    other k, so the sweep stops at the first insignificant gain: the k is
    the one the full :func:`inertia_curve` would give.

    Returns
    -------
    (k, curve):
        The selected k and the inertia curve the rule looked at: k = 1 to
        the selected k + 1, to ``min(k_max, n)`` when no gain was
        insignificant, or k = 1 alone when the data has no spread.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    k_cap = min(k_max, data.shape[0])
    curve = inertia_curve(data, [1], seed=seed)
    total = curve[1]
    if total <= 0:
        return 1, curve
    for k in range(1, k_cap):
        curve.update(inertia_curve(data, [k + 1], seed=seed))
        if (curve[k] - curve[k + 1]) / total < improvement_threshold:
            return k, curve
    return k_cap, curve
