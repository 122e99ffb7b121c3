"""Frozen oracle for ``tests/test_kmeans_kernel.py``.

Lloyd's K-means and the elbow rule as they stood before the grouped
centroid update and the lazy sweep, copied statement for statement: ``||x||^2``
recomputed inside every distance matrix, one boolean-mask pass and one
``members.mean(axis=0)`` per cluster, the empty-cluster repair inside that
loop, the distinct-point collapse through ``np.unique(..., axis=0)``, and an
elbow rule that fits every k up to the cap before it looks at the curve.
``repro.clustering`` must reproduce every bit of what this module computes,
because the classifier's classes, and every simulation digest after them,
are functions of those bits.  Do not "improve" it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class KMeansResult:
    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    n_iter: int
    converged: bool
    reseeds: int = 0
    collapsed: bool = False


def squared_distances(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    x_sq = np.einsum("ij,ij->i", data, data)[:, None]
    c_sq = np.einsum("ij,ij->i", centroids, centroids)[None, :]
    cross = data @ centroids.T
    distances = x_sq - 2.0 * cross + c_sq
    np.maximum(distances, 0.0, out=distances)
    return distances


def kmeans_plus_plus_init(
    data: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    n = data.shape[0]
    centroids = np.empty((k, data.shape[1]), dtype=float)
    first = int(rng.integers(n))
    centroids[0] = data[first]
    closest_sq = squared_distances(data, centroids[:1]).ravel()
    for j in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            choice = int(rng.integers(n))
        else:
            choice = int(rng.choice(n, p=closest_sq / total))
        centroids[j] = data[choice]
        new_sq = squared_distances(data, centroids[j : j + 1]).ravel()
        np.minimum(closest_sq, new_sq, out=closest_sq)
    return centroids


def fit_once(
    data: np.ndarray, k: int, rng: np.random.Generator, max_iter: int, tol: float
) -> KMeansResult:
    centroids = kmeans_plus_plus_init(data, k, rng)
    labels = np.full(data.shape[0], -1, dtype=int)
    converged = False
    n_iter = 0
    reseeds = 0
    for n_iter in range(1, max_iter + 1):
        distances = squared_distances(data, centroids)
        new_labels = distances.argmin(axis=1)
        new_centroids = np.empty_like(centroids)
        for j in range(k):
            members = data[new_labels == j]
            if members.shape[0] == 0:
                farthest = distances[np.arange(len(new_labels)), new_labels].argmax()
                new_centroids[j] = data[farthest]
                new_labels[farthest] = j
                reseeds += 1
            else:
                new_centroids[j] = members.mean(axis=0)
        shift = float(np.linalg.norm(new_centroids - centroids))
        scale = float(np.linalg.norm(centroids)) or 1.0
        same_assignment = bool(np.array_equal(new_labels, labels))
        centroids, labels = new_centroids, new_labels
        if same_assignment or shift / scale < tol:
            converged = True
            break
    final_distances = squared_distances(data, centroids)
    inertia = float(final_distances[np.arange(len(labels)), labels].sum())
    return KMeansResult(
        centroids=centroids,
        labels=labels,
        inertia=inertia,
        n_iter=n_iter,
        converged=converged,
        reseeds=reseeds,
    )


def fit(
    data: np.ndarray,
    k: int,
    n_init: int = 4,
    max_iter: int = 200,
    tol: float = 1e-6,
    seed: int = 0,
) -> KMeansResult:
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    n = data.shape[0]
    k = min(k, n)
    collapsed = False
    if k > 1:
        distinct = np.unique(data, axis=0).shape[0]
        if distinct < k:
            k = distinct
            collapsed = True
    rng = np.random.default_rng(seed)
    best: KMeansResult | None = None
    for _ in range(n_init):
        result = fit_once(data, k, rng, max_iter, tol)
        if best is None or result.inertia < best.inertia:
            best = result
    assert best is not None
    if collapsed:
        best = replace(best, collapsed=True)
    return best


def inertia_curve(
    data: np.ndarray, k_values: list[int] | range, seed: int = 0, n_init: int = 2
) -> dict[int, float]:
    data = np.asarray(data, dtype=float)
    curve: dict[int, float] = {}
    for k in k_values:
        curve[k] = fit(data, k, n_init=n_init, seed=seed).inertia
    return curve


def select_k_elbow(
    data: np.ndarray,
    k_max: int = 12,
    improvement_threshold: float = 0.05,
    seed: int = 0,
) -> tuple[int, dict[int, float]]:
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    k_cap = min(k_max, data.shape[0])
    curve = inertia_curve(data, range(1, k_cap + 1), seed=seed)
    total = curve[1]
    if total <= 0:
        return 1, curve
    selected = k_cap
    for k in range(1, k_cap):
        if (curve[k] - curve[k + 1]) / total < improvement_threshold:
            selected = k
            break
    return selected, curve
