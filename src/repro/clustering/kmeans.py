"""Lloyd's K-means with k-means++ seeding.

Implements the "standard K-means" the paper relies on for task
characterization.  Pure numpy; deterministic given a seed; empty clusters are
repaired by re-seeding them at the points farthest from their centroid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of a K-means fit.

    Attributes
    ----------
    centroids:
        ``(k, d)`` array of cluster centers.
    labels:
        ``(n,)`` integer assignment of each sample.
    inertia:
        Sum of squared distances of samples to their centroid.
    n_iter:
        Lloyd iterations performed.
    converged:
        Whether assignments stopped changing before ``max_iter``.
    reseeds:
        Empty-cluster repairs performed during the winning restart.
    collapsed:
        Whether ``k`` was reduced to the number of distinct points (the
        zero-variance / duplicate-heavy degenerate case).
    """

    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    n_iter: int
    converged: bool
    reseeds: int = 0
    collapsed: bool = False

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


def _squared_distances(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, ``(n, k)``."""
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2 — fast and memory-friendly
    # for the (n ~ 1e5, k ~ 10) shapes we see.
    x_sq = np.einsum("ij,ij->i", data, data)[:, None]
    c_sq = np.einsum("ij,ij->i", centroids, centroids)[None, :]
    cross = data @ centroids.T
    distances = x_sq - 2.0 * cross + c_sq
    np.maximum(distances, 0.0, out=distances)
    return distances


def kmeans_plus_plus_init(
    data: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii 2007)."""
    n = data.shape[0]
    centroids = np.empty((k, data.shape[1]), dtype=float)
    first = int(rng.integers(n))
    centroids[0] = data[first]
    closest_sq = _squared_distances(data, centroids[:1]).ravel()
    for j in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            # All points coincide with chosen centers; fall back to uniform.
            choice = int(rng.integers(n))
        else:
            choice = int(rng.choice(n, p=closest_sq / total))
        centroids[j] = data[choice]
        new_sq = _squared_distances(data, centroids[j : j + 1]).ravel()
        np.minimum(closest_sq, new_sq, out=closest_sq)
    return centroids


class KMeans:
    """K-means estimator with a minimal fit/predict interface.

    Parameters
    ----------
    k:
        Number of clusters.
    n_init:
        Independent k-means++ restarts; the fit with lowest inertia wins.
    max_iter:
        Lloyd iteration cap per restart.
    tol:
        Relative centroid-shift convergence tolerance.
    seed:
        Seed for the estimator's private generator.
    """

    def __init__(
        self,
        k: int,
        n_init: int = 4,
        max_iter: int = 200,
        tol: float = 1e-6,
        seed: int = 0,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if n_init < 1:
            raise ValueError(f"n_init must be >= 1, got {n_init}")
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        self.k = k
        self.n_init = n_init
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed
        self.result: KMeansResult | None = None

    def fit(self, data: np.ndarray) -> KMeansResult:
        """Fit on ``(n, d)`` data; returns (and stores) the best result."""
        data = np.asarray(data, dtype=float)
        if data.ndim == 1:
            data = data[:, None]
        if data.ndim != 2:
            raise ValueError(f"data must be 2-D, got shape {data.shape}")
        n = data.shape[0]
        if n == 0:
            raise ValueError("cannot fit K-means on empty data")
        if not np.isfinite(data).all():
            raise ValueError("data contains NaN or infinite values")
        k = min(self.k, n)
        collapsed = False
        if k > 1:
            # Degenerate data (zero-variance features, duplicate-heavy dirty
            # traces) can have fewer distinct points than clusters; every
            # surplus cluster would then thrash through empty-cluster
            # reseeds without ever separating.  Collapse k to the distinct
            # count — deterministic, and exact for such data.
            distinct = np.unique(data, axis=0).shape[0]
            if distinct < k:
                k = distinct
                collapsed = True

        rng = np.random.default_rng(self.seed)
        best: KMeansResult | None = None
        for _ in range(self.n_init):
            result = self._fit_once(data, k, rng)
            if best is None or result.inertia < best.inertia:
                best = result
        assert best is not None
        if collapsed:
            best = replace(best, collapsed=True)
        self.result = best
        return best

    def _fit_once(
        self, data: np.ndarray, k: int, rng: np.random.Generator
    ) -> KMeansResult:
        centroids = kmeans_plus_plus_init(data, k, rng)
        labels = np.full(data.shape[0], -1, dtype=int)
        converged = False
        n_iter = 0
        reseeds = 0
        for n_iter in range(1, self.max_iter + 1):
            distances = _squared_distances(data, centroids)
            new_labels = distances.argmin(axis=1)
            new_centroids = np.empty_like(centroids)
            for j in range(k):
                members = data[new_labels == j]
                if members.shape[0] == 0:
                    # Empty cluster: re-seed at the point farthest from its
                    # assigned centroid (classic repair strategy).
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
            if same_assignment or shift / scale < self.tol:
                converged = True
                break
        final_distances = _squared_distances(data, centroids)
        inertia = float(final_distances[np.arange(len(labels)), labels].sum())
        return KMeansResult(
            centroids=centroids,
            labels=labels,
            inertia=inertia,
            n_iter=n_iter,
            converged=converged,
            reseeds=reseeds,
        )

    def predict(self, data: np.ndarray) -> np.ndarray:
        """Assign new samples to the nearest fitted centroid."""
        if self.result is None:
            raise RuntimeError("KMeans.predict called before fit")
        data = np.asarray(data, dtype=float)
        if data.ndim == 1:
            data = data[:, None]
        return _squared_distances(data, self.result.centroids).argmin(axis=1)

    def transform(self, data: np.ndarray) -> np.ndarray:
        """Distances from samples to every fitted centroid, ``(n, k)``."""
        if self.result is None:
            raise RuntimeError("KMeans.transform called before fit")
        data = np.asarray(data, dtype=float)
        if data.ndim == 1:
            data = data[:, None]
        return np.sqrt(_squared_distances(data, self.result.centroids))
