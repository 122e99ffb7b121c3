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


def _squared_norms(data: np.ndarray) -> np.ndarray:
    """``||x||^2`` of every row, ``(n, 1)``; computed once per fit."""
    return np.einsum("ij,ij->i", data, data)[:, None]


def _squared_distances(
    data: np.ndarray, x_sq: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """Pairwise squared Euclidean distances, ``(n, k)``.

    ``x_sq`` is :func:`_squared_norms` of ``data``.
    """
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2 — fast and memory-friendly
    # for the (n ~ 1e5, k ~ 10) shapes we see.
    c_sq = np.einsum("ij,ij->i", centroids, centroids)[None, :]
    cross = data @ centroids.T
    distances = x_sq - 2.0 * cross + c_sq
    np.maximum(distances, 0.0, out=distances)
    return distances


def _member_means(data: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """``data[labels == j].mean(axis=0)`` for every cluster j, bit for bit.

    Rows of empty clusters are zero; the caller re-seeds them.
    """
    counts = np.bincount(labels, minlength=k)
    if data.shape[1] == 1:
        # numpy pairwise-sums a contiguous column, an order no grouped
        # accumulation reproduces, so one feature keeps the per-cluster
        # reduction (the step-2 duration split, k = 2).
        means = np.zeros((k, 1))
        for j in np.flatnonzero(counts):
            means[j] = data[labels == j].mean(axis=0)
        return means
    # numpy reduces an (m, d >= 2) member block along axis 0 one row after
    # another, from the first member to the last: exactly the order in
    # which bincount accumulates each feature.
    sums = np.stack(
        [
            np.bincount(labels, weights=data[:, c], minlength=k)
            for c in range(data.shape[1])
        ],
        axis=1,
    )
    return sums / np.maximum(counts, 1)[:, None]


def _distinct_rows(data: np.ndarray) -> int:
    """``np.unique(data, axis=0).shape[0]`` without sorting structured rows.

    Lexicographic order puts rows that are equal (float ``==``, as
    ``np.unique`` compares them) next to each other.
    """
    ordered = data[np.lexsort(data.T)]
    return 1 + int(np.count_nonzero((ordered[1:] != ordered[:-1]).any(axis=1)))


def kmeans_plus_plus_init(
    data: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii 2007)."""
    n = data.shape[0]
    x_sq = _squared_norms(data)
    centroids = np.empty((k, data.shape[1]), dtype=float)
    first = int(rng.integers(n))
    centroids[0] = data[first]
    closest_sq = _squared_distances(data, x_sq, centroids[:1]).ravel()
    for j in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            # All points coincide with chosen centers; fall back to uniform.
            choice = int(rng.integers(n))
        else:
            choice = int(rng.choice(n, p=closest_sq / total))
        centroids[j] = data[choice]
        new_sq = _squared_distances(data, x_sq, centroids[j : j + 1]).ravel()
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
            distinct = _distinct_rows(data)
            if distinct < k:
                k = distinct
                collapsed = True

        rng = np.random.default_rng(self.seed)
        x_sq = _squared_norms(data)
        best: KMeansResult | None = None
        for _ in range(self.n_init):
            result = self._fit_once(data, x_sq, k, rng)
            if best is None or result.inertia < best.inertia:
                best = result
        assert best is not None
        if collapsed:
            best = replace(best, collapsed=True)
        self.result = best
        return best

    def _fit_once(
        self, data: np.ndarray, x_sq: np.ndarray, k: int, rng: np.random.Generator
    ) -> KMeansResult:
        centroids = kmeans_plus_plus_init(data, k, rng)
        rows = np.arange(data.shape[0])
        labels = np.full(data.shape[0], -1, dtype=int)
        converged = False
        n_iter = 0
        reseeds = 0
        for n_iter in range(1, self.max_iter + 1):
            distances = _squared_distances(data, x_sq, centroids)
            new_labels = distances.argmin(axis=1)
            counts = np.bincount(new_labels, minlength=k)
            # The labels each cluster's mean is taken over: the assignment
            # as it stood when the cluster's turn came in ascending j.
            member_labels = new_labels
            reseeded: list[tuple[int, int]] = []
            if not counts.all():
                member_labels = new_labels.copy()
                for j in range(k):
                    if counts[j]:
                        continue
                    # Empty cluster: re-seed at the point farthest from its
                    # assigned centroid (classic repair strategy).
                    farthest = int(distances[rows, new_labels].argmax())
                    donor = new_labels[farthest]
                    if donor > j:
                        # The donor is averaged after j: without the point.
                        member_labels[farthest] = j
                    new_labels[farthest] = j
                    counts[donor] -= 1
                    counts[j] += 1
                    reseeded.append((j, farthest))
                    reseeds += 1
            new_centroids = _member_means(data, member_labels, k)
            for j, farthest in reseeded:
                new_centroids[j] = data[farthest]
            shift = float(np.linalg.norm(new_centroids - centroids))
            scale = float(np.linalg.norm(centroids)) or 1.0
            same_assignment = bool(np.array_equal(new_labels, labels))
            centroids, labels = new_centroids, new_labels
            if same_assignment or shift / scale < self.tol:
                converged = True
                break
        final_distances = _squared_distances(data, x_sq, centroids)
        inertia = float(final_distances[rows, labels].sum())
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
        return _squared_distances(
            data, _squared_norms(data), self.result.centroids
        ).argmin(axis=1)

    def transform(self, data: np.ndarray) -> np.ndarray:
        """Distances from samples to every fitted centroid, ``(n, k)``."""
        if self.result is None:
            raise RuntimeError("KMeans.transform called before fit")
        data = np.asarray(data, dtype=float)
        if data.ndim == 1:
            data = data[:, None]
        return np.sqrt(
            _squared_distances(data, _squared_norms(data), self.result.centroids)
        )
