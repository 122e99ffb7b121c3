"""Additional clustering coverage: determinism, k-selection, quality."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering import KMeans, select_k_elbow
from repro.clustering.kmeans import kmeans_plus_plus_init


class TestKMeansPlusPlus:
    def test_seeds_are_data_points(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(50, 2))
        centroids = kmeans_plus_plus_init(data, 4, np.random.default_rng(1))
        for centroid in centroids:
            assert any(np.allclose(centroid, point) for point in data)

    def test_spreads_over_clusters(self):
        """k-means++ picks one seed per well-separated blob (w.h.p.)."""
        rng = np.random.default_rng(0)
        centers = np.array([[0, 0], [100, 0], [0, 100], [100, 100]], dtype=float)
        data = np.vstack([rng.normal(c, 0.1, size=(25, 2)) for c in centers])
        hits = 0
        for seed in range(10):
            centroids = kmeans_plus_plus_init(data, 4, np.random.default_rng(seed))
            nearest = {
                int(np.argmin(np.linalg.norm(centers - c, axis=1))) for c in centroids
            }
            hits += len(nearest) == 4
        assert hits >= 9

    def test_degenerate_all_identical(self):
        data = np.ones((10, 2))
        centroids = kmeans_plus_plus_init(data, 3, np.random.default_rng(0))
        assert centroids.shape == (3, 2)


class TestKMeansQuality:
    def test_more_restarts_never_worse(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(200, 4))
        single = KMeans(k=6, n_init=1, seed=9).fit(data).inertia
        multi = KMeans(k=6, n_init=6, seed=9).fit(data).inertia
        assert multi <= single + 1e-9

    def test_one_dimensional_input(self):
        data = np.concatenate([np.zeros(20), np.ones(20) * 10])
        result = KMeans(k=2, seed=0).fit(data)
        centers = sorted(float(c) for c in result.centroids.ravel())
        assert centers[0] == pytest.approx(0.0, abs=0.1)
        assert centers[1] == pytest.approx(10.0, abs=0.1)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 200))
    def test_fit_deterministic_per_seed(self, seed):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(60, 2))
        a = KMeans(k=3, seed=seed).fit(data)
        b = KMeans(k=3, seed=seed).fit(data)
        assert np.array_equal(a.labels, b.labels)
        assert a.inertia == b.inertia


class TestSelectionEdges:
    def test_k_max_one(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(30, 2))
        k, curve = select_k_elbow(data, k_max=1)
        assert k == 1
        assert set(curve) == {1}

    def test_fewer_points_than_k_max(self):
        data = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        k, curve = select_k_elbow(data, k_max=10)
        assert k <= 3

    def test_invalid_k_max(self):
        with pytest.raises(ValueError):
            select_k_elbow(np.zeros((5, 2)), k_max=0)
