"""Tests for the K-means substrate (Lloyd + k-means++, scaling, k selection)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering import (
    KMeans,
    LogScaler,
    inertia_curve,
    select_k_elbow,
)


def three_blobs(n_per=50, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0]])
    return np.vstack(
        [rng.normal(c, 0.5, size=(n_per, 2)) for c in centers]
    ), centers


class TestKMeans:
    def test_recovers_separated_blobs(self):
        data, centers = three_blobs()
        result = KMeans(k=3, seed=1).fit(data)
        assert result.converged
        recovered = sorted(tuple(np.round(c)) for c in result.centroids)
        expected = sorted(tuple(c) for c in centers)
        assert recovered == expected

    def test_labels_partition_data(self):
        data, _ = three_blobs()
        result = KMeans(k=3, seed=1).fit(data)
        assert result.labels.shape == (data.shape[0],)
        assert set(result.labels) == {0, 1, 2}
        assert np.bincount(result.labels).sum() == data.shape[0]

    def test_inertia_decreases_with_k(self):
        data, _ = three_blobs()
        curve = inertia_curve(data, [1, 2, 3, 4], seed=0)
        values = [curve[k] for k in (1, 2, 3, 4)]
        assert values[0] >= values[1] >= values[2] >= values[3]

    def test_k_one_centroid_is_mean(self):
        data, _ = three_blobs()
        result = KMeans(k=1, seed=0).fit(data)
        assert np.allclose(result.centroids[0], data.mean(axis=0))

    def test_k_capped_at_sample_count(self):
        data = np.array([[0.0], [1.0]])
        result = KMeans(k=5, seed=0).fit(data)
        assert result.k == 2

    def test_deterministic_given_seed(self):
        data, _ = three_blobs()
        a = KMeans(k=3, seed=7).fit(data)
        b = KMeans(k=3, seed=7).fit(data)
        assert np.array_equal(a.labels, b.labels)

    def test_predict_nearest_centroid(self):
        data, _ = three_blobs()
        model = KMeans(k=3, seed=1)
        model.fit(data)
        label_at_origin = model.predict(np.array([[0.1, -0.2]]))[0]
        origin_centroid = model.result.centroids[label_at_origin]
        assert np.linalg.norm(origin_centroid) < 2.0

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            KMeans(k=2).predict(np.zeros((3, 2)))

    def test_transform_shape(self):
        data, _ = three_blobs()
        model = KMeans(k=3, seed=1)
        model.fit(data)
        distances = model.transform(data[:10])
        assert distances.shape == (10, 3)
        assert (distances >= 0).all()

    def test_identical_points(self):
        data = np.ones((20, 2))
        result = KMeans(k=3, seed=0).fit(data)
        assert result.inertia == pytest.approx(0.0)

    def test_collapses_k_to_distinct_point_count(self):
        # 40 samples but only 2 distinct points: k=5 must collapse to 2
        # instead of thrashing empty-cluster reseeds / NaN centroids.
        data = np.array([[0.0, 0.0], [1.0, 1.0]] * 20)
        result = KMeans(k=5, seed=0).fit(data)
        assert result.collapsed
        assert result.k == 2
        assert np.isfinite(result.centroids).all()
        assert result.inertia == pytest.approx(0.0)

    def test_zero_variance_data_yields_single_cluster(self):
        data = np.full((30, 2), 0.25)
        result = KMeans(k=4, seed=1).fit(data)
        assert result.collapsed
        assert result.k == 1
        assert result.centroids[0] == pytest.approx([0.25, 0.25])

    def test_reseed_counter_surfaces(self):
        rng = np.random.default_rng(0)
        result = KMeans(k=3, seed=0).fit(rng.normal(size=(50, 2)))
        assert result.reseeds >= 0  # field exists and is an int
        assert not result.collapsed

    def test_rejects_empty_and_nan(self):
        with pytest.raises(ValueError):
            KMeans(k=2).fit(np.empty((0, 2)))
        with pytest.raises(ValueError):
            KMeans(k=2).fit(np.array([[1.0, np.nan]]))

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            KMeans(k=0)
        with pytest.raises(ValueError):
            KMeans(k=2, n_init=0)
        with pytest.raises(ValueError):
            KMeans(k=2, max_iter=0)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=60),
        k=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=99),
    )
    def test_property_no_empty_clusters_and_inertia_finite(self, n, k, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n, 3))
        result = KMeans(k=k, n_init=1, seed=seed).fit(data)
        assert (np.bincount(result.labels, minlength=result.k) > 0).all()
        assert np.isfinite(result.inertia)
        # Inertia equals the sum of squared distances to assigned centroids.
        manual = sum(
            float(np.sum((data[result.labels == j] - result.centroids[j]) ** 2))
            for j in range(result.k)
        )
        assert result.inertia == pytest.approx(manual, rel=1e-6, abs=1e-9)


class TestSelection:
    def test_elbow_finds_three_blobs(self):
        data, _ = three_blobs(n_per=80)
        k, curve = select_k_elbow(data, k_max=8, seed=0)
        assert k == 3
        assert set(curve) == {1, 2, 3, 4}

    def test_elbow_on_single_cluster(self):
        rng = np.random.default_rng(0)
        data = rng.normal(0, 1, size=(100, 2))
        k, _ = select_k_elbow(data, k_max=6, improvement_threshold=0.3, seed=0)
        assert k <= 2


class TestScalers:
    def test_log_scaler_round_trip(self):
        data = np.array([0.001, 0.1, 1.0])
        scaler = LogScaler()
        assert np.allclose(10.0 ** scaler.transform(data), data)

    def test_log_scaler_floors_nonpositive(self):
        scaler = LogScaler(floor=1e-6)
        assert scaler.transform(np.array([0.0]))[0] == pytest.approx(-6.0)

    def test_log_scaler_bad_floor(self):
        with pytest.raises(ValueError):
            LogScaler(floor=0.0)
