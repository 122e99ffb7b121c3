"""Differential test: the K-means kernel against its frozen reference.

``repro.clustering`` computes ``||x||^2`` once per fit, takes every centroid
from one grouped pass (``np.bincount`` per feature) and stops the elbow sweep
at the elbow; ``tests/reference_kmeans.py`` is the per-cluster mask-and-mean
loop and the full sweep it replaced.  The two must agree to the last bit
(``np.array_equal`` / ``==``, never a tolerance): the classifier's classes
and every simulation digest hang off the labels and centroids, so a changed
summation order, a changed empty-cluster repair or a changed RNG draw has to
fail here, loudly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.classification import ClassifierConfig
from repro.classification.features import static_features
from repro.clustering import KMeans, kmeans, select_k_elbow
from repro.trace import PriorityGroup
from tests import reference_kmeans as reference

FIELDS = (
    "labels", "centroids", "inertia", "n_iter", "converged", "reseeds", "collapsed",
)


def assert_same_fit(data, k: int, seed: int, n_init: int = 2, max_iter: int = 200):
    expected = reference.fit(data, k, n_init=n_init, max_iter=max_iter, seed=seed)
    actual = KMeans(k=k, n_init=n_init, max_iter=max_iter, seed=seed).fit(data)
    for name in FIELDS:
        want, got = getattr(expected, name), getattr(actual, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        else:
            assert got == want, name
    return expected


def assert_same_elbow(data, k_max: int, threshold: float, seed: int) -> int:
    """The lazy sweep picks the reference's k from a prefix of its curve."""
    k, curve = select_k_elbow(
        data, k_max=k_max, improvement_threshold=threshold, seed=seed
    )
    expected_k, full_curve = reference.select_k_elbow(data, k_max, threshold, seed)
    assert k == expected_k
    assert all(curve[j] == full_curve[j] for j in curve)
    if full_curve[1] <= 0:
        assert set(curve) == {1}
    else:
        assert set(curve) == set(range(1, min(k + 1, max(full_curve)) + 1))
    return k


@pytest.fixture(scope="module")
def group_blocks(small_trace):
    """The classifier's step-1 input: one static-feature block per group."""
    tasks = list(small_trace.tasks)
    blocks = {}
    for group in PriorityGroup:
        members = [t for t in tasks if t.priority_group is group]
        if members:
            durations = np.array([t.duration for t in members])
            blocks[group] = (static_features(members), durations)
    assert len(blocks) == 3
    return blocks


@pytest.mark.parametrize("k", [1, 2, 3, 8, 24])
@pytest.mark.parametrize("shape", [(40, 1), (200, 2), (300, 3)])
def test_fit_matches_reference_on_random_data(k, shape):
    for seed in range(4):
        rng = np.random.default_rng([seed, *shape])
        assert_same_fit(rng.normal(size=shape) * rng.choice([1e-3, 1.0, 1e3]), k, seed)


def test_plus_plus_seeding_draws_like_reference():
    data = np.random.default_rng(5).normal(size=(120, 2))
    for k in (1, 2, 8):
        rng_a, rng_b = np.random.default_rng(k), np.random.default_rng(k)
        expected = reference.kmeans_plus_plus_init(data, k, rng_a)
        actual = kmeans.kmeans_plus_plus_init(data, k, rng_b)
        assert np.array_equal(actual, expected)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_static_feature_blocks_match_reference(group_blocks):
    config = ClassifierConfig()
    for features, _ in group_blocks.values():
        k = assert_same_elbow(
            features, config.k_max, config.elbow_threshold, config.seed
        )
        assert k > 1
        assert_same_fit(features, k, config.seed, n_init=3)
        for other_k in (2, 5, 8, 24):
            assert_same_fit(features, other_k, config.seed)


def test_log_duration_split_matches_reference(group_blocks):
    """Step 2: k = 2 on one log-duration column, the pairwise-summed case."""
    for _, durations in group_blocks.values():
        log_d = np.log10(np.maximum(durations, 1.0))[:, None]
        for seed in range(3):
            assert_same_fit(log_d, 2, seed, n_init=3)


def test_duplicate_heavy_data_collapses_like_reference():
    rng = np.random.default_rng(2)
    points = rng.normal(size=(4, 2))
    data = points[rng.integers(0, 4, 300)]
    data[:5] = -0.0  # float equality: 0.0 and -0.0 are one distinct point
    data[5:10] = 0.0
    for k in (3, 5, 8, 24):
        assert assert_same_fit(data, k, seed=k).collapsed is (k > 5)
    assert_same_elbow(data, 24, 0.015, 0)
    assert_same_elbow(np.full((30, 2), 0.25), 24, 0.015, 0)


@pytest.mark.parametrize("seed", range(6))
def test_cancellation_forces_empty_clusters_like_reference(seed):
    """Near 1e8, ``||x||^2 - 2 x.c + ||c||^2`` cancels to ties, so clusters
    come out of the very first assignment empty, several at once."""
    rng = np.random.default_rng(seed)
    data = 1e8 + rng.integers(0, 4, size=(30, 2)).astype(float)
    reseeds = [assert_same_fit(data, k, seed, n_init=1).reseeds for k in (3, 4, 6)]
    assert max(reseeds) >= 1


def crafted_seeding(monkeypatch, centroids):
    """Start both implementations from the same hand-placed centroids."""
    def seeding(data, k, rng):
        return np.array(centroids, dtype=float)

    monkeypatch.setattr(kmeans, "kmeans_plus_plus_init", seeding)
    monkeypatch.setattr(reference, "kmeans_plus_plus_init", seeding)


BLOBS = np.vstack(
    [np.random.default_rng(0).normal(c, 0.3, size=(12, 2)) for c in ([0, 0], [5, 5])]
)


def test_one_empty_cluster_takes_a_point_from_a_higher_donor(monkeypatch):
    # Cluster 0 starts far from every point, so it is empty and j = 0 takes
    # its seed from cluster 1 or 2: the donor is averaged without the point.
    crafted_seeding(monkeypatch, [[100, 100], [0, 0], [5, 5]])
    assert assert_same_fit(BLOBS, 3, seed=0, n_init=1, max_iter=1).reseeds == 1
    assert_same_fit(BLOBS, 3, seed=0, n_init=1)


def test_two_empty_clusters_in_one_iteration(monkeypatch):
    # Clusters 1 and 3 are empty in the first iteration.  j = 1 takes the
    # farthest point from cluster 0, a lower donor that was averaged with
    # it; in the labels j = 1 changed, that point is now the farthest from
    # its (empty) centroid, so j = 3 takes it again, out of cluster 1.
    crafted_seeding(monkeypatch, [[0, 0], [-60, 40], [5, 5], [80, -90]])
    assert assert_same_fit(BLOBS, 4, seed=0, n_init=1, max_iter=1).reseeds == 2
    assert_same_fit(BLOBS, 4, seed=0, n_init=1)


def test_elbow_matches_reference_on_blobs():
    rng = np.random.default_rng(3)
    centers = [[0, 0], [30, 0], [0, 30], [30, 30]]
    data = np.vstack([rng.normal(c, 0.5, size=(50, 2)) for c in centers])
    assert assert_same_elbow(data, 12, 0.05, 0) == 4
    assert assert_same_elbow(data, 3, 0.05, 0) == 3  # no elbow below the cap
    assert assert_same_elbow(data[:2], 12, 0.05, 0) <= 2


@settings(max_examples=40, deadline=None)
@given(
    points=st.lists(
        st.tuples(
            st.floats(-1e6, 1e6, allow_nan=False, width=64),
            st.floats(-1e6, 1e6, allow_nan=False, width=64),
        ),
        min_size=1,
        max_size=60,
    ),
    duplicates=st.integers(0, 3),
    k=st.integers(1, 10),
    seed=st.integers(0, 99),
    one_column=st.booleans(),
)
def test_fit_and_elbow_match_reference_on_random_points(
    points, duplicates, k, seed, one_column
):
    data = np.array(points * (duplicates + 1))
    if one_column:
        data = data[:, :1]
    assert_same_fit(data, k, seed, n_init=2)
    assert_same_elbow(data, 8, 0.05, seed)
