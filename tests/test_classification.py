"""Tests for the two-step task classifier and run-time labeling (Section V)."""

import numpy as np
import pytest

from repro.classification import (
    ClassifierConfig,
    DurationCategory,
    TaskClassifier,
)
from repro.trace import PriorityGroup
from tests.conftest import make_task


def bimodal_tasks(num=200, seed=0):
    """Two clear size clusters x two clear duration modes, one group."""
    rng = np.random.default_rng(seed)
    tasks = []
    for i in range(num):
        small = i % 2 == 0
        cpu = 0.01 if small else 0.4
        mem = 0.02 if small else 0.3
        short = rng.random() < 0.7
        duration = float(rng.uniform(20, 60)) if short else float(rng.uniform(20000, 60000))
        tasks.append(
            make_task(job_id=i, duration=duration, cpu=cpu, memory=mem, priority=0)
        )
    return tasks


class TestFit:
    def test_finds_two_static_classes(self):
        classifier = TaskClassifier(ClassifierConfig(seed=0)).fit(bimodal_tasks())
        gratis_static = [s for s in classifier.static_classes if s.group is PriorityGroup.GRATIS]
        assert len(gratis_static) == 2

    def test_short_long_split(self):
        classifier = TaskClassifier(ClassifierConfig(seed=0)).fit(bimodal_tasks())
        categories = {leaf.duration_category for leaf in classifier.classes}
        assert categories == {DurationCategory.SHORT, DurationCategory.LONG}
        for leaf in classifier.classes:
            if leaf.duration_category is DurationCategory.LONG:
                assert leaf.duration_mean > 10000
            else:
                assert leaf.duration_mean < 100

    def test_class_statistics_match_members(self):
        tasks = bimodal_tasks()
        classifier = TaskClassifier(ClassifierConfig(seed=0)).fit(tasks)
        total = sum(leaf.num_tasks for leaf in classifier.classes)
        assert total == len(tasks)

    def test_fit_empty_raises(self):
        with pytest.raises(ValueError):
            TaskClassifier().fit([])

    def test_pinned_k(self):
        rng_sizes = [(0.01, 0.02), (0.05, 0.1), (0.2, 0.15), (0.6, 0.5)]
        tasks = [
            make_task(job_id=i, duration=50.0, cpu=c, memory=m, priority=0)
            for i in range(80)
            for c, m in [rng_sizes[i % 4]]
        ]
        config = ClassifierConfig(k_per_group={PriorityGroup.GRATIS: 4}, seed=0)
        classifier = TaskClassifier(config).fit(tasks)
        gratis_static = [s for s in classifier.static_classes if s.group is PriorityGroup.GRATIS]
        assert len(gratis_static) == 4

    def test_small_class_not_split(self):
        """A class with too few members stays a single 'short' leaf."""
        tasks = [make_task(job_id=i, duration=50.0, cpu=0.1, memory=0.1) for i in range(6)]
        classifier = TaskClassifier(ClassifierConfig(seed=0, min_subclass_size=5)).fit(tasks)
        assert all(
            leaf.duration_category is DurationCategory.SHORT for leaf in classifier.classes
        )

    def test_summary_rows(self, classifier):
        rows = classifier.summary()
        assert len(rows) == classifier.num_classes
        for row in rows:
            assert row["num_tasks"] > 0
            assert row["duration_mean_s"] > 0

    def test_classes_tight_relative_to_mean(self, classifier):
        """Section IX-A: 'the standard deviation is much less than the mean'."""
        weighted_ratio = 0.0
        weight = 0
        for leaf in classifier.classes:
            if leaf.cpu_mean > 0:
                weighted_ratio += leaf.num_tasks * (leaf.cpu_std / leaf.cpu_mean)
                weight += leaf.num_tasks
        assert weighted_ratio / weight < 0.6


class TestRuntimeClassification:
    def test_initial_label_is_short(self):
        classifier = TaskClassifier(ClassifierConfig(seed=0)).fit(bimodal_tasks())
        task = make_task(job_id=999, duration=50000.0, cpu=0.01, memory=0.02)
        leaf = classifier.classify(task, observed_runtime=0.0)
        assert leaf.duration_category is DurationCategory.SHORT

    def test_relabel_after_boundary(self):
        classifier = TaskClassifier(ClassifierConfig(seed=0)).fit(bimodal_tasks())
        task = make_task(job_id=999, duration=50000.0, cpu=0.01, memory=0.02)
        static = classifier.classify_static(task)
        assert np.isfinite(static.split_seconds)
        leaf = classifier.classify(task, observed_runtime=static.split_seconds * 2)
        assert leaf.duration_category is DurationCategory.LONG

    def test_true_class_uses_duration(self):
        classifier = TaskClassifier(ClassifierConfig(seed=0)).fit(bimodal_tasks())
        long_task = make_task(job_id=999, duration=50000.0, cpu=0.01, memory=0.02)
        short_task = make_task(job_id=998, duration=30.0, cpu=0.01, memory=0.02)
        # The clairvoyant label: classify with the whole duration observed.
        for task, category in (
            (long_task, DurationCategory.LONG),
            (short_task, DurationCategory.SHORT),
        ):
            leaf = classifier.classify(task, observed_runtime=task.duration)
            assert leaf.duration_category is category

    def test_classify_batch_matches_single(self, classifier, small_trace):
        tasks = list(small_trace.tasks[:200])
        batch = classifier.classify_batch(tasks)
        singles = [classifier.classify(t) for t in tasks]
        assert [b.class_id for b in batch] == [s.class_id for s in singles]

    def test_sibling_symmetry(self, classifier):
        for leaf in classifier.classes:
            sibling = classifier.sibling(leaf)
            if sibling is not None:
                assert classifier.sibling(sibling).class_id == leaf.class_id
                assert sibling.static_index == leaf.static_index

    def test_long_fraction_bounds(self, classifier):
        for static in classifier.static_classes:
            fraction = classifier.long_fraction(static.group, static.index)
            assert 0.0 <= fraction <= 1.0

    def test_unfitted_raises(self):
        classifier = TaskClassifier()
        with pytest.raises(RuntimeError):
            classifier.classify(make_task())

    def test_class_by_id(self, classifier):
        leaf = classifier.classes[0]
        assert classifier.class_by_id(leaf.class_id) is leaf
        with pytest.raises(KeyError):
            classifier.class_by_id(10_000)

    def test_service_rate_and_scv(self, classifier):
        for leaf in classifier.classes:
            assert leaf.service_rate == pytest.approx(1.0 / leaf.duration_mean)
            assert leaf.duration_scv >= 0
