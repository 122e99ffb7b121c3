"""The two-step task classifier (Section V).

Step 1 clusters each priority group's tasks on static features with K-means
(k chosen per group by the elbow rule, as in Section IX-A).  Step 2 runs
K-means with k=2 on log duration inside every static class, producing a
*short* and a *long* sub-class separated by a boundary in seconds.

The resulting leaf :class:`TaskClass` objects carry exactly the statistics
the rest of HARMONY needs:

- per-resource Gaussian moments -> container sizing (Eq. 3);
- mean duration and squared coefficient of variation -> the M/G/N delay
  model (Eq. 1);
- membership counts -> reporting (Figs. 10-18).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.classification.features import static_features
from repro.clustering.kmeans import KMeans
from repro.clustering.selection import select_k_elbow
from repro.trace.schema import PriorityGroup, Task


class DurationCategory(enum.Enum):
    """Short/long sub-class label (step 2)."""

    SHORT = "short"
    LONG = "long"


@dataclass(frozen=True)
class StaticClass:
    """A step-1 cluster: tasks of one priority group with similar size.

    ``centroid_cpu``/``centroid_memory`` are in raw (normalized-machine)
    units; the K-means itself runs in log space.
    """

    group: PriorityGroup
    index: int
    centroid_cpu: float
    centroid_memory: float
    cpu_mean: float
    cpu_std: float
    memory_mean: float
    memory_std: float
    num_tasks: int
    #: Boundary (seconds) between the short and long sub-classes; tasks whose
    #: observed runtime exceeds it get relabeled long.  ``inf`` when the
    #: class has no long sub-class.
    split_seconds: float = float("inf")


@dataclass(frozen=True)
class TaskClass:
    """A leaf class: (priority group, static cluster, short|long).

    This is the unit of provisioning — one container type per leaf class.
    """

    class_id: int
    group: PriorityGroup
    static_index: int
    duration_category: DurationCategory
    cpu_mean: float
    cpu_std: float
    memory_mean: float
    memory_std: float
    duration_mean: float
    duration_std: float
    num_tasks: int

    def __post_init__(self) -> None:
        if self.duration_mean <= 0:
            raise ValueError(f"duration_mean must be positive, got {self.duration_mean}")

    @property
    def service_rate(self) -> float:
        """Task completions per second per container (mu in Eq. 1)."""
        return 1.0 / self.duration_mean

    @property
    def duration_scv(self) -> float:
        """Squared coefficient of variation of duration (CV^2 in Eq. 1)."""
        return (self.duration_std / self.duration_mean) ** 2

    @property
    def name(self) -> str:
        return (
            f"{self.group.name.lower()}-{self.static_index}"
            f"-{self.duration_category.value}"
        )


@dataclass(frozen=True)
class ClassifierConfig:
    """Knobs for :class:`TaskClassifier.fit`.

    ``k_per_group`` pins the step-1 k per priority group; unset groups use
    the elbow rule capped at ``k_max``.
    """

    k_per_group: dict[PriorityGroup, int] = field(default_factory=dict)
    k_max: int = 24
    elbow_threshold: float = 0.015
    seed: int = 0
    #: Minimum members for a sub-class to exist on its own; smaller ones are
    #: merged into their sibling.
    min_subclass_size: int = 5


class TaskClassifier:
    """Fits the two-step characterization and labels tasks at run time."""

    def __init__(self, config: ClassifierConfig | None = None) -> None:
        self.config = config or ClassifierConfig()
        self.static_classes: tuple[StaticClass, ...] = ()
        self.classes: tuple[TaskClass, ...] = ()
        self._group_models: dict[PriorityGroup, KMeans] = {}
        self._leaf_lookup: dict[tuple[PriorityGroup, int, DurationCategory], TaskClass] = {}
        self._fitted = False
        #: Degenerate-input events absorbed during the last fit: K-means
        #: empty-cluster reseeds, distinct-point collapses, and feature rows
        #: dropped for being non-finite.  Surfaced in the simulation
        #: summary's ``resilience.data_plane`` block.
        self.degenerate_events: dict[str, int] = {
            "kmeans_reseeds": 0,
            "collapsed_fits": 0,
            "nonfinite_features_dropped": 0,
        }

    # ------------------------------------------------------------------ fit

    def fit(self, tasks: list[Task]) -> "TaskClassifier":
        """Learn static classes and short/long sub-classes from a task sample."""
        if not tasks:
            raise ValueError("cannot fit a classifier on zero tasks")
        static_classes: list[StaticClass] = []
        leaves: list[TaskClass] = []
        class_id = 0
        self.degenerate_events = {
            "kmeans_reseeds": 0,
            "collapsed_fits": 0,
            "nonfinite_features_dropped": 0,
        }

        tasks_by_group: dict[PriorityGroup, list[Task]] = {
            group: [] for group in PriorityGroup
        }
        for task in tasks:
            tasks_by_group[task.priority_group].append(task)
        for group, group_tasks in tasks_by_group.items():
            if not group_tasks:
                continue
            features = static_features(group_tasks)
            finite_rows = np.isfinite(features).all(axis=1)
            if not finite_rows.all():
                # A poisoned task (dirty trace upstream of the sanitizer)
                # must not NaN every centroid in its group.
                self.degenerate_events["nonfinite_features_dropped"] += int(
                    (~finite_rows).sum()
                )
                group_tasks = [
                    t for t, ok in zip(group_tasks, finite_rows) if ok
                ]
                if not group_tasks:
                    continue
                features = features[finite_rows]
            k = self.config.k_per_group.get(group)
            if k is None:
                k, _ = select_k_elbow(
                    features,
                    k_max=self.config.k_max,
                    improvement_threshold=self.config.elbow_threshold,
                    seed=self.config.seed,
                )
            model = KMeans(k=k, n_init=3, seed=self.config.seed)
            result = model.fit(features)
            self._note_kmeans_result(result)
            self._group_models[group] = model

            members_by_label: list[list[Task]] = [[] for _ in range(result.k)]
            for task, label in zip(group_tasks, result.labels.tolist()):
                members_by_label[label].append(task)
            for j, members in enumerate(members_by_label):
                if not members:
                    continue
                cpu = np.array([t.cpu for t in members])
                mem = np.array([t.memory for t in members])
                durations = np.array([t.duration for t in members])
                split, subclasses = self._split_durations(durations)
                static = StaticClass(
                    group=group,
                    index=j,
                    centroid_cpu=float(10 ** result.centroids[j, 0]),
                    centroid_memory=float(10 ** result.centroids[j, 1]),
                    cpu_mean=float(cpu.mean()),
                    cpu_std=float(cpu.std()),
                    memory_mean=float(mem.mean()),
                    memory_std=float(mem.std()),
                    num_tasks=len(members),
                    split_seconds=split,
                )
                static_classes.append(static)
                for category, mask in subclasses.items():
                    sub_durations = durations[mask]
                    if sub_durations.size == 0:
                        continue
                    leaves.append(
                        TaskClass(
                            class_id=class_id,
                            group=group,
                            static_index=j,
                            duration_category=category,
                            cpu_mean=float(cpu[mask].mean()),
                            cpu_std=float(cpu[mask].std()),
                            memory_mean=float(mem[mask].mean()),
                            memory_std=float(mem[mask].std()),
                            duration_mean=float(sub_durations.mean()),
                            duration_std=float(sub_durations.std()),
                            num_tasks=int(mask.sum()),
                        )
                    )
                    class_id += 1

        self.static_classes = tuple(static_classes)
        self.classes = tuple(leaves)
        self._leaf_lookup = {
            (leaf.group, leaf.static_index, leaf.duration_category): leaf
            for leaf in leaves
        }
        self._fitted = True
        return self

    def _note_kmeans_result(self, result) -> None:
        self.degenerate_events["kmeans_reseeds"] += result.reseeds
        if result.collapsed:
            self.degenerate_events["collapsed_fits"] += 1

    def _split_durations(
        self, durations: np.ndarray
    ) -> tuple[float, dict[DurationCategory, np.ndarray]]:
        """Step 2: k=2 K-means on log duration -> (boundary_s, masks)."""
        n = durations.size
        log_d = np.log10(np.maximum(durations, 1.0))[:, None]
        if n < 2 * self.config.min_subclass_size or np.ptp(log_d) < 1e-9:
            # Too small or degenerate to split: everything is "short".
            return float("inf"), {DurationCategory.SHORT: np.ones(n, dtype=bool)}
        result = KMeans(k=2, n_init=3, seed=self.config.seed).fit(log_d)
        self._note_kmeans_result(result)
        centers = result.centroids.ravel()
        short_label = int(centers.argmin())
        short_mask = result.labels == short_label
        long_mask = ~short_mask
        if (
            short_mask.sum() < self.config.min_subclass_size
            or long_mask.sum() < self.config.min_subclass_size
        ):
            return float("inf"), {DurationCategory.SHORT: np.ones(n, dtype=bool)}
        boundary = 10 ** float(centers.mean())
        return boundary, {
            DurationCategory.SHORT: short_mask,
            DurationCategory.LONG: long_mask,
        }

    # ------------------------------------------------------------ labeling

    def _classify_static_batch(self, tasks: list[Task]) -> list[StaticClass]:
        """Nearest static class per task: one K-means predict per priority
        group instead of one per task."""
        self._require_fitted()
        statics: list[StaticClass | None] = [None] * len(tasks)
        by_group: dict[PriorityGroup, list[int]] = {}
        for position, task in enumerate(tasks):
            by_group.setdefault(task.priority_group, []).append(position)
        for group, positions in by_group.items():
            model = self._group_models.get(group)
            if model is None:
                raise KeyError(f"no static classes fitted for group {group.name}")
            features = static_features([tasks[p] for p in positions])
            static_by_index = {
                s.index: s for s in self.static_classes if s.group is group
            }
            for position, static_label in zip(positions, model.predict(features)):
                statics[position] = static_by_index[int(static_label)]
        return [static for static in statics if static is not None]

    def classify_static(self, task: Task) -> StaticClass:
        """Nearest static class for a task (features known at submit time)."""
        return self._classify_static_batch([task])[0]

    def classify(self, task: Task, observed_runtime: float = 0.0) -> TaskClass:
        """Leaf class for a task given its observed running time so far.

        With ``observed_runtime=0`` (a task that just arrived) this returns
        the *short* sub-class, implementing the paper's optimistic initial
        labeling; once the observed runtime crosses the class boundary the
        same call returns the *long* sub-class.
        """
        return self.classify_batch([task], observed_runtime)[0]

    def classify_batch(self, tasks: list[Task], observed_runtime: float = 0.0
                       ) -> list[TaskClass]:
        """:meth:`classify` over many tasks — the one labeling path."""
        labels: list[TaskClass] = []
        for static in self._classify_static_batch(tasks):
            category = (
                DurationCategory.LONG
                if observed_runtime > static.split_seconds
                else DurationCategory.SHORT
            )
            leaf = self._leaf_lookup.get((static.group, static.index, category))
            if leaf is None:
                # Class was not split (or a sub-class was merged): fall back
                # to whichever sub-class exists.
                fallback = (
                    DurationCategory.SHORT
                    if category is DurationCategory.LONG
                    else DurationCategory.LONG
                )
                leaf = self._leaf_lookup.get((static.group, static.index, fallback))
            if leaf is None:
                raise KeyError(
                    f"no leaf class for static class {static.group}/{static.index}"
                )
            labels.append(leaf)
        return labels

    def sibling(self, leaf: TaskClass) -> TaskClass | None:
        """The other duration sub-class of the same static class, if any."""
        other = (
            DurationCategory.LONG
            if leaf.duration_category is DurationCategory.SHORT
            else DurationCategory.SHORT
        )
        return self._leaf_lookup.get((leaf.group, leaf.static_index, other))

    def long_fraction(self, group: PriorityGroup, static_index: int) -> float:
        """Historical fraction of a static class's tasks that are long.

        Used to split observed arrival counts between the short and long
        sub-classes for forecasting: at arrival time every task is labeled
        short, but historically ``long_fraction`` of them turn out long.
        """
        short = self._leaf_lookup.get((group, static_index, DurationCategory.SHORT))
        long = self._leaf_lookup.get((group, static_index, DurationCategory.LONG))
        if long is None:
            return 0.0
        if short is None:
            return 1.0
        total = short.num_tasks + long.num_tasks
        return long.num_tasks / total if total else 0.0

    def split_boundary(self, group: PriorityGroup, static_index: int) -> float:
        """Short/long runtime boundary (seconds) for a static class."""
        for static in self.static_classes:
            if static.group is group and static.index == static_index:
                return static.split_seconds
        raise KeyError(f"no static class ({group.name}, {static_index})")

    def class_by_id(self, class_id: int) -> TaskClass:
        self._require_fitted()
        for leaf in self.classes:
            if leaf.class_id == class_id:
                return leaf
        raise KeyError(f"no task class with id {class_id}")

    def classes_in_group(self, group: PriorityGroup) -> tuple[TaskClass, ...]:
        self._require_fitted()
        return tuple(c for c in self.classes if c.group is group)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("TaskClassifier used before fit()")

    # ------------------------------------------------------------ reporting

    def summary(self) -> list[dict]:
        """One row per leaf class (Figs. 10-18 data)."""
        self._require_fitted()
        return [
            {
                "class_id": leaf.class_id,
                "name": leaf.name,
                "group": leaf.group.name.lower(),
                "duration_category": leaf.duration_category.value,
                "num_tasks": leaf.num_tasks,
                "cpu_mean": leaf.cpu_mean,
                "cpu_std": leaf.cpu_std,
                "memory_mean": leaf.memory_mean,
                "memory_std": leaf.memory_std,
                "duration_mean_s": leaf.duration_mean,
                "duration_scv": leaf.duration_scv,
            }
            for leaf in self.classes
        ]
