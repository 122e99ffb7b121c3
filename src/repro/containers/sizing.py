"""Statistical-multiplexing container sizing (Section VII-A).

K-means models each task class as a Gaussian cloud, so class-n demand for
resource r is ``N(mu_nr, sigma_nr^2)``.  Given a machine-level violation
bound ``eps``, the joint bound is split into per-resource bounds ``eps_r``
and the container size set to

    c_nr = mu_nr + Z_{eps_r} * sigma_nr                    (Eq. 3)

where ``Z_q`` is the (1-q)-percentile of the unit normal.  Any group of
containers that fits a machine by size then overflows the machine's true
capacity with probability at most ``eps``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from scipy import stats

from repro.classification.classifier import TaskClass
from repro.errors import ContainerSizingError


def _check_moments(mean: float, std: float) -> None:
    """Reject degenerate Gaussian moments before they reach Eq. 3.

    NaN/Inf moments (a poisoned class from a dirty trace) would otherwise
    propagate silently into container sizes; negative ones are caller bugs.
    Both raise :class:`repro.errors.ContainerSizingError` (also a
    ``ValueError``) so the degradation ladder can classify the failure.
    ``std == 0`` is *valid*: Eq. 3 degenerates to mean-sized containers.
    """
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise ContainerSizingError(
            f"non-finite moments: mean={mean}, std={std}", mean=mean, std=std
        )
    if mean < 0 or std < 0:
        raise ContainerSizingError(
            f"mean and std must be >= 0, got mean={mean}, std={std}",
            mean=mean,
            std=std,
        )


@lru_cache(maxsize=64)
def z_quantile(epsilon: float) -> float:
    """The ``(1 - epsilon)``-percentile of the unit normal distribution.

    Memoized: every container of every class is sized at the same few
    bounds, and one ``norm.ppf`` call costs more than the rest of Eq. 3.
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    return float(stats.norm.ppf(1.0 - epsilon))


def per_resource_epsilon(epsilon: float, num_resources: int) -> float:
    """Split a joint violation bound across independent resources.

    Choosing ``eps_r`` with ``(1 - eps) = (1 - eps_r)^D`` makes the joint
    no-violation probability at least ``1 - eps`` when resources violate
    independently; it is also a union-bound-safe choice.
    """
    if num_resources < 1:
        raise ValueError(f"num_resources must be >= 1, got {num_resources}")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    return 1.0 - (1.0 - epsilon) ** (1.0 / num_resources)


def gaussian_container_size(
    mean: float,
    std: float,
    epsilon: float,
    cap: float = 1.0,
    floor: float = 1e-4,
) -> float:
    """Eq. 3: ``c = mu + Z_eps * sigma``, clipped to ``[floor, cap]``."""
    _check_moments(mean, std)
    size = mean + z_quantile(epsilon) * std
    return float(min(max(size, mean, floor), cap))


def multiplexed_container_size(
    mean: float,
    std: float,
    epsilon: float,
    group_size: int,
    cap: float = 1.0,
    floor: float = 1e-4,
) -> float:
    """Eq. 3 with the multiplexing gain actually exploited.

    Inequality (3) only requires the *aggregate* slack on a machine to be
    ``Z * sqrt(sum sigma_i^2)``.  For a group of ``G`` same-class
    containers that is ``Z * sqrt(G) * sigma`` total, i.e. a per-container
    pad of ``Z * sigma / sqrt(G)`` — a factor ``sqrt(G)`` tighter than the
    per-task ``c = mu + Z sigma`` choice, which pads ``Z * G * sigma``.
    Both satisfy (3); this one converges to mean-sized containers as the
    multiplexing group grows, which is what makes dense packing of small
    tasks energy-competitive.
    """
    _check_moments(mean, std)
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    size = mean + z_quantile(epsilon) * std / math.sqrt(group_size)
    return float(min(max(size, mean, floor), cap))


@dataclass(frozen=True)
class ContainerSpec:
    """A sized container type: the provisioning unit for one task class."""

    task_class: TaskClass
    cpu: float
    memory: float

    def __post_init__(self) -> None:
        if not 0 < self.cpu <= 1:
            raise ValueError(f"container cpu must be in (0, 1], got {self.cpu}")
        if not 0 < self.memory <= 1:
            raise ValueError(f"container memory must be in (0, 1], got {self.memory}")

    @property
    def class_id(self) -> int:
        return self.task_class.class_id

    @property
    def demand(self) -> tuple[float, float]:
        return (self.cpu, self.memory)

    @property
    def overhead_ratio(self) -> float:
        """Sized CPU relative to mean demand — the multiplexing headroom."""
        if self.task_class.cpu_mean <= 0:
            return 1.0
        return self.cpu / self.task_class.cpu_mean


#: Reference machine capacity used to estimate the per-machine multiplexing
#: group size (the HP DL385's normalized CPU).
_REFERENCE_CAPACITY = 0.5


def _group_size(mean: float, reference: float = _REFERENCE_CAPACITY) -> int:
    """Expected same-class co-location count on a reference machine."""
    if mean <= 0:
        return 64
    return int(min(max(reference / mean, 1.0), 64.0))


def size_container_for_class(
    task_class: TaskClass,
    epsilon: float = 0.05,
    num_resources: int = 2,
) -> ContainerSpec:
    """Size one class's container by Eq. 3 with the sqrt(G) multiplexing gain."""
    eps_r = per_resource_epsilon(epsilon, num_resources)
    cpu = multiplexed_container_size(
        task_class.cpu_mean, task_class.cpu_std, eps_r,
        group_size=_group_size(task_class.cpu_mean),
    )
    memory = multiplexed_container_size(
        task_class.memory_mean, task_class.memory_std, eps_r,
        group_size=_group_size(task_class.memory_mean),
    )
    cpu = max(cpu, 1e-4)
    memory = max(memory, 1e-4)
    return ContainerSpec(task_class=task_class, cpu=cpu, memory=memory)
