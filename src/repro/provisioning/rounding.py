"""Rounding the fractional CBS-RELAX solution (Lemma 1, Algorithm 1).

Lemma 1: given a fractional solution with ``z*`` type-m machines and
``x*_n`` type-n containers, greedy first-fit places at least
``x*_n / (2|R|)`` containers of every type into ``z* + 1`` machines.

The practical rounder implemented here packs the *full* rounded counts
first-fit-decreasing into ``floor(z*) + 1`` machines (capped at
availability); whatever does not fit is reported as dropped, and
``tests/test_rounding_lemma1.py`` verifies the Lemma 1 fraction always fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.provisioning.model import ProvisioningProblem
from repro.provisioning.relax import RelaxSolution


@dataclass
class MachineAssignment:
    """Containers packed onto one physical machine."""

    platform_id: int
    capacity: tuple[float, ...]
    containers: dict[int, int] = field(default_factory=dict)
    used: np.ndarray = field(default_factory=lambda: np.zeros(2))
    #: Identifier within the plan (index assigned by the packer/planner).
    machine_id: int = -1

    def residual(self) -> np.ndarray:
        return np.asarray(self.capacity) - self.used

    def fits(self, size: tuple[float, ...]) -> bool:
        residual = self.residual()
        return all(s <= r + 1e-9 for s, r in zip(size, residual))

    def add(self, container_index: int, size: tuple[float, ...], count: int = 1) -> None:
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self.containers[container_index] = self.containers.get(container_index, 0) + count
        self.used = self.used + np.asarray(size) * count


def first_fit_pack(
    counts: np.ndarray,
    sizes: list[tuple[float, ...]],
    capacity: tuple[float, ...],
    max_machines: int,
    platform_id: int = 0,
    priorities: np.ndarray | None = None,
) -> tuple[list[MachineAssignment], np.ndarray]:
    """First-fit-decreasing packing of identical-per-type containers.

    Machines are filled sequentially; for each machine, container types are
    visited in decreasing (priority, max-dimension) order and as many
    instances as fit are placed.  When machines run out, low-priority types
    are the ones left over — so under saturation the rounder sheds gratis
    before production, matching the LP's utility ordering.  Returns the
    per-machine assignments and the leftover counts that did not fit within
    ``max_machines``.

    Every machine of the pool is identical, so an empty machine's fill
    repeats until some type it takes runs short: the fill is computed once
    and emitted for the whole run of machines it covers.
    """
    counts = np.asarray(counts, dtype=int).copy()
    if counts.shape != (len(sizes),):
        raise ValueError(f"counts must align with sizes, got {counts.shape}")
    if (counts < 0).any():
        raise ValueError("counts must be non-negative")
    if max_machines < 0:
        raise ValueError(f"max_machines must be >= 0, got {max_machines}")
    if priorities is None:
        order = sorted(range(len(sizes)), key=lambda n: -max(sizes[n]))
    else:
        priorities = np.asarray(priorities, dtype=float)
        order = sorted(range(len(sizes)), key=lambda n: (-priorities[n], -max(sizes[n])))
    machines: list[MachineAssignment] = []
    remaining = counts.tolist()
    capacity_floats = [float(c) for c in capacity]

    while sum(remaining) > 0 and len(machines) < max_machines:
        fill, used = _empty_machine_fill(remaining, order, sizes, capacity_floats)
        if not fill:
            # Nothing fits an empty machine: the remaining types exceed
            # machine capacity outright; stop to avoid spinning.
            break
        # The same fill repeats while every type it takes still has a full
        # share left, and as long as the budget lasts.
        run = min(remaining[n] // fit for n, fit in fill.items())
        run = min(run, max_machines - len(machines))
        for _ in range(run):
            machines.append(
                MachineAssignment(
                    platform_id=platform_id,
                    capacity=tuple(capacity),
                    containers=dict(fill),
                    used=np.array(used),
                    machine_id=len(machines),
                )
            )
        for n, fit in fill.items():
            remaining[n] -= run * fit

    counts[:] = remaining
    return machines, counts


def _empty_machine_fill(
    remaining: list[int],
    order: list[int],
    sizes: list[tuple[float, ...]],
    capacity: list[float],
) -> tuple[dict[int, int], list[float]]:
    """First-Fit onto one empty machine: ``({type: count}, used per dim)``.

    Scalar floats in the operations and order of a numpy 2-vector fill:
    ``floor((capacity - used + 1e-9) / size)`` per dimension, a zero size
    dimension divided as numpy divides, and a minimum over dimensions that
    propagates nan, as ``ndarray.min`` does.
    """
    used = [0.0] * len(capacity)
    fill: dict[int, int] = {}
    for n in order:
        count = remaining[n]
        if count == 0:
            continue
        fits = math.inf
        for cap, load, size in zip(capacity, used, sizes[n]):
            residual = cap - load + 1e-9
            if size:
                per_dim = residual / size
            else:  # numpy's x / 0: +-inf, or nan for 0 / 0
                with np.errstate(divide="ignore"):
                    per_dim = float(np.float64(residual) / size)
            if math.isnan(per_dim) or per_dim < fits:
                fits = per_dim
        if math.isfinite(fits):
            fits = math.floor(fits)
        fit = int(min(fits, count))
        if fit > 0:
            fill[n] = fit
            used = [load + float(size) * fit for load, size in zip(used, sizes[n])]
    return fill, used


def _largest_remainder_targets(x: np.ndarray) -> np.ndarray:
    """Integer targets preserving per-container-type column sums.

    Naive per-cell ``rint`` zeroes out a class whose fractional assignment
    is split thinly across machine types (e.g. 0.4 + 0.4 rounds to 0 + 0),
    starving small-population classes.  Largest-remainder rounding keeps
    each column's total at ``ceil(sum_m x[m, n])``.
    """
    x = np.maximum(np.asarray(x, dtype=float), 0.0)
    base = np.floor(x).astype(int)
    result = base.copy()
    for n in range(x.shape[1]):
        total = int(math.ceil(x[:, n].sum() - 1e-9))
        deficit = total - int(base[:, n].sum())
        if deficit <= 0:
            continue
        remainders = x[:, n] - base[:, n]
        order = np.argsort(-remainders)
        for m in order[:deficit]:
            result[m, n] += 1
    return result


@dataclass(frozen=True)
class RoundedPlan:
    """Integer realization of one control step.

    Attributes
    ----------
    active:
        ``(M,)`` integer machines to power on per class.
    packed:
        ``(M, N)`` containers actually placed per (machine class, container
        type).
    dropped:
        ``(N,)`` containers the rounder could not place.
    assignments:
        Per machine class, the per-machine container maps (container *index*
        within the problem, not class id).
    """

    active: np.ndarray
    packed: np.ndarray
    dropped: np.ndarray
    assignments: tuple[tuple[MachineAssignment, ...], ...]

    def total_packed(self) -> np.ndarray:
        """(N,) containers placed across all machine classes."""
        return self.packed.sum(axis=0)

    def placement_ratio(self, target: np.ndarray) -> float:
        """Fraction of requested containers actually placed."""
        requested = float(np.asarray(target).sum())
        if requested == 0:
            return 1.0
        return float(self.total_packed().sum()) / requested


class FirstFitRounder:
    """Rounds a fractional CBS-RELAX step to an integer machine plan.

    The machine budget per type is ``ceil(z*)``.  For fractional z* this
    equals Lemma 1's ``floor(z*) + 1``; at integer z* the lemma's extra
    machine is only needed when the packing drops containers, and at small
    fleet scales a flat +1 per type is a measurable energy tax.
    """

    def round(
        self,
        problem: ProvisioningProblem,
        solution: RelaxSolution,
        t: int = 0,
    ) -> RoundedPlan:
        """Round horizon step ``t`` of a solved relaxation."""
        M = len(problem.machines)
        N = len(problem.containers)
        if not 0 <= t < solution.horizon:
            raise ValueError(f"step {t} outside horizon {solution.horizon}")
        # Packing uses TRUE container sizes: omega (Eq. 17) lives only in
        # the LP's capacity constraint, giving z headroom that exists
        # precisely to absorb the first-fit slack realized here.  Scaling
        # the packed sizes by omega as well would double-apply it.
        sizes = [c.size for c in problem.containers]
        # Marginal utility per container: the shedding order under scarcity.
        utility_priority = np.array(
            [c.utility.segments[0][1] for c in problem.containers]
        )

        active = np.zeros(M, dtype=int)
        packed = np.zeros((M, N), dtype=int)
        dropped = np.zeros(N, dtype=int)
        assignments: list[tuple[MachineAssignment, ...]] = []
        targets = _largest_remainder_targets(solution.x[t])

        for m, machine in enumerate(problem.machines):
            z_frac = float(solution.z[t, m])
            budget = min(int(math.ceil(z_frac - 1e-9)), machine.available)
            target = targets[m]
            machines_used, leftover = first_fit_pack(
                target,
                sizes,
                machine.capacity,
                max_machines=budget,
                platform_id=machine.platform_id,
                priorities=utility_priority,
            )
            active[m] = len(machines_used)
            packed[m] = target - leftover
            dropped += leftover
            assignments.append(tuple(machines_used))

        return RoundedPlan(
            active=active,
            packed=packed,
            dropped=dropped,
            assignments=tuple(assignments),
        )

    def lemma1_scaled_counts(
        self, problem: ProvisioningProblem, solution: RelaxSolution, t: int = 0
    ) -> np.ndarray:
        """The ``x / (2|R|)`` per-(m, n) counts Lemma 1 guarantees placeable."""
        scale = 2 * problem.num_resources
        return np.floor(solution.x[t] / scale).astype(int)
