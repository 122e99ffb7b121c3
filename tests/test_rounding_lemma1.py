"""Randomized Lemma 1 check: First-Fit always places the guaranteed share.

Lemma 1: given a fractional CBS-RELAX solution assigning ``x*_{m,n}``
containers and ``z*_m`` machines to type m, first-fit packing places at
least ``floor(x*_{m,n} / (2|R|))`` containers of *every* type n into
``floor(z*_m) + 1`` machines.  This test fuzzes the guarantee over random
fleets, container mixes and demand levels — every machine class of every
instance must pack its scaled counts with nothing left over — and checks
how far the practical rounder beats the bound.
"""

import numpy as np
import pytest

from repro.provisioning import (
    CbsRelaxSolver,
    ContainerType,
    FirstFitRounder,
    MachineClass,
    ProvisioningProblem,
    UtilityFunction,
    first_fit_pack,
)

NUM_TRIALS = 12


def fuzzed_problem(rng):
    """A random instance: 2-3 machine classes, 2-6 container types."""
    num_machines = int(rng.integers(2, 4))
    machines = tuple(
        MachineClass(
            platform_id=m + 1,
            name=f"m{m}",
            capacity=(
                float(rng.uniform(0.2, 1.0)),
                float(rng.uniform(0.2, 1.0)),
            ),
            available=int(rng.integers(3, 25)),
            idle_watts=float(rng.uniform(50, 250)),
            alpha_watts=(float(rng.uniform(20, 150)), float(rng.uniform(5, 50))),
            switch_cost=0.0,
        )
        for m in range(num_machines)
    )
    num_containers = int(rng.integers(2, 7))
    containers = tuple(
        ContainerType(
            class_id=n,
            name=f"c{n}",
            # Sizes up to half the smallest capacity dimension, so every
            # type fits *some* machine (Lemma 1 presumes feasible x*).
            size=(float(rng.uniform(0.01, 0.4)), float(rng.uniform(0.01, 0.4))),
            utility=UtilityFunction.capped_linear(float(rng.uniform(0.01, 0.1)), 1000),
        )
        for n in range(num_containers)
    )
    demand = rng.uniform(0.5, 50, size=(1, num_containers))
    return ProvisioningProblem(
        machines=machines,
        containers=containers,
        demand=demand,
        prices=np.array([0.1]),
        interval_seconds=300.0,
    )


@pytest.mark.parametrize("trial", range(NUM_TRIALS))
def test_lemma1_guarantee_on_fuzzed_instances(trial):
    rng = np.random.default_rng(9000 + trial)
    problem = fuzzed_problem(rng)
    solution = CbsRelaxSolver().solve(problem)
    rounder = FirstFitRounder()
    scaled = rounder.lemma1_scaled_counts(problem, solution)

    for m, machine in enumerate(problem.machines):
        budget = int(np.floor(solution.z[0, m])) + 1
        machines_used, leftover = first_fit_pack(
            scaled[m],
            [c.size for c in problem.containers],
            machine.capacity,
            max_machines=budget,
        )
        assert leftover.sum() == 0, (
            f"trial {trial}, machine class {m}: Lemma 1 violated — "
            f"{leftover.sum()} of {scaled[m].sum()} scaled containers left "
            f"over in floor(z*)+1 = {budget} machines (z* = {solution.z[0, m]:.3f})"
        )
        assert len(machines_used) <= budget
        # Packed machines never exceed capacity in any dimension.
        for packed in machines_used:
            assert (packed.used <= np.asarray(machine.capacity) + 1e-9).all()


def test_scaled_counts_are_the_lemma_fraction():
    """lemma1_scaled_counts really is floor(x* / (2|R|)) elementwise."""
    rng = np.random.default_rng(77)
    problem = fuzzed_problem(rng)
    solution = CbsRelaxSolver().solve(problem)
    scaled = FirstFitRounder().lemma1_scaled_counts(problem, solution)
    two_r = 2 * problem.num_resources  # |R| = resource dimensions (CPU, mem)
    expected = np.floor(solution.x[0] / two_r).astype(int)
    assert (scaled == expected).all()


def test_practical_rounder_beats_lemma_bound_on_average():
    """The FFD rounder places far more than the worst-case 1/(2|R|)."""
    rng = np.random.default_rng(424242)
    rounder = FirstFitRounder()
    solver = CbsRelaxSolver()
    ratios = []
    for _ in range(6):
        problem = fuzzed_problem(rng)
        solution = solver.solve(problem)
        plan = rounder.round(problem, solution)
        ratios.append(plan.placement_ratio(solution.scheduled(0)))
    assert float(np.mean(ratios)) > 0.7
