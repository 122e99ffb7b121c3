"""Tests for the paper's extension points.

Section III: "it is straightforward to extend our approach to consider
additional resource types" — the CBS model is dimension-generic.
Placement constraints (Section III-B's hard-to-schedule tasks) flow through
the LP's compatibility mask.
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
)


class TestThreeResourceCbs:
    """CPU, memory and disk as a 3-dimensional CBS instance."""

    def _problem(self):
        machines = (
            MachineClass(1, "disky", (0.5, 0.5, 1.0), 10, 100.0, (50.0, 20.0, 10.0), 0.0),
            MachineClass(2, "compute", (1.0, 1.0, 0.1), 10, 200.0, (150.0, 40.0, 5.0), 0.0),
        )
        containers = (
            ContainerType(0, "io", (0.1, 0.1, 0.5), UtilityFunction.capped_linear(0.1, 100)),
            ContainerType(1, "cpu", (0.5, 0.3, 0.02), UtilityFunction.capped_linear(0.1, 100)),
        )
        return ProvisioningProblem(
            machines=machines,
            containers=containers,
            demand=np.array([[8.0, 6.0]]),
            prices=np.array([0.1]),
            interval_seconds=300.0,
        )

    def test_solves_and_respects_every_dimension(self):
        problem = self._problem()
        assert problem.num_resources == 3
        solution = CbsRelaxSolver().solve(problem)
        for m, machine in enumerate(problem.machines):
            for r in range(3):
                used = sum(
                    problem.containers[n].size[r] * solution.x[0, m, n]
                    for n in range(2)
                )
                assert used <= machine.capacity[r] * solution.z[0, m] + 1e-6

    def test_disk_bound_container_prefers_disky_machine(self):
        problem = self._problem()
        solution = CbsRelaxSolver().solve(problem)
        # The io container (0.5 disk) can only meaningfully pack on the
        # disky machine: the compute machine fits 0.1/0.5 of one per... no,
        # 0.5 > 0.1 disk capacity, so it cannot host it at all.
        assert solution.x[0, 1, 0] == pytest.approx(0.0, abs=1e-9)
        assert solution.x[0, 0, 0] > 0

    def test_rounding_in_three_dimensions(self):
        problem = self._problem()
        solution = CbsRelaxSolver().solve(problem)
        plan = FirstFitRounder().round(problem, solution)
        for m in range(2):
            for assignment in plan.assignments[m]:
                assert (assignment.used <= np.asarray(assignment.capacity) + 1e-9).all()

    def test_lemma1_scale_uses_dimension_count(self):
        problem = self._problem()
        solution = CbsRelaxSolver().solve(problem)
        scaled = FirstFitRounder().lemma1_scaled_counts(problem, solution)
        # 2|R| = 6 for three resources.
        assert (scaled <= np.floor(solution.x[0] / 6) + 1e-9).all()


class TestPlatformConstrainedContainers:
    def test_constrained_container_only_on_allowed_platform(self):
        machines = (
            MachineClass(1, "a", (1.0, 1.0), 10, 100.0, (50.0, 20.0), 0.0),
            MachineClass(2, "b", (1.0, 1.0), 10, 100.0, (50.0, 20.0), 0.0),
        )
        containers = (
            ContainerType(
                0, "pinned", (0.2, 0.2), UtilityFunction.capped_linear(0.1, 100),
                allowed_platforms=frozenset({2}),
            ),
        )
        problem = ProvisioningProblem(
            machines, containers, np.array([[10.0]]), np.array([0.1]), 300.0
        )
        solution = CbsRelaxSolver().solve(problem)
        assert solution.x[0, 0, 0] == pytest.approx(0.0, abs=1e-9)
        assert solution.x[0, 1, 0] == pytest.approx(10.0, abs=1e-6)

    def test_unsatisfiable_constraint_schedules_nothing(self):
        machines = (MachineClass(1, "a", (1.0, 1.0), 10, 100.0, (50.0, 20.0), 0.0),)
        containers = (
            ContainerType(
                0, "pinned", (0.2, 0.2), UtilityFunction.capped_linear(0.1, 100),
                allowed_platforms=frozenset({9}),
            ),
        )
        problem = ProvisioningProblem(
            machines, containers, np.array([[10.0]]), np.array([0.1]), 300.0
        )
        solution = CbsRelaxSolver().solve(problem)
        assert solution.scheduled(0)[0] == pytest.approx(0.0, abs=1e-9)
