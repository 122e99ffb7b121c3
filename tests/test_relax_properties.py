"""Property-based tests on the CBS-RELAX optimizer.

Hypothesis generates random problem instances; the LP optimum must always
satisfy the model's invariants regardless of the draw.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.provisioning import (
    CbsRelaxSolver,
    ContainerType,
    FirstFitRounder,
    MachineClass,
    ProvisioningProblem,
    UtilityFunction,
)


def _problem(seed: int, num_machines: int, num_containers: int, W: int):
    rng = np.random.default_rng(seed)
    machines = tuple(
        MachineClass(
            platform_id=m + 1,
            name=f"m{m}",
            capacity=(float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.2, 1.0))),
            available=int(rng.integers(1, 20)),
            idle_watts=float(rng.uniform(50, 300)),
            alpha_watts=(float(rng.uniform(10, 200)), float(rng.uniform(5, 60))),
            switch_cost=float(rng.uniform(0.0, 0.2)),
        )
        for m in range(num_machines)
    )
    containers = tuple(
        ContainerType(
            class_id=n,
            name=f"c{n}",
            size=(float(rng.uniform(0.02, 0.8)), float(rng.uniform(0.02, 0.8))),
            utility=UtilityFunction.capped_linear(
                float(rng.uniform(0.001, 0.2)), float(rng.uniform(1, 200))
            ),
        )
        for n in range(num_containers)
    )
    demand = rng.uniform(0, 30, size=(W, num_containers))
    prices = rng.uniform(0.01, 0.5, size=W)
    return ProvisioningProblem(
        machines=machines,
        containers=containers,
        demand=demand,
        prices=prices,
        interval_seconds=300.0,
    )


@st.composite
def problems(draw):
    return _problem(
        draw(st.integers(0, 10_000)),
        draw(st.integers(1, 3)),
        draw(st.integers(1, 4)),
        draw(st.integers(1, 3)),
    )


@settings(max_examples=25, deadline=None)
@given(problem=problems())
def test_lp_invariants(problem):
    solution = CbsRelaxSolver().solve(problem)
    W = problem.horizon
    M = len(problem.machines)
    N = len(problem.containers)
    compat = problem.compatibility()

    for t in range(W):
        for m, machine in enumerate(problem.machines):
            # availability (15)
            assert solution.z[t, m] <= machine.available + 1e-6
            assert solution.z[t, m] >= -1e-9
            # capacity (16)
            for r in range(problem.num_resources):
                used = sum(
                    problem.containers[n].size[r] * solution.x[t, m, n]
                    for n in range(N)
                )
                assert used <= machine.capacity[r] * solution.z[t, m] + 1e-5
            # compatibility
            for n in range(N):
                if not compat[m, n]:
                    assert solution.x[t, m, n] <= 1e-9
        # scheduled never exceeds saturation by construction of utility caps
        for n, container in enumerate(problem.containers):
            assert solution.x[t, :, n].sum() >= -1e-9

    # switching consistency: z[t] - z[t-1] == up - down
    previous = np.zeros(M)
    for t in range(W):
        delta = solution.z[t] - previous
        assert np.allclose(
            delta, solution.switch_up[t] - solution.switch_down[t], atol=1e-5
        )
        previous = solution.z[t]

    # objective decomposition
    assert solution.objective == pytest.approx(
        solution.utility - solution.energy_cost - solution.switching_cost, abs=1e-4
    )


@settings(max_examples=15, deadline=None)
@given(problem=problems())
def test_rounding_invariants(problem):
    solution = CbsRelaxSolver().solve(problem)
    plan = FirstFitRounder().round(problem, solution)
    for m, machine in enumerate(problem.machines):
        assert plan.active[m] <= machine.available
        for assignment in plan.assignments[m]:
            assert (assignment.used <= np.asarray(machine.capacity) + 1e-9).all()
    # packed + dropped == integer targets (conservation)
    assert (plan.packed.sum(axis=0) + plan.dropped >= 0).all()


def _boosted(problem: ProvisioningProblem, factor: float) -> ProvisioningProblem:
    """The same problem with every utility slope scaled by ``factor``."""
    return ProvisioningProblem(
        machines=problem.machines,
        containers=tuple(
            ContainerType(
                c.class_id,
                c.name,
                c.size,
                UtilityFunction(
                    segments=tuple((w, s * factor) for w, s in c.utility.segments)
                ),
                c.allowed_platforms,
            )
            for c in problem.containers
        ),
        demand=problem.demand,
        prices=problem.prices,
        interval_seconds=problem.interval_seconds,
    )


#: HiGHS's default primal and dual feasibility tolerance: how far from the
#: exact optimum either solve may land.
_LP_TOLERANCE = 1e-7

#: A draw of ``problems()`` where the boosted LP schedules fewer containers:
#: the LP trades classes against each other once their utility outweighs
#: their energy cost.
_FEWER_CONTAINERS = _problem(601, 2, 4, 1)


@example(problem=_FEWER_CONTAINERS, seed=0)
@settings(max_examples=10, deadline=None)
@given(problem=problems(), seed=st.integers(0, 100))
def test_more_utility_never_hurts_scheduling(problem, seed):
    """Scaling every utility slope x10 never lowers the utility scheduled.

    Utility is measured with the base slopes.  With ``U`` that utility and
    ``C`` the energy and switching cost, optimality of ``x`` for the base
    problem and of ``x'`` for the boosted one give
    ``U(x) - C(x) >= U(x') - C(x')`` and ``10 U(x') - C(x') >= 10 U(x) - C(x)``;
    their sum is ``9 U(x') >= 9 U(x)``.  The container count is not
    monotone (see ``_FEWER_CONTAINERS``).
    """
    solver = CbsRelaxSolver()
    base = solver.solve(problem)
    more = solver.solve(_boosted(problem, 10.0))
    base_slope_utility = more.utility / 10.0
    slack = _LP_TOLERANCE * (1.0 + abs(base.utility))
    assert base_slope_utility >= base.utility - slack


def test_more_utility_can_schedule_fewer_containers():
    """Why the property above is about utility, not container counts."""
    solver = CbsRelaxSolver()
    base = solver.solve(_FEWER_CONTAINERS)
    more = solver.solve(_boosted(_FEWER_CONTAINERS, 10.0))
    assert more.scheduled(0).sum() < base.scheduled(0).sum() - 0.1
    assert more.utility / 10.0 > base.utility
