"""Differential tests: Algorithm 1's per-tick kernels against their frozen
references.

Three kernels stopped recomputing what they already knew:

- the Eq. 1 inversion runs the Erlang-B recurrence once per offered load,
  as a prefix every probe reads, instead of restarting it at ``k = 1`` for
  every probe;
- ``first_fit_pack`` computes one empty machine's fill and emits it for
  the whole run of identical machines it covers;
- CBS-RELAX is assembled from arrays instead of entry by entry.

``tests/reference_controller.py`` is the code they replaced.  The two must
agree to the last bit (``==`` / ``np.array_equal``, never a tolerance):
container counts, quotas and every simulation and serve digest hang off
these numbers.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import CapacityModelUnstable
from repro.provisioning import (
    CbsRelaxSolver,
    ContainerType,
    FirstFitRounder,
    MachineClass,
    ProvisioningProblem,
    UtilityFunction,
    first_fit_pack,
)
from repro.provisioning.relax import build_lp, feasible_committed
from repro.queueing import mgn
from tests import reference_controller as reference

# ------------------------------------------------------------------ M/G/N

#: Offered loads: below one Erlang, at and one ulp either side of integers
#: (where ``low = floor(a) + 1`` moves), moderate, and above the 2000-Erlang
#: switch to the Halfin-Whitt walk.
_LOADS = (
    [0.003, 0.2, 0.97]
    + [
        float(k) + d
        for k in (1, 2, 7, 40, 399)
        for d in (0.0, 0.5)
    ]
    + [math.nextafter(7.0, 0.0), math.nextafter(7.0, 8.0), 2000.0]
    + [123.456, 1999.5, 2000.5, 2731.25, 6100.0]
)
#: (service rate, target delay): tight and loose against a 1 / mu mean.
_DELAYS = [(1.0, 1e-4), (1.0, 0.05), (0.01, 30.0), (0.01, 5_000.0)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CapacityModelUnstable as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize("scv", [0.0, 1.0, 4.0])
@pytest.mark.parametrize("service_rate,delay", _DELAYS)
def test_required_containers_matches_reference(scv, service_rate, delay):
    for load in _LOADS:
        arrival = load * service_rate
        mgn.clear_queueing_caches()
        expected = _outcome(
            reference.required_containers, arrival, service_rate, delay, scv
        )
        got = _outcome(mgn.required_containers, arrival, service_rate, delay, scv)
        assert got == expected, (load, scv, service_rate, delay)


@pytest.mark.parametrize("load", [5.5, 40.0, 2731.25])
def test_unstable_raise_matches_reference(load):
    """A ``max_servers`` at, below and just above what the target needs."""
    needed = reference.required_containers(load, 1.0, 1e-3, 1.0)
    for max_servers in (int(load) - 1, int(load) + 1, needed - 1, needed):
        mgn.clear_queueing_caches()
        expected = _outcome(
            reference.required_containers, load, 1.0, 1e-3, 1.0, max_servers
        )
        got = _outcome(mgn.required_containers, load, 1.0, 1e-3, 1.0, max_servers)
        assert got == expected, max_servers


def test_erlang_formulas_match_reference_outside_an_inversion():
    rng = np.random.default_rng(3)
    for load in rng.uniform(0.0, 600.0, 40).tolist() + [0.0]:
        for servers in (0, 1, 2, 17, 250, 900):
            mgn.clear_queueing_caches()
            assert mgn.erlang_b(load, servers) == reference.erlang_b(load, servers)
            if servers:
                assert mgn.erlang_c(load, servers) == reference.erlang_c(load, servers)


class _ProbeCounter:
    """Counts the reference inversion's Erlang-B probes, repeats included."""

    def __init__(self, monkeypatch) -> None:
        self.calls: list[tuple[float, int]] = []
        inner = reference.erlang_b

        def counted(offered_load, servers):
            self.calls.append((offered_load, servers))
            return inner(offered_load, servers)

        monkeypatch.setattr(reference, "erlang_b", counted)


def test_cache_counters_follow_the_reference_probe_pattern(monkeypatch):
    """One probe, one ``_erlang_b_cached`` call: hits and misses unchanged."""
    probes = _ProbeCounter(monkeypatch)
    for load, delay, scv in [(0.4, 0.01, 1.0), (57.5, 0.02, 4.0), (3100.0, 1e-3, 0.0)]:
        mgn.clear_queueing_caches()
        probes.calls.clear()
        reference.required_containers(load, 1.0, delay, scv)
        mgn.required_containers(load, 1.0, delay, scv)
        info = mgn.queueing_cache_info()["erlang_b"]
        assert info["misses"] == len(set(probes.calls))
        assert info["hits"] == len(probes.calls) - len(set(probes.calls))


def test_the_erlang_prefix_lives_for_one_inversion():
    mgn.clear_queueing_caches()
    mgn.required_containers(2500.0, 1.0, 1e-3, 1.0)
    with pytest.raises(CapacityModelUnstable):
        mgn.required_containers(50.0, 1.0, 1e-6, 1.0, max_servers=52)
    assert mgn._open_curves.by_load == {}


# --------------------------------------------------------------- First-Fit


def _random_packing(rng: np.random.Generator):
    num_types = int(rng.integers(1, 7))
    capacity = tuple(float(c) for c in rng.choice([0.5, 0.75, 1.0], size=2))
    grid = [0.0, 0.03125, 0.05, 0.1, 1 / 3, 0.25, 0.5, 0.8, 1.25]
    sizes = []
    for _ in range(num_types):
        size = [float(s) for s in rng.choice(grid, size=2)]
        if size == [0.0, 0.0]:
            size[0] = 0.1
        sizes.append(tuple(size))
    counts = rng.integers(0, 80, size=num_types)
    counts[rng.random(num_types) < 0.2] = 0
    budget = int(rng.integers(0, 60))
    priorities = rng.uniform(0.0, 1.0, num_types) if rng.random() < 0.6 else None
    return counts, sizes, capacity, budget, priorities


def _assert_same_packing(got, expected):
    machines, leftover = got
    ref_machines, ref_leftover = expected
    assert np.array_equal(leftover, ref_leftover)
    assert leftover.dtype == ref_leftover.dtype
    assert len(machines) == len(ref_machines)
    for machine, ref in zip(machines, ref_machines):
        assert list(machine.containers.items()) == list(ref.containers.items())
        assert np.array_equal(machine.used, ref.used)
        assert machine.used.dtype == ref.used.dtype
        assert machine.machine_id == ref.machine_id
        assert machine.capacity == ref.capacity
        assert machine.platform_id == ref.platform_id


@pytest.mark.parametrize("seed", range(6))
def test_first_fit_pack_matches_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(150):
        counts, sizes, capacity, budget, priorities = _random_packing(rng)
        args = (counts, sizes, capacity, budget, 4, priorities)
        _assert_same_packing(first_fit_pack(*args), reference.first_fit_pack(*args))


@pytest.mark.parametrize(
    "counts,sizes,budget",
    [
        # A zero size dimension: that dimension never limits the fill.
        ([30, 12], [(0.25, 0.0), (0.0, 0.125)], 50),
        # The budget runs out in the middle of a run of identical machines.
        ([100, 3], [(0.25, 0.25), (0.5, 0.1)], 7),
        # One type is larger than the machine: it is never placed.
        ([5, 9], [(1.5, 0.1), (0.3, 0.3)], 20),
        # Capped by counts on the last machine of a run: the fill changes.
        ([10, 10, 10], [(0.3, 0.2), (0.2, 0.3), (0.05, 0.05)], 40),
        # Nothing fits: no machine is used.
        ([4], [(2.0, 2.0)], 10),
        # A zero budget.
        ([4], [(0.1, 0.1)], 0),
    ],
)
def test_first_fit_pack_edge_cases(counts, sizes, budget):
    args = (np.array(counts), sizes, (1.0, 1.0), budget, 2, None)
    _assert_same_packing(first_fit_pack(*args), reference.first_fit_pack(*args))


@pytest.mark.parametrize(
    "capacity,sizes,error",
    [
        # 0 / 0 in the second dimension: numpy's min propagates the nan.
        ((1.0, -1e-9), [(0.1, 0.0)], ValueError),
        # The first type overfills by less than the 1e-9 slack, so the next
        # type's zero dimension divides a negative residual: -inf.
        ((1.0, 1.0), [(1.000000001, 0.5), (0.0, 0.1)], OverflowError),
    ],
)
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_first_fit_pack_degenerate_dimensions(capacity, sizes, error):
    args = (np.full(len(sizes), 3), sizes, capacity, 5, 0, np.arange(len(sizes))[::-1])
    with pytest.raises(error):
        reference.first_fit_pack(*args)
    with pytest.raises(error):
        first_fit_pack(*args)


# ---------------------------------------------------------------- CBS-RELAX


def _random_problem(rng: np.random.Generator) -> ProvisioningProblem:
    M, N, W = (int(v) for v in rng.integers(1, [5, 9, 4], endpoint=True))
    machines = tuple(
        MachineClass(
            platform_id=m,
            name=f"m{m}",
            capacity=(float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.3, 1.0))),
            available=int(rng.integers(0, 25)),
            idle_watts=float(rng.uniform(50, 300)),
            alpha_watts=(float(rng.uniform(0, 200)), float(rng.uniform(0, 60))),
            switch_cost=float(rng.uniform(0.0, 0.05)),
        )
        for m in range(M)
    )
    containers = []
    for n in range(N):
        slopes = sorted(rng.uniform(0.0, 0.1, int(rng.integers(1, 4))), reverse=True)
        segments = tuple((float(rng.uniform(0.5, 30)), float(s)) for s in slopes)
        allowed = None
        if rng.random() < 0.3:
            allowed = frozenset(
                int(m) for m in rng.choice(M, size=max(1, M // 2), replace=False)
            )
        containers.append(
            ContainerType(
                class_id=n,
                name=f"c{n}",
                # Up to 1.1: some containers fit no machine of some class.
                size=(float(rng.uniform(0.01, 1.1)), float(rng.uniform(0.01, 0.7))),
                utility=UtilityFunction(segments),
                allowed_platforms=allowed,
            )
        )
    demand = rng.uniform(0, 30, size=(W, N))
    demand[rng.random((W, N)) < 0.2] = 0.0
    overprovision = rng.uniform(1.0, 1.5, N) if rng.random() < 0.5 else None
    return ProvisioningProblem(
        machines=machines,
        containers=tuple(containers),
        demand=demand,
        prices=rng.uniform(0.0, 0.3, size=W),
        interval_seconds=300.0,
        overprovision=overprovision,
    )


def _inputs(rng, problem):
    M, N = len(problem.machines), len(problem.containers)
    initial = rng.integers(0, 6, M).astype(float) if rng.random() < 0.5 else None
    committed = rng.uniform(-1.0, 60.0, (M, N)) if rng.random() < 0.6 else None
    return initial, committed


def _same_array(got: np.ndarray, expected: np.ndarray) -> bool:
    return got.dtype == expected.dtype and np.array_equal(got, expected)


@pytest.mark.parametrize("seed", range(4))
def test_lp_matches_reference(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(25):
        problem = _random_problem(rng)
        initial, committed = _inputs(rng, problem)
        expected = reference.build_lp(problem, initial, committed)
        compatible = problem.compatibility()
        floor = feasible_committed(problem, committed, compatible)
        ref_floor = reference.feasible_committed(problem, committed, compatible)
        assert (floor is None) == (ref_floor is None)
        if floor is not None:
            assert _same_array(floor, ref_floor)
        lp = build_lp(problem, initial, committed)
        for name in ("cost", "b_ub", "b_eq", "bounds"):
            assert _same_array(getattr(lp, name), expected[name]), name
        for name in ("A_ub", "A_eq"):
            got, ref = getattr(lp, name), expected[name]
            assert got.shape == ref.shape
            for part in ("data", "indices", "indptr"):
                assert _same_array(getattr(got, part), getattr(ref, part)), (name, part)


@pytest.mark.parametrize("seed", range(3))
def test_relax_solution_matches_reference(seed):
    rng = np.random.default_rng(200 + seed)
    for _ in range(15):
        problem = _random_problem(rng)
        initial, committed = _inputs(rng, problem)
        got = CbsRelaxSolver().solve(problem, initial, committed)
        expected = reference.solve(problem, initial, committed)
        for name in ("z", "x", "switch_up", "switch_down"):
            assert _same_array(getattr(got, name), getattr(expected, name)), name
        for name in ("objective", "utility", "energy_cost", "switching_cost"):
            value, ref = getattr(got, name), getattr(expected, name)
            assert value == ref and type(value) is type(ref), name
        assert got.status == expected.status


def test_energy_costs_match_reference():
    rng = np.random.default_rng(7)
    for _ in range(20):
        problem = _random_problem(rng)
        for price in (0.0, 0.07, float(rng.uniform(0, 1))):
            assert _same_array(
                problem.container_energy_cost(price),
                reference.container_energy_cost(problem, price),
            )
            assert _same_array(
                problem.idle_cost_per_interval(price),
                reference.idle_cost_per_interval(problem, price),
            )


@pytest.mark.parametrize("seed", range(2))
def test_rounded_plan_counts_every_assignment(seed):
    """``packed`` is what the per-machine assignments add up to."""
    rng = np.random.default_rng(300 + seed)
    for _ in range(10):
        problem = _random_problem(rng)
        plan = FirstFitRounder().round(problem, CbsRelaxSolver().solve(problem))
        for m, machines in enumerate(plan.assignments):
            for n in range(len(problem.containers)):
                placed = sum(a.containers.get(n, 0) for a in machines)
                assert plan.packed[m, n] == placed
