"""Differential tests: Algorithm 1's per-tick kernels against their frozen
references.

Three kernels stopped recomputing what they already knew:

- the Eq. 1 inversion reads every probe from one certified Erlang-B curve
  started at ``floor(a) + 1``, instead of restarting the recurrence at
  ``k = 1`` for every probe, and runs the exact chain only for a probe
  within the curve's proven error margin of the target;
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
import random
from array import array
from decimal import Decimal, localcontext

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
    """The return value, or the raise as (type, message); a
    :class:`CapacityModelUnstable` is also a ``ValueError``."""
    try:
        return fn(*args)
    except ValueError as exc:
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


@pytest.mark.parametrize("scv", [-0.5, -2.0])
def test_negative_scv_raises_as_the_reference_does(scv):
    """The certified wait reads no check of ``scv``; the reference's first
    probe raises on it, after the ``max_servers`` check and never at zero
    arrivals."""
    for load in (0.0, 0.4, 57.5, 3100.0):
        for max_servers in (10_000_000, 2):
            mgn.clear_queueing_caches()
            expected = _outcome(
                reference.required_containers, load, 1.0, 0.01, scv, max_servers
            )
            got = _outcome(mgn.required_containers, load, 1.0, 0.01, scv, max_servers)
            assert got == expected, (load, max_servers)


def test_erlang_formulas_match_reference_outside_an_inversion():
    rng = np.random.default_rng(3)
    for load in rng.uniform(0.0, 600.0, 40).tolist() + [0.0]:
        for servers in (0, 1, 2, 17, 250, 900):
            mgn.clear_queueing_caches()
            assert mgn.erlang_b(load, servers) == reference.erlang_b(load, servers)
            if servers:
                assert mgn.erlang_c(load, servers) == reference.erlang_c(load, servers)


@pytest.mark.parametrize("load", [0.5, 3.4, 131.0, 3540.4, 14078.4])
def test_erlang_b_prefix_is_the_textbook_curve(load):
    """Every entry of the prefix, grown at once or probe by probe, is the
    float the textbook recurrence returns, up to ``erlang_c``'s cut-off."""
    servers = int(load + 12.0 * math.sqrt(load) + 50.0)
    textbook = [1.0]
    blocking = 1.0
    for k in range(1, servers + 1):
        blocking = load * blocking / (k + load * blocking)
        textbook.append(blocking)
    whole = array("d", (1.0,))
    assert mgn._erlang_b_prefix(whole, load, servers) == textbook[-1]
    assert np.array_equal(whole, textbook)
    grown = array("d", (1.0,))
    for probe in range(0, servers + 1, max(1, servers // 7)):
        assert mgn._erlang_b_prefix(grown, load, probe) == textbook[probe]
    mgn._erlang_b_prefix(grown, load, servers)
    assert np.array_equal(grown, textbook)


class _TextbookCurve:
    """``reference.erlang_b`` with the textbook curve of the last load kept.

    The reference restarts the recurrence for every probe, which at 10**5
    Erlangs costs seconds per inversion.  This evaluates the reference's
    own line, ``a * B / (k + a * B)`` with an int ``k``, in the same order
    from ``B(a, 0) = 1``, so every float is the one the reference computes;
    it only stops recomputing the prefix while the load stays the same.
    """

    def __init__(self, monkeypatch) -> None:
        self.load: float | None = None
        self.curve = [1.0]
        monkeypatch.setattr(reference, "erlang_b", self)

    def __call__(self, offered_load: float, servers: int) -> float:
        if offered_load != self.load:
            self.load, self.curve = offered_load, [1.0]
        curve = self.curve
        blocking = curve[-1]
        for k in range(len(curve), servers + 1):
            blocking = offered_load * blocking / (k + offered_load * blocking)
            curve.append(blocking)
        return curve[servers]


def _random_inversion(rng: random.Random) -> tuple[float, float, float, float]:
    """(lambda, mu, target, CV^2): load log-uniform in [0.5, 2e5] Erlangs,
    target log-uniform in [1e-4, 10] mean service times."""
    load = math.exp(rng.uniform(math.log(0.5), math.log(2e5)))
    service_rate = 10.0 ** rng.uniform(-3.0, 0.0)
    target = 10.0 ** rng.uniform(-4.0, 1.0) / service_rate
    scv = rng.choice([0.0, 0.25, 1.0, 2.0, 4.0, 9.0])
    return load * service_rate, service_rate, target, scv


@pytest.mark.parametrize("seed", range(5))
def test_required_containers_matches_reference_on_random_draws(seed, monkeypatch):
    """1,000 draws per seed, each also at ``max_servers`` one below and at
    what the target needs (a ``CapacityModelUnstable``, then the count)."""
    _TextbookCurve(monkeypatch)
    rng = random.Random(4700 + seed)
    for _ in range(1000):
        args = _random_inversion(rng)
        mgn.clear_queueing_caches()
        expected = _outcome(reference.required_containers, *args)
        assert _outcome(mgn.required_containers, *args) == expected, args
        if isinstance(expected, int):
            for max_servers in (expected - 1, expected):
                mgn.clear_queueing_caches()
                want = _outcome(reference.required_containers, *args, max_servers)
                got = _outcome(mgn.required_containers, *args, max_servers)
                assert got == want, (args, max_servers)


def test_required_containers_matches_reference_at_ties(monkeypatch):
    """Targets equal to the exact wait at the answer N and to the doubles
    either side of it: the certified curve cannot tell these apart from
    the target, so each falls back to the exact chain, and the integer is
    the reference's."""
    _TextbookCurve(monkeypatch)
    rng = random.Random(4711)
    fallbacks = 0
    for _ in range(300):
        load = math.exp(rng.uniform(math.log(64.0), math.log(5e4)))
        scv = rng.choice([0.0, 1.0, 4.0])
        answer = reference.required_containers(load, 1.0, 10.0 ** rng.uniform(-3, 0), scv)
        tie = reference.mgn_mean_wait(load, 1.0, answer, scv)
        for target in (tie, math.nextafter(tie, 0.0), math.nextafter(tie, math.inf)):
            mgn.clear_queueing_caches()
            expected = _outcome(reference.required_containers, load, 1.0, target, scv)
            got = _outcome(mgn.required_containers, load, 1.0, target, scv)
            assert got == expected, (load, scv, target)
            fallbacks += mgn.queueing_cache_info()["erlang_b"]["misses"]
    assert fallbacks > 0


@pytest.mark.parametrize("load", [0.5, 3.4, 131.0, 3540.4, 14078.4, 5e4, 1e5, 2e5])
def test_certified_start_is_within_its_bound(load):
    """The direct sum's ``B(a, floor(a) + 1)`` against a 50-digit sum of
    every term, within the ``(3J + 2) u`` of ``_erlang_b_direct`` (``J`` at
    most ``floor(a) + 2``)."""
    first = int(math.floor(load)) + 1
    with localcontext() as ctx:
        ctx.prec = 50
        a = Decimal(load)
        total = term = Decimal(1)
        for i in range(first):
            term = term * (first - i) / a
            total += term
            if term < total * Decimal("1e-45"):
                break
        exact = 1 / total
    got = mgn._erlang_b_direct(load, first)
    error = abs(Decimal(got) / exact - 1)
    assert error <= Decimal((3 * (first + 1) + 2) * 2.0**-53), (load, error)


@pytest.mark.parametrize("load", [0.5, 3.4, 131.0, 3540.4, 14078.4, 1e5])
def test_certified_curve_tracks_the_exact_chain(load):
    """From ``floor(a) + 1`` to ``erlang_c``'s cut-off, every entry of the
    certified curve is within the margin proof's ``(6N + 15) u`` of the
    exact chain's float, and the margin covers that at least 100 times."""
    first = int(math.floor(load)) + 1
    top = int(load + 12.0 * math.sqrt(load) + 50.0)
    exact = array("d", (1.0,))
    mgn._erlang_b_prefix(exact, load, top)
    curve = array("d", (mgn._erlang_b_direct(load, first),))
    mgn._erlang_b_prefix(curve, load, top, first)
    assert len(curve) == top - first + 1
    for servers in range(first, top + 1):
        bound = (6 * servers + 15) * 2.0**-53
        assert abs(math.log(curve[servers - first] / exact[servers])) <= bound
    assert 100 * (6 * mgn._CERTIFIED_MAX_SERVERS + 15) * 2.0**-53 <= mgn._MARGIN


def test_cache_counters_count_fallback_probes_only():
    """The ``erlang_b`` memo sees only the probes that fell back to the
    exact chain: none for ordinary targets, at least one at a tie; the
    inverse memo still counts one miss per distinct inversion."""
    for load, delay, scv in [(0.4, 0.01, 1.0), (57.5, 0.02, 4.0), (3100.0, 1e-3, 0.0)]:
        mgn.clear_queueing_caches()
        answer = mgn.required_containers(load, 1.0, delay, scv)
        mgn.required_containers(load, 1.0, delay, scv)
        info = mgn.queueing_cache_info()
        assert info["erlang_b"]["hits"] == info["erlang_b"]["misses"] == 0
        assert info["required_containers"]["misses"] == 1
        assert info["required_containers"]["hits"] == 1
        tie = reference.mgn_mean_wait(load, 1.0, answer, scv)
        mgn.clear_queueing_caches()
        assert mgn.required_containers(load, 1.0, tie, scv) == answer
        assert mgn.queueing_cache_info()["erlang_b"]["misses"] >= 1


def test_the_erlang_prefix_lives_for_one_inversion():
    """Both curves, the certified one and the exact prefix a fallback
    grows, are gone after a return, a tie's fallback and a raise."""
    mgn.clear_queueing_caches()
    mgn.required_containers(2500.0, 1.0, 1e-3, 1.0)
    tie = mgn.mgn_mean_wait(2500.0, 1.0, mgn.required_containers(2500.0, 1.0, 1e-3), 1.0)
    mgn.required_containers(2500.0, 1.0, tie, 1.0)
    assert mgn.queueing_cache_info()["erlang_b"]["misses"] >= 1
    with pytest.raises(CapacityModelUnstable):
        mgn.required_containers(50.0, 1.0, 1e-6, 1.0, max_servers=52)
    assert mgn._open_curves.by_load == {}
    assert mgn._open_curves.certified == {}


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
