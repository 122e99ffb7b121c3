"""Frozen oracle for ``tests/test_controller_kernels.py``.

Algorithm 1's per-tick kernels as they stood before they stopped
recomputing what they already knew, copied statement for statement:

- the Erlang-B recurrence restarted at ``k = 1`` for every probe, and the
  Eq. 1 inversion (low check, doubling search, bisection, Halfin-Whitt
  walk) on top of it;
- ``first_fit_pack`` filling one machine at a time with numpy 2-vectors;
- the CBS-RELAX LP built entry by entry in Python loops, its solution
  unpacked element by element.

``repro.queueing.mgn``, ``repro.provisioning.rounding`` and
``repro.provisioning.relax`` must reproduce every bit of what this module
computes: container counts, quotas and every simulation and serve digest
hang off these numbers.  Do not "improve" it.  Nothing here is cached, so
the package's memo caches cannot hide a difference.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, sparse

from repro.errors import CapacityModelUnstable, SolverInfeasible
from repro.provisioning.model import ProvisioningProblem
from repro.provisioning.relax import RelaxSolution
from repro.provisioning.rounding import MachineAssignment

# ------------------------------------------------------------------ M/G/N


def erlang_b(offered_load: float, servers: int) -> float:
    if not (offered_load >= 0):
        raise ValueError(f"offered_load must be >= 0, got {offered_load}")
    if servers < 0:
        raise ValueError(f"servers must be >= 0, got {servers}")
    blocking = 1.0
    for k in range(1, servers + 1):
        blocking = offered_load * blocking / (k + offered_load * blocking)
    return blocking


def erlang_c(offered_load: float, servers: int) -> float:
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    if offered_load < 0:
        raise ValueError(f"offered_load must be >= 0, got {offered_load}")
    if offered_load == 0:
        return 0.0
    if offered_load >= servers:
        return 1.0
    if servers > offered_load + 12.0 * math.sqrt(offered_load) + 50.0:
        return 0.0
    blocking = erlang_b(offered_load, servers)
    rho = offered_load / servers
    return blocking / (1.0 - rho + rho * blocking)


def mgn_mean_wait(arrival_rate, service_rate, servers, scv=1.0) -> float:
    if arrival_rate < 0:
        raise ValueError(f"arrival_rate must be >= 0, got {arrival_rate}")
    if service_rate <= 0:
        raise ValueError(f"service_rate must be positive, got {service_rate}")
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    if scv < 0:
        raise ValueError(f"scv must be >= 0, got {scv}")
    if arrival_rate == 0:
        return 0.0
    offered = arrival_rate / service_rate
    rho = offered / servers
    if rho >= 1.0:
        return math.inf
    pi = erlang_c(offered, servers)
    mmn_wait = pi / (servers * service_rate * (1.0 - rho))
    return mmn_wait * (1.0 + scv) / 2.0


def _halfin_whitt_wait_probability(beta: float) -> float:
    if beta <= 0:
        return 1.0
    phi = math.exp(-beta * beta / 2.0) / math.sqrt(2.0 * math.pi)
    big_phi = 0.5 * (1.0 + math.erf(beta / math.sqrt(2.0)))
    return 1.0 / (1.0 + beta * big_phi / phi)


def _unstable(arrival_rate, service_rate, target_delay, max_servers):
    return CapacityModelUnstable(
        f"no container count up to {max_servers} meets delay "
        f"{target_delay} (lambda={arrival_rate}, mu={service_rate})",
        arrival_rate=arrival_rate,
        service_rate=service_rate,
        target_delay=target_delay,
        max_servers=max_servers,
    )


def required_containers(
    arrival_rate: float,
    service_rate: float,
    target_delay: float,
    scv: float = 1.0,
    max_servers: int = 10_000_000,
) -> int:
    if target_delay <= 0:
        raise ValueError(f"target_delay must be positive, got {target_delay}")
    if arrival_rate < 0:
        raise ValueError(f"arrival_rate must be >= 0, got {arrival_rate}")
    if service_rate <= 0:
        raise ValueError(f"service_rate must be positive, got {service_rate}")
    if arrival_rate == 0:
        return 0
    offered = arrival_rate / service_rate
    low = int(math.floor(offered)) + 1
    if low > max_servers:
        raise CapacityModelUnstable(
            f"offered load {offered:.0f} exceeds max_servers {max_servers}",
            arrival_rate=arrival_rate,
            service_rate=service_rate,
            target_delay=target_delay,
            max_servers=max_servers,
        )
    if mgn_mean_wait(arrival_rate, service_rate, low, scv) <= target_delay:
        return low

    if offered > 2000.0:
        sqrt_a = math.sqrt(offered)
        candidate = None
        for i in range(81):
            beta = 0.005 * (1.3 ** i)
            n = int(math.ceil(offered + beta * sqrt_a))
            slack = n * service_rate - arrival_rate
            if slack <= 0:
                continue
            wait = (
                _halfin_whitt_wait_probability(beta) * (1.0 + scv) / (2.0 * slack)
            )
            if wait <= target_delay * 0.95:
                candidate = max(n, low)
                break
        if candidate is None or candidate > max_servers:
            raise _unstable(arrival_rate, service_rate, target_delay, max_servers)
        step = max(int(0.05 * sqrt_a), 1)
        while (
            candidate - step >= low
            and mgn_mean_wait(arrival_rate, service_rate, candidate - step, scv)
            <= target_delay
        ):
            candidate -= step
        while mgn_mean_wait(arrival_rate, service_rate, candidate, scv) > target_delay:
            candidate += 1
            if candidate > max_servers:
                raise _unstable(arrival_rate, service_rate, target_delay, max_servers)
        while (
            candidate - 1 >= low
            and mgn_mean_wait(arrival_rate, service_rate, candidate - 1, scv)
            <= target_delay
        ):
            candidate -= 1
        return candidate

    high = low
    while mgn_mean_wait(arrival_rate, service_rate, high, scv) > target_delay:
        high *= 2
        if high > max_servers:
            raise _unstable(arrival_rate, service_rate, target_delay, max_servers)
    while low + 1 < high:
        mid = (low + high) // 2
        if mgn_mean_wait(arrival_rate, service_rate, mid, scv) <= target_delay:
            high = mid
        else:
            low = mid
    return high


# --------------------------------------------------------------- First-Fit


def first_fit_pack(
    counts: np.ndarray,
    sizes: list[tuple[float, ...]],
    capacity: tuple[float, ...],
    max_machines: int,
    platform_id: int = 0,
    priorities: np.ndarray | None = None,
) -> tuple[list[MachineAssignment], np.ndarray]:
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
    capacity_arr = np.asarray(capacity, dtype=float)

    while counts.sum() > 0 and len(machines) < max_machines:
        machine = MachineAssignment(
            platform_id=platform_id,
            capacity=tuple(capacity),
            used=np.zeros(len(capacity)),
            machine_id=len(machines),
        )
        placed_any = False
        for n in order:
            if counts[n] == 0:
                continue
            size = np.asarray(sizes[n], dtype=float)
            residual = capacity_arr - machine.used
            with np.errstate(divide="ignore"):
                per_dim = np.floor((residual + 1e-9) / size)
            fit = int(min(per_dim.min(), counts[n]))
            if fit > 0:
                machine.add(n, tuple(sizes[n]), fit)
                counts[n] -= fit
                placed_any = True
        if not placed_any:
            break
        machines.append(machine)

    return machines, counts


# ---------------------------------------------------------------- CBS-RELAX


def idle_cost_per_interval(problem: ProvisioningProblem, price: float) -> np.ndarray:
    hours = problem.interval_seconds / 3600.0
    return np.array([m.idle_watts / 1000.0 * hours * price for m in problem.machines])


def container_energy_cost(problem: ProvisioningProblem, price: float) -> np.ndarray:
    hours = problem.interval_seconds / 3600.0
    cost = np.zeros((len(problem.machines), len(problem.containers)))
    for i, machine in enumerate(problem.machines):
        for j, container in enumerate(problem.containers):
            watts = sum(
                alpha * size / cap
                for alpha, size, cap in zip(
                    machine.alpha_watts, container.size, machine.capacity
                )
            )
            cost[i, j] = watts / 1000.0 * hours * price
    return cost


def feasible_committed(problem, committed, compatible):
    if committed is None:
        return None
    committed = np.maximum(np.asarray(committed, dtype=float), 0.0)
    M, N = len(problem.machines), len(problem.containers)
    if committed.shape != (M, N):
        raise ValueError(f"committed must be (M={M}, N={N}), got {committed.shape}")
    omega = problem.omega()
    floor = committed.copy()
    floor[~compatible] = 0.0
    for m, machine in enumerate(problem.machines):
        for r in range(problem.num_resources):
            footprint = sum(
                omega[n] * problem.containers[n].size[r] * floor[m, n]
                for n in range(N)
            )
            budget = machine.available * machine.capacity[r]
            if footprint > budget and footprint > 0:
                floor[m] *= budget / footprint
    return floor


class _Layout:
    def __init__(self, problem: ProvisioningProblem) -> None:
        W = problem.horizon
        M = len(problem.machines)
        N = len(problem.containers)
        self.W, self.M, self.N = W, M, N
        self.num_z = W * M
        self.num_x = W * M * N
        self.num_s = W * M
        self.segment_counts = [len(c.utility.segments) for c in problem.containers]
        self.seg_offsets = np.concatenate([[0], np.cumsum(self.segment_counts)])
        self.num_u_per_t = int(self.seg_offsets[-1])
        self.num_u = W * self.num_u_per_t
        self.total = self.num_z + self.num_x + 2 * self.num_s + self.num_u

    def z(self, t, m):
        return t * self.M + m

    def x(self, t, m, n):
        return self.num_z + (t * self.M + m) * self.N + n

    def sp(self, t, m):
        return self.num_z + self.num_x + t * self.M + m

    def sm(self, t, m):
        return self.num_z + self.num_x + self.num_s + t * self.M + m

    def u(self, t, n, s):
        return (
            self.num_z + self.num_x + 2 * self.num_s + t * self.num_u_per_t
            + int(self.seg_offsets[n]) + s
        )


def build_lp(problem, initial_active=None, committed=None) -> dict:
    """The LP exactly as the loop-built solver handed it to ``linprog``."""
    lay = _Layout(problem)
    W, M, N = lay.W, lay.M, lay.N
    demand = np.asarray(problem.demand, dtype=float)
    prices = np.asarray(problem.prices, dtype=float)
    omega = problem.omega()
    compatible = problem.compatibility()
    if initial_active is None:
        initial_active = np.zeros(M)
    initial_active = np.asarray(initial_active, dtype=float)
    total = lay.total

    cost = np.zeros(total)
    for t in range(W):
        idle_cost = idle_cost_per_interval(problem, float(prices[t]))
        run_cost = container_energy_cost(problem, float(prices[t]))
        for m in range(M):
            cost[lay.z(t, m)] = idle_cost[m]
            cost[lay.sp(t, m)] = problem.machines[m].switch_cost
            cost[lay.sm(t, m)] = problem.machines[m].switch_cost
            for n in range(N):
                cost[lay.x(t, m, n)] = run_cost[m, n]
        for n, container in enumerate(problem.containers):
            for s, (_, slope) in enumerate(container.utility.segments):
                cost[lay.u(t, n, s)] = -slope

    lower = np.zeros(total)
    upper = np.full(total, np.inf)
    committed_floor = feasible_committed(problem, committed, compatible)
    for t in range(W):
        for m, machine in enumerate(problem.machines):
            upper[lay.z(t, m)] = machine.available
            for n in range(N):
                if not compatible[m, n]:
                    upper[lay.x(t, m, n)] = 0.0
                elif t == 0 and committed_floor is not None:
                    lower[lay.x(t, m, n)] = committed_floor[m, n]
        for n, container in enumerate(problem.containers):
            for s, (width, _) in enumerate(container.utility.segments):
                upper[lay.u(t, n, s)] = min(width, float(demand[t, n]))

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    b_ub: list[float] = []
    row = 0
    R = problem.num_resources
    for t in range(W):
        for m, machine in enumerate(problem.machines):
            for r in range(R):
                for n, container in enumerate(problem.containers):
                    if not compatible[m, n]:
                        continue
                    rows.append(row)
                    cols.append(lay.x(t, m, n))
                    vals.append(omega[n] * container.size[r])
                rows.append(row)
                cols.append(lay.z(t, m))
                vals.append(-machine.capacity[r])
                b_ub.append(0.0)
                row += 1
    for t in range(W):
        for n in range(N):
            for s in range(lay.segment_counts[n]):
                rows.append(row)
                cols.append(lay.u(t, n, s))
                vals.append(1.0)
            for m in range(M):
                if compatible[m, n]:
                    rows.append(row)
                    cols.append(lay.x(t, m, n))
                    vals.append(-1.0)
            b_ub.append(0.0)
            row += 1
    A_ub = sparse.coo_matrix((vals, (rows, cols)), shape=(row, total)).tocsr()

    eq_rows: list[int] = []
    eq_cols: list[int] = []
    eq_vals: list[float] = []
    b_eq: list[float] = []
    eq_row = 0
    for t in range(W):
        for m in range(M):
            eq_rows.append(eq_row)
            eq_cols.append(lay.z(t, m))
            eq_vals.append(1.0)
            if t > 0:
                eq_rows.append(eq_row)
                eq_cols.append(lay.z(t - 1, m))
                eq_vals.append(-1.0)
                b_eq.append(0.0)
            else:
                b_eq.append(float(initial_active[m]))
            eq_rows.append(eq_row)
            eq_cols.append(lay.sp(t, m))
            eq_vals.append(-1.0)
            eq_rows.append(eq_row)
            eq_cols.append(lay.sm(t, m))
            eq_vals.append(1.0)
            eq_row += 1
    A_eq = sparse.coo_matrix((eq_vals, (eq_rows, eq_cols)), shape=(eq_row, total)).tocsr()

    return {
        "cost": cost,
        "A_ub": A_ub,
        "b_ub": np.asarray(b_ub),
        "A_eq": A_eq,
        "b_eq": np.asarray(b_eq),
        "bounds": np.column_stack([lower, upper]),
    }


def solve(problem, initial_active=None, committed=None) -> RelaxSolution:
    """The loop-built solver end to end: build, ``linprog``, unpack."""
    lay = _Layout(problem)
    W, M, N = lay.W, lay.M, lay.N
    prices = np.asarray(problem.prices, dtype=float)
    lp = build_lp(problem, initial_active, committed)
    result = optimize.linprog(
        lp["cost"],
        A_ub=lp["A_ub"],
        b_ub=lp["b_ub"],
        A_eq=lp["A_eq"],
        b_eq=lp["b_eq"],
        bounds=lp["bounds"],
        method="highs",
    )
    if not result.success:
        raise SolverInfeasible(
            f"CBS-RELAX LP failed: {result.message}",
            status=int(result.status),
            horizon=W,
            machines=M,
            containers=N,
        )
    v = result.x
    z = np.array([[v[lay.z(t, m)] for m in range(M)] for t in range(W)])
    x = np.array(
        [[[v[lay.x(t, m, n)] for n in range(N)] for m in range(M)] for t in range(W)]
    )
    sp = np.array([[v[lay.sp(t, m)] for m in range(M)] for t in range(W)])
    sm = np.array([[v[lay.sm(t, m)] for m in range(M)] for t in range(W)])

    utility = 0.0
    energy = 0.0
    switching = 0.0
    for t in range(W):
        for n, container in enumerate(problem.containers):
            for s, (_, slope) in enumerate(container.utility.segments):
                utility += slope * v[lay.u(t, n, s)]
        idle_cost = idle_cost_per_interval(problem, float(prices[t]))
        run_cost = container_energy_cost(problem, float(prices[t]))
        energy += float(idle_cost @ z[t]) + float((run_cost * x[t]).sum())
        switching += sum(
            problem.machines[m].switch_cost * (sp[t, m] + sm[t, m]) for m in range(M)
        )

    return RelaxSolution(
        z=z,
        x=x,
        switch_up=sp,
        switch_down=sm,
        objective=-float(result.fun),
        utility=utility,
        energy_cost=energy,
        switching_cost=switching,
        status="optimal",
    )
