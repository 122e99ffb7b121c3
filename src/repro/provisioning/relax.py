"""CBS-RELAX (Eq. 14-16) as a linear program.

The relaxation keeps container counts at the (machine type x container type)
aggregate level — ``x^{mn}_t`` containers of type n on type-m machines and
``z^m_t`` active type-m machines — which collapses the per-machine integer
program into a small LP:

    max  sum_t [ sum_n f_n(sum_m x^{mn}_t)
                 - p_t sum_m ( z^m_t E_idle,m
                               + sum_r sum_n alpha_mr c_nr / C_mr x^{mn}_t ) ]
         - sum_t sum_m q_m |delta^m_t|

    s.t. z^m_t <= N^m_t                                   (15)
         sum_n omega_n c_nr x^{mn}_t <= z^m_t C_mr        (16)/(17)
         x, z >= 0

Piecewise-linear concave ``f_n`` enters through per-segment auxiliary
variables; ``|delta|`` through a positive/negative split.  scipy's HiGHS
solves instances of this size (W<=8, M~4-10, N~10-40) in milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.errors import SolverInfeasible
from repro.provisioning.model import ProvisioningProblem


@dataclass(frozen=True)
class RelaxSolution:
    """Fractional CBS-RELAX optimum.

    All arrays span the full MPC horizon; Algorithm 1 only *realizes* step 0
    and re-solves next period (receding horizon).
    """

    #: (W, M) fractional active machines per class.
    z: np.ndarray
    #: (W, M, N) fractional container assignment.
    x: np.ndarray
    #: (W, M) machines switched on / off relative to the previous step.
    switch_up: np.ndarray
    switch_down: np.ndarray
    objective: float
    utility: float
    energy_cost: float
    switching_cost: float
    status: str

    @property
    def horizon(self) -> int:
        return self.z.shape[0]

    def scheduled(self, t: int = 0) -> np.ndarray:
        """(N,) total containers of each type scheduled at horizon step t."""
        return self.x[t].sum(axis=0)

    def active_machines(self, t: int = 0) -> np.ndarray:
        """(M,) fractional active machines at horizon step t."""
        return self.z[t]


def feasible_committed(
    problem: ProvisioningProblem,
    committed: np.ndarray | None,
    compatible: np.ndarray,
) -> np.ndarray | None:
    """Clip committed stocks so the forced lower bounds stay feasible.

    Stocks are physically placed, but they were placed at *task* sizes
    while the LP reasons in *container* sizes; a pathological mix could
    demand more capacity than ``available``.  Scale each machine type's
    stock down uniformly if its container-size footprint exceeds the
    type's total capacity.
    """
    if committed is None:
        return None
    committed = np.maximum(np.asarray(committed, dtype=float), 0.0)
    M, N = len(problem.machines), len(problem.containers)
    if committed.shape != (M, N):
        raise ValueError(f"committed must be (M={M}, N={N}), got {committed.shape}")
    omega = problem.omega()
    sizes = np.array([c.size for c in problem.containers], dtype=float)
    available = np.array([m.available for m in problem.machines])
    capacity = np.array([m.capacity for m in problem.machines], dtype=float)
    floor = committed.copy()
    floor[~compatible] = 0.0
    # Resource by resource, since each scaling changes the next
    # footprint; a cumulative sum is the left-to-right sum over n.
    for r in range(problem.num_resources):
        footprint = np.cumsum((omega * sizes[:, r]) * floor, axis=1)[:, -1]
        budget = available * capacity[:, r]
        over = (footprint > budget) & (footprint > 0)
        floor[over] *= (budget[over] / footprint[over])[:, None]
    return floor


@dataclass(frozen=True)
class LinearProgram:
    """CBS-RELAX in ``linprog`` form, with its variable layout.

    Variables are ``z[t,m], x[t,m,n], sp[t,m], sm[t,m], u[t,n,s]``,
    flattened in that order; ``u`` holds one entry per utility segment.
    """

    cost: np.ndarray
    A_ub: sparse.csr_matrix
    b_ub: np.ndarray
    A_eq: sparse.csr_matrix
    b_eq: np.ndarray
    #: ``(total, 2)`` lower / upper bound per variable.
    bounds: np.ndarray
    shape: tuple[int, int, int]
    #: Utility slope per segment, containers in order (one horizon step).
    slopes: np.ndarray

    def unpack(self, v: np.ndarray) -> tuple[np.ndarray, ...]:
        """``(z, x, sp, sm, u)`` views of a solution vector, shaped."""
        W, M, N = self.shape
        ends = np.cumsum([W * M, W * M * N, W * M, W * M])
        z, x, sp, sm, u = np.split(v, ends)
        return (
            z.reshape(W, M),
            x.reshape(W, M, N),
            sp.reshape(W, M),
            sm.reshape(W, M),
            u.reshape(W, len(self.slopes)),
        )


def _coo(slots: np.ndarray, rows, cols, vals) -> tuple[np.ndarray, ...]:
    """COO entries of the ``True`` slots, in C order of the slot grid."""
    return (
        np.broadcast_to(rows, slots.shape)[slots],
        np.broadcast_to(cols, slots.shape)[slots],
        np.broadcast_to(vals, slots.shape)[slots],
    )


def build_lp(
    problem: ProvisioningProblem,
    initial_active: np.ndarray | None = None,
    committed: np.ndarray | None = None,
) -> LinearProgram:
    """Assemble CBS-RELAX from arrays (see :meth:`CbsRelaxSolver.solve`).

    Each constraint family is a grid of candidate entries (a row's
    coefficients in the order a row-by-row build appends them) and a mask
    of the ones that exist, so ``A_ub`` and ``A_eq`` get their COO entries
    in the same order as an entry-by-entry loop and the CSR conversion sees
    identical input.
    """
    W = problem.horizon
    M = len(problem.machines)
    N = len(problem.containers)
    R = problem.num_resources
    if initial_active is None:
        initial_active = np.zeros(M)
    initial_active = np.asarray(initial_active, dtype=float)
    if initial_active.shape != (M,):
        raise ValueError(f"initial_active must be (M={M},), got {initial_active.shape}")
    demand = np.asarray(problem.demand, dtype=float)
    prices = np.asarray(problem.prices, dtype=float)
    omega = problem.omega()
    compatible = problem.compatibility()
    committed_floor = feasible_committed(problem, committed, compatible)
    segments = [c.utility.segments for c in problem.containers]
    segment_counts = np.array([len(segs) for segs in segments])
    seg_offsets = np.concatenate([[0], np.cumsum(segment_counts)])
    widths = np.array([width for segs in segments for width, _ in segs], dtype=float)
    slopes = np.array([slope for segs in segments for _, slope in segs], dtype=float)
    num_u_per_t = len(slopes)
    num_z = W * M
    num_x = W * M * N
    x0, sp0 = num_z, num_z + num_x
    sm0, u0 = sp0 + num_z, sp0 + 2 * num_z
    total = u0 + W * num_u_per_t
    t = np.arange(W)
    z_index = np.arange(num_z).reshape(W, M)
    x_index = x0 + np.arange(num_x).reshape(W, M, N)
    switch = np.array([m.switch_cost for m in problem.machines], dtype=float)

    # --- objective (linprog minimizes; negate gains) -------------------------
    cost = np.concatenate(
        [
            (problem.idle_kwh[None, :] * prices[:, None]).ravel(),
            (problem.container_kwh[None] * prices[:, None, None]).ravel(),
            np.tile(switch, W),
            np.tile(switch, W),
            np.tile(-slopes, W),
        ]
    )

    # --- bounds ----------------------------------------------------------------
    lower = np.zeros(total)
    upper = np.full(total, np.inf)
    available = np.array([m.available for m in problem.machines], dtype=float)
    upper[:num_z] = np.tile(available, W)
    upper[x0:sp0] = np.where(compatible, np.inf, 0.0)[None].repeat(W, 0).ravel()
    if committed_floor is not None:
        lower[x0 : x0 + M * N] = np.where(compatible, committed_floor, 0.0).ravel()
    # Utility saturates at forecast demand for this step: Python's
    # min(width, demand), which keeps width unless demand is smaller.
    segment_demand = demand[:, np.repeat(np.arange(N), segment_counts)]
    upper[u0:] = np.where(segment_demand < widths, segment_demand, widths).ravel()

    # --- (16)/(17): sum_n omega_n c_nr x <= C_mr z, one row per (t, m, r) -----
    sizes = np.array([c.size for c in problem.containers], dtype=float)
    capacity = np.array([m.capacity for m in problem.machines], dtype=float)
    slots = np.ones((W, M, R, N + 1), dtype=bool)
    slots[..., :N] = compatible[None, :, None, :]
    cols = np.empty((W, M, R, N + 1), dtype=np.int64)
    cols[..., :N] = x_index[:, :, None, :]
    cols[..., N] = z_index[:, :, None]
    vals = np.empty((M, R, N + 1))
    vals[..., :N] = (omega[:, None] * sizes).T[None]
    vals[..., N] = -capacity
    capacity_rows = np.arange(W * M * R).reshape(W, M, R, 1)
    cap_entries = _coo(slots, capacity_rows, cols, vals)

    # --- utility linking: sum_s u[t,n,s] <= sum_m x[t,m,n], one row per (t, n) --
    S = int(segment_counts.max())
    slots = np.zeros((W, N, S + M), dtype=bool)
    slots[..., :S] = np.arange(S)[None, :] < segment_counts[:, None]
    slots[..., S:] = compatible.T[None]
    cols = np.zeros((W, N, S + M), dtype=np.int64)
    u_cols = u0 + seg_offsets[:-1, None] + np.arange(S)[None, :]
    cols[..., :S] = (t[:, None, None] * num_u_per_t) + u_cols[None]
    cols[..., S:] = x_index.transpose(0, 2, 1)
    vals = np.concatenate([np.ones(S), np.full(M, -1.0)])
    link_rows = W * M * R + np.arange(W * N).reshape(W, N, 1)
    link_entries = _coo(slots, link_rows, cols, vals)

    num_rows = W * M * R + W * N
    rows, cols, vals = (np.concatenate(pair) for pair in zip(cap_entries, link_entries))
    A_ub = sparse.coo_matrix((vals, (rows, cols)), shape=(num_rows, total)).tocsr()

    # --- switching equalities: z[t] - z[t-1] - sp[t] + sm[t] = 0 ---------------
    slots = np.ones((W, M, 4), dtype=bool)
    slots[0, :, 1] = False
    cols = np.stack(
        [z_index, z_index - M, sp0 + z_index, sm0 + z_index], axis=-1
    )
    eq_entries = _coo(
        slots, z_index[..., None], cols, np.array([1.0, -1.0, -1.0, 1.0])
    )
    A_eq = sparse.coo_matrix(
        (eq_entries[2], (eq_entries[0], eq_entries[1])), shape=(W * M, total)
    ).tocsr()
    b_eq = np.concatenate([initial_active, np.zeros((W - 1) * M)])

    return LinearProgram(
        cost=cost,
        A_ub=A_ub,
        b_ub=np.zeros(num_rows),
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=np.column_stack([lower, upper]),
        shape=(W, M, N),
        slopes=slopes,
    )


class CbsRelaxSolver:
    """Builds and solves the CBS-RELAX LP for a problem instance."""

    def __init__(self, solver_method: str = "highs") -> None:
        self.solver_method = solver_method

    def solve(
        self,
        problem: ProvisioningProblem,
        initial_active: np.ndarray | None = None,
        committed: np.ndarray | None = None,
    ) -> RelaxSolution:
        """Solve one instance.

        Parameters
        ----------
        initial_active:
            ``(M,)`` machines active *before* the first horizon step (the
            ``z^m_{t-1}`` against which switching cost at t=0 accrues).
            Defaults to zeros (cold start).
        committed:
            ``(M, N)`` containers already occupied by *running* tasks on each
            machine type.  Running tasks cannot migrate, so ``x`` at step 0
            is lower-bounded by these stocks — otherwise the optimizer would
            "move" sunk capacity between machine types and the resulting
            quotas would block new placements where tasks actually run
            (the paper handles the same issue via container reassignment;
            we pin stocks instead of migrating).  Bounds are scaled down
            per machine type if they would exceed available capacity.
        """
        lp = build_lp(problem, initial_active, committed)
        W, M, N = lp.shape
        # Imported here, like fit_arima's: a process that never solves
        # (CLI commands, threshold-policy runs) skips its import cost.
        from scipy import optimize

        result = optimize.linprog(
            lp.cost,
            A_ub=lp.A_ub,
            b_ub=lp.b_ub,
            A_eq=lp.A_eq,
            b_eq=lp.b_eq,
            bounds=lp.bounds,
            method=self.solver_method,
        )
        if not result.success:
            raise SolverInfeasible(
                f"CBS-RELAX LP failed: {result.message}",
                status=int(result.status),
                horizon=W,
                machines=M,
                containers=N,
            )

        z, x, sp, sm, u = lp.unpack(result.x)
        prices = np.asarray(problem.prices, dtype=float)
        switch = np.array([m.switch_cost for m in problem.machines])
        # Accumulated term by term in (t, n, s) / (t, m) order.
        utility = 0.0
        for term in (lp.slopes * u).ravel():
            utility += term
        energy = 0.0
        switching = 0.0
        for t in range(W):
            idle_cost = problem.idle_cost_per_interval(float(prices[t]))
            run_cost = problem.container_energy_cost(float(prices[t]))
            energy += float(idle_cost @ z[t]) + float((run_cost * x[t]).sum())
            switching += sum(switch * (sp[t] + sm[t]))

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
