"""Algorithm 1: the HARMONY MPC controller.

Every control period the controller:

1. feeds the latest per-class arrival counts to its predictors and forecasts
   the next ``W`` periods (line 4);
2. converts predicted rates (plus any observed backlog) into container
   demand via the M/G/N model (container manager);
3. solves CBS-RELAX over the horizon (line 5);
4. rounds step 0 with first-fit (Lemma 1) into an integer machine plan and
   per-(machine type, container type) quotas (lines 6-11);
5. carries the realized machine counts into the next period's switching
   costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.containers.manager import ContainerManager
from repro.energy.models import MachineModel
from repro.energy.prices import PriceSchedule, constant_price
from repro.forecasting.predictors import ArimaPredictor, Predictor
from repro.provisioning.model import ProvisioningProblem, build_problem
from repro.provisioning.relax import CbsRelaxSolver, RelaxSolution
from repro.provisioning.rounding import (
    FirstFitRounder,
    RoundedPlan,
    _largest_remainder_targets,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.cluster import ClusterView


@dataclass(frozen=True)
class ControllerConfig:
    """Knobs for :class:`HarmonyController`.

    Attributes
    ----------
    interval_seconds:
        Control period length.
    horizon:
        W, the number of look-ahead periods in the MPC (Algorithm 1).
    price:
        Electricity price schedule (p_t).
    overprovision:
        Uniform omega applied to every container type (Eq. 17); 1.0 disables.
    predictor_factory:
        Builds one streaming predictor per task class; defaults to the
        paper's ARIMA.
    """

    interval_seconds: float = 300.0
    horizon: int = 4
    price: PriceSchedule = field(default_factory=constant_price)
    overprovision: float = 1.0
    predictor_factory: Callable[[], Predictor] = ArimaPredictor

    def __post_init__(self) -> None:
        if self.interval_seconds <= 0:
            raise ValueError(f"interval_seconds must be positive, got {self.interval_seconds}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.overprovision < 1.0:
            raise ValueError(f"overprovision must be >= 1, got {self.overprovision}")


@dataclass(frozen=True)
class ProvisioningDecision:
    """One control period's output, consumed by the cluster simulator.

    Attributes
    ----------
    time:
        Decision timestamp (start of the control period).
    active:
        Machines to keep powered per platform id.
    quotas:
        Per platform id, the cap on containers (tasks) of each class id;
        ``None`` means the scheduler is unrestricted (baseline).
    demand:
        The container demand vector the decision served (class id -> count).
    dropped:
        Containers the rounder could not place (class id -> count).
    """

    time: float
    active: dict[int, int]
    quotas: dict[int, dict[int, int]] | None
    demand: dict[int, float] = field(default_factory=dict)
    dropped: dict[int, int] = field(default_factory=dict)
    objective: float = 0.0

    def total_active(self) -> int:
        return sum(self.active.values())

    def to_state(self) -> dict:
        """Canonical-JSON-safe encoding for serve checkpoints.

        Int-keyed dicts are encoded as sorted ``[key, value]`` pair lists —
        ``json.dumps`` would silently stringify the keys, and a restored
        decision must compare equal to the original.
        """
        return {
            "time": self.time,
            "active": [[k, self.active[k]] for k in sorted(self.active)],
            "quotas": None
            if self.quotas is None
            else [
                [pid, [[c, q[c]] for c in sorted(q)]]
                for pid, q in sorted(self.quotas.items())
            ],
            "demand": [[k, self.demand[k]] for k in sorted(self.demand)],
            "dropped": [[k, self.dropped[k]] for k in sorted(self.dropped)],
            "objective": self.objective,
        }

    @classmethod
    def from_state(cls, state: dict) -> "ProvisioningDecision":
        return cls(
            time=float(state["time"]),
            active={int(k): int(v) for k, v in state["active"]},
            quotas=None
            if state["quotas"] is None
            else {
                int(pid): {int(c): int(n) for c, n in q}
                for pid, q in state["quotas"]
            },
            demand={int(k): float(v) for k, v in state["demand"]},
            dropped={int(k): int(v) for k, v in state["dropped"]},
            objective=float(state["objective"]),
        )


def hold_last_good(
    last_good: ProvisioningDecision | None, view: "ClusterView"
) -> ProvisioningDecision:
    """The last-known-good plan re-stamped at ``view.time``; before any
    plan succeeded, one that keeps ``view.powered`` as it is."""
    if last_good is not None:
        return replace(last_good, time=view.time)
    return ProvisioningDecision(time=view.time, active=dict(view.powered), quotas=None)


class HarmonyController:
    """The full heterogeneity-aware MPC controller (Algorithm 1)."""

    def __init__(
        self,
        machine_models: tuple[MachineModel, ...],
        manager: ContainerManager,
        config: ControllerConfig | None = None,
    ) -> None:
        if not machine_models:
            raise ValueError("need at least one machine model")
        self.machine_models = machine_models
        self.manager = manager
        self.config = config or ControllerConfig()
        self.class_ids: list[int] = sorted(manager.specs)
        self._predictors: dict[int, Predictor] = {
            class_id: self.config.predictor_factory() for class_id in self.class_ids
        }
        self._previous_active = np.zeros(len(machine_models))
        self._solver = CbsRelaxSolver()
        self._rounder = FirstFitRounder()
        self.last_solution: RelaxSolution | None = None
        self.last_plan: RoundedPlan | None = None
        self.decisions: list[ProvisioningDecision] = []

    # ------------------------------------------------------------- observe

    @property
    def predictors(self) -> dict[int, Predictor]:
        """The per-class streaming predictors, keyed by class id."""
        return self._predictors

    def observe(self, arrival_counts: dict[int, float]) -> None:
        """Feed the arrival counts of the just-finished control period."""
        for class_id in self.class_ids:
            self._predictors[class_id].update(float(arrival_counts.get(class_id, 0.0)))

    def prime(self, mean_counts: dict[int, float], repeats: int = 16) -> None:
        """Warm-start predictors with historical mean arrival counts.

        Without priming, the first control periods forecast zero arrivals
        and the controller cold-starts with an empty cluster; in deployment
        HARMONY has weeks of trace history (Section III), which this stands
        in for.
        """
        if repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {repeats}")
        for _ in range(repeats):
            self.observe(mean_counts)

    # -------------------------------------------------------------- decide

    def forecast_rates(self) -> np.ndarray:
        """``(W, N)`` predicted arrival rates (tasks/second) per class."""
        W = self.config.horizon
        rates = np.zeros((W, len(self.class_ids)))
        for column, class_id in enumerate(self.class_ids):
            counts = self._predictors[class_id].forecast(W)
            rates[:, column] = np.maximum(counts, 0.0) / self.config.interval_seconds
        return rates

    def container_demand(
        self,
        rates: np.ndarray,
        backlog: dict[int, int] | None = None,
        running: dict[int, int] | None = None,
    ) -> np.ndarray:
        """``(W, N)`` container demand: transient M/G/N occupancy projection.

        Current occupancy is running tasks plus the waiting backlog (both
        need containers immediately); future steps relax toward the
        steady-state offered load (see
        :meth:`repro.containers.manager.ContainerManager.transient_demand`).
        """
        W = rates.shape[0]
        backlog = backlog or {}
        running = running or {}
        demand = np.zeros_like(rates)
        for column, class_id in enumerate(self.class_ids):
            task_class = self.manager.spec(class_id).task_class
            occupancy = running.get(class_id, 0) + backlog.get(class_id, 0)
            for t in range(W):
                demand[t, column] = self.manager.transient_demand(
                    task_class,
                    float(rates[t, column]),
                    occupancy=occupancy,
                    step=t,
                    interval_seconds=self.config.interval_seconds,
                )
        return demand

    def committed_matrix(
        self, running_by_platform: dict[int, dict[int, int]] | None
    ) -> np.ndarray | None:
        """``(M, N)`` running-task stocks aligned with the problem layout."""
        if not running_by_platform:
            return None
        committed = np.zeros((len(self.machine_models), len(self.class_ids)))
        column = {class_id: n for n, class_id in enumerate(self.class_ids)}
        for m, model in enumerate(self.machine_models):
            for class_id, count in running_by_platform.get(model.platform_id, {}).items():
                if class_id in column:
                    committed[m, column[class_id]] = count
        return committed

    def build_problem(
        self,
        now: float,
        demand: np.ndarray,
        available: dict[int, int] | None = None,
    ) -> ProvisioningProblem:
        """Assemble the CBS instance for this control period."""
        W = self.config.horizon
        prices = np.array(
            [self.config.price(now + i * self.config.interval_seconds) for i in range(W)]
        )
        omega = None
        if self.config.overprovision > 1.0:
            omega = np.full(len(self.class_ids), self.config.overprovision)
        return build_problem(
            self.machine_models,
            self.manager.specs,
            demand=demand,
            prices=prices,
            interval_seconds=self.config.interval_seconds,
            available=available,
            overprovision=omega,
        )

    def _solve_relaxation(
        self,
        now: float,
        backlog: dict[int, int] | None,
        available: dict[int, int] | None,
        running: dict[int, int] | None,
        running_by_platform: dict[int, dict[int, int]] | None,
        powered: dict[int, int] | None,
    ) -> tuple[ProvisioningProblem, RelaxSolution, np.ndarray]:
        """Algorithm 1 lines 4-5: forecast, size, and solve CBS-RELAX.

        Shared by every realization of the relaxed solution (CBS packing
        here, CBP's nearest-integer rounding); returns the problem, its
        relaxed solution and the ``(W, N)`` container demand behind it.
        """
        rates = self.forecast_rates()
        demand = self.container_demand(rates, backlog, running)
        problem = self.build_problem(now, demand, available)
        if powered is not None:
            initial_active = np.array(
                [float(powered.get(m.platform_id, 0)) for m in self.machine_models]
            )
        else:
            initial_active = self._previous_active
        solution = self._solver.solve(
            problem,
            initial_active=initial_active,
            committed=self.committed_matrix(running_by_platform),
        )
        return problem, solution, demand

    def decide(
        self,
        now: float,
        backlog: dict[int, int] | None = None,
        available: dict[int, int] | None = None,
        running: dict[int, int] | None = None,
        running_by_platform: dict[int, dict[int, int]] | None = None,
        powered: dict[int, int] | None = None,
    ) -> ProvisioningDecision:
        """Run one control period of Algorithm 1 and return the plan.

        ``powered`` (actually-drawing machine counts per platform) replaces
        the previous decision's targets as z_{t-1} when provided: draining
        machines that could not power down yet are real, and the optimizer
        should price switching against reality rather than its own plan.
        """
        problem, solution, demand = self._solve_relaxation(
            now, backlog, available, running, running_by_platform, powered
        )
        plan = self._rounder.round(problem, solution, t=0)
        self.last_solution = solution
        self.last_plan = plan

        active = {
            model.platform_id: int(plan.active[m])
            for m, model in enumerate(self.machine_models)
        }
        # Quotas come from the LP assignment x (largest-remainder rounded),
        # not from the packed counts: the packing realizes machine counts,
        # while x is the scheduler-facing cap ("the controller is free to
        # schedule additional containers as long as the total number for
        # each n is at most x^{mn}", Algorithm 1).  Containers the packer
        # could not fit are still reported in ``dropped``.
        quota_targets = _largest_remainder_targets(solution.x[0])
        quotas: dict[int, dict[int, int]] = {}
        for m, model in enumerate(self.machine_models):
            quotas[model.platform_id] = {
                self.class_ids[n]: int(quota_targets[m, n])
                for n in range(len(self.class_ids))
                if quota_targets[m, n] > 0
            }
        decision = ProvisioningDecision(
            time=now,
            active=active,
            quotas=quotas,
            demand={
                self.class_ids[n]: float(demand[0, n]) for n in range(len(self.class_ids))
            },
            dropped={
                self.class_ids[n]: int(plan.dropped[n])
                for n in range(len(self.class_ids))
                if plan.dropped[n] > 0
            },
            objective=solution.objective,
        )
        self._previous_active = plan.active.astype(float)
        self.decisions.append(decision)
        return decision
