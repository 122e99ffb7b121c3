"""CBS problem data (Section VII-B, Table I).

The optimization sees the world as ``M`` machine classes and ``N`` container
types over ``D`` resource dimensions:

- a :class:`MachineClass` carries capacity ``C_mr``, availability ``N_m``,
  the energy parameters ``E_idle,m`` / ``alpha_mr`` and switching cost
  ``q_m``;
- a :class:`ContainerType` carries size ``c_nr`` and the concave utility
  ``f_n`` earned by scheduling its containers;
- a :class:`ProvisioningProblem` bundles both with the electricity price and
  the container->machine compatibility mask.

Utilities are piecewise-linear concave (:class:`UtilityFunction`), which is
exactly what an SLO-derived "monetary gain for scheduling containers" looks
like and keeps CBS-RELAX a linear program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.containers.sizing import ContainerSpec
from repro.energy.models import MachineModel


@dataclass(frozen=True)
class UtilityFunction:
    """Concave piecewise-linear utility ``f_n`` (Eq. 8).

    The function is ``sum_s slope_s * min(max(x - start_s, 0), width_s)``
    over segments with strictly decreasing slopes.  The common case is a
    single segment: ``weight`` per container up to ``demand`` containers,
    flat afterwards.
    """

    #: (width, slope) per segment; widths are container counts.
    segments: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("utility needs at least one segment")
        slopes = [slope for _, slope in self.segments]
        for width, slope in self.segments:
            if width <= 0:
                raise ValueError(f"segment widths must be positive, got {width}")
            if slope < 0:
                raise ValueError(f"segment slopes must be >= 0, got {slope}")
        if any(s2 > s1 + 1e-12 for s1, s2 in zip(slopes, slopes[1:])):
            raise ValueError("segment slopes must be non-increasing for concavity")

    @staticmethod
    def capped_linear(weight: float, demand: float) -> "UtilityFunction":
        """``weight`` per container up to ``demand``; flat afterwards."""
        if demand <= 0:
            raise ValueError(f"demand must be positive, got {demand}")
        return UtilityFunction(segments=((demand, weight),))

    def __call__(self, x: float) -> float:
        if x < 0:
            raise ValueError(f"utility argument must be >= 0, got {x}")
        value = 0.0
        remaining = x
        for width, slope in self.segments:
            used = min(remaining, width)
            value += slope * used
            remaining -= used
            if remaining <= 0:
                break
        return value

    @property
    def saturation(self) -> float:
        """Container count beyond which marginal utility is zero."""
        return sum(width for width, _ in self.segments)


@dataclass(frozen=True)
class MachineClass:
    """One machine type from the optimizer's point of view."""

    platform_id: int
    name: str
    capacity: tuple[float, ...]
    available: int
    idle_watts: float
    alpha_watts: tuple[float, ...]
    switch_cost: float

    def __post_init__(self) -> None:
        if len(self.capacity) != len(self.alpha_watts):
            raise ValueError("capacity and alpha_watts must share dimensions")
        if any(c <= 0 for c in self.capacity):
            raise ValueError(f"capacities must be positive, got {self.capacity}")
        if self.available < 0:
            raise ValueError(f"available must be >= 0, got {self.available}")
        if self.idle_watts < 0 or any(a < 0 for a in self.alpha_watts):
            raise ValueError("energy parameters must be >= 0")
        if self.switch_cost < 0:
            raise ValueError(f"switch_cost must be >= 0, got {self.switch_cost}")

    @staticmethod
    def from_machine_model(model: MachineModel, available: int | None = None) -> "MachineClass":
        return MachineClass(
            platform_id=model.platform_id,
            name=model.name,
            capacity=(model.cpu_capacity, model.memory_capacity),
            available=model.count if available is None else available,
            idle_watts=model.power_model.idle_watts,
            alpha_watts=model.power_model.alpha_watts,
            switch_cost=model.switch_cost,
        )


@dataclass(frozen=True)
class ContainerType:
    """One container type (= one task class) for the optimizer."""

    class_id: int
    name: str
    size: tuple[float, ...]
    utility: UtilityFunction
    #: Platform ids this container may be placed on; ``None`` = any machine
    #: with sufficient capacity.
    allowed_platforms: frozenset[int] | None = None

    def __post_init__(self) -> None:
        if any(s <= 0 for s in self.size):
            raise ValueError(f"container sizes must be positive, got {self.size}")

    @staticmethod
    def from_spec(
        spec: ContainerSpec,
        weight: float,
        demand: float,
        allowed_platforms: frozenset[int] | None = None,
    ) -> "ContainerType":
        return ContainerType(
            class_id=spec.class_id,
            name=spec.task_class.name,
            size=(spec.cpu, spec.memory),
            utility=UtilityFunction.capped_linear(weight, max(demand, 1e-9)),
            allowed_platforms=allowed_platforms,
        )

    def fits(self, machine: MachineClass) -> bool:
        """Whether one container ever fits one machine of this class."""
        if (
            self.allowed_platforms is not None
            and machine.platform_id not in self.allowed_platforms
        ):
            return False
        return all(s <= c + 1e-12 for s, c in zip(self.size, machine.capacity))


@dataclass(frozen=True)
class ProvisioningProblem:
    """Full CBS instance for one control round.

    Attributes
    ----------
    machines / containers:
        The M machine classes and N container types.
    demand:
        ``(W, N)`` predicted container demand per horizon step (the
        ``N^n_{t+i|t}`` of Algorithm 1); ``W`` is the MPC horizon.
    prices:
        ``(W,)`` electricity price ($/kWh) per horizon step.
    interval_seconds:
        Length of one control interval (energy integrates over it).
    overprovision:
        The omega_n factors of Eq. 17 (per container type), defaulting to 1.
    """

    machines: tuple[MachineClass, ...]
    containers: tuple[ContainerType, ...]
    demand: np.ndarray
    prices: np.ndarray
    interval_seconds: float
    overprovision: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.machines:
            raise ValueError("problem needs at least one machine class")
        if not self.containers:
            raise ValueError("problem needs at least one container type")
        demand = np.asarray(self.demand, dtype=float)
        if demand.ndim != 2 or demand.shape[1] != len(self.containers):
            raise ValueError(
                f"demand must be (W, N={len(self.containers)}), got {demand.shape}"
            )
        if (demand < 0).any():
            raise ValueError("demand must be non-negative")
        prices = np.asarray(self.prices, dtype=float)
        if prices.shape != (demand.shape[0],):
            raise ValueError(
                f"prices must be (W={demand.shape[0]},), got {prices.shape}"
            )
        if (prices < 0).any():
            raise ValueError("prices must be non-negative")
        if self.interval_seconds <= 0:
            raise ValueError(f"interval_seconds must be positive, got {self.interval_seconds}")
        if self.overprovision is not None:
            omega = np.asarray(self.overprovision, dtype=float)
            if omega.shape != (len(self.containers),):
                raise ValueError(
                    f"overprovision must be (N={len(self.containers)},), got {omega.shape}"
                )
            if (omega < 1.0).any():
                raise ValueError("overprovision factors must be >= 1")

    @property
    def horizon(self) -> int:
        return int(np.asarray(self.demand).shape[0])

    @property
    def num_resources(self) -> int:
        return len(self.machines[0].capacity)

    def omega(self) -> np.ndarray:
        """Effective omega_n vector (ones when not set)."""
        if self.overprovision is None:
            return np.ones(len(self.containers))
        return np.asarray(self.overprovision, dtype=float)

    def compatibility(self) -> np.ndarray:
        """Boolean ``(M, N)`` mask: container n may run on machine class m."""
        return np.array(
            [[c.fits(m) for c in self.containers] for m in self.machines],
            dtype=bool,
        )

    @cached_property
    def idle_kwh(self) -> np.ndarray:
        """``(M,)`` energy of one idle active machine per class, per interval.

        Price-independent, so it is computed once per problem: every
        ``idle_cost_per_interval(price)`` is one multiply by ``price``.
        """
        hours = self.interval_seconds / 3600.0
        return np.array([m.idle_watts / 1000.0 * hours for m in self.machines])

    @cached_property
    def container_kwh(self) -> np.ndarray:
        """``(M, N)`` energy of hosting one container for one interval.

        Implements the ``alpha_mr * c_nr / C_mr`` term of Eq. 14: a container
        of size ``c_nr`` raises machine utilization of resource ``r`` by
        ``c_nr / C_mr`` and therefore power by ``alpha_mr * c_nr / C_mr``.
        Price-independent, so it is computed once per problem.
        """
        hours = self.interval_seconds / 3600.0
        alpha = np.array([m.alpha_watts for m in self.machines], dtype=float)
        capacity = np.array([m.capacity for m in self.machines], dtype=float)
        sizes = np.array([c.size for c in self.containers], dtype=float)
        watts = np.zeros((len(self.machines), len(self.containers)))
        # Summed over resources left to right, as a scalar loop would.
        for r in range(self.num_resources):
            watts = watts + alpha[:, None, r] * sizes[None, :, r] / capacity[:, None, r]
        return watts / 1000.0 * hours

    def idle_cost_per_interval(self, price: float) -> np.ndarray:
        """Idle energy cost of one active machine per class, for one interval."""
        return self.idle_kwh * price

    def container_energy_cost(self, price: float) -> np.ndarray:
        """``(M, N)`` energy cost of hosting one container for one interval."""
        return self.container_kwh * price


def build_problem(
    machine_models: tuple[MachineModel, ...],
    specs: dict[int, ContainerSpec],
    demand: np.ndarray,
    prices: np.ndarray,
    interval_seconds: float,
    available: dict[int, int] | None = None,
    allowed_platforms: dict[int, frozenset[int] | None] | None = None,
    overprovision: np.ndarray | None = None,
) -> ProvisioningProblem:
    """Assemble a :class:`ProvisioningProblem` from catalog + container plan.

    Parameters
    ----------
    demand:
        ``(W, N)`` container demand, columns ordered by sorted class id.

    Each class's utility weight is SLO-derived: it prices a scheduled
    container above its worst-case energy cost, so the optimizer prefers
    scheduling whenever capacity exists.
    """
    machines = tuple(
        MachineClass.from_machine_model(
            model, None if available is None else available.get(model.platform_id)
        )
        for model in machine_models
    )
    class_ids = sorted(specs)
    demand = np.asarray(demand, dtype=float)
    if demand.ndim != 2 or demand.shape[1] != len(class_ids):
        raise ValueError(
            f"demand must be (W, {len(class_ids)}) matching sorted class ids, "
            f"got {demand.shape}"
        )
    peak_demand = demand.max(axis=0)
    containers = []
    for column, class_id in enumerate(class_ids):
        spec = specs[class_id]
        weight = default_utility_weight(
            machines, spec, float(np.max(prices)), interval_seconds
        ) * group_utility_multiplier(spec)
        platforms = None
        if allowed_platforms is not None:
            platforms = allowed_platforms.get(class_id)
        containers.append(
            ContainerType.from_spec(
                spec,
                weight=weight,
                demand=max(float(peak_demand[column]), 1.0),
                allowed_platforms=platforms,
            )
        )
    return ProvisioningProblem(
        machines=machines,
        containers=tuple(containers),
        demand=demand,
        prices=np.asarray(prices, dtype=float),
        interval_seconds=interval_seconds,
        overprovision=overprovision,
    )


#: SLO-derived utility multipliers (Eq. 8: f_n comes from per-class SLOs).
#: Scheduling a production container is worth more than a gratis one, so
#: under capacity pressure the optimizer sheds low-priority work first —
#: mirroring the trace's priority semantics (Section III).
GROUP_UTILITY_MULTIPLIER = {
    "GRATIS": 1.0,
    "OTHER": 2.0,
    "PRODUCTION": 4.0,
}


def group_utility_multiplier(spec: ContainerSpec) -> float:
    """Priority-group utility multiplier for a container spec."""
    return GROUP_UTILITY_MULTIPLIER.get(spec.task_class.group.name, 1.0)


#: Below this worst-case hosting cost (in dollars per interval) a container
#: is treated as cost-free and given the fixed utility floor instead.
_MIN_WORST_CASE_COST = 1e-12


def default_utility_weight(
    machines: tuple[MachineClass, ...],
    spec: ContainerSpec,
    price: float,
    interval_seconds: float,
    margin: float = 3.0,
) -> float:
    """A utility weight that dominates the container's worst-case energy cost.

    Scheduling must be preferable to idling capacity whenever the demand is
    real, so the per-container utility is ``margin`` times the most expensive
    way to host it (full idle share plus dynamic power on the least efficient
    compatible machine class).
    """
    hours = interval_seconds / 3600.0
    worst = 0.0
    for machine in machines:
        if not all(s <= c + 1e-12 for s, c in zip(spec.demand, machine.capacity)):
            continue
        # Idle share: containers-per-machine at this size.
        fill = max(s / c for s, c in zip(spec.demand, machine.capacity))
        idle_share = machine.idle_watts * fill
        dynamic = sum(
            alpha * s / c
            for alpha, s, c in zip(machine.alpha_watts, spec.demand, machine.capacity)
        )
        cost = (idle_share + dynamic) / 1000.0 * hours * max(price, 0.01)
        worst = max(worst, cost)
    # No compatible machine (or a vanishingly small cost) still needs a
    # positive utility floor; tolerance instead of == 0.0 so a cost of a
    # few ulps does not produce a near-zero weight.
    if worst <= _MIN_WORST_CASE_COST:
        worst = 0.001
    return margin * worst
