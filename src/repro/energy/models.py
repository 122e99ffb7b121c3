"""Linear machine power models (Eq. 7).

The paper models a machine's power draw as linear in resource utilization:

    P = E_idle,m + sum_r alpha_mr * u_r

with ``E_idle,m`` the idle draw of a type-m machine and ``alpha_mr`` the
slope for resource r.  Parameters are estimated from public Energy Star
measurements (Section IX / Fig. 9); see :mod:`repro.energy.catalog` for the
Table II instantiations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.trace.schema import MachineType, Task


@dataclass(frozen=True)
class LinearPowerModel:
    """Power as an affine function of per-resource utilization.

    Attributes
    ----------
    idle_watts:
        E_idle: draw of a powered-on machine at zero utilization.
    alpha_watts:
        Slope per resource, ``(alpha_cpu, alpha_memory)``; full utilization
        of every resource draws ``idle + sum(alpha)`` watts.
    """

    idle_watts: float
    alpha_watts: tuple[float, ...] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if self.idle_watts < 0:
            raise ValueError(f"idle_watts must be >= 0, got {self.idle_watts}")
        if any(a < 0 for a in self.alpha_watts):
            raise ValueError(f"alpha_watts must be >= 0, got {self.alpha_watts}")

    @property
    def peak_watts(self) -> float:
        """Draw at 100% utilization of every resource."""
        return self.idle_watts + sum(self.alpha_watts)

    def power(self, utilization: tuple[float, ...]) -> float:
        """Instantaneous draw (watts) at the given per-resource utilization."""
        if len(utilization) != len(self.alpha_watts):
            raise ValueError(
                f"expected {len(self.alpha_watts)} utilization components, "
                f"got {len(utilization)}"
            )
        for u in utilization:
            if not 0 <= u <= 1 + 1e-9:
                raise ValueError(f"utilization components must be in [0, 1], got {u}")
        return self.idle_watts + sum(a * u for a, u in zip(self.alpha_watts, utilization))

    def energy_kwh(self, utilization: tuple[float, ...], seconds: float) -> float:
        """Energy over an interval at constant utilization, in kWh."""
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        return self.power(utilization) * seconds / 3.6e6


@dataclass(frozen=True)
class MachineModel:
    """A server model: capacity, census count, power model and switch cost.

    This is the provisioning-layer view of a machine type; it can be
    projected down to the trace-layer :class:`~repro.trace.schema.MachineType`
    via :meth:`to_machine_type`.
    """

    name: str
    platform_id: int
    cpu_capacity: float
    memory_capacity: float
    count: int
    power_model: LinearPowerModel
    #: q_m: cost (in the objective's currency) of one on/off transition.
    switch_cost: float = 0.0
    #: Seconds a machine takes to boot when switched on.
    boot_seconds: float = 120.0

    def __post_init__(self) -> None:
        if not 0 < self.cpu_capacity <= 1:
            raise ValueError(f"cpu_capacity must be in (0, 1], got {self.cpu_capacity}")
        if not 0 < self.memory_capacity <= 1:
            raise ValueError(
                f"memory_capacity must be in (0, 1], got {self.memory_capacity}"
            )
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        if self.switch_cost < 0:
            raise ValueError(f"switch_cost must be >= 0, got {self.switch_cost}")
        if self.boot_seconds < 0:
            raise ValueError(f"boot_seconds must be >= 0, got {self.boot_seconds}")

    @property
    def capacity(self) -> tuple[float, float]:
        return (self.cpu_capacity, self.memory_capacity)

    @property
    def idle_watts(self) -> float:
        return self.power_model.idle_watts

    @property
    def peak_watts(self) -> float:
        return self.power_model.peak_watts

    @property
    def efficiency(self) -> float:
        """Capacity delivered per peak watt (the baseline's greedy key).

        Uses CPU capacity per watt at full load, the conventional
        "performance per watt" ordering.
        """
        return self.cpu_capacity / self.peak_watts

    def can_host(self, task: Task) -> bool:
        """Whether one machine of this model can ever host the task."""
        if task.allowed_platforms is not None and self.platform_id not in task.allowed_platforms:
            return False
        return task.cpu <= self.cpu_capacity and task.memory <= self.memory_capacity

    def to_machine_type(self) -> MachineType:
        """Project to the trace-layer machine type."""
        return MachineType(
            platform_id=self.platform_id,
            cpu_capacity=self.cpu_capacity,
            memory_capacity=self.memory_capacity,
            count=self.count,
            name=self.name,
        )
