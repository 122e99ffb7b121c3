"""Energy and cost accounting over a simulation run.

The :class:`EnergyMeter` accumulates Eq. 7 over control intervals: for each
machine type it takes the active count and mean utilization, evaluates the
linear power model, and integrates kWh and dollar cost at the prevailing
price.  Switching events add their q_m cost (Eq. 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.energy.models import MachineModel
from repro.energy.prices import PriceSchedule


@dataclass(frozen=True)
class EnergyRecord:
    """Energy/cost totals for one interval of one machine type."""

    time: float
    platform_id: int
    active_machines: int
    cpu_utilization: float
    memory_utilization: float
    energy_kwh: float
    energy_cost: float
    switch_cost: float


@dataclass
class EnergyMeter:
    """Accumulates energy, energy cost and switching cost over a run."""

    models: dict[int, MachineModel]
    price: PriceSchedule
    records: list[EnergyRecord] = field(default_factory=list)
    total_kwh: float = 0.0
    total_energy_cost: float = 0.0
    total_switch_cost: float = 0.0
    switch_events: int = 0

    def record_interval(
        self,
        time: float,
        seconds: float,
        platform_id: int,
        active_machines: int,
        cpu_utilization: float,
        memory_utilization: float,
        switches: int = 0,
    ) -> EnergyRecord:
        """Account one machine type over one interval.

        Utilizations are the mean over *active* machines of that type; the
        idle component is drawn by every active machine regardless.
        """
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        if active_machines < 0:
            raise ValueError(f"active_machines must be >= 0, got {active_machines}")
        if switches < 0:
            raise ValueError(f"switches must be >= 0, got {switches}")
        model = self.models[platform_id]
        cpu_utilization = min(max(cpu_utilization, 0.0), 1.0)
        memory_utilization = min(max(memory_utilization, 0.0), 1.0)
        kwh = active_machines * model.power_model.energy_kwh(
            (cpu_utilization, memory_utilization), seconds
        )
        cost = kwh * self.price(time)
        switch_cost = switches * model.switch_cost
        record = EnergyRecord(
            time=time,
            platform_id=platform_id,
            active_machines=active_machines,
            cpu_utilization=cpu_utilization,
            memory_utilization=memory_utilization,
            energy_kwh=kwh,
            energy_cost=cost,
            switch_cost=switch_cost,
        )
        self.records.append(record)
        self.total_kwh += kwh
        self.total_energy_cost += cost
        self.total_switch_cost += switch_cost
        self.switch_events += switches
        return record

    @property
    def total_cost(self) -> float:
        """Energy plus switching cost."""
        return self.total_energy_cost + self.total_switch_cost

    def timeline(self) -> list[tuple[float, float]]:
        """(time, total kWh in that interval) pairs, aggregated over types."""
        by_time: dict[float, float] = {}
        for record in self.records:
            by_time[record.time] = by_time.get(record.time, 0.0) + record.energy_kwh
        return sorted(by_time.items())
