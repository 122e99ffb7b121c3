"""The heterogeneity-oblivious baseline provisioner (Section IX-B).

"A baseline algorithm that finds the best trade-off between energy savings
and scheduling delay by maintaining an 80% utilization of the bottleneck
resource.  It provisions machines in a 'greedy' fashion by turning them on
in decreasing order of energy efficiency."

The baseline sees only *aggregate* demand — no task classes, no per-class
queueing model, no compatibility reasoning — which is precisely what makes
it turn on the wrong machines for large or constrained tasks.
"""

from __future__ import annotations

from repro.energy.models import MachineModel
from repro.provisioning.controller import ProvisioningDecision


#: The bottleneck-resource utilization the provisioner maintains (the
#: paper's 80%).
TARGET_UTILIZATION = 0.8


class BaselineProvisioner:
    """Greedy energy-efficiency-ordered, heterogeneity-oblivious provisioning."""

    def __init__(self, machine_models: tuple[MachineModel, ...]) -> None:
        if not machine_models:
            raise ValueError("need at least one machine model")
        self.machine_models = machine_models
        #: Models in decreasing energy-efficiency (capacity per peak watt).
        self.efficiency_order = tuple(
            sorted(machine_models, key=lambda m: -m.efficiency)
        )
        self.decisions: list[ProvisioningDecision] = []

    def observe(self, arrival_counts: dict[int, float]) -> None:
        """The baseline ignores per-class arrivals (heterogeneity-oblivious)."""

    def decide(
        self,
        now: float,
        demand_cpu: float,
        demand_memory: float,
        available: dict[int, int] | None = None,
    ) -> ProvisioningDecision:
        """Provision for aggregate demand at the target utilization.

        Parameters
        ----------
        demand_cpu / demand_memory:
            Total requested resources of tasks currently in the system
            (pending + running), in normalized machine units.
        """
        if demand_cpu < 0 or demand_memory < 0:
            raise ValueError("demand must be non-negative")
        required_cpu = demand_cpu / TARGET_UTILIZATION
        required_memory = demand_memory / TARGET_UTILIZATION

        active: dict[int, int] = {m.platform_id: 0 for m in self.machine_models}
        got_cpu = 0.0
        got_memory = 0.0
        for model in self.efficiency_order:
            cap = model.count if available is None else available.get(model.platform_id, model.count)
            for _ in range(cap):
                if got_cpu >= required_cpu and got_memory >= required_memory:
                    break
                active[model.platform_id] += 1
                got_cpu += model.cpu_capacity
                got_memory += model.memory_capacity
            if got_cpu >= required_cpu and got_memory >= required_memory:
                break

        decision = ProvisioningDecision(
            time=now,
            active=active,
            quotas=None,  # the baseline scheduler is unrestricted
            demand={},
        )
        self.decisions.append(decision)
        return decision
