"""A reactive threshold autoscaler — the classic rule-based comparison.

Beyond the paper's heterogeneity-oblivious 80%-utilization baseline, most
production clusters of the era ran simple hysteresis autoscalers: scale up
when utilization exceeds a high-water mark, down below a low-water mark,
by a fixed step.  Including it alongside the paper's baseline shows where
*reactivity without a model* lands between the static cluster and HARMONY.

Like the paper's baseline it is heterogeneity-oblivious (one aggregate
utilization signal, machines chosen in energy-efficiency order) and keeps
the scheduler unrestricted.
"""

from __future__ import annotations

import math

from repro.energy.models import MachineModel
from repro.provisioning.controller import ProvisioningDecision


#: The hysteresis band for target-tracking scaling.  Outside the (low,
#: high) utilization band the target machine count is rescaled
#: proportionally (``target * utilization / watermark``), the standard
#: target-tracking rule: one overloaded period roughly corrects the
#: deficit instead of creeping by fixed steps.
HIGH_WATERMARK = 0.75
LOW_WATERMARK = 0.40


class ThresholdAutoscaler:
    """Rule-based scale-up/scale-down over an efficiency-ordered fleet."""

    def __init__(self, machine_models: tuple[MachineModel, ...]) -> None:
        if not machine_models:
            raise ValueError("need at least one machine model")
        self.machine_models = machine_models
        self.efficiency_order = tuple(sorted(machine_models, key=lambda m: -m.efficiency))
        self._target_total = 0
        self.decisions: list[ProvisioningDecision] = []

    def observe(self, arrival_counts: dict[int, float]) -> None:
        """Rule-based: ignores per-class arrivals."""

    def decide(
        self,
        now: float,
        demand_cpu: float,
        demand_memory: float,
        powered: dict[int, int] | None = None,
        available: dict[int, int] | None = None,
    ) -> ProvisioningDecision:
        """One target-tracking step.

        Utilization is measured as bottleneck demand over the capacity of
        the *currently targeted* machines.  Inside the (low, high) band the
        target holds; above it the target is rescaled to
        ``target * utilization / high_watermark`` (at least +1, at most
        what is available), below it to ``target * utilization /
        midpoint`` of the band (at least -1, never below 0).
        """
        if demand_cpu < 0 or demand_memory < 0:
            raise ValueError("demand must be non-negative")
        capacity_cpu, capacity_memory = self._capacity_of(self._target_total, available)
        utilization = 0.0
        if capacity_cpu > 0:
            utilization = max(
                demand_cpu / capacity_cpu, demand_memory / max(capacity_memory, 1e-9)
            )

        total_available = sum(
            (available or {}).get(m.platform_id, m.count) for m in self.machine_models
        )
        if self._target_total == 0 and (demand_cpu > 0 or demand_memory > 0):
            self._target_total = 1
        elif utilization > HIGH_WATERMARK:
            # Target tracking: rescale so utilization lands at the high mark.
            grown = math.ceil(self._target_total * utilization / HIGH_WATERMARK)
            self._target_total = min(max(grown, self._target_total + 1), total_available)
        elif utilization < LOW_WATERMARK and self._target_total > 0:
            midpoint = (LOW_WATERMARK + HIGH_WATERMARK) / 2
            shrunk = math.floor(self._target_total * utilization / midpoint)
            self._target_total = max(min(shrunk, self._target_total - 1), 0)

        active = self._allocate(self._target_total, available)
        decision = ProvisioningDecision(time=now, active=active, quotas=None)
        self.decisions.append(decision)
        return decision

    def to_state(self) -> dict:
        """Behavior-relevant state for serve checkpoints.

        Only the hysteresis target is behavioral; the ``decisions`` report
        log is deliberately excluded (restored runs start it empty).
        """
        return {"target_total": self._target_total}

    def restore_state(self, state: dict) -> None:
        self._target_total = int(state["target_total"])

    def _allocate(
        self, total: int, available: dict[int, int] | None
    ) -> dict[int, int]:
        """Fill the target count in energy-efficiency order."""
        active = {m.platform_id: 0 for m in self.machine_models}
        remaining = total
        for model in self.efficiency_order:
            cap = (available or {}).get(model.platform_id, model.count)
            take = min(remaining, cap)
            active[model.platform_id] = take
            remaining -= take
            if remaining == 0:
                break
        return active

    def _capacity_of(
        self, total: int, available: dict[int, int] | None
    ) -> tuple[float, float]:
        allocation = self._allocate(total, available)
        cpu = memory = 0.0
        for model in self.machine_models:
            machines = allocation[model.platform_id]
            cpu += model.cpu_capacity * machines
            memory += model.memory_capacity * machines
        return cpu, memory
