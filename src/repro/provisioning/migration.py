"""Container reassignment (migration) planning — Algorithm 1, line 10-11.

After CBS-RELAX decides how many machines of each type stay active, the
controller "computes a re-packing configuration for all selected active
machines" and migrates containers off the surplus ones so they can power
down.  The paper models the migration cost as part of the switching cost;
this module provides the planner that actually finds the moves:

1. rank active machines of each type by utilization (emptiest first);
2. try to relocate every container off the surplus machines onto the
   remaining ones (first-fit into the fullest receivers — tightest
   packing);
3. a machine is released only if *all* its containers found a new home;
   otherwise it stays active and its planned moves are discarded.

The planner works on the same :class:`MachineAssignment` representation the
rounder produces, so it composes with :class:`FirstFitRounder` and is also
usable standalone for consolidation studies (the ``consolidation_frag``
scenario of ``repro bench ablation``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.provisioning.rounding import MachineAssignment


@dataclass(frozen=True)
class Move:
    """One planned container migration."""

    container_index: int
    count: int
    source: int
    destination: int


@dataclass
class MigrationPlan:
    """Outcome of a consolidation pass over one machine class."""

    moves: list[Move] = field(default_factory=list)
    released_machines: list[int] = field(default_factory=list)
    #: Machines that could not be emptied (stay active).
    retained_machines: list[int] = field(default_factory=list)

    @property
    def num_moves(self) -> int:
        return sum(move.count for move in self.moves)

    def cost(self, per_container_cost: float) -> float:
        """Total migration cost at a per-container price (part of C_sw)."""
        if per_container_cost < 0:
            raise ValueError(f"per_container_cost must be >= 0, got {per_container_cost}")
        return self.num_moves * per_container_cost


def _utilization(machine: MachineAssignment) -> float:
    capacity = np.asarray(machine.capacity, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(capacity > 0, machine.used / capacity, 0.0)
    return float(ratios.mean())


def plan_consolidation(
    machines: list[MachineAssignment],
    sizes: dict[int, tuple[float, ...]],
    target_active: int,
) -> MigrationPlan:
    """Empty surplus machines by migrating their containers.

    Parameters
    ----------
    machines:
        Active machines of one class with their current container loads.
    sizes:
        Container size per container index.
    target_active:
        Desired number of active machines after consolidation.

    Returns the plan; input machines are **not** mutated (the caller applies
    the moves when realizing the plan).
    """
    if target_active < 0:
        raise ValueError(f"target_active must be >= 0, got {target_active}")
    if target_active >= len(machines):
        return MigrationPlan(retained_machines=[m.machine_id for m in machines])

    # Emptiest machines are the eviction candidates; fullest stay.
    ordered = sorted(machines, key=_utilization, reverse=True)
    keepers = ordered[:target_active]
    candidates = ordered[target_active:]

    # Work on residual copies of the keepers' free capacity.
    residuals = {
        keeper.machine_id: np.asarray(keeper.capacity, dtype=float) - keeper.used
        for keeper in keepers
    }
    plan = MigrationPlan()

    for machine in sorted(candidates, key=_utilization):
        moves: list[Move] = []
        feasible = True
        # Tentative residuals so a failed machine leaves no side effects.
        tentative = {k: v.copy() for k, v in residuals.items()}
        for container_index, count in machine.containers.items():
            size = np.asarray(sizes[container_index], dtype=float)
            remaining = count
            # Fill tightest receivers first to preserve big holes.
            for keeper in sorted(keepers, key=lambda k: tentative[k.machine_id].min()):
                if remaining == 0:
                    break
                room = tentative[keeper.machine_id]
                fit = int(min(np.floor((room + 1e-9) / size).min(), remaining))
                if fit > 0:
                    tentative[keeper.machine_id] = room - size * fit
                    moves.append(
                        Move(
                            container_index=container_index,
                            count=fit,
                            source=machine.machine_id,
                            destination=keeper.machine_id,
                        )
                    )
                    remaining -= fit
            if remaining > 0:
                feasible = False
                break
        if feasible:
            residuals = tentative
            plan.moves.extend(moves)
            plan.released_machines.append(machine.machine_id)
        else:
            plan.retained_machines.append(machine.machine_id)

    plan.retained_machines.extend(k.machine_id for k in keepers)
    return plan


def consolidation_savings(
    machines: list[MachineAssignment],
    sizes: dict[int, tuple[float, ...]],
    target_active: int,
    idle_watts: float,
    horizon_seconds: float,
    price_per_kwh: float,
    migration_cost: float,
) -> tuple[MigrationPlan, float]:
    """Plan a consolidation and compute its net monetary benefit.

    Net = energy saved by released machines over ``horizon_seconds`` minus
    the migration cost of the moves.  A negative net means the controller
    should skip the consolidation (the paper folds this trade-off into the
    switching cost term of Eq. 14).
    """
    plan = plan_consolidation(machines, sizes, target_active)
    saved_kwh = (
        len(plan.released_machines) * idle_watts / 1000.0 * horizon_seconds / 3600.0
    )
    net = saved_kwh * price_per_kwh - plan.cost(migration_cost)
    return plan, net
