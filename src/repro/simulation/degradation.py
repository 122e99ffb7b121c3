"""Control-plane degradation ladder for the MPC path.

When CBS-RELAX (or anything else inside one control tick of Algorithm 1)
fails, the control plane must not take the simulation down with it — a
production provisioning loop degrades, it does not crash.  The ladder has
three rungs, tried in order every tick:

========  ===========  ====================================================
level     name         what decides
========  ===========  ====================================================
0         ``mpc``      the full relax-solve + rounding pipeline (Algorithm 1)
1         ``threshold``  a reactive :class:`ThresholdAutoscaler` over the
                       *observed* demand — no forecasts, no LP
2         ``hold``     the last-known-good decision, re-stamped (or "keep
                       current power" before any decision succeeded)
========  ===========  ====================================================

Every tick's rung is recorded as ``(time, level, reason)`` — copied onto
:attr:`SimulationMetrics.degradation_timeline` after the run and surfaced
in ``summary()["resilience"]["degradation"]`` — so a run that quietly
spent half its ticks on rung 1 is visible in every report.

The ladder is also *partition-tolerant*, not just solver-tolerant: when
the :class:`~repro.simulation.cluster.ClusterView` carries a fabric block
with unreachable cells, degradation happens **per cell** instead of
globally.  Healthy cells keep whatever rung the tick earned (usually the
full MPC path); each partitioned cell falls to rung 2 behaviour — its
machine target held at the last-known-good value — and on heal the cell is
reconciled deterministically back to the fresh decision, with the
|held - fresh| divergence recorded.

This ladder complements (and sits *inside*) the
:class:`~repro.resilience.guard.GuardedController`: the guard defends
against bad decisions and bad forecasts from outside the policy; the
ladder keeps the policy producing decisions at all when its solver fails.
:class:`~repro.simulation.control.ControlPipeline` is the only place that
constructs a ladder and nests the two.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable

from repro.provisioning.autoscaler import ThresholdAutoscaler
from repro.provisioning.controller import ProvisioningDecision, hold_last_good

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.cluster import ClusterView

#: Rung index -> name, in degradation order.
DEGRADATION_LEVELS = ("mpc", "threshold", "hold")


class DegradationLadder:
    """Steps a failing control tick down: mpc -> threshold -> hold."""

    def __init__(self, fallback: ThresholdAutoscaler) -> None:
        self.fallback = fallback
        #: (time, level, reason) per control tick; reason is "" at level 0
        #: with no fabric activity (partition holds and heals annotate it).
        self.timeline: list[tuple[float, int, str]] = []
        #: Cell id -> ticks its target was partition-held at rung 2.
        self.cell_hold_ticks: dict[int, int] = {}
        #: (time, {cell: rung name}) per tick on fabric-enabled runs —
        #: healthy cells show the tick's base rung, partitioned cells
        #: "hold"; the per-cell record the global timeline cannot express.
        self.cell_timeline: list[tuple[float, dict[int, str]]] = []
        #: Cells reconciled back to fresh control after a heal.
        self.reconciliations: int = 0
        #: Total |held - fresh| target divergence across reconciliations.
        self.reconciliation_divergence: int = 0
        self._last_good: ProvisioningDecision | None = None
        #: Cell id -> last target decided while the cell was reachable.
        self._held_targets: dict[int, int] = {}
        self._partitioned_prev: frozenset[int] = frozenset()

    @staticmethod
    def _reason(exc: BaseException) -> str:
        code = getattr(exc, "code", type(exc).__name__)
        return f"{code}: {exc}"

    def decide(
        self,
        view: "ClusterView",
        primary: Callable[[], ProvisioningDecision],
    ) -> ProvisioningDecision:
        """One tick: run ``primary``, stepping down the ladder on failure."""
        try:
            decision = primary()
            level, reason = 0, ""
        except Exception as exc:  # noqa: BLE001 — any solver-path failure
            decision, level, reason = self._degraded(view, self._reason(exc))
        fabric = getattr(view, "fabric", None)
        if fabric is not None:
            decision, level, reason = self._partition_overlay(
                view, decision, level, reason, fabric
            )
        self.timeline.append((view.time, level, reason))
        self._last_good = decision
        return decision

    def _degraded(
        self, view: "ClusterView", reason: str
    ) -> tuple[ProvisioningDecision, int, str]:
        try:
            decision = self.fallback.decide(
                view.time,
                view.demand_cpu,
                view.demand_memory,
                powered=view.powered,
                available=view.available,
            )
        except Exception as exc:  # noqa: BLE001 — rung 1 failed too
            hold = hold_last_good(self._last_good, view)
            return hold, 2, f"{reason}; then {self._reason(exc)}"
        return decision, 1, reason

    def _partition_overlay(
        self,
        view: "ClusterView",
        decision: ProvisioningDecision,
        level: int,
        reason: str,
        fabric,
    ) -> tuple[ProvisioningDecision, int, str]:
        """Per-cell partition tolerance over this tick's base decision.

        Unreachable cells get their machine target replaced by the
        last-known-good value (rung 2 behaviour, scoped to the cell);
        reachable cells keep the base decision untouched.  Cells that just
        healed are reconciled: the fresh decision wins, and the divergence
        the hold accumulated is recorded.  Deterministic by construction —
        everything derives from the view and prior decisions.
        """
        base_level = level
        unreachable = frozenset(fabric.unreachable)
        healed = self._partitioned_prev - unreachable
        if healed:
            self.reconciliations += len(healed)
            for cell in sorted(healed):
                fresh = int(decision.active.get(cell, 0))
                held = self._held_targets.get(cell, fresh)
                self.reconciliation_divergence += abs(fresh - held)
            note = f"heal: cells {sorted(healed)} reconciled"
            reason = f"{reason}; {note}" if reason else note
        self._partitioned_prev = unreachable
        if unreachable:
            active = dict(decision.active)
            for cell in sorted(unreachable):
                held = self._held_targets.get(cell)
                if held is None:
                    # Partitioned before any reachable decision: freeze
                    # the cell at its (stale-view) powered count.
                    held = int(view.powered.get(cell, 0))
                    self._held_targets[cell] = held
                active[cell] = held
                self.cell_hold_ticks[cell] = self.cell_hold_ticks.get(cell, 0) + 1
            decision = replace(decision, active=active)
            note = f"partition_hold: cells {sorted(unreachable)}"
            reason = f"{reason}; {note}" if reason else note
            level = max(level, 2)
        for cell in sorted(decision.active):
            if cell not in unreachable:
                self._held_targets[cell] = int(decision.active[cell])
        self.cell_timeline.append(
            (
                view.time,
                {
                    cell: (
                        "hold"
                        if cell in unreachable
                        else DEGRADATION_LEVELS[base_level]
                    )
                    for cell in sorted(view.available)
                },
            )
        )
        return decision, level, reason

    # ---------------------------------------------------- (de)serialization

    def to_state(self) -> dict:
        """Full behavior- and report-relevant state for serve checkpoints.

        Timelines are serialized without truncation: the serve summary
        derives rung counts from them, and a restored run's summary must
        be bit-identical to an uninterrupted one.
        """
        return {
            "timeline": [list(entry) for entry in self.timeline],
            "cell_hold_ticks": [
                [cell, self.cell_hold_ticks[cell]]
                for cell in sorted(self.cell_hold_ticks)
            ],
            "cell_timeline": [
                [time, [[cell, rung] for cell, rung in sorted(cells.items())]]
                for time, cells in self.cell_timeline
            ],
            "reconciliations": self.reconciliations,
            "reconciliation_divergence": self.reconciliation_divergence,
            "last_good": None
            if self._last_good is None
            else self._last_good.to_state(),
            "held_targets": [
                [cell, self._held_targets[cell]]
                for cell in sorted(self._held_targets)
            ],
            "partitioned_prev": sorted(self._partitioned_prev),
            "fallback": self.fallback.to_state(),
        }

    def restore_state(self, state: dict) -> None:
        self.timeline = [
            (float(t), int(level), str(reason)) for t, level, reason in state["timeline"]
        ]
        self.cell_hold_ticks = {int(c): int(n) for c, n in state["cell_hold_ticks"]}
        self.cell_timeline = [
            (float(t), {int(c): str(r) for c, r in cells})
            for t, cells in state["cell_timeline"]
        ]
        self.reconciliations = int(state["reconciliations"])
        self.reconciliation_divergence = int(state["reconciliation_divergence"])
        self._last_good = (
            None
            if state["last_good"] is None
            else ProvisioningDecision.from_state(state["last_good"])
        )
        self._held_targets = {int(c): int(n) for c, n in state["held_targets"]}
        self._partitioned_prev = frozenset(int(c) for c in state["partitioned_prev"])
        self.fallback.restore_state(state["fallback"])
