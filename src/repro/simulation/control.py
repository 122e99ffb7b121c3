"""The one hardened control stack: optional guard -> ladder -> primary.

Algorithm 1 is one loop (observe arrivals, forecast, size, solve, round,
apply); :class:`ControlPipeline` is the hardened form of it that both
front-ends hold as their cluster :class:`~repro.simulation.cluster.Policy`
— :class:`~repro.simulation.harmony.HarmonySimulation` around
``HarmonyController`` / ``CbpController``, and
:class:`~repro.serve.state.ServeState` around its MPC-lite primary::

    decide(view)
      guard (optional)        validate, clamp, breaker  -> GuardedController
        observe(view)         arrivals -> predictors, exactly once per tick
        ladder                mpc -> threshold -> hold  -> DegradationLadder
          solve(view)         the primary decision

Three invariants are load-bearing for digests:

1. Arrivals are observed exactly once per tick.  Breaker closed: before the
   ladder and outside it, so an observe failure is the guard's to absorb as
   a solver failure, not a ladder rung.  Breaker open: reactive decision
   first, then observe, a failure logged with ``stage="observe"``.
2. A tripped tick adds no ``ladder.timeline`` entry; :attr:`last_tick`
   reports it as rung 1 / ``"guard_tripped"``.
3. Ladder and guard each own a ``ThresholdAutoscaler`` (each carries its
   own hysteresis target, and both are in the serve checkpoint).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable

from repro.energy.models import MachineModel
from repro.provisioning.autoscaler import ThresholdAutoscaler, ThresholdConfig
from repro.provisioning.controller import ProvisioningDecision
from repro.resilience.guard import GuardConfig, GuardedController
from repro.simulation.cluster import ClusterView
from repro.simulation.degradation import DegradationLadder
from repro.simulation.metrics import SimulationMetrics


class ControlPipeline:
    """Builds and runs guard -> ladder -> primary (see module docstring).

    ``solve(view)`` is the primary decision; ``observe(view)`` feeds the
    tick's arrivals to its predictors; ``forecast()`` is its next-interval
    total, which the breaker scores against (the guard's own EWMA without
    it).  ``guard=None`` leaves the guard out.
    """

    def __init__(
        self,
        fleet: tuple[MachineModel, ...],
        solve: Callable[[ClusterView], ProvisioningDecision],
        observe: Callable[[ClusterView], None] | None = None,
        forecast: Callable[[], float] | None = None,
        guard: GuardConfig | None = None,
    ) -> None:
        self.solve = solve
        self.observe = observe
        self.ladder = DegradationLadder(ThresholdAutoscaler(fleet, ThresholdConfig()))
        self.guard: GuardedController | None = None
        if guard is not None:
            self.guard = GuardedController(
                SimpleNamespace(decide=self._laddered),
                fleet,
                config=guard,
                observe=observe,
                forecast=forecast,
            )
        #: ``(rung, reason, mode)`` of the most recent :meth:`decide`.
        self.last_tick: tuple[int, str, str] = (0, "", "mpc")
        self._ladder_tick: tuple[int, str] | None = None

    def decide(self, view: ClusterView) -> ProvisioningDecision:
        self._ladder_tick = None
        if self.guard is None:
            decision, mode = self._laddered(view), "mpc"
        else:
            decision = self.guard.decide(view)
            mode = self.guard.mode_timeline[-1][1]
        # The ladder did not run: the guard answered from its reactive path.
        rung, reason = self._ladder_tick or (1, "guard_tripped")
        self.last_tick = (rung, reason, mode)
        return decision

    def _laddered(self, view: ClusterView) -> ProvisioningDecision:
        """What the guard wraps: observe, then the ladder around ``solve``."""
        if self.observe is not None:
            self.observe(view)
        decision = self.ladder.decide(view, lambda: self.solve(view))
        self._ladder_tick = self.ladder.timeline[-1][1:]
        return decision

    def fold_into(self, metrics: SimulationMetrics) -> None:
        """Copy the ladder's timelines and fabric counters onto a run's metrics."""
        metrics.degradation_timeline.extend(self.ladder.timeline)
        fabric = metrics.fabric
        for cell, ticks in sorted(self.ladder.cell_hold_ticks.items()):
            fabric.cell_hold_ticks[str(cell)] = (
                fabric.cell_hold_ticks.get(str(cell), 0) + ticks
            )
        fabric.reconciliations += self.ladder.reconciliations
        fabric.reconciliation_divergence += self.ladder.reconciliation_divergence

    def to_state(self) -> dict:
        """The ``"ladder"`` and ``"guard"`` blocks of a serve checkpoint."""
        return {
            "ladder": self.ladder.to_state(),
            "guard": None if self.guard is None else self.guard.to_state(),
        }

    def restore_state(self, state: dict) -> None:
        self.ladder.restore_state(state["ladder"])
        if self.guard is not None:
            self.guard.restore_state(state["guard"])
