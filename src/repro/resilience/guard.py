"""Controller hardening: decision validation and a predictor circuit breaker.

:class:`GuardedController` wraps any cluster :class:`~repro.simulation.cluster.Policy`
and guarantees the decisions the cluster applies are sane even when the
model-predictive core misbehaves:

- **Validation** — a decision with NaN/infinite/negative machine targets is
  discarded and replaced by the last-known-good plan;
- **Clamping** — per-tick machine deltas are limited to a fraction of each
  pool (no fleet-wide flapping on one bad forecast), and targets never
  exceed availability;
- **Solver fallback** — if the wrapped policy raises, the last-known-good
  plan is reapplied (capped by current availability);
- **Circuit breaker** — one-step-ahead forecast residuals are tracked
  against observed arrivals; ``TRIP_AFTER`` consecutive large residuals
  trip the controller into reactive threshold provisioning (a
  :class:`~repro.provisioning.autoscaler.ThresholdAutoscaler` over current
  demand, which needs no forecasts), and ``RECOVER_AFTER`` consecutive
  calm intervals anneal it back to the model-predictive path.  While
  tripped, the ``observe`` hook keeps feeding arrivals to the wrapped
  predictors so they re-converge before control is handed back.

The guard knows nothing about what it wraps beyond ``policy.decide(view)``
and the two optional hooks it is constructed with (``observe(view)``,
``forecast()``); :class:`~repro.simulation.control.ControlPipeline` is what
wires them to a real controller.  No wall clock is read anywhere here: a
decision is a function of the views the guard has seen.

This is the reactive-fallback discipline of Pace et al. (arXiv:1807.00368)
grafted onto HARMONY's Algorithm 1: trust the model when its residuals say
it is tracking reality, fall back to data-driven reactivity when they do
not (monitoring blackouts, regime changes, poisoned telemetry).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

from repro.energy.models import MachineModel
from repro.errors import SolverError
from repro.provisioning.autoscaler import ThresholdAutoscaler
from repro.provisioning.controller import ProvisioningDecision, hold_last_good

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.cluster import ClusterView, Policy


#: Per-tick machine-target delta cap, as a fraction of each pool's size,
#: with a floor of ``MIN_STEP_MACHINES`` so small pools can still move.
MAX_STEP_FRACTION = 0.25
MIN_STEP_MACHINES = 4
#: Relative one-step forecast error (``|observed - predicted| /
#: max(observed, predicted)``) counted as a breaker strike.
RESIDUAL_THRESHOLD = 0.5
#: Absolute error floor (tasks/interval) below which no strike is counted:
#: quiet periods should not trip the breaker.
MIN_RESIDUAL = 5.0
#: Consecutive strikes that open the breaker; consecutive calm intervals
#: that close it again.
TRIP_AFTER = 2
RECOVER_AFTER = 3
#: Smoothing for the fallback self-forecast of total arrivals, used when
#: the guard is given no ``forecast`` hook.
EWMA_ALPHA = 0.3


@dataclass
class GuardStats:
    """What the guard had to do during one run."""

    decisions: int = 0
    invalid_decisions: int = 0
    clamped_decisions: int = 0
    solver_failures: int = 0
    fallback_decisions: int = 0
    trips: int = 0
    recoveries: int = 0
    reactive_ticks: int = 0
    #: Ticks during which a fabric partition held at least one cell's
    #: target at its last-known-good value.
    partition_held_ticks: int = 0


class GuardedController:
    """Wraps a policy; emits only validated, clamped, finite decisions."""

    def __init__(
        self,
        policy: "Policy",
        machine_models: tuple[MachineModel, ...],
        observe: Callable[["ClusterView"], None] | None = None,
        forecast: Callable[[], float] | None = None,
    ) -> None:
        if not machine_models:
            raise ValueError("need at least one machine model")
        self.policy = policy
        #: Feeds a tick's arrivals to the wrapped predictors; called only
        #: while tripped (closed, ``policy.decide`` observes for itself).
        self.observe = observe
        #: The wrapped model's next-interval total arrivals, which the
        #: breaker scores against; without it the guard's own EWMA is used.
        self.forecast = forecast
        self.machine_models = machine_models
        self.fallback = ThresholdAutoscaler(machine_models)
        self.stats = GuardStats()
        self.tripped = False
        #: Structured record of every wrapped-policy failure the guard
        #: absorbed (``stage`` context: decide / observe / forecast), so
        #: fallbacks are diagnosable instead of silently swallowed.
        self.failure_log: list[SolverError] = []
        #: (time, "mpc" | "reactive") per control tick.
        self.mode_timeline: list[tuple[float, str]] = []
        #: Sanitized decisions actually handed to the cluster.
        self.decisions: list[ProvisioningDecision] = []
        self._pool_size = {m.platform_id: m.count for m in machine_models}
        self._last_good: ProvisioningDecision | None = None
        self._predicted_next: float | None = None
        self._ewma_level: float | None = None
        self._strikes = 0
        self._calm = 0

    # --------------------------------------------------------------- decide

    def decide(self, view: "ClusterView") -> ProvisioningDecision:
        observed = float(sum(view.arrivals.values()))
        self._update_breaker(observed)

        if self.tripped:
            self.stats.reactive_ticks += 1
            decision = self.fallback.decide(
                view.time,
                view.demand_cpu,
                view.demand_memory,
                powered=view.powered,
                available=view.available,
            )
            # Keep the wrapped predictors observing so forecasts re-converge
            # before the breaker closes and control is handed back.
            self._feed_inner(view)
        else:
            decision = self._guarded_inner_decide(view)

        decision = self._sanitize(decision, view)
        self.stats.decisions += 1
        self._last_good = decision
        self._refresh_prediction(observed)
        self.mode_timeline.append((view.time, "reactive" if self.tripped else "mpc"))
        self.decisions.append(decision)
        return decision

    # ------------------------------------------------------ solver fallback

    def _guarded_inner_decide(self, view: "ClusterView") -> ProvisioningDecision:
        try:
            return self.policy.decide(view)
        except Exception as exc:
            # Any solver-path failure must be absorbed (that is the guard's
            # contract), but mapped onto the structured taxonomy rather
            # than silently dropped.
            self.failure_log.append(
                SolverError(
                    "wrapped policy decide() failed; reapplying "
                    "last-known-good plan",
                    stage="decide",
                    time=view.time,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            self.stats.solver_failures += 1
            return self._last_good_decision(view)

    def _last_good_decision(self, view: "ClusterView") -> ProvisioningDecision:
        """Reapply the last validated plan (hold current power if none yet)."""
        self.stats.fallback_decisions += 1
        return hold_last_good(self._last_good, view)

    def _feed_inner(self, view: "ClusterView") -> None:
        """Forward observations to the wrapped predictors without deciding."""
        if self.observe is None:
            return
        try:
            self.observe(view)
        except Exception as exc:
            # A failing observer must not break the reactive path, but
            # the failure is recorded, not swallowed.
            self.failure_log.append(
                SolverError(
                    "observe hook failed while tripped",
                    stage="observe",
                    time=view.time,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )

    # ---------------------------------------------------- (de)serialization

    def to_state(self) -> dict:
        """Behavior- and summary-relevant state for serve checkpoints.

        The ``decisions`` report log is excluded (restored runs start it
        empty); everything the breaker, fallback and summary read is kept,
        including the structured failure log.
        """
        from dataclasses import asdict

        return {
            "stats": asdict(self.stats),
            "tripped": self.tripped,
            "failure_log": [
                {"message": e.message, "context": dict(e.context)}
                for e in self.failure_log
            ],
            "mode_timeline": [[t, mode] for t, mode in self.mode_timeline],
            "last_good": None
            if self._last_good is None
            else self._last_good.to_state(),
            "predicted_next": self._predicted_next,
            "ewma_level": self._ewma_level,
            "strikes": self._strikes,
            "calm": self._calm,
            "fallback": self.fallback.to_state(),
        }

    def restore_state(self, state: dict) -> None:
        self.stats = GuardStats(**state["stats"])
        self.tripped = bool(state["tripped"])
        self.failure_log = [
            SolverError(e["message"], **e["context"]) for e in state["failure_log"]
        ]
        self.mode_timeline = [(float(t), str(mode)) for t, mode in state["mode_timeline"]]
        self._last_good = (
            None
            if state["last_good"] is None
            else ProvisioningDecision.from_state(state["last_good"])
        )
        self._predicted_next = (
            None if state["predicted_next"] is None else float(state["predicted_next"])
        )
        self._ewma_level = (
            None if state["ewma_level"] is None else float(state["ewma_level"])
        )
        self._strikes = int(state["strikes"])
        self._calm = int(state["calm"])
        self.fallback.restore_state(state["fallback"])

    # ----------------------------------------------------- circuit breaker

    def _update_breaker(self, observed: float) -> None:
        predicted = self._predicted_next
        if predicted is None:
            return
        residual = abs(observed - predicted)
        scale = max(observed, predicted, 1e-9)
        strike = (
            residual > MIN_RESIDUAL and residual / scale > RESIDUAL_THRESHOLD
        )
        if strike:
            self._strikes += 1
            self._calm = 0
            if not self.tripped and self._strikes >= TRIP_AFTER:
                self.tripped = True
                self.stats.trips += 1
        else:
            self._calm += 1
            self._strikes = 0
            if self.tripped and self._calm >= RECOVER_AFTER:
                self.tripped = False
                self.stats.recoveries += 1

    def _refresh_prediction(self, observed: float) -> None:
        """One-step-ahead total-arrival forecast for the next tick."""
        if self._ewma_level is None:
            self._ewma_level = observed
        else:
            self._ewma_level = (
                EWMA_ALPHA * observed + (1 - EWMA_ALPHA) * self._ewma_level
            )
        predicted = self._inner_forecast()
        self._predicted_next = predicted if predicted is not None else self._ewma_level

    def _inner_forecast(self) -> float | None:
        """Next-interval total arrivals as the wrapped model sees them."""
        if self.forecast is None:
            return None
        try:
            return float(self.forecast())
        except Exception as exc:
            # Fall back to the EWMA self-forecast, but leave a structured
            # trace of why the model's own forecast was unusable.
            self.failure_log.append(
                SolverError(
                    "forecast hook failed; using EWMA self-forecast",
                    stage="forecast",
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            return None

    # ----------------------------------------------------------- sanitizing

    def _sanitize(
        self, decision: ProvisioningDecision, view: "ClusterView"
    ) -> ProvisioningDecision:
        targets: dict[int, float] = {}
        invalid = False
        for model in self.machine_models:
            raw = decision.active.get(model.platform_id, 0)
            value = float(raw)
            if not math.isfinite(value) or value < 0:
                invalid = True
                break
            targets[model.platform_id] = value
        if invalid:
            self.stats.invalid_decisions += 1
            decision = self._last_good_decision(view)
            targets = {
                m.platform_id: float(decision.active.get(m.platform_id, 0))
                for m in self.machine_models
            }

        active: dict[int, int] = {}
        clamped = False
        for model in self.machine_models:
            pid = model.platform_id
            powered = int(view.powered.get(pid, 0))
            step = max(
                MIN_STEP_MACHINES, math.ceil(MAX_STEP_FRACTION * self._pool_size[pid])
            )
            bounded = min(max(int(targets[pid]), powered - step), powered + step)
            bounded = max(0, min(bounded, int(view.available.get(pid, model.count))))
            if bounded != int(targets[pid]):
                clamped = True
            active[pid] = bounded
        if clamped:
            self.stats.clamped_decisions += 1

        # Partition tolerance: a cell the fabric has cut off reports only
        # stale telemetry, so steering it on this tick's decision would be
        # steering on fiction.  Hold each unreachable cell at its
        # last-known-good target (mirroring the degradation ladder's
        # per-cell hold) until the partition heals.
        fabric = getattr(view, "fabric", None)
        if fabric is not None and fabric.unreachable:
            held_source = (
                self._last_good.active if self._last_good is not None else view.powered
            )
            for cell in fabric.unreachable:
                if cell in active:
                    active[cell] = int(held_source.get(cell, active[cell]))
            self.stats.partition_held_ticks += 1
        return replace(decision, time=view.time, active=active)
