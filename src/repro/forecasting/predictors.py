"""Streaming arrival-rate predictors.

The controller observes one arrival count per control interval per task
class and needs forecasts for the next W intervals (Algorithm 1, line 4).
Every predictor implements the same two-method protocol:

- ``update(value)``  -- feed the latest observation;
- ``forecast(steps)`` -- non-negative point forecasts for the next ``steps``.

:class:`ArimaPredictor` is the paper's choice; the others serve as ablation
baselines (the ``predictor_*`` scenarios of ``repro bench ablation``).
"""

from __future__ import annotations

from collections import deque
from typing import Protocol, runtime_checkable

import numpy as np

from repro.forecasting.arima import ArimaOrder, fit_arima


@runtime_checkable
class Predictor(Protocol):
    """Streaming forecaster protocol."""

    def update(self, value: float) -> None:
        """Observe the latest interval's value."""

    def forecast(self, steps: int) -> np.ndarray:
        """Non-negative point forecasts for the next ``steps`` intervals."""


class NaivePredictor:
    """Forecasts the last observed value (random-walk forecast)."""

    def __init__(self) -> None:
        self._last = 0.0

    def update(self, value: float) -> None:
        self._last = float(value)

    def forecast(self, steps: int) -> np.ndarray:
        _check_steps(steps)
        return np.full(steps, max(self._last, 0.0))


class MovingAveragePredictor:
    """Forecasts the mean of the last ``window`` observations."""

    def __init__(self, window: int = 6) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._values: deque[float] = deque(maxlen=window)

    def update(self, value: float) -> None:
        self._values.append(float(value))

    def forecast(self, steps: int) -> np.ndarray:
        _check_steps(steps)
        level = float(np.mean(self._values)) if self._values else 0.0
        return np.full(steps, max(level, 0.0))


class EwmaPredictor:
    """Exponentially weighted moving average (simple exponential smoothing)."""

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._level: float | None = None

    def update(self, value: float) -> None:
        value = float(value)
        if self._level is None:
            self._level = value
        else:
            self._level = self.alpha * value + (1 - self.alpha) * self._level

    def forecast(self, steps: int) -> np.ndarray:
        _check_steps(steps)
        level = self._level if self._level is not None else 0.0
        return np.full(steps, max(level, 0.0))

    def to_state(self) -> dict:
        """Serve-checkpoint encoding (level only; alpha is config)."""
        return {"level": self._level}

    def restore_state(self, state: dict) -> None:
        self._level = None if state["level"] is None else float(state["level"])


class HoltPredictor:
    """Holt's linear (double exponential) smoothing: level + trend."""

    def __init__(self, alpha: float = 0.4, beta: float = 0.1) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not 0 < beta <= 1:
            raise ValueError(f"beta must be in (0, 1], got {beta}")
        self.alpha = alpha
        self.beta = beta
        self._level: float | None = None
        self._trend = 0.0

    def update(self, value: float) -> None:
        value = float(value)
        if self._level is None:
            self._level = value
            self._trend = 0.0
            return
        previous_level = self._level
        self._level = self.alpha * value + (1 - self.alpha) * (previous_level + self._trend)
        self._trend = self.beta * (self._level - previous_level) + (1 - self.beta) * self._trend

    def forecast(self, steps: int) -> np.ndarray:
        _check_steps(steps)
        level = self._level if self._level is not None else 0.0
        horizon = np.arange(1, steps + 1)
        return np.maximum(level + self._trend * horizon, 0.0)


class ArimaPredictor:
    """The paper's ARIMA arrival predictor (Section VI).

    Keeps a sliding window of observations, refits every ``refit_every``
    updates, and falls back to EWMA while the window is too short for the
    requested order.
    """

    def __init__(
        self,
        order: ArimaOrder | tuple[int, int, int] = (2, 0, 1),
        window: int = 96,
        refit_every: int = 4,
        fallback_alpha: float = 0.3,
    ) -> None:
        if not isinstance(order, ArimaOrder):
            order = ArimaOrder(*order)
        if window < 8:
            raise ValueError(f"window must be >= 8, got {window}")
        if refit_every < 1:
            raise ValueError(f"refit_every must be >= 1, got {refit_every}")
        self.order = order
        self.window = window
        self.refit_every = refit_every
        self._values: deque[float] = deque(maxlen=window)
        self._since_refit = 0
        self._model = None
        self._fallback = EwmaPredictor(alpha=fallback_alpha)

    @property
    def min_observations(self) -> int:
        """Observations needed before ARIMA fitting is attempted."""
        return max(self.order.p + self.order.d + self.order.q + 2, 12)

    def update(self, value: float) -> None:
        self._values.append(float(value))
        self._fallback.update(value)
        self._since_refit += 1
        if (
            len(self._values) >= self.min_observations
            and (self._model is None or self._since_refit >= self.refit_every)
        ):
            self._since_refit = 0
            try:
                self._model = fit_arima(np.asarray(self._values), self.order)
            except (ValueError, np.linalg.LinAlgError):
                pass  # keep the last good model; retry on the refit cadence

    def forecast(self, steps: int) -> np.ndarray:
        _check_steps(steps)
        if self._model is None:
            return self._fallback.forecast(steps)
        # Forecast from the *current* window with the fitted parameters —
        # the model itself may be a few observations old (refit_every).
        try:
            prediction = self._model.forecast_from(np.asarray(self._values), steps)
        except ValueError:
            prediction = self._model.forecast(steps)
        if not np.isfinite(prediction).all():
            return self._fallback.forecast(steps)
        # A borderline non-stationary fit can forecast absurd magnitudes;
        # clamp to a sane multiple of what has actually been observed.
        ceiling = max(10.0 * max(self._values, default=0.0), 10.0)
        return np.clip(prediction, 0.0, ceiling)


class FallbackChainPredictor:
    """Stage-health guard around any primary predictor (rungs like the ladder).

    The control-plane `DegradationLadder` keeps *decisions* coming when the
    solver dies; this is the analogous ladder for *forecasts*.  Every
    ``forecast()`` walks three rungs and returns the first usable output:

    | rung | name | source |
    |---|---|---|
    | 0 | ``primary`` | the wrapped predictor (ARIMA by default) |
    | 1 | ``seasonal_naive`` | same interval one period ago |
    | 2 | ``last_value`` | the last observation, held flat |

    A rung fails when it raises or emits a forecast with the wrong shape,
    NaN/Inf, or negative entries.  Degraded forecasts are recorded as
    ``(tick, rung, reason)`` on :attr:`timeline` — the same shape as the
    simulator's ``degradation_timeline`` — and tallied in
    :attr:`rung_counts`, which ``summary()["resilience"]["data_plane"]``
    aggregates per class.
    """

    RUNGS = ("primary", "seasonal_naive", "last_value")

    def __init__(self, primary: "Predictor | str | None" = None, period: int = 288) -> None:
        from repro.forecasting.seasonal import SeasonalNaivePredictor

        if primary is None:
            primary = ArimaPredictor()
        elif isinstance(primary, str):
            primary = make_predictor(primary)
        self.primary = primary
        self._seasonal = SeasonalNaivePredictor(period=period)
        self._last = 0.0
        self._tick = 0
        self._pending_reason: str | None = None
        self.timeline: list[tuple[int, int, str]] = []
        self.rung_counts: dict[str, int] = {name: 0 for name in self.RUNGS}

    def update(self, value: float) -> None:
        value = float(value)
        if not np.isfinite(value) or value < 0:
            # A poisoned observation must not corrupt every rung; feed the
            # last sane level instead and let the forecast path log it.
            self._pending_reason = "nonfinite_observation"
            value = self._last
        try:
            self.primary.update(value)
        except Exception as exc:  # a broken primary must not kill the stream
            self._pending_reason = _failure_reason(exc)
        self._seasonal.update(value)
        self._last = max(value, 0.0)
        self._tick += 1

    def forecast(self, steps: int) -> np.ndarray:
        _check_steps(steps)
        reason = self._pending_reason
        self._pending_reason = None
        if reason is None:
            try:
                prediction = np.asarray(self.primary.forecast(steps), dtype=float)
                if _usable(prediction, steps):
                    self._record(0, "ok")
                    return prediction
                reason = "nonfinite_forecast"
            except Exception as exc:
                reason = _failure_reason(exc)
        try:
            prediction = np.asarray(self._seasonal.forecast(steps), dtype=float)
            if _usable(prediction, steps):
                self._record(1, reason)
                return prediction
        except Exception as exc:
            reason = _failure_reason(exc)
        self._record(2, reason)
        return np.full(steps, self._last)

    def _record(self, rung: int, reason: str) -> None:
        self.rung_counts[self.RUNGS[rung]] += 1
        if rung > 0:
            self.timeline.append((self._tick, rung, reason))

    # ---------------------------------------------------- (de)serialization

    def to_state(self) -> dict:
        """Serve-checkpoint encoding of the whole chain.

        Requires a primary that itself implements ``to_state`` /
        ``restore_state`` (the serve daemon uses :class:`EwmaPredictor`);
        a primary without the seam raises so the gap is loud, not silent.
        """
        to_state = getattr(self.primary, "to_state", None)
        if to_state is None:
            raise TypeError(
                f"primary {type(self.primary).__name__} does not implement "
                "to_state(); cannot checkpoint this chain"
            )
        return {
            "primary": to_state(),
            "seasonal": self._seasonal.to_state(),
            "last": self._last,
            "tick": self._tick,
            "pending_reason": self._pending_reason,
            "timeline": [list(entry) for entry in self.timeline],
            "rung_counts": dict(self.rung_counts),
        }

    def restore_state(self, state: dict) -> None:
        self.primary.restore_state(state["primary"])
        self._seasonal.restore_state(state["seasonal"])
        self._last = float(state["last"])
        self._tick = int(state["tick"])
        self._pending_reason = state["pending_reason"]
        self.timeline = [
            (int(t), int(rung), str(reason)) for t, rung, reason in state["timeline"]
        ]
        self.rung_counts = {str(k): int(v) for k, v in state["rung_counts"].items()}


def _usable(prediction: np.ndarray, steps: int) -> bool:
    return (
        prediction.shape == (steps,)
        and bool(np.isfinite(prediction).all())
        and bool((prediction >= 0).all())
    )


def _failure_reason(exc: Exception) -> str:
    return getattr(exc, "code", None) or type(exc).__name__


def _predictor_registry() -> dict:
    # Imported lazily to avoid a circular import (seasonal uses _check_steps).
    from repro.forecasting.seasonal import (
        SeasonalEwmaPredictor,
        SeasonalNaivePredictor,
    )

    return {
        "naive": NaivePredictor,
        "moving_average": MovingAveragePredictor,
        "ewma": EwmaPredictor,
        "holt": HoltPredictor,
        "arima": ArimaPredictor,
        "seasonal_naive": SeasonalNaivePredictor,
        "seasonal_ewma": SeasonalEwmaPredictor,
        "fallback": FallbackChainPredictor,
    }


def make_predictor(name: str, **kwargs) -> Predictor:
    """Factory: ``make_predictor("arima", order=(2, 0, 1))``."""
    registry = _predictor_registry()
    try:
        cls = registry[name]
    except KeyError:
        raise ValueError(
            f"unknown predictor {name!r}; choose from {sorted(registry)}"
        ) from None
    return cls(**kwargs)


def _check_steps(steps: int) -> None:
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
