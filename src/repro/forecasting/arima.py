"""ARIMA(p, d, q) from scratch.

The model for the d-times-differenced series ``w_t`` is

    w_t = c + sum_i phi_i w_{t-i} + sum_j theta_j e_{t-j} + e_t

Fitting minimizes the conditional sum of squares (CSS) of the one-step
residuals ``e_t`` with scipy's L-BFGS, seeded from an OLS autoregression.
Forecasting iterates the recursion with future shocks set to zero and then
inverts the differencing.  This matches the classic Box-Jenkins treatment the
paper cites [7] closely enough for arrival-rate prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize


#: Forward-difference steps of the CSS gradient (see ``fit_arima``): L-BFGS-B's
#: absolute ``eps``, and the relative step scipy takes where ``x + eps == x``.
_FD_STEP = 1e-8
_FD_RELATIVE_STEP = float(np.finfo(np.float64).eps) ** 0.5


@dataclass(frozen=True)
class ArimaOrder:
    """(p, d, q) hyper-parameters."""

    p: int
    d: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 0 or self.d < 0 or self.q < 0:
            raise ValueError(f"ARIMA order components must be >= 0, got {self}")
        if self.p == 0 and self.q == 0 and self.d == 0:
            raise ValueError("ARIMA(0,0,0) has no structure to fit")


def _diff_with_tails(series: np.ndarray, d: int) -> tuple[np.ndarray, tuple[float, ...]]:
    """Difference ``d`` times; ``tails[i]`` is the last value of the
    i-times-differenced series, which :func:`_undifference` inverts from."""
    tails: list[float] = []
    for _ in range(d):
        tails.append(float(series[-1]))
        series = np.diff(series)
    return series, tuple(tails)


def _undifference(forecast: np.ndarray, tails: list[float]) -> np.ndarray:
    """Invert differencing given the last observed value at each level.

    ``tails[i]`` is the last value of the i-times-differenced series.
    """
    result = forecast
    for last in reversed(tails):
        result = last + np.cumsum(result)
    return result


def _css_residuals(
    w: np.ndarray, phi: list[float], theta: list[float], intercept: float
) -> np.ndarray:
    """One-step residuals of an ARMA recursion (pre-sample terms = 0).

    Runs on Python floats, not numpy scalars.  Each prediction is summed left
    to right as ``intercept``, ``phi[0]*w[t-1]``, ..., ``theta[0]*e[t-1]``, ...:
    the fitted bits, and through them the simulation digests, hang on that order.
    """
    p, q = len(phi), len(theta)
    n = len(w)
    values = w.tolist()
    residuals: list[float] = []
    # Truncated history: fewer than p (or q) earlier terms exist.
    burn_in = min(max(p, q), n)
    for t in range(burn_in):
        prediction = intercept
        for i in range(min(p, t)):
            prediction += phi[i] * values[t - 1 - i]
        for j in range(min(q, t)):
            prediction += theta[j] * residuals[t - 1 - j]
        residuals.append(values[t] - prediction)
    if burn_in == n:
        return np.array(residuals)
    # Full history: the AR partial sum does not feed back, so it is the same
    # left-to-right sum taken elementwise over shifted slices of w.
    if p:
        ar = intercept + phi[0] * w[burn_in - 1 : n - 1]
        for i in range(1, p):
            ar += phi[i] * w[burn_in - 1 - i : n - 1 - i]
    else:
        ar = np.full(n - burn_in, intercept)
    if q == 0:
        return np.concatenate([residuals, w[burn_in:] - ar])
    if q == 1:  # the default order's path: one multiply-add per step
        theta0, previous = theta[0], residuals[-1]
        for value, prediction in zip(values[burn_in:], ar.tolist()):
            previous = value - (prediction + theta0 * previous)
            residuals.append(previous)
        return np.array(residuals)
    for t, prediction in enumerate(ar.tolist(), start=burn_in):
        for j in range(q):
            prediction += theta[j] * residuals[t - 1 - j]
        residuals.append(values[t] - prediction)
    return np.array(residuals)


def _ols_ar_fit(w: np.ndarray, p: int) -> tuple[np.ndarray, float]:
    """Least-squares AR(p) fit used as the optimizer's starting point."""
    n = len(w)
    if p == 0 or n <= p + 1:
        return np.zeros(p), float(w.mean()) if n else 0.0
    rows = n - p
    design = np.ones((rows, p + 1))
    for i in range(p):
        design[:, i + 1] = w[p - 1 - i : n - 1 - i]
    target = w[p:]
    coefficients, *_ = np.linalg.lstsq(design, target, rcond=None)
    return coefficients[1:], float(coefficients[0])


@dataclass(frozen=True)
class ArimaModel:
    """A fitted ARIMA model.

    Use :func:`fit_arima` to construct; :meth:`forecast` produces point
    forecasts on the original (undifferenced) scale.
    """

    order: ArimaOrder
    phi: np.ndarray
    theta: np.ndarray
    intercept: float
    #: The d-times-differenced training series.
    w: np.ndarray
    #: In-sample residuals on the differenced scale.
    residuals: np.ndarray
    #: Last observed value of the series at each differencing level
    #: (level 0 = original series, ... level d-1).
    diff_tails: tuple[float, ...]

    def forecast(self, steps: int) -> np.ndarray:
        """Point forecast ``steps`` ahead on the original scale."""
        return self._forecast_core(steps, self.w, self.residuals, self.diff_tails)

    def forecast_from(self, series: np.ndarray | list[float], steps: int) -> np.ndarray:
        """Forecast from *fresh* observations using the fitted parameters.

        Re-runs the residual recursion over ``series`` (cheap: O(n(p+q)))
        so a streaming predictor can forecast from the latest data without
        refitting.  ``series`` is on the original scale.
        """
        series = np.asarray(series, dtype=float)
        if series.size < self.order.d + 1:
            raise ValueError(
                f"need at least {self.order.d + 1} observations, got {series.size}"
            )
        w, tails = _diff_with_tails(series, self.order.d)
        residuals = _css_residuals(
            w, self.phi.tolist(), self.theta.tolist(), self.intercept
        )
        return self._forecast_core(steps, w, residuals, tails)

    def _forecast_core(
        self,
        steps: int,
        w: np.ndarray,
        residuals: np.ndarray,
        diff_tails: tuple[float, ...],
    ) -> np.ndarray:
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        phi, theta = self.phi.tolist(), self.theta.tolist()
        history = w.tolist()
        shocks = residuals.tolist()
        predictions = []
        for _ in range(steps):
            value = self.intercept
            for i in range(min(len(phi), len(history))):
                value += phi[i] * history[-1 - i]
            for j in range(min(len(theta), len(shocks))):
                value += theta[j] * shocks[-1 - j]
            predictions.append(value)
            history.append(value)
            shocks.append(0.0)  # future shocks have zero expectation
        forecast_w = np.asarray(predictions)
        if self.order.d == 0:
            return forecast_w
        return _undifference(forecast_w, list(diff_tails))


def fit_arima(
    series: np.ndarray | list[float],
    order: ArimaOrder | tuple[int, int, int] = (1, 0, 0),
) -> ArimaModel:
    """Fit ARIMA by conditional sum of squares.

    Parameters
    ----------
    series:
        Observations on the original scale (length must exceed
        ``p + d + q + 1``).
    order:
        ``(p, d, q)`` or an :class:`ArimaOrder`.
    """
    if not isinstance(order, ArimaOrder):
        order = ArimaOrder(*order)
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ValueError(f"series must be 1-D, got shape {series.shape}")
    if not np.isfinite(series).all():
        raise ValueError("series contains NaN or infinite values")
    min_length = order.p + order.d + order.q + 2
    if series.size < min_length:
        raise ValueError(
            f"need at least {min_length} observations for ARIMA{order}, "
            f"got {series.size}"
        )

    w, tails = _diff_with_tails(series, order.d)
    p, q = order.p, order.q
    phi0, intercept0 = _ols_ar_fit(w, p)
    x0 = np.concatenate([[intercept0], phi0, np.zeros(q)])

    def sse(params: list[float]) -> float:
        residuals = _css_residuals(w, params[1 : 1 + p], params[1 + p :], params[0])
        # *Conditional* sum of squares: the first p residuals have a
        # truncated AR history (pre-sample terms are zero) and would
        # otherwise dominate the fit whenever the series level is far
        # from zero, dragging phi toward zero.
        tail = residuals[p:]
        total = float(tail @ tail)
        # Explosive (non-stationary/non-invertible) parameter regions can
        # overflow the recursion; steer the optimizer away with a large
        # finite penalty instead of propagating inf/NaN.
        return total if math.isfinite(total) else 1e30

    def sse_and_gradient(x: np.ndarray) -> tuple[float, np.ndarray]:
        # The forward difference scipy's unbounded L-BFGS-B takes when `jac`
        # is unset ('2-point'): same steps, same quotients, same iterates.
        params = x.tolist()
        base = sse(params)
        gradient = []
        for i, value in enumerate(params):
            stepped = value + _FD_STEP
            if stepped == value:
                step = _FD_RELATIVE_STEP * max(1.0, abs(value))
                stepped = value + (step if value >= 0 else -step)
            params[i] = stepped
            gradient.append((sse(params) - base) / (stepped - value))
            params[i] = value
        return base, np.array(gradient)

    params = x0
    if p + q > 0:
        # scipy charges its finite-difference evaluations to L-BFGS-B's
        # budget of 15000 (`maxfun`); one call here makes 1 + len(x0) of
        # them, so the budget is divided to give up at the same iterate.
        options = {"maxfun": 15000 // (1 + len(x0))}
        # The AR slices of explosive trial parameters overflow, by design.
        with np.errstate(over="ignore", invalid="ignore"):
            params = optimize.minimize(
                sse_and_gradient, x0, jac=True, method="L-BFGS-B", options=options
            ).x
    intercept = float(params[0])
    phi = np.asarray(params[1 : 1 + p], dtype=float)
    theta = np.asarray(params[1 + p :], dtype=float)
    residuals = _css_residuals(w, phi.tolist(), theta.tolist(), intercept)

    return ArimaModel(
        order=order,
        phi=phi,
        theta=theta,
        intercept=intercept,
        w=w,
        residuals=residuals,
        diff_tails=tails,
    )
