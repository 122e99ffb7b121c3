"""Frozen oracle for ``tests/test_arima_kernel.py``.

The ARIMA conditional-sum-of-squares fit as it stood before the float-list
kernel, copied statement for statement: the residual recursion over numpy
scalars, an ``optimize.minimize`` call that leaves the gradient to scipy's
own ``'2-point'`` finite differences (``jac`` unset), and the forecast
recursion indexing numpy scalars.  ``repro.forecasting.arima`` must
reproduce every bit of what this module computes, because the simulation
digests are functions of those bits.  Do not "improve" it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize

from repro.forecasting.arima import _ols_ar_fit


def css_residuals(
    w: np.ndarray, phi: np.ndarray, theta: np.ndarray, intercept: float
) -> np.ndarray:
    """One-step residuals of an ARMA recursion (pre-sample terms = 0)."""
    p, q = len(phi), len(theta)
    n = len(w)
    residuals = np.zeros(n)
    for t in range(n):
        prediction = intercept
        for i in range(min(p, t)):
            prediction += phi[i] * w[t - 1 - i]
        for j in range(min(q, t)):
            prediction += theta[j] * residuals[t - 1 - j]
        residuals[t] = w[t] - prediction
    return residuals


def difference(series: np.ndarray, d: int) -> tuple[np.ndarray, list[float]]:
    """The d-times-differenced series and the last value at each level."""
    w = np.asarray(series, dtype=float)
    tails: list[float] = []
    for _ in range(d):
        tails.append(float(w[-1]))
        w = np.diff(w)
    return w, tails


def fit_css(
    series: np.ndarray, order: tuple[int, int, int]
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """``(intercept, phi, theta, residuals)`` of the reference fit."""
    p, d, q = order
    w, _ = difference(series, d)
    phi0, intercept0 = _ols_ar_fit(w, p)
    x0 = np.concatenate([[intercept0], phi0, np.zeros(q)])

    def objective(params: np.ndarray) -> float:
        intercept = params[0]
        phi = params[1 : 1 + p]
        theta = params[1 + p :]
        with np.errstate(over="ignore", invalid="ignore"):
            residuals = css_residuals(w, phi, theta, intercept)
            tail = residuals[p:]
            sse = float(tail @ tail)
        if not math.isfinite(sse):
            return 1e30
        return sse

    if p + q > 0:
        solution = optimize.minimize(objective, x0, method="L-BFGS-B")
        params = solution.x
    else:
        params = x0
    intercept = float(params[0])
    phi = np.asarray(params[1 : 1 + p], dtype=float)
    theta = np.asarray(params[1 + p :], dtype=float)
    return intercept, phi, theta, css_residuals(w, phi, theta, intercept)


def forecast(
    series: np.ndarray,
    order: tuple[int, int, int],
    intercept: float,
    phi: np.ndarray,
    theta: np.ndarray,
    steps: int,
) -> np.ndarray:
    """Reference ``forecast_from``: numpy-scalar recursion, then undifference."""
    p, d, q = order
    w, tails = difference(series, d)
    history = list(w)
    shocks = list(css_residuals(w, phi, theta, intercept))
    predictions = []
    for _ in range(steps):
        value = intercept
        for i in range(p):
            if len(history) > i:
                value += phi[i] * history[-1 - i]
        for j in range(q):
            if len(shocks) > j:
                value += theta[j] * shocks[-1 - j]
        predictions.append(value)
        history.append(value)
        shocks.append(0.0)
    result = np.asarray(predictions)
    for last in reversed(tails):
        result = last + np.cumsum(result)
    return result
