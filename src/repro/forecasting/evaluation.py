"""Rolling-origin forecast evaluation.

Used by tests and the predictor ablation bench to compare ARIMA against the
baseline predictors on the same arrival series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.forecasting.predictors import Predictor


@dataclass(frozen=True)
class ForecastScore:
    """One-step-ahead accuracy over a rolling evaluation."""

    mae: float
    rmse: float
    mape: float
    num_forecasts: int


def rolling_origin_evaluation(
    series: np.ndarray | list[float],
    predictor_factory: Callable[[], Predictor],
    warmup: int = 12,
) -> ForecastScore:
    """Feed the series one value at a time; score one-step-ahead forecasts.

    The first ``warmup`` observations only train the predictor; forecasts
    made after that point are compared to the next actual value.
    """
    series = np.asarray(series, dtype=float)
    if series.size <= warmup + 1:
        raise ValueError(
            f"series of length {series.size} too short for warmup {warmup}"
        )
    predictor = predictor_factory()
    errors = []
    actuals = []
    for t in range(series.size - 1):
        predictor.update(series[t])
        if t + 1 <= warmup:
            continue
        prediction = float(predictor.forecast(1)[0])
        actual = float(series[t + 1])
        errors.append(prediction - actual)
        actuals.append(actual)
    errors_arr = np.asarray(errors)
    actuals_arr = np.asarray(actuals)
    nonzero = np.abs(actuals_arr) > 1e-9
    mape = (
        float(np.mean(np.abs(errors_arr[nonzero] / actuals_arr[nonzero])))
        if nonzero.any()
        else float("nan")
    )
    return ForecastScore(
        mae=float(np.mean(np.abs(errors_arr))),
        rmse=float(np.sqrt(np.mean(errors_arr**2))),
        mape=mape,
        num_forecasts=len(errors),
    )
