"""Workload prediction substrate (Section VI).

The paper forecasts per-class task arrival rates with an ARIMA model.  No
time-series library is assumed: :mod:`repro.forecasting.arima` implements
ARIMA(p, d, q) from scratch (differencing + conditional-sum-of-squares fit),
and :mod:`repro.forecasting.predictors` wraps it — along with naive, moving
average, EWMA and Holt baselines — behind a streaming ``update/forecast``
interface the controller consumes.
"""

from repro.forecasting.arima import ArimaModel, ArimaOrder, fit_arima
from repro.forecasting.predictors import (
    Predictor,
    NaivePredictor,
    MovingAveragePredictor,
    EwmaPredictor,
    HoltPredictor,
    ArimaPredictor,
    FallbackChainPredictor,
    make_predictor,
)
from repro.forecasting.seasonal import SeasonalNaivePredictor, SeasonalEwmaPredictor
from repro.forecasting.evaluation import ForecastScore, rolling_origin_evaluation

__all__ = [
    "ArimaModel",
    "ArimaOrder",
    "fit_arima",
    "Predictor",
    "NaivePredictor",
    "MovingAveragePredictor",
    "EwmaPredictor",
    "HoltPredictor",
    "ArimaPredictor",
    "FallbackChainPredictor",
    "SeasonalNaivePredictor",
    "SeasonalEwmaPredictor",
    "make_predictor",
    "ForecastScore",
    "rolling_origin_evaluation",
]
