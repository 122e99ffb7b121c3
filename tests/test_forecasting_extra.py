"""Additional forecasting coverage: forecast_from, order selection, edges."""

import numpy as np
import pytest

from repro.forecasting import ArimaOrder, ArimaPredictor, fit_arima
from repro.forecasting.arima import _ols_ar_fit


def ar1(n=150, phi=0.7, c=3.0, sigma=0.4, seed=2):
    rng = np.random.default_rng(seed)
    x = np.zeros(n)
    for t in range(1, n):
        x[t] = c + phi * x[t - 1] + rng.normal(0, sigma)
    return x


class TestForecastFrom:
    def test_matches_forecast_on_training_data(self):
        series = ar1()
        model = fit_arima(series, (2, 0, 1))
        np.testing.assert_allclose(
            model.forecast(3), model.forecast_from(series, 3), rtol=1e-9
        )

    def test_uses_fresh_observations(self):
        series = ar1()
        model = fit_arima(series[:100], (1, 0, 0))
        fresh = model.forecast_from(series[:120], 1)
        stale = model.forecast(1)
        # With 20 new observations the one-step forecast moves.
        expected = model.intercept + model.phi[0] * series[119]
        assert fresh[0] == pytest.approx(expected, rel=1e-9)
        assert fresh[0] != pytest.approx(stale[0], abs=1e-12) or series[99] == series[119]

    def test_differenced_forecast_from(self):
        t = np.arange(120, dtype=float)
        series = 2.0 * t
        model = fit_arima(series[:100], (0, 1, 0))
        forecast = model.forecast_from(series, 2)
        np.testing.assert_allclose(forecast, [240.0, 242.0], rtol=1e-6)

    def test_too_short_rejected(self):
        model = fit_arima(ar1(50), (1, 1, 0))
        with pytest.raises(ValueError):
            model.forecast_from([1.0], 1)


class TestConditionalSSE:
    def test_level_shift_does_not_kill_phi(self):
        """The regression that motivated conditioning: fitting a window far
        from zero must keep the AR coefficient."""
        series = ar1(phi=0.8, c=2.0) + 0.0  # mean = 10
        window = series[-64:]
        model = fit_arima(window, (1, 0, 0))
        assert model.phi[0] > 0.5

    def test_ols_ar_fit_short_series(self):
        phi, intercept = _ols_ar_fit(np.array([1.0, 2.0]), p=1)
        assert phi.shape == (1,)

    def test_ols_ar_fit_p_zero(self):
        phi, intercept = _ols_ar_fit(np.array([1.0, 2.0, 3.0]), p=0)
        assert phi.size == 0
        assert intercept == pytest.approx(2.0)


class TestArimaPredictorEdges:
    def test_forecast_clamped_to_observed_scale(self):
        predictor = ArimaPredictor(order=(1, 0, 0), window=16, refit_every=1)
        # A pathological ramp that could extrapolate wildly.
        for value in np.geomspace(1, 100, 16):
            predictor.update(value)
        forecast = predictor.forecast(8)
        assert forecast.max() <= 10.0 * 100.0

    def test_window_slides(self):
        predictor = ArimaPredictor(order=(1, 0, 0), window=8, refit_every=1)
        for value in [100.0] * 8 + [1.0] * 8:
            predictor.update(value)
        # The old level is forgotten with the window.
        assert predictor.forecast(1)[0] < 20.0

    def test_order_tuple_accepted(self):
        predictor = ArimaPredictor(order=(1, 1, 0))
        assert predictor.order == ArimaOrder(1, 1, 0)
