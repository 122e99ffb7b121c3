"""Tests for the ARIMA substrate and streaming predictors (Section VI)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.forecasting import (
    ArimaModel,
    ArimaOrder,
    ArimaPredictor,
    EwmaPredictor,
    HoltPredictor,
    MovingAveragePredictor,
    NaivePredictor,
    fit_arima,
    make_predictor,
    predictors,
    rolling_origin_evaluation,
)


def ar1_series(n=300, phi=0.8, c=2.0, sigma=0.5, seed=0):
    rng = np.random.default_rng(seed)
    x = np.zeros(n)
    for t in range(1, n):
        x[t] = c + phi * x[t - 1] + rng.normal(0, sigma)
    return x


class TestArimaOrder:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ArimaOrder(-1, 0, 0)

    def test_null_order_rejected(self):
        with pytest.raises(ValueError):
            ArimaOrder(0, 0, 0)


class TestArimaFit:
    def test_recovers_ar1_coefficient(self):
        series = ar1_series()
        model = fit_arima(series, (1, 0, 0))
        assert model.phi[0] == pytest.approx(0.8, abs=0.1)

    def test_forecast_converges_to_ar1_mean(self):
        series = ar1_series()
        model = fit_arima(series, (1, 0, 0))
        forecast = model.forecast(200)
        assert forecast[-1] == pytest.approx(2.0 / (1 - 0.8), rel=0.15)

    def test_d1_tracks_linear_trend(self):
        t = np.arange(100, dtype=float)
        series = 3.0 * t + 10.0
        model = fit_arima(series, (0, 1, 0))
        forecast = model.forecast(5)
        expected = 3.0 * np.arange(100, 105) + 10.0
        assert np.allclose(forecast, expected, rtol=0.05)

    def test_d2_tracks_quadratic(self):
        t = np.arange(80, dtype=float)
        series = 0.5 * t**2
        model = fit_arima(series, (0, 2, 0))
        forecast = model.forecast(3)
        expected = 0.5 * np.arange(80, 83) ** 2
        assert np.allclose(forecast, expected, rtol=0.1)

    def test_ma_fit_runs(self):
        rng = np.random.default_rng(1)
        e = rng.normal(size=300)
        series = 5.0 + e[1:] + 0.6 * e[:-1]
        model = fit_arima(series, (0, 0, 1))
        assert np.isfinite(np.mean(model.residuals[model.order.p :] ** 2))
        assert abs(model.theta[0]) < 1.5

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            fit_arima([1.0, 2.0], (2, 1, 2))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            fit_arima([1.0, np.nan, 2.0, 3.0, 4.0, 5.0], (1, 0, 0))

    def test_forecast_steps_validated(self):
        model = fit_arima(ar1_series(50), (1, 0, 0))
        with pytest.raises(ValueError):
            model.forecast(0)

    def test_residuals_and_sigma2(self):
        model = fit_arima(ar1_series(), (1, 0, 0))
        sigma2 = np.mean(model.residuals[model.order.p :] ** 2)
        assert sigma2 == pytest.approx(0.25, rel=0.3)  # sigma=0.5

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 50), steps=st.integers(1, 10))
    def test_property_forecast_finite(self, seed, steps):
        series = ar1_series(n=80, seed=seed)
        model = fit_arima(series, (1, 0, 1))
        forecast = model.forecast(steps)
        assert forecast.shape == (steps,)
        assert np.isfinite(forecast).all()


class TestPredictors:
    def test_naive_repeats_last(self):
        p = NaivePredictor()
        p.update(3.0)
        p.update(7.0)
        assert list(p.forecast(3)) == [7.0, 7.0, 7.0]

    def test_naive_empty_forecasts_zero(self):
        assert NaivePredictor().forecast(2).tolist() == [0.0, 0.0]

    def test_moving_average_window(self):
        p = MovingAveragePredictor(window=2)
        for v in (1.0, 2.0, 3.0):
            p.update(v)
        assert p.forecast(1)[0] == pytest.approx(2.5)

    def test_ewma_smoothing(self):
        p = EwmaPredictor(alpha=0.5)
        p.update(0.0)
        p.update(10.0)
        assert p.forecast(1)[0] == pytest.approx(5.0)

    def test_holt_extrapolates_trend(self):
        p = HoltPredictor(alpha=0.8, beta=0.8)
        for v in (1.0, 2.0, 3.0, 4.0, 5.0):
            p.update(v)
        forecast = p.forecast(3)
        assert forecast[2] > forecast[0] > 5.0 * 0.8

    def test_forecasts_never_negative(self):
        for name in ("naive", "moving_average", "ewma", "holt", "arima"):
            p = make_predictor(name)
            for v in (-5.0, -3.0, -4.0, -6.0) * 5:
                p.update(v)
            assert (p.forecast(4) >= 0).all()

    def test_arima_predictor_falls_back_before_warmup(self):
        p = ArimaPredictor(order=(1, 0, 0))
        p.update(4.0)
        assert p.forecast(2).shape == (2,)

    def test_arima_predictor_learns_level(self):
        p = ArimaPredictor(order=(1, 0, 0), window=64, refit_every=4)
        rng = np.random.default_rng(0)
        for _ in range(60):
            p.update(10.0 + rng.normal(0, 0.5))
        assert p.forecast(1)[0] == pytest.approx(10.0, abs=1.5)

    def test_arima_predictor_keeps_model_when_a_refit_fails(self, monkeypatch):
        attempts = []

        def flaky_fit(series, order):
            attempts.append(len(series))
            if len(attempts) == 2:
                raise ValueError("window cannot be fitted")
            return fit_arima(series, order)

        monkeypatch.setattr(predictors, "fit_arima", flaky_fit)
        p = ArimaPredictor(order=(1, 0, 0), window=64, refit_every=4)
        rng = np.random.default_rng(0)
        for _ in range(p.min_observations):
            p.update(10.0 + rng.normal(0, 0.5))
        first_model = p._model
        assert attempts == [12] and first_model is not None
        for update in range(13, 21):
            p.update(10.0 + rng.normal(0, 0.5))
            if 16 <= update < 20:
                # The failed refit neither dropped the coefficients nor
                # turned every following tick into a fit attempt.
                assert p._model is first_model
        assert attempts == [12, 16, 20]
        assert p._model is not first_model

    def test_fallback_chain_uses_primary_when_healthy(self):
        from repro.forecasting import FallbackChainPredictor

        p = FallbackChainPredictor(primary="ewma")
        for v in (4.0, 5.0, 6.0):
            p.update(v)
        forecast = p.forecast(3)
        assert forecast.shape == (3,)
        assert p.rung_counts == {"primary": 1, "seasonal_naive": 0, "last_value": 0}
        assert p.timeline == []

    def test_fallback_chain_degrades_on_broken_primary(self):
        from repro.forecasting import FallbackChainPredictor

        class Broken:
            def update(self, value):
                pass

            def forecast(self, steps):
                raise RuntimeError("solver exploded")

        p = FallbackChainPredictor(primary=Broken(), period=2)
        for v in (3.0, 7.0, 3.0, 7.0):
            p.update(v)
        forecast = p.forecast(2)
        # Seasonal-naive rung: same slot one period ago.
        assert forecast == pytest.approx([3.0, 7.0])
        assert p.rung_counts["seasonal_naive"] == 1
        tick, rung, reason = p.timeline[0]
        assert (rung, reason) == (1, "RuntimeError")

    def test_fallback_chain_bottoms_out_at_last_value(self):
        from repro.forecasting import FallbackChainPredictor

        class NaNPredictor:
            def update(self, value):
                pass

            def forecast(self, steps):
                return np.full(steps, np.nan)

        p = FallbackChainPredictor(primary=NaNPredictor(), period=4)
        p._seasonal = NaNPredictor()  # both upper rungs emit garbage
        p.update(5.0)
        forecast = p.forecast(3)
        assert forecast == pytest.approx([5.0, 5.0, 5.0])
        assert p.rung_counts["last_value"] == 1
        assert p.timeline[-1][1] == 2

    def test_fallback_chain_survives_poisoned_observation(self):
        from repro.forecasting import FallbackChainPredictor

        p = FallbackChainPredictor(primary="naive")
        p.update(4.0)
        p.update(float("nan"))
        forecast = p.forecast(2)
        assert np.isfinite(forecast).all()
        assert any(reason == "nonfinite_observation" for _, _, reason in p.timeline)

    def test_fallback_registered_in_factory(self):
        from repro.forecasting import FallbackChainPredictor

        assert isinstance(make_predictor("fallback"), FallbackChainPredictor)

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown predictor"):
            make_predictor("oracle")

    def test_factory_kwargs(self):
        p = make_predictor("ewma", alpha=0.9)
        assert isinstance(p, EwmaPredictor)
        assert p.alpha == 0.9

    def test_bad_params(self):
        with pytest.raises(ValueError):
            EwmaPredictor(alpha=0.0)
        with pytest.raises(ValueError):
            MovingAveragePredictor(window=0)
        with pytest.raises(ValueError):
            HoltPredictor(alpha=2.0)
        with pytest.raises(ValueError):
            ArimaPredictor(window=2)
        with pytest.raises(ValueError):
            ArimaPredictor(refit_every=0)


class TestEvaluation:
    def test_arima_beats_naive_on_ar1(self):
        series = ar1_series(n=200)
        naive = rolling_origin_evaluation(series, NaivePredictor, warmup=20)
        arima = rolling_origin_evaluation(
            series, lambda: ArimaPredictor(order=(1, 0, 0), window=64), warmup=20
        )
        assert arima.rmse < naive.rmse

    def test_score_fields(self):
        score = rolling_origin_evaluation(ar1_series(100), NaivePredictor)
        assert score.num_forecasts > 0
        assert score.mae <= score.rmse + 1e-9

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            rolling_origin_evaluation([1.0, 2.0], NaivePredictor, warmup=5)
