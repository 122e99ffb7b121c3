"""Additional price-schedule and google-like energy-model tests."""

import numpy as np
import pytest

from repro.energy import (
    PriceSchedule,
    constant_price,
    google_like_energy_models,
    time_of_use_price,
)
from repro.trace import google_like_machine_census


class TestPriceScheduleContract:
    def test_custom_schedule_callable(self):
        schedule = PriceSchedule(fn=lambda t: 0.05 + 0.01 * (t > 100), name="step")
        assert schedule(0) == pytest.approx(0.05)
        assert schedule(200) == pytest.approx(0.06)

    def test_negative_custom_price_rejected_at_call(self):
        schedule = PriceSchedule(fn=lambda t: -1.0, name="bad")
        with pytest.raises(ValueError, match="negative price"):
            schedule(0.0)

    def test_series_length(self):
        series = constant_price(0.1).series(horizon=3600, interval=300)
        assert series.shape == (12,)
        assert np.allclose(series, 0.1)

    def test_tou_continuity_over_midnight(self):
        tou = time_of_use_price()
        # 23:59 and 00:01 are both off-peak.
        assert tou(23.98 * 3600) == tou(0.02 * 3600)


class TestGoogleLikeEnergyModels:
    def test_idle_scales_with_size(self):
        census = google_like_machine_census(200)
        models = google_like_energy_models(census)
        by_platform = {m.platform_id: m for m in models}
        big = by_platform[4]    # 1.0 / 1.0
        small = by_platform[5]  # 0.25 / 0.25
        assert big.idle_watts > small.idle_watts

    def test_power_monotone_in_utilization(self):
        census = google_like_machine_census(200)
        for model in google_like_energy_models(census):
            low = model.power_model.power((0.1, 0.1))
            high = model.power_model.power((0.9, 0.9))
            assert high > low
            assert model.power_model.power((0.0, 0.0)) == pytest.approx(model.idle_watts)

    def test_counts_preserved(self):
        census = google_like_machine_census(200)
        models = google_like_energy_models(census)
        assert [m.count for m in models] == [mt.count for mt in census]
