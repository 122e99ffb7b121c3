"""Tests for the energy models, Table II catalog, prices and accounting."""

import pytest

from repro.energy import (
    EnergyMeter,
    LinearPowerModel,
    MachineModel,
    TABLE2_MODELS,
    constant_price,
    google_like_energy_models,
    table2_fleet,
    time_of_use_price,
)
from repro.trace import google_like_machine_census
from tests.conftest import make_task


class TestLinearPowerModel:
    def test_eq7_linearity(self):
        model = LinearPowerModel(idle_watts=100.0, alpha_watts=(80.0, 20.0))
        assert model.power((0.0, 0.0)) == 100.0
        assert model.power((1.0, 1.0)) == 200.0
        assert model.power((0.5, 0.5)) == 150.0
        assert model.peak_watts == 200.0

    def test_energy_kwh(self):
        model = LinearPowerModel(idle_watts=1000.0, alpha_watts=(0.0, 0.0))
        assert model.energy_kwh((0.0, 0.0), 3600.0) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearPowerModel(idle_watts=-1.0)
        with pytest.raises(ValueError):
            LinearPowerModel(idle_watts=1.0, alpha_watts=(-1.0, 0.0))
        model = LinearPowerModel(idle_watts=1.0, alpha_watts=(1.0, 1.0))
        with pytest.raises(ValueError):
            model.power((0.5,))
        with pytest.raises(ValueError):
            model.power((1.5, 0.0))
        with pytest.raises(ValueError):
            model.energy_kwh((0.0, 0.0), -1.0)


class TestTable2Catalog:
    def test_four_models(self):
        assert len(TABLE2_MODELS) == 4
        names = [m.name for m in TABLE2_MODELS]
        assert "HP DL585 G7" in names
        assert "Dell PowerEdge R210" in names

    def test_paper_counts_at_full_scale(self):
        counts = {m.name: m.count for m in TABLE2_MODELS}
        assert counts["Dell PowerEdge R210"] == 7000
        assert counts["Dell PowerEdge R515"] == 1500
        assert counts["HP DL385 G7"] == 1000
        assert counts["HP DL585 G7"] == 500

    def test_normalization_to_dl585(self):
        """'HP DL585 G7 has capacity 1 CPU and 1 memory unit (48 cores, 64 GB)'."""
        dl585 = next(m for m in TABLE2_MODELS if m.name == "HP DL585 G7")
        assert dl585.cpu_capacity == 1.0
        assert dl585.memory_capacity == 1.0
        r210 = next(m for m in TABLE2_MODELS if "R210" in m.name)
        assert r210.cpu_capacity == pytest.approx(4 / 48)
        assert r210.memory_capacity == pytest.approx(4 / 64)

    def test_scale_preserves_proportions(self):
        fleet = table2_fleet(scale=0.1)
        counts = [m.count for m in fleet]
        assert counts == [700, 150, 100, 50]

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            table2_fleet(scale=0.0)

    def test_fig9_efficiency_ordering(self):
        """The Fig. 9 story: DL385 G7 is the most efficient per CPU unit;
        the small R210 is the least; the 4-socket DL585 is capable but
        power-hungry."""
        by_name = {m.name: m for m in TABLE2_MODELS}
        eff = {name: m.efficiency for name, m in by_name.items()}
        assert eff["HP DL385 G7"] == max(eff.values())
        assert eff["Dell PowerEdge R210"] == min(eff.values())
        assert eff["HP DL385 G7"] > eff["HP DL585 G7"]

    def test_can_host_respects_capacity(self):
        r210 = next(m for m in TABLE2_MODELS if "R210" in m.name)
        assert r210.can_host(make_task(cpu=0.05, memory=0.05))
        assert not r210.can_host(make_task(cpu=0.2, memory=0.05))

    def test_can_host_respects_platform_constraint(self):
        r210 = TABLE2_MODELS[0]
        task = make_task(allowed_platforms=frozenset({99}), cpu=0.01, memory=0.01)
        assert not r210.can_host(task)

    def test_to_machine_type_round_trip(self):
        for model in TABLE2_MODELS:
            mt = model.to_machine_type()
            assert mt.platform_id == model.platform_id
            assert mt.cpu_capacity == model.cpu_capacity
            assert mt.count == model.count


class TestGoogleLikeEnergyModels:
    def test_covers_census(self):
        census = google_like_machine_census(500)
        models = google_like_energy_models(census)
        assert len(models) == len(census)
        assert {m.platform_id for m in models} == {m.platform_id for m in census}


class TestPrices:
    def test_constant(self):
        price = constant_price(0.12)
        assert price(0) == 0.12
        assert price(1e6) == 0.12

    def test_time_of_use_bands(self):
        price = time_of_use_price(off_peak=0.07, mid_peak=0.11, on_peak=0.15)
        assert price(3 * 3600) == 0.07      # 03:00
        assert price(9 * 3600) == 0.11      # 09:00
        assert price(13 * 3600) == 0.15     # 13:00
        assert price(22 * 3600) == 0.07     # 22:00
        assert price(27 * 3600) == 0.07     # 03:00 next day

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError):
            constant_price(-0.1)

    def test_series_validation(self):
        price = constant_price()
        with pytest.raises(ValueError):
            price.series(0, 300)


class TestEnergyMeter:
    def _meter(self):
        fleet = table2_fleet(scale=0.1)
        return EnergyMeter(
            models={m.platform_id: m for m in fleet}, price=constant_price(0.1)
        ), fleet

    def test_idle_interval_accounting(self):
        meter, fleet = self._meter()
        record = meter.record_interval(
            time=0.0, seconds=3600.0, platform_id=fleet[0].platform_id,
            active_machines=10, cpu_utilization=0.0, memory_utilization=0.0,
        )
        expected_kwh = 10 * fleet[0].idle_watts / 1000.0
        assert record.energy_kwh == pytest.approx(expected_kwh)
        assert meter.total_energy_cost == pytest.approx(expected_kwh * 0.1)

    def test_switch_cost_accumulates(self):
        meter, fleet = self._meter()
        meter.record_interval(0.0, 300.0, fleet[1].platform_id, 5, 0.5, 0.5, switches=4)
        assert meter.total_switch_cost == pytest.approx(4 * fleet[1].switch_cost)
        assert meter.switch_events == 4
        assert meter.total_cost == meter.total_energy_cost + meter.total_switch_cost

    def test_utilization_clamped(self):
        meter, fleet = self._meter()
        record = meter.record_interval(0.0, 300.0, fleet[0].platform_id, 1, 1.7, -0.2)
        assert record.cpu_utilization == 1.0
        assert record.memory_utilization == 0.0

    def test_timeline_aggregates_platforms(self):
        meter, fleet = self._meter()
        meter.record_interval(0.0, 300.0, fleet[0].platform_id, 2, 0.1, 0.1)
        meter.record_interval(0.0, 300.0, fleet[1].platform_id, 3, 0.1, 0.1)
        meter.record_interval(300.0, 300.0, fleet[0].platform_id, 2, 0.1, 0.1)
        timeline = meter.timeline()
        assert len(timeline) == 2
        assert timeline[0][0] == 0.0

    def test_validation(self):
        meter, fleet = self._meter()
        with pytest.raises(ValueError):
            meter.record_interval(0.0, -1.0, fleet[0].platform_id, 1, 0.0, 0.0)
        with pytest.raises(ValueError):
            meter.record_interval(0.0, 1.0, fleet[0].platform_id, -1, 0.0, 0.0)
        with pytest.raises(ValueError):
            meter.record_interval(0.0, 1.0, fleet[0].platform_id, 1, 0.0, 0.0, switches=-1)
