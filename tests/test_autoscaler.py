"""Tests for the reactive threshold autoscaler."""

import pytest

from repro.energy import table2_fleet
from repro.provisioning import ThresholdAutoscaler
from repro.provisioning.autoscaler import HIGH_WATERMARK, LOW_WATERMARK


@pytest.fixture()
def autoscaler():
    return ThresholdAutoscaler(table2_fleet(0.1))


class TestThresholdAutoscaler:
    def test_cold_start_boots_one_step(self, autoscaler):
        decision = autoscaler.decide(0.0, demand_cpu=5.0, demand_memory=5.0)
        assert decision.total_active() >= 1
        assert decision.quotas is None

    def test_zero_demand_stays_off(self, autoscaler):
        decision = autoscaler.decide(0.0, demand_cpu=0.0, demand_memory=0.0)
        assert decision.total_active() == 0

    def test_scales_up_under_pressure(self, autoscaler):
        previous = 0
        for tick in range(12):
            decision = autoscaler.decide(tick * 300.0, demand_cpu=40.0, demand_memory=40.0)
        assert decision.total_active() > 10
        # Capacity eventually covers demand below the high watermark.
        cpu, mem = autoscaler._capacity_of(autoscaler._target_total, None)
        assert max(40.0 / cpu, 40.0 / mem) <= HIGH_WATERMARK + 0.15

    def test_scales_down_when_idle(self, autoscaler):
        for tick in range(12):
            autoscaler.decide(tick * 300.0, demand_cpu=40.0, demand_memory=40.0)
        high = autoscaler._target_total
        for tick in range(12, 40):
            decision = autoscaler.decide(tick * 300.0, demand_cpu=1.0, demand_memory=1.0)
        assert autoscaler._target_total < high

    def test_hysteresis_band_is_stable(self, autoscaler):
        """Within the band, the target does not oscillate."""
        for tick in range(15):
            autoscaler.decide(tick * 300.0, demand_cpu=30.0, demand_memory=30.0)
        stable = autoscaler._target_total
        for tick in range(15, 20):
            autoscaler.decide(tick * 300.0, demand_cpu=30.0, demand_memory=30.0)
            # Utilization sits inside (low, high): no movement.
            cpu, mem = autoscaler._capacity_of(stable, None)
            util = max(30.0 / cpu, 30.0 / mem)
            if LOW_WATERMARK < util < HIGH_WATERMARK:
                assert autoscaler._target_total == stable

    def test_efficiency_order_fill(self, autoscaler):
        for tick in range(6):
            decision = autoscaler.decide(tick * 300.0, demand_cpu=20.0, demand_memory=10.0)
        # DL385 (platform 3) is the most efficient and fills first.
        assert decision.active[3] > 0

    def test_respects_availability(self):
        autoscaler = ThresholdAutoscaler(table2_fleet(0.1))
        available = {m.platform_id: 1 for m in table2_fleet(0.1)}
        for tick in range(20):
            decision = autoscaler.decide(
                tick * 300.0, demand_cpu=100.0, demand_memory=100.0, available=available
            )
        assert decision.total_active() <= 4

    def test_negative_demand_rejected(self, autoscaler):
        with pytest.raises(ValueError):
            autoscaler.decide(0.0, demand_cpu=-1.0, demand_memory=0.0)

    def test_end_to_end_policy(self, tiny_trace):
        from repro.simulation import HarmonyConfig, HarmonySimulation

        config = HarmonyConfig(policy="threshold", classifier_sample=1000)
        result = HarmonySimulation(config, tiny_trace).run()
        assert result.metrics.num_scheduled > 0.5 * tiny_trace.num_tasks
        assert len(result.decisions) > 0
