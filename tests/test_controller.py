"""Tests for the MPC controller (Algorithm 1), CBP and the baseline."""

from collections import Counter

import numpy as np
import pytest

from repro.containers import ContainerManagerConfig, ContainerManager
from repro.energy import constant_price, table2_fleet
from repro.forecasting import EwmaPredictor, predictors
from repro.provisioning import (
    BaselineProvisioner,
    CbpController,
    ControllerConfig,
    HarmonyController,
)


@pytest.fixture(scope="module")
def controller_setup(classifier):
    fleet = table2_fleet(scale=0.1)
    manager = ContainerManager(classifier, ContainerManagerConfig())
    config = ControllerConfig(
        interval_seconds=300.0,
        horizon=3,
        price=constant_price(0.1),
        predictor_factory=lambda: EwmaPredictor(alpha=0.5),
    )
    return fleet, manager, config


def steady_arrivals(controller, count_per_class=2.0, rounds=6):
    counts = {cid: count_per_class for cid in controller.class_ids}
    for _ in range(rounds):
        controller.observe(counts)


class TestControllerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ControllerConfig(interval_seconds=0)
        with pytest.raises(ValueError):
            ControllerConfig(horizon=0)
        with pytest.raises(ValueError):
            ControllerConfig(overprovision=0.5)


class TestHarmonyController:
    def test_forecast_shape(self, controller_setup):
        fleet, manager, config = controller_setup
        controller = HarmonyController(fleet, manager, config)
        steady_arrivals(controller)
        rates = controller.forecast_rates()
        assert rates.shape == (3, len(controller.class_ids))
        assert (rates >= 0).all()
        assert rates.max() > 0

    def test_decide_provisions_for_demand(self, controller_setup):
        fleet, manager, config = controller_setup
        controller = HarmonyController(fleet, manager, config)
        steady_arrivals(controller)
        decision = controller.decide(now=0.0)
        assert decision.total_active() > 0
        assert decision.quotas is not None
        total_quota = sum(sum(q.values()) for q in decision.quotas.values())
        assert total_quota > 0

    def test_zero_arrivals_zero_machines(self, controller_setup):
        fleet, manager, config = controller_setup
        controller = HarmonyController(fleet, manager, config)
        controller.observe({cid: 0.0 for cid in controller.class_ids})
        decision = controller.decide(now=0.0)
        assert decision.total_active() == 0

    def test_backlog_raises_demand(self, controller_setup):
        fleet, manager, config = controller_setup
        controller_a = HarmonyController(fleet, manager, config)
        controller_b = HarmonyController(fleet, manager, config)
        steady_arrivals(controller_a)
        steady_arrivals(controller_b)
        cid = controller_a.class_ids[0]
        plain = controller_a.decide(now=0.0)
        backlogged = controller_b.decide(now=0.0, backlog={cid: 200})
        assert backlogged.demand[cid] >= plain.demand[cid] + 150

    def test_running_tasks_keep_capacity(self, controller_setup):
        """Occupied containers hold machines even with zero arrivals."""
        fleet, manager, config = controller_setup
        controller = HarmonyController(fleet, manager, config)
        controller.observe({cid: 0.0 for cid in controller.class_ids})
        cid = controller.class_ids[0]
        decision = controller.decide(
            now=0.0,
            running={cid: 50},
            running_by_platform={fleet[3].platform_id: {cid: 50}},
        )
        assert decision.total_active() > 0
        assert decision.demand[cid] >= 50

    def test_available_caps_active(self, controller_setup):
        fleet, manager, config = controller_setup
        controller = HarmonyController(fleet, manager, config)
        steady_arrivals(controller, count_per_class=20.0)
        available = {m.platform_id: 1 for m in fleet}
        decision = controller.decide(now=0.0, available=available)
        for platform_id, active in decision.active.items():
            assert active <= 1

    def test_switching_state_carries_over(self, controller_setup):
        fleet, manager, config = controller_setup
        controller = HarmonyController(fleet, manager, config)
        steady_arrivals(controller)
        first = controller.decide(now=0.0)
        assert np.array_equal(
            controller._previous_active,
            np.array([first.active[m.platform_id] for m in fleet], dtype=float),
        )

    def test_prime_warm_starts(self, controller_setup):
        fleet, manager, config = controller_setup
        controller = HarmonyController(fleet, manager, config)
        controller.prime({cid: 3.0 for cid in controller.class_ids})
        decision = controller.decide(now=0.0)
        assert decision.total_active() > 0

    def test_arima_refit_cadence(self, controller_setup, monkeypatch):
        """Every class refits in the same tick: at 12, 16 and 20 observations.

        This is the latency cliff `forecasting.observe_max_ms` measures;
        the test pins its shape (how many fits, when), not its wall-clock.
        """
        fleet, manager, _ = controller_setup
        controller = HarmonyController(fleet, manager, ControllerConfig())
        window_lengths = []
        fit_arima = predictors.fit_arima

        def counting_fit(series, order):
            window_lengths.append(len(series))
            return fit_arima(series, order)

        monkeypatch.setattr(predictors, "fit_arima", counting_fit)
        controller.prime({cid: 3.0 for cid in controller.class_ids}, repeats=16)
        for tick in range(4):
            controller.observe({cid: 3.0 + tick for cid in controller.class_ids})
        classes = len(controller.class_ids)
        assert classes == 40
        assert Counter(window_lengths) == {12: classes, 16: classes, 20: classes}
        rates = controller.forecast_rates()
        assert np.isfinite(rates).all() and (rates >= 0).all()

    def test_prime_validation(self, controller_setup):
        fleet, manager, config = controller_setup
        controller = HarmonyController(fleet, manager, config)
        with pytest.raises(ValueError):
            controller.prime({}, repeats=0)

    def test_committed_matrix_alignment(self, controller_setup):
        fleet, manager, config = controller_setup
        controller = HarmonyController(fleet, manager, config)
        cid = controller.class_ids[2]
        matrix = controller.committed_matrix({fleet[1].platform_id: {cid: 7}})
        assert matrix[1, 2] == 7
        assert matrix.sum() == 7
        assert controller.committed_matrix(None) is None


class TestCbpController:
    def test_cbp_no_packing_plan(self, controller_setup):
        fleet, manager, config = controller_setup
        controller = CbpController(fleet, manager, config)
        steady_arrivals(controller)
        decision = controller.decide(now=0.0)
        assert controller.last_plan is None
        assert decision.quotas is not None
        assert decision.total_active() > 0
        assert decision.dropped == {}

    def test_cbp_quota_totals_close_to_cbs(self, controller_setup):
        fleet, manager, config = controller_setup
        cbs = HarmonyController(fleet, manager, config)
        cbp = CbpController(fleet, manager, config)
        steady_arrivals(cbs)
        steady_arrivals(cbp)
        d_cbs = cbs.decide(now=0.0)
        d_cbp = cbp.decide(now=0.0)
        total = lambda d: sum(sum(q.values()) for q in d.quotas.values())
        assert total(d_cbp) == pytest.approx(total(d_cbs), rel=0.3)


class TestBaselineProvisioner:
    def test_efficiency_order(self):
        fleet = table2_fleet(0.1)
        baseline = BaselineProvisioner(fleet)
        names = [m.name for m in baseline.efficiency_order]
        assert names[0] == "HP DL385 G7"
        assert names[-1] == "Dell PowerEdge R210"

    def test_eighty_percent_rule(self):
        fleet = table2_fleet(0.1)
        baseline = BaselineProvisioner(fleet)
        decision = baseline.decide(now=0.0, demand_cpu=10.0, demand_memory=5.0)
        got_cpu = sum(
            next(m for m in fleet if m.platform_id == pid).cpu_capacity * n
            for pid, n in decision.active.items()
        )
        got_mem = sum(
            next(m for m in fleet if m.platform_id == pid).memory_capacity * n
            for pid, n in decision.active.items()
        )
        assert got_cpu >= 10.0 / 0.8 - 1.0  # within one machine of target
        assert got_mem >= 5.0 / 0.8 - 1.0
        assert decision.quotas is None

    def test_zero_demand_zero_machines(self):
        baseline = BaselineProvisioner(table2_fleet(0.1))
        decision = baseline.decide(now=0.0, demand_cpu=0.0, demand_memory=0.0)
        assert decision.total_active() == 0

    def test_memory_bound_demand_cascades_models(self):
        """Heterogeneity-obliviousness: memory-heavy demand forces the
        baseline through its cpu-efficiency order into many machines."""
        fleet = table2_fleet(0.1)
        baseline = BaselineProvisioner(fleet)
        decision = baseline.decide(now=0.0, demand_cpu=5.0, demand_memory=40.0)
        # All 100 DL385s (25 mem units) cannot cover 50 mem units alone.
        assert decision.active[fleet[2].platform_id] == 100
        assert decision.total_active() > 100

    def test_respects_availability(self):
        fleet = table2_fleet(0.1)
        baseline = BaselineProvisioner(fleet)
        available = {m.platform_id: 2 for m in fleet}
        decision = baseline.decide(
            now=0.0, demand_cpu=100.0, demand_memory=100.0, available=available
        )
        assert all(n <= 2 for n in decision.active.values())

    def test_negative_demand_rejected(self):
        baseline = BaselineProvisioner(table2_fleet(0.1))
        with pytest.raises(ValueError):
            baseline.decide(now=0.0, demand_cpu=-1.0, demand_memory=0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BaselineProvisioner(())
