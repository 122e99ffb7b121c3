"""Shape checks of the runner suites (``repro.runner.suites``).

Each shaped suite maps its run's results to rows of (shape, measured,
bound, ok).  These tests feed every suite synthetic results that satisfy
all of its shapes, then violate each shape in turn (at its exact bound)
and check that precisely that row fails.  A missing (quarantined)
scenario's shapes read "not checked", and ``repro bench`` exits 1 on a
failed shape.
"""

from __future__ import annotations

import copy
import math

import pytest

from repro.cli import main
from repro.resilience import transient_fault_scenario
from repro.runner import (
    SUITES,
    RunnerReport,
    Scenario,
    ScenarioResult,
    ablation_scenarios,
    suites,
)
from repro.runner.suites import SHAPES, figures_scenarios, google_fleet_shapes


def _report(summaries, phases=None, walls=None, workers=1, total_wall=1.0):
    phases = phases or {}
    walls = walls or {}
    results = tuple(
        ScenarioResult(
            scenario=Scenario(name=name, task="relax_solve"),
            summary=summary,
            phases=phases.get(name, {}),
            wall_seconds=walls.get(name, 0.5),
        )
        for name, summary in summaries.items()
    )
    return RunnerReport(
        suite="unit", workers=workers, results=results, total_wall_seconds=total_wall
    )


def _by_shape(rows):
    return {row.shape: row for row in rows}


# ---------------------------------------------------------------- ablation

ABLATION_PASSING = {
    "omega_1.0": {"placement_ratio": 0.75, "machines": 40},
    "omega_1.25": {"placement_ratio": 0.95, "machines": 40},
    "omega_1.5": {"machines": 35},
    "omega_4.0": {"machines": 3},
    "horizon_W1": {"z_first_step": 16.0},
    "horizon_W8": {},
    "predictor_naive": {"mean_rmse": 40.0},
    "predictor_moving_average": {"mean_rmse": 41.0},
    "predictor_ewma": {"mean_rmse": 40.0},
    "predictor_holt": {"mean_rmse": 45.0},
    "predictor_arima(2,0,1)": {"mean_rmse": 42.0},
    "predictor_seasonal_ewma": {"mean_rmse": 44.0},
    "preemption_off": {"delay_by_group": {"production": {"p95_s": 280.0}}},
    "preemption_on": {"delay_by_group": {"production": {"p95_s": 270.0}}},
    "slo_0.25x": {"energy_kwh": 64.0, "mean_delay_s": 100.0},
    "slo_4.0x": {"energy_kwh": 60.0, "mean_delay_s": 130.0},
    "consolidation_frag": {"released": 95, "moves": 214},
}
ABLATION_PHASES = {"horizon_W8": {"solve": 0.02}}

#: shape -> (scenario, summary path, value at which the shape fails).
ABLATION_VIOLATIONS = {
    "omega_1.0 placement_ratio": ("omega_1.0", ("placement_ratio",), 0.6),
    "omega_1.25 placement_ratio": ("omega_1.25", ("placement_ratio",), 0.89),
    "omega_1.25 machines vs 0.8 x omega_1.0": ("omega_1.25", ("machines",), 31),
    "omega_4.0 machines vs 1 x omega_1.5": ("omega_4.0", ("machines",), 36),
    "horizon_W1 z_first_step": ("horizon_W1", ("z_first_step",), 0.0),
    "predictor_arima(2,0,1) mean_rmse vs 1.25 x the least of 5": (
        "predictor_arima(2,0,1)", ("mean_rmse",), 50.01,
    ),
    "preemption_on delay_by_group.production.p95_s vs 1.05 x preemption_off + 1": (
        "preemption_on", ("delay_by_group", "production", "p95_s"), 296.5,
    ),
    "slo_0.25x energy_kwh vs 0.95 x slo_4.0x": ("slo_0.25x", ("energy_kwh",), 56.9),
    "slo_4.0x mean_delay_s vs 0.8 x slo_0.25x": ("slo_4.0x", ("mean_delay_s",), 79.9),
    "consolidation_frag released": ("consolidation_frag", ("released",), 29),
    "consolidation_frag moves": ("consolidation_frag", ("moves",), 0),
}


def _ablation_rows(summaries=ABLATION_PASSING, phases=ABLATION_PHASES):
    return suites.ablation_shapes(_report(summaries, phases=phases))


def _set(summaries, scenario, path, value):
    summaries = copy.deepcopy(summaries)
    target = summaries[scenario]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return summaries


class TestAblationShapes:
    def test_passing_run_passes_every_shape(self):
        rows = _ablation_rows()
        assert len(rows) == len(suites.ABLATION_SHAPES) == 12
        assert all(row.ok is True for row in rows), rows

    @pytest.mark.parametrize("shape", sorted(ABLATION_VIOLATIONS))
    def test_each_violation_fails_its_row(self, shape):
        scenario, path, value = ABLATION_VIOLATIONS[shape]
        rows = _by_shape(_ablation_rows(_set(ABLATION_PASSING, scenario, path, value)))
        assert rows[shape].ok is False
        assert [s for s, row in rows.items() if row.ok is False] == [shape]

    def test_slow_horizon_solve_fails(self):
        rows = _by_shape(_ablation_rows(phases={"horizon_W8": {"solve": 30.0}}))
        assert rows["horizon_W8 lp_solve_seconds"].ok is False
        assert rows["horizon_W8 lp_solve_seconds"].measured == 30.0

    def test_every_shape_has_a_violation(self):
        shapes = {row.shape for row in _ablation_rows()}
        assert shapes == set(ABLATION_VIOLATIONS) | {"horizon_W8 lp_solve_seconds"}

    def test_missing_scenario_reads_not_checked(self):
        summaries = {
            k: v for k, v in ABLATION_PASSING.items() if k != "consolidation_frag"
        }
        rows = _by_shape(_ablation_rows(summaries))
        for shape in ("consolidation_frag released", "consolidation_frag moves"):
            assert rows[shape].ok is None
            assert rows[shape].measured is None
        assert sum(row.ok is True for row in rows.values()) == 10


# -------------------------------------------------------------- robustness

ROBUSTNESS_PASSING = {
    "fault_clean": {"tasks_scheduled": 4000},
    "fault_outage": {
        "tasks_scheduled": 4000,
        "tasks_killed": 300,
        "resilience": {
            "machines_failed": 300,
            "invalid_decisions": 0,
            "availability": 0.85,
            "mttr_s": 3600.0,
        },
    },
    "fault_poisson": {"tasks_scheduled": 4000, "resilience": {"machines_failed": 10}},
}

ROBUSTNESS_VIOLATIONS = {
    "fault_outage resilience.machines_failed": (
        "fault_outage", ("resilience", "machines_failed"), 174,
    ),
    "fault_outage tasks_killed": ("fault_outage", ("tasks_killed",), 0),
    "fault_outage tasks_scheduled vs 0.85 x fault_clean": (
        "fault_outage", ("tasks_scheduled",), 3399,
    ),
    "fault_outage resilience.invalid_decisions": ("fault_outage", ("resilience", "invalid_decisions"), 1),
    "fault_outage resilience.availability": ("fault_outage", ("resilience", "availability"), 1.0),
    "fault_outage resilience.mttr_s": ("fault_outage", ("resilience", "mttr_s"), 0.0),
    "fault_poisson resilience.machines_failed": ("fault_poisson", ("resilience", "machines_failed"), 0),
    "fault_poisson tasks_scheduled vs 0.9 x fault_clean": (
        "fault_poisson", ("tasks_scheduled",), 3599,
    ),
}


class TestRobustnessShapes:
    def test_passing_run_passes_every_shape(self):
        rows = suites.robustness_shapes(_report(ROBUSTNESS_PASSING))
        assert {row.shape for row in rows} == set(ROBUSTNESS_VIOLATIONS)
        assert all(row.ok is True for row in rows), rows

    def test_outage_bound_is_a_quarter_of_the_largest_pool(self):
        rows = _by_shape(suites.robustness_shapes(_report(ROBUSTNESS_PASSING)))
        # Table II at 1/10 scale: the largest pool has 700 machines.
        assert rows["fault_outage resilience.machines_failed"].bound == 175

    @pytest.mark.parametrize("shape", sorted(ROBUSTNESS_VIOLATIONS))
    def test_each_violation_fails_its_row(self, shape):
        scenario, path, value = ROBUSTNESS_VIOLATIONS[shape]
        summaries = _set(ROBUSTNESS_PASSING, scenario, path, value)
        rows = _by_shape(suites.robustness_shapes(_report(summaries)))
        assert [s for s, row in rows.items() if row.ok is False] == [shape]

    def test_quarantined_clean_run_leaves_relative_shapes_unchecked(self):
        summaries = {k: v for k, v in ROBUSTNESS_PASSING.items() if k != "fault_clean"}
        rows = _by_shape(suites.robustness_shapes(_report(summaries)))
        assert rows["fault_outage tasks_scheduled vs 0.85 x fault_clean"].ok is None
        assert rows["fault_poisson tasks_scheduled vs 0.9 x fault_clean"].ok is None
        assert rows["fault_outage tasks_killed"].ok is True


# ------------------------------------------------------------- scalability

SCALABILITY_PASSING = {
    "relax_c80_t10_s0": {"repeats": 3},
    "relax_c80_t10_s1": {"repeats": 3},
}


def _scalability_rows(walls=None, workers=4, serial_wall=2.5, cores=8, monkeypatch=None):
    monkeypatch.setattr(suites.os, "cpu_count", lambda: cores)
    report = _report(SCALABILITY_PASSING, walls=walls, workers=workers, total_wall=1.0)
    serial = (
        None
        if serial_wall is None
        else _report(SCALABILITY_PASSING, total_wall=serial_wall)
    )
    return _by_shape(suites.scalability_shapes(report, serial))


SPEEDUP = "parallel speedup over serial"


class TestScalabilityShapes:
    def test_passing_run_passes_every_shape(self, monkeypatch):
        rows = _scalability_rows(monkeypatch=monkeypatch)
        assert len(rows) == 3
        assert all(row.ok is True for row in rows.values()), rows
        assert rows[SPEEDUP].measured == 2.5

    @pytest.mark.parametrize("name", sorted(SCALABILITY_PASSING))
    def test_slow_paper_scale_solve_fails(self, name, monkeypatch):
        rows = _scalability_rows(walls={name: 30.0}, monkeypatch=monkeypatch)
        assert [s for s, row in rows.items() if row.ok is False] == [
            f"{name} seconds_per_solve"
        ]

    def test_slow_parallel_run_fails_the_speedup(self, monkeypatch):
        rows = _scalability_rows(serial_wall=1.99, monkeypatch=monkeypatch)
        assert rows[SPEEDUP].ok is False

    @pytest.mark.parametrize(
        ("workers", "serial_wall", "cores"),
        [(4, None, 8), (2, 2.5, 8), (4, 2.5, 2)],
        ids=["no-verify", "two-workers", "two-cores"],
    )
    def test_speedup_not_checked_where_it_cannot_show(
        self, workers, serial_wall, cores, monkeypatch
    ):
        rows = _scalability_rows(
            workers=workers, serial_wall=serial_wall, cores=cores,
            monkeypatch=monkeypatch,
        )
        assert rows[SPEEDUP].ok is None


# ------------------------------------------------------------ google_fleet

FLEET_PASSING = {
    "shards": {"missing": []},
    "tasks_scheduled": 900,
    "tasks_submitted": 1000,
    "energy_kwh": 5.0,
}

FLEET_VIOLATIONS = {
    "merged shards_missing": (("shards", "missing"), [2]),
    "merged tasks_scheduled vs 0.5 x merged tasks_submitted": (("tasks_scheduled",), 500),
    "merged energy_kwh": (("energy_kwh",), 0.0),
}


class TestGoogleFleetShapes:
    def test_passing_merge_passes_every_shape(self):
        rows = google_fleet_shapes(FLEET_PASSING)
        assert {row.shape for row in rows} == set(FLEET_VIOLATIONS)
        assert all(row.ok is True for row in rows)

    @pytest.mark.parametrize("shape", sorted(FLEET_VIOLATIONS))
    def test_each_violation_fails_its_row(self, shape):
        path, value = FLEET_VIOLATIONS[shape]
        merged = _set({"m": FLEET_PASSING}, "m", path, value)["m"]
        rows = _by_shape(google_fleet_shapes(merged))
        assert [s for s, row in rows.items() if row.ok is False] == [shape]

    def test_no_merge_reads_not_checked(self):
        assert all(row.ok is None for row in google_fleet_shapes(None))


# ----------------------------------------------------------------- figures

GROUPS = ("gratis", "other", "production")
CDF_POINTS = ("1", "10", "60", "300", "1800")


def _policy(**overrides):
    summary = {
        "tasks_unscheduled": 270,
        "tasks_submitted": 9000,
        "energy_kwh": 200.0,
        "mean_active_machines": 200.0,
        "total_cost": 28.0,
        "delay_by_group": {"production": {"p95_s": 2000.0}},
        "figures": {"powered_mean": 200.0, "powered_early": 60.0, "powered_late": 300.0},
    }
    summary.update(overrides)
    return summary


FIGURES_PASSING = {
    "trace": {
        "demand": {"cpu_max": 100.0, "cpu_min": 5.0, "cpu_tenth": 40.0, "memory_min": 6.0},
        "short_fraction": 0.6,
        "duration_cdf": {"gratis": {"100": 0.75, "36000": 0.98}, "production": {"100": 0.4}},
        "sizes": {
            g: {"span_orders": 2.0, "abs_correlation": 0.2,
                "modal_fraction": 0.5 if g == "gratis" else 0.0}
            for g in GROUPS
        },
        "arrival_rates": {"gratis": 10.0, "other": 16.0, "production": 4.0},
    },
    "classification": {
        "classes_by_group": {g: 8 for g in GROUPS},
        "cpu_std_over_mean": 0.2,
        "max_class_tasks": 1400,
        "min_class_tasks": 10,
        "short_classes": 24,
        "long_classes": 23,
        "long_over_short_duration": 100.0,
    },
    "static": {
        "tasks_scheduled": 8900,
        "tasks_submitted": 9000,
        "figures": {
            "powered_mean": 1000.0,
            "cpu_utilization_mean": 0.3,
            "delay_cdf": {
                "gratis": {p: 1.0 for p in CDF_POINTS},
                "production": {p: 0.97 for p in CDF_POINTS},
            },
        },
    },
    "baseline": _policy(
        tasks_unscheduled=60, energy_kwh=180.0, mean_active_machines=150.0,
        total_cost=24.0,
        figures={"powered_mean": 160.0, "powered_early": 30.0, "powered_late": 300.0},
    ),
    "cbp": _policy(tasks_unscheduled=280),
    "cbs": _policy(),
    "threshold": {"tasks_scheduled": 8900, "tasks_submitted": 9000},
    "pressure_baseline": {"total_cost": 25.0, "energy_kwh": 150.0},
    "pressure_cbs": {"total_cost": 20.0, "energy_kwh": 130.0},
}
FIGURES_PASSING["cbs"]["figures"].update(
    containers_total=50000.0, containers_warm={g: 400.0 for g in GROUPS}
)


def below(x):
    return math.nextafter(x, -math.inf)


def above(x):
    return math.nextafter(x, math.inf)


def _cdf_row(p):
    return f"static figures.delay_cdf.production.{p} vs 1 x static figures.delay_cdf.gratis.{p} - 0.1 >="


#: "shape op" -> (scenario, summary path, value at which the row fails, and
#: the other rows that value must fail too).
FIGURES_VIOLATIONS = {
    "trace cpu_demand_swing >": ("trace", ("demand", "cpu_max"), 10.0, ()),
    "trace demand.cpu_min >=": ("trace", ("demand", "cpu_min"), below(0.0), ()),
    "trace demand.memory_min >=": ("trace", ("demand", "memory_min"), below(0.0), ()),
    "trace short_fraction >": ("trace", ("short_fraction",), 0.5, ()),
    "trace duration_cdf.gratis.36000 >": (
        "trace", ("duration_cdf", "gratis", "36000"), 0.85, (),
    ),
    "trace duration_cdf.production.100 vs 1 x trace duration_cdf.gratis.100 <=": (
        "trace", ("duration_cdf", "production", "100"), above(0.75), (),
    ),
    "trace sizes.gratis.modal_fraction >=": (
        "trace", ("sizes", "gratis", "modal_fraction"), below(0.30), (),
    ),
    "trace sizes.gratis.modal_fraction <=": (
        "trace", ("sizes", "gratis", "modal_fraction"), above(0.55), (),
    ),
    **{
        f"trace sizes.{g}.span_orders >=": (
            "trace", ("sizes", g, "span_orders"), below(1.5), (),
        )
        for g in GROUPS
    },
    **{
        f"trace sizes.{g}.abs_correlation <": (
            "trace", ("sizes", g, "abs_correlation"), 0.7, (),
        )
        for g in GROUPS
    },
    **{
        f"trace arrival_rates.{g} >": ("trace", ("arrival_rates", g), 0.0, ())
        for g in ("gratis", "production")
    },
    "trace arrival_rates.other >": (
        "trace", ("arrival_rates", "other"), 0.0,
        ("trace arrival_rates.production vs 1 x trace arrival_rates.other <",),
    ),
    "trace arrival_rates.production vs 1 x trace arrival_rates.other <": (
        "trace", ("arrival_rates", "production"), 16.0, (),
    ),
    **{
        f"classification classes_by_group.{g} >": (
            "classification", ("classes_by_group", g), 0, (),
        )
        for g in GROUPS
    },
    "classification cpu_std_over_mean <": (
        "classification", ("cpu_std_over_mean",), 0.6, (),
    ),
    "classification max_class_tasks vs 10 x classification min_class_tasks >": (
        "classification", ("max_class_tasks",), 100, (),
    ),
    "classification short_classes >": ("classification", ("short_classes",), 0, ()),
    "classification long_classes >": ("classification", ("long_classes",), 0, ()),
    "classification long_over_short_duration >": (
        "classification", ("long_over_short_duration",), 3.0, (),
    ),
    "static tasks_scheduled vs 0.9 x static tasks_submitted >": (
        "static", ("tasks_scheduled",), 8100, (),
    ),
    "static figures.cpu_utilization_mean <": (
        "static", ("figures", "cpu_utilization_mean"), 0.6, (),
    ),
    **{
        _cdf_row(p): (
            "static", ("figures", "delay_cdf", "production", p), below(0.9), (),
        )
        for p in CDF_POINTS
    },
    "static figures.delay_cdf.production.300 >": (
        "static", ("figures", "delay_cdf", "production", "300"), 0.5, (_cdf_row("300"),),
    ),
    "static figures.powered_mean >": ("static", ("figures", "powered_mean"), 900.0, ()),
    "cbs figures.containers_total >": ("cbs", ("figures", "containers_total"), 0.0, ()),
    **{
        f"cbs figures.containers_warm.{g} >": (
            "cbs", ("figures", "containers_warm", g), 0.0, (),
        )
        for g in GROUPS
    },
    "baseline figures.powered_mean >": (
        "baseline", ("figures", "powered_mean"), 0.0,
        ("cbs figures.powered_mean vs 1.5 x baseline <=",),
    ),
    "cbp figures.powered_mean >": ("cbp", ("figures", "powered_mean"), 0.0, ()),
    "cbs figures.powered_mean >": ("cbs", ("figures", "powered_mean"), 0.0, ()),
    "cbs figures.powered_mean vs 1.5 x baseline <=": (
        "cbs", ("figures", "powered_mean"), above(240.0), (),
    ),
    "baseline figures.powered_late vs 1 x baseline figures.powered_early >": (
        "baseline", ("figures", "powered_late"), 30.0, (),
    ),
    "cbs figures.powered_late vs 1 x cbs figures.powered_early >": (
        "cbs", ("figures", "powered_late"), 60.0, (),
    ),
    "cbs delay_by_group.production.p95_s vs 1.25 x baseline <=": (
        "cbs", ("delay_by_group", "production", "p95_s"), above(2500.0), (),
    ),
    **{
        f"{p} tasks_unscheduled vs 0.1 x {p} tasks_submitted <": (
            p, ("tasks_unscheduled",), 900, (),
        )
        for p in ("baseline", "cbp", "cbs")
    },
    # 1.02 x baseline's 180 kWh / 150 machines, over cbs's 200 machines.
    "cbs kwh_per_machine vs 1.02 x baseline <=": ("cbs", ("energy_kwh",), 244.81, ()),
    "cbs total_cost vs 1.35 x baseline <": ("cbs", ("total_cost",), 24.0 * 1.35, ()),
    "pressure_cbs total_cost vs 0.92 x pressure_baseline <": (
        "pressure_cbs", ("total_cost",), 25.0 * 0.92, (),
    ),
    "pressure_cbs energy_kwh vs 1 x pressure_baseline <": (
        "pressure_cbs", ("energy_kwh",), 150.0, (),
    ),
    "threshold tasks_scheduled vs 0.85 x threshold tasks_submitted >": (
        "threshold", ("tasks_scheduled",), 7650, (),
    ),
}


def _figures_rows(summaries=FIGURES_PASSING):
    rows = suites.figures_shapes(_report(summaries))
    return {f"{row.shape} {row.op}": row for row in rows}


class TestFiguresShapes:
    def test_passing_run_passes_every_shape(self):
        rows = _figures_rows()
        assert len(rows) == len(suites.FIGURES_SHAPES) + 1
        assert all(row.ok is True for row in rows.values()), rows

    def test_every_shape_has_a_violation(self):
        assert set(_figures_rows()) == set(FIGURES_VIOLATIONS)

    def test_fig3_bound_is_nine_tenths_of_the_table2_fleet(self):
        # Table II at 1/10 scale: 700 + 150 + 100 + 50 machines.
        assert _figures_rows()["static figures.powered_mean >"].bound == 900.0

    @pytest.mark.parametrize("shape", sorted(FIGURES_VIOLATIONS))
    def test_each_violation_fails_its_row(self, shape):
        scenario, path, value, also = FIGURES_VIOLATIONS[shape]
        rows = _figures_rows(_set(FIGURES_PASSING, scenario, path, value))
        failed = {s for s, row in rows.items() if row.ok is False}
        assert failed == {shape, *also}

    def test_missing_scenario_reads_not_checked(self):
        summaries = {
            k: v for k, v in FIGURES_PASSING.items() if k != "pressure_baseline"
        }
        rows = _figures_rows(summaries)
        unchecked = {s for s, row in rows.items() if row.ok is None}
        assert unchecked == {
            "pressure_cbs total_cost vs 0.92 x pressure_baseline <",
            "pressure_cbs energy_kwh vs 1 x pressure_baseline <",
        }
        assert all(row.ok is True for s, row in rows.items() if s not in unchecked)

    def test_the_shapes_read_every_scenario_of_the_suite(self):
        read = set()
        for scenario, _, _, bound in suites.FIGURES_SHAPES:
            read.add(scenario)
            if isinstance(bound, suites.Rel):
                read.add(bound.of)
        assert read == {s.name for s in figures_scenarios()}


# --------------------------------------------------------------------- CLI


def test_shaped_suites_are_the_documented_four():
    assert set(SHAPES) == {"scalability", "ablation", "robustness", "figures"}
    assert set(SHAPES) <= set(SUITES)


@pytest.mark.parametrize(("trials", "code"), [(10, 0), (1, 1)])
def test_bench_exits_1_on_a_failed_shape(trials, code, tmp_path, capsys, monkeypatch):
    """One consolidation trial cannot release 30 machines: the shape fails."""
    scenario = ablation_scenarios()[-1]
    scenario = Scenario(scenario.name, scenario.task, {**scenario.params, "trials": trials})
    monkeypatch.setitem(SUITES, "ablation", lambda defaults: [scenario])
    assert main(["bench", "ablation", "--workers", "1", "--output", str(tmp_path)]) == code
    captured = capsys.readouterr()
    assert "shapes ablation" in captured.out
    # Shapes whose scenarios this run did not include read "not checked".
    assert "not checked" in captured.out
    if code:
        assert "failed shapes: consolidation_frag released" in captured.err
    else:
        assert "failed shapes" not in captured.err


def test_quarantined_scenario_shapes_read_not_checked(tmp_path, capsys, monkeypatch):
    poisoned = transient_fault_scenario(
        "consolidation_frag",
        ablation_scenarios()[-1],
        tmp_path / "markers",
        fail_attempts=99,
        mode="raise",
    )
    monkeypatch.setitem(SUITES, "ablation", lambda defaults: [poisoned])
    code = main(
        ["bench", "ablation", "--workers", "1", "--retries", "0",
         "--output", str(tmp_path)]
    )
    captured = capsys.readouterr()
    assert code == 1  # the quarantine, not a shape
    assert "quarantined scenarios: consolidation_frag" in captured.err
    assert "failed shapes" not in captured.err
    rows = [
        line for line in captured.out.splitlines()
        if line.startswith(("consolidation_frag released", "consolidation_frag moves"))
    ]
    assert len(rows) == 2
    assert all(line.rstrip().endswith("not checked") for line in rows)
