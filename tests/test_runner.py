"""Tests for the shared scenario-execution subsystem (repro.runner).

Covers the registry, the runner's serial and spawned-parallel paths, the
serial/parallel determinism contract, the perf-baseline writer, the shared
bench defaults, the fault-scenario catalog and the phase-timing hook.
"""

import json

import pytest

from repro.errors import NonFiniteSummary
from repro.resilience import FaultPlan
from repro.resilience.scenarios import SCENARIOS, build_scenario_plan
from repro.runner import (
    BenchDefaults,
    RunnerReport,
    Scenario,
    ScenarioFailure,
    ScenarioResult,
    ScenarioRunner,
    baseline_payload,
    bench_defaults,
    canonical_json,
    get_task,
    registered_tasks,
    summary_digest,
    trace_config_from_params,
    write_baseline,
)
from repro.simulation import PhaseTimer

#: Small, fast scenarios reused by the runner tests (one LP solve each).
SMALL = [
    Scenario(
        name=f"relax_s{seed}",
        task="relax_solve",
        params={"num_classes": 8, "num_types": 2, "W": 2, "seed": seed, "repeats": 1},
    )
    for seed in (0, 1)
]


class TestScenarioRegistry:
    def test_builtin_tasks_registered(self):
        names = registered_tasks()
        for expected in (
            "simulate", "relax_solve", "omega_round", "horizon_solve",
            "predictor_eval", "consolidation",
        ):
            assert expected in names

    def test_unknown_task_raises(self):
        with pytest.raises(KeyError, match="unknown scenario task"):
            get_task("no_such_task")

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            Scenario(name="", task="relax_solve")
        with pytest.raises(ValueError):
            Scenario(name="x", task="")

    def test_duplicate_registration_rejected(self):
        from repro.runner.scenario import register_task

        with pytest.raises(ValueError, match="already registered"):
            register_task("simulate")(lambda params: {"summary": {}})


class TestScenarioRunnerSerial:
    def test_results_preserve_input_order(self):
        report = ScenarioRunner("unit").run(SMALL, workers=1)
        assert [r.name for r in report] == [s.name for s in SMALL]
        assert report.workers == 1
        assert report["relax_s1"].summary["num_classes"] == 8

    def test_serial_runs_are_reproducible(self):
        runner = ScenarioRunner("unit")
        first = runner.run(SMALL, workers=1)
        second = runner.run(SMALL, workers=1)
        assert first.digests() == second.digests()

    def test_duplicate_names_rejected(self):
        twice = [SMALL[0], SMALL[0]]
        with pytest.raises(ValueError, match="unique"):
            ScenarioRunner("unit").run(twice, workers=1)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ScenarioRunner("unit").run(SMALL, workers=0)

    def test_phases_and_walls_recorded(self):
        report = ScenarioRunner("unit").run(SMALL[:1], workers=1)
        result = report.results[0]
        assert result.wall_seconds > 0
        assert "solve" in result.phases
        assert report.serial_seconds == pytest.approx(
            sum(r.wall_seconds for r in report.results)
        )


class TestScenarioRunnerParallel:
    """The tentpole contract: spawn workers, bit-identical summaries."""

    def test_parallel_matches_serial_bit_for_bit(self):
        runner = ScenarioRunner("unit")
        serial, parallel = runner.verify_determinism(SMALL, workers=2)
        assert serial.digests() == parallel.digests()
        assert parallel.workers == 2
        assert serial.summaries() == parallel.summaries()


class TestBaseline:
    def test_payload_shape(self):
        report = ScenarioRunner("unit").run(SMALL, workers=1)
        payload = baseline_payload(report)
        assert payload["bench"] == "unit"
        assert payload["workers"] == 1
        assert len(payload["scenarios"]) == len(SMALL)
        entry = payload["scenarios"][0]
        assert entry["name"] == SMALL[0].name
        assert entry["task"] == "relax_solve"
        assert len(entry["summary_digest"]) == 64

    def test_payload_schema_is_pinned(self):
        """The exact key sets downstream consumers parse.

        ``scripts/check_bench_regression.py`` and the committed
        ``BENCH_*.json`` baselines read these keys; any addition or
        rename must update the gate script and this pin together.
        """
        report = ScenarioRunner("unit").run(SMALL[:1], workers=1)
        payload = baseline_payload(report, compare_serial=report)
        assert set(payload) == {
            "bench", "workers", "python", "platform", "cpu_count",
            "total_wall_s", "sum_scenario_wall_s", "tasks_per_second",
            "scenarios", "quarantined", "peak_rss_mb",
            "serial_wall_s", "speedup_vs_serial", "summaries_match_serial",
        }
        entry = payload["scenarios"][0]
        assert set(entry) == {
            "name", "task", "wall_s", "phases", "summary_digest",
            "rss_peak_mb",
        }
        # RSS rides along per scenario and as the run high-water mark.
        assert entry["rss_peak_mb"] > 0
        assert payload["peak_rss_mb"] >= entry["rss_peak_mb"]

    def test_compare_serial_fields(self):
        runner = ScenarioRunner("unit")
        serial = runner.run(SMALL, workers=1)
        payload = baseline_payload(serial, compare_serial=serial)
        assert payload["summaries_match_serial"] is True
        assert "serial_wall_s" in payload

    def test_write_baseline_roundtrips(self, tmp_path):
        report = ScenarioRunner("unit").run(SMALL[:1], workers=1)
        path = write_baseline(report, tmp_path)
        assert path == tmp_path / "BENCH_unit.json"
        payload = json.loads(path.read_text())
        assert payload["scenarios"][0]["summary_digest"] == report.results[0].digest()

    def test_summary_digest_is_order_insensitive(self):
        assert summary_digest({"a": 1, "b": 2}) == summary_digest({"b": 2, "a": 1})
        assert summary_digest({"a": 1}) != summary_digest({"a": 2})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_digest_rejects_non_finite_floats(self, bad):
        with pytest.raises(NonFiniteSummary):
            summary_digest({"value": bad})
        with pytest.raises(NonFiniteSummary):
            canonical_json({"nested": {"deep": [1.0, bad]}})
        # Compatibility: pre-taxonomy callers caught json.dumps' ValueError.
        with pytest.raises(ValueError):
            summary_digest({"value": bad})

    def test_canonical_json_is_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1.5, "x"]}) == '{"a":[1.5,"x"],"b":1}'


def _zero_wall_report(quarantined=()):
    """A report whose total wall is 0.0 — the divide-by-zero edge."""
    result = ScenarioResult(
        scenario=SMALL[0],
        summary={"tasks_submitted": 100},
        phases={},
        wall_seconds=0.0,
    )
    return RunnerReport(
        suite="unit",
        workers=1,
        results=(result,),
        total_wall_seconds=0.0,
        quarantined=quarantined,
    )


class TestReportEdgeCases:
    def test_tasks_per_second_zero_wall_returns_zero(self):
        assert _zero_wall_report().tasks_per_second() == 0.0

    def test_empty_report_throughput_is_zero(self):
        report = RunnerReport(
            suite="unit", workers=1, results=(), total_wall_seconds=0.0
        )
        assert report.tasks_per_second() == 0.0
        assert report.serial_seconds == 0.0

    def test_speedup_vs_serial_zero_wall_is_zero(self):
        report = _zero_wall_report()
        payload = baseline_payload(report, compare_serial=report)
        assert payload["speedup_vs_serial"] == 0.0
        assert payload["tasks_per_second"] == 0.0

    def test_quarantined_always_serialized(self):
        payload = baseline_payload(_zero_wall_report())
        assert payload["quarantined"] == []
        failure = ScenarioFailure(
            scenario=SMALL[1], kind="timeout", attempts=3, message="hung"
        )
        payload = baseline_payload(_zero_wall_report(quarantined=(failure,)))
        assert payload["quarantined"] == [
            {"name": SMALL[1].name, "kind": "timeout", "attempts": 3}
        ]

    def test_attempts_excluded_from_baseline_payload(self):
        # Retried-then-recovered runs must stay byte-identical to clean
        # ones; the attempt count therefore never reaches BENCH JSON.
        payload = baseline_payload(_zero_wall_report())
        assert "attempts" not in payload["scenarios"][0]


class TestBenchDefaults:
    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_HOURS", "0.25")
        monkeypatch.setenv("REPRO_BENCH_MACHINES", "50")
        monkeypatch.setenv("REPRO_BENCH_SEED", "99")
        monkeypatch.setenv("REPRO_BENCH_LOAD", "0.3")
        defaults = bench_defaults()
        assert defaults == BenchDefaults(hours=0.25, machines=50, seed=99, load=0.3)

    def test_trace_params_roundtrip(self):
        defaults = BenchDefaults(hours=0.5, machines=120, seed=11, load=0.4)
        config = trace_config_from_params(defaults.trace_params())
        assert config.horizon_hours == 0.5
        assert config.total_machines == 120
        assert config.seed == 11
        assert config.load_factor == 0.4
        assert config.constraint_platforms is None

    def test_constraints_flag_builds_platforms(self):
        params = {"hours": 0.5, "seed": 1, "machines": 10, "load": 0.4,
                  "constraints": True}
        config = trace_config_from_params(params)
        assert config.constraint_platforms  # Table II fleet platforms


class TestFaultScenarioCatalog:
    def test_clean_has_no_plan(self):
        assert build_scenario_plan("clean", horizon=3600.0) is None

    @pytest.mark.parametrize("name", [s for s in SCENARIOS if s != "clean"])
    def test_named_scenarios_build_plans(self, name):
        plan = build_scenario_plan(name, horizon=3600.0, seed=3)
        assert isinstance(plan, FaultPlan)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            build_scenario_plan("meteor_strike", horizon=3600.0)

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            build_scenario_plan("outage", horizon=0.0)


class TestPhaseTimer:
    def test_phases_accumulate(self):
        timer = PhaseTimer()
        with timer.phase("a"):
            pass
        with timer.phase("a"):
            pass
        with timer.phase("b"):
            pass
        snapshot = timer.snapshot()
        assert set(snapshot) == {"a", "b"}
        assert snapshot["a"] >= 0.0

    def test_record_and_validation(self):
        timer = PhaseTimer()
        timer.record("x", 0.5)
        timer.record("x", 0.25)
        assert timer.snapshot()["x"] == pytest.approx(0.75)
        with pytest.raises(ValueError):
            timer.record("x", -1.0)

    def test_snapshot_is_a_copy(self):
        timer = PhaseTimer()
        timer.record("x", 1.0)
        snapshot = timer.snapshot()
        snapshot["x"] = 99.0
        assert timer.snapshot()["x"] == pytest.approx(1.0)

    def test_simulation_records_phases(self):
        """HarmonySimulation.run() exposes the per-phase timing hook."""
        from repro.simulation import HarmonyConfig, HarmonySimulation
        from repro.trace import SyntheticTraceConfig, generate_trace

        trace = generate_trace(
            SyntheticTraceConfig(
                horizon_hours=0.25, seed=5, total_machines=60, load_factor=0.3
            )
        )
        result = HarmonySimulation(HarmonyConfig(policy="static"), trace).run()
        for phase in ("classifier_fit", "policy_build", "prepare", "replay"):
            assert phase in result.phase_timings
            assert result.phase_timings[phase] >= 0.0
        # Timings are observability, not behaviour: never in the summary.
        assert "phase_timings" not in result.summary()

    def test_simulate_task_times_the_shared_trace_build_once(self, monkeypatch):
        from repro.runner import tasks

        monkeypatch.setattr(tasks, "_TRACE_CACHE", {})
        params = {
            "trace": {"hours": 0.25, "seed": 5, "machines": 60, "load": 0.3},
            "policy": "static",
        }
        built = tasks.simulate_task(params)
        assert set(built["phases"]) == {
            "trace", "classifier_fit", "label_tasks", "policy_build", "prepare",
            "replay", "summary",
        }
        assert all(seconds >= 0.0 for seconds in built["phases"].values())
        # A memo hit builds nothing, so it times nothing of the build.
        memo_hit = tasks.simulate_task(params)
        assert set(memo_hit["phases"]) == {
            "label_tasks", "policy_build", "prepare", "replay", "summary",
        }
        assert memo_hit["summary"] == built["summary"]


class TestThroughputAudit:
    """Suite throughput must not silently divide to zero.

    Regression: the committed scalability baseline reported
    ``tasks_per_second: 0.0`` because relax_solve summaries carry no task
    counts and the suite had no simulate scenarios.  The contract now is
    (a) every simulate-task summary counts its submitted tasks, (b) the
    baseline payload surfaces that count per scenario, and (c) a suite
    containing at least one simulate scenario reports positive throughput.
    """

    @staticmethod
    def _result(name, task, summary, wall=1.0):
        return ScenarioResult(
            scenario=Scenario(name=name, task=task, params={"seed": 0}),
            summary=summary,
            phases={},
            wall_seconds=wall,
        )

    def test_simulate_task_counts_submitted_tasks(self):
        outcome = get_task("simulate")(
            {
                "trace": {"hours": 0.25, "seed": 3, "machines": 60, "load": 0.4},
                "policy": "threshold",
            }
        )
        assert outcome["summary"]["tasks_submitted"] > 0

    def test_mixed_suite_reports_positive_throughput(self):
        report = RunnerReport(
            suite="unit",
            workers=1,
            results=(
                self._result("relax_c20_t4_s0", "relax_solve", {"objective": 1.0}),
                self._result("replay_backlog", "simulate", {"tasks_submitted": 500}),
            ),
            total_wall_seconds=2.0,
        )
        assert report.tasks_per_second() == pytest.approx(250.0)
        payload = baseline_payload(report)
        assert payload["tasks_per_second"] > 0.0

    def test_scenario_entry_surfaces_task_count(self):
        payload = baseline_payload(
            RunnerReport(
                suite="unit",
                workers=1,
                results=(
                    self._result("relax_c20_t4_s0", "relax_solve", {"objective": 1.0}),
                    self._result("replay_backlog", "simulate", {"tasks_submitted": 500}),
                ),
                total_wall_seconds=2.0,
            )
        )
        by_name = {entry["name"]: entry for entry in payload["scenarios"]}
        assert by_name["replay_backlog"]["tasks"] == 500
        assert "tasks" not in by_name["relax_c20_t4_s0"]

    def test_fleet_shard_summary_counts_nested_tasks(self):
        """A fleet shard nests its replay summary under ``"simulation"``.

        Regression: ``BENCH_google_fleet.json`` reported
        ``tasks_per_second: 0.0`` and no per-shard ``tasks``.
        """
        shard = {
            "simulation": {"tasks_submitted": 300},
            "shard": {"index": 0, "tasks_routed": 300},
        }
        report = RunnerReport(
            suite="unit",
            workers=1,
            results=(self._result("fleet_shard_00", "fleet_shard", shard),),
            total_wall_seconds=2.0,
        )
        assert report.tasks_per_second() == pytest.approx(150.0)
        assert baseline_payload(report)["scenarios"][0]["tasks"] == 300

    def test_replay_pair_in_scalability_suite(self):
        """One deep-backlog replay, on the config-default engine."""
        from repro.runner import scalability_scenarios

        replays = [s for s in scalability_scenarios() if s.task == "simulate"]
        assert [s.name for s in replays] == ["replay_backlog"]
        assert set(replays[0].params) == {"trace", "policy"}
