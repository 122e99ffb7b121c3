"""Tests for the sharded fleet layer (repro.fleet + repro.simulation.merge).

Covers the partition/router determinism contract, the two differential
guarantees the fleet design rests on — a shards=1 fleet run is
bit-identical to a directly-constructed unsharded simulation, and the
merged digest is invariant across execution topology (in-process,
worker, killed-and-retried, journal-resumed) — plus merge semantics
(partial-merge marking, policy-mismatch rejection), per-shard progress
journals, the worker-side memory budget's quarantine path and the
executor's memory-ceiling admission backpressure.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.classification import ClassifierConfig, TaskClassifier
from repro.cli import main
from repro.energy.catalog import google_like_energy_models
from repro.fleet import (
    FleetConfig,
    TaskRouter,
    fleet_scenarios,
    max_shards,
    merge_fleet_report,
    partition_census,
    run_fleet,
    shard_progress_path,
)
from repro.resilience import transient_fault_scenario
from repro.runner import (
    Journal,
    JournalEntry,
    ScenarioSupervisor,
    SupervisorConfig,
    journal_path,
    suite_run_id,
)
from repro.runner.defaults import trace_config_from_params
from repro.runner.journal import read_journal_records
from repro.runner.runner import (
    RunnerReport,
    ScenarioFailure,
    canonical_json,
    summary_digest,
)
from repro.simulation import (
    HarmonyConfig,
    HarmonySimulation,
    merge_shard_summaries,
)
from repro.simulation.merge import _EXTENSIVE_FIELDS
from repro.trace import generate_trace
from repro.trace.sanitize import SanitizationReport
from repro.trace.schema import Task

#: Small fleet-wide workload: ~2.2k tasks over 150 machines, ~1 s serial.
TRACE = {"hours": 0.5, "seed": 7, "machines": 150, "load": 0.5}

#: Keep retry waits negligible in tests.
FAST = SupervisorConfig(backoff_base_seconds=0.01, backoff_cap_seconds=0.05)


def small_census():
    return trace_config_from_params(TRACE).census()


@pytest.fixture(scope="module")
def reference_fleet():
    """Uninterrupted serial run — the digest-invariance reference."""
    return run_fleet(TRACE, FleetConfig(shards=3, suite="unit"), workers=1)


class TestPartition:
    def test_cells_cover_census_disjointly(self):
        census = small_census()
        cells = partition_census(census, 4)
        platforms = [p for cell in cells for p in cell.platforms]
        assert sorted(platforms) == sorted(m.platform_id for m in census)
        assert len(platforms) == len(set(platforms))
        assert sum(cell.machines for cell in cells) == sum(
            m.count for m in census
        )

    def test_partition_is_deterministic(self):
        census = small_census()
        assert partition_census(census, 4) == partition_census(census, 4)

    def test_partition_balances_capacity(self):
        cells = partition_census(small_census(), 3)
        capacities = [cell.cpu_capacity for cell in cells]
        # Greedy LPT: no cell may dwarf the others at this census shape.
        assert max(capacities) <= 3 * min(capacities)

    def test_shards_below_one_rejected(self):
        with pytest.raises(ValueError, match="shards must be >= 1, got 0"):
            partition_census(small_census(), 0)

    def test_shards_above_cell_count_rejected(self):
        census = small_census()
        bound = max_shards(census)
        with pytest.raises(
            ValueError, match=f"<= the {bound} machine-type cells"
        ):
            partition_census(census, bound + 1)

    def test_max_shards_is_census_size(self):
        census = small_census()
        assert max_shards(census) == len(census)
        assert len(partition_census(census, max_shards(census))) == len(census)


class TestRouter:
    def _tasks(self, n=50):
        return [
            Task(
                job_id=i // 5,
                index=i % 5,
                submit_time=float(i),
                duration=60.0,
                priority=2,
                scheduling_class=1,
                cpu=0.2,
                memory=0.2,
            )
            for i in range(n)
        ]

    def test_all_tasks_of_a_job_share_a_cell(self):
        router = TaskRouter(partition_census(small_census(), 3))
        by_job: dict[int, set[int]] = {}
        for task in self._tasks():
            by_job.setdefault(task.job_id, set()).add(router.route(task))
        assert all(len(cells) == 1 for cells in by_job.values())

    def test_routing_is_order_free(self):
        cells = partition_census(small_census(), 3)
        tasks = self._tasks()
        forward = [TaskRouter(cells).route(t) for t in tasks]
        backward = [TaskRouter(cells).route(t) for t in reversed(tasks)]
        assert forward == list(reversed(backward))

    def test_single_cell_short_circuits(self):
        router = TaskRouter(partition_census(small_census(), 1))
        assert {router.route(t) for t in self._tasks()} == {0}

    def test_infeasible_task_falls_back_to_largest_cell(self):
        cells = partition_census(small_census(), 3)
        largest = max(
            range(len(cells)), key=lambda i: cells[i].cpu_capacity
        )
        impossible = Task(
            job_id=1,
            index=0,
            submit_time=0.0,
            duration=60.0,
            priority=2,
            scheduling_class=1,
            cpu=1.0,
            memory=1.0,
            allowed_platforms=(999,),
        )
        assert TaskRouter(cells).route(impossible) == largest

    def test_route_seed_changes_assignment(self):
        cells = partition_census(small_census(), 3)
        tasks = self._tasks(200)
        a = [TaskRouter(cells, route_seed=0).route(t) for t in tasks]
        b = [TaskRouter(cells, route_seed=1).route(t) for t in tasks]
        assert a != b


class TestFleetDifferential:
    def test_single_shard_matches_unsharded_simulation(self):
        """shards=1 must be *the* unsharded run, not an approximation."""
        fleet = run_fleet(TRACE, FleetConfig(shards=1, suite="unit1"))
        config = trace_config_from_params(TRACE)
        trace = generate_trace(config)
        classifier = TaskClassifier(ClassifierConfig(seed=config.seed)).fit(
            list(trace.tasks)
        )
        plain = HarmonySimulation(
            HarmonyConfig(
                policy="cbs",
                predictor="ewma",
                engine="columnar",
                fleet=google_like_energy_models(config.census()),
            ),
            trace,
            classifier=classifier,
        ).run()
        shard = fleet.report.results[0]
        assert summary_digest(shard.summary["simulation"]) == summary_digest(
            plain.summary()
        )
        assert shard.summary["shard"]["tasks_routed"] == trace.num_tasks

    def test_worker_runs_match_in_process_run(self, reference_fleet, tmp_path):
        parallel = run_fleet(
            TRACE, FleetConfig(shards=3, suite="unit"), workers=3
        )
        journaled = run_fleet(
            TRACE,
            FleetConfig(shards=3, suite="unit"),
            workers=2,
            journal_dir=tmp_path,
            supervisor_config=FAST,
        )
        assert parallel.digest == reference_fleet.digest
        assert journaled.digest == reference_fleet.digest
        assert not parallel.partial and not journaled.partial
        assert reference_fleet.report.workers == 1
        # Journaling follows journal_dir alone.
        assert len(list(tmp_path.glob("JOURNAL_unit_*.jsonl"))) == 1

    @pytest.mark.parametrize(
        ("policy", "fault"),
        [("cbs", "outage"), ("cbp", None), ("cbs", "poisson")],
    )
    def test_matrix_serial_parallel_invariance(self, policy, fault):
        config = FleetConfig(
            shards=3, suite="unit_mx", policy=policy, fault_scenario=fault
        )
        serial = run_fleet(TRACE, config, workers=1)
        parallel = run_fleet(TRACE, config, workers=3)
        assert serial.digest == parallel.digest
        assert serial.merged["policy"] == policy

    def test_merged_totals_cover_the_fleet(self, reference_fleet):
        merged = reference_fleet.merged
        shards = [r.summary["shard"] for r in reference_fleet.report.results]
        assert merged["tasks_submitted"] == sum(
            s["tasks_routed"] for s in shards
        )
        assert merged["shards"]["machines"] == sum(
            m.count for m in small_census()
        )
        assert merged["shards"]["missing"] == []
        # Every task the generator emitted was routed exactly once.
        assert merged["shards"]["tasks_routed"] == shards[0]["tasks_seen"]

    def test_each_shard_keeps_what_the_router_assigns(self, reference_fleet):
        # A shard routes each run of one job's tasks once; its share must
        # be what routing every task on its own gives.
        cells = partition_census(small_census(), 3)
        router = TaskRouter(cells)
        routed = [0] * len(cells)
        for task in generate_trace(trace_config_from_params(TRACE)).tasks:
            routed[router.route(task)] += 1
        shards = [r.summary["shard"] for r in reference_fleet.report.results]
        assert [s["tasks_routed"] for s in shards] == routed


class TestMerge:
    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError, match="zero shard summaries"):
            merge_shard_summaries([])

    def test_policy_mismatch_rejected(self, reference_fleet):
        shards = [dict(r.summary) for r in reference_fleet.report.results]
        impostor = {
            "simulation": {**shards[0]["simulation"], "policy": "cbp"},
            "shard": shards[0]["shard"],
        }
        with pytest.raises(ValueError, match="different policies"):
            merge_shard_summaries([shards[1], impostor])

    def test_every_shard_order_merges_to_one_digest(self, reference_fleet):
        """Float sums differ in the last bit by order (energy_kwh here);
        the merge must not depend on the order its caller happens to use."""
        shards = [r.summary for r in reference_fleet.report.results]
        digests = {
            summary_digest(merge_shard_summaries(list(order)))
            for order in itertools.permutations(shards)
        }
        assert len(digests) == 1

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_merge_is_permutation_invariant(self, reference_fleet, data):
        template = reference_fleet.report.results[0].summary
        finite = st.floats(-1e9, 1e9, allow_nan=False)
        shards = []
        for index in range(data.draw(st.integers(3, 6))):
            simulation = dict(template["simulation"])
            for field in _EXTENSIVE_FIELDS:
                simulation[field] = data.draw(finite)
            shards.append(
                {
                    "simulation": simulation,
                    "shard": {**template["shard"], "index": index},
                }
            )
        shuffled = data.draw(st.permutations(shards))
        assert canonical_json(merge_shard_summaries(shuffled)) == canonical_json(
            merge_shard_summaries(shards)
        )

    def test_fleet_digest_is_free_of_the_hash_seed(self, reference_fleet, tmp_path):
        """String hashing is salted per interpreter (``PYTHONHASHSEED``), so
        a merge that walks a set of strings in set order gives each process
        its own fleet digest.  Two shards carrying sanitizer reports are
        merged in two interpreters under different hash seeds; both must
        print one digest."""
        shards = []
        for result, quarantined in zip(reference_fleet.report.results[:2], (2, 5)):
            report = SanitizationReport(
                records_total=100,
                records_clean=90 - quarantined,
                records_repaired=10,
                records_quarantined=quarantined,
                repairs_by_rule={"clamp_priority": 10},
                quarantine_by_rule={"nan_field": quarantined},
            )
            sanitizer = {
                key: value
                for key, value in report.to_dict().items()
                if key != "quarantined_rows"
            }
            summary = json.loads(json.dumps(result.summary))
            data_plane = summary["simulation"]["resilience"]["data_plane"]
            data_plane["sanitizer"] = {**sanitizer, "digest": report.digest}
            shards.append(summary)
        path = tmp_path / "shards.json"
        path.write_text(json.dumps(shards))
        code = (
            "import json, sys\n"
            "from repro.runner.runner import summary_digest\n"
            "from repro.simulation.merge import fleet_digest, merge_shard_summaries\n"
            "shards = json.loads(open(sys.argv[1]).read())\n"
            "digests = {str(s['shard']['index']): summary_digest(s) for s in shards}\n"
            "print(fleet_digest(merge_shard_summaries(shards), digests))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        printed = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            paths = [src, env.get("PYTHONPATH")]
            env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
            result = subprocess.run(
                [sys.executable, "-c", code, str(path)],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            printed.append(result.stdout.strip())
        assert len(printed[0]) == 64
        assert printed[0] == printed[1]

    def test_partial_merge_is_marked_inside_the_digest(self, reference_fleet):
        full = reference_fleet.report
        lost = full.results[-1]
        partial_report = RunnerReport(
            suite=full.suite,
            workers=full.workers,
            results=full.results[:-1],
            total_wall_seconds=full.total_wall_seconds,
            quarantined=(
                ScenarioFailure(
                    scenario=lost.scenario,
                    kind="error",
                    attempts=3,
                    message="synthetic loss",
                ),
            ),
        )
        partial = merge_fleet_report("unit", 3, partial_report)
        assert partial.partial
        assert partial.missing == (lost.name,)
        assert partial.merged["shards"]["missing"] == [
            int(lost.name.rsplit("_", 1)[1])
        ]
        # The quarantine marker lives inside the digested payload, so a
        # partial digest can never impersonate the complete one.
        assert partial.digest != reference_fleet.digest

    def test_all_shards_lost_yields_no_merge(self, reference_fleet):
        full = reference_fleet.report
        empty = RunnerReport(
            suite=full.suite,
            workers=full.workers,
            results=(),
            total_wall_seconds=0.0,
            quarantined=tuple(
                ScenarioFailure(
                    scenario=r.scenario, kind="error", attempts=3, message="x"
                )
                for r in full.results
            ),
        )
        report = merge_fleet_report("unit", 3, empty)
        assert report.partial
        assert report.merged is None and report.digest is None


class TestResume:
    def test_resumed_fleet_matches_uninterrupted_digest(
        self, reference_fleet, tmp_path
    ):
        # "Interrupted" run: only shard 0 made it into the suite journal
        # before the (simulated) coordinator kill.
        scenarios = fleet_scenarios(TRACE, FleetConfig(shards=3, suite="unit"))
        run_id = suite_run_id("unit", scenarios)
        journal = Journal(journal_path("unit", tmp_path, run_id), run_id)
        done = reference_fleet.report.results[0]
        journal.append(
            JournalEntry(
                suite="unit",
                scenario=scenarios[0],
                summary=done.summary,
                phases=done.phases,
                wall_seconds=done.wall_seconds,
                attempts=1,
            )
        )

        resumed = run_fleet(
            TRACE,
            FleetConfig(shards=3, suite="unit"),
            workers=2,
            resume=True,
            journal_dir=tmp_path,
            supervisor_config=FAST,
        )
        assert resumed.digest == reference_fleet.digest
        assert not resumed.partial

    def test_killed_shard_worker_retries_to_same_digest(
        self, reference_fleet, tmp_path
    ):
        scenarios = list(
            fleet_scenarios(TRACE, FleetConfig(shards=3, suite="unit"))
        )
        # SIGKILL shard 1's worker on its first attempt; keep its name so
        # the fleet digest (keyed per shard name) stays comparable.
        scenarios[1] = transient_fault_scenario(
            scenarios[1].name,
            scenarios[1],
            tmp_path / "markers",
            fail_attempts=1,
            mode="kill",
        )
        supervisor = ScenarioSupervisor("unit", FAST)
        report = supervisor.run(scenarios, workers=2)
        assert report.quarantined == ()
        assert report[scenarios[1].name].attempts == 2
        fleet = merge_fleet_report("unit", 3, report)
        assert fleet.digest == reference_fleet.digest


class TestProgressJournal:
    def test_progress_checkpoints_and_done_marker(self, tmp_path):
        fleet = run_fleet(
            TRACE,
            FleetConfig(shards=2, suite="prog", progress_every=500),
            progress_dir=tmp_path,
        )
        total = fleet.report.results[0].summary["shard"]["tasks_seen"]
        for index in range(2):
            records = read_journal_records(
                shard_progress_path(tmp_path, "prog", index)
            )
            kinds = [r["kind"] for r in records]
            assert kinds.count("fleet_shard_done") == 1
            assert kinds[-1] == "fleet_shard_done"
            assert len(records) == total // 500 + 1
            assert records[-1]["tasks_seen"] == total
            seen = [r["tasks_seen"] for r in records]
            assert seen == sorted(seen)

    def test_fresh_attempt_truncates_stale_progress(self, tmp_path):
        path = shard_progress_path(tmp_path, "prog", 0)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("stale garbage from a killed attempt\n")
        run_fleet(
            TRACE,
            FleetConfig(shards=2, suite="prog", progress_every=500),
            progress_dir=tmp_path,
        )
        records = read_journal_records(path)
        assert records[0]["kind"] == "fleet_progress"


#: CLI args pinning the fleet run to the small test workload.
CLI_TRACE = ["--hours", "0.5", "--machines", "150", "--seed", "7",
             "--load", "0.5"]


class TestFleetCli:
    def test_fleet_run_writes_baseline_with_digest(
        self, reference_fleet, tmp_path, capsys
    ):
        code = main(
            ["fleet", "--shards", "3", "--workers", "1",
             "--output", str(tmp_path), "--progress-dir", str(tmp_path),
             *CLI_TRACE]
        )
        captured = capsys.readouterr()
        out = captured.out
        assert code == 0
        assert reference_fleet.digest in out
        assert "shapes google_fleet" in out
        assert "failed shapes" not in captured.err
        payload = json.loads((tmp_path / "BENCH_google_fleet.json").read_text())
        assert payload["fleet"]["digest"] == reference_fleet.digest
        assert payload["fleet"]["shards"] == 3
        assert payload["fleet"]["partial"] is False
        assert payload["fleet"]["missing"] == []
        assert payload["peak_rss_mb"] > 0
        # Per-shard phases and RSS ride along in the scenario entries.
        for entry in payload["scenarios"]:
            assert "stream" in entry["phases"]
            assert entry["rss_peak_mb"] > 0
        for index in range(3):
            assert shard_progress_path(tmp_path, "google_fleet", index).exists()

    def test_shards_below_one_exits_2(self, capsys):
        assert main(["fleet", "--shards", "0"]) == 2
        err = capsys.readouterr().err
        assert "--shards must be >= 1" in err and "hint" in err

    def test_shards_above_cells_exits_2(self, capsys):
        assert main(["fleet", "--shards", "99", *CLI_TRACE]) == 2
        err = capsys.readouterr().err
        assert "exceeds the 10 machine-type cells" in err

    def test_workers_below_one_exits_2(self, capsys):
        assert main(["fleet", "--workers", "0", *CLI_TRACE]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_unknown_fault_scenario_exits_2(self, capsys):
        assert main(["fleet", "--fault", "meteor", *CLI_TRACE]) == 2
        err = capsys.readouterr().err
        assert "unknown fault scenario" in err and "outage" in err

    def test_failed_shape_exits_1(self, tmp_path, capsys, monkeypatch):
        """Every ``repro fleet`` run is shape-checked, as ``repro bench`` is."""
        from repro.runner import suites

        shapes = suites.google_fleet_shapes
        monkeypatch.setattr(
            suites, "google_fleet_shapes",
            lambda merged: shapes({**merged, "energy_kwh": 0.0}),
        )
        code = main(
            ["fleet", "--shards", "2", "--workers", "1",
             "--output", str(tmp_path), *CLI_TRACE]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "shapes google_fleet" in captured.out
        assert "failed shapes: merged energy_kwh" in captured.err

    @pytest.mark.parametrize(
        ("flag", "value", "message"),
        [
            ("--progress-every", "0", "progress_every must be >= 1"),
            ("--progress-every", "-5", "progress_every must be >= 1"),
            ("--memory-budget-mb", "0", "memory_budget_mb must be positive"),
        ],
    )
    def test_invalid_fleet_config_exits_2(
        self, flag, value, message, tmp_path, capsys
    ):
        code = main(["fleet", flag, value, "--output", str(tmp_path), *CLI_TRACE])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"repro fleet: {message}")
        assert not (tmp_path / "BENCH_google_fleet.json").exists()

    def test_bench_shards_on_other_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "scalability", "--shards", "4"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --shards 4" in capsys.readouterr().err

    def test_bench_all_excludes_google_fleet(self):
        from repro.runner import SUITES

        assert "google_fleet" not in SUITES


class TestFleetConfig:
    @pytest.mark.parametrize("every", [0, -5])
    def test_progress_every_below_one_rejected(self, every):
        with pytest.raises(ValueError, match="progress_every must be >= 1"):
            FleetConfig(progress_every=every)

    @pytest.mark.parametrize("budget", [0, -1.0])
    def test_nonpositive_memory_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="memory_budget_mb must be positive"):
            FleetConfig(memory_budget_mb=budget)


class TestMemoryControls:
    def test_budget_breach_quarantines_into_partial_merge(self, tmp_path):
        fleet = run_fleet(
            TRACE,
            FleetConfig(
                shards=3,
                suite="oom",
                progress_every=100,
                memory_budget_mb=1.0,
            ),
            workers=2,
            supervisor_config=SupervisorConfig(
                max_attempts=1,
                backoff_base_seconds=0.01,
                backoff_cap_seconds=0.05,
            ),
        )
        assert fleet.partial
        assert len(fleet.missing) == 3
        assert fleet.merged is None
        for failure in fleet.report.quarantined:
            assert failure.kind == "error"
            assert "memory budget" in failure.message

    def test_ceiling_backpressure_defers_spawns_without_digest_drift(
        self, reference_fleet
    ):
        scenarios = fleet_scenarios(TRACE, FleetConfig(shards=3, suite="unit"))
        supervisor = ScenarioSupervisor(
            "unit",
            SupervisorConfig(
                backoff_base_seconds=0.01,
                backoff_cap_seconds=0.05,
                memory_ceiling_mb=0.5,
            ),
        )
        report = supervisor.run(scenarios, workers=3)
        # A 0.5 MiB ceiling is always over watermark, so admission control
        # must have throttled spawns — yet results are digest-identical.
        assert supervisor.deferred_spawns > 0
        assert supervisor.peak_rss_mb is not None
        assert supervisor.peak_rss_mb > 1.0
        fleet = merge_fleet_report("unit", 3, report)
        assert fleet.digest == reference_fleet.digest
