"""Unit tests for the CI perf-gate comparator (scripts/check_bench_regression.py)."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from check_bench_regression import (  # noqa: E402
    MIN_GATED_RSS_MB,
    MIN_GATED_WALL_S,
    MIN_PHASE_COVERAGE,
    compare_reports,
    main,
)

REPO = Path(__file__).resolve().parent.parent


def report(scenarios):
    """A suite report whose scenarios' phases cover their whole wall."""
    return {
        "bench": "scalability",
        "scenarios": [
            {"name": name, "wall_s": wall, "phases": {"run": wall},
             "summary_digest": digest}
            for name, wall, digest in scenarios
        ],
    }


BASELINE = report(
    [
        ("relax_c20_t4_s0", 2.0, "aaa"),
        ("relax_c80_t4_s0", 4.0, "bbb"),
        ("replay_backlog", 8.0, "ddd"),
    ]
)

#: BASELINE with the replay scenario five times slower.
REPLAY_BLOWUP = report(
    [
        ("relax_c20_t4_s0", 2.0, "aaa"),
        ("relax_c80_t4_s0", 4.0, "bbb"),
        ("replay_backlog", 40.0, "ddd"),
    ]
)


class TestShares:
    def test_identical_run_passes(self):
        assert compare_reports(BASELINE, BASELINE) == []

    def test_uniform_slowdown_passes(self):
        # Twice as slow everywhere = slower hardware, not a regression.
        slower = report(
            [(s["name"], s["wall_s"] * 2, s["summary_digest"])
             for s in BASELINE["scenarios"]]
        )
        assert compare_reports(BASELINE, slower) == []

    def test_single_scenario_blowup_fails(self):
        problems = compare_reports(BASELINE, REPLAY_BLOWUP)
        assert len(problems) == 1
        assert problems[0].startswith("replay_backlog: wall time regressed 5.00x")

    @staticmethod
    def _committed_with_replay_scaled(factor):
        base = json.loads((REPO / "BENCH_scalability.json").read_text())
        fresh = json.loads(json.dumps(base))
        for scenario in fresh["scenarios"]:
            if scenario["name"] == "replay_backlog":
                scenario["wall_s"] *= factor
                scenario["phases"] = {
                    k: v * factor for k, v in scenario["phases"].items()
                }
        return base, fresh

    def test_committed_replay_slowdown_fails(self):
        """replay_backlog is ~60% of the committed suite's wall, so as a
        share a 1.3x slowdown of it alone moves its share by only ~8%;
        against the median scenario's ratio it is a 30% regression."""
        problems = compare_reports(*self._committed_with_replay_scaled(1.3))
        assert problems == [
            "replay_backlog: wall time regressed 1.30x against the median "
            "scenario's 1.00x (limit +25%)"
        ]

    def test_committed_replay_speedup_passes(self):
        """A 0.65x replay_backlog leaves every other scenario's ratio at
        1.0: no scenario whose code did not change can fail."""
        assert compare_reports(*self._committed_with_replay_scaled(0.65)) == []

    def test_tiny_scenarios_not_gated(self):
        base = report([("tiny", MIN_GATED_WALL_S / 10, "x"), ("big", 50.0, "y")])
        fresh = report([("tiny", MIN_GATED_WALL_S / 2, "x"), ("big", 50.0, "y")])
        assert compare_reports(base, fresh) == []

    def test_missing_scenario_fails(self):
        fresh = report([("relax_c20_t4_s0", 2.0, "aaa")])
        problems = compare_reports(BASELINE, fresh)
        assert any("missing from fresh run" in p for p in problems)


def rss_report(scenarios, peak=None):
    payload = {
        "bench": "google_fleet",
        "scenarios": [
            {"name": name, "wall_s": 10.0, "phases": {"run": 10.0},
             "summary_digest": "d", "rss_peak_mb": rss}
            for name, rss in scenarios
        ],
    }
    if peak is not None:
        payload["peak_rss_mb"] = peak
    return payload


RSS_BASELINE = rss_report(
    [("fleet_shard_00", 400.0), ("fleet_shard_01", 400.0),
     ("fleet_shard_02", 400.0)],
    peak=900.0,
)


class TestRssGate:
    def test_identical_run_passes(self):
        assert compare_reports(RSS_BASELINE, RSS_BASELINE) == []

    def test_uniform_growth_passes_shares_but_trips_peak(self):
        # All shards 2x: shares are flat, but the run high-water mark
        # doubled — exactly what the absolute peak check exists for.
        fresh = rss_report(
            [(s["name"], s["rss_peak_mb"] * 2)
             for s in RSS_BASELINE["scenarios"]],
            peak=1800.0,
        )
        problems = compare_reports(RSS_BASELINE, fresh)
        assert len(problems) == 1
        assert "run peak RSS regressed" in problems[0]

    def test_single_shard_blowup_fails_share(self):
        fresh = rss_report(
            [("fleet_shard_00", 1200.0), ("fleet_shard_01", 400.0),
             ("fleet_shard_02", 400.0)],
            peak=900.0,
        )
        problems = compare_reports(RSS_BASELINE, fresh)
        assert any(
            p.startswith("fleet_shard_00: peak RSS regressed") for p in problems
        )

    def test_missing_rss_data_skips_checks(self):
        # A pre-RSS baseline (no rss_peak_mb, no peak_rss_mb) gates
        # nothing — old baselines stay comparable.
        legacy = report([("fleet_shard_00", 10.0, "d")])
        fresh = rss_report([("fleet_shard_00", 4000.0)], peak=4000.0)
        assert compare_reports(legacy, fresh) == []

    def test_tiny_rss_not_gated(self):
        base = rss_report(
            [("a", MIN_GATED_RSS_MB / 2), ("b", 400.0)], peak=MIN_GATED_RSS_MB / 2
        )
        fresh = rss_report(
            [("a", MIN_GATED_RSS_MB - 1), ("b", 400.0)], peak=4000.0
        )
        # Interpreter-baseline-sized readings never flap the gate, and a
        # sub-threshold baseline peak cannot anchor the growth check.
        assert compare_reports(base, fresh) == []

    def test_committed_replay_backlog_regression_fails(self):
        """The committed scalability baseline's replay scenario and run peak
        sit above the floor, so replay state growing back from 176 MiB to
        the 268 MiB of uid-keyed per-task dicts fails both RSS checks."""
        base = json.loads((REPO / "BENCH_scalability.json").read_text())
        replay = next(s for s in base["scenarios"] if s["name"] == "replay_backlog")
        assert replay["rss_peak_mb"] >= MIN_GATED_RSS_MB
        assert base["peak_rss_mb"] >= MIN_GATED_RSS_MB
        fresh = json.loads(json.dumps(base))
        for scenario in fresh["scenarios"]:
            if scenario["name"] == "replay_backlog":
                scenario["rss_peak_mb"] = 268.19
        fresh["peak_rss_mb"] = 268.19
        problems = compare_reports(base, fresh)
        assert any(
            p.startswith("replay_backlog: peak RSS regressed") for p in problems
        )
        assert any(p.startswith("run peak RSS regressed") for p in problems)

    def test_ceiling_enforced(self):
        problems = compare_reports(
            RSS_BASELINE, RSS_BASELINE, rss_ceiling_mb=800.0
        )
        assert any("exceeds ceiling" in p for p in problems)
        assert compare_reports(
            RSS_BASELINE, RSS_BASELINE, rss_ceiling_mb=1000.0
        ) == []

    def test_ceiling_requires_fresh_peak(self):
        fresh = rss_report([("fleet_shard_00", 400.0)])
        problems = compare_reports(fresh, fresh, rss_ceiling_mb=800.0)
        assert any("cannot check RSS ceiling" in p for p in problems)

    def test_cli_rss_ceiling(self, tmp_path, capsys):
        base_path = tmp_path / "base.json"
        fresh_path = tmp_path / "fresh.json"
        base_path.write_text(json.dumps(RSS_BASELINE))
        fresh_path.write_text(json.dumps(RSS_BASELINE))
        args = ["--baseline", str(base_path), "--fresh", str(fresh_path)]
        assert main([*args, "--rss-ceiling-mb", "1000"]) == 0
        assert "peak RSS (fresh run): 900 MiB" in capsys.readouterr().out
        assert main([*args, "--rss-ceiling-mb", "800"]) == 1
        assert "exceeds ceiling" in capsys.readouterr().err


def with_phases(payload, name, phases):
    """``payload`` with scenario ``name``'s phases replaced."""
    payload = json.loads(json.dumps(payload))
    for scenario in payload["scenarios"]:
        if scenario["name"] == name:
            scenario["phases"] = phases
    return payload


class TestPhaseCoverage:
    def test_uncovered_wall_fails(self):
        # replay_backlog (8 s) records 7 s of phases: 87.5 % < 95 %.
        fresh = with_phases(
            BASELINE, "replay_backlog", {"trace": 3.0, "replay": 4.0}
        )
        problems = compare_reports(BASELINE, fresh)
        assert problems == [
            "replay_backlog: phases cover 87.5% of its wall (floor 95%)"
        ]

    def test_floor_is_inclusive(self):
        fresh = with_phases(
            BASELINE, "replay_backlog", {"replay": 8.0 * MIN_PHASE_COVERAGE}
        )
        assert compare_reports(BASELINE, fresh) == []

    def test_scenario_without_phases_covers_nothing(self):
        fresh = with_phases(BASELINE, "relax_c80_t4_s0", None)
        problems = compare_reports(BASELINE, fresh)
        assert problems == [
            "relax_c80_t4_s0: phases cover 0.0% of its wall (floor 95%)"
        ]

    def test_short_scenarios_not_gated(self):
        base = report([("tiny", MIN_GATED_WALL_S / 2, "x"), ("big", 50.0, "y")])
        fresh = with_phases(base, "tiny", {})
        assert compare_reports(base, fresh) == []

    def test_only_the_fresh_run_is_gated(self):
        # A baseline recorded before phases existed does not fail the run.
        legacy = with_phases(BASELINE, "replay_backlog", {})
        assert compare_reports(legacy, BASELINE) == []

    def test_committed_baselines_pass(self):
        """Each committed gated baseline passes against itself, as CI runs it."""
        scalability = json.loads((REPO / "BENCH_scalability.json").read_text())
        assert compare_reports(scalability, scalability) == []
        fleet = json.loads((REPO / "BENCH_google_fleet.json").read_text())
        assert compare_reports(
            fleet, fleet, max_regression=0.5, rss_ceiling_mb=2048
        ) == []


def with_tasks(payload, tasks, tasks_per_second):
    """``payload`` whose first scenario replayed ``tasks`` tasks."""
    payload = json.loads(json.dumps(payload))
    payload["scenarios"][0]["tasks"] = tasks
    if tasks_per_second is not None:
        payload["tasks_per_second"] = tasks_per_second
    return payload


class TestThroughput:
    def test_recorded_throughput_passes(self):
        assert compare_reports(BASELINE, with_tasks(BASELINE, 4151, 4258.2)) == []

    def test_no_tasks_needs_no_throughput(self):
        # Solver-only suites record neither.
        assert compare_reports(BASELINE, with_tasks(BASELINE, 0, 0.0)) == []

    @pytest.mark.parametrize("tasks_per_second", [0.0, None])
    def test_zero_or_missing_throughput_fails(self, tasks_per_second):
        fresh = with_tasks(BASELINE, 4151, tasks_per_second)
        assert compare_reports(BASELINE, fresh) == [
            f"scenarios record 4151 tasks but tasks_per_second is "
            f"{tasks_per_second!r}"
        ]


class TestCli:
    def test_main_pass_and_fail(self, tmp_path, capsys):
        base_path = tmp_path / "base.json"
        fresh_path = tmp_path / "fresh.json"
        base_path.write_text(json.dumps(BASELINE))
        fresh_path.write_text(json.dumps(BASELINE))
        assert (
            main(["--baseline", str(base_path), "--fresh", str(fresh_path)]) == 0
        )
        assert "perf gate passed" in capsys.readouterr().out

        fresh_path.write_text(json.dumps(REPLAY_BLOWUP))
        assert (
            main(["--baseline", str(base_path), "--fresh", str(fresh_path)]) == 1
        )
        assert "wall time regressed" in capsys.readouterr().err
