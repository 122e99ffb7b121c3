"""Unit tests for the CI perf-gate comparator (scripts/check_bench_regression.py)."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from check_bench_regression import (  # noqa: E402
    MIN_GATED_RSS_MB,
    MIN_GATED_WALL_S,
    compare_reports,
    main,
)


def report(scenarios):
    return {
        "bench": "scalability",
        "scenarios": [
            {"name": name, "wall_s": wall, "summary_digest": digest}
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
        assert "replay_backlog" in problems[0]
        assert "share regressed" in problems[0]

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
            {"name": name, "wall_s": 10.0, "summary_digest": "d",
             "rss_peak_mb": rss}
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
            "fleet_shard_00" in p and "peak-RSS share regressed" in p
            for p in problems
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
        assert "share regressed" in capsys.readouterr().err
