#!/usr/bin/env python3
"""Compare a fresh BENCH_<suite>.json against the committed baseline.

CI's perf + memory gate: after regenerating a suite, this script fails
the build when

- a scenario's share of the suite's total wall time regressed by more
  than ``--max-regression`` (default 25%) relative to the committed
  baseline — shares, not absolute seconds, so the gate is stable across
  runner hardware;
- a scenario's share of the suite's summed peak RSS regressed the same
  way (same limit, same rationale) — scenarios without RSS data on
  either side are skipped, so pre-RSS baselines stay comparable;
- the run's ``peak_rss_mb`` high-water mark grew past the baseline's by
  more than ``--max-regression``, or exceeds the absolute
  ``--rss-ceiling-mb`` (when given) — the committed memory envelope of
  the Google-trace-scale fleet bench;
- a baseline scenario disappeared from the fresh run.

The replay kernel is gated through the wall share of the scalability
suite's ``replay_backlog`` scenario.  Pure comparison logic lives in
:func:`compare_reports` for the unit tests
(``tests/test_bench_regression.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Scenarios cheaper than this (seconds, in both runs) are exempt from the
#: share check: their timings are dominated by constant overheads and one
#: scheduler hiccup would flap the gate.
MIN_GATED_WALL_S = 0.5

#: Scenarios (and run peaks) below this resident size are exempt from the
#: RSS checks: a spawn worker that merely imports the simulator sits at
#: ~110-120 MiB (interpreter + numpy/scipy), so readings down there are
#: all import baseline — which moves with toolchain versions, not with
#: our code — and their shares are meaninglessly uniform.
MIN_GATED_RSS_MB = 192.0

def _scenario_walls(report: dict) -> dict[str, float]:
    return {s["name"]: float(s["wall_s"]) for s in report.get("scenarios", [])}


def _scenario_rss(report: dict) -> dict[str, float]:
    return {
        s["name"]: float(s["rss_peak_mb"])
        for s in report.get("scenarios", [])
        if s.get("rss_peak_mb") is not None
    }


def compare_reports(
    baseline: dict,
    fresh: dict,
    max_regression: float = 0.25,
    rss_ceiling_mb: float | None = None,
) -> list[str]:
    """All gate violations of ``fresh`` against ``baseline`` (empty = pass)."""
    problems: list[str] = []
    base_walls = _scenario_walls(baseline)
    fresh_walls = _scenario_walls(fresh)

    missing = sorted(set(base_walls) - set(fresh_walls))
    if missing:
        problems.append(f"scenarios missing from fresh run: {', '.join(missing)}")

    common = sorted(set(base_walls) & set(fresh_walls))
    base_total = sum(base_walls[name] for name in common)
    fresh_total = sum(fresh_walls[name] for name in common)
    if base_total > 0 and fresh_total > 0:
        for name in common:
            if base_walls[name] < MIN_GATED_WALL_S or fresh_walls[name] < MIN_GATED_WALL_S:
                continue
            base_share = base_walls[name] / base_total
            fresh_share = fresh_walls[name] / fresh_total
            if fresh_share > base_share * (1.0 + max_regression):
                problems.append(
                    f"{name}: wall-time share regressed "
                    f"{base_share:.1%} -> {fresh_share:.1%} "
                    f"(limit +{max_regression:.0%})"
                )

    # Peak-RSS share gate — the memory mirror of the wall-share gate.
    # Skips silently when either side predates RSS recording.
    base_rss = _scenario_rss(baseline)
    fresh_rss = _scenario_rss(fresh)
    rss_common = sorted(set(base_rss) & set(fresh_rss))
    base_rss_total = sum(base_rss[name] for name in rss_common)
    fresh_rss_total = sum(fresh_rss[name] for name in rss_common)
    if base_rss_total > 0 and fresh_rss_total > 0:
        for name in rss_common:
            if (
                base_rss[name] < MIN_GATED_RSS_MB
                or fresh_rss[name] < MIN_GATED_RSS_MB
            ):
                continue
            base_share = base_rss[name] / base_rss_total
            fresh_share = fresh_rss[name] / fresh_rss_total
            if fresh_share > base_share * (1.0 + max_regression):
                problems.append(
                    f"{name}: peak-RSS share regressed "
                    f"{base_share:.1%} -> {fresh_share:.1%} "
                    f"(limit +{max_regression:.0%})"
                )

    base_peak = baseline.get("peak_rss_mb")
    fresh_peak = fresh.get("peak_rss_mb")
    if (
        base_peak is not None
        and fresh_peak is not None
        and float(base_peak) >= MIN_GATED_RSS_MB
        and float(fresh_peak) > float(base_peak) * (1.0 + max_regression)
    ):
        problems.append(
            f"run peak RSS regressed {float(base_peak):.0f} MiB -> "
            f"{float(fresh_peak):.0f} MiB (limit +{max_regression:.0%})"
        )
    if rss_ceiling_mb is not None:
        if fresh_peak is None:
            problems.append(
                "cannot check RSS ceiling: fresh run recorded no peak_rss_mb"
            )
        elif float(fresh_peak) > rss_ceiling_mb:
            problems.append(
                f"run peak RSS {float(fresh_peak):.0f} MiB exceeds ceiling "
                f"{rss_ceiling_mb:.0f} MiB"
            )

    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path("BENCH_scalability.json"),
        help="committed perf baseline",
    )
    parser.add_argument(
        "--fresh",
        type=Path,
        required=True,
        help="freshly generated BENCH_scalability.json to gate",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed per-scenario wall-share regression (fraction)",
    )
    parser.add_argument(
        "--rss-ceiling-mb",
        type=float,
        default=None,
        help="absolute peak-RSS ceiling for the fresh run (off when omitted)",
    )
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    fresh = json.loads(args.fresh.read_text())

    fresh_peak = fresh.get("peak_rss_mb")
    if fresh_peak is not None:
        print(f"peak RSS (fresh run): {float(fresh_peak):.0f} MiB")

    problems = compare_reports(
        baseline,
        fresh,
        max_regression=args.max_regression,
        rss_ceiling_mb=args.rss_ceiling_mb,
    )
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
