#!/usr/bin/env python3
"""Compare a fresh BENCH_<suite>.json against the committed baseline.

CI's perf + memory gate: after regenerating a suite, this script fails
the build when

- a scenario's wall time, relative to the baseline's, grew by more than
  ``--max-regression`` (default 25%) beyond the host-speed factor: the
  median fresh/base wall ratio over every scenario the two runs share.
  A uniformly slower runner moves the median with every scenario and
  passes; one scenario slowing down moves only its own ratio.  Shares
  of the total would not do: a scenario that dominates the total (the
  scalability suite's ``replay_backlog`` is ~60% of it) sits in its own
  denominator, so its share barely moves when it slows down, while a
  speed-up of it alone inflates every other scenario's share;
- a scenario's peak RSS grew the same way against the median RSS ratio
  (same limit, same rationale) — scenarios without RSS data on either
  side are skipped, so pre-RSS baselines stay comparable;
- the run's ``peak_rss_mb`` high-water mark grew past the baseline's by
  more than ``--max-regression``, or exceeds the absolute
  ``--rss-ceiling-mb`` (when given) — the committed memory envelope of
  the Google-trace-scale fleet bench;
- a baseline scenario disappeared from the fresh run;
- a fresh scenario's recorded ``phases`` cover less than
  ``MIN_PHASE_COVERAGE`` of its wall: the rest is time no layer answers
  for.  A scenario that records no phases covers none of it;
- the fresh run's scenarios record simulated ``tasks`` but its
  ``tasks_per_second`` is 0 or missing: a throughput that reads 0 on a
  run that did work measures nothing.

The replay kernel is gated through the wall ratio of the scalability
suite's ``replay_backlog`` scenario.  Pure comparison logic lives in
:func:`compare_reports` for the unit tests
(``tests/test_bench_regression.py``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

#: Scenarios cheaper than this (seconds, in either run) are exempt from the
#: wall check: their timings are dominated by constant overheads and one
#: scheduler hiccup would flap the gate.
MIN_GATED_WALL_S = 0.5

#: Scenarios (and run peaks) below this resident size are exempt from the
#: RSS checks: a worker forked from the executor's template, which has
#: the runner's tasks and scipy.optimize imported, sits at ~62 MiB after
#: a tiny LP solve (the template itself at ~80 MiB; Python 3.11, numpy
#: 2.4, scipy 1.17), and the committed baselines' small scenarios record
#: 84-131 MiB.  Readings down there are mostly import
#: baseline — which moves with toolchain versions, not with our code.
#: The floor sits below the scalability suite's ``replay_backlog``
#: (176 MiB with row-indexed replay state), so that scenario and the run
#: peak it sets stay gated.
MIN_GATED_RSS_MB = 150.0

#: The share of a fresh scenario's wall its recorded phases must cover,
#: checked for scenarios at or above ``MIN_GATED_WALL_S``.
MIN_PHASE_COVERAGE = 0.95


def _scenario_walls(report: dict) -> dict[str, float]:
    return {s["name"]: float(s["wall_s"]) for s in report.get("scenarios", [])}


def _scenario_rss(report: dict) -> dict[str, float]:
    return {
        s["name"]: float(s["rss_peak_mb"])
        for s in report.get("scenarios", [])
        if s.get("rss_peak_mb") is not None
    }


def _ratio_regressions(
    base: dict[str, float],
    fresh: dict[str, float],
    floor: float,
    what: str,
    max_regression: float,
) -> list[str]:
    """Scenarios whose fresh/base ratio exceeds the median ratio by more
    than ``max_regression``; only scenarios at or above ``floor`` in both
    runs are gated, but every shared scenario sets the median."""
    ratios = {
        name: fresh[name] / base[name]
        for name in sorted(set(base) & set(fresh))
        if base[name] > 0 and fresh[name] > 0
    }
    if not ratios:
        return []
    median = statistics.median(ratios.values())
    return [
        f"{name}: {what} regressed {ratio:.2f}x against the median "
        f"scenario's {median:.2f}x (limit +{max_regression:.0%})"
        for name, ratio in ratios.items()
        if base[name] >= floor
        and fresh[name] >= floor
        and ratio > median * (1.0 + max_regression)
    ]


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

    problems += _ratio_regressions(
        base_walls, fresh_walls, MIN_GATED_WALL_S, "wall time", max_regression
    )

    for scenario in fresh.get("scenarios", []):
        wall = float(scenario["wall_s"])
        if wall < MIN_GATED_WALL_S:
            continue
        coverage = sum((scenario.get("phases") or {}).values()) / wall
        if coverage < MIN_PHASE_COVERAGE:
            problems.append(
                f"{scenario['name']}: phases cover {coverage:.1%} of its wall "
                f"(floor {MIN_PHASE_COVERAGE:.0%})"
            )

    tasks = sum(int(s.get("tasks") or 0) for s in fresh.get("scenarios", []))
    if tasks > 0 and not fresh.get("tasks_per_second"):
        problems.append(
            f"scenarios record {tasks} tasks but tasks_per_second is "
            f"{fresh.get('tasks_per_second')!r}"
        )

    # Skips silently when either side predates RSS recording.
    problems += _ratio_regressions(
        _scenario_rss(baseline),
        _scenario_rss(fresh),
        MIN_GATED_RSS_MB,
        "peak RSS",
        max_regression,
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
        help="allowed per-scenario wall/RSS regression beyond the median "
        "scenario's (fraction)",
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
