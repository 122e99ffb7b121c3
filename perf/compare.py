#!/usr/bin/env python3
"""Compare two result files of ``perf/run.py`` metric by metric.

    python3 perf/compare.py base.json new.json     # verdict per metric
    python3 perf/compare.py runs.json              # spread per metric

A result file holds one record per (workload, seed, pass); write one with
``python3 perf/run.py --runs 10 --out runs.json``.  For every (workload,
metric) the tool takes the median over the file's runs and the spread —
the distance between the first and third quartile as a share of the
median, from ``statistics.quantiles(values, n=4)`` — and applies the
metric's bound:

``same``        the new median is within the bound of the base median
``better``      it moved past the bound in the metric's good direction
``worse``       it moved past the bound in the bad direction
``unresolved``  either side's spread is wider than the bound, so a
                difference of that size cannot be told from noise (unless
                every run of one side beats every run of the other)
``info``        a per-layer metric; it has no bound and gets no verdict

Digests must be identical between two files of the same code at the same
seeds; a differing digest is reported as ``worse``.  The exit code is 1 if
any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

#: End-to-end metrics that exist on some workloads only.  The schema of
#: BENCHMARK.json wants every ``end_to_end`` metric on every workload and
#: never zero, so these travel in its ``per_layer`` list and get their
#: bounds here: (better, kind, bound).  ``relative`` is a share of the base
#: median, ``points`` an absolute difference.  The simulated-cluster
#: statistics repeat exactly between runs of the same code; their bound is
#: what counts as a regression between two versions.
WORKLOAD_METRICS = {
    "tick_p50_ms": ("lower", "relative", 0.10),
    "tick_p99_ms": ("lower", "relative", 0.15),
    "restore_s": ("lower", "relative", 0.10),
    "energy_savings_pct": ("higher", "points", 0.5),
    "unscheduled_frac": ("lower", "relative", 0.01),
    "prod_delay_p95_s": ("lower", "relative", 0.01),
    "failed_share": ("lower", "points", 0.0),
}
#: Statistics of the simulated cluster: exact per seed, different between
#: seeds, so a spread over seeds says nothing about them.
SIM_METRICS = {"energy_savings_pct", "unscheduled_frac", "prod_delay_p95_s"}


def bounds() -> dict[str, tuple[str, str, float]]:
    """name -> (better, kind, bound) for every bounded metric."""
    spec_path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    table = {
        m["name"]: (m["better"], "relative", m["bound"]) for m in spec["end_to_end"]
    }
    table.update(WORKLOAD_METRICS)
    return table


def load(path: str) -> tuple[dict, dict]:
    """(workload, metric) -> values over the runs, and (workload, seed,
    digest name) -> set of digests seen."""
    values: dict[tuple[str, str], list[float]] = {}
    units: dict[str, str] = {}
    digests: dict[tuple[str, int, str], set[str]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        for name, metric in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(metric["value"])
            units[name] = metric["unit"]
        for name, digest in run["digests"].items():
            digests.setdefault((run["workload"], run["seed"], name), set()).add(digest)
    return {key: (vals, units[key[1]]) for key, vals in values.items()}, digests


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 with one run)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return abs(third - first) / abs(median) if median else 0.0


def verdict(base: list[float], new: list[float], better: str, kind: str,
            bound: float) -> str:
    base_median, new_median = statistics.median(base), statistics.median(new)
    gain = new_median - base_median if better == "higher" else base_median - new_median
    allowed = bound * abs(base_median) if kind == "relative" else bound
    if abs(gain) <= allowed:
        return "same"
    if kind == "relative" and max(spread(base), spread(new)) > bound:
        if not (max(new) < min(base) or min(new) > max(base)):
            return "unresolved"
    return "better" if gain > 0 else "worse"


def show_spread(path: str) -> int:
    values, digests = load(path)
    table = bounds()
    print(f"{'workload':16s} {'metric':36s} {'runs':>4s} {'median':>14s} "
          f"{'unit':6s} {'spread':>8s} {'bound':>7s}")
    wide = 0
    for (workload, name), (vals, unit) in sorted(values.items()):
        if name not in table or name in SIM_METRICS or not any(vals):
            continue
        _, kind, bound = table[name]
        share = spread(vals)
        flag = ""
        if kind == "relative" and name != "setup_s" and share > bound / 3:
            flag = " > bound/3"
            wide += share > bound
        print(f"{workload:16s} {name:36s} {len(vals):4d} "
              f"{statistics.median(vals):14.6g} {unit:6s} {share:8.2%} "
              f"{bound:7.2%}{flag}")
    unstable = [key for key, seen in digests.items() if len(seen) > 1]
    for key in unstable:
        print(f"digest differs between runs of one seed: {key}")
    return 1 if wide or unstable else 0


def compare(base_path: str, new_path: str) -> int:
    base_values, base_digests = load(base_path)
    new_values, new_digests = load(new_path)
    table = bounds()
    print(f"{'workload':16s} {'metric':36s} {'base':>14s} {'new':>14s} {'unit':6s} "
          f"{'new/base':>9s} {'verdict':10s}")
    worse = 0
    for key in sorted(base_values.keys() & new_values.keys()):
        workload, name = key
        (base, unit), (new, _) = base_values[key], new_values[key]
        base_median, new_median = statistics.median(base), statistics.median(new)
        if not base_median and not new_median and name != "failed_share":
            continue  # a metric this workload does not have
        ratio = f"{new_median / base_median:9.4f}" if base_median else "        -"
        result = verdict(base, new, *table[name]) if name in table else "info"
        worse += result == "worse"
        print(f"{workload:16s} {name:36s} {base_median:14.6g} {new_median:14.6g} "
              f"{unit:6s} {ratio} {result:10s}")
    for key in sorted(base_digests.keys() & new_digests.keys()):
        if base_digests[key] != new_digests[key]:
            worse += 1
            print(f"{key[0]:16s} digest {key[2]} (seed {key[1]}) differs: worse")
    for key in sorted(base_values.keys() ^ new_values.keys()):
        print(f"{key[0]:16s} {key[1]:36s} present in one file only")
    print(f"{worse} worse")
    return 1 if worse else 0


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        return show_spread(argv[0])
    if len(argv) == 2:
        return compare(argv[0], argv[1])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
