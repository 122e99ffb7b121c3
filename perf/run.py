#!/usr/bin/env python3
"""The repository's benchmark: five workloads over the whole pipeline.

    python3 perf/run.py --workload control_mpc --seed 7 --seconds 10 --trace 0
    python3 perf/run.py                      # all five, both passes, one table

One workload run builds its inputs from ``--seed`` (three times; the median
is ``setup_s``), repeats the timed region for ``--seconds`` with the
program untouched, and — with ``--trace 1`` — repeats it again with span
wrappers around each layer's public callables.  Output checks run either
way.  The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The run happens in a child process; the command itself only
waits until that child and every process the child started have ended.  See
``perf/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import monotonic, perf_counter, sleep

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parent
SETUP_REPEATS = 3
#: Repeats of the timed region however short ``--seconds`` is.
MIN_REPEATS = {"untraced": 3, "traced": 2}
THREAD_PINS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread pins were set")
    for name in THREAD_PINS:
        os.environ[name] = "1"


def load_spec() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment(workers: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "workers": workers,
        "blas_threads": 1,
    }


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------ one workload


class Ledger:
    """Operations attempted and failed, and the output checks behind them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failed_checks: list[str] = []

    def operations(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, passed: bool) -> None:
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.failed_checks.append(name)


def timed_repeats(run_once, seconds: float, minimum: int, ledger: Ledger):
    """Repeat the timed region until ``seconds`` are used; (walls, outcomes).

    Caches start cold and garbage is collected before every repeat, so each
    repeat costs what a fresh process would pay.  A repeat that raises is a
    failed operation and ends the pass.
    """
    from repro.queueing.mgn import clear_queueing_caches

    walls: list[float] = []
    outcomes: list[dict] = []
    begun = perf_counter()
    while True:
        clear_queueing_caches()
        gc.collect()
        start = perf_counter()
        try:
            outcome = run_once()
        except Exception:
            traceback.print_exc()
            ledger.operations(1, 1)
            break
        walls.append(perf_counter() - start)
        outcomes.append(outcome)
        ledger.operations(outcome["operations"], outcome["failures"])
        used = perf_counter() - begun
        if len(walls) >= minimum and used + statistics.median(walls) > seconds:
            break
    return walls, outcomes


def check_outcomes(ledger: Ledger, label: str, outcomes: list[dict]) -> None:
    for outcome in outcomes:
        for summary in outcome["summaries"]:
            ledger.check(
                f"{label}:conservation",
                summary["tasks_submitted"]
                == summary["tasks_scheduled"] + summary["tasks_unscheduled"],
            )
        for name, passed in outcome["checks"].items():
            ledger.check(f"{label}:{name}", bool(passed))
    for outcome in outcomes[1:]:
        ledger.check(
            f"{label}:digests_repeat", outcome["digests"] == outcomes[0]["digests"]
        )
        ledger.check(f"{label}:sim_repeats", outcome["sim"] == outcomes[0]["sim"])


def set_up(workload, params: dict, seed: int, tracer, trace: bool):
    """Build the inputs ``SETUP_REPEATS`` times: (last inputs, times).

    The median time is ``setup_s``.  With ``--trace 1`` the last set-up,
    whose inputs are used, runs under the wrappers.
    """
    import layers

    times = []
    prepared = None
    for index in range(SETUP_REPEATS):
        prepared = None
        gc.collect()
        wrappers = (
            layers.install(tracer) if trace and index == SETUP_REPEATS - 1 else None
        )
        start = perf_counter()
        try:
            prepared = workload.setup(params, seed, tracer.in_phase)
        finally:
            if wrappers is not None:
                wrappers.remove()
        times.append(perf_counter() - start)
    return prepared, times


def traced_pass(workload, prepared: dict, context, tracer, seconds: float,
                ledger: Ledger):
    """The timed region under span wrappers: (walls, outcomes, cache infos)."""
    import layers
    from repro.queueing.mgn import queueing_cache_info

    cache_infos: list[dict] = []

    def traced_once():
        with tracer.span("bench.repeat"):
            outcome = workload.run(prepared, context)
        cache_infos.append(queueing_cache_info())
        return outcome

    tracer.phase = "run"
    wrappers = layers.install(tracer)
    try:
        walls, outcomes = timed_repeats(
            traced_once, seconds, MIN_REPEATS["traced"], ledger
        )
    finally:
        wrappers.remove()
    return walls, outcomes, cache_infos


def measure(name: str, seed: int, seconds: float, trace: bool, workers: int,
            quick: bool, spec: dict) -> dict:
    """Run one workload; the full record (metrics, digests, environment).

    ``metrics`` holds what ``spec`` lists for this pass and nothing else: the
    end-to-end readings a traced run takes on its shortened untraced half
    are not the reference ones.
    """
    import layers
    from tracing import Tracer
    from workloads import WORKLOADS, Context

    workload = WORKLOADS[name]
    params = workload.quick if quick else workload.params
    scratch = PERF_DIR / "out" / f"scratch_{os.getpid()}"
    ledger = Ledger()
    tracer = Tracer(name)
    traced_walls: list[float] = []
    traced_outcomes: list[dict] = []
    cache_infos: list[dict] = []
    try:
        prepared, setup_times = set_up(workload, params, seed, tracer, trace)
        for check, passed in prepared.get("checks", {}).items():
            ledger.check(f"setup:{check}", passed)

        budget = seconds / 2 if trace else seconds
        context = Context(workers=workers, scratch=scratch)
        walls, outcomes = timed_repeats(
            lambda: workload.run(prepared, context),
            budget, MIN_REPEATS["untraced"], ledger,
        )
        check_outcomes(ledger, "untraced", outcomes)

        if trace and outcomes:
            # Inline shards (workers=1), so that they run under the wrappers.
            traced_walls, traced_outcomes, cache_infos = traced_pass(
                workload, prepared,
                Context(workers=1, scratch=scratch, span=tracer.span), tracer,
                budget, ledger,
            )
            check_outcomes(ledger, "traced", traced_outcomes)
            if traced_outcomes:
                ledger.check(
                    "traced_equals_untraced",
                    traced_outcomes[0]["digests"] == outcomes[0]["digests"],
                )
            tracer.write(PERF_DIR / "out" / f"spans_{name}.jsonl")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "quick": quick,
        "params": params,
        "environment": environment(workers),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failed_checks": ledger.failed_checks,
        "correct": ledger.failed == 0 and bool(outcomes),
        "repeats": {
            "setup_s": setup_times,
            "untraced_wall_s": walls,
            "traced_wall_s": traced_walls,
        },
        "digests": {},
        "metrics": {},
    }
    if not outcomes or (trace and not traced_outcomes):
        return record
    record["digests"] = {**prepared.get("digests", {}), **outcomes[0]["digests"]}

    wall = statistics.median(walls)
    worker_rss = max(sum(o["host"].get("worker_rss_mb", [])) for o in outcomes)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall, "s"),
        "sim_tasks_per_s": (outcomes[0]["tasks"] / wall, "1/s"),
        # Process tree: this process's high-water mark plus, when shards
        # ran in worker processes side by side, the workers' own peaks.
        "peak_rss_mb": (self_peak_rss_mb() + worker_rss, "MiB"),
    }
    if trace:
        metrics.update(layers.span_metrics(layers.Repeats(tracer)))
        metrics.update(
            run_metrics(outcomes, traced_outcomes, cache_infos, metrics, ledger,
                        wall, statistics.median(traced_walls), workers)
        )
    for wanted in spec["per_layer"] if trace else spec["end_to_end"]:
        value, unit = metrics[wanted["name"]]
        if unit != wanted["unit"]:
            raise ValueError(f"unit of {wanted['name']} differs from BENCHMARK.json")
        record["metrics"][wanted["name"]] = {"value": float(value), "unit": unit}
    return record


def run_metrics(outcomes, traced_outcomes, cache_infos, metrics, ledger,
                wall: float, traced_wall: float, workers: int) -> dict:
    """Per-layer metrics that need more than spans, plus the end-to-end
    metrics that exist on some workloads only (zero where they do not)."""
    import layers

    median = statistics.median
    host = [outcome["host"] for outcome in outcomes]
    traced_host = [outcome["host"] for outcome in traced_outcomes]
    sim = outcomes[0]["sim"]

    def cache(name: str, field: str) -> float:
        return median([info[name][field] for info in cache_infos])

    hits = cache("required_containers", "hits") + cache("erlang_b", "hits")
    misses = cache("required_containers", "misses") + cache("erlang_b", "misses")

    shard_walls = [h["shard_walls_s"] for h in host if "shard_walls_s" in h]
    slowest = median([max(w) for w in shard_walls]) if shard_walls else 0.0
    total = median([sum(w) for w in shard_walls]) if shard_walls else 0.0
    shards = len(shard_walls[0]) if shard_walls else 0
    # With parallel workers the slowest shard blocks the result; inline,
    # every shard does.
    blocking = slowest if workers > 1 else total
    overhead = 0.0
    if shard_walls:
        overhead = (
            median([h["run_wall_s"] for h in host])
            - metrics["trace.plan_s"][0] - blocking - metrics["simulation.merge_s"][0]
        )

    gaps = [gap for h in host for gap in h.get("tick_gaps_ms", [])]
    return {
        "trace.stream_useful_ratio": (
            layers.ratio(
                sum(h.get("tasks_routed", 0) for h in traced_host),
                sum(h.get("tasks_seen", 0) for h in traced_host),
            ),
            "ratio",
        ),
        "queueing.required_containers_hits": (cache("required_containers", "hits"), "count"),
        "queueing.required_containers_misses": (cache("required_containers", "misses"), "count"),
        "queueing.erlang_b_hits": (cache("erlang_b", "hits"), "count"),
        "queueing.erlang_b_misses": (cache("erlang_b", "misses"), "count"),
        "queueing.cache_hit_ratio": (layers.ratio(hits, hits + misses), "ratio"),
        "fleet.shard_wall_max_s": (slowest, "s"),
        "fleet.shard_wall_sum_s": (total, "s"),
        "fleet.shard_imbalance": (layers.ratio(slowest * shards, total), "ratio"),
        "fleet.overhead_s": (overhead, "s"),
        "serve.watchdog_restarts": (
            sum(h.get("watchdog_restarts", 0) for h in traced_host), "count"
        ),
        "bench.trace_overhead_pct": (100.0 * (traced_wall - wall) / wall, "%"),
        "tick_p50_ms": (layers.percentile(gaps, 50), "ms"),
        "tick_p99_ms": (layers.percentile(gaps, 99), "ms"),
        "restore_s": (median([h.get("restore_s", 0.0) for h in host]), "s"),
        "energy_savings_pct": (sim.get("energy_savings_pct", 0.0), "%"),
        "unscheduled_frac": (sim.get("unscheduled_frac", 0.0), "ratio"),
        "prod_delay_p95_s": (sim.get("prod_delay_p95_s", 0.0), "s"),
        "failed_share": (layers.ratio(ledger.failed, ledger.attempted), "ratio"),
    }


def report(record: dict) -> str:
    """Print the record's metrics; the contract's one-line JSON result."""
    walls = record["repeats"]["untraced_wall_s"]
    print(
        f"{record['workload']} seed={record['seed']} trace={record['trace']} "
        f"params={json.dumps(record['params'], sort_keys=True)}"
    )
    print(f"environment {json.dumps(record['environment'], sort_keys=True)}")
    print(
        f"timed region: {len(walls)} repeats, median {statistics.median(walls):.4f} s "
        f"(min {min(walls):.4f}, max {max(walls):.4f})"
    )
    for key, metric in record["metrics"].items():
        print(f"  {key:40s} {metric['value']:>16.6g} {metric['unit']}")
    for key, digest in sorted(record["digests"].items()):
        print(f"  digest {key:33s} {digest}")
    print(
        f"checks: attempted {record['attempted']} failed {record['failed']} "
        f"{record['failed_checks'] or ''}"
    )
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    )


# ------------------------------------------------- nothing is left running
#
# The program starts processes of its own: ``run_fleet`` with two workers
# opens a spawn-context pool, and with it multiprocessing's resource tracker,
# which ends only once its parent has.  Orphaned like that it is handed to
# pid 1, and where pid 1 does not wait for its children it stays a zombie
# after every run.  So the command measures in a child process and stays
# behind as the one every orphan is handed to, until none is left.

PR_SET_CHILD_SUBREAPER = 36
#: How long processes that outlive the run get to end by themselves.
GRACE_S = 5.0


def adopt_orphans() -> None:
    """Have every orphaned descendant re-parented to this process (Linux)."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def children() -> list[int]:
    """Pids of this process's children, zombies included."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # "pid (comm) state ppid ..."; comm may itself hold spaces and ")".
        if int(stat.rpartition(")")[2].split()[1]) == me:
            found.append(int(entry))
    return found


def reap_all(grace: float) -> list[int]:
    """Wait until this process has no child left; the pids it had to kill.

    Children still running ``grace`` seconds from now are killed, and so are
    the orphans each kill hands over.
    """
    deadline = monotonic() + grace
    killed: set[int] = set()
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return sorted(killed)
        if pid:
            continue
        if monotonic() >= deadline:
            for child in children():
                try:
                    os.kill(child, signal.SIGKILL)
                    killed.add(child)
                except ProcessLookupError:
                    pass
        sleep(0.005)


def supervised(argv: list[str]) -> int:
    """Run one workload in a child process; return once nothing it started
    is left, however the child or this process ends."""
    adopt_orphans()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    inner = subprocess.Popen([sys.executable, str(PERF_DIR / "run.py"), *argv, "--inner"])
    grace = 0.0
    try:
        code = inner.wait()
        grace = GRACE_S
    finally:
        killed = reap_all(grace)
    if killed:
        print(f"{len(killed)} process(es) outlived the run and were killed: {killed}",
              file=sys.stderr)
        return code or 1
    return code


# ------------------------------------------------------------ all workloads


def run_all(args, spec: dict) -> int:
    """Each workload, untraced then traced, each in a fresh process."""
    records = []
    out_dir = PERF_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    for run in range(args.runs):
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace in (0, 1):
                record_path = out_dir / f"record_{os.getpid()}.json"
                command = [
                    sys.executable, str(PERF_DIR / "run.py"),
                    "--workload", workload, "--seed", str(args.seed + run),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--workers", str(args.workers), "--record", str(record_path),
                ] + (["--quick"] if args.quick else [])
                completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                sys.stdout.write(completed.stdout)
                if record_path.exists():
                    records.append(json.loads(record_path.read_text()))
                    record_path.unlink()
                else:
                    print(f"{workload} trace={trace} exited {completed.returncode}")
                    records.append(
                        {"workload": workload, "trace": trace, "seed": args.seed + run,
                         "correct": False, "attempted": 1, "failed": 1,
                         "metrics": {}, "digests": {}}
                    )
    out = Path(args.out) if args.out else out_dir / "results.json"
    out.write_text(json.dumps({"runs": records}, indent=1, sort_keys=True) + "\n")
    failed = sum(r["failed"] for r in records)
    attempted = sum(r["attempted"] for r in records)
    print(f"wrote {out}: {len(records)} runs, {failed} of {attempted} operations failed")
    return 0 if all(r["correct"] for r in records) else 1


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=min(2, nproc()),
                        help="fleet_stream shard workers (default min(2, nproc))")
    parser.add_argument("--quick", action="store_true",
                        help="self-test sizes; not comparable with full runs")
    parser.add_argument("--runs", type=int, default=1,
                        help="with --workload all: runs per workload, seeds seed, seed+1, ...")
    parser.add_argument("--out", help="with --workload all: results file")
    parser.add_argument("--record", help="also write the full record of one run here")
    parser.add_argument("--inner", action="store_true", help=argparse.SUPPRESS)
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    if not 1 <= args.workers <= nproc():
        parser.error(
            f"--workers {args.workers} is outside 1..nproc={nproc()}: a speed-up "
            "measured with more workers than processors would not be one"
        )
    if args.workload == "all":
        return run_all(args, spec)

    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"{REPO_ROOT}/src/repro is missing: nothing to measure", file=sys.stderr)
        return 2
    if not args.inner:
        return supervised(argv)
    pin_threads()
    sys.path.insert(0, str(REPO_ROOT / "src"))
    record = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.workers,
        args.quick, spec,
    )
    if args.record:
        Path(args.record).write_text(json.dumps(record, sort_keys=True) + "\n")
    if not record["metrics"]:
        print(f"{args.workload}: no repeat completed", file=sys.stderr)
        return 1
    print(report(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
