"""Command-line interface: ``python -m repro <command>``.

Commands
--------
generate
    Synthesize a calibrated trace and save it as CSV.
analyze
    Print the Section III workload characterization of a saved trace.
classify
    Fit the two-step task classifier and print the class table.
validate
    Check a trace against the paper's Section III marginals.
simulate
    Run one provisioning policy over a trace and print the summary.  The
    baseline / CBP / CBS comparison (Figs. 21-26) is ``repro bench
    figures``; the fault matrix is ``repro bench robustness`` and
    ``repro bench network_faults``.
sanitize
    Ingest a saved trace directory through the streaming sanitizer
    (:mod:`repro.trace.sanitize`) and print the JSON sanitization report:
    clean/repaired/quarantined counts, per-rule breakdowns, the report
    digest and the quarantine file path.  ``--strict`` exits non-zero if
    anything was quarantined.
lint
    Run harmonylint (:mod:`repro.statics`) over the tree: AST rules for
    the determinism/digest/taxonomy invariants (DET/ERR/NUM/API
    codes) with ``# repro: noqa[CODE]`` as the one way to accept a
    finding.  Exit codes are stable: 0 clean, 1 findings, 2
    usage/configuration error.
bench
    Run a scenario suite through the scenario executor
    (:class:`~repro.runner.ScenarioSupervisor`), write a
    ``BENCH_<suite>.json`` perf baseline, then print the suite's shapes
    (``repro.runner.suites``); a failed one exits 1.  Scenarios run in
    process at ``--workers 1`` and on warm worker processes otherwise,
    always with deterministic-backoff retries, quarantine and a
    digest-verified ``JOURNAL_<suite>_<run id>.jsonl`` in ``--output``
    that ``--resume`` replays, so an interrupted suite finishes where it
    left off; ``--timeout`` bounds each attempt of a worker.  With
    ``--corrupt`` the dirty-trace ``trace_corruption`` suite is appended
    to the run, exercising the data-plane hardening layer.
fleet
    Run the sharded, crash-tolerant fleet simulation (:mod:`repro.fleet`)
    at Google-trace scale: partition the census into machine-type cells,
    stream-route-replay each cell as one scenario of the same executor
    (timeouts, retries, journaled ``--resume`` and a fleet-wide memory
    ceiling), then merge the per-shard summaries into one deterministic
    fleet digest, recorded as ``BENCH_google_fleet.json``.  Every run
    prints the ``google_fleet`` shapes and exits 1 on a failed one, as
    ``repro bench`` does.  The trace defaults to the
    ``REPRO_BENCH_FLEET_*`` bench point.
serve
    Run the crash-safe online provisioning daemon (:mod:`repro.serve`):
    a live arrival stream (trace replay, ``--follow`` file tail or
    ``--listen`` socket), tick-by-tick classification/forecasting/
    provisioning with the degradation ladder, write-ahead tick journal,
    periodic digest-verified checkpoints, watchdog-supervised control
    steps, SIGHUP hot reload, ``/healthz`` ``/readyz`` ``/metrics`` and
    ``--restore`` resume that is bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.analysis import ascii_table
from repro.classification import ClassifierConfig, TaskClassifier
from repro.errors import TraceFieldCorrupt
from repro.simulation import HarmonyConfig, HarmonySimulation
from repro.simulation.harmony import POLICIES
from repro.trace import (
    SyntheticTraceConfig,
    Trace,
    generate_trace,
    load_trace,
    save_trace,
    trace_summary,
)


def _load_or_generate(args: argparse.Namespace) -> Trace:
    if args.trace:
        return load_trace(args.trace)
    return generate_trace(
        SyntheticTraceConfig(
            horizon_hours=args.hours,
            seed=args.seed,
            total_machines=args.machines,
            load_factor=args.load,
        )
    )


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", type=Path, default=None,
                        help="directory of a saved trace (default: generate)")
    parser.add_argument("--hours", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--machines", type=int, default=400)
    parser.add_argument("--load", type=float, default=0.55)


def cmd_generate(args: argparse.Namespace) -> int:
    trace = _load_or_generate(args)
    save_trace(trace, args.output)
    print(f"saved {trace.num_tasks} tasks / {trace.num_machines} machines "
          f"to {args.output}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    trace = _load_or_generate(args)
    print(json.dumps(trace_summary(trace), indent=2))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.trace import validate_trace

    trace = _load_or_generate(args)
    report = validate_trace(trace)
    print(
        ascii_table(
            ["check", "target", "measured", "status"],
            [check.row() for check in report.checks],
            title="Calibration vs the paper's Section III marginals",
        )
    )
    return 0 if report.passed else 1


def cmd_classify(args: argparse.Namespace) -> int:
    trace = _load_or_generate(args)
    classifier = TaskClassifier(ClassifierConfig(seed=args.seed)).fit(list(trace.tasks))
    rows = classifier.summary()
    print(
        ascii_table(
            ["class", "tasks", "cpu mean", "mem mean", "duration", "CV^2"],
            [
                [r["name"], r["num_tasks"], f"{r['cpu_mean']:.4f}",
                 f"{r['memory_mean']:.4f}", f"{r['duration_mean_s']:.0f}s",
                 f"{r['duration_scv']:.2f}"]
                for r in rows
            ],
        )
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    trace = _load_or_generate(args)
    config = HarmonyConfig(policy=args.policy)
    result = HarmonySimulation(config, trace).run()
    print(json.dumps(result.summary(), indent=2))
    return 0


def cmd_sanitize(args: argparse.Namespace) -> int:
    from repro.trace import sanitize_trace

    trace, report = sanitize_trace(args.directory, quarantine_path=args.quarantine)
    payload = {
        "trace": trace_summary(trace),
        "sanitization": report.to_dict(),
        "digest": report.digest,
        "quarantine_path": report.quarantine_path,
    }
    print(json.dumps(payload, indent=2))
    if args.strict and report.records_quarantined:
        print(
            f"repro sanitize: --strict and {report.records_quarantined} "
            "record(s) quarantined",
            file=sys.stderr,
        )
        return 1
    return 0


def _usage_error(prog: str, message: str) -> int:
    """Print one ``<prog>: <message>`` usage line to stderr; the exit code."""
    print(f"{prog}: {message}", file=sys.stderr)
    return 2


def _supervision(
    prog: str, args: argparse.Namespace, unit: str, memory_ceiling=None
):
    """The executor half of ``repro bench`` / ``repro fleet`` arguments.

    Returns exit code 2 after a usage line for a bad ``--workers`` /
    ``--timeout`` / ``--retries`` / ``memory_ceiling`` (``repro fleet``'s
    ``--memory-ceiling-mb``), or for ``--timeout`` at ``--workers 1``;
    otherwise the run's :class:`~repro.runner.SupervisorConfig`.  ``unit``
    names what a worker runs (scenarios, shards) in the ``--workers`` hint.
    """
    from repro.runner import SupervisorConfig

    if args.workers < 1:
        return _usage_error(
            prog,
            f"--workers must be >= 1, got {args.workers} "
            f"(hint: --workers 1 runs {unit} in-process, serially)",
        )
    if args.timeout is not None and args.timeout <= 0:
        return _usage_error(
            prog, f"--timeout must be positive seconds, got {args.timeout}"
        )
    if args.timeout is not None and args.workers == 1:
        return _usage_error(
            prog,
            f"--timeout cannot be enforced on {unit} running in this process "
            "(hint: --workers 2 or more runs them in worker processes)",
        )
    if args.retries is not None and args.retries < 0:
        return _usage_error(prog, f"--retries must be >= 0, got {args.retries}")
    if memory_ceiling is not None and memory_ceiling <= 0:
        return _usage_error(
            prog, f"--memory-ceiling-mb must be positive MiB, got {memory_ceiling}"
        )
    return SupervisorConfig(
        timeout_seconds=args.timeout,
        max_attempts=(args.retries if args.retries is not None else 2) + 1,
        memory_ceiling_mb=memory_ceiling,
    )


def _check_shapes(suite: str, rows) -> bool:
    """Print a suite's shape rows; True (after a stderr line) if one failed."""
    verdict = {True: "ok", False: "FAILED", None: "not checked"}
    table = [
        [r.shape, "-" if r.measured is None else f"{r.measured:.6g}",
         "-" if r.bound is None else f"{r.op} {r.bound:.6g}", verdict[r.ok]]
        for r in rows
    ]
    print(ascii_table(["shape", "measured", "bound", "result"], table,
                      title=f"shapes {suite}"))
    failed = "; ".join(r.shape for r in rows if r.ok is False)
    if failed:
        print(f"failed shapes: {failed}", file=sys.stderr)
    return bool(failed)


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.runner import (
        SUITES,
        BenchDefaults,
        ScenarioSupervisor,
        bench_defaults,
        write_baseline,
    )
    from repro.runner.suites import SHAPES

    supervision = _supervision("repro bench", args, "scenarios")
    if isinstance(supervision, int):
        return supervision
    if args.verify and args.resume:
        return _usage_error(
            "repro bench",
            "--verify reruns every scenario in process and on workers and "
            "cannot be combined with --resume",
        )

    env = bench_defaults()
    defaults = BenchDefaults(
        hours=args.hours if args.hours is not None else env.hours,
        machines=args.machines if args.machines is not None else env.machines,
        seed=args.seed if args.seed is not None else env.seed,
        load=args.load if args.load is not None else env.load,
    )
    suites = sorted(SUITES) if args.suite == "all" else [args.suite]
    if args.corrupt and "trace_corruption" not in suites:
        suites.append("trace_corruption")
    exit_code = 0
    for suite in suites:
        scenarios = SUITES[suite](defaults)
        serial = None
        supervisor = ScenarioSupervisor(suite, supervision, journal_dir=args.output)
        if args.verify:
            serial, report = supervisor.verify_determinism(
                scenarios, workers=args.workers
            )
        else:
            report = supervisor.run(
                scenarios, workers=args.workers, resume=args.resume
            )
        if supervisor.resumed:
            print(
                f"resumed {len(supervisor.resumed)} scenario(s) from the "
                f"journal, executed {len(set(supervisor.executed))}"
            )
        rows = [
            [
                r.name,
                r.scenario.task,
                f"{r.wall_seconds:.3f}s",
                ", ".join(f"{k}={v:.3f}s" for k, v in sorted(r.phases.items())),
            ]
            for r in report
        ]
        for failure in report.quarantined:
            rows.append(
                [failure.name, failure.scenario.task,
                 f"QUARANTINED ({failure.kind})",
                 f"after {failure.attempts} attempt(s)"]
            )
        rows.append(
            ["TOTAL", "-", f"{report.total_wall_seconds:.3f}s",
             f"{report.tasks_per_second():.0f} tasks/s"]
        )
        print(
            ascii_table(
                ["scenario", "task", "wall", "phases"],
                rows,
                title=f"bench {suite} — {args.workers} worker(s)"
                      + (" [serial-verified]" if args.verify else ""),
            )
        )
        path = write_baseline(report, args.output, compare_serial=serial)
        print(f"wrote {path}")
        if suite in SHAPES and _check_shapes(suite, SHAPES[suite](report, serial)):
            exit_code = 1
        if report.quarantined:
            names = ", ".join(f.name for f in report.quarantined)
            print(f"quarantined scenarios: {names}", file=sys.stderr)
            exit_code = 1
    return exit_code


def cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import (
        FleetConfig,
        fleet_baseline_payload,
        max_shards,
        run_fleet,
    )
    from repro.resilience.scenarios import SCENARIOS
    from repro.runner import google_fleet_trace_params, trace_config_from_params
    from repro.runner.suites import google_fleet_shapes

    prog = "repro fleet"
    supervision = _supervision(prog, args, "shards", args.memory_ceiling_mb)
    if isinstance(supervision, int):
        return supervision
    if args.shards < 1:
        return _usage_error(
            prog,
            f"--shards must be >= 1, got {args.shards} "
            "(hint: --shards 1 replays the whole census as a single cell)",
        )
    if args.fault is not None and args.fault not in SCENARIOS:
        return _usage_error(
            prog,
            f"unknown fault scenario {args.fault!r} "
            f"(hint: one of {', '.join(SCENARIOS)})",
        )
    try:
        config = FleetConfig(
            shards=args.shards,
            policy=args.policy,
            predictor=args.predictor,
            guard=args.guard,
            fault_scenario=args.fault,
            fault_seed=args.fault_seed,
            route_seed=args.route_seed,
            progress_every=args.progress_every,
            memory_budget_mb=args.memory_budget_mb,
        )
    except ValueError as exc:
        return _usage_error(prog, str(exc))

    overrides = {
        "hours": args.hours, "machines": args.machines,
        "seed": args.seed, "load": args.load,
    }
    trace_params = google_fleet_trace_params()
    trace_params.update((k, v) for k, v in overrides.items() if v is not None)
    census = trace_config_from_params(trace_params).census()
    if args.shards > max_shards(census):
        return _usage_error(
            prog,
            f"--shards {args.shards} exceeds the {max_shards(census)} "
            f"machine-type cells of this census; cells are machine-type "
            f"granular (hint: --shards <= {max_shards(census)}, or grow "
            "--machines)",
        )

    fleet = run_fleet(
        trace_params,
        config,
        workers=args.workers,
        resume=args.resume,
        journal_dir=args.output,
        supervisor_config=supervision,
        progress_dir=args.progress_dir,
    )

    report = fleet.report
    rows = [
        [
            r.name,
            r.summary["shard"]["machines"],
            r.summary["shard"]["tasks_routed"],
            f"{r.wall_seconds:.3f}s",
            f"{r.rss_peak_mb:.0f} MiB" if r.rss_peak_mb is not None else "-",
        ]
        for r in report
    ]
    for failure in report.quarantined:
        rows.append(
            [failure.name, "-", "-", f"QUARANTINED ({failure.kind})",
             f"after {failure.attempts} attempt(s)"]
        )
    payload = fleet_baseline_payload(fleet, trace_params, config)
    merged = fleet.merged
    rows.append(
        ["TOTAL",
         merged["shards"]["machines"] if merged else "-",
         merged["tasks_submitted"] if merged else "-",
         f"{report.total_wall_seconds:.3f}s",
         f"{payload['peak_rss_mb']:.0f} MiB" if "peak_rss_mb" in payload else "-"]
    )
    print(
        ascii_table(
            ["shard", "machines", "tasks", "wall", "peak rss"],
            rows,
            title=f"fleet {config.suite} — {config.shards} shard(s), "
                  f"{args.workers} worker(s)",
        )
    )
    if merged is not None:
        print(
            f"merged: {merged['tasks_scheduled']}/{merged['tasks_submitted']} "
            f"tasks scheduled, {merged['energy_kwh']:.1f} kWh, "
            f"policy {merged['policy']}"
        )
        print(f"fleet digest {fleet.digest}")
        if fleet.partial:
            print(
                "PARTIAL merge: missing shard(s) "
                f"{merged['shards']['missing']}",
                file=sys.stderr,
            )
    else:
        print("no shards completed; nothing to merge", file=sys.stderr)

    args.output.mkdir(parents=True, exist_ok=True)
    path = args.output / f"BENCH_{config.suite}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")
    failed = _check_shapes(config.suite, google_fleet_shapes(merged))
    return 1 if fleet.partial or failed else 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.energy.catalog import table2_fleet
    from repro.errors import ConfigInvalid, ReproError
    from repro.serve import (
        CHAOS_PRESETS,
        FileTailFeeder,
        ReplayFeeder,
        ServeChaos,
        ServeConfig,
        ServeDaemon,
        SocketFeeder,
        SystemClock,
        derive_run_id,
        load_config_file,
    )

    if args.chaos is not None and args.chaos not in CHAOS_PRESETS:
        names = ", ".join(sorted(CHAOS_PRESETS))
        print(
            f"repro serve: unknown chaos preset {args.chaos!r} "
            f"(hint: --chaos one of {names})",
            file=sys.stderr,
        )
        return 2
    if args.ticks is not None and args.ticks < 1:
        return _usage_error(
            "repro serve",
            f"--ticks must be >= 1, got {args.ticks} "
            "(hint: omit --ticks to run to the end of the stream)",
        )
    if args.follow is not None and args.listen is not None:
        print(
            "repro serve: --follow and --listen are mutually exclusive "
            "(one arrival source per daemon)",
            file=sys.stderr,
        )
        return 2
    if args.follow is not None and not args.follow.exists():
        print(f"repro serve: --follow file {args.follow} does not exist",
              file=sys.stderr)
        return 2

    try:
        config = (
            load_config_file(args.config) if args.config else ServeConfig()
        )
        overrides: dict = {}
        if args.tick_seconds is not None:
            overrides["tick_seconds"] = args.tick_seconds
        if args.checkpoint_interval is not None:
            overrides["checkpoint_interval_ticks"] = args.checkpoint_interval
        if args.tick_delay is not None:
            overrides["tick_delay_seconds"] = args.tick_delay
        if overrides:
            config = ServeConfig(**{**config.to_dict(), **overrides})
    except (ConfigInvalid, OSError) as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2

    clock = SystemClock()
    if args.follow is not None:
        feeder = FileTailFeeder(
            args.follow, tick_seconds=config.tick_seconds, clock=clock
        )
        feeder_spec = {"kind": "follow", "path": str(args.follow.resolve())}
    elif args.listen is not None:
        feeder = SocketFeeder(port=args.listen, tick_seconds=config.tick_seconds)
        feeder_spec = {"kind": "listen", "port": args.listen}
        print(f"listening on {feeder.address[0]}:{feeder.address[1]}")
    else:
        trace = _load_or_generate(args)
        feeder = ReplayFeeder(
            trace.tasks, horizon=trace.horizon, tick_seconds=config.tick_seconds
        )
        feeder_spec = {
            "kind": "replay",
            "trace": str(args.trace) if args.trace else None,
            "hours": args.hours,
            "seed": args.seed,
            "machines": args.machines,
            "load": args.load,
        }

    run_id = derive_run_id(config, feeder_spec)
    chaos = None
    if args.chaos is not None:
        plan, serve_faults = CHAOS_PRESETS[args.chaos](config.tick_seconds)
        chaos = ServeChaos(
            plan,
            table2_fleet(config.fleet_scale),
            config.tick_seconds,
            serve_faults=serve_faults,
        )

    daemon = ServeDaemon(
        config,
        feeder,
        state_dir=args.state_dir,
        run_id=run_id,
        chaos=chaos,
        clock=clock,
        http_port=args.http_port,
        config_path=args.config,
    )
    daemon.install_signal_handlers()
    try:
        summary = daemon.run(restore_state=args.restore, max_ticks=args.ticks)
    except ReproError as exc:
        print(f"repro serve: [{exc.code}] {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.statics import lint_paths

    root = Path(args.root).resolve()
    if not root.is_dir():
        print(f"repro lint: --root {args.root} is not a directory", file=sys.stderr)
        return 2

    try:
        report = lint_paths(args.paths, root=root)
    except FileNotFoundError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    findings = report.findings
    if args.format == "json":
        payload = {
            "tool": "harmonylint",
            "version": 1,
            "root": str(root),
            "files_checked": report.files_checked,
            "findings": [finding.to_dict() for finding in findings],
            "summary": {
                "total": len(findings),
                "suppressed": report.suppressed,
                "by_code": report.by_code(),
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(finding.format_text())
        status = f"{len(findings)} finding(s)" if findings else "clean"
        print(
            f"repro lint: {status} — {report.files_checked} "
            f"file(s), {report.suppressed} suppressed"
        )
    return 1 if findings else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="HARMONY reproduction toolkit"
    )
    parser.set_defaults(trace=None)  # for the commands without --trace
    subparsers = parser.add_subparsers(dest="command", required=True)
    # A default worker count the machine can run: recorded in BENCH files.
    default_workers = min(4, os.cpu_count() or 1)

    generate = subparsers.add_parser("generate", help="synthesize and save a trace")
    _add_trace_args(generate)
    generate.add_argument("output", type=Path, help="output directory")
    generate.set_defaults(fn=cmd_generate)

    analyze = subparsers.add_parser("analyze", help="summarize a trace")
    _add_trace_args(analyze)
    analyze.set_defaults(fn=cmd_analyze)

    validate = subparsers.add_parser(
        "validate", help="check a trace against the paper's marginals"
    )
    _add_trace_args(validate)
    validate.set_defaults(fn=cmd_validate)

    classify = subparsers.add_parser("classify", help="fit and print task classes")
    _add_trace_args(classify)
    classify.set_defaults(fn=cmd_classify)

    simulate = subparsers.add_parser("simulate", help="run one policy")
    _add_trace_args(simulate)
    simulate.add_argument("--policy", choices=POLICIES, default="cbs")
    simulate.set_defaults(fn=cmd_simulate)

    sanitize = subparsers.add_parser(
        "sanitize", help="ingest a dirty trace through the sanitizer"
    )
    sanitize.add_argument(
        "directory", type=Path, help="saved trace directory to sanitize"
    )
    sanitize.add_argument(
        "--quarantine", type=Path, default=None,
        help="quarantine JSONL path (default: <dir>/task_events.csv.quarantine.jsonl)",
    )
    sanitize.add_argument(
        "--strict", action="store_true",
        help="exit 1 if any record was quarantined",
    )
    sanitize.set_defaults(fn=cmd_sanitize)

    bench = subparsers.add_parser(
        "bench", help="run a scenario suite via the parallel runner"
    )
    bench.add_argument(
        "suite",
        choices=(
            "scalability",
            "ablation",
            "robustness",
            "network_faults",
            "trace_corruption",
            "figures",
            "all",
        ),
        help="which scenario suite to run (the sharded fleet run is "
             "repro fleet)",
    )
    bench.add_argument(
        "--corrupt", action="store_true",
        help="also run the dirty-trace trace_corruption suite "
             "(corrupt -> sanitize -> simulate)",
    )
    bench.add_argument("--workers", type=int, default=default_workers,
                       help="worker processes (default min(4, CPU count); "
                            "1 = in-process serial)")
    bench.add_argument(
        "--verify", action="store_true",
        help="also run serially and assert bit-identical summaries",
    )
    bench.add_argument(
        "--resume", action="store_true",
        help="replay the suite's journal in --output (verifying digests) "
             "and only execute scenarios it is missing",
    )
    bench.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-scenario wall-clock budget per attempt (needs --workers "
             ">= 2)",
    )
    bench.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retries per failing scenario before quarantine (default 2)",
    )
    bench.add_argument("--output", type=Path, default=Path("."),
                       help="directory for the BENCH_<suite>.json baseline "
                            "and the suite journal")
    bench.add_argument("--hours", type=float, default=None,
                       help="override REPRO_BENCH_HOURS for this run")
    bench.add_argument("--machines", type=int, default=None,
                       help="override REPRO_BENCH_MACHINES for this run")
    bench.add_argument("--seed", type=int, default=None,
                       help="override REPRO_BENCH_SEED for this run")
    bench.add_argument("--load", type=float, default=None,
                       help="override REPRO_BENCH_LOAD for this run")
    bench.set_defaults(fn=cmd_bench)

    fleet = subparsers.add_parser(
        "fleet",
        help="sharded, crash-tolerant fleet simulation with a merged digest",
    )
    fleet.add_argument(
        "--shards", type=int, default=4, metavar="N",
        help="machine-type cells to partition the census into "
             "(default %(default)s)",
    )
    fleet.add_argument("--workers", type=int, default=default_workers,
                       help="shard worker processes (default min(4, CPU "
                            "count); 1 = in-process serial)")
    fleet.add_argument("--policy", choices=POLICIES, default="cbs")
    fleet.add_argument("--predictor", default="ewma")
    fleet.add_argument(
        "--guard", action="store_true",
        help="wrap each shard's controller in the GuardedController",
    )
    fleet.add_argument(
        "--fault", default=None, metavar="SCENARIO",
        help="fault scenario injected into every shard (per-shard seed "
             "offset keeps draws uncorrelated)",
    )
    fleet.add_argument("--fault-seed", type=int, default=0)
    fleet.add_argument(
        "--route-seed", type=int, default=0,
        help="seed of the deterministic job-to-cell router",
    )
    fleet.add_argument("--hours", type=float, default=None,
                       help="override REPRO_BENCH_FLEET_HOURS for this run")
    fleet.add_argument("--machines", type=int, default=None,
                       help="override REPRO_BENCH_FLEET_MACHINES for this run")
    fleet.add_argument("--seed", type=int, default=None,
                       help="override REPRO_BENCH_SEED for this run")
    fleet.add_argument("--load", type=float, default=None,
                       help="override REPRO_BENCH_FLEET_LOAD for this run")
    fleet.add_argument(
        "--resume", action="store_true",
        help="replay the google_fleet journal in --output and only execute "
             "shards it is missing",
    )
    fleet.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-shard wall-clock budget per attempt (straggler guard; "
             "needs --workers >= 2)",
    )
    fleet.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retries per failing shard before quarantine (default 2)",
    )
    fleet.add_argument(
        "--memory-ceiling-mb", type=float, default=None, metavar="MIB",
        help="fleet-wide RSS ceiling; no further shard is handed out while "
             "the coordinator+workers tree sits above the watermark",
    )
    fleet.add_argument(
        "--memory-budget-mb", type=float, default=None, metavar="MIB",
        help="per-shard-worker RSS budget; a shard that exceeds it fails "
             "cleanly (and quarantines into a partial merge) instead of "
             "OOM-killing the host",
    )
    fleet.add_argument(
        "--progress-every", type=int, default=200_000, metavar="TASKS",
        help="streamed tasks between per-shard progress checkpoints and "
             "memory checks (default %(default)s)",
    )
    fleet.add_argument(
        "--progress-dir", type=Path, default=None,
        help="directory for per-shard SHARD_<suite>_<i>.jsonl progress "
             "journals (default: none)",
    )
    fleet.add_argument("--output", type=Path, default=Path("."),
                       help="directory for BENCH_google_fleet.json and the "
                            "suite journal")
    fleet.set_defaults(fn=cmd_fleet)

    serve = subparsers.add_parser(
        "serve", help="run the crash-safe online provisioning daemon"
    )
    _add_trace_args(serve)
    serve.add_argument(
        "--state-dir", type=Path, required=True,
        help="directory for the tick journal, checkpoint and event log",
    )
    serve.add_argument(
        "--follow", type=Path, default=None, metavar="FILE",
        help="tail a JSONL arrival file instead of replaying a trace",
    )
    serve.add_argument(
        "--listen", type=int, default=None, metavar="PORT",
        help="accept one TCP client speaking the arrival line protocol "
             "(0 = auto-assign)",
    )
    serve.add_argument(
        "--ticks", type=int, default=None,
        help="stop after N applied ticks (default: run to stream end)",
    )
    serve.add_argument(
        "--tick-seconds", type=float, default=None,
        help="control-tick length in seconds (default 300; deterministic "
             "— changing it changes the run id)",
    )
    serve.add_argument(
        "--checkpoint-interval", type=int, default=None, metavar="TICKS",
        help="checkpoint every N applied ticks (default 8; hot-reloadable)",
    )
    serve.add_argument(
        "--tick-delay", type=float, default=None, metavar="SECONDS",
        help="sleep between replay ticks (pacing for drills; default 0)",
    )
    serve.add_argument(
        "--http-port", type=int, default=None, metavar="PORT",
        help="serve /healthz /readyz /metrics on this port (0 = auto)",
    )
    serve.add_argument(
        "--chaos", default=None, metavar="PRESET",
        help="inject a chaos preset into the live loop "
             "(validated in cmd_serve so the hint can list names)",
    )
    serve.add_argument(
        "--restore", action="store_true",
        help="restore from the checkpoint + journal suffix in --state-dir",
    )
    serve.add_argument(
        "--config", type=Path, default=None, metavar="PATH",
        help="JSON config file; ops fields hot-reload on SIGHUP or edit",
    )
    serve.set_defaults(fn=cmd_serve)

    lint = subparsers.add_parser(
        "lint", help="run harmonylint (repro.statics) over the tree"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src", "tests"],
        help="files/directories to lint, relative to --root "
             "(default: src tests)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    lint.add_argument(
        "--root", type=Path, default=Path("."),
        help="tree root findings are reported relative to (default: .)",
    )
    lint.set_defaults(fn=cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.trace is not None and not args.trace.is_dir():
        return _usage_error(
            f"repro {args.command}", f"--trace {args.trace} is not a directory"
        )
    try:
        return args.fn(args)
    except TraceFieldCorrupt as exc:
        return _usage_error(f"repro {args.command}", str(exc))


if __name__ == "__main__":
    sys.exit(main())
