"""Shared scenario-execution subsystem.

One runner serves the repo's three consumers of "run these independent
scenario configurations and report":

- the ``bench_*`` pytest benches (``benchmarks/``), which fan their sweeps
  out across workers and assert on the collected summaries;
- the ``repro bench`` CLI subcommand, for ad-hoc perf runs;
- CI, which emits ``BENCH_<suite>.json`` perf baselines from short smokes.

Determinism contract: every task seeds all randomness from its scenario
params, so per-scenario summaries are bit-identical between serial and
parallel execution (see :meth:`ScenarioRunner.verify_determinism`).
"""

from repro.runner.defaults import (
    BenchDefaults,
    bench_defaults,
    bench_fleet_hours,
    bench_fleet_load,
    bench_fleet_machines,
    bench_fleet_shards,
    bench_hours,
    bench_load,
    bench_machines,
    bench_repeats,
    bench_replay_hours,
    bench_replay_load,
    bench_replay_machines,
    bench_seed,
    trace_config_from_params,
)
from repro.runner.journal import (
    Journal,
    JournalEntry,
    journal_path,
    read_journal_records,
    suite_run_id,
    write_journal_record,
)
from repro.runner.runner import (
    RunnerReport,
    ScenarioFailure,
    ScenarioResult,
    ScenarioRunner,
    baseline_payload,
    canonical_json,
    repo_root,
    summary_digest,
    write_baseline,
)
from repro.runner.rss import process_rss_mb, self_peak_rss_mb, tree_rss_mb
from repro.runner.scenario import Scenario, get_task, register_task, registered_tasks
from repro.runner.supervisor import (
    ScenarioSupervisor,
    SupervisorConfig,
    backoff_delay,
)
from repro.runner.suites import (
    SUITES,
    ablation_scenarios,
    consolidation_scenarios,
    google_fleet_trace_params,
    horizon_scenarios,
    omega_scenarios,
    predictor_scenarios,
    preemption_scenarios,
    replay_scenario,
    robustness_scenarios,
    scalability_scenarios,
    slo_scenarios,
    trace_corruption_scenarios,
)

__all__ = [
    "BenchDefaults",
    "bench_defaults",
    "bench_fleet_hours",
    "bench_fleet_load",
    "bench_fleet_machines",
    "bench_fleet_shards",
    "bench_hours",
    "bench_load",
    "bench_machines",
    "bench_repeats",
    "bench_replay_hours",
    "bench_replay_load",
    "bench_replay_machines",
    "bench_seed",
    "trace_config_from_params",
    "RunnerReport",
    "ScenarioFailure",
    "ScenarioResult",
    "ScenarioRunner",
    "ScenarioSupervisor",
    "SupervisorConfig",
    "backoff_delay",
    "baseline_payload",
    "canonical_json",
    "repo_root",
    "summary_digest",
    "write_baseline",
    "Journal",
    "JournalEntry",
    "journal_path",
    "read_journal_records",
    "suite_run_id",
    "write_journal_record",
    "process_rss_mb",
    "self_peak_rss_mb",
    "tree_rss_mb",
    "Scenario",
    "get_task",
    "register_task",
    "registered_tasks",
    "SUITES",
    "ablation_scenarios",
    "consolidation_scenarios",
    "google_fleet_trace_params",
    "horizon_scenarios",
    "omega_scenarios",
    "predictor_scenarios",
    "preemption_scenarios",
    "replay_scenario",
    "robustness_scenarios",
    "scalability_scenarios",
    "slo_scenarios",
    "trace_corruption_scenarios",
]
