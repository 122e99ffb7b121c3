"""Shared scenario-execution subsystem.

One executor, :class:`ScenarioSupervisor`, serves the repo's consumers
of "run these independent scenario configurations and report":

- ``repro bench``, which runs a suite, checks its shapes and records it
  as a ``BENCH_<suite>.json`` perf baseline;
- ``repro fleet`` (through :mod:`repro.fleet`), the sharded fleet run,
  which checks the ``google_fleet`` shapes the same way;
- CI, which runs both at smoke size.

It runs scenarios in process at ``workers=1`` and on warm, supervised
worker processes otherwise, with the same retries, quarantine and
journaled resume either way.

Determinism contract: every task seeds all randomness from its scenario
params, so per-scenario summaries are bit-identical between in-process
and worker execution (see :meth:`ScenarioSupervisor.verify_determinism`).
"""

from repro.runner.defaults import (
    BenchDefaults,
    bench_defaults,
    bench_fleet_hours,
    bench_fleet_load,
    bench_fleet_machines,
    bench_hours,
    bench_load,
    bench_machines,
    bench_repeats,
    bench_replay_hours,
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
    baseline_payload,
    canonical_json,
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
    google_fleet_trace_params,
    replay_scenario,
    robustness_scenarios,
    scalability_scenarios,
    trace_corruption_scenarios,
)

__all__ = [
    "BenchDefaults",
    "bench_defaults",
    "bench_fleet_hours",
    "bench_fleet_load",
    "bench_fleet_machines",
    "bench_hours",
    "bench_load",
    "bench_machines",
    "bench_repeats",
    "bench_replay_hours",
    "bench_replay_machines",
    "bench_seed",
    "trace_config_from_params",
    "RunnerReport",
    "ScenarioFailure",
    "ScenarioResult",
    "ScenarioSupervisor",
    "SupervisorConfig",
    "backoff_delay",
    "baseline_payload",
    "canonical_json",
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
    "google_fleet_trace_params",
    "replay_scenario",
    "robustness_scenarios",
    "scalability_scenarios",
    "trace_corruption_scenarios",
]
