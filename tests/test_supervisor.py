"""Tests for the scenario executor (repro.runner.supervisor).

Covers the deterministic backoff schedule, where scenarios run (in this
process at ``workers=1``, on at most ``workers`` warm worker processes
otherwise, never retried in a process an earlier attempt used), the
worker template every worker is forked from (BLAS pins, no memo carried
across runs, environment defaults and working directory followed from
the coordinator, counted in the run's peak RSS), the executor's retry /
timeout / quarantine semantics (driven through the shipped
``transient_fault`` injection task so workers can resolve it), the
digest-invariance contract — a scenario that fails transiently and
succeeds on retry must produce the same summary digest as an
uninterrupted run — and the crash-safe journal's append / verify / resume
behaviour, including torn-tail tolerance and corruption detection.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    JournalCorrupt,
    ScenarioCrash,
    ScenarioFailed,
    ScenarioTimeout,
)
from repro.fleet import FleetConfig, run_fleet, shard_progress_path
from repro.resilience import transient_fault_scenario
from repro.runner import (
    Journal,
    JournalEntry,
    Scenario,
    ScenarioSupervisor,
    SupervisorConfig,
    backoff_delay,
    baseline_payload,
    canonical_json,
    journal_path,
    process_rss_mb,
    suite_run_id,
    write_journal_record,
)
from repro.runner.journal import _sealed_line, record_digest
from repro.runner import supervisor as supervisor_module
from repro.runner.supervisor import TEMPLATE_PRELOAD, WORKER_ENV

SRC = Path(__file__).resolve().parents[1] / "src"

#: A coordinator that puts ``src`` on ``sys.path`` at run time, as
#: ``perf/run.py`` and the chaos scripts do, and prints what its workers
#: saw: the ``repro`` each imported and how many started cold.
PRELOAD_PROBE = '''
import json, os, sys
sys.path.insert(0, {src!r})
import repro
from repro.runner import Scenario, ScenarioSupervisor


class FileScenario(Scenario):
    def run(self):
        return {{"summary": {{"file": repro.__file__, "pid": os.getpid()}}}}


if __name__ == "__main__":
    supervisor = ScenarioSupervisor("preload")
    scenarios = [FileScenario(name=f"probe_{{i}}", task="probe") for i in range(2)]
    report = supervisor.run(scenarios, workers=2)
    print(json.dumps({{
        "file": repro.__file__,
        "cold_workers": supervisor.cold_workers,
        "workers": sorted({{r.summary["pid"] for r in report}}),
        "worker_files": [r.summary["file"] for r in report],
    }}))
'''

#: One tiny LP solve — the cheapest spawnable unit of real work.
TINY = Scenario(
    name="relax_tiny",
    task="relax_solve",
    params={"num_classes": 4, "num_types": 2, "W": 2, "seed": 0, "repeats": 1},
)
TINY2 = Scenario(
    name="relax_tiny2",
    task="relax_solve",
    params={"num_classes": 4, "num_types": 2, "W": 2, "seed": 1, "repeats": 1},
)

#: Keys that sort on either side of ``sha256``, plus non-ASCII ones.
_KEYS = st.one_of(
    st.sampled_from(["sha", "sha256a", "Sha", "sha25", "shb", "a", "z", "é", "日本"]),
    st.text(max_size=6),
)
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=12,
)

#: Keep retry waits negligible in tests.
FAST = SupervisorConfig(backoff_base_seconds=0.01, backoff_cap_seconds=0.05)


class PidScenario(Scenario):
    """A scenario whose summary is the pid that ran it, that pid's parent
    and the :data:`WORKER_ENV` keys of its environment.

    Workers unpickle it from this module, so the probe runs inside the
    worker.  With ``params["marker_dir"]`` every attempt appends its pid
    to a file there, and attempts before ``params["fail_attempts"]``
    raise.  With ``params["hold_mb"]`` it keeps that many MiB resident
    until every scenario sharing ``params["barrier"]`` holds its own, and
    for a further half second, and reports its RSS while it holds them.
    With ``params["spike_mb"]`` it touches that many MiB and frees them
    at once, a peak that ends long before the scenario reports.
    """

    def run(self) -> dict:
        pid = os.getpid()
        summary = {
            "pid": pid,
            "parent": os.getppid(),
            "env": {key: os.environ.get(key) for key in WORKER_ENV},
        }
        if "hold_mb" in self.params:
            held = b"\x01" * (self.params["hold_mb"] << 20)
            barrier = Path(self.params["barrier"])
            (barrier / self.name).touch()
            deadline = time.monotonic() + 60.0
            while len(list(barrier.iterdir())) < self.params["holders"]:
                assert time.monotonic() < deadline, "holders never met"
                time.sleep(0.01)
            time.sleep(0.5)
            summary["held_rss_mb"] = process_rss_mb(pid)
            del held
        if "spike_mb" in self.params:
            spike = bytearray(self.params["spike_mb"] << 20)  # zero-filled: touched
            del spike
        marker_dir = self.params.get("marker_dir")
        if marker_dir is not None:
            log = Path(marker_dir) / f"{self.name}.pids"
            earlier = log.read_text().split() if log.exists() else []
            with open(log, "a") as handle:
                handle.write(f"{pid}\n")
            if len(earlier) < self.params["fail_attempts"]:
                raise RuntimeError(f"injected failure on attempt {len(earlier) + 1}")
        return {"summary": summary}


def pid_scenarios(count: int, **params) -> list[PidScenario]:
    return [
        PidScenario(name=f"pid_{index}", task="pid", params=params)
        for index in range(count)
    ]


def tiny_digest(scenario=TINY) -> str:
    """Digest of an uninterrupted in-process run, the invariance reference."""
    return ScenarioSupervisor("ref").run([scenario], workers=1)[scenario.name].digest()


class TestBackoffDelay:
    def test_deterministic_across_calls(self):
        assert backoff_delay("s", 1, 0.05, 2.0) == backoff_delay("s", 1, 0.05, 2.0)
        assert backoff_delay("s", 2, 0.05, 2.0) == backoff_delay("s", 2, 0.05, 2.0)

    def test_decorrelated_across_scenarios(self):
        assert backoff_delay("relax_a", 1, 0.05, 2.0) != backoff_delay(
            "relax_b", 1, 0.05, 2.0
        )

    @staticmethod
    def _jitter(name, attempt):
        digest = hashlib.sha256(f"{name}:{attempt}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def test_exponential_and_capped(self):
        # Doubling from the base, capped, then scaled by 1 + a quarter of
        # the name's SHA-256 jitter.
        for attempt, base in ((1, 0.1), (2, 0.2), (3, 0.4), (10, 1.0)):
            assert backoff_delay("s", attempt, 0.1, 1.0) == pytest.approx(
                base * (1.0 + 0.25 * self._jitter("s", attempt))
            )

    def test_jitter_bounded(self):
        for attempt in range(1, 6):
            delay = backoff_delay("s", attempt, 0.1, 10.0)
            base = min(10.0, 0.1 * 2.0 ** (attempt - 1))
            assert base <= delay <= base * 1.25

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError, match="attempt"):
            backoff_delay("s", 0, 0.05, 2.0)


class TestSupervisorConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout_seconds": 0.0},
            {"timeout_seconds": -1.0},
            {"max_attempts": 0},
            {"backoff_base_seconds": -0.1},
            {"backoff_cap_seconds": -1.0},
            {"memory_ceiling_mb": 0.0},
            {"memory_ceiling_mb": -1.0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            SupervisorConfig(**kwargs)


class TestSupervisorRun:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            ScenarioSupervisor("unit").run([TINY], workers=0)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ScenarioSupervisor("unit").run([TINY, TINY])

    def test_resume_requires_journal_dir(self):
        with pytest.raises(ValueError, match="journal_dir"):
            ScenarioSupervisor("unit").run([TINY], resume=True)

    def test_clean_worker_run_matches_in_process_run(self, tmp_path):
        supervisor = ScenarioSupervisor("unit", FAST, journal_dir=tmp_path)
        report = supervisor.run([TINY], workers=2)
        assert report.quarantined == ()
        assert report["relax_tiny"].attempts == 1
        assert report["relax_tiny"].digest() == tiny_digest()
        # The journal path carries the suite's run id.
        assert supervisor.journal is not None
        assert supervisor.journal.path.exists()
        assert supervisor.journal.path == journal_path(
            "unit", tmp_path, suite_run_id("unit", [TINY])
        )

    def test_transient_raise_retried_with_identical_digest(self, tmp_path):
        scenario = transient_fault_scenario(
            "flaky_raise", TINY, tmp_path / "markers", fail_attempts=1, mode="raise"
        )
        supervisor = ScenarioSupervisor("unit", FAST)
        report = supervisor.run([scenario])
        assert report.quarantined == ()
        result = report["flaky_raise"]
        assert result.attempts == 2
        # The invariance contract: recovery is indistinguishable from a
        # run that never failed.
        assert result.digest() == tiny_digest()
        assert [type(e) for e in supervisor.failure_log] == [ScenarioFailed]

    def test_worker_kill_detected_and_respawned(self, tmp_path):
        scenario = transient_fault_scenario(
            "flaky_kill", TINY, tmp_path / "markers", fail_attempts=1, mode="kill"
        )
        supervisor = ScenarioSupervisor("unit", FAST)
        report = supervisor.run([scenario], workers=2)
        assert report.quarantined == ()
        assert report["flaky_kill"].attempts == 2
        assert report["flaky_kill"].digest() == tiny_digest()
        assert [type(e) for e in supervisor.failure_log] == [ScenarioCrash]

    def test_hung_scenario_times_out_into_quarantine(self, tmp_path):
        scenario = transient_fault_scenario(
            "hung", TINY, tmp_path / "markers",
            fail_attempts=99, mode="hang", hang_seconds=60.0,
        )
        config = SupervisorConfig(
            timeout_seconds=0.75, max_attempts=2,
            backoff_base_seconds=0.01, backoff_cap_seconds=0.05,
        )
        report = ScenarioSupervisor("unit", config).run([scenario], workers=2)
        assert report.results == ()
        assert len(report.quarantined) == 1
        failure = report.quarantined[0]
        assert (failure.name, failure.kind, failure.attempts) == ("hung", "timeout", 2)

    def test_persistent_error_quarantined_without_sinking_suite(self, tmp_path):
        bad = transient_fault_scenario(
            "always_bad", TINY, tmp_path / "markers", fail_attempts=99, mode="raise"
        )
        config = SupervisorConfig(
            max_attempts=2, backoff_base_seconds=0.01, backoff_cap_seconds=0.05
        )
        report = ScenarioSupervisor("unit", config).run([bad, TINY], workers=2)
        # The healthy neighbour still completes; the poison scenario is
        # reported, not raised.
        assert [r.name for r in report.results] == ["relax_tiny"]
        assert [f.name for f in report.quarantined] == ["always_bad"]
        assert report.quarantined[0].kind == "error"
        payload = baseline_payload(report)
        assert payload["quarantined"] == [
            {"name": "always_bad", "kind": "error", "attempts": 2}
        ]

    def test_timeout_failures_logged_as_scenario_timeout(self, tmp_path):
        scenario = transient_fault_scenario(
            "hung_log", TINY, tmp_path / "markers",
            fail_attempts=99, mode="hang", hang_seconds=60.0,
        )
        config = SupervisorConfig(
            timeout_seconds=0.75, max_attempts=1, backoff_base_seconds=0.01
        )
        supervisor = ScenarioSupervisor("unit", config)
        supervisor.run([scenario], workers=2)
        assert [type(e) for e in supervisor.failure_log] == [ScenarioTimeout]
        assert supervisor.failure_log[0].context["timeout_seconds"] == 0.75


class TestWhereScenariosRun:
    def test_in_process_run_uses_this_pid(self):
        report = ScenarioSupervisor("unit").run(pid_scenarios(3), workers=1)
        assert {r.summary["pid"] for r in report} == {os.getpid()}

    def test_two_workers_run_two_scenarios_in_two_pids(self):
        report = ScenarioSupervisor("unit").run(pid_scenarios(2), workers=2)
        pids = {r.summary["pid"] for r in report}
        assert len(pids) == 2
        assert os.getpid() not in pids

    def test_workers_stay_warm_across_scenarios(self):
        report = ScenarioSupervisor("unit").run(pid_scenarios(4), workers=2)
        pids = {r.summary["pid"] for r in report}
        assert len(report.results) == 4
        assert 1 <= len(pids) <= 2
        assert os.getpid() not in pids

    def test_peak_rss_counts_every_live_worker(self, tmp_path):
        # Two workers holding 64 MiB each at once: a peak that misses
        # either worker, or the coordinator, stays below this floor.
        floor = process_rss_mb(os.getpid()) + 2 * 64
        scenarios = pid_scenarios(2, hold_mb=64, barrier=str(tmp_path), holders=2)
        report = ScenarioSupervisor("unit").run(scenarios, workers=2)
        assert report.peak_rss_mb >= floor
        assert baseline_payload(report)["peak_rss_mb"] >= floor

    def test_peak_rss_covers_every_reported_worker_peak(self, monkeypatch):
        # With no periodic sample while the worker runs, the only sample
        # comes before it starts: the run-wide peak must still reach the
        # high-water mark the worker reports.
        monkeypatch.setattr(supervisor_module, "RSS_SAMPLE_SECONDS", 60.0)
        report = ScenarioSupervisor("unit").run(
            pid_scenarios(1, spike_mb=128), workers=2
        )
        assert len(report.results) == 1
        assert report.peak_rss_mb >= max(r.rss_peak_mb for r in report)

    def test_retry_runs_in_a_pid_no_earlier_attempt_used(self, tmp_path):
        # Three attempts each of two scenarios on two workers: were a
        # failed worker kept, some scenario would repeat a pid.
        scenarios = pid_scenarios(2, marker_dir=str(tmp_path), fail_attempts=2)
        supervisor = ScenarioSupervisor("unit", FAST)
        report = supervisor.run(scenarios, workers=2)
        assert report.quarantined == ()
        for result in report:
            attempts = (tmp_path / f"{result.name}.pids").read_text().split()
            assert result.attempts == len(attempts) == 3
            assert len(set(attempts)) == 3
            assert attempts[-1] == str(result.summary["pid"])
        assert [type(e) for e in supervisor.failure_log] == [ScenarioFailed] * 4


#: A simulation small enough to build its trace in a fraction of a second.
TINY_SIM = Scenario(
    name="sim_tiny",
    task="simulate",
    params={
        "trace": {"hours": 0.25, "seed": 5, "machines": 60, "load": 0.3},
        "policy": "static",
    },
)


class TestWorkerTemplate:
    """Workers are forks of one template process per coordinator process;
    they must behave as fresh interpreters started by this process would."""

    @staticmethod
    def assert_blas_pins(report):
        for result in report:
            assert result.summary["env"] == WORKER_ENV

    def test_worker_environment_carries_the_blas_pins(self):
        self.assert_blas_pins(
            ScenarioSupervisor("unit").run(pid_scenarios(2), workers=2)
        )

    def test_spawned_workers_carry_the_blas_pins(self, monkeypatch):
        # Where forkserver is missing, workers are fresh interpreters that
        # inherit this process's environment at start.
        monkeypatch.setattr(supervisor_module, "START_METHOD", "spawn")
        for key in WORKER_ENV:
            monkeypatch.delenv(key, raising=False)
        self.assert_blas_pins(
            ScenarioSupervisor("unit").run(pid_scenarios(2), workers=2)
        )
        assert not set(WORKER_ENV) & set(os.environ)

    def test_template_preloads_a_repro_put_on_sys_path_at_run_time(self, tmp_path):
        script = tmp_path / "coordinator.py"
        script.write_text(PRELOAD_PROBE.format(src=str(SRC)))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, str(script)],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        seen = json.loads(done.stdout.splitlines()[-1])
        assert len(seen["workers"]) == 2
        assert seen["cold_workers"] == 0
        assert seen["worker_files"] == [seen["file"]] * 2

    def test_preload_check_is_not_satisfied_by_the_worker_body(self):
        # A worker imports the supervisor to run its body; the cold check
        # means something only if that import leaves the preload undone.
        probe = (
            "import sys, repro.runner.supervisor as s; "
            "print(sorted(m for m in s.TEMPLATE_PRELOAD if m in sys.modules))"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        repro_preload = [m for m in TEMPLATE_PRELOAD if m.startswith("repro.")]
        assert repro_preload
        assert not set(repro_preload) & set(eval(done.stdout))

    def test_executor_overhead_is_reported_outside_the_digest(self):
        report = ScenarioSupervisor("unit").run(pid_scenarios(2), workers=2)
        payload = baseline_payload(report)
        for result, entry in zip(report, payload["scenarios"]):
            assert result.overhead_seconds >= 0.0
            assert entry["overhead_s"] == round(result.overhead_seconds, 4)
            assert "overhead" not in json.dumps(result.summary)

    def test_each_run_starts_with_an_empty_trace_memo(self):
        # The template never runs a scenario: the first scenario of every
        # run builds its trace, as a freshly started worker would.
        for _ in range(2):
            report = ScenarioSupervisor("unit").run([TINY_SIM], workers=2)
            assert "trace" in report["sim_tiny"].phases

    def test_worker_follows_a_bench_default_set_between_runs(self, monkeypatch):
        scenario = Scenario(
            name="figures",
            task="trace_figures",
            params={"trace": {"hours": 0.25, "machines": 60, "load": 0.3}},
        )
        monkeypatch.setenv("REPRO_BENCH_SEED", "5")
        first = ScenarioSupervisor("unit").run([scenario], workers=2)
        monkeypatch.setenv("REPRO_BENCH_SEED", "6")
        second = ScenarioSupervisor("unit").run([scenario], workers=2)
        in_process = ScenarioSupervisor("unit").run([scenario], workers=1)
        assert second["figures"].digest() == in_process["figures"].digest()
        assert second["figures"].digest() != first["figures"].digest()

    def test_relative_progress_dir_follows_the_working_directory(
        self, tmp_path, monkeypatch
    ):
        trace = {"hours": 0.5, "seed": 7, "machines": 150, "load": 0.5}
        config = FleetConfig(shards=2, suite="cwd")
        for name in ("first", "second"):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            fleet = run_fleet(trace, config, workers=2, progress_dir="progress")
            assert not fleet.partial
            for index in range(2):
                assert shard_progress_path(
                    tmp_path / name / "progress", "cwd", index
                ).exists()

    def test_peak_rss_counts_the_template(self, tmp_path):
        # Coordinator, template and both workers at once, each worker
        # holding 64 MiB: a peak that misses the template stays below.
        coordinator = process_rss_mb(os.getpid())
        scenarios = pid_scenarios(2, hold_mb=64, barrier=str(tmp_path), holders=2)
        report = ScenarioSupervisor("unit").run(scenarios, workers=2)
        (template,) = {r.summary["parent"] for r in report}
        assert template != os.getpid()
        floor = coordinator + process_rss_mb(template) + sum(
            r.summary["held_rss_mb"] for r in report
        )
        # Slack for pages a process returns between a sample and a reading.
        assert report.peak_rss_mb >= floor - 4.0


class TestJournalResume:
    def test_interrupted_suite_resumes_to_identical_digests(self, tmp_path):
        suite = [TINY, TINY2]
        reference = ScenarioSupervisor("ref").run(suite, workers=1).digests()

        # "Interrupted" run: only the first scenario's entry made it into
        # the *full suite's* journal before the (simulated) kill — the
        # journal path and header carry the run id of the whole suite.
        run_id = suite_run_id("bench", suite)
        journal = Journal(journal_path("bench", tmp_path, run_id), run_id)
        done = ScenarioSupervisor("bench").run([TINY], workers=1)[TINY.name]
        journal.append(
            JournalEntry(
                suite="bench",
                scenario=TINY,
                summary=done.summary,
                phases=done.phases,
                wall_seconds=done.wall_seconds,
                attempts=1,
            )
        )

        resumed = ScenarioSupervisor("bench", FAST, journal_dir=tmp_path)
        report = resumed.run(suite, resume=True)
        assert resumed.resumed == ["relax_tiny"]
        assert resumed.executed == ["relax_tiny2"]
        assert [r.name for r in report.results] == ["relax_tiny", "relax_tiny2"]
        assert report.digests() == reference

    def test_full_resume_executes_nothing(self, tmp_path):
        supervisor = ScenarioSupervisor("bench", FAST, journal_dir=tmp_path)
        original = supervisor.run([TINY])

        again = ScenarioSupervisor("bench", FAST, journal_dir=tmp_path)
        report = again.run([TINY], resume=True)
        assert again.executed == []
        assert again.resumed == ["relax_tiny"]
        assert report.digests() == original.digests()

    def test_fresh_runs_leave_one_run_in_the_journal(self, tmp_path):
        """Each run without ``resume`` starts the journal afresh: after
        three runs it holds one header plus one line per scenario."""
        suite = [TINY, TINY2]
        for _ in range(3):
            supervisor = ScenarioSupervisor("bench", FAST, journal_dir=tmp_path)
            supervisor.run(suite)
        (path,) = tmp_path.glob("JOURNAL_bench_*.jsonl")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + len(suite)
        assert json.loads(lines[0])["kind"] == "header"
        assert [e.scenario.name for e in supervisor.journal.load()] == [
            "relax_tiny",
            "relax_tiny2",
        ]

    def test_verify_journals_one_run(self, tmp_path):
        supervisor = ScenarioSupervisor("bench", FAST, journal_dir=tmp_path)
        supervisor.verify_determinism([TINY], workers=2)
        assert [e.scenario.name for e in supervisor.journal.load()] == ["relax_tiny"]

    def test_resume_ignores_entries_with_different_params(self, tmp_path):
        supervisor = ScenarioSupervisor("bench", FAST, journal_dir=tmp_path)
        supervisor.run([TINY])

        changed = Scenario(
            name=TINY.name, task=TINY.task, params={**TINY.params, "seed": 7}
        )
        again = ScenarioSupervisor("bench", FAST, journal_dir=tmp_path)
        again.run([changed], resume=True)
        assert again.resumed == []
        assert again.executed == [changed.name]


def _entry(name="s0", suite="unit", summary=None) -> JournalEntry:
    return JournalEntry(
        suite=suite,
        scenario=Scenario(name=name, task="relax_solve", params={"seed": 0}),
        summary=summary if summary is not None else {"value": 1.0},
        phases={"solve": 0.1},
        wall_seconds=0.123,
        attempts=1,
    )


RUN_ID = "aaa111bbb222"


def _journal(tmp_path, run_id=RUN_ID) -> Journal:
    return Journal(journal_path("unit", tmp_path, run_id), run_id)


class TestJournal:
    def test_append_load_round_trip(self, tmp_path):
        journal = _journal(tmp_path)
        journal.append(_entry("s0"))
        journal.append(_entry("s1"))
        entries = journal.load()
        assert [e.scenario.name for e in entries] == ["s0", "s1"]
        assert entries[0].to_result().summary == {"value": 1.0}

    def test_missing_journal_loads_empty(self, tmp_path):
        assert _journal(tmp_path).load() == []

    def test_torn_final_line_is_dropped(self, tmp_path):
        journal = _journal(tmp_path)
        journal.append(_entry("s0"))
        journal.append(_entry("s1"))
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"version":1,"suite":"unit","na')  # writer died here
        entries = journal.load()
        assert [e.scenario.name for e in entries] == ["s0", "s1"]

    def test_tampered_line_raises_journal_corrupt(self, tmp_path):
        journal = _journal(tmp_path)
        journal.append(_entry("s0"))
        journal.append(_entry("s1"))
        lines = journal.path.read_text().splitlines()
        # Line 1 is the run-id header; line 2 is the first entry.
        lines[1] = lines[1].replace('"value":1.0', '"value":2.0')
        journal.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorrupt, match="line 2"):
            journal.load()

    def test_run_id_mismatch_refused_on_append_and_load(self, tmp_path):
        journal = _journal(tmp_path)
        journal.append(_entry("s0"))
        imposter = Journal(journal.path, "cccdddeeefff")
        with pytest.raises(JournalCorrupt, match="refusing to mix runs"):
            imposter.append(_entry("s1"))
        with pytest.raises(JournalCorrupt, match="refusing to mix runs"):
            imposter.load()
        # The rightful owner still appends and loads fine.
        journal.append(_entry("s1"))
        assert [e.scenario.name for e in journal.load()] == ["s0", "s1"]

    def test_headerless_file_refused_when_run_id_expected(self, tmp_path):
        path = journal_path("unit", tmp_path, RUN_ID)
        write_journal_record(path, _entry("s0").record())  # no header line
        strict = Journal(path, RUN_ID)
        with pytest.raises(JournalCorrupt, match="no run-id header"):
            strict.append(_entry("s1"))

    def test_mid_file_garbage_raises_journal_corrupt(self, tmp_path):
        journal = _journal(tmp_path)
        journal.append(_entry("s0"))
        lines = journal.path.read_text().splitlines()
        journal.path.write_text("not json at all\n" + "\n".join(lines) + "\n")
        with pytest.raises(JournalCorrupt, match="line 1"):
            journal.load()

    def test_wrong_version_raises_journal_corrupt(self, tmp_path):
        import hashlib

        record = _entry("s0").record()
        record["version"] = 99
        digest = hashlib.sha256(canonical_json(record).encode()).hexdigest()
        path = journal_path("unit", tmp_path, RUN_ID)
        path.write_text(canonical_json({**record, "sha256": digest}) + "\n")
        with pytest.raises(JournalCorrupt, match="version"):
            Journal(path, RUN_ID).load()

    def test_matches_requires_suite_name_task_and_params(self):
        entry = _entry("s0", suite="unit")
        base = Scenario(name="s0", task="relax_solve", params={"seed": 0})
        assert entry.matches(base, "unit")
        assert not entry.matches(base, "other_suite")
        assert not entry.matches(
            Scenario(name="s1", task="relax_solve", params={"seed": 0}), "unit"
        )
        assert not entry.matches(
            Scenario(name="s0", task="simulate", params={"seed": 0}), "unit"
        )
        assert not entry.matches(
            Scenario(name="s0", task="relax_solve", params={"seed": 9}), "unit"
        )

    def test_later_entries_win(self, tmp_path):
        journal = _journal(tmp_path)
        journal.append(_entry("s0", summary={"value": 1.0}))
        journal.append(_entry("s0", summary={"value": 5.0}))
        scenario = Scenario(name="s0", task="relax_solve", params={"seed": 0})
        done = journal.completed([scenario], "unit")
        assert done["s0"].summary == {"value": 5.0}

    def test_journal_lines_are_canonical_json(self, tmp_path):
        journal = _journal(tmp_path)
        journal.append(_entry("s0"))
        lines = journal.path.read_text().splitlines()
        assert len(lines) == 2  # run-id header + the entry
        for line in lines:
            assert line == canonical_json(json.loads(line))

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(_KEYS.filter(lambda k: k != "sha256"), _JSON, max_size=8))
    def test_sealed_line_encodes_each_member_once(self, record):
        assert _sealed_line(record) == canonical_json(
            {**record, "sha256": record_digest(record)}
        )

    def test_sealed_line_falls_back_when_sha256_is_a_key(self):
        record = {"a": 1, "sha256": "stale"}
        assert _sealed_line(record) == canonical_json(
            {**record, "sha256": record_digest(record)}
        )

    def test_sealed_line_falls_back_on_a_non_str_key(self):
        # The two-encoding form raises while sorting the keys; the fallback
        # must raise that same error, not one of its own.
        record = {1: "a", 2: {"b": 3}}
        with pytest.raises(TypeError) as expected:
            canonical_json({**record, "sha256": record_digest(record)})
        with pytest.raises(TypeError) as got:
            _sealed_line(record)
        assert str(got.value) == str(expected.value)
