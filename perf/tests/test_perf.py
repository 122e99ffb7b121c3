"""Self-tests of the benchmark harness, at ``--quick`` sizes.

Run explicitly (tier-1's ``testpaths`` is ``tests/``)::

    python3 -m pytest perf/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = PERF_DIR.parent
sys.path[:0] = [str(PERF_DIR), str(REPO_ROOT / "src")]

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def wrapped_targets() -> list[tuple[object, str]]:
    wrappers = layers.install(Tracer("probe"))
    targets = wrappers.targets()
    wrappers.remove()
    return targets


@pytest.fixture(scope="module")
def traced_records() -> dict[str, dict]:
    """One quick traced run per workload, in this process."""
    return {
        name: run.measure(name, 7, 0.0, True, 1, True, SPEC) for name in WORKLOADS
    }


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_is_correct_and_complete(traced_records, name):
    record = traced_records[name]
    assert record["failed_checks"] == []
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    assert list(record["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert record["metrics"]["failed_share"]["value"] == 0.0


@pytest.mark.parametrize("name", WORKLOADS)
def test_span_tree_is_well_formed(traced_records, name):
    spans = [
        json.loads(line)
        for line in (PERF_DIR / "out" / f"spans_{name}.jsonl").read_text().splitlines()
    ]
    by_id = {span["id"]: span for span in spans}
    assert sorted(by_id) == list(range(len(spans)))
    covered: dict[int, float] = {}
    for span in spans:
        assert span["workload"] == name
        assert span["end"] >= span["start"] and span["busy_s"] >= 0.0
        assert span["busy_s"] <= span["end"] - span["start"] + 1e-9
        parent = span["parent"]
        if parent is not None:
            assert parent < span["id"]
            assert by_id[parent]["start"] <= span["start"]
            assert span["end"] <= by_id[parent]["end"]
            covered[parent] = covered.get(parent, 0.0) + span["busy_s"]
    for parent, busy in covered.items():
        assert by_id[parent]["busy_s"] - busy >= -1e-6, "negative self time"
    roots = [s for s in spans if s["name"] == "bench.repeat"]
    assert len(roots) >= run.MIN_REPEATS["traced"]
    assert traced_records[name]["metrics"]["bench.span_coverage"]["value"] >= 0.95


def test_dominant_layer_is_exercised(traced_records):
    value = lambda w, m: traced_records[w]["metrics"][m]["value"]  # noqa: E731
    assert value("control_arima", "forecasting.observe_calls") > 0
    assert value("control_arima", "trace.generate_tasks") > 0
    assert value("control_arima", "classification.fit_tasks") > 0
    assert value("control_mpc", "provisioning.relax_solves") > 0
    assert value("control_mpc", "energy_savings_pct") != 0.0
    assert value("replay_backlog", "simulation.replay_self_s") > 0
    assert value("replay_backlog", "provisioning.decides") == 0
    assert value("fleet_stream", "trace.stream_passes") == 2
    assert value("fleet_stream", "trace.stream_useful_ratio") == pytest.approx(0.5, abs=0.1)
    assert value("fleet_stream", "runner.journal_appends") == 2
    assert value("serve_ticks", "serve.apply_tick_s") > 0
    assert value("serve_ticks", "tick_p50_ms") > 0
    assert value("serve_ticks", "restore_s") > 0


def test_wrappers_are_removed_after_a_traced_run(traced_records):
    for holder, attr in wrapped_targets():
        current = holder.__dict__[attr]
        assert not hasattr(current, "__wrapped__"), f"{holder}.{attr} still wrapped"


def test_install_restores_the_very_same_callables():
    before = {
        (id(holder), attr): holder.__dict__[attr] for holder, attr in wrapped_targets()
    }
    wrappers = layers.install(Tracer("probe"))
    assert any(
        holder.__dict__[attr] is not before[(id(holder), attr)]
        for holder, attr in wrappers.targets()
    )
    wrappers.remove()
    for holder, attr in wrapped_targets():
        assert holder.__dict__[attr] is before[(id(holder), attr)]


def test_function_wrappers_reach_every_importing_module():
    import repro.fleet.tasks
    import repro.serve.checkpoint

    holders = {holder for holder, attr in wrapped_targets() if attr == "write_journal_record"}
    assert {repro.fleet.tasks, repro.serve.checkpoint} <= holders


def test_names_in_benchmark_json():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    assert SPEC["paths"] == ["perf"]
    assert {"setup_s", "wall_s"} <= {m["name"] for m in SPEC["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_contract_line(trace):
    completed = subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--workload", "serve_ticks",
         "--seed", "11", "--seconds", "0", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0


def test_more_workers_than_processors_is_refused():
    completed = subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--workload", "fleet_stream",
         "--workers", str(run.nproc() + 1)],
        capture_output=True, text=True,
    )
    assert completed.returncode == 2
    assert "nproc" in completed.stderr


def under_a_reaper(script: str) -> dict:
    """Run ``script`` in a process that orphans are handed to; its JSON line."""
    completed = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(PERF_DIR)!r})\n"
         "import json, os, subprocess, run\nrun.adopt_orphans()\n" + script],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_reap_all_ends_an_orphan_that_outstays_its_grace():
    seen = under_a_reaper(
        "subprocess.run([sys.executable, '-c', 'import subprocess; "
        "print(subprocess.Popen([\"sleep\", \"60\"]).pid)'])\n"
        "orphans = run.children()\nkilled = run.reap_all(0.2)\n"
        "print(json.dumps({'orphans': orphans, 'killed': killed, 'left': run.children()}))"
    )
    assert len(seen["orphans"]) == 1
    assert seen["killed"] == seen["orphans"] and seen["left"] == []


@pytest.mark.skipif(run.nproc() < 2, reason="needs two shard workers")
def test_command_leaves_no_process_behind():
    """Two shard workers mean a pool and multiprocessing's resource tracker."""
    seen = under_a_reaper(
        f"command = [sys.executable, {str(PERF_DIR / 'run.py')!r}, '--workload', "
        "'fleet_stream', '--seed', '5', '--seconds', '0', '--trace', '0', "
        "'--workers', '2', '--quick']\n"
        "code = subprocess.run(command, stdout=subprocess.DEVNULL).returncode\n"
        "print(json.dumps({'code': code, 'left': run.children()}))"
    )
    assert seen == {"code": 0, "left": []}


def test_without_the_program_no_result_is_printed(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF_DIR, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "control_arima", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


def test_percentile_keeps_ten_samples_beyond():
    assert layers.percentile([float(i) for i in range(100)], 99) == pytest.approx(89.1)
    assert layers.percentile([float(i) for i in range(2001)], 99) == pytest.approx(1980.0)
    assert layers.percentile([float(i) for i in range(15)], 99) == pytest.approx(7.0)
    assert layers.percentile([], 99) == 0.0


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(steady, [10.5, 10.4, 10.6, 10.5], "lower", "relative", 0.1) == "same"
    assert compare.verdict(steady, [12.0, 12.1, 11.9, 12.0], "lower", "relative", 0.1) == "worse"
    assert compare.verdict(steady, [8.0, 8.1, 7.9, 8.0], "lower", "relative", 0.1) == "better"
    assert compare.verdict(steady, [8.0, 8.1, 7.9, 8.0], "higher", "relative", 0.1) == "worse"
    noisy = [9.0, 14.0, 10.0, 13.0]
    assert compare.verdict(steady, noisy, "lower", "relative", 0.1) == "unresolved"
    assert compare.verdict([6.9], [6.3], "higher", "points", 0.5) == "worse"
    assert compare.verdict([6.9], [6.5], "higher", "points", 0.5) == "same"
    assert compare.verdict([0.0], [0.01], "lower", "points", 0.0) == "worse"
