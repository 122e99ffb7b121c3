"""Tests for the data-plane hardening layer.

Covers the streaming sanitizer (repro.trace.sanitize), the structured
reader errors it fronts, the deterministic trace-corruption fault
(repro.resilience.scenarios.corrupt_tasks_csv) and the dirty-trace
end-to-end path (``sanitized_simulate``), including the determinism
contract: same dirty bytes -> byte-identical report digest and summary.
"""

import json

import pytest

from repro.errors import TraceCorrupt, TraceFieldCorrupt
from repro.resilience import CORRUPTION_KINDS, corrupt_tasks_csv
from repro.trace import (
    load_tasks_csv,
    load_trace,
    save_trace,
    sanitize_tasks_csv,
    sanitize_trace,
)
from repro.trace.sanitize import (
    MIN_DURATION,
    QUARANTINE_RULES,
    REPAIR_RULES,
    RESOURCE_FLOOR,
    expected_columns,
)

HEADER = ",".join(expected_columns())

#: Hand-written dirty corpus: every row labelled with its expected fate.
#: Columns: timestamp, job_id, task_index, priority, scheduling_class,
#: cpu_request, memory_request, duration, allowed_platforms.
DIRTY_ROWS = (
    ("10.0,1,0,0,0,0.1,0.1,50.0,", "clean"),
    ("20.0,1,1,0,0,0.1,0.1,-5.0,", "duration_clamped"),
    ("oops,1,2,0,0,0.1,0.1,50.0,", "unparseable"),
    ("30.0,2,0,0,0,not-a-number,0.1,50.0,", "unparseable"),
    ("40.0,2,1,0,0,0.1,nan,50.0,", "nonfinite_resource"),
    ("inf,2,2,0,0,0.1,0.1,50.0,", "nonfinite_time"),
    ("50.0,3,0,99,0,0.1,0.1,50.0,", "priority_out_of_range"),
    ("-1.0,3,1,0,0,0.1,0.1,50.0,", "timestamp_out_of_range"),
    ("60.0,1,0,0,0,0.1,0.1,50.0,", "duplicate_id_renumbered"),
    ("70.0,3,2,0,9,0.1,0.1,50.0,", "scheduling_class_defaulted"),
    ("80.0,3,3,0,0,7.5,0.1,50.0,", "resource_clamped"),
    ("90.0,3,4", "unparseable"),  # truncated line
    ("95.0,3,5,0,0,0.1,0.1,50.0,2|4", "clean"),
)


def write_dirty_csv(path):
    path.write_text(HEADER + "\n" + "\n".join(row for row, _ in DIRTY_ROWS) + "\n")
    return path


class TestReaderErrors:
    def test_malformed_cell_locates_row_column_value(self, tmp_path):
        path = tmp_path / "tasks.csv"
        path.write_text(HEADER + "\n10.0,1,0,0,0,bogus,0.1,50.0,\n")
        with pytest.raises(TraceFieldCorrupt) as excinfo:
            load_tasks_csv(path)
        error = excinfo.value
        assert error.context["row"] == 1
        assert error.context["column"] == "cpu_request"
        assert error.context["value"] == "bogus"
        assert isinstance(error, ValueError)
        assert isinstance(error, TraceCorrupt)

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "tasks.csv"
        path.write_text("timestamp,job_id\n1.0,1\n")
        with pytest.raises(TraceFieldCorrupt) as excinfo:
            load_tasks_csv(path)
        assert excinfo.value.context["row"] == 0


CENSUS_HEADER = "platform_id,cpu_capacity,memory_capacity,count,name"

#: One torn or hand-edited file of a saved trace directory per case:
#: (file, new contents, expected row, column, value of the error).
TORN_FILES = {
    "meta-header-only": ("meta.csv", "horizon,metadata_json\n", 1, "horizon", None),
    "meta-empty": ("meta.csv", "", 0, "horizon,metadata_json", None),
    "meta-not-json": (
        "meta.csv", "horizon,metadata_json\n360.0,{oops\n",
        1, "metadata_json", "{oops",
    ),
    "census-bad-platform-id": (
        "machine_types.csv", CENSUS_HEADER + "\nabc,0.5,0.5,10,small\n",
        1, "platform_id", "abc",
    ),
    "census-no-count-column": (
        "machine_types.csv",
        "platform_id,cpu_capacity,memory_capacity,name\n1,0.5,0.5,small\n",
        0, "count", None,
    ),
}


@pytest.mark.parametrize("case", sorted(TORN_FILES))
class TestTornTraceDirectory:
    """``save_trace`` writes meta.csv last; a kill mid-save (or an edit)
    must surface as a located error, not a bare StopIteration/ValueError."""

    def torn(self, tiny_trace, tmp_path, case):
        name, contents, row, column, value = TORN_FILES[case]
        directory = save_trace(tiny_trace, tmp_path / "trace")
        (directory / name).write_text(contents)
        path = str(directory / name)
        return directory, {"file": path, "row": row, "column": column, "value": value}

    def test_loader_locates_file_row_column_value(self, tiny_trace, tmp_path, case):
        directory, context = self.torn(tiny_trace, tmp_path, case)
        for load in (load_trace, sanitize_trace):
            with pytest.raises(TraceFieldCorrupt) as excinfo:
                load(directory)
            assert excinfo.value.context == context

    def test_cli_prints_one_line_and_exits_two(
        self, tiny_trace, tmp_path, case, capsys
    ):
        from repro.cli import main

        directory, context = self.torn(tiny_trace, tmp_path, case)
        assert main(["sanitize", str(directory)]) == 2
        assert main(["analyze", "--trace", str(directory)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 2
        for line, command in zip(lines, ("sanitize", "analyze")):
            assert line.startswith(f"repro {command}: ") and context["file"] in line


class TestSanitizer:
    def test_classifies_every_row(self, tmp_path):
        tasks, report = sanitize_tasks_csv(write_dirty_csv(tmp_path / "t.csv"))
        assert report.records_total == len(DIRTY_ROWS)
        expected_quarantined = sum(
            1 for _, fate in DIRTY_ROWS if fate in QUARANTINE_RULES
        )
        expected_clean = sum(1 for _, fate in DIRTY_ROWS if fate == "clean")
        assert report.records_quarantined == expected_quarantined
        assert report.records_clean == expected_clean
        assert report.records_repaired == (
            len(DIRTY_ROWS) - expected_quarantined - expected_clean
        )
        assert len(tasks) == report.records_clean + report.records_repaired
        for _, fate in DIRTY_ROWS:
            if fate in QUARANTINE_RULES:
                assert report.quarantine_by_rule[fate] >= 1
            elif fate in REPAIR_RULES:
                assert report.repairs_by_rule[fate] >= 1

    def test_repairs_land_in_schema_bounds(self, tmp_path):
        tasks, _ = sanitize_tasks_csv(write_dirty_csv(tmp_path / "t.csv"))
        uids = [t.uid for t in tasks]
        assert len(uids) == len(set(uids))
        for task in tasks:
            assert task.duration >= MIN_DURATION or task.duration > 0
            assert RESOURCE_FLOOR <= task.cpu <= 1.0
            assert RESOURCE_FLOOR <= task.memory <= 1.0
            assert 0 <= task.scheduling_class <= 3

    def test_quarantine_file_is_jsonl_with_raw_record(self, tmp_path):
        _, report = sanitize_tasks_csv(write_dirty_csv(tmp_path / "t.csv"))
        lines = [
            json.loads(line)
            for line in open(report.quarantine_path, encoding="utf-8")
        ]
        assert len(lines) == report.records_quarantined
        for entry in lines:
            assert set(entry) == {"row", "rule", "detail", "record"}
            assert entry["rule"] in QUARANTINE_RULES
        rows = [entry["row"] for entry in lines]
        assert rows == sorted(rows)
        assert tuple((e["row"], e["rule"]) for e in lines) == report.quarantined_rows

    def test_digest_deterministic_across_directories(self, tmp_path):
        first = write_dirty_csv(tmp_path / "t.csv")
        # Same bytes, different directory and quarantine path.
        other_dir = tmp_path / "elsewhere"
        other_dir.mkdir()
        second = other_dir / "renamed.csv"
        second.write_text(first.read_text())
        _, report_a = sanitize_tasks_csv(first)
        _, report_b = sanitize_tasks_csv(second, quarantine_path=other_dir / "q.jsonl")
        assert report_a.quarantine_path != report_b.quarantine_path
        assert report_a.to_dict() == report_b.to_dict()
        assert report_a.digest == report_b.digest
        # And the digest payload never mentions the filesystem.
        assert "quarantine_path" not in report_a.to_dict()

    def test_never_raises_on_fuzzed_garbage(self, tmp_path):
        import numpy as np

        rng = np.random.default_rng(0)
        cells = ["nan", "inf", "-inf", "", "x", "-1", "99", "1e400", "0", "3.5"]
        rows = [
            ",".join(rng.choice(cells, size=int(rng.integers(1, 12))))
            for _ in range(200)
        ]
        path = tmp_path / "garbage.csv"
        path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
        tasks, report = sanitize_tasks_csv(path)
        # csv skips fully blank lines (a lone empty cell renders as one).
        expected = sum(1 for row in rows if row)
        assert report.records_total == expected
        assert report.records_quarantined + len(tasks) == expected
        assert report.digest  # canonical JSON serializes (no NaN leaked)

    def test_clean_trace_passes_through_bit_identically(self, tiny_trace, tmp_path):
        save_trace(tiny_trace, tmp_path / "trace")
        sanitized, report = sanitize_trace(tmp_path / "trace")
        loaded = load_trace(tmp_path / "trace")
        assert sanitized.tasks == loaded.tasks
        assert sanitized.horizon == loaded.horizon
        assert report.records_repaired == 0
        assert report.records_quarantined == 0
        assert report.records_clean == report.records_total == len(loaded.tasks)
        assert (tmp_path / "trace" / "task_events.csv.quarantine.jsonl").stat().st_size == 0


class TestCorruptTasksCsv:
    def test_deterministic_bytes(self, tiny_trace, tmp_path):
        for name in ("a", "b"):
            save_trace(tiny_trace, tmp_path / name)
            corrupt_tasks_csv(tmp_path / name / "task_events.csv", 0.2, seed=7)
        assert (
            (tmp_path / "a" / "task_events.csv").read_bytes()
            == (tmp_path / "b" / "task_events.csv").read_bytes()
        )

    def test_touches_requested_fraction(self, tiny_trace, tmp_path):
        save_trace(tiny_trace, tmp_path / "trace")
        path = tmp_path / "trace" / "task_events.csv"
        total = len(path.read_text().splitlines()) - 1
        corrupted = corrupt_tasks_csv(path, 0.25, seed=3)
        assert corrupted == min(max(1, round(0.25 * total)), total)

    def test_exercises_repairs_and_quarantines(self, tiny_trace, tmp_path):
        save_trace(tiny_trace, tmp_path / "trace")
        path = tmp_path / "trace" / "task_events.csv"
        corrupted = corrupt_tasks_csv(path, 0.3, seed=1)
        assert corrupted >= len(CORRUPTION_KINDS)  # every kind fired at least once
        _, report = sanitize_trace(tmp_path / "trace")
        assert report.records_quarantined > 0
        assert report.records_repaired > 0
        assert report.records_total - report.records_quarantined > 0

    def test_bad_fraction_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            corrupt_tasks_csv(tmp_path / "nope.csv", fraction=0.0)


class TestDirtyEndToEnd:
    PARAMS = {
        "trace": {"hours": 0.5, "machines": 120, "seed": 11, "load": 0.4},
        "corrupt_fraction": 0.15,
        "corrupt_seed": 7,
        "policy": "cbs",
        "predictor": "fallback",
        "guard": True,
        "window_hours": 0.5,
    }

    @pytest.fixture(scope="class")
    def dirty_summaries(self):
        from repro.runner import get_task

        task = get_task("sanitized_simulate")
        return task(dict(self.PARAMS))["summary"], task(dict(self.PARAMS))["summary"]

    def test_completes_and_is_deterministic(self, dirty_summaries):
        first, second = dirty_summaries
        blob = lambda s: json.dumps(  # noqa: E731
            s, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        assert blob(first) == blob(second)  # also proves every value is finite

    def test_data_plane_block_reports_counts_and_rungs(self, dirty_summaries):
        data_plane = dirty_summaries[0]["resilience"]["data_plane"]
        sanitizer = data_plane["sanitizer"]
        assert sanitizer["records_quarantined"] > 0
        assert sanitizer["records_repaired"] > 0
        assert sanitizer["digest"]
        assert set(data_plane["forecast_fallback"]["rungs"]) == {
            "primary", "seasonal_naive", "last_value",
        }
        assert set(data_plane["classifier"]) == {
            "collapsed_fits", "kmeans_reseeds", "nonfinite_features_dropped",
        }
        assert set(data_plane["capacity_guard"]) == {
            "capacity_model_unstable", "container_sizing_error",
        }

    def test_clean_simulation_reports_null_sanitizer(self, tiny_trace):
        from repro.simulation import HarmonyConfig, HarmonySimulation

        result = HarmonySimulation(HarmonyConfig(policy="baseline"), tiny_trace).run()
        data_plane = result.summary()["resilience"]["data_plane"]
        assert data_plane["sanitizer"] is None


class TestSanitizeCli:
    def test_sanitize_command_reports_and_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        directory = tmp_path / "trace"
        directory.mkdir()
        write_dirty_csv(directory / "task_events.csv")
        (directory / "machine_types.csv").write_text(
            "platform_id,cpu_capacity,memory_capacity,count,name\n"
            "1,0.5,0.5,10,small\n"
        )
        (directory / "meta.csv").write_text('horizon,metadata_json\n100.0,{}\n')
        assert main(["sanitize", str(directory)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sanitization"]["records_quarantined"] > 0
        assert payload["digest"]
        # --strict turns a dirty ingest into a non-zero exit.
        assert main(["sanitize", str(directory), "--strict"]) == 1
