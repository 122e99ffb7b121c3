"""Tests for the CLI and the analysis/report helpers."""

import json

import numpy as np
import pytest

from repro.analysis import ascii_series, ascii_table, format_cdf_rows
from repro.cli import build_parser, main
from repro.containers import ContainerManagerConfig
from repro.trace import save_trace


class TestCli:
    def test_generate_and_analyze(self, tiny_trace, tmp_path, capsys):
        out = tmp_path / "trace"
        assert main(["generate", "--hours", "0.1", "--machines", "60",
                     "--seed", "1", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "saved" in captured
        assert main(["analyze", "--trace", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["num_machines"] == 60

    def test_classify_command(self, tiny_trace, tmp_path, capsys):
        out = tmp_path / "trace"
        save_trace(tiny_trace, out)
        assert main(["classify", "--trace", str(out)]) == 0
        table = capsys.readouterr().out
        assert "class" in table and "gratis" in table

    def test_simulate_command(self, tiny_trace, tmp_path, capsys):
        out = tmp_path / "trace"
        save_trace(tiny_trace, out)
        assert main(["simulate", "--trace", str(out), "--policy", "baseline"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["policy"] == "baseline"
        assert summary["tasks_submitted"] == tiny_trace.num_tasks

    def test_validate_command(self, small_trace, tmp_path, capsys):
        out = tmp_path / "trace"
        save_trace(small_trace, out)
        rc = main(["validate", "--trace", str(out)])
        output = capsys.readouterr().out
        assert "Calibration" in output
        assert rc == 0

    @pytest.mark.parametrize("ticks", ["0", "-5"])
    def test_serve_rejects_nonpositive_ticks(self, ticks, tmp_path, capsys):
        state_dir = tmp_path / "state"
        argv = ["serve", "--hours", "0.5", "--machines", "200",
                "--state-dir", str(state_dir), "--ticks", ticks]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("repro serve: --ticks must be >= 1")
        assert not state_dir.exists()

    @pytest.mark.parametrize("command", ["analyze", "simulate", "compare"])
    def test_missing_trace_dir_is_a_usage_error(self, command, tmp_path, capsys):
        not_a_dir = tmp_path / "trace.csv"
        not_a_dir.write_text("")
        for path in (tmp_path / "nonexistent", not_a_dir):
            assert main([command, "--trace", str(path)]) == 2
            [line] = capsys.readouterr().err.splitlines()
            assert line == f"repro {command}: --trace {path} is not a directory"

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--engine", "columnar"],
            ["bench", "scalability", "--engine", "object"],
            ["bench", "google_fleet", "--engine", "both"],
            ["fleet", "--engine", "both"],
        ],
        ids=["simulate", "bench", "bench-google_fleet", "fleet"],
    )
    def test_engine_flag_is_gone(self, argv, capsys):
        """The replay engine is HarmonyConfig's business, not the CLI's."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    def test_subcommands_are_exactly_the_documented_twelve(self):
        (subparsers,) = [
            action for action in build_parser()._actions if action.dest == "command"
        ]
        assert list(subparsers.choices) == [
            "generate", "analyze", "validate", "classify", "simulate", "compare",
            "resilience", "sanitize", "bench", "fleet", "serve", "lint",
        ]

    @pytest.mark.parametrize(("cores", "workers"), [(1, 1), (8, 4), (None, 1)])
    @pytest.mark.parametrize("command", ["bench", "fleet"])
    def test_workers_default_to_what_the_machine_can_run(
        self, command, cores, workers, monkeypatch
    ):
        """A default run records a worker count its machine can run."""
        monkeypatch.setattr("repro.cli.os.cpu_count", lambda: cores)
        argv = [command, "ablation"] if command == "bench" else [command]
        assert build_parser().parse_args(argv).workers == workers

    @pytest.mark.parametrize(
        "argv", [["report", "x.md"], ["figures", "out"]], ids=["report", "figures"]
    )
    def test_retired_subcommand_is_gone(self, argv, capsys):
        """One figure pipeline: ``repro bench figures`` records the paper's
        figures and the examples draw them."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"invalid choice: {argv[0]!r}" in capsys.readouterr().err

    def test_sizing_method_knob_is_gone(self):
        """Eq. 3 with statistical multiplexing is the only container sizing."""
        with pytest.raises(TypeError):
            ContainerManagerConfig(sizing_method="hoeffding")


class TestReportHelpers:
    def test_ascii_table_alignment(self):
        table = ascii_table(["a", "bb"], [[1, 2.5], ["xxx", 0.001]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_ascii_series_renders(self):
        times = np.arange(100.0)
        values = np.sin(times / 10.0)
        art = ascii_series(times, values, width=40, height=6, label="wave")
        assert "wave" in art
        assert "#" in art

    def test_ascii_series_empty(self):
        assert "(empty series)" in ascii_series(np.array([]), np.array([]), label="x")

    def test_format_cdf_rows(self):
        rows = format_cdf_rows(np.array([1.0, 2.0, 3.0, 4.0]), [2.5, 10.0])
        assert rows[0] == ("<= 2.5s", 0.5)
        assert rows[1] == ("<= 10s", 1.0)
