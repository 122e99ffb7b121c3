"""Tests for repro.statics (harmonylint): rules, suppressions, CLI.

The fixture corpus under ``tests/fixtures/lint`` is a miniature tree
(``src/repro/...``) linted with ``--root tests/fixtures/lint`` so the
path-scoped rules (src-only, timing allowlist, numeric hot paths) see the
same layout they see in the real repository.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.statics import (
    ALL_RULES,
    KNOWN_CODES,
    LintEngine,
    lint_paths,
)

FIXTURE_ROOT = Path(__file__).parent / "fixtures" / "lint"
REPO_ROOT = Path(__file__).parents[1]


def lint_corpus(*paths: str):
    return lint_paths(list(paths) or ["src"], root=FIXTURE_ROOT)


def codes_in(report) -> set[str]:
    return {f.code for f in report.findings}


class TestRuleCatalog:
    def test_codes_are_unique(self):
        codes = [rule.code for rule in ALL_RULES]
        assert len(codes) == len(set(codes))

    def test_known_codes_cover_rules_and_syntax(self):
        assert {rule.code for rule in ALL_RULES} | {"SYN000"} == KNOWN_CODES

    def test_every_rule_documents_itself(self):
        for rule in ALL_RULES:
            assert rule.code and rule.name and rule.summary and rule.rationale
            assert rule.severity in ("error", "warning")


class TestBadCorpusTriggersEveryRule:
    def test_every_known_code_fires(self):
        report = lint_corpus("src")
        assert codes_in(report) == KNOWN_CODES

    @pytest.mark.parametrize(
        "fixture, code",
        [
            ("src/repro/bad/det001.py", "DET001"),
            ("src/repro/bad/det002.py", "DET002"),
            ("src/repro/bad/det003.py", "DET003"),
            ("src/repro/bad/det004.py", "DET004"),
            ("src/repro/bad/det005.py", "DET005"),
            ("src/repro/serve/det006.py", "DET006"),
            ("src/repro/bad/err001.py", "ERR001"),
            ("src/repro/bad/api001.py", "API001"),
            ("src/repro/bad/sup001.py", "SUP001"),
            ("src/repro/bad/syn000.py", "SYN000"),
            ("src/repro/queueing/num001.py", "NUM001"),
        ],
    )
    def test_bad_fixture_triggers_exactly_its_code(self, fixture, code):
        report = lint_corpus(fixture)
        assert codes_in(report) == {code}

    def test_det001_variants(self):
        report = lint_corpus("src/repro/bad/det001.py")
        messages = " ".join(f.message for f in report.findings)
        assert "random.Random() instantiated" in messages
        assert "legacy numpy global RNG" in messages
        assert "default_rng() without a seed" in messages
        assert "OS entropy (os.urandom)" in messages

    def test_det001_flags_os_entropy_in_a_checkpoint(self, tmp_path):
        # A nonce in a checkpoint payload makes the sealed file differ on
        # every run, whether or not a digest sink is in the same module.
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_text(
            "import os\n\n"
            "from repro.runner.journal import replace_sealed_file\n\n\n"
            "def checkpoint(path) -> None:\n"
            "    nonce = os.urandom(4).hex()\n"
            "    replace_sealed_file(path, {'nonce': nonce})\n"
        )
        report = lint_paths(["src"], root=tmp_path)
        [finding] = report.findings
        assert finding.code == "DET001"
        assert (finding.path, finding.line) == ("src/repro/mod.py", 7)
        assert "os.urandom" in finding.message

    def test_det003_names_what_it_iterates(self):
        report = lint_corpus("src/repro/bad/det003.py")
        assert {f.code for f in report.findings} == {"DET003"}
        by_line = {f.line: f.message for f in report.findings}
        assert "for-loop over set 'tags'" in by_line[15]
        assert "comprehension over dict.keys()" in by_line[21]
        # A set-typed local walked into "".join — the shard-digest roll-up.
        assert "comprehension over set 'shard_digests'" in by_line[26]
        assert "tuple() over set 'tags'" in by_line[31]

    def test_det003_set_names_are_scoped_per_function(self):
        engine = LintEngine()
        findings = engine.lint_source(
            "src/repro/x.py",
            "def a(rows):\n"
            "    seen = set(rows)\n"
            "    return len(seen)\n\n\n"
            "def b(rows):\n"
            "    seen = list(rows)\n"
            "    return [r for r in seen]\n\n\n"
            "def c(tags: frozenset[str]):\n"
            "    def inner():\n"
            "        return [t for t in tags]\n"
            "    return inner\n",
        )
        assert [(f.code, f.line) for f in findings] == [("DET003", 13)]


class TestGoodCorpusIsClean:
    @pytest.mark.parametrize(
        "fixture",
        [
            "src/repro/good/det001.py",
            "src/repro/good/det003.py",
            "src/repro/good/det004.py",
            "src/repro/good/det005.py",
            "src/repro/serve/det006_good.py",
            "src/repro/good/err001.py",
            "src/repro/good/api001.py",
            "src/repro/good/sup001.py",
            "src/repro/queueing/num001_good.py",
            "src/repro/runner/det002.py",
        ],
    )
    def test_good_fixture_is_clean(self, fixture):
        report = lint_corpus(fixture)
        assert report.findings == []

    def test_det002_allowlist_is_path_scoped(self):
        """The same clock call flags outside runner/ but not inside it."""
        source = Path(FIXTURE_ROOT, "src/repro/runner/det002.py").read_text()
        engine = LintEngine()
        inside = engine.lint_source("src/repro/runner/det002.py", source)
        outside = engine.lint_source("src/repro/resilience/det002.py", source)
        assert inside == []
        assert {f.code for f in outside} == {"DET002"}

    def test_det006_is_scoped_to_the_control_plane(self):
        """Same source: flags in serve/ and simulation/, not elsewhere,
        and never in the seam files themselves."""
        source = Path(FIXTURE_ROOT, "src/repro/serve/det006.py").read_text()
        engine = LintEngine()
        serve = engine.lint_source("src/repro/serve/backoff.py", source)
        simulation = engine.lint_source("src/repro/simulation/pacing.py", source)
        elsewhere = engine.lint_source("src/repro/trace/backoff.py", source)
        seam = engine.lint_source("src/repro/serve/clock.py", source)
        assert {f.code for f in serve} == {"DET006"}
        assert {f.code for f in simulation} == {"DET006"}
        assert "DET006" not in {f.code for f in elsewhere}
        assert "DET006" not in {f.code for f in seam}

    def test_num001_only_fires_in_hot_paths(self):
        source = Path(FIXTURE_ROOT, "src/repro/queueing/num001.py").read_text()
        engine = LintEngine()
        hot = engine.lint_source("src/repro/queueing/num001.py", source)
        cold = engine.lint_source("src/repro/trace/num001.py", source)
        assert {f.code for f in hot} == {"NUM001"}
        assert cold == []


class TestSuppressions:
    def test_used_suppression_silences_and_counts(self):
        engine = LintEngine()
        source = Path(FIXTURE_ROOT, "src/repro/good/sup001.py").read_text()
        findings = engine.lint_source("src/repro/good/sup001.py", source)
        assert findings == []

    def test_unused_suppression_reports_sup001(self):
        report = lint_corpus("src/repro/bad/sup001.py")
        messages = sorted(f.message for f in report.findings)
        assert len(messages) == 3
        assert any("matched no finding" in m for m in messages)
        assert any("unknown rule code" in m for m in messages)
        assert any("blanket" in m for m in messages)

    def test_blanket_noqa_suppresses_any_code(self):
        engine = LintEngine()
        findings = engine.lint_source(
            "src/repro/x.py",
            "def f(scv):\n    return scv == 1.0  # repro: noqa\n",
        )
        assert findings == []

    def test_wrong_code_does_not_suppress(self):
        engine = LintEngine()
        findings = engine.lint_source(
            "src/repro/x.py",
            "def f(scv):\n    return scv == 1.0  # repro: noqa[DET005]\n",
        )
        codes = {f.code for f in findings}
        assert "DET004" in codes  # the violation still reports
        assert "SUP001" in codes  # and the mismatched noqa is called out

    def test_sup001_is_exempt_from_suppression(self):
        engine = LintEngine()
        findings = engine.lint_source(
            "src/repro/x.py",
            "X = 1  # repro: noqa[SUP001]\n",
        )
        assert {f.code for f in findings} == {"SUP001"}

    def test_suppression_counts_in_report(self, tmp_path):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_text(
            "import os\n\n\n"
            "def stamp() -> str:\n"
            "    return os.urandom(4).hex()  # repro: noqa[DET001]\n"
        )
        report = lint_paths(["src"], root=tmp_path)
        # DET001 is suppressed, and the suppression is counted as used
        # so no SUP001 appears either.
        assert report.findings == []
        assert report.suppressed == 1

    def test_directive_in_string_literal_is_ignored(self):
        engine = LintEngine()
        findings = engine.lint_source(
            "src/repro/x.py",
            'HELP = "# repro: noqa[DET004]"\n',
        )
        assert findings == []


class TestCli:
    def test_clean_tree_exits_zero(self, capsys):
        code = main(
            ["lint", "src/repro/good", "--root", str(FIXTURE_ROOT)]
        )
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_bad_corpus_exits_one(self, capsys):
        code = main(["lint", "src", "--root", str(FIXTURE_ROOT)])
        assert code == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "finding(s)" in out

    def test_missing_path_exits_two(self, capsys):
        code = main(["lint", "no/such/dir", "--root", str(FIXTURE_ROOT)])
        assert code == 2

    def test_bad_root_exits_two(self, capsys):
        code = main(["lint", "src", "--root", str(FIXTURE_ROOT / "nope")])
        assert code == 2

    @pytest.mark.parametrize(
        "flag",
        [
            "--jobs=2", "--changed-only", "--graph=f", "--cache=c.json",
            "--no-cache", "--baseline=b.json", "--no-baseline", "--fix-baseline",
            "--format=sarif",
        ],
    )
    def test_removed_option_is_a_usage_error(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", "src", "--root", str(FIXTURE_ROOT), flag])
        assert exit_info.value.code == 2

    def test_json_schema(self, capsys):
        code = main(
            ["lint", "src", "--root", str(FIXTURE_ROOT), "--format", "json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "harmonylint"
        assert payload["version"] == 1
        assert set(payload["summary"]) == {"total", "suppressed", "by_code"}
        assert payload["summary"]["total"] == len(payload["findings"])
        fields = {"code", "severity", "path", "line", "column", "message"}
        for finding in payload["findings"]:
            assert set(finding) == fields
        by_code = payload["summary"]["by_code"]
        assert sum(by_code.values()) == payload["summary"]["total"]
        assert set(by_code) == KNOWN_CODES

class TestShippedTree:
    def test_repo_lints_clean(self):
        report = lint_paths(["src", "tests"], root=REPO_ROOT)
        assert [f.format_text() for f in report.findings] == []

    def test_fixture_corpus_excluded_from_discovery(self):
        report = lint_paths(["tests"], root=REPO_ROOT)
        assert all("fixtures/lint" not in f.path for f in report.findings)
