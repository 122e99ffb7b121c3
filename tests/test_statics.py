"""Tests for repro.statics (harmonylint): rules, suppressions, baseline, CLI.

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
    Baseline,
    BaselineError,
    Finding,
    LintEngine,
    build_baseline,
    default_rules,
    lint_paths,
    load_baseline,
    save_baseline,
)
from repro.statics.rules import WallClockRead

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
            ("src/repro/bad/ord001.py", "ORD001"),
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
            # each half of the taint pair is clean on its own; FLOW001
            # only fires when both sides are linted together (see
            # TestProjectPasses).
            "src/repro/taint/entropy.py",
            "src/repro/taint/ledger.py",
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

    def test_directive_in_string_literal_is_ignored(self):
        engine = LintEngine()
        findings = engine.lint_source(
            "src/repro/x.py",
            'HELP = "# repro: noqa[DET004]"\n',
        )
        assert findings == []


class TestFingerprints:
    def test_fingerprint_is_line_number_independent(self):
        a = Finding(
            code="DET004", severity="error", path="src/repro/x.py",
            line=10, column=4, message="m", source_line="if x == 1.0:",
        )
        b = Finding(
            code="DET004", severity="error", path="src/repro/x.py",
            line=99, column=0, message="m", source_line="if x == 1.0:",
        )
        assert a.fingerprint == b.fingerprint

    def test_fingerprint_distinguishes_code_and_path(self):
        base = dict(
            severity="error", line=1, column=0, message="m",
            source_line="if x == 1.0:",
        )
        a = Finding(code="DET004", path="src/repro/x.py", **base)
        b = Finding(code="DET003", path="src/repro/x.py", **base)
        c = Finding(code="DET004", path="src/repro/y.py", **base)
        assert len({a.fingerprint, b.fingerprint, c.fingerprint}) == 3


class TestBaseline:
    def _findings(self):
        return lint_corpus("src/repro/bad/det004.py").findings

    def test_round_trip(self, tmp_path):
        findings = self._findings()
        baseline = build_baseline(findings)
        path = tmp_path / "baseline.json"
        save_baseline(baseline, path)
        loaded = load_baseline(path)
        reported, absorbed = loaded.apply(findings)
        assert reported == []
        assert absorbed == len(findings)
        assert loaded.stale_fingerprints(findings) == []

    def test_new_findings_still_report(self, tmp_path):
        findings = self._findings()
        baseline = build_baseline(findings[:1])
        reported, absorbed = baseline.apply(findings)
        assert absorbed == 1
        assert len(reported) == len(findings) - 1

    def test_fixed_findings_become_stale(self):
        findings = self._findings()
        baseline = build_baseline(findings)
        assert baseline.stale_fingerprints([]) == sorted(
            f.fingerprint for f in findings
        )

    def test_justifications_survive_rebuild(self):
        findings = self._findings()
        first = build_baseline(findings)
        for entry in first.entries.values():
            entry.justification = "known-good: sentinel compare"
        second = build_baseline(findings, previous=first)
        assert all(
            e.justification == "known-good: sentinel compare"
            for e in second.entries.values()
        )

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"version": 99, "findings": []}')
        with pytest.raises(BaselineError):
            load_baseline(path)
        path.write_text("not json")
        with pytest.raises(BaselineError):
            load_baseline(path)

    def test_deterministic_serialization(self, tmp_path):
        findings = list(reversed(self._findings()))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_baseline(build_baseline(findings), a)
        save_baseline(build_baseline(list(reversed(findings))), b)
        assert a.read_text() == b.read_text()


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
        ["--jobs=2", "--changed-only", "--graph=f", "--cache=c.json", "--no-cache"],
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
        assert set(payload["summary"]) == {
            "total", "baselined", "suppressed",
            "stale_baseline_entries", "by_code",
        }
        assert payload["summary"]["total"] == len(payload["findings"])
        required = {
            "code", "severity", "path", "line", "column",
            "message", "fingerprint",
        }
        for finding in payload["findings"]:
            # "trace" is only present on project-level findings that
            # carry a rendered call path.
            assert required <= set(finding) <= required | {"trace"}
        by_code = payload["summary"]["by_code"]
        assert sum(by_code.values()) == payload["summary"]["total"]
        assert set(by_code) == KNOWN_CODES

    def test_fix_baseline_then_clean(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        args = [
            "lint", "src", "--root", str(FIXTURE_ROOT),
            "--baseline", str(baseline),
        ]
        assert main(args + ["--fix-baseline"]) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "baselined" in capsys.readouterr().out

    def test_no_baseline_overrides_baseline_file(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        args = [
            "lint", "src", "--root", str(FIXTURE_ROOT),
            "--baseline", str(baseline),
        ]
        assert main(args + ["--fix-baseline"]) == 0
        capsys.readouterr()
        assert main(args + ["--no-baseline"]) == 1

    def test_corrupt_baseline_exits_two(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{broken")
        code = main(
            ["lint", "src", "--root", str(FIXTURE_ROOT),
             "--baseline", str(baseline)]
        )
        assert code == 2


class TestProjectPasses:
    def test_flow001_reports_cross_module_call_path(self):
        report = lint_corpus("src/repro/taint")
        [finding] = report.findings
        assert finding.code == "FLOW001"
        assert finding.path == "src/repro/taint/entropy.py"
        assert "os.urandom()" in finding.message
        assert "canonical_json()" in finding.message
        assert (
            "call path: repro.taint.entropy.stamp_entry"
            " -> repro.taint.ledger.record_entry" in finding.message
        )
        assert finding.trace == (
            "repro.taint.entropy.stamp_entry",
            "repro.taint.ledger.record_entry",
        )

    def test_ord001_names_the_container_and_path(self):
        report = lint_corpus("src/repro/bad/ord001.py")
        messages = sorted(f.message for f in report.findings)
        assert len(messages) == 2
        assert "dict.keys()" in messages[0]
        assert (
            "repro.bad.ord001._key_order -> repro.bad.ord001.summarize"
            in messages[0]
        )
        assert "set 'tags'" in messages[1]
        assert (
            "repro.bad.ord001._labels -> repro.bad.ord001.render"
            in messages[1]
        )

    def test_project_finding_respects_noqa(self, tmp_path):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_text(
            "import json\n"
            "import os\n\n\n"
            "def canonical_json(payload) -> str:\n"
            "    return json.dumps(payload, sort_keys=True)\n\n\n"
            "def stamp() -> str:\n"
            "    nonce = os.urandom(4).hex()  # repro: noqa[FLOW001]\n"
            "    return canonical_json({'nonce': nonce})\n"
        )
        report = lint_paths(["src"], root=tmp_path)
        # FLOW001 is suppressed, and the suppression is counted as used
        # so no SUP001 appears either.
        assert report.findings == []
        assert report.suppressed == 1


class TestBaselineStability:
    def test_fingerprints_survive_line_moves(self):
        engine = LintEngine()
        src = "def f(scv):\n    return scv == 1.0\n"
        moved = "# header comment\n\n\n" + src
        a = engine.lint_source("src/repro/x.py", src)
        b = engine.lint_source("src/repro/x.py", moved)
        assert [f.fingerprint for f in a] == [f.fingerprint for f in b]

    def test_fingerprints_survive_function_reordering(self):
        engine = LintEngine()
        f1 = "def f(scv):\n    return scv == 1.0\n"
        f2 = "def g(load):\n    return load == 2.0\n"
        a = engine.lint_source("src/repro/x.py", f1 + "\n\n" + f2)
        b = engine.lint_source("src/repro/x.py", f2 + "\n\n" + f1)
        assert {f.fingerprint for f in a} == {f.fingerprint for f in b}

    def _saved_baseline(self, tmp_path):
        findings = lint_corpus("src/repro/bad/det004.py").findings
        path = tmp_path / "baseline.json"
        save_baseline(build_baseline(findings[:1]), path)
        return path

    def test_duplicate_fingerprint_entries_raise(self, tmp_path):
        path = self._saved_baseline(tmp_path)
        payload = json.loads(path.read_text())
        payload["findings"].append(dict(payload["findings"][0]))
        path.write_text(json.dumps(payload))
        with pytest.raises(BaselineError, match="duplicate"):
            load_baseline(path)

    def test_nonpositive_count_raises(self, tmp_path):
        path = self._saved_baseline(tmp_path)
        payload = json.loads(path.read_text())
        payload["findings"][0]["count"] = 0
        path.write_text(json.dumps(payload))
        with pytest.raises(BaselineError, match="count"):
            load_baseline(path)


class TestCliV2:
    def test_sarif_output(self, capsys):
        code = main(
            ["lint", "src", "--root", str(FIXTURE_ROOT),
             "--format", "sarif"]
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        [run] = doc["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "harmonylint"
        rule_ids = {rule["id"] for rule in driver["rules"]}
        assert {"FLOW001", "ORD001"} <= rule_ids
        results = run["results"]
        assert results
        for result in results:
            assert "harmonylint/v1" in result["partialFingerprints"]
        flows = [r for r in results if r["ruleId"] == "FLOW001"]
        assert flows
        assert all("codeFlows" in r for r in flows)


class TestStaleBaseline:
    """A baselined finding that stops firing fails the run: either it was
    fixed (drop the entry) or its rule went blind (fix the rule)."""

    FLOAT_EQ = "def f(scv):\n    return scv == 1.0\n"

    def _baselined_tree(self, tmp_path):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "a.py").write_text(self.FLOAT_EQ)
        (pkg / "b.py").write_text(self.FLOAT_EQ.replace("1.0", "2.0"))
        args = ["lint", "src", "--root", str(tmp_path)]
        assert main(args + ["--fix-baseline"]) == 0
        assert main(args) == 0
        return pkg, args

    def test_disabled_rule_leaves_its_baseline_entries_stale(self, tmp_path):
        # The shipped baseline is empty, so the baselined wall-clock reads
        # live in a scratch tree.
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "a.py").write_text(
            "import time\n\n\ndef f():\n    return time.perf_counter()\n"
            "\n\ndef g():\n    return time.time()\n"
        )
        assert main(["lint", "src", "--root", str(tmp_path), "--fix-baseline"]) == 0
        baseline = load_baseline(tmp_path / "lint-baseline.json")
        assert {e.code for e in baseline.entries.values()} == {"DET002"}
        rules = [r for r in default_rules() if not isinstance(r, WallClockRead)]
        report = lint_paths(["src"], root=tmp_path, rules=rules)
        stale = baseline.stale_fingerprints(report.findings, set(report.files))
        assert len(stale) == len(baseline.entries) == 2

    def test_fixed_line_exits_one_and_names_the_entry(self, tmp_path, capsys):
        pkg, args = self._baselined_tree(tmp_path)
        baseline = load_baseline(tmp_path / "lint-baseline.json")
        [fixed] = [
            e for e in baseline.entries.values() if e.path == "src/repro/a.py"
        ]
        (pkg / "a.py").write_text("def f(scv):\n    return scv > 1.0\n")
        capsys.readouterr()
        assert main(args) == 1
        out = capsys.readouterr().out
        assert fixed.fingerprint in out
        assert "DET004" in out and "src/repro/a.py" in out
        assert "1 stale baseline" in out
        # the JSON summary counts it and the exit code is format-independent
        assert main(args + ["--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["stale_baseline_entries"] == 1
        assert payload["findings"] == []
        # --fix-baseline is the way to drop it
        assert main(args + ["--fix-baseline"]) == 0
        assert main(args) == 0

    def test_entry_for_unlinted_path_is_not_stale(self, tmp_path, capsys):
        pkg, args = self._baselined_tree(tmp_path)
        # b.py's entry is neither matched nor stale when only a.py is linted
        assert main(["lint", "src/repro/a.py", "--root", str(tmp_path)]) == 0
        (pkg / "b.py").write_text("def g(load):\n    return load\n")
        assert main(["lint", "src/repro/a.py", "--root", str(tmp_path)]) == 0
        assert main(args) == 1


class TestShippedTree:
    def test_repo_src_lints_clean_with_committed_baseline(self, capsys):
        code = main(["lint", "src", "--root", str(REPO_ROOT)])
        assert code == 0, capsys.readouterr().out

    def test_fixture_corpus_excluded_from_discovery(self):
        report = lint_paths(["tests"], root=REPO_ROOT)
        assert all("fixtures/lint" not in f.path for f in report.findings)
