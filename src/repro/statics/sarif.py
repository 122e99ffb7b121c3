"""SARIF 2.1.0 emitter for harmonylint findings.

`SARIF <https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html>`_
is the interchange format GitHub code scanning (and most IDE problem
panes) ingest.  One run object carries the full rule catalog (so viewers
can show the rationale for each code) and one ``result`` per finding.

Two harmonylint-specific mappings:

- the baseline fingerprint travels in ``partialFingerprints`` under the
  key ``harmonylint/v1``, so code-scanning dedup follows the same
  line-number-independent identity as ``lint-baseline.json``;
- interprocedural findings (FLOW001/ORD001) publish their
  source→sink call path both in the message and as a ``codeFlow`` whose
  thread-flow locations name each step's function label.
"""

from __future__ import annotations

from repro.statics.findings import Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
FINGERPRINT_KEY = "harmonylint/v1"


def _rule_descriptor(rule) -> dict:
    descriptor = {
        "id": rule.code,
        "name": rule.name,
        "shortDescription": {"text": rule.summary or rule.name},
        "defaultConfiguration": {
            "level": "error" if rule.severity == "error" else "warning",
        },
        "properties": {"scope": "project" if rule.project else "file"},
    }
    if rule.rationale:
        descriptor["fullDescription"] = {"text": rule.rationale}
    return descriptor


def _location(finding: Finding) -> dict:
    return {
        "physicalLocation": {
            "artifactLocation": {
                "uri": finding.path,
                "uriBaseId": "SRCROOT",
            },
            "region": {
                "startLine": finding.line,
                "startColumn": finding.column + 1,
                "snippet": {"text": finding.source_line},
            },
        }
    }


def _code_flow(finding: Finding) -> dict:
    """The call path of an interprocedural finding as one thread flow.

    Only the first step has a precise location (the source site itself);
    later steps are named by function label — SARIF requires a location
    object per step, so they reuse the finding's artifact with the
    step label in the location message.
    """
    steps = []
    for index, label in enumerate(finding.trace):
        location = _location(finding) if index == 0 else {
            "physicalLocation": {
                "artifactLocation": {
                    "uri": finding.path,
                    "uriBaseId": "SRCROOT",
                }
            }
        }
        location = dict(location)
        location["message"] = {"text": label}
        steps.append({"location": location})
    return {"threadFlows": [{"locations": steps}]}


def _result(finding: Finding) -> dict:
    result = {
        "ruleId": finding.code,
        "level": "error" if finding.severity == "error" else "warning",
        "message": {"text": finding.message},
        "locations": [_location(finding)],
        "partialFingerprints": {FINGERPRINT_KEY: finding.fingerprint},
    }
    if finding.trace:
        result["codeFlows"] = [_code_flow(finding)]
    return result


def to_sarif(findings: list[Finding], *, root_uri: str | None = None) -> dict:
    """Render findings as a single-run SARIF 2.1.0 log object."""
    from repro.statics.rules import ALL_RULES

    run = {
        "tool": {
            "driver": {
                "name": "harmonylint",
                "informationUri": "docs/static-analysis.md",
                "rules": [
                    _rule_descriptor(rule_cls())
                    for rule_cls in ALL_RULES
                ],
            }
        },
        "columnKind": "unicodeCodePoints",
        "results": [_result(finding) for finding in findings],
    }
    if root_uri is not None:
        run["originalUriBaseIds"] = {"SRCROOT": {"uri": root_uri}}
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [run],
    }


__all__ = ["FINGERPRINT_KEY", "SARIF_SCHEMA", "SARIF_VERSION", "to_sarif"]
