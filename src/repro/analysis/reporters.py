"""Text, JSON, and SARIF renderings of an :class:`AnalysisReport`.

The JSON document is versioned and schema-stable (tests pin it): CI and
tooling consume it, so fields are never renamed.  The
SARIF document follows the 2.1.0 schema so code-scanning UIs (GitHub,
VS Code SARIF viewers) can ingest the same run CI gates on.
"""

from __future__ import annotations

import json

from .engine import AnalysisReport
from .findings import Finding
from .registry import rule_catalog

JSON_FORMAT_VERSION = 1

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://json.schemastore.org/sarif-2.1.0.json")


def _finding_dict(finding: Finding) -> dict[str, object]:
    return {
        "rule": finding.rule,
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "message": finding.message,
        "suppressed": finding.suppressed,
        "justification": finding.justification,
    }


def render_json(report: AnalysisReport) -> str:
    document = {
        "version": JSON_FORMAT_VERSION,
        "files_scanned": report.files_scanned,
        "rules": list(report.rule_ids),
        "summary": {
            "total": len(report.findings),
            "suppressed": len(report.suppressed),
            "unsuppressed": len(report.unsuppressed),
            "active": len(report.active),
        },
        "findings": [_finding_dict(f) for f in report.findings],
    }
    return json.dumps(document, indent=2, sort_keys=True)


def render_text(report: AnalysisReport, *,
                show_suppressed: bool = False) -> str:
    lines: list[str] = []
    for finding in report.findings:
        if finding.suppressed and not show_suppressed:
            continue
        marker = (f" (suppressed: {finding.justification})"
                  if finding.suppressed else "")
        lines.append(f"{finding.location()}: {finding.rule} "
                     f"{finding.message}{marker}")
    n_bad = len(report.active)
    lines.append(f"{report.files_scanned} files scanned, "
                 f"{len(report.rule_ids)} rules, "
                 f"{n_bad} finding{'s' if n_bad != 1 else ''} "
                 f"({len(report.suppressed)} suppressed)")
    return "\n".join(lines)


def _sarif_result(finding: Finding,
                  rule_index: dict[str, int]) -> dict[str, object]:
    result: dict[str, object] = {
        "ruleId": finding.rule,
        "level": "note" if finding.suppressed else "error",
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": finding.path.replace("\\", "/")},
                "region": {"startLine": finding.line,
                           "startColumn": finding.col},
            },
        }],
    }
    index = rule_index.get(finding.rule)
    if index is not None:
        result["ruleIndex"] = index
    if finding.suppressed:
        entry: dict[str, object] = {"kind": "inSource"}
        if finding.justification:
            entry["justification"] = finding.justification
        result["suppressions"] = [entry]
    return result


def render_sarif(report: AnalysisReport) -> str:
    """SARIF v2.1.0 document for code-scanning consumers."""
    catalog = rule_catalog()
    rule_index = {rule_id: n for n, (rule_id, _, _) in enumerate(catalog)}
    driver = {
        "name": "repro.analysis",
        "informationUri": "docs/ANALYSIS.md",
        "rules": [{
            "id": rule_id,
            "shortDescription": {"text": title},
            "fullDescription": {"text": rationale},
        } for rule_id, title, rationale in catalog],
    }
    document = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {"driver": driver},
            "results": [_sarif_result(f, rule_index)
                        for f in report.findings],
        }],
    }
    return json.dumps(document, indent=2, sort_keys=True)
