"""SARIF v2.1.0 reporter: the code-scanning upload format."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis.engine import analyze_paths
from repro.analysis.reporters import SARIF_SCHEMA, render_sarif

_VIOLATION = """\
import numpy as np
np.random.seed(1234)
x = np.random.rand(3)  # repro: noqa RPD001 -- fixture exercising suppression
"""


@pytest.fixture()
def report(tmp_path):
    mod = tmp_path / "src" / "repro" / "core" / "fixture_mod.py"
    mod.parent.mkdir(parents=True)
    mod.write_text(textwrap.dedent(_VIOLATION), encoding="utf-8")
    return analyze_paths([tmp_path / "src"])


def test_document_envelope(report):
    doc = json.loads(render_sarif(report))
    assert doc["$schema"] == SARIF_SCHEMA
    assert doc["version"] == "2.1.0"
    assert len(doc["runs"]) == 1


def test_driver_carries_the_rule_catalog(report):
    driver = json.loads(render_sarif(report))["runs"][0]["tool"]["driver"]
    assert driver["name"] == "repro.analysis"
    ids = [r["id"] for r in driver["rules"]]
    assert ids == sorted(ids)
    assert {"RPD001", "RPX001", "RPX002", "RPX003", "RPX004"} <= set(ids)
    for rule in driver["rules"]:
        assert rule["shortDescription"]["text"]
        assert rule["fullDescription"]["text"]


def test_results_carry_locations_and_rule_index(report):
    doc = json.loads(render_sarif(report))
    driver = doc["runs"][0]["tool"]["driver"]
    results = doc["runs"][0]["results"]
    assert len(results) == len(report.findings)
    for result in results:
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("fixture_mod.py")
        assert location["region"]["startLine"] >= 1
        assert location["region"]["startColumn"] >= 1
        assert driver["rules"][result["ruleIndex"]]["id"] == result["ruleId"]


def test_suppressed_findings_become_notes_with_justification(report):
    results = json.loads(render_sarif(report))["runs"][0]["results"]
    suppressed = [r for r in results if "suppressions" in r]
    assert len(suppressed) == 1
    entry = suppressed[0]["suppressions"][0]
    assert suppressed[0]["level"] == "note"
    assert entry["kind"] == "inSource"
    assert entry["justification"] == "fixture exercising suppression"
    unsuppressed = [r for r in results if "suppressions" not in r]
    assert all(r["level"] == "error" for r in unsuppressed)


def test_sarif_is_deterministic(report):
    assert render_sarif(report) == render_sarif(report)
