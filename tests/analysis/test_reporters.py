"""Text/JSON reporter contracts (the JSON schema is pinned: CI consumes it)."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis.engine import analyze_paths
from repro.analysis.reporters import (JSON_FORMAT_VERSION, render_json,
                                      render_text)

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


def test_json_schema(report):
    doc = json.loads(render_json(report))
    assert set(doc) == {"version", "files_scanned", "rules", "summary",
                        "findings"}
    assert doc["version"] == JSON_FORMAT_VERSION
    assert doc["files_scanned"] == 1
    assert len(doc["rules"]) >= 10
    assert doc["summary"] == {"total": 2, "suppressed": 1, "unsuppressed": 1,
                              "active": 1}
    for finding in doc["findings"]:
        assert set(finding) == {"rule", "path", "line", "col", "message",
                                "suppressed", "justification"}
        assert isinstance(finding["line"], int) and finding["line"] >= 1
        assert isinstance(finding["col"], int) and finding["col"] >= 1
    unsuppressed = [f for f in doc["findings"] if not f["suppressed"]]
    assert unsuppressed[0]["rule"] == "RPD001"
    assert unsuppressed[0]["line"] == 2
    suppressed = [f for f in doc["findings"] if f["suppressed"]]
    assert suppressed[0]["justification"] == \
        "fixture exercising suppression"


def test_json_is_deterministic(report):
    assert render_json(report) == render_json(report)


def test_text_output(report):
    text = render_text(report)
    assert "RPD001" in text
    assert ":2:1:" in text
    # Suppressed findings are hidden by default...
    assert "fixture exercising suppression" not in text
    assert text.endswith("1 finding (1 suppressed)")
    # ...and shown on demand with their justification.
    verbose = render_text(report, show_suppressed=True)
    assert "fixture exercising suppression" in verbose


def test_exit_code_tracks_unsuppressed(report):
    assert report.exit_code == 1
