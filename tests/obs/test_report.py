"""Tests for trace loading, schema validation and the summary renderers."""

import json

import pytest

from repro.obs import (EVENT_TYPES, InMemorySink, Tracer, load_trace,
                       render_aggregate, render_summary, summarize,
                       validate_record, validate_trace)
from repro.obs.events import TRACE_SCHEMA_VERSION


def fixed_clock():
    t = [0.0]

    def clock():
        t[0] += 1.0
        return t[0]

    return clock


def sample_records():
    """A small but representative trace, built through the real tracer."""
    sink = InMemorySink()
    tracer = Tracer(sink, clock=fixed_clock(),
                    meta={"tuner": "ROBOTune", "seed": 1})
    with tracer.span("tune", budget=4):
        tracer.emit("eval.result", {"i": 0, "objective": 12.0,
                                    "status": "success"})
        tracer.emit("eval.result", {"i": 1, "objective": 8.0,
                                    "status": "timeout"})
        tracer.emit("hedge.probs", {"probs": [0.5, 0.5],
                                    "names": ["EI", "LCB"]})
        tracer.emit("hedge.probs", {"probs": [0.7, 0.3],
                                    "names": ["EI", "LCB"]})
        tracer.emit("gp.fit", {"n": 2})
        tracer.emit("guard.kill", {"i": 1})
        tracer.emit("memo.hit", {"store": "selection_cache"})
        tracer.emit("memo.store", {"store": "config_buffer"})
        tracer.emit("fault.injected", {"index": 1})
        tracer.emit("retry.attempt", {"index": 1})
        tracer.emit("bo.iteration", {"iteration": 0, "fallback": True})
        tracer.emit("importance.sweep", {"groups": 4, "entries": 50,
                                         "retraversed": 30})
    tracer.count("evals", 2)
    tracer.close()
    return sink.records


class TestValidation:
    def test_sample_trace_is_valid(self):
        assert validate_trace(sample_records()) == []

    def test_empty_trace_is_invalid(self):
        assert validate_trace([]) == ["empty trace"]

    def test_meta_must_come_first(self):
        records = sample_records()
        problems = validate_trace(records[1:])
        assert any("must start with a meta record" in p for p in problems)

    def test_schema_mismatch_is_reported(self):
        records = sample_records()
        records[0] = dict(records[0], schema=TRACE_SCHEMA_VERSION + 1)
        assert any("schema" in p for p in validate_trace(records))

    def test_unknown_event_type_is_reported(self):
        record = {"kind": "event", "id": 0, "t": 0.0, "span": None,
                  "type": "no.such.event", "data": {}}
        assert any("unknown event type" in p for p in validate_record(record))

    def test_unknown_kind_is_reported(self):
        assert validate_record({"kind": "bogus"}) \
            == ["unknown record kind: 'bogus'"]

    def test_non_increasing_ids_are_reported(self):
        records = sample_records()
        events = [r for r in records if r["kind"] == "event"]
        events[2]["id"] = events[1]["id"]
        assert any("not increasing" in p for p in validate_trace(records))

    def test_dangling_span_reference_is_reported(self):
        records = sample_records()
        events = [r for r in records if r["kind"] == "event"]
        events[-1]["span"] = 10_000
        assert any("never started" in p for p in validate_trace(records))

    def test_catalog_entries_are_documented(self):
        assert all(isinstance(doc, str) and doc
                   for doc in EVENT_TYPES.values())


class TestLoadTrace:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        records = sample_records()
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert load_trace(path) == records

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "t.jsonl"
        records = sample_records()
        text = "".join(json.dumps(r) + "\n" for r in records)
        path.write_text(text + '{"kind": "event", "id":')
        assert load_trace(path) == records

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path / "nope.jsonl")


class TestSummarize:
    def test_folds_every_counted_family(self):
        s = summarize(sample_records())
        assert s.tuner == "ROBOTune"
        assert s.evals == 2
        assert s.eval_failures == 1
        assert s.best_objective == 12.0     # the timeout result is censored
        assert s.guard_kills == 1
        assert s.memo_hits == 1 and s.memo_stores == 1
        assert s.faults_injected == 1 and s.retries == 1
        assert s.gp_fits == 1
        assert s.fallbacks == 1
        assert s.importance_sweeps == 1
        assert s.importance_pairs == 200
        assert s.importance_retraversed == 30
        assert s.acquisition_names == ["EI", "LCB"]
        assert s.hedge_trajectory == [[0.5, 0.5], [0.7, 0.3]]
        assert s.span_times["tune"][1] == 1
        assert s.counters == {"evals": 2}

    def test_render_summary_mentions_the_headline_numbers(self):
        text = render_summary(summarize(sample_records()))
        assert "tuner=ROBOTune" in text
        assert "evaluations: 2 (1 failed)" in text
        assert "1 guard kills" in text
        assert "1 faults injected, 1 retries" in text
        assert "30 of 200 (group, OOB entry) pairs walked again " \
            "(85.0% reused)" in text
        assert "hedge probabilities" in text
        assert "EI" in text and "LCB" in text
        assert "tune" in text   # time-by-component section

    def test_render_aggregate_groups_by_tuner(self):
        a = summarize(sample_records())
        b = summarize(sample_records())
        b.meta["tuner"] = "RandomSearch"
        text = render_aggregate([a, b, a])
        lines = text.splitlines()
        assert "ROBOTune" in text and "RandomSearch" in text
        robo = next(line for line in lines if line.startswith("ROBOTune"))
        assert " 2 " in robo        # two ROBOTune sessions
        assert render_aggregate([]) == "no traces"
