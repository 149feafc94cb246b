"""Golden-trace determinism (the observability contract).

Two runs with the same seed must produce *identical* event sequences —
same ids, order and payloads — once the timing envelope (``t``, span
``dur``, the timers registry) is stripped: every other payload field is a
pure function of the tuner's decision sequence.  And tracing must be
purely observational: a traced run's evaluations must be bit-identical
to an untraced run of the same seed.
"""

import hashlib

import numpy as np
import pytest

from repro.core.selection import ParameterSelector
from repro.core.tuner import ROBOTune
from repro.obs import InMemorySink, Tracer, validate_trace
from repro.tuners.bestconfig import BestConfig
from repro.tuners.gunther import Gunther
from repro.tuners.random_search import RandomSearch
from repro.tuners.synthetic import SyntheticObjective, synthetic_space


def make_tuner(name: str):
    """Fresh tuner + seed; fresh so ROBOTune's stores never carry over."""
    if name == "ROBOTune":
        return ROBOTune(selector=ParameterSelector(n_samples=12, n_trees=25,
                                                   n_repeats=3, rng=7),
                        init_samples=6, rng=0), 0
    if name == "BestConfig":
        return BestConfig(round_size=10), 1
    if name == "Gunther":
        return Gunther(population=8), 2
    return RandomSearch(), 3


def run(name: str, budget: int = 25, traced: bool = True):
    tuner, seed = make_tuner(name)
    objective = SyntheticObjective(synthetic_space(6), n_effective=2,
                                   name="golden", rng=seed + 1)
    sink = tracer = None
    if traced:
        sink = InMemorySink()
        tracer = Tracer(sink, meta={"tuner": name, "seed": seed})
    result = tuner.tune(objective, budget, rng=seed, tracer=tracer)
    if tracer is not None:
        tracer.close()
    return result, sink


def normalized(records):
    """The trace minus its timing envelope (t, dur, timer seconds)."""
    out = []
    for r in records:
        if r["kind"] == "meta":
            out.append(("meta", tuple(sorted(r.items()))))
        elif r["kind"] == "event":
            data = {k: v for k, v in r["data"].items() if k != "dur"}
            out.append((r["id"], r["span"], r["type"], repr(sorted(
                data.items(), key=lambda kv: kv[0]))))
        else:
            counters = tuple(sorted(r["counters"].items()))
            timer_counts = tuple(sorted(
                (name, t["count"]) for name, t in r["timers"].items()))
            out.append(("metrics", counters, timer_counts))
    return out


def digest(result) -> str:
    h = hashlib.sha256()
    for e in result.evaluations:
        h.update(np.ascontiguousarray(
            np.asarray(e.vector, dtype=float)).tobytes())
        h.update(np.float64(e.objective).tobytes())
    return h.hexdigest()


TUNERS = ["ROBOTune", "BestConfig", "Gunther", "RandomSearch"]


@pytest.mark.parametrize("name", TUNERS)
def test_same_seed_runs_emit_identical_event_sequences(name):
    _, sink_a = run(name)
    _, sink_b = run(name)
    assert validate_trace(sink_a.records) == []
    assert normalized(sink_a.records) == normalized(sink_b.records)


@pytest.mark.parametrize("name", TUNERS)
def test_tracing_never_changes_the_decisions(name):
    traced, _ = run(name, traced=True)
    untraced, _ = run(name, traced=False)
    assert digest(traced) == digest(untraced)


def test_timing_fields_do_vary_between_runs():
    """Sanity check on the normalization itself: raw traces differ (wall
    time is real), so equality above is meaningful only post-strip."""
    _, sink_a = run("RandomSearch")
    _, sink_b = run("RandomSearch")
    t_a = [r["t"] for r in sink_a.records if r.get("kind") == "event"]
    t_b = [r["t"] for r in sink_b.records if r.get("kind") == "event"]
    assert t_a != t_b


def test_bo_layers_and_forest_growth_are_traced():
    """The BO layer timers accumulate and ``forest.fit`` reports its
    lockstep growth, without adding events."""
    _, sink = run("ROBOTune")
    metrics = sink.records[-1]
    for name in ("bo.acq_sweep", "bo.refine", "bo.hedge", "bo.evaluate"):
        assert metrics["timers"][name]["count"] > 0
    fits = [r["data"] for r in sink.records
            if r.get("kind") == "event" and r["type"] == "forest.fit"]
    assert fits
    for data in fits:
        assert 0 < data["steps"] < data["nodes"]
