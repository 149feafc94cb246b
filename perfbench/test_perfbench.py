"""Self-tests for the benchmark's own wrappers and checks.

Run from the repository root (about a minute)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

from perfbench import workloads as wk  # noqa: E402
from perfbench.layers import LayerProbe, quantile_tail  # noqa: E402
from repro.ml.forest import RandomForestRegressor  # noqa: E402
from repro.tuners.objective import WorkloadObjective  # noqa: E402


@pytest.fixture(scope="module")
def checker():
    return wk.Checker(wk.load_reference())


def _slot(workload, app="kmeans", dataset=None, seed=0):
    ds = dataset or ("D2" if workload in ("retune", "batch4") else "D1")
    return wk.Slot(workload, app, ds, seed)


def test_traced_digests_equal_untraced(tmp_path, checker):
    store = wk.StoreFixture(tmp_path)
    for slot in (_slot("served", "terasort"), _slot("retune", "pagerank")):
        uses_store = slot.workload == "retune"
        plain, _ = wk.execute(slot, store.fresh_copy() if uses_store else None)
        with LayerProbe() as probe:
            traced, _ = wk.execute(slot,
                                   store.fresh_copy() if uses_store else None)
        assert probe.calls["tune"] == 1
        assert wk.session_digest(traced) == wk.session_digest(plain) \
            == checker.reference[slot.key]["digest"]


def test_probe_restores_every_patched_name():
    fsync, call = os.fsync, WorkloadObjective.__call__
    with LayerProbe():
        assert os.fsync is not fsync
        assert "fit" in vars(RandomForestRegressor)
    assert os.fsync is fsync
    assert WorkloadObjective.__call__ is call
    assert "fit" not in vars(RandomForestRegressor)


def test_batch4_takes_evaluate_batch(tmp_path, checker):
    store = wk.StoreFixture(tmp_path)
    with LayerProbe() as probe:
        outcome = wk.run_inprocess(_slot("batch4"), checker, store)
    # run_inprocess fails the session on a batch.serial_fallback warning.
    assert outcome.ok, outcome.error
    assert probe.calls["sparksim.run_batch"] > 0
    assert probe.calls["eval.batch"] > 0


def test_every_retune_session_hits_the_selection_cache(tmp_path, checker):
    store = wk.StoreFixture(tmp_path)
    pool = [choices[0] for choices in wk.slots("retune")]
    with LayerProbe() as probe:
        outcomes = [wk.run_inprocess(slot, checker, store) for slot in pool]
    assert all(o.ok for o in outcomes), [o.error for o in outcomes]
    assert probe.extra["memo.selection_hits"] == len(pool)
    assert probe.extra.get("memo.selection_misses", 0) == 0
    assert probe.extra["memo.configs_used"] == 4 * len(pool)


def test_retune_stores_are_not_mutated_between_sessions(tmp_path, checker):
    store = wk.StoreFixture(tmp_path)
    pristine = {name: (wk.STORE_FIXTURE / name).read_bytes()
                for name in wk.STORE_FILES}
    for slot in (_slot("retune", dataset="D2"), _slot("retune", dataset="D3")):
        copy = store.fresh_copy()
        assert all((copy / n).read_bytes() == pristine[n] for n in pristine)
        wk.execute(slot, copy)
        # The session wrote its best configurations back to its own copy.
        assert (copy / "memo_buffer.json").read_bytes() \
            != pristine["memo_buffer.json"]
        assert store.unchanged()


def test_every_served_session_settles_done(tmp_path, checker):
    harness = wk.ServedHarness(tmp_path)
    try:
        status: list[float] = []
        first_round = next(wk.schedule("served", 0))
        outcomes = harness.run(first_round[:3], checker, status_ms=status)
    finally:
        harness.close()
    assert not harness.thread.is_alive()
    # ok means DONE with the in-process reference digest of the same spec.
    assert len(outcomes) == 3 and all(o.ok for o in outcomes), \
        [o.error for o in outcomes]
    assert status


def test_checker_rejects_a_wrong_digest(checker):
    slot = _slot("served")
    ref = checker.reference[slot.key]
    assert checker.check(slot, 16, ref["best_s"], {}, ref["digest"])
    config = {"spark.executor.cores": 2}
    assert checker.check(slot, 16, ref["best_s"], config, "0" * 64)
    assert checker.check(slot, 15, ref["best_s"], config, ref["digest"])


def test_schedule_is_a_function_of_the_seed():
    def take(seed):
        rounds = wk.schedule("retune", seed)
        return [[s.key for s in next(rounds)] for _ in range(3)]

    assert take(3) == take(3) != take(4)
    for keys in take(3):  # every round covers each (app, dataset) once
        assert len({k.rsplit(":", 1)[0] for k in keys}) == len(keys) == 10


def test_quantile_tail_keeps_ten_samples_beyond():
    assert quantile_tail(list(range(5))) == (2, 50.0)
    value, pct = quantile_tail([float(i) for i in range(40)])
    assert value == 29.0 and sum(v > value for v in range(40)) == 10
    assert pct == 75.0
