"""Bit-for-bit parity of the packed forest with a per-tree reference loop.

The packed node table walks every (tree, row) pair in one vectorized pass
and re-walks, per permuted group, only the OOB entries whose path splits
on a column of the group.  Every comparison here is exact
(``assert_array_equal``): the reference adds each tree's
``DecisionTreeRegressor.predict`` in tree order, the way the forest did
before packing.
"""

import numpy as np
import pytest

from repro.ml import (ExtraTreesRegressor, RandomForestRegressor,
                      grouped_permutation_importance)
import repro.ml.forest as forest_mod
from repro.ml.importance import _permuted_oob_scores_batched
from repro.ml.metrics import r2_score
from repro.obs import InMemorySink, Tracer


# -- per-tree reference ------------------------------------------------------------
def ref_predict(forest, X):
    out = np.zeros(X.shape[0])
    for tree in forest.trees_:
        out += tree.predict(X)
    return out / len(forest.trees_)


def ref_oob_prediction(forest, X):
    total = np.zeros(X.shape[0])
    count = np.zeros(X.shape[0], dtype=np.int64)
    for t, tree in enumerate(forest.trees_):
        mask = forest.oob_mask_[t]
        if not np.any(mask):
            continue
        total[mask] += tree.predict(X[mask])
        count[mask] += 1
    with np.errstate(invalid="ignore"):
        pred = total / count
    pred[count == 0] = np.nan
    return pred


def ref_oob_score(forest, X):
    pred = ref_oob_prediction(forest, X)
    ok = ~np.isnan(pred)
    return r2_score(forest._y_train[ok], pred[ok])


def forest_oob_everywhere(forest):
    return bool(forest.oob_mask_.any(axis=0).all())


def ref_permuted_scores(forest, cols, perms):
    X = forest._X_train
    scores = []
    for perm in perms:
        Xp = X.copy()
        Xp[:, cols] = X[np.ix_(perm, cols)]
        scores.append(ref_oob_score(forest, Xp))
    return np.array(scores)


# -- problems ----------------------------------------------------------------------
def make_data(n=80, d=6, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    y = 4 * X[:, 0] + 2 * X[:, 1] * X[:, 2] - X[:, 3] \
        + rng.normal(0, 0.05, n)
    return X, y


def perms_for(n, k=5, seed=3):
    rng = np.random.default_rng(seed)
    return np.stack([rng.permutation(n) for _ in range(k)])


CASES = {
    "rf": lambda: RandomForestRegressor(30, rng=1).fit(*make_data()),
    "extra-trees": lambda: ExtraTreesRegressor(30, rng=2).fit(*make_data()),
    "stumps": lambda: RandomForestRegressor(
        25, max_depth=1, rng=3).fit(*make_data()),
    "d70": lambda: RandomForestRegressor(
        20, max_features=0.5, rng=4).fit(*make_data(n=60, d=70)),
    "constant-y": lambda: RandomForestRegressor(12, rng=5).fit(
        make_data()[0], np.full(80, 2.5)),
}


def assert_all_paths_match(forest):
    X = forest._X_train
    rng = np.random.default_rng(9)
    fresh = rng.random((33, X.shape[1]))
    np.testing.assert_array_equal(forest.predict(fresh),
                                  ref_predict(forest, fresh))
    np.testing.assert_array_equal(forest.predict(X), ref_predict(forest, X))
    np.testing.assert_array_equal(forest.oob_prediction(),
                                  ref_oob_prediction(forest, X))
    Xp = X[::-1].copy()
    np.testing.assert_array_equal(forest.oob_prediction(Xp),
                                  ref_oob_prediction(forest, Xp))
    assert forest.oob_score() == ref_oob_score(forest, X)


@pytest.mark.parametrize("case", sorted(CASES))
class TestPackedParity:
    def test_predict_and_oob_match_reference(self, case):
        assert_all_paths_match(CASES[case]())

    @pytest.mark.parametrize("cols", [(0,), (1, 2), (0, 1, 2, 3, 4, 5)])
    def test_permuted_scores_match_reference(self, case, cols):
        forest = CASES[case]()
        perms = perms_for(forest._X_train.shape[0])
        np.testing.assert_array_equal(
            _permuted_oob_scores_batched(forest, cols, perms),
            ref_permuted_scores(forest, cols, perms))


class TestEdgeCases:
    def test_constant_y_trees_are_single_leaves(self):
        forest = CASES["constant-y"]()
        assert all(tree.node_count == 1 for tree in forest.trees_)
        assert forest._oob_touching((0, 1, 2)).size == 0

    def test_stumps_split_once(self):
        forest = CASES["stumps"]()
        assert {tree.depth for tree in forest.trees_} == {1}

    def test_wide_matrix_uses_columns_past_64(self):
        forest = CASES["d70"]()
        high = tuple(range(64, 70))
        assert forest._oob_touching(high).size > 0
        perms = perms_for(forest._X_train.shape[0])
        np.testing.assert_array_equal(
            _permuted_oob_scores_batched(forest, high, perms),
            ref_permuted_scores(forest, high, perms))

    def test_row_in_bag_for_every_tree_stays_nan(self):
        X, y = make_data(n=30)
        # The first seed whose 3-tree forest leaves some row without any
        # OOB tree; deterministic, and asserted so the case cannot vanish.
        forest = next(f for f in (RandomForestRegressor(3, rng=s).fit(X, y)
                                  for s in range(50))
                      if not forest_oob_everywhere(f))
        pred = forest.oob_prediction()
        assert np.isnan(pred).any() and not np.isnan(pred).all()
        assert_all_paths_match(forest)
        perms = perms_for(30)
        for cols in [(0,), (1, 2, 3)]:
            np.testing.assert_array_equal(
                _permuted_oob_scores_batched(forest, cols, perms),
                ref_permuted_scores(forest, cols, perms))

    def test_group_no_tree_splits_on_scores_the_baseline(self):
        X, y = make_data()
        X[:, 5] = 0.5                 # constant: never a split candidate
        forest = RandomForestRegressor(30, rng=6).fit(X, y)
        assert forest._oob_touching((5,)).size == 0
        perms = perms_for(X.shape[0], k=4)
        scores = _permuted_oob_scores_batched(forest, (5,), perms)
        np.testing.assert_array_equal(scores,
                                      np.full(4, forest.oob_score()))
        np.testing.assert_array_equal(scores,
                                      ref_permuted_scores(forest, (5,), perms))

    def test_baseline_cache_is_not_exposed_to_mutation(self):
        forest = CASES["rf"]()
        forest.oob_prediction()[:] = 0.0
        np.testing.assert_array_equal(
            forest.oob_prediction(),
            ref_oob_prediction(forest, forest._X_train))

    def test_refit_rebuilds_the_packed_table(self):
        X, y = make_data()
        forest = RandomForestRegressor(10, rng=7).fit(X, y)
        forest.oob_score()
        X2, y2 = make_data(n=50, seed=8)
        forest.fit(X2, y2)
        assert_all_paths_match(forest)

    def test_large_predict_is_walked_in_blocks(self):
        forest = CASES["rf"]()
        X = np.random.default_rng(10).random((3000, 6))  # > one block
        np.testing.assert_array_equal(forest.predict(X),
                                      ref_predict(forest, X))

    def test_repeats_are_walked_in_blocks(self, monkeypatch):
        forest = CASES["rf"]()
        perms = perms_for(forest._X_train.shape[0], k=7)
        whole = _permuted_oob_scores_batched(forest, (1, 2), perms)
        # A block bound below one repeat's entries: one repeat per walk.
        monkeypatch.setattr(forest_mod, "_MAX_ENTRIES", 8)
        np.testing.assert_array_equal(
            _permuted_oob_scores_batched(forest, (1, 2), perms), whole)
        np.testing.assert_array_equal(
            whole, ref_permuted_scores(forest, (1, 2), perms))


class TestSweepEvent:
    def test_sweep_reports_reused_entries(self):
        forest = CASES["rf"]()
        groups = {"a": [0], "bc": [1, 2], "rest": [3, 4, 5]}
        sink = InMemorySink()
        tracer = Tracer(sink)
        grouped_permutation_importance(forest, groups, n_repeats=3, rng=1,
                                       tracer=tracer)
        tracer.close()
        sweeps = [r["data"] for r in sink.records
                  if r.get("type") == "importance.sweep"]
        entries = int(forest.oob_mask_.sum())
        touched = sum(forest._oob_touching(tuple(c)).size
                      for c in groups.values())
        assert sweeps == [{"groups": 3, "entries": entries,
                           "retraversed": touched}]
        assert 0 < touched < 3 * entries

    def test_reference_loop_walks_every_entry(self):
        forest = CASES["rf"]()
        sink = InMemorySink()
        tracer = Tracer(sink)
        grouped_permutation_importance(forest, {"a": [0], "b": [1]},
                                       n_repeats=2, rng=1, batched=False,
                                       tracer=tracer)
        tracer.close()
        (sweep,) = [r["data"] for r in sink.records
                    if r.get("type") == "importance.sweep"]
        assert sweep["retraversed"] == 2 * sweep["entries"]
