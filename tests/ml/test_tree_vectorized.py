"""Parity of the batched CART kernels with their scalar references.

:func:`repro.ml.tree._split_search` scores a batch of nodes at once and
:func:`repro.ml.tree._mean_sse` replays NumPy's summation order for a
batch of rows; both must agree bit for bit with the per-node NumPy code
they replace (``_best_threshold``, ``ndarray.mean``, ``np.add.reduce``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import RandomForestRegressor
from repro.ml.tree import (DecisionTreeRegressor, _best_threshold,
                           _mean_sse, _pad_rows, _pairwise_sums,
                           _split_search)


def random_dataset(rng, n, d):
    """Mix of continuous, discrete, tied, and constant columns."""
    X = rng.random((n, d))
    if d > 1:
        X[:, 1] = rng.integers(0, 3, n)          # heavy ties
    if d > 2:
        X[:, 2] = 0.5                            # constant
    if d > 3:
        X[:, 3] = np.round(X[:, 3], 1)           # coarse grid
    y = X[:, 0] * 3 + rng.normal(0, 0.2, n)
    return X, y


def node_batch(rng, n_rows, sizes):
    """Row lists of the given sizes (bootstrap-style, duplicates allowed),
    padded as the grower pads them."""
    row_lists = [rng.integers(0, n_rows, size) for size in sizes]
    n = np.array(sizes, dtype=np.intp)
    return row_lists, n, _pad_rows(row_lists, n)


def base_sse(y):
    return float(np.sum((y - y.mean()) ** 2))


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


# -- exact batched sums -----------------------------------------------------------
# Up to 1e150, so that squared deviations stay finite.
_magnitudes = st.sampled_from([1e-300, 1e-12, 1e-3, 1.0, 7.0, 1e6, 1e15,
                               1e150])
_value = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda m, x: m * x, _magnitudes,
              st.floats(-1.0, 1.0, allow_nan=False)),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


class TestBatchedSums:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.lists(_value, min_size=1, max_size=300),
                         min_size=1, max_size=6))
    def test_mean_and_sse_match_numpy_bit_for_bit(self, rows):
        n = np.array([len(r) for r in rows], dtype=np.intp)
        Y = np.zeros((len(rows), n.max()))
        for s, r in enumerate(rows):
            Y[s, :len(r)] = r
            Y[s, len(r):] = r[0]
        mean, sse = _mean_sse(Y, n)
        sums = _pairwise_sums(Y, n)
        for s, r in enumerate(rows):
            a = np.array(r)
            assert bits(sums[s]) == bits(np.add.reduce(a))
            assert bits(mean[s]) == bits(a.mean())
            assert bits(sse[s]) == bits(np.sum((a - a.mean()) ** 2))

    @pytest.mark.parametrize("length", [1, 7, 8, 9, 127, 128, 129, 256, 300])
    def test_negative_zero_runs(self, length):
        Y = np.full((1, length), -0.0)
        n = np.array([length])
        assert bits(_pairwise_sums(Y, n)[0]) == bits(np.add.reduce(Y[0]))

    def test_every_length_up_to_300(self):
        rng = np.random.default_rng(3)
        n = np.arange(1, 301)
        Y = rng.normal(size=(300, 300)) * 10.0 ** rng.integers(-6, 7,
                                                               (300, 300))
        got = _pairwise_sums(Y, n)
        for s, length in enumerate(n):
            assert bits(got[s]) == bits(np.add.reduce(Y[s, :length]))


# -- batched split search -----------------------------------------------------------
def reference_split(X, y, rows, perm, k, m):
    """Per-feature loop in permutation order with a strict ``>``
    tie-break: the first ``k`` non-constant features, then further ones
    only until the first valid split (sklearn-compatible)."""
    y_node = y[rows]
    base = base_sse(y_node)
    best_gain, best, tried = 0.0, None, 0
    for f in perm:
        col = X[rows, f]
        if col.min() == col.max():
            continue
        tried += 1
        if tried > k and best is not None:
            break
        res = _best_threshold(col, y_node, base, m)
        if res is not None and res[1] > best_gain:
            best_gain, best = res[1], (int(f), res[0])
            if tried > k:
                break
    return best, best_gain


class TestBatchThresholds:
    @pytest.mark.parametrize("seed", range(8))
    def test_batch_matches_scalar_per_column(self, seed):
        rng = np.random.default_rng(seed)
        X, y = random_dataset(rng, n=80, d=5)
        row_lists, n, R = node_batch(rng, 80, rng.integers(2, 80, 12))
        for j in range(X.shape[1]):
            col = X[:, [j]]
            base = np.array([base_sse(y[rows]) for rows in row_lists])
            feat, thr, gain = _split_search(col, y, R, n,
                                            np.zeros((len(n), 1), np.intp),
                                            base, 1, 1)
            for s, rows in enumerate(row_lists):
                ref = None
                if col[rows, 0].min() != col[rows, 0].max():
                    ref = _best_threshold(col[rows, 0], y[rows], base[s], 1)
                if ref is None:
                    assert feat[s] == -1
                else:
                    assert feat[s] == 0
                    assert thr[s] == ref[0]
                    assert gain[s] == ref[1]

    def test_all_tied_column_has_no_split(self):
        y = np.array([1.0, 2.0, 3.0])
        X = np.ones((3, 1))
        R = np.array([[0, 1, 2]])
        feat, _, _ = _split_search(X, y, R, np.array([3]),
                                   np.array([[0]]), np.array([base_sse(y)]),
                                   1, 1)
        assert feat[0] == -1

class TestWholeTreeParity:
    @pytest.mark.parametrize("splitter", ["best", "random"])
    @pytest.mark.parametrize("seed", range(4))
    def test_fit_is_deterministic(self, splitter, seed):
        rng = np.random.default_rng(seed)
        X, y = random_dataset(rng, 90, 5)
        Xq = np.random.default_rng(seed + 100).random((40, 5))
        a = DecisionTreeRegressor(splitter=splitter, max_features=0.6,
                                  rng=seed).fit(X, y)
        b = DecisionTreeRegressor(splitter=splitter, max_features=0.6,
                                  rng=seed).fit(X, y)
        np.testing.assert_array_equal(a.predict(Xq), b.predict(Xq))

    def test_best_split_equals_bruteforce_loop(self):
        """Each node of a batch picks what a per-feature loop picks."""
        for k in (1, 2, 5):
            for m in (1, 3):
                for trial in range(10):
                    rng = np.random.default_rng(trial)
                    X, y = random_dataset(rng, 60, 5)
                    row_lists, n, R = node_batch(rng, 60,
                                                 rng.integers(2, 60, 15))
                    perms = np.stack([rng.permutation(5) for _ in row_lists])
                    base = np.array([base_sse(y[rows]) for rows in row_lists])
                    feat, thr, gain = _split_search(X, y, R, n, perms, base,
                                                    k, m)
                    for s, rows in enumerate(row_lists):
                        best, best_gain = reference_split(X, y, rows,
                                                          perms[s], k, m)
                        if best is None:
                            assert feat[s] == -1
                        else:
                            assert (int(feat[s]), float(thr[s])) == best
                            assert gain[s] == best_gain

    def test_zero_features_fit_a_single_leaf(self):
        X, y = np.zeros((5, 0)), np.arange(5.0)
        tree = DecisionTreeRegressor(rng=0).fit(X, y)
        assert tree.node_count == 1 and tree._value[0] == 2.0
        forest = RandomForestRegressor(3, rng=0).fit(X, y)
        assert [t.node_count for t in forest.trees_] == [1, 1, 1]
