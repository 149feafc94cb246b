"""Golden digests of fitted CART trees and random forests.

Every digest below was recorded from the per-node CART grower that
predates lockstep forest growth.  Growth may be reorganised for speed,
but it must not move one bit: every tree's ``(feature, threshold, left,
right, value)`` arrays, the MDI ``feature_importances_`` and the OOB mask
all enter the digest.  A changed digest means a changed forest, and so a
changed parameter ranking.

The matrix covers node sizes on both sides of NumPy's 128-element
pairwise-summation block (n = 300 roots), tied, discrete and constant
columns, a censored target with long plateaus of equal values, leaf-size,
depth and feature-subsampling limits, no bootstrap, a lone tree, and
parallel fits on both pool backends.
"""

import hashlib

import numpy as np
import pytest

from repro.ml import DecisionTreeRegressor, RandomForestRegressor


def make_data(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Continuous, tied, discrete and constant columns; plateaued target."""
    rng = np.random.default_rng(seed)
    X = rng.random((n, 9))
    X[:, 1] = rng.integers(0, 3, n)             # heavy ties
    X[:, 2] = 0.5                               # constant
    X[:, 3] = np.round(X[:, 3], 1)              # coarse grid
    X[:, 4] = rng.integers(0, 2, n)             # binary
    X[:, 6] = -0.0                              # constant, negative zero
    y = 4 * X[:, 0] + 2 * X[:, 1] * X[:, 5] + rng.normal(0, 0.3, n)
    # Censor the top third: many equal targets, as failed runs produce.
    y = np.minimum(y, np.quantile(y, 0.66))
    return X, y


def tree_digest(tree: DecisionTreeRegressor, h=None) -> str:
    h = hashlib.sha256() if h is None else h
    for arr in (tree._feature, tree._threshold, tree._left, tree._right,
                tree._value, tree.feature_importances_):
        h.update(str(arr.dtype).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def forest_digest(forest: RandomForestRegressor) -> str:
    h = hashlib.sha256()
    for tree in forest.trees_:
        tree_digest(tree, h)
    h.update(forest.feature_importances_.tobytes())
    h.update(forest.oob_mask_.tobytes())
    return h.hexdigest()[:16]


#: name -> (n, forest keyword arguments)
FOREST_CASES = {
    "n10": (10, {}),
    "n100": (100, {}),
    "n300": (300, {}),
    "leaf5": (100, {"min_samples_leaf": 5}),
    "leaf5_n300": (300, {"min_samples_leaf": 5}),
    "depth3": (100, {"max_depth": 3}),
    "mf_half": (100, {"max_features": 0.5}),
    "mf_third_n60": (60, {"max_features": "third"}),
    "mf_all": (100, {"max_features": None}),
    "mf_one": (100, {"max_features": 1}),
    "no_bootstrap": (100, {"bootstrap": False}),
    "split5": (100, {"min_samples_split": 5}),
}

FOREST_GOLDEN = {
    "depth3": "5c646a2c70b765db",
    "leaf5": "82804ea0feafc1d1",
    "leaf5_n300": "ab38e70a48abaa45",
    "mf_all": "cdad9a454c231606",
    "mf_half": "acfffa48fb359328",
    "mf_one": "17e7181aa0179499",
    "mf_third_n60": "5f916c0c07d8977d",
    "n10": "f934e88d1635b410",
    "n100": "63684d1dda562e8c",
    "n300": "bdccc387ff46249e",
    "no_bootstrap": "6e7167f1db80e83b",
    "split5": "c0b3e7956f2ea144",
}

#: name -> (n, tree keyword arguments)
TREE_CASES = {
    "n10": (10, {}),
    "n100": (100, {}),
    "n300": (300, {}),
    "leaf5_mf_half": (300, {"min_samples_leaf": 5, "max_features": 0.5}),
}

TREE_GOLDEN = {
    "leaf5_mf_half": "b5de17499e0aa8eb",
    "n10": "238845bd1f9b45ed",
    "n100": "4ff992b5384e9983",
    "n300": "6612caa81b553913",
}


def fit_forest(name: str, **extra) -> RandomForestRegressor:
    n, kw = FOREST_CASES[name]
    X, y = make_data(n, seed=n)
    return RandomForestRegressor(16, rng=11, **kw, **extra).fit(X, y)


@pytest.mark.parametrize("name", sorted(FOREST_CASES))
def test_forest_matches_golden(name):
    assert forest_digest(fit_forest(name)) == FOREST_GOLDEN[name]


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("name", ["n100", "n300"])
def test_parallel_forest_matches_golden(name, backend):
    forest = fit_forest(name, n_jobs=2, parallel_backend=backend)
    assert forest_digest(forest) == FOREST_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(TREE_CASES))
def test_tree_matches_golden(name):
    n, kw = TREE_CASES[name]
    X, y = make_data(n, seed=n + 1)
    tree = DecisionTreeRegressor(rng=5, **kw).fit(X, y)
    assert tree_digest(tree) == TREE_GOLDEN[name]
