"""Bagged tree ensembles: Random Forests and Extremely Randomized Trees.

Both expose *out-of-bag* (OOB) predictions, which the paper's parameter
selection uses as the baseline for Mean-Decrease-in-Accuracy importance:
each tree is evaluated only on samples it never saw during training, giving
an unbiased generalization estimate without a held-out set.
"""

from __future__ import annotations

import numpy as np

from ..obs import as_tracer
from ..utils.parallel import parallel_map, resolve_n_jobs
from ..utils.rng import as_generator, spawn
from .metrics import r2_score
from .tree import _LEAF, DecisionTreeRegressor, _grow_best

__all__ = ["RandomForestRegressor", "ExtraTreesRegressor"]

#: Upper bound on the (tree, row) entries one vectorized walk holds.  A
#: walk keeps about a dozen index temporaries of this length alive, so the
#: bound caps their memory (~1 MB) at the cost of a few more NumPy calls.
_MAX_ENTRIES = 1 << 13


def _fit_trees_job(task) -> tuple[list[tuple[DecisionTreeRegressor,
                                              np.ndarray | None]], int]:
    """Fit a contiguous chunk of the ensemble's trees (module-level for
    process pools).

    Each tree carries its own child generator, which draws the tree's
    bootstrap/OOB split and then its splits, so the fitted trees are
    identical whether chunks run serially, on threads, or across
    processes, and however the trees are chunked.  ``"best"`` trees grow
    together in lockstep (:func:`repro.ml.tree._grow_best`); returns the
    fitted ``(tree, oob)`` pairs and the number of lockstep steps.
    """
    X, y, params, splitter, child_rngs, bootstrap = task
    n = X.shape[0]
    trees, roots, oobs = [], [], []
    for crng in child_rngs:
        if bootstrap:
            idx = crng.integers(0, n, size=n)
            oob = np.ones(n, dtype=bool)
            oob[idx] = False
        else:
            idx = np.arange(n)
            oob = None
        trees.append(DecisionTreeRegressor(splitter=splitter, rng=crng,
                                           **params))
        roots.append(idx)
        oobs.append(oob)
    steps = 0
    if splitter == "best":
        steps = _grow_best(trees, X, y, roots)
    else:
        for tree, idx in zip(trees, roots):
            tree.fit(X[idx], y[idx])
    return list(zip(trees, oobs)), steps


class _BaseForestRegressor:
    """Common machinery for bagged regression-tree ensembles.

    ``n_jobs`` controls how many workers fit trees concurrently (see
    :func:`repro.utils.parallel.resolve_n_jobs`; ``None`` defers to the
    ``ROBOTUNE_JOBS`` environment variable).  Tree construction is
    pure-Python and GIL-bound, so the default backend is ``"process"``;
    results are independent of worker count and backend because every
    tree owns a pre-spawned child generator.
    """

    _splitter = "best"

    def __init__(self, n_estimators: int = 100, *,
                 max_depth: int | None = None,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features: int | float | str | None = "third",
                 bootstrap: bool = True,
                 n_jobs: int | None = None,
                 parallel_backend: str = "process",
                 rng: np.random.Generator | int | None = None,
                 tracer=None):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.n_jobs = n_jobs
        self.parallel_backend = parallel_backend
        self.rng = rng
        self.tracer = as_tracer(tracer)
        self._fitted = False

    # -- fitting ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "_BaseForestRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if y.shape != (X.shape[0],):
            raise ValueError("y must be 1-D with len(y) == len(X)")
        n = X.shape[0]
        rng = as_generator(self.rng)
        child_rngs = spawn(rng, self.n_estimators)
        params = dict(max_depth=self.max_depth,
                      min_samples_split=self.min_samples_split,
                      min_samples_leaf=self.min_samples_leaf,
                      max_features=self.max_features)
        # One contiguous chunk of trees per worker: each chunk grows in
        # lockstep, and a serial fit is a single chunk.
        n_jobs = resolve_n_jobs(self.n_jobs)
        bounds = np.linspace(0, self.n_estimators,
                             min(n_jobs, self.n_estimators) + 1).astype(int)
        tasks = [(X, y, params, self._splitter, child_rngs[lo:hi],
                  self.bootstrap) for lo, hi in zip(bounds[:-1], bounds[1:])]
        with self.tracer.timer("forest.fit"):
            chunks = parallel_map(_fit_trees_job, tasks, n_jobs=n_jobs,
                                  backend=self.parallel_backend,
                                  tracer=self.tracer)
        fitted = [pair for pairs, _ in chunks for pair in pairs]
        self.trees_ = [tree for tree, _ in fitted]
        self.tracer.emit("forest.fit", {
            "trees": int(self.n_estimators), "n": int(n),
            "features": int(X.shape[1]),
            "steps": int(sum(steps for _, steps in chunks)),
            "nodes": int(sum(tree.node_count for tree in self.trees_))})
        # oob_mask_[t, i] is True when sample i is out-of-bag for tree t.
        self.oob_mask_ = np.zeros((self.n_estimators, n), dtype=bool)
        for t, (_, oob) in enumerate(fitted):
            if oob is not None:
                self.oob_mask_[t] = oob
        self.n_features_ = X.shape[1]
        self._X_train = X
        self._y_train = y
        self._pack()
        self._fitted = True
        return self

    # -- packed node table --------------------------------------------------------
    def _pack(self) -> None:
        """Concatenate every tree's node arrays into one global node table,
        then walk the OOB entries of the training matrix once.

        Child indices are shifted to global positions and ``_roots[t]`` is
        tree *t*'s root, so all trees and rows can descend together in one
        vectorized walk (:meth:`_descend`).  The walk compares the same
        ``X`` values against the same thresholds as
        :meth:`DecisionTreeRegressor.predict`, so every (tree, row) lands in
        the same leaf.
        """
        sizes = [tree.node_count for tree in self.trees_]
        roots = np.cumsum([0] + sizes[:-1])
        self._roots = roots.astype(np.intp)
        self._feature = np.concatenate(
            [tree._feature for tree in self.trees_]).astype(np.intp)
        self._threshold = np.concatenate(
            [tree._threshold for tree in self.trees_])
        # _children[2 * i] / [2 * i + 1]: global left / right child of i.
        self._children = np.concatenate(
            [np.stack([tree._left, tree._right], axis=1).ravel() + off
             for tree, off in zip(self.trees_, roots)]).astype(np.intp)
        self._value = np.concatenate([tree._value for tree in self.trees_])
        # OOB entries: one per (tree, OOB row), tree-major, so accumulating
        # them in entry order adds each sample's trees in tree order.
        self._oob_tree, self._oob_row = np.nonzero(self.oob_mask_)
        self._oob_count = self.oob_mask_.sum(axis=0)
        # The baseline walk of the training matrix, reused by every OOB
        # request until the next fit: each entry's leaf value, and
        # _oob_path[k, f] set when entry k's path splits on feature f (a
        # permutation of columns absent from the path cannot move it).
        self._oob_path = np.zeros((self._oob_row.size, self.n_features_),
                                  dtype=bool)
        leaf = self._descend(self._roots[self._oob_tree], self._X_train,
                             self._oob_row, path=self._oob_path)
        self._oob_value = self._value[leaf]
        self._oob_pred = self._oob_mean(self._oob_value)

    def _descend(self, node: np.ndarray, X: np.ndarray, rows: np.ndarray,
                 prows: np.ndarray | None = None,
                 in_group: np.ndarray | None = None,
                 path: np.ndarray | None = None) -> np.ndarray:
        """Advance each entry from *node* to its leaf, level by level.

        Entry *k* reads ``X[rows[k], f]`` at a node splitting on feature
        ``f`` — or ``X[prows[k], f]`` when ``in_group[f]``, which is how a
        permuted group is read without copying ``X``.  A value ``<=`` the
        threshold goes left and anything else (NaN included) right, as in
        :meth:`DecisionTreeRegressor.predict`.  ``path[k, f]`` is set for
        every feature on entry *k*'s path.  *node* is overwritten with the
        leaf indices and returned.
        """
        flat, width = X.ravel(), X.shape[1]
        active = np.nonzero(self._feature[node] != _LEAF)[0]
        while active.size:
            cur = node[active]
            feat = self._feature[cur]
            src = rows[active]
            if prows is not None:
                src = np.where(in_group[feat], prows[active], src)
            if path is not None:
                path[active, feat] = True
            go_right = ~(flat[src * width + feat] <= self._threshold[cur])
            nxt = self._children[2 * cur + go_right]
            node[active] = nxt
            active = active[self._feature[nxt] != _LEAF]
        return node

    # -- prediction ---------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Average prediction over all trees (added in tree order)."""
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(f"X must have shape (n, {self.n_features_})")
        n_trees = len(self.trees_)
        out = np.zeros(X.shape[0], dtype=float)
        step = max(1, _MAX_ENTRIES // n_trees)
        for lo in range(0, X.shape[0], step):
            rows = np.tile(np.arange(lo, min(lo + step, X.shape[0])), n_trees)
            node = np.repeat(self._roots, rows.size // n_trees)
            np.add.at(out, rows, self._value[self._descend(node, X, rows)])
        return out / n_trees

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """R² of :meth:`predict` on the given data."""
        return r2_score(np.asarray(y, dtype=float), self.predict(X))

    # -- out-of-bag ----------------------------------------------------------------
    def _oob_mean(self, values: np.ndarray) -> np.ndarray:
        """Per-sample mean of per-entry leaf values (NaN with no OOB tree).

        ``np.add.at`` applies the tree-major entries in order, so each
        sample's sum is built in the same order as a per-tree loop's
        ``total[mask] += tree.predict(X[mask])``.
        """
        total = np.zeros(self._oob_count.size, dtype=float)
        np.add.at(total, self._oob_row, values)
        with np.errstate(invalid="ignore"):
            pred = total / self._oob_count
        pred[self._oob_count == 0] = np.nan
        return pred

    def oob_prediction(self, X: np.ndarray | None = None) -> np.ndarray:
        """Per-sample prediction using only trees for which it is OOB.

        *X* defaults to the training matrix (served from the cached
        baseline walk); passing a permuted copy of the training matrix
        (same row order!) yields the permuted-OOB predictions used by MDA
        importance.  Samples that are in-bag for every tree get NaN.
        """
        self._check_fitted()
        if not self.bootstrap:
            raise RuntimeError("OOB estimates require bootstrap=True")
        if X is None:
            return self._oob_pred.copy()
        X = np.asarray(X, dtype=float)
        if X.shape != self._X_train.shape:
            raise ValueError("X must have the training matrix's shape")
        leaf = self._descend(self._roots[self._oob_tree], X, self._oob_row)
        return self._oob_mean(self._value[leaf])

    def _oob_touching(self, cols: tuple[int, ...]) -> np.ndarray:
        """Indices of the OOB entries whose path splits on any of *cols*."""
        return np.nonzero(self._oob_path[:, list(cols)].any(axis=1))[0]

    def _permuted_oob_prediction(self, cols: tuple[int, ...],
                                 perms: np.ndarray) -> np.ndarray:
        """OOB predictions with columns *cols* permuted, one row per perm.

        Row *r* equals ``oob_prediction(Xp)`` for ``Xp[:, cols] =
        X[perms[r]][:, cols]``, bit for bit: only the entries whose path
        splits on a permuted column are walked again (reading
        ``X[perms[r, row], f]`` for ``f`` in *cols*); every other entry
        keeps its baseline leaf value, which the permutation cannot change.
        """
        hit = self._oob_touching(cols)
        in_group = np.zeros(self.n_features_, dtype=bool)
        in_group[list(cols)] = True
        rows, roots = self._oob_row[hit], self._roots[self._oob_tree[hit]]
        n_rep = perms.shape[0]
        out = np.empty((n_rep, self._oob_count.size), dtype=float)
        step = max(1, _MAX_ENTRIES // max(hit.size, 1))
        for lo in range(0, n_rep, step):
            block = perms[lo:lo + step]
            k = block.shape[0]
            leaf = self._descend(np.tile(roots, k), self._X_train,
                                 np.tile(rows, k), block[:, rows].ravel(),
                                 in_group)
            new = self._value[leaf].reshape(k, hit.size)
            for r in range(k):
                entry_values = self._oob_value.copy()
                entry_values[hit] = new[r]
                out[lo + r] = self._oob_mean(entry_values)
        return out

    def oob_score(self, X: np.ndarray | None = None) -> float:
        """OOB R² score (ignoring samples with no OOB trees)."""
        pred = self.oob_prediction(X)
        ok = ~np.isnan(pred)
        if not np.any(ok):
            raise RuntimeError("no sample has an OOB prediction; "
                               "increase n_estimators")
        return r2_score(self._y_train[ok], pred[ok])

    @property
    def feature_importances_(self) -> np.ndarray:
        """Mean-Decrease-in-Impurity importances, averaged over trees.

        Kept for the MDI-vs-MDA ablation; the paper argues (citing Strobl
        et al.) that MDI is unreliable with mixed-scale features and uses
        MDA (see :mod:`repro.ml.importance`) instead.
        """
        self._check_fitted()
        imp = np.mean([t.feature_importances_ for t in self.trees_], axis=0)
        total = imp.sum()
        return imp / total if total > 0.0 else imp

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError(f"{type(self).__name__} is not fitted")


class RandomForestRegressor(_BaseForestRegressor):
    """Breiman (2001) random forest for regression.

    Bootstrap-bagged CART trees with per-split feature subsampling
    (default ``max_features="third"``, Breiman's p/3 regression heuristic).
    """

    _splitter = "best"


class ExtraTreesRegressor(_BaseForestRegressor):
    """Extremely Randomized Trees (Geurts et al., 2006) for regression.

    Splits use one uniformly random threshold per candidate feature.  Unlike
    scikit-learn's default, ``bootstrap=True`` here so OOB scores (needed by
    the paper's MDA comparison) are available out of the box.
    """

    _splitter = "random"
