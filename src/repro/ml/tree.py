"""CART regression trees (Breiman et al., 1984).

Flat-array tree representation for fast vectorized prediction.  Two split
strategies are provided:

* ``"best"`` — exhaustive variance-reduction search over sorted feature
  values (classic CART), used by :class:`~repro.ml.forest.RandomForestRegressor`;
* ``"random"`` — one uniformly random threshold per candidate feature
  (Geurts et al., 2006), used by
  :class:`~repro.ml.forest.ExtraTreesRegressor`.

``"best"`` trees are grown by :func:`_grow_best`, which advances a whole
batch of trees in lockstep: each step pops one node from every unfinished
tree's depth-first stack and scores all of them in one batched split
search (:func:`_split_search`).  A lone tree is a batch of one.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from ..utils.rng import as_generator

__all__ = ["DecisionTreeRegressor", "resolve_max_features"]

_LEAF = -1

#: Element budget of one batched split-search chunk, counted as
#: ``nodes * rows * features``: the size of the widest gather of ``X`` a
#: chunk may make, and an upper bound on each of its half-dozen
#: ``(nodes, candidates, rows)`` temporaries.  It caps each at 256 KB; a
#: step with more work runs in several chunks.
_MAX_ENTRIES = 1 << 15

#: NumPy's pairwise-summation block (``PW_BLOCKSIZE``): a run of at most
#: this many elements is summed with eight interleaved accumulators, a
#: longer one is split in two and each half summed recursively.
_PW_BLOCK = 128


def resolve_max_features(max_features: int | float | str | None,
                         n_features: int) -> int:
    """Resolve a ``max_features`` spec into a feature count in [1, n_features].

    Accepts an int (count), float (fraction), ``"sqrt"``, ``"log2"``,
    ``"third"`` (Breiman's p/3 heuristic for regression), or ``None``
    (all features).
    """
    if max_features is None:
        k = n_features
    elif isinstance(max_features, str):
        if max_features == "sqrt":
            k = int(math.sqrt(n_features))
        elif max_features == "log2":
            k = int(math.log2(n_features)) if n_features > 1 else 1
        elif max_features == "third":
            k = n_features // 3
        else:
            raise ValueError(f"unknown max_features spec {max_features!r}")
    elif isinstance(max_features, float):
        if not 0.0 < max_features <= 1.0:
            raise ValueError("fractional max_features must be in (0, 1]")
        k = int(max_features * n_features)
    else:
        k = int(max_features)
    return max(1, min(k, n_features))


@dataclass
class _Nodes:
    """Growable flat arrays describing the tree.

    Typed arrays rather than lists: a forest grows all its trees at once,
    and per-node Python floats would stay alive for every tree until the
    last one finishes.
    """

    feature: array = field(default_factory=lambda: array("q"))
    threshold: array = field(default_factory=lambda: array("d"))
    left: array = field(default_factory=lambda: array("q"))
    right: array = field(default_factory=lambda: array("q"))
    value: array = field(default_factory=lambda: array("d"))

    def add(self) -> int:
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def split(self, node: int, feature: int, threshold: float
              ) -> tuple[int, int]:
        """Turn leaf *node* into a split with two new leaf children."""
        lid = len(self.feature)
        self.feature.extend((_LEAF, _LEAF))
        self.threshold.extend((0.0, 0.0))
        self.left.extend((-1, -1))
        self.right.extend((-1, -1))
        self.value.extend((0.0, 0.0))
        self.feature[node], self.threshold[node] = feature, threshold
        self.left[node], self.right[node] = lid, lid + 1
        return lid, lid + 1


class DecisionTreeRegressor:
    """A regression tree minimizing within-node variance (squared error).

    Parameters
    ----------
    max_depth:
        Maximum tree depth; ``None`` grows until purity or minimum-size
        stopping conditions apply.
    min_samples_split:
        Minimum number of samples required to attempt a split.
    min_samples_leaf:
        Minimum number of samples in each child of any split.
    max_features:
        Number of features considered per split (see
        :func:`resolve_max_features`).
    splitter:
        ``"best"`` (CART) or ``"random"`` (extremely randomized).
    rng:
        Seed or generator controlling feature subsampling and random
        thresholds.
    """

    def __init__(self, *, max_depth: int | None = None,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features: int | float | str | None = None,
                 splitter: str = "best",
                 rng: np.random.Generator | int | None = None):
        if splitter not in ("best", "random"):
            raise ValueError(f"unknown splitter {splitter!r}")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.splitter = splitter
        self.rng = rng
        self._fitted = False

    # -- fitting ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if y.shape != (X.shape[0],):
            raise ValueError("y must be 1-D with len(y) == len(X)")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on empty data")
        if self.splitter == "best":
            _grow_best([self], X, y, [np.arange(X.shape[0])])
            return self
        rng = as_generator(self.rng)
        k = resolve_max_features(self.max_features, X.shape[1])
        nodes = _Nodes()
        # Total variance-reduction gain credited to each feature (for MDI).
        gain_by_feature = array("d", bytes(8 * X.shape[1]))

        # Iterative depth-first construction with an explicit stack avoids
        # recursion limits on deep trees.
        root = nodes.add()
        stack: list[tuple[int, np.ndarray, int]] = [(root, np.arange(X.shape[0]), 0)]
        while stack:
            node, idx, depth = stack.pop()
            y_node = y[idx]
            nodes.value[node] = float(y_node.mean())
            if (len(idx) < self.min_samples_split
                    or (self.max_depth is not None and depth >= self.max_depth)
                    or np.ptp(y_node) == 0.0):
                continue
            split = self._find_split_random(X, y, idx, k, rng)
            if split is None:
                continue
            feat, thr, left_idx, right_idx, gain = split
            gain_by_feature[feat] += gain
            lid, rid = nodes.split(node, feat, thr)
            stack.append((lid, left_idx, depth + 1))
            stack.append((rid, right_idx, depth + 1))
        self._finish(nodes, gain_by_feature)
        return self

    def _finish(self, nodes: _Nodes, gain_by_feature: array) -> None:
        """Freeze the grown node lists into the fitted flat arrays."""
        self.n_features_ = len(gain_by_feature)
        self._feature = np.array(nodes.feature, dtype=np.int64)
        self._threshold = np.array(nodes.threshold, dtype=float)
        self._left = np.array(nodes.left, dtype=np.int64)
        self._right = np.array(nodes.right, dtype=np.int64)
        self._value = np.array(nodes.value, dtype=float)
        gains = np.array(gain_by_feature, dtype=float)
        total_gain = gains.sum()
        self.feature_importances_ = (gains / total_gain
                                     if total_gain > 0.0 else gains)
        self._fitted = True

    def _find_split_random(self, X: np.ndarray, y: np.ndarray,
                           idx: np.ndarray, k: int,
                           rng: np.random.Generator):
        """Extremely-randomized split search (one uniform threshold per
        candidate feature, drawn in permutation order)."""
        n_feat = X.shape[1]
        features = rng.permutation(n_feat)
        best_gain = 0.0
        best: tuple[int, float] | None = None
        y_node = y[idx]
        base_sse = float(np.sum((y_node - y_node.mean()) ** 2))
        tried = 0
        for feat in features:
            col = X[idx, feat]
            lo, hi = col.min(), col.max()
            if lo == hi:
                continue  # constant feature: not a candidate, try the next
            tried += 1
            thr = float(rng.uniform(lo, hi))
            gain = self._split_gain_at(col, y_node, thr, base_sse)
            if gain is not None and gain > best_gain:
                best_gain, best = gain, (int(feat), thr)
            # Stop after k candidate features, but if none of them yielded
            # a valid split keep scanning the rest (sklearn-compatible).
            if tried >= k and best is not None:
                break
        if best is None:
            return None
        feat, thr = best
        mask = X[idx, feat] <= thr
        left_idx, right_idx = idx[mask], idx[~mask]
        if len(left_idx) < self.min_samples_leaf or len(right_idx) < self.min_samples_leaf:
            return None
        return feat, thr, left_idx, right_idx, best_gain

    def _split_gain_at(self, col: np.ndarray, y: np.ndarray, thr: float,
                       base_sse: float) -> float | None:
        """Variance-reduction gain of splitting at a given threshold."""
        mask = col <= thr
        nl = int(mask.sum())
        nr = len(col) - nl
        if nl < self.min_samples_leaf or nr < self.min_samples_leaf:
            return None
        yl, yr = y[mask], y[~mask]
        sse = float(np.sum((yl - yl.mean()) ** 2) + np.sum((yr - yr.mean()) ** 2))
        gain = base_sse - sse
        return gain if gain > 0.0 else None

    # -- prediction ---------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for each row of *X*."""
        if not self._fitted:
            raise RuntimeError("tree is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(f"X must have shape (n, {self.n_features_})")
        n = X.shape[0]
        node = np.zeros(n, dtype=np.int64)
        active = self._feature[node] != _LEAF
        # Advance all rows level-by-level until every row is at a leaf.
        while np.any(active):
            rows = np.nonzero(active)[0]
            cur = node[rows]
            feat = self._feature[cur]
            go_left = X[rows, feat] <= self._threshold[cur]
            node[rows] = np.where(go_left, self._left[cur], self._right[cur])
            active[rows] = self._feature[node[rows]] != _LEAF
        return self._value[node]

    @property
    def node_count(self) -> int:
        """Total number of nodes in the fitted tree."""
        if not self._fitted:
            raise RuntimeError("tree is not fitted")
        return len(self._feature)

    @property
    def depth(self) -> int:
        """Depth of the fitted tree (root = depth 0)."""
        if not self._fitted:
            raise RuntimeError("tree is not fitted")
        depth = np.zeros(len(self._feature), dtype=np.int64)
        best = 0
        for i in range(len(self._feature)):
            if self._feature[i] != _LEAF:
                depth[self._left[i]] = depth[i] + 1
                depth[self._right[i]] = depth[i] + 1
        if len(depth):
            best = int(depth.max())
        return best


# -- lockstep CART growth ---------------------------------------------------------
def _grow_best(trees: list[DecisionTreeRegressor], X: np.ndarray,
               y: np.ndarray, roots: list[np.ndarray]) -> int:
    """Grow every tree in *trees* with the ``"best"`` splitter, in lockstep.

    Tree *t* is fitted on the rows ``roots[t]`` of *X* and *y* (a bootstrap
    draw, or every row) and draws its feature permutations from its own
    ``rng``; all trees share the hyper-parameters of ``trees[0]``.  Each
    step pops one node from every unfinished tree's depth-first stack and
    scores them together, so every tree meets its nodes — and consumes its
    permutation stream — in the same order as a per-tree depth-first loop,
    and child row lists keep their parent's row order.  The fitted arrays
    are therefore bit-identical to growing each tree on its own.

    Returns the number of lockstep steps taken.
    """
    head = trees[0]
    n_features = X.shape[1]
    k = resolve_max_features(head.max_features, n_features)
    rngs = [as_generator(tree.rng) for tree in trees]
    nodes = [_Nodes() for _ in trees]
    gains = [array("d", bytes(8 * n_features)) for _ in trees]
    stacks = [[(tree_nodes.add(), np.asarray(rows, dtype=np.intp), 0)]
              for tree_nodes, rows in zip(nodes, roots)]
    live = list(range(len(trees)))
    steps = 0
    while live:
        steps += 1
        # Longest nodes first, so each chunk pads its rows to its first.
        popped = sorted(((t, *stacks[t].pop()) for t in live),
                        key=lambda entry: -entry[2].size)
        lo = 0
        while lo < len(popped):
            width = popped[lo][2].size * max(n_features, 1)
            hi = lo + max(1, _MAX_ENTRIES // width)
            _grow_chunk(popped[lo:hi], X, y, k, head, rngs, nodes, gains,
                        stacks)
            lo = hi
        live = [t for t in live if stacks[t]]
    for tree, tree_nodes, tree_gains in zip(trees, nodes, gains):
        tree._finish(tree_nodes, tree_gains)
    return steps


def _grow_chunk(chunk, X, y, k, params, rngs, nodes, gains, stacks) -> None:
    """Settle one chunk of popped ``(tree, node, rows, depth)`` entries.

    Sets each node's value, splits the nodes that pass the stopping rules
    and the leaf-size check, and pushes their left then right child.
    """
    trees, ids, row_lists, depths = zip(*chunk)
    n = np.fromiter((rows.size for rows in row_lists), np.intp, len(chunk))
    R = _pad_rows(row_lists, n)
    Y = y[R]
    mean, base_sse = _mean_sse(Y, n)
    ptp = Y.max(axis=1) - Y.min(axis=1)
    search = (n >= params.min_samples_split) & (ptp != 0.0)
    if params.max_depth is not None:
        search &= np.asarray(depths) < params.max_depth
    for t, node, value in zip(trees, ids, mean.tolist()):
        nodes[t].value[node] = value
    cand = np.nonzero(search)[0]
    if not cand.size:
        return
    ns = n[cand]
    Rs = R[cand, :ns.max()]
    perms = np.stack([rngs[trees[i]].permutation(X.shape[1]) for i in cand])
    feat, thr, gain = _split_search(X, y, Rs, ns, perms, base_sse[cand], k,
                                    params.min_samples_leaf)
    found = np.nonzero(feat >= 0)[0]
    if not found.size:
        return
    cand, ns, Rs = cand[found], ns[found], Rs[found]
    feat, thr, gain = feat[found], thr[found], gain[found]
    in_node = np.arange(Rs.shape[1]) < ns[:, None]
    go_left = X[Rs, feat[:, None]] <= thr[:, None]
    go_left &= in_node
    n_left = go_left.sum(axis=1)
    m = params.min_samples_leaf
    ok = np.nonzero((n_left >= m) & (ns - n_left >= m))[0]
    if not ok.size:
        return
    Rs, go_left, in_node = Rs[ok], go_left[ok], in_node[ok]
    n_left = n_left[ok]
    lefts = _split_rows(Rs[go_left], n_left)
    rights = _split_rows(Rs[in_node & ~go_left], ns[ok] - n_left)
    for i, f, th, g, left, right in zip(cand[ok].tolist(), feat[ok].tolist(),
                                        thr[ok].tolist(), gain[ok].tolist(),
                                        lefts, rights):
        t, depth = trees[i], depths[i] + 1
        gains[t][f] += g
        lid, rid = nodes[t].split(ids[i], f, th)
        stacks[t] += ((lid, left, depth), (rid, right, depth))


def _split_rows(flat: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
    """Cut *flat* into consecutive pieces of the given lengths."""
    ends = np.cumsum(counts).tolist()
    return [flat[lo:hi] for lo, hi in zip([0] + ends[:-1], ends)]


def _pad_rows(row_lists, n: np.ndarray) -> np.ndarray:
    """Stack row-index lists into an ``(nodes, max(n))`` matrix.

    Row *s* holds ``row_lists[s]`` followed by copies of its first entry,
    so a padded gather repeats a real row of the same node: per-node
    minima and maxima need no mask.
    """
    first = np.fromiter((rows[0] for rows in row_lists), np.intp, len(n))
    R = np.repeat(first[:, None], n.max(), axis=1)
    R[np.arange(R.shape[1]) < n[:, None]] = np.concatenate(row_lists)
    return R


def _pairwise_sums(A: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``np.add.reduce(A[s, :n[s]])`` for every row *s*, bit for bit.

    NumPy sums a float run with its pairwise kernel and adds the result to
    the ufunc identity ``0.0``.  A run shorter than 8 elements is added in
    order; a run of up to ``_PW_BLOCK`` elements is spread over eight
    accumulators (element *i* of each full 8-block into accumulator
    ``i % 8``), which are combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``
    before the leftover elements are added in order.  Both orders are
    replayed here for all rows at once: a cumulative sum over the 8-blocks
    gives the accumulators, and a cumulative sum over ``[head, leftovers]``
    adds the tail.  Longer runs take NumPy's recursive split, so those rows
    are summed by NumPy itself.  Every ``n[s]`` must be >= 1.
    """
    S = A.shape[0]
    width = -(-min(A.shape[1], _PW_BLOCK) // 8) * 8
    block = np.zeros((S, width))
    block[:, :min(A.shape[1], width)] = A[:, :width]
    run = np.minimum(n, _PW_BLOCK)
    full = run // 8
    rows = np.arange(S)
    lanes = np.cumsum(block.reshape(S, width // 8, 8), axis=1)
    r = lanes[rows, np.maximum(full - 1, 0)]
    head = ((r[:, 0] + r[:, 1]) + (r[:, 2] + r[:, 3])) + \
        ((r[:, 4] + r[:, 5]) + (r[:, 6] + r[:, 7]))
    head[full == 0] = -0.0
    start = 8 * full
    tail = block[rows[:, None], np.minimum(start[:, None] + np.arange(7),
                                           width - 1)]
    acc = np.cumsum(np.concatenate([head[:, None], tail], axis=1), axis=1)
    out = acc[rows, run - start] + 0.0
    for s in np.nonzero(n > _PW_BLOCK)[0]:
        out[s] = np.add.reduce(A[s, :n[s]])
    return out


def _mean_sse(Y: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row mean and sum of squared deviations of ``Y[s, :n[s]]``.

    Bit-identical to ``Y[s, :n[s]].mean()`` and
    ``np.sum((Y[s, :n[s]] - mean) ** 2)``: ``ndarray.mean`` is the NumPy
    sum divided by the count, and both sums go through
    :func:`_pairwise_sums`.
    """
    mean = _pairwise_sums(Y, n) / n
    return mean, _pairwise_sums((Y - mean[:, None]) ** 2, n)


def _split_search(X: np.ndarray, y: np.ndarray, R: np.ndarray,
                  n: np.ndarray, perms: np.ndarray, base_sse: np.ndarray,
                  k: int, min_samples_leaf: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best CART split of every node in a batch.

    Node *s* holds the rows ``R[s, :n[s]]`` (``n[s] >= 2``; later entries
    repeat one of the node's rows) and scans features in the order
    ``perms[s]``.  Its first ``k`` non-constant features are scored
    together: each column is stable-sorted and every split between two
    distinct values is scored from prefix sums of ``y`` and ``y**2``.  The
    first column with the largest positive gain wins (a per-feature loop's
    strict ``>``); if none of the ``k`` has a positive gain, the remaining
    non-constant features are tried one by one with
    :func:`_best_threshold` and the first that splits wins
    (sklearn-compatible).  Each column is scored with the same operations
    in the same order as :func:`_best_threshold`, so results match it bit
    for bit.

    Returns ``(feature, threshold, gain)`` arrays; ``feature`` is -1 for a
    node with no valid split.
    """
    S, L = R.shape
    d = X.shape[1]
    if not d:
        return np.full(S, -1), np.full(S, np.nan), np.full(S, np.nan)
    m = min_samples_leaf
    nodes = np.arange(S)
    # Candidates: the first k features of each permutation.  A node where
    # one of them is constant takes the first k non-constant features of
    # its whole permutation instead.  After the candidates, the fallback
    # scan resumes at permutation position start[s].
    F = perms[:, :k].copy()
    slots = np.ones((S, k), dtype=bool)
    start = np.full(S, k)
    # One row per (node, candidate): the column's values in row order.
    M = X.ravel()[(R * d)[:, None, :] + F[:, :, None]]
    rescan = np.nonzero((M.min(axis=2) == M.max(axis=2)).any(axis=1))[0]
    if rescan.size:
        XR = X[R[rescan]]
        nonconst = (XR.min(axis=1) != XR.max(axis=1))[
            np.arange(rescan.size)[:, None], perms[rescan]]
        rank = np.cumsum(nonconst, axis=1)
        slots[rescan] = np.arange(k) < np.minimum(rank[:, -1], k)[:, None]
        picked = np.zeros((rescan.size, k), dtype=np.intp)
        picked[slots[rescan]] = perms[rescan][nonconst & (rank <= k)]
        F[rescan] = picked
        M[rescan] = X.ravel()[(R[rescan] * d)[:, None, :]
                              + picked[:, :, None]]
        start[rescan] = np.where(rank[:, -1] > k,
                                 np.argmax(rank >= k, axis=1) + 1, d)
    # Rows past a node's end become NaN, which the stable sort puts last.
    np.copyto(M, np.nan, where=~(np.arange(L) < n[:, None])[:, None, :])
    order = np.argsort(M, axis=2, kind="stable")
    order += (nodes * L)[:, None, None]           # flat index into y[R]
    ys = y[R].ravel()[order]
    order += (nodes * (k - 1) * L)[:, None, None] + \
        (np.arange(k) * L)[:, None]               # flat index into M
    cs = M.ravel()[order]
    del M, order
    csum = np.cumsum(ys, axis=2)
    csum2 = np.cumsum(np.square(ys, out=ys), axis=2)
    del ys
    total = csum[nodes, :, n - 1][:, :, None]
    total2 = csum2[nodes, :, n - 1][:, :, None]
    left_n = np.arange(1, L, dtype=float)
    right_n = n[:, None, None] - left_n
    valid = cs[:, :, 1:] > cs[:, :, :-1]
    if m > 1:
        valid &= (left_n >= m) & (right_n >= m)
    ls, ls2 = csum[:, :, :-1], csum2[:, :, :-1]
    # sse = (ls2 - ls**2 / left_n) + (rs2 - rs**2 / right_n), evaluated
    # in place in that order.
    with np.errstate(divide="ignore", invalid="ignore"):
        sse = np.square(ls)
        sse /= left_n
        np.subtract(ls2, sse, out=sse)
        right = np.square(total - ls)
        right /= right_n
        np.subtract(total2 - ls2, right, out=right)
        sse += right
    del right, csum, csum2
    np.copyto(sse, np.inf, where=~valid)
    best_sse = sse.min(axis=2)
    gains = base_sse[:, None] - best_sse
    ok = slots & np.isfinite(best_sse) & (gains > 0.0)
    gains = np.where(ok, gains, -np.inf)
    j = np.argmax(gains, axis=1)
    i = np.argmin(sse[nodes, j], axis=1)
    thr = 0.5 * (cs[nodes, j, i] + cs[nodes, j, i + 1])
    gain = gains[nodes, j]
    feat = np.where(ok.any(axis=1), F[nodes, j], -1)
    for s in np.nonzero(feat < 0)[0]:
        rows = R[s, :n[s]]
        for f in perms[s, start[s]:]:
            col = X[rows, f]
            if col.min() == col.max():
                continue
            res = _best_threshold(col, y[rows], base_sse[s], m)
            if res is not None:
                feat[s], (thr[s], gain[s]) = f, res
                break
    return feat, thr, gain


def _best_threshold(col: np.ndarray, y: np.ndarray, base_sse: float,
                    min_samples_leaf: int) -> tuple[float, float] | None:
    """Exhaustive CART threshold search on one feature via prefix sums.

    The scalar reference of :func:`_split_search`, and its fallback for
    the rare scan past the first ``k`` candidate features.
    """
    order = np.argsort(col, kind="stable")
    cs, ys = col[order], y[order]
    n = len(cs)
    csum = np.cumsum(ys)
    csum2 = np.cumsum(ys ** 2)
    total, total2 = csum[-1], csum2[-1]
    # Candidate split after position i (1-based left count), only where
    # the feature value actually changes.
    left_n = np.arange(1, n)
    valid = cs[1:] > cs[:-1]
    m = min_samples_leaf
    valid &= (left_n >= m) & ((n - left_n) >= m)
    if not np.any(valid):
        return None
    ls, ls2 = csum[:-1], csum2[:-1]
    rs, rs2 = total - ls, total2 - ls2
    sse = (ls2 - ls ** 2 / left_n) + (rs2 - rs ** 2 / (n - left_n))
    sse = np.where(valid, sse, np.inf)
    best_i = int(np.argmin(sse))
    gain = base_sse - float(sse[best_i])
    if not np.isfinite(sse[best_i]) or gain <= 0.0:
        return None
    thr = 0.5 * (cs[best_i] + cs[best_i + 1])
    return float(thr), gain
