"""Greedy variance-reduction regression tree (CART-style, axis-aligned).

Used standalone as the decision-tree baseline and as the routing structure of
the Chebyshev model tree. Splits are placed at midpoints between adjacent
distinct sorted feature values; rows with x[feature] <= threshold go left.
Gain ties break toward the lower feature index, then the lower threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

import numpy as np

from .data import read_array, read_int_array

Count = Union[int, float]


def resolve_count(value: Count, n: int) -> int:
    """Resolve a row-count parameter: fractions become ceil(frac * n), floor 1.

    An integer must be at least 1; a float of 1.0 or more is a count.
    """
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"count parameter must be a number, got {value}")
    if isinstance(value, (int, np.integer)):
        if value < 1:
            raise ValueError(f"count parameter must be at least 1, got {value}")
        return int(value)
    v = float(value)
    if not 0.0 < v < math.inf:
        raise ValueError(f"count parameter must be positive and finite, got {value}")
    if v < 1.0:
        return max(1, math.ceil(v * n))
    return max(1, int(round(v)))


@dataclass
class RegressionTree:
    """Flat-array tree. feature[i] == -1 marks node i as a leaf.

    A leaf's threshold is 0.0; routing stops at the leaf mark and never reads it.

    value[i] is the training mean of the rows at node i (the prediction, for
    leaves). leaf_rows maps each leaf's node index to its training-row indices;
    cart_fit fills it for fit_chebytree, and it is not serialised.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    leaf_rows: Dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def leaf_ids(self) -> list[int]:
        return [i for i in range(self.n_nodes) if self.feature[i] < 0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.value[cart_route(self, X)]

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "RegressionTree":
        """Rebuild a tree, rejecting arrays that routing could crash or loop forever on."""
        feature = read_int_array("tree", d, "feature", (None,))
        n = feature.shape[0]
        if n == 0:
            raise ValueError("tree: feature is empty")
        left = read_int_array("tree", d, "left", (n,))
        right = read_int_array("tree", d, "right", (n,))
        threshold = read_array("tree", d, "threshold", (n,))
        bad = np.flatnonzero((feature < -1) | (feature >= n_features))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"tree: feature[{i}] = {feature[i]} is neither the leaf mark -1 "
                             f"nor one of the {n_features} input features")
        split = feature >= 0
        for name, child in (("left", left), ("right", right)):
            # cart_fit numbers children after their parent, so routing always ends
            bad = np.flatnonzero(split & ((child <= np.arange(n)) | (child >= n)))
            if bad.size:
                i = int(bad[0])
                raise ValueError(f"tree: {name}[{i}] = {child[i]} is not a node "
                                 f"in {i + 1}..{n - 1}")
        return cls(feature=feature, threshold=threshold, left=left, right=right,
                   value=read_array("tree", d, "value", (n,)))


def cart_fit(
    X: np.ndarray,
    y: np.ndarray,
    max_depth: int = 10,
    min_samples_leaf: Count = 1,
    min_samples_split: Count = 2,
) -> RegressionTree:
    """Grow a variance-reduction tree.

    min_samples_leaf / min_samples_split may be absolute counts or fractions of
    the training size. A root smaller than min_samples_split yields a
    single-leaf tree rather than an error; so does a constant target.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, d) and y (n,) with matching n")
    if X.shape[0] < 1:
        raise ValueError("need at least one training row")
    if isinstance(max_depth, bool) or not isinstance(max_depth, (int, np.integer)):
        raise ValueError(f"max_depth must be an integer, got {max_depth!r}")
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    n = X.shape[0]
    msl = resolve_count(min_samples_leaf, n)
    msp = resolve_count(min_samples_split, n)

    d = X.shape[1]
    XT = np.ascontiguousarray(X.T).ravel()  # XT[j * n + i] = X[i, j]
    offsets = np.arange(0, d * n, n)[:, None]
    go_left_mask = np.zeros(n, dtype=bool)  # set on each split node's rows only
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []
    leaf_rows: Dict[int, np.ndarray] = {}

    def grow(rows: np.ndarray, order: np.ndarray, depth: int) -> int:
        """rows: the node's row ids, ascending; order[j]: them sorted by feature j."""
        node = len(feature)
        yn = y[rows]
        m = rows.shape[0]
        mu = yn.sum() / m  # bitwise yn.mean(): np.mean is add.reduce over the count
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(mu))
        if depth >= max_depth or m < msp or m < 2 * msl or yn.max() - yn.min() == 0.0:
            leaf_rows[node] = rows
            return node
        split = _best_split(XT[order + offsets], y[order] - mu, yn - mu, msl)
        if split is None:
            leaf_rows[node] = rows
            return node
        feat, thr = split
        go_left = XT[feat * n + rows] <= thr
        go_left_mask[rows] = go_left
        sel = go_left_mask[order]
        feature[node] = feat
        threshold[node] = thr
        left[node] = grow(rows[go_left], order[sel].reshape(d, -1), depth + 1)
        right[node] = grow(rows[~go_left], order[~sel].reshape(d, -1), depth + 1)
        return node

    # sort once at the root; children inherit the order by filtering, which
    # equals a stable re-sort because rows stay in ascending index order
    grow(np.arange(n), np.argsort(X.T, axis=1, kind="stable"), 0)
    return RegressionTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
        leaf_rows=leaf_rows,
    )


def _best_split(xs: np.ndarray, ys: np.ndarray, yc: np.ndarray,
                msl: int) -> Optional[tuple[int, float]]:
    """Exhaustive scan for the max-gain split; None when no admissible split.

    xs[j] holds a node's values of feature j in stable ascending order and
    ys[j] the node-centred targets in that order; yc is the node-centred
    target in row order. Centring keeps sums of squares well conditioned for
    near-constant nodes. All features are scanned at once, one row each.
    """
    d, m = xs.shape
    parent_sse = float(yc @ yc)
    csum = ys.cumsum(axis=1)
    csum2 = (ys * ys).cumsum(axis=1)
    tot, tot2 = csum[:, -1:], csum2[:, -1:]
    # a split after sorted position pos - 1 puts pos rows on the left
    pos = np.arange(msl, m - msl + 1)
    cut = slice(msl - 1, m - msl)
    sl, s2l = csum[:, cut], csum2[:, cut]
    sse_left = s2l - sl * sl / pos
    nr = m - pos
    sr = tot - sl
    sse_right = (tot2 - s2l) - sr * sr / nr
    gains = parent_sse - (sse_left + sse_right)
    # only cut between distinct values
    gains[~(xs[:, cut] < xs[:, msl:m - msl + 1])] = -np.inf
    # the first maximum in row-major order: lowest feature, then lowest threshold
    j, k = divmod(int(gains.argmax()), gains.shape[1])
    if not gains[j, k] > 0.0:
        return None
    i = msl + k
    thr = 0.5 * (xs[j, i - 1] + xs[j, i])
    if thr >= xs[j, i]:  # midpoint rounded up to the right value
        thr = xs[j, i - 1]
    return j, float(thr)


def cart_route(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    """Leaf node index for every row of X."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(X.shape[0], dtype=np.int64)
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        f = tree.feature[node]
        if f < 0:
            out[idx] = node
            continue
        go_left = X[idx, f] <= tree.threshold[node]
        stack.append((int(tree.left[node]), idx[go_left]))
        stack.append((int(tree.right[node]), idx[~go_left]))
    return out
