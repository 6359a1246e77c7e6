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

Count = Union[int, float]


def resolve_count(value: Count, n: int) -> int:
    """Resolve a row-count parameter: fractions become ceil(frac * n), floor 1."""
    if isinstance(value, (int, np.integer)):
        return max(1, int(value))
    v = float(value)
    if not 0.0 < v:
        raise ValueError(f"count parameter must be positive, got {value}")
    if v < 1.0:
        return max(1, math.ceil(v * n))
    return max(1, int(round(v)))


@dataclass
class RegressionTree:
    """Flat-array tree. feature[i] == -1 marks node i as a leaf.

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
    def from_dict(cls, d: dict) -> "RegressionTree":
        tree = cls(
            feature=np.asarray(d["feature"], dtype=np.int64),
            threshold=np.asarray(d["threshold"], dtype=np.float64),
            left=np.asarray(d["left"], dtype=np.int64),
            right=np.asarray(d["right"], dtype=np.int64),
            value=np.asarray(d["value"], dtype=np.float64),
        )
        tree._validate()
        return tree

    def _validate(self) -> None:
        """Reject arrays that routing could crash or loop forever on."""
        n = self.n_nodes
        if n == 0:
            raise ValueError("tree: feature is empty")
        for name in ("feature", "threshold", "left", "right", "value"):
            shape = getattr(self, name).shape
            if shape != (n,):
                raise ValueError(f"tree: {name} has shape {shape}, expected ({n},)")
        bad = np.flatnonzero(self.feature < -1)
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"tree: feature[{i}] = {self.feature[i]} is neither a split "
                             "feature (>= 0) nor the leaf mark -1")
        split = self.feature >= 0
        for name in ("left", "right"):
            child = getattr(self, name)
            # cart_fit numbers children after their parent, so routing always ends
            bad = np.flatnonzero(split & ((child <= np.arange(n)) | (child >= n)))
            if bad.size:
                i = int(bad[0])
                raise ValueError(f"tree: {name}[{i}] = {child[i]} is not a node "
                                 f"in {i + 1}..{n - 1}")
        if not np.isfinite(self.threshold[split]).all():
            raise ValueError("tree: threshold of a split node is not finite")
        if not np.isfinite(self.value).all():
            raise ValueError("tree: value holds a non-finite number")


def cart_fit(
    X: np.ndarray,
    y: np.ndarray,
    max_depth: int,
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
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    n = X.shape[0]
    msl = resolve_count(min_samples_leaf, n)
    msp = resolve_count(min_samples_split, n)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []
    leaf_rows: Dict[int, np.ndarray] = {}

    def new_node(rows: np.ndarray) -> int:
        idx = len(feature)
        feature.append(-1)
        threshold.append(math.nan)
        left.append(-1)
        right.append(-1)
        value.append(float(y[rows].mean()))
        return idx

    def grow(rows: np.ndarray, order: np.ndarray, depth: int) -> int:
        node = new_node(rows)
        m = rows.shape[0]
        if depth >= max_depth or m < msp or m < 2 * msl or np.ptp(y[rows]) == 0.0:
            leaf_rows[node] = rows
            return node
        split = _best_split(X[rows], y[rows], order, msl)
        if split is None:
            leaf_rows[node] = rows
            return node
        feat, thr = split
        go_left = X[rows, feat] <= thr
        feature[node] = feat
        threshold[node] = thr
        left[node] = grow(rows[go_left], _restrict_order(order, go_left), depth + 1)
        right[node] = grow(rows[~go_left], _restrict_order(order, ~go_left), depth + 1)
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


def _best_split(
    Xn: np.ndarray, yn: np.ndarray, order: np.ndarray, msl: int
) -> Optional[tuple[int, float]]:
    """Exhaustive scan for the max-gain split; None when no admissible split.

    order[j] is the stable ascending argsort of Xn[:, j]. All features are
    scanned at once, one row of the (d, m) sorted arrays each. Works on
    node-centred targets so sums of squares stay well conditioned for
    near-constant nodes.
    """
    m, d = Xn.shape
    if m < 2 * msl:
        return None
    yc = yn - yn.mean()
    parent_sse = float(yc @ yc)
    xs = np.take_along_axis(Xn.T, order, axis=1)
    ys = yc[order]
    csum = np.cumsum(ys, axis=1)
    csum2 = np.cumsum(ys * ys, axis=1)
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
    ks = np.argmax(gains, axis=1)  # first max: lowest threshold wins ties
    best_gain = 0.0
    best: Optional[tuple[int, float]] = None
    for j in range(d):  # strict >: lowest feature wins ties
        k = int(ks[j])
        if gains[j, k] > best_gain:
            i = int(pos[k])
            thr = 0.5 * (xs[j, i - 1] + xs[j, i])
            if thr >= xs[j, i]:  # midpoint rounded up to the right value
                thr = float(xs[j, i - 1])
            best_gain = float(gains[j, k])
            best = (j, float(thr))
    return best


def _restrict_order(order: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Per-feature sorted order of the kept rows, renumbered to their new positions."""
    renumber = np.cumsum(keep) - 1
    kept = order[keep[order]]  # row-major, so feature by feature
    return renumber[kept].reshape(order.shape[0], -1)


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
