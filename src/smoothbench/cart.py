"""Greedy variance-reduction regression tree (CART-style, axis-aligned).

Used standalone as the decision-tree baseline and as the routing structure of
the Chebyshev model tree. Splits are placed at midpoints between adjacent
distinct sorted feature values; rows with x[feature] <= threshold go left.
Gain ties break toward the lower feature index, then the lower threshold.

The fits of one hyperparameter search share their training split's nodes
(SplitNodes, kept in a context.FitContext): each node is sorted and scanned
once, and each fit only makes its own leaf decisions over them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

import numpy as np

from .context import FitContext
from .data import read_array, read_int_array
from .numkit import pow2_scale

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
    ctx: Optional[FitContext] = None,
) -> RegressionTree:
    """Grow a variance-reduction tree.

    min_samples_leaf / min_samples_split may be absolute counts or fractions of
    the training size. A root smaller than min_samples_split yields a
    single-leaf tree rather than an error; so does a constant target.

    With a ctx made for X and y, the tree is grown over the nodes that every
    fit with that ctx shares (see SplitNodes); without one, over a fresh root.
    The tree is the same either way, and its leaf_rows are read-only.
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
    nodes = (SplitNodes(X, y) if ctx is None
             else ctx.shared("cart", X, y, lambda: SplitNodes(X, y)))

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []
    leaf_rows: Dict[int, np.ndarray] = {}

    def grow(node: _Node, depth: int) -> int:
        idx = len(feature)
        m = node.rows.shape[0]
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(nodes.scale * node.mean)
        if depth >= max_depth or m < msp or m < 2 * msl or node.constant:
            leaf_rows[idx] = node.rows
            return idx
        split = window_split(nodes.maxima(node), msl)
        if split is None:
            leaf_rows[idx] = node.rows
            return idx
        j, pos, thr = split
        lo, hi = nodes.split(node, j, pos, thr)
        feature[idx] = j
        threshold[idx] = thr
        left[idx] = grow(lo, depth + 1)
        right[idx] = grow(hi, depth + 1)
        return idx

    grow(nodes.root, 0)
    return RegressionTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
        leaf_rows=leaf_rows,
    )


class _Node:
    """A node of SplitNodes: what every tree grown through it reads there.

    rows holds the node's training-row ids, ascending, and is read-only.
    maxima is filled by the first fit that scans the node (see
    SplitNodes.maxima); children maps a split, (feature, rows on the left),
    to its (left node, right node).
    """

    __slots__ = ("rows", "mean", "constant", "maxima", "children")

    def __init__(self, y: np.ndarray, rows: np.ndarray):
        m = rows.shape[0]
        yn = y[rows]
        self.mean = float(yn.sum() / m)  # bitwise yn.mean(): add.reduce over the count
        self.constant = m == 1 or bool(yn.max() - yn.min() == 0.0)
        rows.flags.writeable = False
        self.rows = rows
        self.maxima: Optional[tuple[int, list[int], list[tuple[int, int, float]]]] = None
        self.children: Dict[tuple[int, int], tuple["_Node", "_Node"]] = {}


class SplitNodes:
    """The CART nodes of one training split, grown on demand.

    Every feature is sorted once, stably, into ranks; a node sorts its rows
    by their ranks when it is scanned, which orders them as a stable sort of
    the node's values would. A node's gains at every split position are
    computed once, whatever min_samples_leaf a fit uses, since a gain
    depends only on the node's prefix sums, and are kept only as the first
    maximum of every min_samples_leaf window (window_maxima). Besides the
    nodes (rows, mean, maxima, children) this holds the transposed X and the
    ranks, 16 bytes per entry of X, and no sorted values or gains. It holds
    y / scale, scale = numkit.pow2_scale(max |y|), so that no mean or gain
    overflows or underflows; a node predicts scale * its mean.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray):
        n, d = X.shape
        self.scale = float(pow2_scale(np.abs(y).max()))
        self.n, self.y = n, y / self.scale
        self.XT = np.ascontiguousarray(X.T).ravel()  # XT[j * n + i] = X[i, j]
        self.offsets = np.arange(0, d * n, n)[:, None]
        # rank[j, i]: row i's place in a stable sort of feature j, so equal values rank by row id
        self.rank = np.empty((d, n), dtype=np.int64)
        np.put_along_axis(self.rank, np.argsort(X.T, axis=1, kind="stable"), np.arange(n), axis=1)
        self.root = _Node(self.y, np.arange(n))

    def maxima(self, node: _Node) -> tuple[int, list[int], list[tuple[int, int, float]]]:
        """window_maxima of the node's gains, scanned on the first call, with
        each split's threshold added to its (feature, rows on the left)."""
        if node.maxima is None:
            xs, gains = self._scan(node)
            nan_depth, depths, best = window_maxima(gains)
            node.maxima = (nan_depth, depths, [(j, pos, _midpoint(xs[j, pos - 1], xs[j, pos]))
                                               for j, pos in best])
        return node.maxima

    def _scan(self, node: _Node) -> tuple[np.ndarray, np.ndarray]:
        """The node's values sorted by feature (d, m), and their gains (d, m - 1).

        gains[j, pos - 1] is the gain of putting the first pos sorted rows on
        the left, -inf where the two sides would share a value. Centring the
        targets on the node mean keeps sums of squares well conditioned for
        near-constant nodes. All features are scanned at once, one row each.
        """
        mu, y, rows = node.mean, self.y, node.rows
        m = rows.shape[0]
        order = rows[self.rank[:, rows].argsort(axis=1)]  # distinct ranks: one sorted order
        xs = self.XT[order + self.offsets]
        ys = y[order] - mu
        yc = y[rows] - mu
        parent_sse = float(yc @ yc)
        csum = ys.cumsum(axis=1)
        csum2 = (ys * ys).cumsum(axis=1)
        tot, tot2 = csum[:, -1:], csum2[:, -1:]
        pos = np.arange(1, m)
        sl, s2l = csum[:, :-1], csum2[:, :-1]
        sse_left = s2l - sl * sl / pos
        nr = m - pos
        sr = tot - sl
        sse_right = (tot2 - s2l) - sr * sr / nr
        gains = parent_sse - (sse_left + sse_right)
        gains[~(xs[:, :-1] < xs[:, 1:])] = -np.inf  # only cut between distinct values
        return xs, gains

    def split(self, node: _Node, feat: int, pos: int, thr: float) -> tuple[_Node, _Node]:
        """The children of node with its first pos rows by feat, those <= thr, on the left."""
        key = (feat, pos)
        if key not in node.children:
            rows = node.rows
            go_left = self.XT[feat * self.n + rows] <= thr
            node.children[key] = (_Node(self.y, rows[go_left]), _Node(self.y, rows[~go_left]))
        return node.children[key]


def _midpoint(lo: float, hi: float) -> float:
    """The threshold between adjacent distinct sorted values lo < hi."""
    thr = 0.5 * lo + 0.5 * hi  # lo + hi may overflow; halving is exact
    if thr >= hi:  # midpoint rounded up to the right value
        thr = lo
    return float(thr)


def window_maxima(gains: np.ndarray) -> tuple[int, list[int], list[tuple[int, int]]]:
    """The split each min_samples_leaf takes from a node's gains, in O(m) space.

    gains is (d, m - 1); column c puts c + 1 sorted rows on the left. The
    window of min_samples_leaf msl is the columns that leave at least msl
    rows on each side: those whose depth min(c, m - 2 - c) is at least
    msl - 1. A fit splits at the window's first maximum in row-major order
    (lowest feature, then lowest threshold), as argmax finds it, when that
    maximum is positive. Returns (nan_depth, depths, best):

    - a window holds a NaN, where argmax stops, iff msl - 1 <= nan_depth
      (-1 when there is none), and the node is then a leaf;
    - otherwise, with i the first index where depths[i] >= msl - 1, the
      split is best[i] = (feature, rows on the left); there is none when no
      such i exists. depths ascends strictly.

    Ordering the positive columns by (-gain, feature, column), each the best
    entry of its column, the first of them inside a window is its first
    maximum; depths and best keep those that reach deeper than every one
    before them, as only they can come first in some window. Only a column
    whose gain is the largest at its depth or deeper can be one of them, so
    the others are dropped before the sort.
    """
    k = gains.shape[1]
    depth = np.minimum(np.arange(k), np.arange(k)[::-1])
    top = gains.max(axis=0)  # NaN where the column holds one
    feat = gains.argmax(axis=0)  # the column's first feature at its maximum
    nan = np.isnan(top)
    nan_depth = int(depth[nan].max()) if nan.any() else -1
    half = (k + 1) // 2  # the depths; columns L and k - 1 - L have depth L
    deepest = np.fmax.accumulate(np.fmax(top[:half], top[::-1][:half])[::-1])[::-1]
    cols = np.flatnonzero((top > 0.0) & (top == deepest[depth]))
    cols = cols[np.lexsort((feat[cols], -top[cols]))]  # stable: then by column
    reach = np.maximum.accumulate(depth[cols])
    cols = cols[np.concatenate(([True], reach[1:] > reach[:-1]))[:cols.size]]
    return nan_depth, depth[cols].tolist(), list(zip(feat[cols].tolist(), (cols + 1).tolist()))


def window_split(maxima: tuple, msl: int) -> Optional[tuple]:
    """The split that window_maxima gives min_samples_leaf msl, or None for a leaf."""
    nan_depth, depths, best = maxima
    i = bisect_left(depths, msl - 1)
    return None if msl - 1 <= nan_depth or i == len(depths) else best[i]


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
