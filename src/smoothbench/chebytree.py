"""Both Chebyshev kinds: the model tree and its one-leaf case, the global regressor.

fit_chebytree grows a CART tree and hands it to fit_leaves, which gives each
leaf that holds enough rows its own interaction-free Chebyshev regressor
(features min-max scaled by its own rows, a ridge solve with an unpenalised
intercept, predictions clipped to its own target mean +/- 3 standard
deviations); undersized leaves fall back to their training mean.
fit_chebypoly hands fit_leaves a depth-0 cart_fit tree, whose root leaf holds
every row, and optionally interaction columns. Final predictions are clipped
to the whole training target's mean +/- 3 standard deviations.

The leaves are stored stacked, one row per leaf in tree.leaf_ids order: the
scaling's mins and ranges, the weights, the intercept and the clip bounds lo
and hi. A constant leaf is a row of zero mins, ranges and weights with
intercept = lo = hi = its mean, so it predicts its mean bit for bit. Every
leaf shares the model's basis and interaction_feats.

Fit and predict handle all leaves in one batched pass: rows are grouped by
leaf, scaled with their own leaf's ranges, expanded by one design matrix call,
and the per-leaf ridge systems are solved stacked. Working memory is
O(N*p + L*p^2) for N rows, L polynomial leaves and p columns.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Dict, Optional, Union

import numpy as np

from .cart import Count, RegressionTree, cart_fit, cart_route
from .chebyshev import BasisConfig, build_design_matrix, interaction_feature_set, n_columns
from .context import FitContext
from .data import FeatureError, minmax_scale, read_array, read_int_array
from .numkit import check_alpha, pow2_scale, ridge_solve_segments

# the basis, stored as top-level fields of a model file
BASIS_FIELDS = tuple(f.name for f in fields(BasisConfig))
# the stacked leaf arrays, each with one row per leaf
LEAF_FIELDS = ("mins", "ranges", "weights", "intercepts", "lo", "hi")


def leaf_fallback_threshold(complexity: int) -> int:
    """Minimum leaf size that still gets a polynomial: max(2*(c+1), 10)."""
    return max(2 * (complexity + 1), 10)


@dataclass
class ChebyTreeModel:
    """Row j of mins, ranges (L, d), weights (L, p), intercepts, lo and hi (L,)
    belongs to the leaf tree.leaf_ids[j]; p is the basis's column count."""

    tree: RegressionTree
    basis: BasisConfig
    interaction_feats: tuple[int, ...]
    mins: np.ndarray
    ranges: np.ndarray
    weights: np.ndarray
    intercepts: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    y_mean: float
    y_std: float

    @property
    def leaf_models(self) -> Dict[int, Union[np.ndarray, float]]:
        """Leaf id -> its weight row, or its mean as a float for a constant leaf.

        A leaf is constant when fit_chebytree gave it fewer rows than
        leaf_fallback_threshold, so this reads the fit's tree.leaf_rows, which
        a model read from a file does not have. Kept only for perfbench's
        constant-leaf counter, which counts the float values; delete it with
        the next change to perfbench.
        """
        threshold = leaf_fallback_threshold(self.basis.complexity)
        return {leaf: w if self.tree.leaf_rows[leaf].shape[0] >= threshold else float(b)
                for leaf, w, b in zip(self.tree.leaf_ids, self.weights, self.intercepts)}

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        leaves = cart_route(self.tree, X)
        order = np.argsort(leaves, kind="stable")
        groups, starts, sizes = np.unique(leaves[order], return_index=True, return_counts=True)
        rows = np.searchsorted(self.tree.leaf_ids, groups)  # each group's leaf row
        at = np.repeat(rows, sizes)  # each sorted row's leaf row
        Xs = minmax_scale(X[order], self.mins[at], self.ranges[at])
        design = build_design_matrix(Xs, self.basis, self.interaction_feats)
        raw = np.empty(X.shape[0])
        for j, s, e in zip(rows, starts, starts + sizes):  # a gathered einsum changes bits
            np.matmul(design[s:e], self.weights[j], out=raw[s:e])
        out = np.empty_like(raw)
        out[order] = np.clip(raw + self.intercepts[at], self.lo[at], self.hi[at])
        return np.clip(out, self.y_mean - 3.0 * self.y_std, self.y_mean + 3.0 * self.y_std)

    def to_dict(self) -> dict:
        return {
            "tree": self.tree.to_dict(),
            **asdict(self.basis),
            "interaction_feats": list(self.interaction_feats),
            **{name: getattr(self, name).tolist() for name in LEAF_FIELDS},
            "y_mean": self.y_mean,
            "y_std": self.y_std,
        }

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "ChebyTreeModel":
        """Rebuild a model, reading each leaf array at the shape its tree and basis give."""
        owner = "chebyshev model"
        tree = RegressionTree.from_dict(d["tree"], n_features)
        try:
            basis = BasisConfig(**{name: d[name] for name in BASIS_FIELDS})
        except ValueError as exc:
            raise ValueError(f"{owner}: {exc}") from None
        feats = read_int_array(owner, d, "interaction_feats", (None,))
        if not ((feats >= 0) & (feats < n_features)).all() or (np.diff(feats) <= 0).any():
            raise ValueError(f"{owner}: interaction_feats {feats.tolist()} are not ascending "
                             f"feature indices below {n_features}")
        L, p = len(tree.leaf_ids), n_columns(n_features, basis, feats.size)
        shapes = {"mins": (L, n_features), "ranges": (L, n_features), "weights": (L, p)}
        leaf = {name: read_array(owner, d, name, shapes.get(name, (L,))) for name in LEAF_FIELDS}
        neg = np.argwhere(leaf["ranges"] < 0)  # would scale its feature to 0
        if neg.size:
            j, f = neg[0]
            raise ValueError(f"{owner}: ranges[{j}, {f}] = {leaf['ranges'][j, f]} is negative")
        bad = np.flatnonzero(~(leaf["lo"] <= leaf["hi"]))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"{owner}: lo[{i}] = {leaf['lo'][i]} is above "
                             f"hi[{i}] = {leaf['hi'][i]}")
        y_std = float(read_array(owner, d, "y_std", ()))
        if y_std < 0:  # the global clip would get lo > hi and predict one constant
            raise ValueError(f"{owner}: y_std = {y_std} is negative")
        return cls(tree=tree, basis=basis, interaction_feats=tuple(feats.tolist()), **leaf,
                   y_mean=float(read_array(owner, d, "y_mean", ())), y_std=y_std)


def fit_leaves(
    X: np.ndarray,
    y: np.ndarray,
    tree: RegressionTree,
    basis: BasisConfig,
    alpha: float,
    min_rows: int,
) -> ChebyTreeModel:
    """Fit a Chebyshev polynomial on each leaf of tree that holds at least
    min_rows of its leaf_rows, and its mean on every other leaf.

    A polynomial leaf is min-max scaled to its own rows' ranges, expanded in
    basis, ridge-solved with an unpenalised intercept and clipped to its rows'
    target mean +/- 3 standard deviations; all of them are fitted in one pass.
    With interactions, the eligible features are chosen from the scaled rows
    of the polynomial leaves. A feature range past float64 raises FeatureError.
    """
    s = pow2_scale(np.abs(y).max())
    ys = y / s
    leaves = tree.leaf_ids
    mins = np.zeros((len(leaves), X.shape[1]))
    ranges = np.zeros_like(mins)
    intercepts = tree.value[leaves]  # each leaf's mean: a constant leaf's row is done
    lo, hi = intercepts.copy(), intercepts.copy()
    poly = [j for j, leaf in enumerate(leaves) if tree.leaf_rows[leaf].shape[0] >= min_rows]
    feats, w = (), 0.0  # without a polynomial leaf: no pair columns and no weights
    if poly:
        # leaf_rows are ascending, so concatenating them groups rows stably by leaf
        rows = [tree.leaf_rows[leaves[j]] for j in poly]
        sizes = [r.shape[0] for r in rows]
        rows = np.concatenate(rows)
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        Xp, yp = X[rows], y[rows]
        mins[poly] = np.minimum.reduceat(Xp, bounds[:-1], axis=0)
        with np.errstate(over="ignore"):  # a finite range past float64 is refused next
            ranges[poly] = np.maximum.reduceat(Xp, bounds[:-1], axis=0) - mins[poly]
        bad = np.flatnonzero(np.isinf(ranges).any(axis=0) & np.isfinite(Xp).all(axis=0))
        if bad.size:
            raise FeatureError(int(bad[0]), "its range max - min overflows float64")
        Xs = minmax_scale(Xp, np.repeat(mins[poly], sizes, axis=0),
                          np.repeat(ranges[poly], sizes, axis=0))
        feats = interaction_feature_set(Xs) if basis.interactions else ()
        design = build_design_matrix(Xs, basis, feats)
        w, intercepts[poly] = ridge_solve_segments(design, yp, bounds, alpha)
        for k, j in enumerate(poly):
            y_leaf = yp[bounds[k]:bounds[k + 1]] / s
            mu, sd = s * y_leaf.mean(), s * y_leaf.std()
            lo[j], hi[j] = mu - 3.0 * sd, mu + 3.0 * sd
    weights = np.zeros((len(leaves), n_columns(X.shape[1], basis, len(feats))))
    weights[poly] = w
    return ChebyTreeModel(
        tree=tree,
        basis=basis,
        interaction_feats=tuple(feats),
        mins=mins,
        ranges=ranges,
        weights=weights,
        intercepts=intercepts,
        lo=lo,
        hi=hi,
        y_mean=float(s * ys.mean()),
        y_std=float(s * ys.std()),
    )


def fit_chebytree(
    X: np.ndarray,
    y: np.ndarray,
    complexity: int = 2,
    alpha: float = 1.0,
    max_depth: int = 4,
    min_samples_leaf: Count = 1,
    ctx: Optional[FitContext] = None,
) -> ChebyTreeModel:
    """Grow the routing tree on raw features, then fit one polynomial per leaf.

    A leaf with fewer than leaf_fallback_threshold(complexity) rows keeps its
    mean; every other leaf gets an interaction-free Chebyshev polynomial (see
    fit_leaves). The tree is grown over ctx's shared nodes when given (see
    cart_fit).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    check_alpha(alpha)  # checked here too, as leaves may all end up constant
    basis = BasisConfig(complexity=complexity)  # rejects a non-integer complexity
    tree = cart_fit(X, y, max_depth=max_depth, min_samples_leaf=min_samples_leaf,
                    min_samples_split=2, ctx=ctx)
    return fit_leaves(X, y, tree, basis, alpha, leaf_fallback_threshold(complexity))


def fit_chebypoly(
    X: np.ndarray,
    y: np.ndarray,
    complexity: int = 3,
    alpha: float = 1.0,
    interactions: int = 0,
) -> ChebyTreeModel:
    """Fit the Chebyshev regressor on raw (unscaled) features.

    interactions is 0 (none), 1 (pair products) or 2 (products and their T_2);
    see BasisConfig.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] != y.shape[0] or X.shape[0] < 2:
        raise ValueError("need matching X, y with at least 2 rows")
    check_alpha(alpha)
    basis = BasisConfig(complexity=complexity, interactions=interactions)
    return fit_leaves(X, y, cart_fit(X, y, max_depth=0), basis, alpha, min_rows=1)
