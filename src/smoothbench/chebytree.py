"""Chebyshev model tree: CART routing with a Chebyshev polynomial per leaf.

Each leaf that holds enough rows gets its own interaction-free Chebyshev
regressor (with its own per-leaf feature scaler); undersized leaves fall back
to their training mean. Final predictions are clipped to the whole training
target's mean +/- 3 standard deviations.

Fit and predict handle all polynomial leaves in one batched pass: rows are
grouped by leaf, scaled with their own leaf's ranges, expanded by one design
matrix call, and the per-leaf ridge systems are solved stacked. Working
memory is O(N*p + L*p^2) for N rows, L polynomial leaves and p columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

import numpy as np

from .cart import Count, RegressionTree, cart_fit, cart_route
from .chebypoly import ChebyPolyModel
from .chebyshev import BasisConfig, build_design_matrix
from .data import MinMaxScaler, minmax_scale, read_array, read_int_array
from .numkit import ridge_solve_segments


def leaf_fallback_threshold(complexity: int) -> int:
    """Minimum leaf size that still gets a polynomial: max(2*(c+1), 10)."""
    return max(2 * (complexity + 1), 10)


@dataclass
class ChebyTreeModel:
    tree: RegressionTree
    leaf_models: Dict[int, Union[ChebyPolyModel, float]]
    complexity: int
    y_mean: float
    y_std: float

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        leaves = cart_route(self.tree, X)
        order = np.argsort(leaves, kind="stable")
        groups, starts = np.unique(leaves[order], return_index=True)
        bounds = np.append(starts, X.shape[0])
        out = np.empty(X.shape[0])
        poly = []  # (leaf model, rows of X) per polynomial leaf
        for j, leaf in enumerate(groups):
            model = self.leaf_models[int(leaf)]
            rows = order[bounds[j]:bounds[j + 1]]
            if isinstance(model, float):
                out[rows] = model
            else:
                poly.append((model, rows))
        if poly:
            sizes = [rows.shape[0] for _, rows in poly]
            mins = np.repeat([m.scaler.mins for m, _ in poly], sizes, axis=0)
            ranges = np.repeat([m.scaler.ranges for m, _ in poly], sizes, axis=0)
            Xs = minmax_scale(X[np.concatenate([rows for _, rows in poly])], mins, ranges)
            design = build_design_matrix(Xs, BasisConfig(self.complexity), ()).matrix
            s = 0
            for (model, leaf_rows), m in zip(poly, sizes):
                raw = design[s:s + m] @ model.weights + model.intercept
                out[leaf_rows] = np.clip(raw, model.y_mean - 3.0 * model.y_std,
                                         model.y_mean + 3.0 * model.y_std)
                s += m
        lo = self.y_mean - 3.0 * self.y_std
        hi = self.y_mean + 3.0 * self.y_std
        return np.clip(out, lo, hi)

    def to_dict(self) -> dict:
        leaves = {}
        for leaf, model in self.leaf_models.items():
            if isinstance(model, float):
                leaves[str(leaf)] = {"kind": "constant", "value": model}
            else:
                leaves[str(leaf)] = {"kind": "chebypoly", "model": model.to_dict()}
        return {
            "tree": self.tree.to_dict(),
            "leaf_models": leaves,
            "complexity": self.complexity,
            "y_mean": self.y_mean,
            "y_std": self.y_std,
        }

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "ChebyTreeModel":
        """Rebuild a model, reading the tree and every leaf at n_features so leaves stack."""
        tree = RegressionTree.from_dict(d["tree"], n_features)
        c = int(read_int_array("chebytree model", d, "complexity", ()))
        leaf_models: Dict[int, Union[ChebyPolyModel, float]] = {}
        for key, entry in d["leaf_models"].items():
            if entry["kind"] == "constant":
                leaf_models[int(key)] = float(read_array(f"chebytree leaf {key}", entry,
                                                         "value", ()))
                continue
            try:
                m = ChebyPolyModel.from_dict(entry["model"], n_features)
            except ValueError as exc:
                raise ValueError(f"chebytree leaf {key}: {exc}") from None
            if m.basis.complexity != c or m.basis.include_interactions:
                raise ValueError(f"chebytree leaf {key}: basis is not the model's "
                                 f"interaction-free complexity {c}")
            leaf_models[int(key)] = m
        if set(leaf_models) != set(tree.leaf_ids):
            raise ValueError(f"chebytree model: leaf models {sorted(leaf_models)} do not "
                             f"match the tree's leaves {tree.leaf_ids}")
        return cls(
            tree=tree,
            leaf_models=leaf_models,
            complexity=c,
            y_mean=float(read_array("chebytree model", d, "y_mean", ())),
            y_std=float(read_array("chebytree model", d, "y_std", ())),
        )


def fit_chebytree(
    X: np.ndarray,
    y: np.ndarray,
    complexity: int = 2,
    alpha: float = 1.0,
    max_depth: int = 4,
    min_samples_leaf: Count = 1,
) -> ChebyTreeModel:
    """Grow the routing tree on raw features, then fit one polynomial per leaf.

    The polynomial-vs-constant choice per leaf is made once at training time
    from the leaf's row count. Each polynomial leaf equals fit_chebypoly on
    that leaf's rows without interactions; all of them are fitted in one pass.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if alpha < 0:  # checked here too, as leaves may all end up constant
        raise ValueError("alpha must be non-negative")
    basis = BasisConfig(complexity=complexity)  # rejects a non-integer complexity
    tree = cart_fit(X, y, max_depth=max_depth, min_samples_leaf=min_samples_leaf,
                    min_samples_split=2)
    threshold = leaf_fallback_threshold(complexity)
    poly = [leaf for leaf in tree.leaf_ids if tree.leaf_rows[leaf].shape[0] >= threshold]
    polys: Dict[int, ChebyPolyModel] = {}
    if poly:
        # leaf_rows are ascending, so concatenating them groups rows stably by leaf
        rows = [tree.leaf_rows[leaf] for leaf in poly]
        sizes = [r.shape[0] for r in rows]
        rows = np.concatenate(rows)
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        Xp, yp = X[rows], y[rows]
        mins = np.minimum.reduceat(Xp, bounds[:-1], axis=0)
        ranges = np.maximum.reduceat(Xp, bounds[:-1], axis=0) - mins
        Xs = minmax_scale(Xp, np.repeat(mins, sizes, axis=0),
                          np.repeat(ranges, sizes, axis=0))
        design = build_design_matrix(Xs, basis, ())
        weights, intercepts = ridge_solve_segments(design.matrix, yp, bounds, alpha)
        for j, leaf in enumerate(poly):
            y_leaf = yp[bounds[j]:bounds[j + 1]]
            polys[leaf] = ChebyPolyModel(
                basis=basis,
                scaler=MinMaxScaler(mins=mins[j], ranges=ranges[j]),
                interaction_feats=(),
                weights=weights[j],
                intercept=float(intercepts[j]),
                y_mean=float(y_leaf.mean()),
                y_std=float(y_leaf.std()),
            )
    leaf_models: Dict[int, Union[ChebyPolyModel, float]] = {
        leaf: polys[leaf] if leaf in polys else float(y[tree.leaf_rows[leaf]].mean())
        for leaf in tree.leaf_ids
    }
    return ChebyTreeModel(
        tree=tree,
        leaf_models=leaf_models,
        complexity=int(complexity),
        y_mean=float(y.mean()),
        y_std=float(y.std()),
    )
