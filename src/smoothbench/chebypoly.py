"""Global Chebyshev polynomial regressor with ridge-regularised coefficients.

Features are min-max scaled to [-1, 1] (clipping out-of-range queries), the
Chebyshev design matrix is solved by ridge with an unpenalised intercept, and
predictions are clamped to the training target mean +/- 3 standard deviations.

The fitted model is a ChebyTreeModel whose tree is one root leaf: its one row
holds the scaling, the weights and the intercept, and its leaf clip bounds are
the global ones. It predicts, saves and loads through that class.
"""

from __future__ import annotations

import numpy as np

from .cart import RegressionTree
from .chebyshev import BasisConfig, build_design_matrix, interaction_feature_set
from .chebytree import ChebyTreeModel
from .data import minmax_scale
from .numkit import check_alpha, ridge_solve


def fit_chebypoly(
    X: np.ndarray,
    y: np.ndarray,
    complexity: int = 3,
    alpha: float = 1.0,
    include_interactions: bool = False,
    max_interaction_complexity: int = 1,
) -> ChebyTreeModel:
    """Fit the Chebyshev regressor on raw (unscaled) features."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] != y.shape[0] or X.shape[0] < 2:
        raise ValueError("need matching X, y with at least 2 rows")
    check_alpha(alpha)
    basis = BasisConfig(
        complexity=complexity,
        include_interactions=include_interactions,
        max_interaction_complexity=max_interaction_complexity,
    )
    mins = X.min(axis=0)
    ranges = X.max(axis=0) - mins
    Xs = minmax_scale(X, mins, ranges)
    feats = interaction_feature_set(Xs) if include_interactions else ()
    design = build_design_matrix(Xs, basis, feats)
    weights, intercept = ridge_solve(design.matrix, y, alpha)
    y_mean, y_std = float(y.mean()), float(y.std())
    # a root-only tree, built here: cart_fit would sort every column first
    root = RegressionTree(feature=np.full(1, -1), threshold=np.zeros(1),
                          left=np.full(1, -1), right=np.full(1, -1), value=np.full(1, y_mean))
    return ChebyTreeModel(
        tree=root,
        basis=basis,
        interaction_feats=tuple(feats),
        mins=mins[None],
        ranges=ranges[None],
        weights=weights[None],
        intercepts=np.full(1, float(intercept)),
        lo=np.full(1, y_mean - 3.0 * y_std),
        hi=np.full(1, y_mean + 3.0 * y_std),
        y_mean=y_mean,
        y_std=y_std,
    )
