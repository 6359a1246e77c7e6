"""Global Chebyshev polynomial regressor with ridge-regularised coefficients.

Features are min-max scaled to [-1, 1] (clipping out-of-range queries), the
Chebyshev design matrix is solved by ridge with an unpenalised intercept, and
predictions are clamped to the training target mean +/- 3 standard deviations.

It is a Chebyshev model tree with one root leaf that holds every row: the fit
builds that root and hands it to chebytree.fit_leaves, and the model
predicts, saves and loads as a ChebyTreeModel. Its leaf clip bounds are the
global ones.
"""

from __future__ import annotations

import numpy as np

from .cart import RegressionTree
from .chebyshev import BasisConfig
from .chebytree import ChebyTreeModel, fit_leaves
from .numkit import check_alpha


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
    # a root-only tree, built here: cart_fit would sort every column first
    root = RegressionTree(feature=np.full(1, -1), threshold=np.zeros(1),
                          left=np.full(1, -1), right=np.full(1, -1),
                          value=np.full(1, float(y.mean())),
                          leaf_rows={0: np.arange(X.shape[0])})
    return fit_leaves(X, y, root, basis, alpha, min_rows=1)
