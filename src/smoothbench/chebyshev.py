"""Chebyshev polynomial basis expansion for tabular features.

Features are assumed pre-scaled to [-1, 1]. The design matrix holds a single
shared constant column followed by per-feature Chebyshev columns T_1..T_c, and
optionally pairwise interaction columns built from raw products of scaled
features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# above this many features only the top half by variance gets interaction terms
HIGH_DIM_THRESHOLD = 30


@dataclass(frozen=True)
class BasisConfig:
    """Basis shape: per-feature degree plus optional pairwise interactions.

    complexity is the Chebyshev truncation degree c >= 1. With interactions
    enabled, every eligible unordered feature pair (i, j) contributes the raw
    product x_i * x_j and, when max_interaction_complexity is 2, additionally
    T_2(x_i * x_j). When the feature count exceeds HIGH_DIM_THRESHOLD only the
    top ceil(d/2) features by variance stay eligible for interactions.
    """

    complexity: int
    include_interactions: bool = False
    max_interaction_complexity: int = 1

    def __post_init__(self):
        for name in ("complexity", "max_interaction_complexity"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.include_interactions, (bool, np.bool_)):
            raise ValueError(f"include_interactions must be true or false, "
                             f"got {self.include_interactions!r}")
        if self.complexity < 1:
            raise ValueError(f"complexity must be >= 1, got {self.complexity}")
        if self.max_interaction_complexity not in (1, 2):
            raise ValueError("max_interaction_complexity must be 1 or 2")
        # plain Python values, so that a model file holding them is JSON
        for name, kind in (("complexity", int), ("include_interactions", bool),
                           ("max_interaction_complexity", int)):
            object.__setattr__(self, name, kind(getattr(self, name)))


def cheb_eval(degree: int, x: np.ndarray) -> np.ndarray:
    """T_degree(x) via the iterative recurrence T_{n+1} = 2 x T_n - T_{n-1}."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    x = np.asarray(x, dtype=np.float64)
    t_prev = np.ones_like(x)
    if degree == 0:
        return t_prev
    t_cur = x.copy()
    for _ in range(degree - 1):
        t_prev, t_cur = t_cur, 2.0 * x * t_cur - t_prev
    return t_cur


def interaction_feature_set(X_scaled: np.ndarray) -> tuple[int, ...]:
    """Feature indices eligible for interaction terms.

    All features when d <= HIGH_DIM_THRESHOLD, otherwise the top ceil(d/2) by
    variance of the scaled training features. Returned sorted ascending so the
    pair enumeration order is deterministic.
    """
    d = X_scaled.shape[1]
    if d <= HIGH_DIM_THRESHOLD:
        return tuple(range(d))
    m = math.ceil(d / 2)
    variances = X_scaled.var(axis=0)
    # stable argsort on negated variances: ties resolve to the lower index
    top = np.argsort(-variances, kind="stable")[:m]
    return tuple(sorted(int(i) for i in top))


def n_columns(d: int, cfg: BasisConfig, n_inter_feats: int) -> int:
    """Design-matrix width: 1 + d*c + interaction pair columns."""
    p = 1 + d * cfg.complexity
    if cfg.include_interactions:
        pairs = n_inter_feats * (n_inter_feats - 1) // 2
        p += pairs * cfg.max_interaction_complexity
    return p


@dataclass(frozen=True)
class DesignMatrix:
    matrix: np.ndarray


def build_design_matrix(
    X_scaled: np.ndarray,
    cfg: BasisConfig,
    interaction_feats: Sequence[int],
) -> DesignMatrix:
    """Expand scaled features into the Chebyshev design matrix.

    Column order: the constant column, then T_1..T_c per feature in feature
    order, then per eligible pair (i, j) in lexicographic order the product
    x_i * x_j followed (if max_interaction_complexity is 2) by T_2 of it.
    interaction_feats is the eligible set chosen at fit time
    (interaction_feature_set of the training features); it is ignored
    without interactions.
    """
    X_scaled = np.asarray(X_scaled, dtype=np.float64)
    n, d = X_scaled.shape
    c = cfg.complexity
    feats = tuple(interaction_feats) if cfg.include_interactions else ()
    p = n_columns(d, cfg, len(feats))

    out = np.empty((n, p))
    out[:, 0] = 1.0
    # T[:, f, k] is column 1 + f*c + k of out: T_{k+1} of feature f
    T = out[:, 1:1 + d * c].reshape(n, d, c)
    T[:, :, 0] = X_scaled
    for k in range(1, c):  # T_{k+1} = 2 x T_k - T_{k-1}, with T_0 = 1
        T[:, :, k] = 2.0 * X_scaled * T[:, :, k - 1] - (T[:, :, k - 2] if k > 1 else 1.0)
    if cfg.include_interactions:
        # pairs (i, j), i < j, in lexicographic order, len(feats) pairs at a
        # time so that the gathered columns stay n x len(feats)
        a, b = np.triu_indices(len(feats), k=1)
        F = np.asarray(feats, dtype=np.intp)
        pairs = out[:, 1 + d * c:].reshape(n, a.size, cfg.max_interaction_complexity)
        step = max(1, len(feats))
        for s in range(0, a.size, step):
            block = slice(s, s + step)
            u = np.multiply(X_scaled[:, F[a[block]]], X_scaled[:, F[b[block]]],
                            out=pairs[:, block, 0])
            if cfg.max_interaction_complexity == 2:
                np.multiply(2.0 * u, u, out=pairs[:, block, 1])  # T_2(u) = 2 u u - 1
                pairs[:, block, 1] -= 1.0
    return DesignMatrix(matrix=out)
