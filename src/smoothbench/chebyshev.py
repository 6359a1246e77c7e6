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

    complexity is the Chebyshev truncation degree c >= 1. interactions is 0
    (no pair columns), 1 (every eligible unordered feature pair (i, j)
    contributes the raw product x_i * x_j) or 2 (the product and T_2 of it).
    When the feature count exceeds HIGH_DIM_THRESHOLD only the top ceil(d/2)
    features by variance stay eligible for interactions.
    """

    complexity: int
    interactions: int = 0

    def __post_init__(self):
        for name in ("complexity", "interactions"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            # a plain Python int, so that a model file holding it is JSON
            object.__setattr__(self, name, int(value))
        if self.complexity < 1:
            raise ValueError(f"complexity must be >= 1, got {self.complexity}")
        if self.interactions not in (0, 1, 2):
            raise ValueError(f"interactions must be 0, 1 or 2, got {self.interactions}")


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
    """Design-matrix width: 1 + d*c + interactions columns per eligible pair."""
    pairs = n_inter_feats * (n_inter_feats - 1) // 2
    return 1 + d * cfg.complexity + pairs * cfg.interactions


def build_design_matrix(
    X_scaled: np.ndarray,
    cfg: BasisConfig,
    interaction_feats: Sequence[int],
) -> np.ndarray:
    """Expand scaled features into the Chebyshev design matrix, an (n, p) array.

    Column order: the constant column, then T_1..T_c per feature in feature
    order, then per eligible pair (i, j) in lexicographic order the product
    x_i * x_j followed (if interactions is 2) by T_2 of it.
    interaction_feats is the eligible set chosen at fit time
    (interaction_feature_set of the training features); it is ignored
    without interactions.
    """
    X_scaled = np.asarray(X_scaled, dtype=np.float64)
    n, d = X_scaled.shape
    c = cfg.complexity
    feats = tuple(interaction_feats) if cfg.interactions else ()
    p = n_columns(d, cfg, len(feats))

    out = np.empty((n, p))
    out[:, 0] = 1.0
    # T[:, f, k] is column 1 + f*c + k of out: T_{k+1} of feature f
    T = out[:, 1:1 + d * c].reshape(n, d, c)
    T[:, :, 0] = X_scaled
    for k in range(1, c):  # T_{k+1} = 2 x T_k - T_{k-1}, with T_0 = 1
        T[:, :, k] = 2.0 * X_scaled * T[:, :, k - 1] - (T[:, :, k - 2] if k > 1 else 1.0)
    if cfg.interactions:
        # pairs (i, j), i < j, in lexicographic order, len(feats) pairs at a
        # time so that the gathered columns stay n x len(feats)
        a, b = np.triu_indices(len(feats), k=1)
        F = np.asarray(feats, dtype=np.intp)
        pairs = out[:, 1 + d * c:].reshape(n, a.size, cfg.interactions)
        step = max(1, len(feats))
        for s in range(0, a.size, step):
            block = slice(s, s + step)
            u = np.multiply(X_scaled[:, F[a[block]]], X_scaled[:, F[b[block]]],
                            out=pairs[:, block, 0])
            if cfg.interactions == 2:
                np.multiply(2.0 * u, u, out=pairs[:, block, 1])  # T_2(u) = 2 u u - 1
                pairs[:, block, 1] -= 1.0
    return out
