"""Global Chebyshev polynomial regressor with ridge-regularised coefficients.

Features are min-max scaled to [-1, 1] (clipping out-of-range queries), the
Chebyshev design matrix is solved by ridge with an unpenalised intercept, and
predictions are clamped to the training target mean +/- 3 standard deviations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chebyshev import BasisConfig, build_design_matrix, interaction_feature_set, n_columns
from .data import MinMaxScaler, read_array, read_int_array
from .numkit import ridge_solve


@dataclass
class ChebyPolyModel:
    basis: BasisConfig
    scaler: MinMaxScaler
    interaction_feats: tuple[int, ...]
    weights: np.ndarray
    intercept: float
    y_mean: float
    y_std: float

    def predict(self, X: np.ndarray) -> np.ndarray:
        Xs = self.scaler.apply(X)
        design = build_design_matrix(Xs, self.basis, self.interaction_feats)
        raw = design.matrix @ self.weights + self.intercept
        lo = self.y_mean - 3.0 * self.y_std
        hi = self.y_mean + 3.0 * self.y_std
        return np.clip(raw, lo, hi)

    def to_dict(self) -> dict:
        return {
            "basis": {
                "complexity": self.basis.complexity,
                "include_interactions": self.basis.include_interactions,
                "max_interaction_complexity": self.basis.max_interaction_complexity,
            },
            "scaler": self.scaler.to_dict(),
            "interaction_feats": list(self.interaction_feats),
            "weights": self.weights.tolist(),
            "intercept": self.intercept,
            "y_mean": self.y_mean,
            "y_std": self.y_std,
        }

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "ChebyPolyModel":
        owner = "chebypoly model"
        basis = BasisConfig(**d["basis"])
        feats = tuple(int(i) for i in read_int_array(owner, d, "interaction_feats", (None,)))
        if not all(0 <= i < n_features for i in feats):
            raise ValueError(f"chebypoly model: interaction_feats {list(feats)} are not all "
                             f"feature indices below {n_features}")
        return cls(
            basis=basis,
            scaler=MinMaxScaler.from_dict(d["scaler"], n_features),
            interaction_feats=feats,
            weights=read_array(owner, d, "weights", (n_columns(n_features, basis, len(feats)),)),
            intercept=float(read_array(owner, d, "intercept", ())),
            y_mean=float(read_array(owner, d, "y_mean", ())),
            y_std=float(read_array(owner, d, "y_std", ())),
        )


def fit_chebypoly(
    X: np.ndarray,
    y: np.ndarray,
    complexity: int = 3,
    alpha: float = 1.0,
    include_interactions: bool = False,
    max_interaction_complexity: int = 1,
) -> ChebyPolyModel:
    """Fit the Chebyshev regressor on raw (unscaled) features."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] != y.shape[0] or X.shape[0] < 2:
        raise ValueError("need matching X, y with at least 2 rows")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    basis = BasisConfig(
        complexity=complexity,
        include_interactions=include_interactions,
        max_interaction_complexity=max_interaction_complexity,
    )
    scaler = MinMaxScaler.fit(X)
    Xs = scaler.apply(X)
    feats = interaction_feature_set(Xs) if include_interactions else ()
    design = build_design_matrix(Xs, basis, feats)
    weights, intercept = ridge_solve(design.matrix, y, alpha)
    return ChebyPolyModel(
        basis=basis,
        scaler=scaler,
        interaction_feats=tuple(feats),
        weights=weights,
        intercept=float(intercept),
        y_mean=float(y.mean()),
        y_std=float(y.std()),
    )
