"""Global Chebyshev polynomial regressor with ridge-regularised coefficients.

Features are min-max scaled to [-1, 1] (clipping out-of-range queries), the
Chebyshev design matrix is solved by ridge with an unpenalised intercept, and
predictions are clamped to the training target mean +/- 3 standard deviations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chebyshev import BasisConfig, build_design_matrix, interaction_feature_set, n_columns
from .data import MinMaxScaler, check_finite
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
    def from_dict(cls, d: dict) -> "ChebyPolyModel":
        model = cls(
            basis=BasisConfig(**d["basis"]),
            scaler=MinMaxScaler.from_dict(d["scaler"]),
            interaction_feats=tuple(int(i) for i in d["interaction_feats"]),
            weights=np.asarray(d["weights"], dtype=np.float64),
            intercept=float(d["intercept"]),
            y_mean=float(d["y_mean"]),
            y_std=float(d["y_std"]),
        )
        mins, ranges, w = model.scaler.mins, model.scaler.ranges, model.weights
        if not (mins.ndim == 1 and mins.shape == ranges.shape):
            raise ValueError(f"chebypoly model: scaler has {mins.size} mins but "
                             f"{ranges.size} ranges")
        n_feats = mins.shape[0]
        if not all(0 <= i < n_feats for i in model.interaction_feats):
            raise ValueError(f"chebypoly model: interaction_feats {list(model.interaction_feats)}"
                             f" are not all feature indices below {n_feats}")
        p = n_columns(n_feats, model.basis, len(model.interaction_feats))
        if w.shape != (p,):
            raise ValueError(f"chebypoly model: weights has {w.size} entries, expected {p}")
        check_finite("chebypoly model", mins=mins, ranges=ranges, weights=w,
                     intercept=model.intercept, y_mean=model.y_mean, y_std=model.y_std)
        return model

    def check_width(self, d: int) -> None:
        """Reject a model fitted on another number of input features than d."""
        if self.scaler.mins.shape[0] != d:
            raise ValueError(f"chebypoly model: scaler mins has {self.scaler.mins.shape[0]} "
                             f"entries for {d} input features")


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
    feats = interaction_feature_set(Xs, basis) if include_interactions else ()
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
