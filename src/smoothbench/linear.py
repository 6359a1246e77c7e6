"""Ridge regression baseline on standardized features."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Standardizer, read_array
from .numkit import ridge_solve


@dataclass
class RidgeModel:
    standardizer: Standardizer
    weights: np.ndarray
    intercept: float

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.standardizer.apply(X) @ self.weights + self.intercept

    def to_dict(self) -> dict:
        return {
            "standardizer": self.standardizer.to_dict(),
            "weights": self.weights.tolist(),
            "intercept": self.intercept,
        }

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "RidgeModel":
        return cls(
            weights=read_array("ridge model", d, "weights", (n_features,)),
            standardizer=Standardizer.from_dict(d["standardizer"], n_features),
            intercept=float(read_array("ridge model", d, "intercept", ())),
        )


def fit_ridge(X: np.ndarray, y: np.ndarray, alpha: float = 1.0) -> RidgeModel:
    """Standardize features, then solve ridge with an unpenalised intercept."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    std = Standardizer.fit(X)
    weights, intercept = ridge_solve(std.apply(X), y, alpha)
    return RidgeModel(standardizer=std, weights=weights, intercept=float(intercept))
