"""Ridge regression baseline on standardized features."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Standardizer, check_finite
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
    def from_dict(cls, d: dict) -> "RidgeModel":
        model = cls(
            standardizer=Standardizer.from_dict(d["standardizer"]),
            weights=np.asarray(d["weights"], dtype=np.float64),
            intercept=float(d["intercept"]),
        )
        w, means, stds = model.weights, model.standardizer.means, model.standardizer.stds
        if not (w.ndim == 1 and w.shape == means.shape == stds.shape):
            raise ValueError(f"ridge model: weights, means and stds have shapes {w.shape}, "
                             f"{means.shape} and {stds.shape}; they need one equal length")
        check_finite("ridge model", weights=w, intercept=model.intercept)
        return model

    def check_width(self, d: int) -> None:
        """Reject a model fitted on another number of input features than d."""
        if self.weights.shape[0] != d:
            raise ValueError(f"ridge model: weights has {self.weights.shape[0]} entries "
                             f"for {d} input features")


def fit_ridge(X: np.ndarray, y: np.ndarray, alpha: float = 1.0) -> RidgeModel:
    """Standardize features, then solve ridge with an unpenalised intercept."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    std = Standardizer.fit(X)
    weights, intercept = ridge_solve(std.apply(X), y, alpha)
    return RidgeModel(standardizer=std, weights=weights, intercept=float(intercept))
