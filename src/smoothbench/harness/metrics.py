"""Accuracy metrics and the prediction clipping bound used across the harness."""

from __future__ import annotations

import numpy as np

# score assigned to failed trials / degenerate denominators
FAILURE_SCORE = -1e9


def r2(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination. A constant target scores 1 only when
    predictions are exact, FAILURE_SCORE otherwise."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape:
        raise ValueError("shape mismatch between y_true and y_pred")
    resid = y_true - y_pred
    ss_res = float(resid @ resid)
    centered = y_true - y_true.mean()
    ss_tot = float(centered @ centered)
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else FAILURE_SCORE
    return 1.0 - ss_res / ss_tot


def adjusted_r2(r2_value: float, n: int, d: int) -> float:
    """Sample-size/dimension adjusted R^2: 1 - (1 - R^2)(n - 1)/(n - d - 1).

    Falls back to the unadjusted value when n <= d + 1, where the correction
    is undefined or sign-flipping.
    """
    if n <= d + 1:
        return r2_value
    return 1.0 - (1.0 - r2_value) * (n - 1) / (n - d - 1)


def clip_bounds(y_train: np.ndarray) -> tuple[float, float]:
    """[min(y_train) - 3 sd, max(y_train) + 3 sd], sd the population standard deviation."""
    y_train = np.asarray(y_train, dtype=np.float64)
    sd = float(y_train.std())
    return float(y_train.min()) - 3.0 * sd, float(y_train.max()) + 3.0 * sd
