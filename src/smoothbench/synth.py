"""Synthetic regression dataset generators.

Every generator draws features first and the noise vector second from one
seeded RNG, so the feature matrix for a given (kind, n, seed) is identical at
any noise level, and noise_std = 0 makes the target an exact deterministic
function of the features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from .data import Dataset


def _f_friedman1(X: np.ndarray) -> np.ndarray:
    return (
        10.0 * np.sin(math.pi * X[:, 0] * X[:, 1])
        + 20.0 * (X[:, 2] - 0.5) ** 2
        + 10.0 * X[:, 3]
        + 5.0 * X[:, 4]
    )


def _f_step(X: np.ndarray) -> np.ndarray:
    return (
        2.0 * (X[:, 0] > 0)
        + 3.0 * (X[:, 1] > 0.5)
        - 1.5 * (X[:, 2] < -0.5)
        + 1.0 * ((X[:, 0] > 0) & (X[:, 1] > 0))
    )


def _f_piecewise(X: np.ndarray) -> np.ndarray:
    relu = lambda v: np.maximum(v, 0.0)
    return (
        2.0 * relu(X[:, 0])
        + 1.5 * relu(-X[:, 1])
        + relu(X[:, 2] - 0.5)
        - relu(X[:, 0] + X[:, 1])
    )


def _f_multithreshold(X: np.ndarray) -> np.ndarray:
    return (
        3.0 * (X[:, 0] > 0)
        + 2.0 * (X[:, 1] > 0.5)
        + 1.5 * (X[:, 2] < -0.3)
        + 1.0 * (np.abs(X[:, 3]) < 1)
        + 0.5 * ((X[:, 0] > 0) & (X[:, 1] > 0))
    )


@dataclass(frozen=True)
class SynthSpec:
    d: int
    default_n: int
    default_noise_std: float
    uniform01_features: bool  # False: standard normal features
    clean_fn: Callable[[np.ndarray], np.ndarray]


CATALOG: Dict[str, SynthSpec] = {
    "friedman1": SynthSpec(5, 2000, 0.0, True, _f_friedman1),
    "friedman1_d100": SynthSpec(100, 2000, 0.0, True, _f_friedman1),
    "synthetic_step": SynthSpec(8, 2000, 0.3, False, _f_step),
    "synthetic_piecewise": SynthSpec(5, 2000, 0.3, False, _f_piecewise),
    "synthetic_multithreshold": SynthSpec(6, 750, 0.3, False, _f_multithreshold),
}


def gen(kind: str, n: int = None, noise_std: float = None, seed: int = 0) -> Dataset:
    """Generate one of the catalogued synthetic datasets.

    n and noise_std default to the catalogue values for the kind. Feature
    columns are named x0..x{d-1} and the target is 'y'. Irrelevant features
    (friedman1_d100 beyond the first five) are drawn but never enter the
    target.
    """
    if kind not in CATALOG:
        raise ValueError(f"unknown synthetic dataset {kind!r}; "
                         f"choose from {sorted(CATALOG)}")
    spec = CATALOG[kind]
    if n is None:
        n = spec.default_n
    if noise_std is None:
        noise_std = spec.default_noise_std
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0 <= noise_std < np.inf:
        raise ValueError(f"noise_std must be non-negative and finite, got {noise_std}")
    rng = np.random.default_rng(seed)
    if spec.uniform01_features:
        X = rng.uniform(0.0, 1.0, size=(n, spec.d))
    else:
        X = rng.standard_normal(size=(n, spec.d))
    y = spec.clean_fn(X)
    if noise_std > 0:
        y = y + rng.normal(0.0, noise_std, size=n)
    names = tuple(f"x{j}" for j in range(spec.d))
    return Dataset(X, y, names, "y")

