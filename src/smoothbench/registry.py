"""Uniform dispatch over the five model kinds.

The benchmark feeds every model raw (imputed) features: ridge standardizes
them inside fit_ridge, the tree baseline consumes them directly and the smooth
models run their own internal scaling.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from .cart import RegressionTree, cart_fit
from .chebypoly import ChebyPolyModel, fit_chebypoly
from .chebytree import ChebyTreeModel, fit_chebytree
from .erbf import ErbfConfig, ErbfModel, fit_erbf
from .linear import RidgeModel, fit_ridge


def _fit_ridge(X, y, params, seed):
    return fit_ridge(X, y, alpha=params.get("alpha", 1.0))


def _fit_dt(X, y, params, seed):
    return cart_fit(
        X, y,
        max_depth=int(params.get("max_depth", 10)),
        min_samples_leaf=params.get("min_samples_leaf", 1),
        min_samples_split=params.get("min_samples_split", 2),
    )


def _fit_chebypoly(X, y, params, seed):
    return fit_chebypoly(
        X, y,
        complexity=int(params.get("complexity", 3)),
        alpha=params.get("alpha", 1.0),
        include_interactions=bool(params.get("include_interactions", False)),
        max_interaction_complexity=int(params.get("max_interaction_complexity", 1)),
    )


def _fit_chebytree(X, y, params, seed):
    return fit_chebytree(
        X, y,
        complexity=int(params.get("complexity", 2)),
        alpha=params.get("alpha", 1.0),
        max_depth=int(params.get("max_depth", 4)),
        min_samples_leaf=params.get("min_samples_leaf", 1),
    )


def _fit_erbf(X, y, params, seed):
    n_rbf = params.get("n_rbf", "auto")
    config = ErbfConfig(
        n_rbf=n_rbf if n_rbf == "auto" else int(n_rbf),
        alpha=params.get("alpha", 1.0),
        center_init=params.get("center_init", "lipschitz"),
        width_init=params.get("width_init", "local_ridge"),
        width_optim_iters=int(params.get("width_optim_iters", 30)),
        seed=seed,
    )
    return fit_erbf(X, y, config)


# kind -> (fit from search-space params,
#          model class with predict, to_dict, from_dict and check_width)
_MODELS = {
    "ridge": (_fit_ridge, RidgeModel),
    "dt": (_fit_dt, RegressionTree),
    "chebypoly": (_fit_chebypoly, ChebyPolyModel),
    "chebytree": (_fit_chebytree, ChebyTreeModel),
    "erbf": (_fit_erbf, ErbfModel),
}

MODEL_KINDS = tuple(_MODELS)


def _entry(kind: str):
    try:
        return _MODELS[kind]
    except KeyError:
        raise ValueError(f"unknown model kind {kind!r}; choose from {MODEL_KINDS}") from None


def fit_model(kind: str, X: np.ndarray, y: np.ndarray, params: Dict[str, Any], seed: int = 0):
    """Fit a model of the given kind with search-space parameters."""
    return _entry(kind)[0](X, y, params, seed)


def predict_model(kind: str, model, X: np.ndarray) -> np.ndarray:
    return model.predict(X)


def model_from_dict(kind: str, d: dict):
    """Rebuild a fitted model from its to_dict form; a malformed one raises ValueError."""
    cls = _entry(kind)[1]
    try:
        return cls.from_dict(d)
    except KeyError as exc:
        raise ValueError(f"{kind} model: missing field {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"{kind} model: {exc}") from None
