"""Uniform dispatch over the five model kinds.

The benchmark feeds every model raw (imputed) features: ridge standardizes
them inside fit_ridge, the tree baseline consumes them directly and the smooth
models run their own internal scaling. chebypoly and chebytree live in one
module, chebytree, and share one model class, ChebyTreeModel, one tree
builder, cart_fit, one leaf fitter, fit_leaves, and one model-file layout: a
chebypoly fit is a Chebyshev model tree grown to depth 0, so its root is its
one leaf.

A kind's hyperparameters are the keyword parameters of its fit function, with
their defaults; there is no second list of them.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Dict, Optional, Tuple

import numpy as np

# the fit functions are called by name from this namespace (see fit_model)
from .cart import RegressionTree, cart_fit
from .chebytree import ChebyTreeModel, fit_chebypoly, fit_chebytree
from .context import FitContext
from .erbf import ErbfModel, fit_erbf
from .linear import RidgeModel, fit_ridge

# kind -> (name of the fit function in this module,
#          model class with predict, to_dict and from_dict(d, n_features))
_MODELS = {
    "ridge": ("fit_ridge", RidgeModel),
    "dt": ("cart_fit", RegressionTree),
    "chebypoly": ("fit_chebypoly", ChebyTreeModel),
    "chebytree": ("fit_chebytree", ChebyTreeModel),
    "erbf": ("fit_erbf", ErbfModel),
}

MODEL_KINDS = tuple(_MODELS)


def _entry(kind: str):
    try:
        return _MODELS[kind]
    except KeyError:
        raise ValueError(f"unknown model kind {kind!r}; choose from {MODEL_KINDS}") from None


# the arguments besides X and y that a fit may take and that are no hyperparameters
_EXTRAS = ("seed", "ctx")


@functools.cache
def _signature(kind: str) -> tuple:
    """({hyperparameter: default}, the _EXTRAS the fit takes), read once per kind."""
    params = inspect.signature(globals()[_entry(kind)[0]]).parameters
    return ({name: p.default for name, p in params.items()
             if name not in ("X", "y") + _EXTRAS},
            tuple(name for name in _EXTRAS if name in params))


def hyperparameters(kind: str) -> Dict[str, Any]:
    """The kind's hyperparameter names and defaults, from its fit signature."""
    return dict(_signature(kind)[0])


def fit_model(kind: str, X: np.ndarray, y: np.ndarray, params: Dict[str, Any], seed: int = 0,
              ctx: Optional[FitContext] = None):
    """Fit a model of the given kind; params may hold only its fit's hyperparameters.

    seed and ctx (a FitContext made for X and y) go to the fits that take them.
    """
    names, extras = _signature(kind)
    for key in params:
        if key not in names:
            raise ValueError(f"{kind} has no hyperparameter {key!r}; choose from {list(names)}")
    # looked up on each call, so a function patched into this module is the one called
    fit = globals()[_MODELS[kind][0]]
    given = {"seed": seed, "ctx": ctx}
    try:
        return fit(X, y, **params, **{name: given[name] for name in extras})
    except TypeError as exc:  # a hyperparameter of the wrong type
        raise ValueError(f"{kind}: {exc}") from None


def predict_model(kind: str, model, X: np.ndarray, bounds: Tuple[float, float]) -> np.ndarray:
    """The model's predictions for X clipped to bounds: clip_bounds(y_train) or a file's clip."""
    return np.clip(model.predict(X), *bounds)


def model_from_dict(kind: str, d: dict, n_features: int):
    """Rebuild a fitted model of n_features inputs; a malformed one raises ValueError."""
    cls = _entry(kind)[1]
    try:
        return cls.from_dict(d, n_features)
    except KeyError as exc:
        raise ValueError(f"{kind} model: missing field {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"{kind} model: {exc}") from None
