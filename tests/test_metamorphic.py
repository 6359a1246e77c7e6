"""Metamorphic relations: transforms of the inputs whose effect on a fit is known exactly.

Multiplying by a power of two is exact in float64 while nothing overflows or
underflows, and every step of these fits commutes with it, so each relation
compares bits. Scaling the features by 2^k leaves every kind's predictions
as they were; scaling the target by 2^k scales the predictions of the kinds
whose fits are linear in y. A strictly increasing map of one feature keeps
its order, and the trees split by order, so dt and chebytree route every
training row to the same leaf. Test rows between two training values may
route differently, so that relation covers training rows only.
"""

import functools

import numpy as np
import pytest

from smoothbench.cart import cart_route
from smoothbench.registry import MODEL_KINDS, fit_model
from smoothbench.synth import gen

DATASETS = ("friedman1", "synthetic_piecewise")


@functools.cache
def _data(dataset):
    train, query = gen(dataset, n=240, seed=7), gen(dataset, n=60, seed=8)
    return train.X, train.y, query.X


@functools.cache
def _reference(dataset, kind, params=()):
    X, y, Q = _data(dataset)
    return fit_model(kind, X, y, dict(params), seed=0).predict(Q)


@pytest.mark.parametrize("k", [-10, 10])
@pytest.mark.parametrize("kind,params", [
    ("ridge", ()), ("dt", ()), ("chebypoly", ()),
    pytest.param("chebypoly", (("interactions", 2),), id="chebypoly-interactions2"),
    ("chebytree", ()), pytest.param("chebytree", (("max_depth", 6),), id="chebytree-depth6")])
@pytest.mark.parametrize("dataset", DATASETS)
def test_target_scale_scales_predictions(dataset, kind, params, k):
    X, y, Q = _data(dataset)
    got = fit_model(kind, X, y * 2.0 ** k, dict(params), seed=0).predict(Q)
    assert got.tobytes() == (_reference(dataset, kind, params) * 2.0 ** k).tobytes()


@pytest.mark.parametrize("k", [-20, 20, 500])
@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("dataset", DATASETS)
def test_feature_scale_keeps_predictions(dataset, kind, k):
    X, y, Q = _data(dataset)
    got = fit_model(kind, X * 2.0 ** k, y, {}, seed=0).predict(Q * 2.0 ** k)
    assert got.tobytes() == _reference(dataset, kind).tobytes()


@pytest.mark.parametrize("kind", ["dt", "chebytree"])
@pytest.mark.parametrize("dataset", DATASETS)
def test_increasing_map_of_a_feature_keeps_training_routes(dataset, kind):
    X, y, _ = _data(dataset)
    Xe = X.copy()
    Xe[:, 0] = np.exp(X[:, 0])
    assert np.array_equal(np.argsort(Xe[:, 0]), np.argsort(X[:, 0]))
    trees = []
    for A in (X, Xe):
        model = fit_model(kind, A, y, {}, seed=0)
        trees.append(model if kind == "dt" else model.tree)
    assert (trees[0].feature == 0).any()  # column 0 is split on, so the map is seen
    assert np.array_equal(trees[0].feature, trees[1].feature)
    assert np.array_equal(cart_route(trees[0], X), cart_route(trees[1], Xe))
