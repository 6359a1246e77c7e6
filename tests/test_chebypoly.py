"""Tests for the global Chebyshev regressor and the ridge baseline.

Recovery oracles use targets built from known Chebyshev expansions of the
scaled features, so the fitted coefficients and predictions have closed-form
expectations. A chebypoly fit is a one-leaf ChebyTreeModel; the bitwise
oracle below rebuilds its prediction from the scaling, the design matrix and
the ridge solve directly.
"""

import json

import numpy as np
import pytest

from smoothbench.chebypoly import fit_chebypoly
from smoothbench.chebyshev import BasisConfig, build_design_matrix, interaction_feature_set
from smoothbench.chebytree import ChebyTreeModel
from smoothbench.data import minmax_scale
from smoothbench.linear import RidgeModel, fit_ridge
from smoothbench.numkit import ridge_solve
from smoothbench.registry import model_from_dict


def cheb_t(deg, x):
    return np.cos(deg * np.arccos(np.clip(x, -1, 1)))


def scale(X):
    """X min-max scaled by its own column ranges, as the fit scales it."""
    mins = X.min(axis=0)
    return minmax_scale(X, mins, X.max(axis=0) - mins)


def test_recovers_polynomial_target_exactly():
    # y is a degree-3 Chebyshev expansion of the scaled feature; with tiny
    # alpha the underlying fit reproduces it exactly, and the model output is
    # that target pushed through the mean +/- 3 std output clamp
    rng = np.random.default_rng(3)
    X = rng.uniform(-5, 5, size=(300, 1))
    xs = 2 * (X[:, 0] - X[:, 0].min()) / (X[:, 0].max() - X[:, 0].min()) - 1
    y = 2.0 + 1.5 * cheb_t(1, xs) - 0.7 * cheb_t(2, xs) + 0.25 * cheb_t(3, xs)
    model = fit_chebypoly(X, y, complexity=3, alpha=1e-10)
    clipped = np.clip(y, y.mean() - 3 * y.std(), y.mean() + 3 * y.std())
    assert np.abs(model.predict(X) - clipped).max() < 1e-6


def test_multifeature_additive_recovery():
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, size=(500, 3))
    # scaled feature values depend on per-column min/max; compute them the
    # same way the model will
    Z = scale(X)
    y = 1.0 + Z[:, 0] + (2 * Z[:, 1] ** 2 - 1) - 0.5 * Z[:, 2]
    model = fit_chebypoly(X, y, complexity=2, alpha=1e-10)
    assert np.abs(model.predict(X) - y).max() < 1e-6


def test_interaction_target_needs_interactions():
    rng = np.random.default_rng(7)
    X = rng.uniform(-1, 1, size=(600, 2))
    Z = scale(X)
    y = Z[:, 0] * Z[:, 1]
    plain = fit_chebypoly(X, y, complexity=3, alpha=1e-8)
    inter = fit_chebypoly(X, y, complexity=1, alpha=1e-8,
                          include_interactions=True)
    mse_plain = float(np.mean((plain.predict(X) - y) ** 2))
    mse_inter = float(np.mean((inter.predict(X) - y) ** 2))
    assert mse_inter < 1e-10
    assert mse_plain > 100 * max(mse_inter, 1e-12)


def test_constant_target():
    X = np.random.default_rng(1).normal(size=(50, 2))
    y = np.full(50, 4.2)
    model = fit_chebypoly(X, y, complexity=4, alpha=1.0)
    assert np.abs(model.predict(X) - 4.2).max() < 1e-8


def test_prediction_clip_containment_property():
    # predictions on wild out-of-range queries stay within mean +/- 3 std of
    # the training target
    rng = np.random.default_rng(11)
    for case in range(200):
        n = int(rng.integers(5, 60))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n) * rng.uniform(0.1, 10) + rng.uniform(-5, 5)
        model = fit_chebypoly(X, y, complexity=int(rng.integers(1, 6)),
                              alpha=float(rng.uniform(1e-6, 1.0)))
        Q = rng.normal(size=(10, d)) * 1e3
        preds = model.predict(Q)
        lo = y.mean() - 3 * y.std()
        hi = y.mean() + 3 * y.std()
        assert np.all(preds >= lo - 1e-12) and np.all(preds <= hi + 1e-12)


def test_determinism_bitwise():
    rng = np.random.default_rng(13)
    for case in range(200):
        n = int(rng.integers(4, 40))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        m1 = fit_chebypoly(X, y, complexity=3, alpha=0.1)
        m2 = fit_chebypoly(X, y, complexity=3, alpha=0.1)
        assert np.array_equal(m1.weights.view(np.uint64), m2.weights.view(np.uint64))
        assert np.array_equal(m1.intercepts.view(np.uint64), m2.intercepts.view(np.uint64))


def test_weight_norm_shrinks_with_alpha():
    rng = np.random.default_rng(17)
    for case in range(200):
        n = int(rng.integers(10, 60))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        a1 = float(rng.uniform(1e-4, 1.0))
        a2 = a1 * float(rng.uniform(2.0, 100.0))
        w1 = fit_chebypoly(X, y, complexity=2, alpha=a1).weights
        w2 = fit_chebypoly(X, y, complexity=2, alpha=a2).weights
        assert np.linalg.norm(w2) <= np.linalg.norm(w1) + 1e-10


def test_complexity_one_equals_ridge_on_scaled_features():
    # with c=1 and no interactions the basis is the identity on scaled
    # features, so the model must match a direct ridge fit to those features
    rng = np.random.default_rng(19)
    for case in range(50):
        n = int(rng.integers(10, 80))
        d = int(rng.integers(1, 5))
        X = rng.normal(size=(n, d)) * rng.uniform(0.5, 5)
        y = rng.normal(size=n)
        alpha = float(rng.uniform(0.01, 10))
        model = fit_chebypoly(X, y, complexity=1, alpha=alpha)

        Z = scale(X)
        w_ref, b_ref = ridge_solve(Z, y, alpha)
        raw_ref = Z @ w_ref + b_ref
        clip_ref = np.clip(raw_ref, y.mean() - 3 * y.std(), y.mean() + 3 * y.std())
        assert np.abs(model.predict(X) - clip_ref).max() < 1e-8


def test_serialization_round_trip():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(80, 4))
    y = rng.normal(size=80)
    model = fit_chebypoly(X, y, complexity=3, alpha=0.5,
                          include_interactions=True,
                          max_interaction_complexity=2)
    back = ChebyTreeModel.from_dict(json.loads(json.dumps(model.to_dict())), 4)
    Q = rng.normal(size=(30, 4)) * 2
    assert np.array_equal(model.predict(Q), back.predict(Q))
    assert back.basis == model.basis and back.interaction_feats == (0, 1, 2, 3)
    for name in ("mins", "ranges", "weights", "intercepts", "lo", "hi"):
        assert np.array_equal(getattr(back, name), getattr(model, name)), name


def test_model_is_a_one_leaf_chebytree_clipped_to_the_global_bounds():
    rng = np.random.default_rng(24)
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40) * 2.0 + 1.0
    model = fit_chebypoly(X, y, complexity=2, alpha=0.1)
    assert isinstance(model, ChebyTreeModel)
    assert model.tree.n_nodes == 1 and model.tree.leaf_ids == [0]
    assert model.basis == BasisConfig(2) and model.interaction_feats == ()
    assert model.mins.shape == model.ranges.shape == (1, 3)
    assert model.weights.shape == (1, 7) and model.intercepts.shape == (1,)
    assert model.lo.tolist() == [model.y_mean - 3.0 * model.y_std]
    assert model.hi.tolist() == [model.y_mean + 3.0 * model.y_std]


@pytest.mark.parametrize("params", [
    {"complexity": 3},
    {"complexity": 1, "include_interactions": True},
    {"complexity": 2, "include_interactions": True, "max_interaction_complexity": 2},
], ids=["no-interactions", "pairs", "pairs-and-t2"])
def test_predictions_equal_the_design_matrix_oracle_bit_for_bit(params):
    # the global regressor written out: scale by the training range, expand,
    # solve the ridge system, then clip to the target mean +/- 3 std
    rng = np.random.default_rng(25)
    for case in range(20):
        n, d = int(rng.integers(2, 200)), int(rng.integers(1, 8))
        X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10)
        y = np.sin(X[:, 0]) + rng.normal(size=n)
        if case % 2:
            X, y = np.round(X, 1), np.round(y, 1)
        alpha = float(rng.uniform(1e-6, 1.0))
        model = fit_chebypoly(X, y, alpha=alpha, **params)

        mins = X.min(axis=0)
        ranges = X.max(axis=0) - mins
        basis = BasisConfig(**params)
        Xs = minmax_scale(X, mins, ranges)
        feats = interaction_feature_set(Xs) if basis.include_interactions else ()
        w, b = ridge_solve(build_design_matrix(Xs, basis, feats).matrix, y, alpha)
        lo, hi = y.mean() - 3.0 * y.std(), y.mean() + 3.0 * y.std()

        Q = np.concatenate([X, rng.normal(size=(30, d)) * 20])  # in and out of range
        want = np.clip(build_design_matrix(minmax_scale(Q, mins, ranges), basis,
                                           feats).matrix @ w + b, lo, hi)
        assert np.array_equal(model.predict(Q), want)
        back = model_from_dict("chebypoly", json.loads(json.dumps(model.to_dict())), d)
        assert np.array_equal(back.predict(Q), want)


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_chebypoly(np.zeros((1, 2)), np.zeros(1), complexity=2, alpha=1.0)
    with pytest.raises(ValueError):
        fit_chebypoly(np.zeros((5, 2)), np.zeros(5), complexity=2, alpha=-1.0)
    with pytest.raises(ValueError):
        fit_chebypoly(np.zeros((5, 2)), np.zeros(5), complexity=0, alpha=1.0)


def test_y_std_is_population_convention():
    X = np.arange(8.0)[:, None]
    y = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 70.0])
    model = fit_chebypoly(X, y, complexity=1, alpha=1.0)
    assert model.y_std == pytest.approx(float(y.std()))  # divide-by-n


# ---------------------------------------------------------------------------
# ridge baseline


def test_ridge_baseline_recovers_linear_target():
    rng = np.random.default_rng(29)
    X = rng.normal(size=(200, 3)) * np.array([1.0, 10.0, 0.1])
    w_true = np.array([2.0, -1.0, 3.0])
    y = X @ w_true + 5.0
    model = fit_ridge(X, y, alpha=1e-8)
    assert np.abs(model.predict(X) - y).max() < 1e-6


def test_ridge_baseline_serialization():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(40, 2))
    y = rng.normal(size=40)
    model = fit_ridge(X, y, alpha=0.3)
    back = RidgeModel.from_dict(model.to_dict(), 2)
    Q = rng.normal(size=(9, 2))
    assert np.array_equal(model.predict(Q), back.predict(Q))
