"""Tests for the Chebyshev model tree: leaf model selection, the single-leaf
equivalence with the global polynomial, per-leaf affine structure, and the
piecewise-linear recovery case the routing + linear-leaf combination is built
for.
"""

import numpy as np
import pytest

from smoothbench.chebypoly import ChebyPolyModel, fit_chebypoly
from smoothbench.chebytree import (
    ChebyTreeModel,
    fit_chebytree,
    leaf_fallback_threshold,
)
from smoothbench.cart import cart_fit, cart_route
from smoothbench.chebyshev import build_design_matrix
from smoothbench.harness.search import SPACES
from smoothbench.synth import gen


def test_leaf_fallback_threshold_formula():
    # max(2*(c+1), 10)
    assert leaf_fallback_threshold(1) == 10
    assert leaf_fallback_threshold(4) == 10
    assert leaf_fallback_threshold(5) == 12
    assert leaf_fallback_threshold(9) == 20


def test_undersized_leaves_fall_back_to_constants():
    # left cluster: 10 rows (exactly at the threshold -> polynomial);
    # right cluster: 9 rows (one short -> constant)
    x_left = np.linspace(-1.0, -0.5, 10)
    x_right = np.linspace(1.0, 1.5, 9)
    X = np.concatenate([x_left, x_right])[:, None]
    y = np.concatenate([2 * x_left + 1, np.full(9, 5.0) + 0.01 * x_right])
    model = fit_chebytree(X, y, complexity=1, alpha=1e-8, max_depth=1)

    leaves = model.tree.leaf_ids
    assert len(leaves) == 2
    sizes = {leaf: model.tree.leaf_rows[leaf].size for leaf in leaves}
    for leaf in leaves:
        if sizes[leaf] >= 10:
            assert isinstance(model.leaf_models[leaf], ChebyPolyModel)
        else:
            assert isinstance(model.leaf_models[leaf], float)
            rows = model.tree.leaf_rows[leaf]
            assert model.leaf_models[leaf] == float(y[rows].mean())


def test_negative_alpha_is_refused_even_when_every_leaf_is_constant():
    rng = np.random.default_rng(30)
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    # depth 6 on these 40 rows leaves no leaf big enough for a polynomial, so
    # the ridge solve that also checks alpha never runs
    model = fit_chebytree(X, y, alpha=1.0, max_depth=6)
    assert all(isinstance(m, float) for m in model.leaf_models.values())
    with pytest.raises(ValueError, match="alpha must be non-negative"):
        fit_chebytree(X, y, alpha=-5.0, max_depth=6)


def test_single_leaf_equals_global_chebypoly():
    rng = np.random.default_rng(73)
    for case in range(25):
        n = int(rng.integers(12, 80))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        c = int(rng.integers(1, 4))
        alpha = float(rng.uniform(1e-4, 1.0))
        tree_model = fit_chebytree(X, y, complexity=c, alpha=alpha, max_depth=0)
        poly = fit_chebypoly(X, y, complexity=c, alpha=alpha,
                             include_interactions=False)
        Q = rng.normal(size=(30, d)) * 2
        assert np.abs(tree_model.predict(Q) - poly.predict(Q)).max() < 1e-10


def test_leaf_predictions_are_affine_with_complexity_one():
    # with c=1 each leaf polynomial is affine in the raw leaf features: a
    # least-squares plane fit to the leaf's predictions has ~zero residual
    rng = np.random.default_rng(79)
    X = rng.uniform(-1, 1, size=(400, 2))
    y = X[:, 0] + 0.05 * X[:, 0] ** 2 - 0.5 * X[:, 1] + 0.3
    model = fit_chebytree(X, y, complexity=1, alpha=1e-8, max_depth=2,
                          min_samples_leaf=30)
    preds = model.predict(X)
    # the construction must not engage either clip window, otherwise the
    # affine check would be vacuous
    lo = model.y_mean - 3 * model.y_std
    hi = model.y_mean + 3 * model.y_std
    assert preds.min() > lo + 1e-6 and preds.max() < hi - 1e-6

    leaves = cart_route(model.tree, X)
    checked = 0
    for leaf in model.tree.leaf_ids:
        rows = np.flatnonzero(leaves == leaf)
        if rows.size < 4 or isinstance(model.leaf_models[leaf], float):
            continue
        A = np.column_stack([X[rows], np.ones(rows.size)])
        coef, *_ = np.linalg.lstsq(A, preds[rows], rcond=None)
        assert np.abs(A @ coef - preds[rows]).max() < 1e-8
        checked += 1
    assert checked >= 2


def test_piecewise_linear_target_recovered_near_exactly():
    # hinge target with a sampling gap around the kink: the variance split
    # lands in the gap, one leaf is constant-zero, the other exactly linear,
    # so training R^2 is essentially 1
    rng = np.random.default_rng(83)
    x = np.concatenate([rng.uniform(-1.0, -0.5, 100), rng.uniform(0.5, 1.0, 100)])
    X = x[:, None]
    y = np.maximum(x, 0.0)
    model = fit_chebytree(X, y, complexity=1, alpha=1e-10, max_depth=1)

    # the split falls inside the gap
    thr = float(model.tree.threshold[0])
    assert -0.5 <= thr <= 0.5

    preds = model.predict(X)
    ss_res = float(((preds - y) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    assert 1.0 - ss_res / ss_tot >= 0.999


def test_every_query_uses_exactly_one_leaf_model():
    # recomposing predictions from the routed leaf models reproduces
    # predict() exactly, confirming the partition property
    rng = np.random.default_rng(89)
    X = rng.normal(size=(150, 3))
    y = rng.normal(size=150)
    model = fit_chebytree(X, y, complexity=2, alpha=0.1, max_depth=3)
    Q = rng.normal(size=(80, 3)) * 2
    leaves = cart_route(model.tree, Q)

    # leaf-batched recomposition mirrors predict()'s grouping exactly
    manual = np.empty(80)
    for leaf in np.unique(leaves):
        rows = np.flatnonzero(leaves == leaf)
        m = model.leaf_models[int(leaf)]
        manual[rows] = m if isinstance(m, float) else m.predict(Q[rows])
    manual = np.clip(manual, model.y_mean - 3 * model.y_std,
                     model.y_mean + 3 * model.y_std)
    assert np.array_equal(model.predict(Q), manual)

    # row-at-a-time recomposition agrees up to BLAS accumulation order
    single = np.empty(80)
    for i in range(80):
        m = model.leaf_models[int(leaves[i])]
        single[i] = m if isinstance(m, float) else m.predict(Q[i:i + 1])[0]
    single = np.clip(single, model.y_mean - 3 * model.y_std,
                     model.y_mean + 3 * model.y_std)
    assert np.abs(model.predict(Q) - single).max() < 1e-9


def test_global_clip_containment_property():
    rng = np.random.default_rng(97)
    for case in range(200):
        n = int(rng.integers(12, 60))
        d = int(rng.integers(1, 3))
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n) * rng.uniform(0.5, 5)
        model = fit_chebytree(X, y, complexity=int(rng.integers(1, 4)),
                              alpha=float(rng.uniform(1e-6, 1.0)),
                              max_depth=int(rng.integers(0, 4)))
        Q = rng.normal(size=(8, d)) * 1e3
        preds = model.predict(Q)
        lo = y.mean() - 3 * y.std()
        hi = y.mean() + 3 * y.std()
        assert np.all(preds >= lo - 1e-12) and np.all(preds <= hi + 1e-12)


def test_serialization_round_trip():
    rng = np.random.default_rng(101)
    X = rng.normal(size=(120, 2))
    y = np.sin(X[:, 0]) + rng.normal(size=120) * 0.1
    model = fit_chebytree(X, y, complexity=2, alpha=0.01, max_depth=3)
    back = ChebyTreeModel.from_dict(model.to_dict(), 2)
    Q = rng.normal(size=(50, 2)) * 2
    assert np.array_equal(model.predict(Q), back.predict(Q))
    # both constant and polynomial leaves survive the round trip
    kinds = {type(m) for m in model.leaf_models.values()}
    assert kinds == {type(m) for m in back.leaf_models.values()}


def test_beats_single_polynomial_on_stepwise_target():
    # sanity check of the model's purpose: routing + local fits capture a
    # discontinuous target a single global polynomial smooths over
    rng = np.random.default_rng(103)
    X = rng.uniform(-1, 1, size=(500, 1))
    y = np.where(X[:, 0] > 0, 3.0 + X[:, 0], -1.0 + 0.5 * X[:, 0])
    tree_model = fit_chebytree(X, y, complexity=1, alpha=1e-8, max_depth=2)
    poly = fit_chebypoly(X, y, complexity=3, alpha=1e-8)
    mse_tree = float(np.mean((tree_model.predict(X) - y) ** 2))
    mse_poly = float(np.mean((poly.predict(X) - y) ** 2))
    assert mse_tree < 0.1 * mse_poly


# ---------------------------------------------------------------------------
# batched fit and predict against a per-leaf reference


def _per_leaf_reference(X, y, complexity, alpha, max_depth, min_samples_leaf=1):
    """The one-leaf-at-a-time algorithm: fit_chebypoly on each leaf's rows."""
    tree = cart_fit(X, y, max_depth=max_depth, min_samples_leaf=min_samples_leaf,
                    min_samples_split=2)
    models = {}
    for leaf in tree.leaf_ids:
        rows = tree.leaf_rows[leaf]
        if rows.size >= leaf_fallback_threshold(complexity):
            models[leaf] = fit_chebypoly(X[rows], y[rows], complexity=complexity,
                                         alpha=alpha, include_interactions=False)
        else:
            models[leaf] = float(y[rows].mean())
    return ChebyTreeModel(tree=tree, leaf_models=models, complexity=complexity,
                          y_mean=float(y.mean()), y_std=float(y.std()))


def _per_leaf_predict(model, Q):
    """Route, predict each leaf's rows with its own model, then clip globally."""
    leaves = cart_route(model.tree, Q)
    out = np.empty(Q.shape[0])
    for leaf in np.unique(leaves):
        rows = np.flatnonzero(leaves == leaf)
        m = model.leaf_models[int(leaf)]
        out[rows] = m if isinstance(m, float) else m.predict(Q[rows])
    return np.clip(out, model.y_mean - 3 * model.y_std, model.y_mean + 3 * model.y_std)


def _rel(a, b):
    return float(np.abs(a - b).max() / max(1.0, float(np.abs(b).max())))


def _assert_matches_reference(X, y, Q, **params):
    got = fit_chebytree(X, y, **params)
    ref = _per_leaf_reference(X, y, **params)
    assert list(got.leaf_models) == list(ref.leaf_models)
    for leaf, want in ref.leaf_models.items():
        have = got.leaf_models[leaf]
        assert type(have) is type(want)
        if isinstance(want, float):
            assert have == want
            continue
        assert np.array_equal(have.scaler.mins, want.scaler.mins)
        assert np.array_equal(have.scaler.ranges, want.scaler.ranges)
        assert have.basis == want.basis and have.interaction_feats == ()
        assert (have.y_mean, have.y_std) == (want.y_mean, want.y_std)
        assert _rel(have.weights, want.weights) < 1e-10
        assert _rel(np.array([have.intercept]), np.array([want.intercept])) < 1e-10
    assert _rel(got.predict(Q), _per_leaf_predict(ref, Q)) < 1e-10
    return got


def test_batched_fit_matches_per_leaf_reference_on_search_space_trials():
    space = SPACES["chebytree"]
    rng = np.random.default_rng(107)
    trials = 0
    for kind in ("friedman1", "synthetic_step"):
        ds = gen(kind, n=300, seed=5)
        # out-of-range queries exercise the scalers' clipping
        Q = np.concatenate([ds.X, 3.0 * ds.X - 1.0])
        for _ in range(60):
            params = space.sample_trial(rng)
            _assert_matches_reference(ds.X, ds.y, Q, **params)
            trials += 1
    assert trials >= 100


def test_batched_fit_edge_cases_match_per_leaf_reference():
    rng = np.random.default_rng(109)
    X = rng.normal(size=(200, 3))
    y = np.sin(X[:, 0]) + X[:, 1] * X[:, 2]
    Q = rng.normal(size=(100, 3)) * 4.0  # mostly out of the leaves' ranges
    model = _assert_matches_reference(X, y, Q, complexity=3, alpha=0.01, max_depth=0)
    assert model.tree.leaf_ids == [0]

    # c=5: threshold 12, one leaf holds exactly 12 rows, the other 11
    x = np.concatenate([np.linspace(-2.0, -1.0, 12), np.linspace(1.0, 2.0, 11)])
    model = _assert_matches_reference(
        x[:, None], np.concatenate([x[:12] ** 2, 5.0 + x[12:]]), Q[:, :1],
        complexity=5, alpha=1e-3, max_depth=1)
    sizes = {model.tree.leaf_rows[leaf].size for leaf in model.tree.leaf_ids}
    assert sizes == {12, 11} == {leaf_fallback_threshold(5), leaf_fallback_threshold(5) - 1}

    # a feature constant inside the left leaf (range 0 there, scaled to 0)
    Xc = X.copy()
    Xc[Xc[:, 0] <= 0.0, 1] = 0.25
    model = _assert_matches_reference(Xc, y + 3.0 * (Xc[:, 0] > 0), Q,
                                      complexity=2, alpha=0.1, max_depth=1)
    ranges = [m.scaler.ranges for m in model.leaf_models.values()
              if isinstance(m, ChebyPolyModel)]
    assert any((r == 0).any() for r in ranges)


def test_batched_fit_jitter_retry_matches_per_leaf_reference():
    # left leaf: two distinct points repeated, so T_2 is constant and T_3
    # repeats T_1; with alpha=0 its normal matrix is singular and only the
    # jittered retry factorises; the right leaf solves on the first try
    rng = np.random.default_rng(113)
    x = np.concatenate([np.repeat([-2.0, -1.5], 10), rng.uniform(1.0, 2.0, 30)])
    y = np.concatenate([np.repeat([0.0, 1.0], 10), rng.normal(size=30) + 9.0])
    X = x[:, None]
    model = fit_chebytree(X, y, complexity=3, alpha=0.0, max_depth=1)
    assert all(isinstance(m, ChebyPolyModel) for m in model.leaf_models.values())
    left_leaf = model.tree.leaf_ids[0]
    left_model = model.leaf_models[left_leaf]
    Xs = left_model.scaler.apply(X[model.tree.leaf_rows[left_leaf]])
    design = build_design_matrix(Xs, left_model.basis, ()).matrix
    assert np.unique(design, axis=0).shape[0] == 2
    centred = design - design.mean(axis=0)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(centred.T @ centred)
    _assert_matches_reference(X, y, np.linspace(-3, 3, 50)[:, None],
                              complexity=3, alpha=0.0, max_depth=1)


def test_batched_fit_raises_what_the_per_leaf_fit_raises():
    rng = np.random.default_rng(127)
    same_rows = np.ones((20, 2))  # centred design is zero: the retry fails too
    y = rng.normal(size=20)
    X = rng.normal(size=(40, 2))
    y_nan = rng.normal(size=40)
    y_nan[3] = np.nan
    X_inf = X.copy()
    X_inf[5, 1] = np.inf
    cases = [
        (same_rows, y, 0.0, np.linalg.LinAlgError),
        (X, y_nan, 0.1, ValueError),
        (X_inf, rng.normal(size=40), 0.1, ValueError),
        (X, rng.normal(size=40), -1.0, ValueError),
    ]
    for Xc, yc, alpha, exc in cases:
        with pytest.raises(exc) as want, np.errstate(invalid="ignore"):
            _per_leaf_reference(Xc, yc, complexity=2, alpha=alpha, max_depth=0)
        with pytest.raises(exc) as got, np.errstate(invalid="ignore"):
            fit_chebytree(Xc, yc, complexity=2, alpha=alpha, max_depth=0)
        assert str(got.value) == str(want.value)


def test_batched_predict_equals_per_leaf_recomposition_bit_for_bit():
    ds = gen("friedman1", n=1000, seed=17)
    rng = np.random.default_rng(131)
    model = fit_chebytree(ds.X, ds.y, complexity=3, alpha=0.05, max_depth=8,
                          min_samples_leaf=3)
    kinds = {type(m) for m in model.leaf_models.values()}
    assert kinds == {ChebyPolyModel, float}
    Q = rng.uniform(-0.2, 1.2, size=(10_000, ds.d))
    assert np.array_equal(model.predict(Q), _per_leaf_predict(model, Q))
    # the served path: a model read back from its file
    back = ChebyTreeModel.from_dict(model.to_dict(), ds.d)
    assert np.array_equal(back.predict(Q), _per_leaf_predict(back, Q))
    assert np.array_equal(back.predict(Q), model.predict(Q))


@pytest.mark.parametrize("corrupt, message", [
    (lambda d, leaf: d["leaf_models"].pop(leaf), "do not match the tree's leaves"),
    (lambda d, leaf: d["leaf_models"].__setitem__("999", {"kind": "constant",
                                                          "value": 0.0}),
     "do not match the tree's leaves"),
    (lambda d, leaf: d.__setitem__("complexity", 3), "complexity 3"),
    (lambda d, leaf: d["leaf_models"][leaf]["model"]["scaler"]["mins"].pop(),
     "mins has shape"),
    (lambda d, leaf: d["leaf_models"][leaf]["model"]["weights"].append(0.0),
     "weights has"),
    (lambda d, leaf: d["leaf_models"][leaf]["model"].__setitem__("intercept", np.inf),
     "non-finite"),
], ids=["missing-leaf", "extra-leaf", "complexity", "feature-count", "weights-length",
        "inf-intercept"])
def test_from_dict_rejects_corrupted_leaves(corrupt, message):
    rng = np.random.default_rng(137)
    X = rng.normal(size=(120, 2))
    model = fit_chebytree(X, X[:, 0] - X[:, 1] ** 2, complexity=2, alpha=0.01,
                          max_depth=2)
    d = model.to_dict()
    leaf = next(k for k, v in d["leaf_models"].items() if v["kind"] == "chebypoly")
    corrupt(d, leaf)
    with pytest.raises(ValueError, match=message):
        ChebyTreeModel.from_dict(d, 2)
