"""Tests for the Chebyshev model tree: leaf model selection, the single-leaf
equivalence with the global polynomial, per-leaf affine structure, and the
piecewise-linear recovery case the routing + linear-leaf combination is built
for.

The model stores its leaves stacked, one row per leaf in tree.leaf_ids order;
a constant leaf is a row of zero weights. The per-leaf oracle below is the
global regressor written out on each leaf's rows: min-max scaling, the design
matrix, ridge_solve and the leaf's mean +/- 3 sd, one leaf at a time. It
calls neither fit_chebypoly nor chebytree.fit_leaves, the leaf fitter under
test.
"""

import json

from types import SimpleNamespace

import numpy as np
import pytest

from smoothbench.chebypoly import fit_chebypoly
from smoothbench.chebytree import (
    LEAF_FIELDS,
    ChebyTreeModel,
    fit_chebytree,
    leaf_fallback_threshold,
)
from smoothbench.cart import cart_fit, cart_route
from smoothbench.chebyshev import BasisConfig, build_design_matrix
from smoothbench.data import minmax_scale
from smoothbench.harness.search import SPACES
from smoothbench.numkit import ridge_solve
from smoothbench.registry import fit_model, model_from_dict
from smoothbench.synth import gen


def _leaf_kinds(model):
    """{True} if every leaf is a polynomial, {False} if every leaf is constant, else both."""
    return set(model.weights.any(axis=1).tolist())


def _leaf_predict(model, leaf, Q):
    """One leaf's row applied to Q on its own: a constant leaf's mean, or the
    scale, expand, multiply and clip of a global polynomial's prediction."""
    j = model.tree.leaf_ids.index(leaf)
    if not model.weights[j].any():
        return np.full(Q.shape[0], model.intercepts[j])
    Xs = minmax_scale(Q, model.mins[j], model.ranges[j])
    design = build_design_matrix(Xs, model.basis, model.interaction_feats)
    return np.clip(design @ model.weights[j] + model.intercepts[j], model.lo[j], model.hi[j])


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
    for j, leaf in enumerate(leaves):
        rows = model.tree.leaf_rows[leaf]
        if rows.size >= 10:
            assert model.weights[j].any()
        else:
            # zero mins, ranges and weights; intercept, lo and hi all the mean
            assert not (model.mins[j].any() or model.ranges[j].any() or model.weights[j].any())
            mean = float(y[rows].mean())
            assert model.intercepts[j] == model.lo[j] == model.hi[j] == mean
    assert _leaf_kinds(model) == {True, False}


def test_leaf_models_counts_undersized_leaves_as_constant():
    # perfbench reads leaf_models and counts its float values as constant leaves
    ds = gen("friedman1", n=300, seed=3)
    model = fit_chebytree(ds.X, ds.y, complexity=2, alpha=0.1, max_depth=8)
    leaves = model.leaf_models
    assert list(leaves) == model.tree.leaf_ids
    const = [isinstance(m, float) for m in leaves.values()]
    small = [model.tree.leaf_rows[leaf].size < leaf_fallback_threshold(2) for leaf in leaves]
    assert const == small and 0 < sum(const) < len(const)


def test_leaf_models_counts_a_constant_target_polynomial_leaf_as_polynomial():
    # the left leaf has 12 rows of one target value: a polynomial leaf whose
    # ridge weights are all zero, which is still not a constant leaf
    x = np.concatenate([np.linspace(-2.0, -1.0, 12), np.linspace(1.0, 2.0, 12)])
    y = np.concatenate([np.full(12, 3.0), 10.0 + x[12:]])
    model = fit_chebytree(x[:, None], y, complexity=2, alpha=0.1, max_depth=1)
    assert [model.tree.leaf_rows[leaf].size for leaf in model.tree.leaf_ids] == [12, 12]
    assert not model.weights[0].any() and model.weights[1].any()
    assert model.ranges[0].tolist() == [1.0]  # fitted as a polynomial leaf
    assert not any(isinstance(m, float) for m in model.leaf_models.values())


def test_negative_alpha_is_refused_even_when_every_leaf_is_constant():
    rng = np.random.default_rng(30)
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    # depth 6 on these 40 rows leaves no leaf big enough for a polynomial, so
    # the ridge solve that also checks alpha never runs
    model = fit_chebytree(X, y, alpha=1.0, max_depth=6)
    assert _leaf_kinds(model) == {False}
    # NaN and infinity are refused too; NaN used to fit and score train_r2=nan
    for alpha in (-5.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="alpha must be non-negative"):
            fit_chebytree(X, y, alpha=alpha, max_depth=6)


def test_single_leaf_equals_global_chebypoly():
    # without interactions and with every row in a polynomial leaf, the two
    # kinds write the same model file, byte for byte, and predict the same bits
    rng = np.random.default_rng(73)
    for case in range(200):
        c = int(rng.integers(1, 6))
        n = int(rng.integers(leaf_fallback_threshold(c), 120))
        d = int(rng.integers(1, 6))
        X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10)
        y = np.sin(X[:, 0]) + rng.normal(size=n)
        if case % 2:
            X, y = np.round(X, 1), np.round(y, 1)  # ties and repeated rows
        alpha = float(rng.uniform(0.0, 1.0))
        tree_model = fit_chebytree(X, y, complexity=c, alpha=alpha, max_depth=0)
        poly = fit_chebypoly(X, y, complexity=c, alpha=alpha, interactions=0)
        assert (json.dumps(poly.to_dict(), allow_nan=False)
                == json.dumps(tree_model.to_dict(), allow_nan=False))
        Q = rng.normal(size=(30, d)) * 20
        assert tree_model.predict(Q).tobytes() == poly.predict(Q).tobytes()


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
        if rows.size < 4 or not model.weights[model.tree.leaf_ids.index(leaf)].any():
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
        manual[rows] = _leaf_predict(model, int(leaf), Q[rows])
    manual = np.clip(manual, model.y_mean - 3 * model.y_std,
                     model.y_mean + 3 * model.y_std)
    assert np.array_equal(model.predict(Q), manual)

    # row-at-a-time recomposition agrees up to BLAS accumulation order
    single = np.empty(80)
    for i in range(80):
        single[i] = _leaf_predict(model, int(leaves[i]), Q[i:i + 1])[0]
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
    # both constant and polynomial leaves survive the round trip, bit for bit
    assert _leaf_kinds(model) == {True, False}
    for name in LEAF_FIELDS:
        assert np.array_equal(getattr(back, name), getattr(model, name)), name


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
    """The one-leaf-at-a-time algorithm, written out.

    leaf_models maps each leaf to its mean as a float when it holds fewer than
    leaf_fallback_threshold rows, and otherwise to the leaf's own polynomial:
    its rows' mins and ranges, the ridge_solve weights and intercept on their
    scaled design matrix, and its rows' mean -/+ 3 sd as lo and hi.
    """
    tree = cart_fit(X, y, max_depth=max_depth, min_samples_leaf=min_samples_leaf,
                    min_samples_split=2)
    basis = BasisConfig(complexity)
    models = {}
    for leaf in tree.leaf_ids:
        rows = tree.leaf_rows[leaf]
        X_leaf, y_leaf = X[rows], y[rows]
        if rows.size < leaf_fallback_threshold(complexity):
            models[leaf] = float(y_leaf.mean())
            continue
        mins = X_leaf.min(axis=0)
        ranges = X_leaf.max(axis=0) - mins
        design = build_design_matrix(minmax_scale(X_leaf, mins, ranges), basis, ())
        w, b = ridge_solve(design, y_leaf, alpha)
        mu, sd = y_leaf.mean(), y_leaf.std()
        models[leaf] = SimpleNamespace(basis=basis, mins=mins, ranges=ranges, weights=w,
                                       intercept=b, lo=mu - 3.0 * sd, hi=mu + 3.0 * sd)
    return SimpleNamespace(tree=tree, leaf_models=models, y_mean=float(y.mean()),
                           y_std=float(y.std()))


def _reference_leaf_predict(ref, leaf, Q):
    m = ref.leaf_models[leaf]
    if isinstance(m, float):
        return np.full(Q.shape[0], m)
    design = build_design_matrix(minmax_scale(Q, m.mins, m.ranges), m.basis, ())
    return np.clip(design @ m.weights + m.intercept, m.lo, m.hi)


def _per_leaf_predict(model, Q, leaf_predict=_leaf_predict):
    """Route, predict each leaf's rows with leaf_predict(model, leaf, rows of Q),
    then clip globally."""
    leaves = cart_route(model.tree, Q)
    out = np.empty(Q.shape[0])
    for leaf in np.unique(leaves):
        rows = np.flatnonzero(leaves == leaf)
        out[rows] = leaf_predict(model, int(leaf), Q[rows])
    return np.clip(out, model.y_mean - 3 * model.y_std, model.y_mean + 3 * model.y_std)


def _rel(a, b):
    return float(np.abs(a - b).max() / max(1.0, float(np.abs(b).max())))


def _assert_matches_reference(X, y, Q, **params):
    got = fit_chebytree(X, y, **params)
    ref = _per_leaf_reference(X, y, **params)
    assert got.tree.leaf_ids == list(ref.leaf_models)
    for j, want in enumerate(ref.leaf_models.values()):
        if isinstance(want, float):
            assert not (got.mins[j].any() or got.ranges[j].any() or got.weights[j].any())
            assert got.intercepts[j] == got.lo[j] == got.hi[j] == want
            continue
        assert np.array_equal(got.mins[j], want.mins)
        assert np.array_equal(got.ranges[j], want.ranges)
        assert want.basis == got.basis and got.interaction_feats == ()
        # the leaf's clip bounds, from its rows' mean and std bit for bit
        assert got.lo[j] == want.lo and got.hi[j] == want.hi
        assert _rel(got.weights[j], want.weights) < 1e-10
        assert _rel(got.intercepts[j:j + 1], np.array([want.intercept])) < 1e-10
    assert _rel(got.predict(Q), _per_leaf_predict(ref, Q, _reference_leaf_predict)) < 1e-10
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
    assert (model.ranges[model.weights.any(axis=1)] == 0).any()


def test_batched_fit_jitter_retry_matches_per_leaf_reference():
    # left leaf: two distinct points repeated, so T_2 is constant and T_3
    # repeats T_1; with alpha=0 its normal matrix is singular and only the
    # jittered retry factorises; the right leaf solves on the first try
    rng = np.random.default_rng(113)
    x = np.concatenate([np.repeat([-2.0, -1.5], 10), rng.uniform(1.0, 2.0, 30)])
    y = np.concatenate([np.repeat([0.0, 1.0], 10), rng.normal(size=30) + 9.0])
    X = x[:, None]
    model = fit_chebytree(X, y, complexity=3, alpha=0.0, max_depth=1)
    assert _leaf_kinds(model) == {True}
    Xs = minmax_scale(X[model.tree.leaf_rows[model.tree.leaf_ids[0]]],
                      model.mins[0], model.ranges[0])
    design = build_design_matrix(Xs, BasisConfig(3), ())
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
        (X, rng.normal(size=40), np.nan, ValueError),
        (X, rng.normal(size=40), np.inf, ValueError),
    ]
    for Xc, yc, alpha, exc in cases:
        with pytest.raises(exc) as want, np.errstate(invalid="ignore"):
            _per_leaf_reference(Xc, yc, complexity=2, alpha=alpha, max_depth=0)
        with pytest.raises(exc) as got, np.errstate(invalid="ignore"):
            fit_chebytree(Xc, yc, complexity=2, alpha=alpha, max_depth=0)
        assert str(got.value) == str(want.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_range_that_overflows_float64_is_refused_naming_its_feature():
    # piecewise features span about [-3.3, 2.6]: times 2^1022 their ranges pass 2^1024
    ds = gen("synthetic_piecewise", n=240, seed=7)
    X = ds.X * 2.0 ** 1022
    assert np.isfinite(X).all()
    with pytest.raises(ValueError, match="feature 0: its range max - min overflows float64"):
        fit_chebypoly(X, ds.y)
    with pytest.raises(ValueError, match="feature 2: its range max - min overflows float64"):
        fit_chebytree(X, ds.y)


def test_batched_predict_equals_per_leaf_recomposition_bit_for_bit():
    ds = gen("friedman1", n=1000, seed=17)
    rng = np.random.default_rng(131)
    model = fit_chebytree(ds.X, ds.y, complexity=3, alpha=0.05, max_depth=8,
                          min_samples_leaf=3)
    assert _leaf_kinds(model) == {True, False}
    Q = rng.uniform(-0.2, 1.2, size=(10_000, ds.d))
    assert np.array_equal(model.predict(Q), _per_leaf_predict(model, Q))
    # the served path: a model read back from its file
    back = ChebyTreeModel.from_dict(model.to_dict(), ds.d)
    assert np.array_equal(back.predict(Q), _per_leaf_predict(back, Q))
    assert np.array_equal(back.predict(Q), model.predict(Q))


def _old_layout(d, j):
    """The schema-4 layout: a leaf_models dict in place of the stacked arrays."""
    for name in LEAF_FIELDS:
        d.pop(name)
    d["leaf_models"] = {"1": {"kind": "constant", "value": 0.0}}


@pytest.mark.parametrize("kind, corrupt, message", [
    ("chebytree", lambda d, j: d["intercepts"].pop(),
     r"chebyshev model: intercepts has shape \(\d+,\), expected"),
    ("chebytree", lambda d, j: d["weights"].append(d["weights"][j]),
     r"chebyshev model: weights has shape \(\d+, 5\)"),
    ("chebytree", lambda d, j: d.__setitem__("complexity", 3),
     r"chebyshev model: weights has shape \(\d+, 5\), expected \(\d+, 7\)"),
    ("chebytree", lambda d, j: [row.pop() for row in d["mins"]],
     r"chebyshev model: mins has shape \(\d+, 1\), expected \(\d+, 2\)"),
    ("chebytree", lambda d, j: d["weights"][j].append(0.0),
     "chebyshev model: weights is not a number or a regular array of numbers"),
    ("chebytree", lambda d, j: d["intercepts"].__setitem__(j, np.inf),
     "chebyshev model: intercepts holds a non-finite"),
    ("chebytree", lambda d, j: d["ranges"][j].__setitem__(0, np.nan),
     "chebyshev model: ranges holds a non-finite"),
    ("chebytree", lambda d, j: d.__setitem__("hi", "abc"), "chebyshev model: hi is not a number"),
    ("chebytree", lambda d, j: d.update(lo=d["hi"], hi=d["lo"]),
     r"chebyshev model: lo\[\d+\] = .* is above hi"),
    ("chebytree", lambda d, j: d.__setitem__("complexity", 0),
     "chebyshev model: complexity must be >= 1, got 0"),
    # a missing field is named by registry.model_from_dict, with the kind
    ("chebytree", _old_layout, "chebytree model: missing field 'mins'"),
    # a negative range would scale its feature to 0 and predict wrong numbers
    ("chebytree", lambda d, j: d["ranges"][j].__setitem__(1, -0.5),
     r"chebyshev model: ranges\[\d+, 1\] = -0.5 is negative"),
    ("chebypoly", lambda d, j: d["ranges"][j].__setitem__(1, -0.5),
     r"chebyshev model: ranges\[0, 1\] = -0.5 is negative"),
    # a negative y_std would turn the global clip around and predict one constant
    ("chebytree", lambda d, j: d.__setitem__("y_std", -d["y_std"]),
     r"chebyshev model: y_std = -[\d.e-]+ is negative"),
    ("chebypoly", lambda d, j: d.__setitem__("y_std", -d["y_std"]),
     r"chebyshev model: y_std = -[\d.e-]+ is negative"),
], ids=["missing-leaf", "extra-leaf", "complexity", "feature-count", "weights-length",
        "inf-intercept", "nan-range", "string-hi", "lo-above-hi", "zero-complexity",
        "old-layout", "negative-range", "chebypoly-negative-range", "negative-y-std",
        "chebypoly-negative-y-std"])
def test_from_dict_rejects_corrupted_leaves(kind, corrupt, message):
    rng = np.random.default_rng(137)
    X = rng.normal(size=(120, 2))
    params = {"complexity": 2, "alpha": 0.01}
    if kind == "chebytree":
        params["max_depth"] = 2
    model = fit_model(kind, X, X[:, 0] - X[:, 1] ** 2, params)
    d = model.to_dict()
    j = int(np.flatnonzero(model.weights.any(axis=1))[0])  # a polynomial leaf's row
    model_from_dict(kind, d, 2)  # the file as written reads
    corrupt(d, j)
    with pytest.raises(ValueError, match=message):
        model_from_dict(kind, d, 2)
