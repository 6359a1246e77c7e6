"""Tests for the Chebyshev basis: closed-form oracle, column layout,
interaction eligibility, and the conditioning advantage over raw monomials.
"""

import json
from dataclasses import asdict

import numpy as np
import pytest

from smoothbench.chebyshev import (
    BasisConfig,
    build_design_matrix,
    cheb_eval,
    interaction_feature_set,
    n_columns,
)


# ---------------------------------------------------------------------------
# closed-form oracle: T_n(x) = cos(n arccos x) on [-1, 1]


def test_cheb_eval_matches_cosine_oracle():
    x = np.linspace(-1.0, 1.0, 1000)
    for degree in range(15):
        want = np.cos(degree * np.arccos(x))
        got = cheb_eval(degree, x)
        assert np.abs(got - want).max() < 1e-12


def test_cheb_eval_random_points_property():
    rng = np.random.default_rng(41)
    for case in range(200):
        x = rng.uniform(-1, 1, size=int(rng.integers(1, 40)))
        degree = int(rng.integers(0, 13))
        assert np.abs(cheb_eval(degree, x) - np.cos(degree * np.arccos(x))).max() < 1e-11


def test_cheb_eval_low_degrees_exact_forms():
    x = np.array([-0.7, 0.0, 0.3, 1.0])
    assert np.array_equal(cheb_eval(0, x), np.ones(4))
    assert np.array_equal(cheb_eval(1, x), x)
    assert np.allclose(cheb_eval(2, x), 2 * x ** 2 - 1, atol=1e-15)
    assert np.allclose(cheb_eval(3, x), 4 * x ** 3 - 3 * x, atol=1e-15)


def test_cheb_eval_validation():
    with pytest.raises(ValueError):
        cheb_eval(-1, np.zeros(3))


def test_design_columns_match_cheb_eval():
    # column 1 + f*c + k holds T_{k+1} of feature f, bit for bit, and each pair
    # column the product of its two scaled features
    rng = np.random.default_rng(2)
    for n, d, c in ((50, 1, 8), (1, 4, 3), (0, 3, 2), (37, 6, 14), (20, 12, 1)):
        X = rng.uniform(-1, 1, size=(n, d))
        for mic in (1, 2):
            cfg = BasisConfig(complexity=c, include_interactions=True,
                              max_interaction_complexity=mic)
            D = build_design_matrix(X, cfg, tuple(range(d))).matrix
            assert D.shape == (n, n_columns(d, cfg, d))
            assert np.array_equal(D[:, 0], np.ones(n))
            for f in range(d):
                for k in range(c):
                    assert np.array_equal(D[:, 1 + f * c + k], cheb_eval(k + 1, X[:, f]))
            pos = 1 + d * c
            for i in range(d):
                for j in range(i + 1, d):
                    prod = X[:, i] * X[:, j]
                    assert np.array_equal(D[:, pos], prod)
                    if mic == 2:
                        assert np.array_equal(D[:, pos + 1], 2.0 * prod * prod - 1.0)
                    pos += mic
            assert pos == D.shape[1]


# ---------------------------------------------------------------------------
# column-count formula


def test_n_columns_formula_no_interactions():
    rng = np.random.default_rng(7)
    for case in range(200):
        d = int(rng.integers(1, 40))
        c = int(rng.integers(1, 15))
        cfg = BasisConfig(complexity=c)
        X = rng.uniform(-1, 1, size=(5, d))
        dm = build_design_matrix(X, cfg, ())
        assert dm.matrix.shape[1] == 1 + d * c
        assert n_columns(d, cfg, 0) == 1 + d * c


def test_n_columns_with_interactions():
    # d=4, all pairs eligible: 6 pairs
    X = np.random.default_rng(3).uniform(-1, 1, size=(10, 4))
    cfg1 = BasisConfig(complexity=2, include_interactions=True,
                       max_interaction_complexity=1)
    cfg2 = BasisConfig(complexity=2, include_interactions=True,
                       max_interaction_complexity=2)
    feats = interaction_feature_set(X)
    assert build_design_matrix(X, cfg1, feats).matrix.shape[1] == 1 + 8 + 6
    assert build_design_matrix(X, cfg2, feats).matrix.shape[1] == 1 + 8 + 12


# ---------------------------------------------------------------------------
# design-matrix content


def test_design_matrix_layout_and_values():
    rng = np.random.default_rng(11)
    X = rng.uniform(-1, 1, size=(20, 3))
    cfg = BasisConfig(complexity=3, include_interactions=True,
                      max_interaction_complexity=2)
    dm = build_design_matrix(X, cfg, interaction_feature_set(X))

    assert np.array_equal(dm.matrix[:, 0], np.ones(20))

    # per-feature blocks in feature order, degrees 1..c
    pos = 1
    for f in range(3):
        for deg in range(1, 4):
            assert np.allclose(dm.matrix[:, pos], np.cos(deg * np.arccos(X[:, f])),
                               atol=1e-12)
            pos += 1

    # interactions: pairs (0,1), (0,2), (1,2); product then T2(product)
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        prod = X[:, i] * X[:, j]
        assert np.array_equal(dm.matrix[:, pos], prod)
        pos += 1
        assert np.allclose(dm.matrix[:, pos], 2 * prod ** 2 - 1, atol=1e-15)
        pos += 1
    assert pos == dm.matrix.shape[1]


def test_design_matrix_interaction_values_stay_bounded():
    # products of values in [-1,1] stay in [-1,1], so every interaction
    # column is bounded without extra clipping
    rng = np.random.default_rng(13)
    X = rng.uniform(-1, 1, size=(200, 6))
    cfg = BasisConfig(complexity=1, include_interactions=True,
                      max_interaction_complexity=2)
    dm = build_design_matrix(X, cfg, interaction_feature_set(X))
    assert np.abs(dm.matrix).max() <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# interaction eligibility


def test_interaction_feature_set_low_dim_takes_all():
    X = np.random.default_rng(1).uniform(-1, 1, size=(10, 30))
    assert interaction_feature_set(X) == tuple(range(30))


def test_interaction_feature_set_high_dim_takes_top_half_by_variance():
    rng = np.random.default_rng(5)
    d = 31
    scales = rng.permutation(np.linspace(0.01, 1.0, d))
    X = rng.uniform(-1, 1, size=(400, d)) * scales
    feats = interaction_feature_set(X)
    assert len(feats) == 16  # ceil(31/2)
    # chosen set = the 16 largest sample variances
    var = X.var(axis=0)
    want = sorted(np.argsort(-var, kind="stable")[:16].tolist())
    assert list(feats) == want
    # sorted ascending for deterministic pair enumeration
    assert list(feats) == sorted(feats)


def test_design_matrix_honours_pinned_interaction_feats():
    # at predict time the fit-time eligible set is pinned and must be reused
    X = np.random.default_rng(9).uniform(-1, 1, size=(15, 5))
    cfg = BasisConfig(complexity=1, include_interactions=True)
    dm = build_design_matrix(X, cfg, interaction_feats=(0, 3))
    # the constant, 5 degree-1 columns, then the one pair's product
    assert dm.matrix.shape[1] == 1 + 5 + 1
    assert np.array_equal(dm.matrix[:, 1:6], X)
    assert np.array_equal(dm.matrix[:, 6], X[:, 0] * X[:, 3])


# ---------------------------------------------------------------------------
# conditioning


def test_chebyshev_design_is_much_better_conditioned_than_monomials():
    # 200 Chebyshev nodes, degree 12: the Chebyshev design's condition number
    # is at least 100x smaller than the monomial Vandermonde on the same nodes
    k = np.arange(200)
    nodes = np.cos((2 * k + 1) * np.pi / (2 * 200))
    cheb = build_design_matrix(nodes[:, None], BasisConfig(complexity=12), ()).matrix
    mono = np.vander(nodes, 13, increasing=True)
    assert np.linalg.cond(cheb) <= np.linalg.cond(mono) / 100.0


def test_basis_config_holds_plain_python_values():
    # numpy scalars from a caller would make a model's to_dict unwritable as JSON
    cfg = BasisConfig(np.int64(2), np.bool_(True), np.int64(2))
    assert cfg == BasisConfig(2, True, 2)
    assert [type(v) for v in asdict(cfg).values()] == [int, bool, int]
    assert json.loads(json.dumps(asdict(cfg))) == asdict(cfg)


def test_basis_config_validation():
    with pytest.raises(ValueError):
        BasisConfig(complexity=0)
    with pytest.raises(ValueError):
        BasisConfig(complexity=2, max_interaction_complexity=3)
