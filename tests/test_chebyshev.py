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
    interaction_feature_set,
    n_columns,
)


def cheb_eval(degree: int, x: np.ndarray) -> np.ndarray:
    """T_degree(x), one degree at a time, by T_{n+1} = 2 x T_n - T_{n-1}: the
    oracle that build_design_matrix's all-features recurrence is checked against."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    x = np.asarray(x, dtype=np.float64)
    t_prev = np.ones_like(x)
    if degree == 0:
        return t_prev
    t_cur = x.copy()
    for _ in range(degree - 1):
        t_prev, t_cur = t_cur, 2.0 * x * t_cur - t_prev
    return t_cur


# ---------------------------------------------------------------------------
# the oracle against the closed form: T_n(x) = cos(n arccos x) on [-1, 1]


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
    # the product of its two scaled features and, at interactions=2, T_2 of it
    rng = np.random.default_rng(2)
    for n, d, c in ((50, 1, 8), (1, 4, 3), (0, 3, 2), (37, 6, 14), (20, 12, 1)):
        X = rng.uniform(-1, 1, size=(n, d))
        for inter in (0, 1, 2):
            cfg = BasisConfig(complexity=c, interactions=inter)
            D = build_design_matrix(X, cfg, tuple(range(d)))
            assert D.shape == (n, n_columns(d, cfg, d))
            assert np.array_equal(D[:, 0], np.ones(n))
            for f in range(d):
                for k in range(c):
                    assert np.array_equal(D[:, 1 + f * c + k], cheb_eval(k + 1, X[:, f]))
            pos = 1 + d * c
            for i in range(d):
                for j in range(i + 1, d if inter else i + 1):
                    prod = X[:, i] * X[:, j]
                    assert np.array_equal(D[:, pos], prod)
                    if inter == 2:
                        assert np.array_equal(D[:, pos + 1], 2.0 * prod * prod - 1.0)
                    pos += inter
            assert pos == D.shape[1]


# ---------------------------------------------------------------------------
# column-count formula


def test_n_columns_formula_no_interactions():
    # interactions=0 adds no columns, whatever eligible set it is given
    rng = np.random.default_rng(7)
    for case in range(200):
        d = int(rng.integers(1, 40))
        c = int(rng.integers(1, 15))
        cfg = BasisConfig(complexity=c, interactions=0)
        assert cfg == BasisConfig(complexity=c)
        X = rng.uniform(-1, 1, size=(5, d))
        for feats in ((), tuple(range(d))):
            dm = build_design_matrix(X, cfg, feats)
            assert dm.shape[1] == 1 + d * c
            assert n_columns(d, cfg, len(feats)) == 1 + d * c


def test_n_columns_with_interactions():
    # d=4, all pairs eligible: 6 pairs, with 0, 1 or 2 columns each
    X = np.random.default_rng(3).uniform(-1, 1, size=(10, 4))
    feats = interaction_feature_set(X)
    for inter, width in ((0, 1 + 8), (1, 1 + 8 + 6), (2, 1 + 8 + 12)):
        cfg = BasisConfig(complexity=2, interactions=inter)
        assert build_design_matrix(X, cfg, feats).shape[1] == width
        assert n_columns(4, cfg, len(feats)) == width


# ---------------------------------------------------------------------------
# design-matrix content


def test_design_matrix_layout_and_values():
    rng = np.random.default_rng(11)
    X = rng.uniform(-1, 1, size=(20, 3))
    cfg = BasisConfig(complexity=3, interactions=2)
    dm = build_design_matrix(X, cfg, interaction_feature_set(X))

    assert np.array_equal(dm[:, 0], np.ones(20))

    # per-feature blocks in feature order, degrees 1..c
    pos = 1
    for f in range(3):
        for deg in range(1, 4):
            assert np.allclose(dm[:, pos], np.cos(deg * np.arccos(X[:, f])),
                               atol=1e-12)
            pos += 1

    # interactions: pairs (0,1), (0,2), (1,2); product then T2(product)
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        prod = X[:, i] * X[:, j]
        assert np.array_equal(dm[:, pos], prod)
        pos += 1
        assert np.allclose(dm[:, pos], 2 * prod ** 2 - 1, atol=1e-15)
        pos += 1
    assert pos == dm.shape[1]


def test_design_matrix_interaction_values_stay_bounded():
    # products of values in [-1,1] stay in [-1,1], so every interaction
    # column is bounded without extra clipping
    rng = np.random.default_rng(13)
    X = rng.uniform(-1, 1, size=(200, 6))
    cfg = BasisConfig(complexity=1, interactions=2)
    dm = build_design_matrix(X, cfg, interaction_feature_set(X))
    assert np.abs(dm).max() <= 1.0 + 1e-12


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
    cfg = BasisConfig(complexity=1, interactions=1)
    dm = build_design_matrix(X, cfg, interaction_feats=(0, 3))
    # the constant, 5 degree-1 columns, then the one pair's product
    assert dm.shape[1] == 1 + 5 + 1
    assert np.array_equal(dm[:, 1:6], X)
    assert np.array_equal(dm[:, 6], X[:, 0] * X[:, 3])


# ---------------------------------------------------------------------------
# conditioning


def test_chebyshev_design_is_much_better_conditioned_than_monomials():
    # 200 Chebyshev nodes, degree 12: the Chebyshev design's condition number
    # is at least 100x smaller than the monomial Vandermonde on the same nodes
    k = np.arange(200)
    nodes = np.cos((2 * k + 1) * np.pi / (2 * 200))
    cheb = build_design_matrix(nodes[:, None], BasisConfig(complexity=12), ())
    mono = np.vander(nodes, 13, increasing=True)
    assert np.linalg.cond(cheb) <= np.linalg.cond(mono) / 100.0


def test_basis_config_holds_plain_python_values():
    # numpy scalars from a caller would make a model's to_dict unwritable as JSON
    cfg = BasisConfig(np.int64(2), np.int64(2))
    assert cfg == BasisConfig(2, 2)
    assert [type(v) for v in asdict(cfg).values()] == [int, int]
    assert json.loads(json.dumps(asdict(cfg))) == asdict(cfg)


def test_basis_config_validation():
    with pytest.raises(ValueError):
        BasisConfig(complexity=0)
    for bad in (3, -1, True, 1.5, "1"):
        with pytest.raises(ValueError, match="interactions"):
            BasisConfig(complexity=2, interactions=bad)
