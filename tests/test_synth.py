"""Tests for the synthetic dataset generators.

Formula oracles evaluate each target at hand-computed points; the rest checks
catalogue shapes, determinism, and the exactness of noise-free targets.
"""

import math

import numpy as np
import pytest

from smoothbench.synth import CATALOG, gen


# ---------------------------------------------------------------------------
# formula oracles (hand-computed values at fixed points)


def test_friedman1_formula_at_fixed_points():
    X = np.array([
        [0.5, 0.5, 0.0, 1.0, 1.0],
        [0.0, 0.9, 0.5, 0.0, 0.0],
        [1.0, 1.0, 1.0, 0.2, 0.4],
    ])
    want = np.array([
        10 * math.sin(math.pi * 0.25) + 20 * 0.25 + 10 + 5,   # 27.0710678...
        0.0 + 0.0 + 0.0 + 0.0,                                 # sin(0) and (0.5-0.5)^2
        10 * math.sin(math.pi) + 20 * 0.25 + 2 + 2,            # 9 + ~1.2e-15
    ])
    got = CATALOG["friedman1"].clean_fn(X)
    assert np.abs(got - want).max() < 1e-12
    assert got[0] == pytest.approx(27.071067811865476)


def test_friedman1_d100_ignores_trailing_features():
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, size=(50, 100))
    base = CATALOG["friedman1_d100"].clean_fn(X)
    X2 = X.copy()
    X2[:, 5:] = rng.uniform(0, 1, size=(50, 95))
    assert np.array_equal(CATALOG["friedman1_d100"].clean_fn(X2), base)
    # and the first five enter exactly like friedman1
    assert np.array_equal(base, CATALOG["friedman1"].clean_fn(X[:, :5]))


def test_step_formula_at_fixed_points():
    X = np.zeros((4, 8))
    X[0, :3] = [1.0, 1.0, -1.0]     # 2 + 3 - 1.5 + 1 = 4.5
    X[1, :3] = [-1.0, 0.6, 0.0]     # 0 + 3 - 0 + 0 = 3
    X[2, :3] = [0.0, 0.5, -0.5]     # boundaries are strict: all zero
    X[3, :3] = [0.2, 0.3, 0.0]      # 2 + 0 - 0 + 1 = 3  (x1 in (0, 0.5])
    want = np.array([4.5, 3.0, 0.0, 3.0])
    assert np.array_equal(CATALOG["synthetic_step"].clean_fn(X), want)


def test_piecewise_formula_at_fixed_points():
    X = np.zeros((3, 5))
    X[0, :3] = [1.0, -2.0, 1.0]
    # 2*relu(1) + 1.5*relu(2) + relu(0.5) - relu(-1) = 2 + 3 + 0.5 - 0 = 5.5
    X[1, :3] = [0.5, 0.5, 0.0]
    # 2*0.5 + 0 + 0 - relu(1.0) = 1 - 1 = 0
    X[2, :3] = [-1.0, 1.0, 2.0]
    # 0 + 0 + relu(1.5) - relu(0) = 1.5
    want = np.array([5.5, 0.0, 1.5])
    assert np.array_equal(CATALOG["synthetic_piecewise"].clean_fn(X), want)


def test_multithreshold_formula_at_fixed_points():
    X = np.zeros((3, 6))
    X[0, :4] = [1.0, 1.0, -1.0, 0.0]
    # 3 + 2 + 1.5 + 1 + 0.5 = 8
    X[1, :4] = [-1.0, 0.0, 0.0, 2.0]
    # all terms off: |x3| = 2 >= 1
    X[2, :4] = [0.5, 0.2, -0.31, 0.99]
    # 3 + 0 + 1.5 + 1 + 0.5 = 6
    want = np.array([8.0, 0.0, 6.0])
    assert np.array_equal(CATALOG["synthetic_multithreshold"].clean_fn(X), want)


# ---------------------------------------------------------------------------
# catalogue shapes and defaults


def test_catalogue_dimensions():
    assert CATALOG["friedman1"].d == 5
    assert CATALOG["friedman1_d100"].d == 100
    assert CATALOG["synthetic_step"].d == 8
    assert CATALOG["synthetic_piecewise"].d == 5
    assert CATALOG["synthetic_multithreshold"].d == 6


def test_default_sizes_and_names():
    ds = gen("synthetic_multithreshold", seed=1)
    assert ds.n == 750 and ds.d == 6
    assert ds.feature_names == tuple(f"x{j}" for j in range(6))
    assert ds.target_name == "y"
    ds2 = gen("friedman1", seed=1)
    assert ds2.n == 2000 and ds2.d == 5


def test_feature_distributions():
    f = gen("friedman1", n=4000, seed=5)
    assert f.X.min() >= 0.0 and f.X.max() <= 1.0
    s = gen("synthetic_step", n=4000, seed=5)
    assert s.X.min() < -2.0 and s.X.max() > 2.0  # unbounded normals


def test_determinism_and_seed_sensitivity():
    a = gen("synthetic_piecewise", n=100, seed=9)
    b = gen("synthetic_piecewise", n=100, seed=9)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    c = gen("synthetic_piecewise", n=100, seed=10)
    assert not np.array_equal(a.X, c.X)


def test_noise_free_target_is_exact_function_of_features():
    # noise_std=0: y must equal the clean formula on the generated features,
    # for every kind and for many seeds
    rng = np.random.default_rng(227)
    for case in range(200):
        kind = list(CATALOG)[case % len(CATALOG)]
        seed = int(rng.integers(1 << 30))
        ds = gen(kind, n=40, noise_std=0.0, seed=seed)
        assert np.array_equal(ds.y, CATALOG[kind].clean_fn(ds.X))


def test_features_unchanged_by_noise_level():
    # features are drawn before noise from one RNG stream, so the feature
    # matrix is invariant to noise_std
    for kind in CATALOG:
        a = gen(kind, n=50, noise_std=0.0, seed=3)
        b = gen(kind, n=50, noise_std=2.0, seed=3)
        assert np.array_equal(a.X, b.X)
        assert not np.array_equal(a.y, b.y)


def test_noise_magnitude_scales():
    a = gen("synthetic_step", n=5000, noise_std=0.0, seed=4)
    b = gen("synthetic_step", n=5000, noise_std=0.3, seed=4)
    resid = b.y - a.y
    assert abs(resid.std() - 0.3) < 0.02
    assert abs(resid.mean()) < 0.02


def test_gen_validation():
    with pytest.raises(ValueError, match="unknown synthetic"):
        gen("nope")
    with pytest.raises(ValueError):
        gen("friedman1", n=1)
    for bad in (-0.5, math.inf, math.nan):
        # inf used to give infinite targets, and nan silently meant no noise
        with pytest.raises(ValueError,
                           match=f"noise_std must be non-negative and finite, got {bad}"):
            gen("friedman1", n=20, noise_std=bad)
