"""Tests for the anisotropic RBF network.

The gradient of the width objective is checked against central finite
differences; activation values against a direct per-entry formula; centre
placement against a Monte-Carlo sign test of the Lipschitz-concentration
claim; and the full pipeline against recoverable targets (a single Gaussian
bump, an axis-aligned anisotropic function).
"""

import math
import tracemalloc

import numpy as np
import pytest

from smoothbench import erbf
from smoothbench.erbf import (
    ErbfModel,
    WIDTH_CAP,
    WIDTH_FLOOR,
    WIDTH_OPTIM_ITERS,
    auto_k,
    erbf_activations,
    erbf_loss_and_grad,
    fit_erbf,
    init_widths,
    local_lipschitz,
    place_centers,
)
from smoothbench.data import Standardizer
from smoothbench.numkit import lbfgs_minimize, ridge_solve
from smoothbench.registry import fit_model
from smoothbench.synth import gen


# ---------------------------------------------------------------------------
# activations


def test_activations_match_direct_formula():
    rng = np.random.default_rng(107)
    for case in range(50):
        n, K, d = int(rng.integers(1, 20)), int(rng.integers(1, 6)), int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        centers = rng.normal(size=(K, d))
        sigma = rng.uniform(0.1, 3.0, size=(K, d))
        Phi = erbf_activations(X, centers, sigma)
        for i in range(n):
            for k in range(K):
                z = ((X[i] - centers[k]) / sigma[k]) ** 2
                want = math.exp(-0.5 * float(z.sum()))
                assert abs(Phi[i, k] - want) < 1e-14


def _activation_oracle(X, centers, sigma):
    """Per-entry formula with an exactly rounded sum over features."""
    n, K = X.shape[0], centers.shape[0]
    Phi = np.empty((n, K))
    for i in range(n):
        for k in range(K):
            z = ((X[i] - centers[k]) / sigma[k]) ** 2
            Phi[i, k] = math.exp(-0.5 * math.fsum(z.tolist()))
    return Phi


@pytest.mark.parametrize("n,K,d", [(60, 12, 9), (40, 9, 20), (1000, 70, 5)])
def test_activations_match_oracle_at_wide_and_harness_shapes(n, K, d):
    rng = np.random.default_rng(1000 + d)
    X = rng.normal(size=(n, d))
    centers = X[rng.choice(n, size=K, replace=False)] + 0.1 * rng.normal(size=(K, d))
    sigma = rng.uniform(0.3, 3.0, size=(K, d)) * math.sqrt(d)
    sigma[0] = WIDTH_FLOOR
    X[0] = centers[0]  # a row on a floor-width centre activates exactly 1
    sigma[1] = WIDTH_CAP
    sigma[2, 0] = WIDTH_FLOOR
    sigma[2, 1:] = WIDTH_CAP
    Phi = erbf_activations(X, centers, sigma)
    want = _activation_oracle(X, centers, sigma)
    assert Phi[0, 0] == 1.0
    assert np.abs(Phi - want).max() < 1e-14


def test_activation_at_center_is_one():
    c = np.array([[0.5, -1.0]])
    Phi = erbf_activations(c, c, np.array([[1.0, 2.0]]))
    assert Phi[0, 0] == 1.0


def test_activations_bounded_in_unit_interval():
    rng = np.random.default_rng(109)
    X = rng.normal(size=(100, 3)) * 10
    centers = rng.normal(size=(7, 3))
    sigma = rng.uniform(1e-6, 1e3, size=(7, 3))
    Phi = erbf_activations(X, centers, sigma)
    assert np.all(Phi >= 0.0) and np.all(Phi <= 1.0)


# ---------------------------------------------------------------------------
# gradient


def central_difference_grad(theta, X, y, centers, w, b, h=1e-6):
    g = np.empty_like(theta)
    for i in range(theta.size):
        tp = theta.copy(); tp[i] += h
        tm = theta.copy(); tm[i] -= h
        fp, _ = erbf_loss_and_grad(tp, X, y, centers, w, b)
        fm, _ = erbf_loss_and_grad(tm, X, y, centers, w, b)
        g[i] = (fp - fm) / (2 * h)
    return g


def test_log_width_gradient_matches_central_differences():
    rng = np.random.default_rng(113)
    for case in range(20):
        n = int(rng.integers(5, 41))
        d = int(rng.integers(1, 4))
        K = int(rng.integers(1, 6))
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        centers = rng.normal(size=(K, d))
        w = rng.normal(size=K)
        b = float(rng.normal())
        theta = np.log(rng.uniform(0.3, 2.0, size=K * d))

        _, grad = erbf_loss_and_grad(theta, X, y, centers, w, b)
        fd = central_difference_grad(theta, X, y, centers, w, b)
        scale = max(1e-8, float(np.abs(fd).max()))
        assert np.abs(grad - fd).max() / scale < 1e-5


def _loss_and_grad_reference(theta, X, y, centers, w, b):
    """The loss and log-width gradient through full (n, K, d) tensors."""
    K, d = centers.shape
    sigma = np.exp(theta.reshape(K, d))
    Z2 = ((X[:, None, :] - centers[None, :, :]) / sigma[None, :, :]) ** 2
    Phi = np.exp(-0.5 * Z2.sum(axis=2))
    r = Phi @ w + b - y
    G = np.einsum("ik,ikj->kj", r[:, None] * Phi, Z2) * (2.0 / len(y)) * w[:, None]
    return float(r @ r) / len(y), G.ravel()


@pytest.mark.parametrize("n,K,d", [(50, 6, 2), (60, 12, 9), (40, 9, 20), (1000, 70, 5),
                                   (300, 40, 100)])
def test_loss_and_grad_match_3d_reference(n, K, d):
    rng = np.random.default_rng(2000 + d)
    X = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    centers = X[rng.choice(n, size=K, replace=False)]
    w = rng.normal(size=K)
    b = float(rng.normal())
    theta = np.log(rng.uniform(0.3, 3.0, size=K * d) * math.sqrt(d))
    mse, grad = erbf_loss_and_grad(theta, X, y, centers, w, b)
    want_mse, want_grad = _loss_and_grad_reference(theta, X, y, centers, w, b)
    # only the order of the float sums may differ: a few ulps of the result
    assert abs(mse - want_mse) <= 1e-13 * want_mse
    assert np.abs(grad - want_grad).max() <= 1e-13 * np.abs(want_grad).max()


def _two_pass_loss_and_grad(theta, X, y, centers, w, b):
    """The former kernel as two passes over (n, K) buffers.

    The activations are summed over features, then each feature's scaled
    square ((x - c) / sigma)^2 is formed again, clamped at 1e30, for its
    gradient column: the first kernel that divided by the widths, kept as a
    reference that the squares kernel must stay within a few ulps of.
    """
    K, d = centers.shape
    n = X.shape[0]
    sigma = np.exp(theta.reshape(K, d))
    Phi = np.zeros((n, K))
    z = np.empty((n, K))

    def scaled_sq(j):
        np.subtract(X[:, j, None], centers[:, j], out=z)
        np.divide(z, sigma[:, j], out=z)
        np.multiply(z, z, out=z)

    for j in range(d):
        scaled_sq(j)
        Phi += z
    Phi *= -0.5
    np.exp(Phi, out=Phi)
    r = Phi @ w + b - y
    A = r[:, None] * Phi
    G = np.empty((K, d))
    for j in range(d):
        scaled_sq(j)
        np.minimum(z, 1e30, out=z)
        G[:, j] = np.einsum("ik,ik->k", A, z)
    G *= (2.0 / n) * w[:, None]
    return float(r @ r) / n, G.ravel()


def _random_problem(n, K, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    centers = X[rng.choice(n, size=K, replace=False)]
    w = rng.normal(size=K)
    b = float(rng.normal())
    theta = np.log(rng.uniform(0.3, 3.0, size=K * d) * math.sqrt(d))
    return theta, X, y, centers, w, b


def _assert_bounded(got, want):
    """The squares kernel against a former one: the sums regroup, so each
    result moves by a few ulps of its scale, never by cancellation."""
    (mse, grad), (want_mse, want_grad) = got, want
    assert abs(mse - want_mse) <= 1e-14 * want_mse
    assert np.abs(grad - want_grad).max() <= 1e-14 * np.abs(want_grad).max()


@pytest.mark.parametrize("n,K,d", [(667, 40, 5), (1000, 80, 5), (1067, 70, 5)])
def test_one_block_is_bounded_by_two_pass_kernel(n, K, d):
    # the friedman1 fit shapes fit in one row block
    assert n * K * d * 8 <= erbf.LOSS_BLOCK_BYTES
    args = _random_problem(n, K, d, seed=n + K)
    _assert_bounded(erbf_loss_and_grad(*args), _two_pass_loss_and_grad(*args))


def test_several_row_blocks_match_references(monkeypatch):
    n, K, d = 50, 6, 3
    # 16-row blocks: 16 + 16 + 16 + a ragged 2
    monkeypatch.setattr(erbf, "LOSS_BLOCK_BYTES", 16 * 8 * K * d)
    args = _random_problem(n, K, d, seed=31)
    mse, grad = erbf_loss_and_grad(*args)
    want_mse, want_grad = _loss_and_grad_reference(*args)
    assert abs(mse - want_mse) <= 1e-13 * want_mse
    assert np.abs(grad - want_grad).max() <= 1e-13 * np.abs(want_grad).max()
    fd = central_difference_grad(*args)
    assert np.abs(grad - fd).max() / max(1e-8, float(np.abs(fd).max())) < 1e-5


def test_degenerate_row_in_last_block_gives_a_non_finite_loss(monkeypatch):
    n, K, d = 50, 6, 3
    monkeypatch.setattr(erbf, "LOSS_BLOCK_BYTES", 16 * 8 * K * d)
    theta, X, y, centers, w, b = _random_problem(n, K, d, seed=37)
    theta.reshape(K, d)[0] = -800.0  # centre 0's widths underflow to zero
    centers[0] = X.max(axis=0) + 1.0  # no row shares a coordinate with it
    X[-1] = centers[0] + 1.0
    mse, grad = erbf_loss_and_grad(theta, X, y, centers, w, b)  # off the centre: finite
    assert math.isfinite(mse) and np.isfinite(grad).all()
    X[-1] = centers[0]  # row 49, in the ragged last block, now sits on it: 0/0
    mse, grad = erbf_loss_and_grad(theta, X, y, centers, w, b)
    assert math.isnan(mse) and not np.isfinite(grad).all()


def _recomputed_loss_and_grad(theta, X, y, centers, w, b):
    """The former blocked kernel: it formed every block's x - c again on each
    call, divided by sigma, squared and always clamped at 1e30. Its bits were
    those of the held block of differences that preceded the squares kernel,
    so it stands for the former kernel at every block count."""
    K, d = centers.shape
    n = X.shape[0]
    B = max(1, min(n, erbf.LOSS_BLOCK_BYTES // (8 * K * d)))
    Xt = np.ascontiguousarray(X.T)[:, :, None]
    Ct = np.ascontiguousarray(centers.T)[:, None, :]
    Z = np.empty((d, B, K))
    Phi = np.empty((B, K))
    r = np.empty(n)
    Gt = np.empty((d, K))
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        St = np.ascontiguousarray(np.exp(theta.reshape(K, d)).T)[:, None, :]
        for s in range(0, n, B):
            e = min(s + B, n)
            Zb, Pb, rb = Z[:, :e - s], Phi[:e - s], r[s:e]
            np.copyto(Zb, Xt[:, s:e])
            Zb -= Ct
            Zb /= St
            Zb *= Zb
            Pb.fill(0.0)
            for j in range(d):
                Pb += Zb[j]
            Pb *= -0.5
            np.exp(Pb, out=Pb)
            np.matmul(Pb, w, out=rb)
            rb += b
            rb -= y[s:e]
            Pb *= rb[:, None]
            np.minimum(Zb, 1e30, out=Zb)
            if s == 0:
                np.einsum("ik,jik->jk", Pb, Zb, out=Gt)
            else:
                Gt += np.einsum("ik,jik->jk", Pb, Zb)
        mse = float(r @ r) / n
        Gt *= (2.0 / n) * w
    return mse, Gt.T.ravel()


def _recomputed_squares_loss_and_grad(theta, X, y, centers, w, b):
    """The squares kernel with every block's squares formed afresh on each
    call, by one broadcast subtract and np.square into a (d, rows, K) array:
    the bits that the held block and the later blocks' scratch buffer must
    give. einsum's order of summation follows the memory layout, so the
    squares are laid out as the kernel's."""
    K, d = centers.shape
    n = X.shape[0]
    B = max(1, min(n, erbf.LOSS_BLOCK_BYTES // (8 * K * d)))
    s = erbf._inverse_sq(np.exp(theta.reshape(K, d)))
    r = np.empty(n)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for a in range(0, n, B):
            e = min(a + B, n)
            S = np.ascontiguousarray(np.square(X[a:e].T[:, :, None] - centers.T[:, None, :]))
            Phi = np.empty((e - a, K))
            erbf._activations_block(S, s, out=Phi)
            r[a:e] = Phi @ w + b - y[a:e]
            G = np.einsum("ik,jik->jk", r[a:e, None] * Phi, S)
            Gt = G if a == 0 else Gt + G
        Gt *= np.minimum(s, np.finfo(np.float64).max) * ((2.0 / n) * w)
    return float(r @ r) / n, Gt.T.ravel()


def _assert_equals_recomputed(args, held=None):
    got = erbf_loss_and_grad(*args, held)
    want_mse, want_grad = _recomputed_squares_loss_and_grad(*args)
    assert got[0] == want_mse
    assert np.array_equal(got[1].view(np.uint64), want_grad.view(np.uint64))
    _assert_bounded(got, _recomputed_loss_and_grad(*args))


@pytest.mark.parametrize("n,K,d", [(667, 40, 5), (1000, 80, 5), (1067, 70, 5)])
def test_held_block_equals_recomputed_kernel_at_fit_shapes(n, K, d):
    theta, X, y, centers, w, b = _random_problem(n, K, d, seed=3 * n + K)
    held = erbf.held_differences(X, centers)
    assert held.shape == (d, n, K)  # one block: every row is held
    rng = np.random.default_rng(n)
    for _ in range(5):  # one held block serves every evaluation of a fit
        theta = theta + rng.normal(scale=0.3, size=theta.size)
        _assert_equals_recomputed((theta, X, y, centers, w, b), held)


def test_held_block_equals_recomputed_kernel_over_several_blocks(monkeypatch):
    rng = np.random.default_rng(41)
    for case in range(20):
        n, K, d = int(rng.integers(2, 120)), int(rng.integers(1, 9)), int(rng.integers(1, 6))
        rows = int(rng.integers(1, n + 1))
        monkeypatch.setattr(erbf, "LOSS_BLOCK_BYTES", rows * 8 * K * d)
        args = _random_problem(n, max(1, min(K, n)), d, seed=case)
        assert erbf.held_differences(args[1], args[3]).shape[1] == rows
        _assert_equals_recomputed(args)


@pytest.mark.parametrize("blocks", [1, 3])
def test_overflowing_widths_are_clamped_as_before(monkeypatch, blocks):
    n, K, d = 60, 5, 3
    monkeypatch.setattr(erbf, "LOSS_BLOCK_BYTES", -(-n // blocks) * 8 * K * d)
    theta, X, y, centers, w, b = _random_problem(n, K, d, seed=43)
    held = erbf.held_differences(X, centers)
    # ((x - c) / sigma)^2 above 1e30 in rows of the held block: the former
    # kernel's clamp ran, and sigma^-2 overflows, so s is clamped
    theta.reshape(K, d)[1, 2] = -40.0
    theta.reshape(K, d)[3, 0] = -600.0  # sigma near 1e-261: z_j is inf
    with np.errstate(over="ignore"):
        assert (held[2] * np.exp(-2.0 * theta.reshape(K, d))[:, 2] > 1e30).any()
        assert np.isinf(np.exp(theta.reshape(K, d)[3, 0]) ** -2.0)
    assert erbf._inverse_sq(np.exp(theta.reshape(K, d)))[0, 3] == np.finfo(np.float64).max
    _assert_equals_recomputed((theta, X, y, centers, w, b), held)


@pytest.mark.parametrize("block", ["held", "later"])
@pytest.mark.parametrize("on_centre", [False, True])
@pytest.mark.parametrize("log_width", [-40.0, -354.0, -360.0, -600.0, -745.0, -800.0])
def test_extreme_widths_keep_their_outcomes(monkeypatch, log_width, on_centre, block):
    # sigma^-2 overflows below theta = -354.9 and sigma is 0 below -745.1:
    # the loss is finite exactly where the former kernel's was, and not
    # finite exactly where the former kernel's was not (0/0 on the centre)
    n, K, d = 50, 6, 3
    monkeypatch.setattr(erbf, "LOSS_BLOCK_BYTES", 16 * 8 * K * d)
    theta, X, y, centers, w, b = _random_problem(n, K, d, seed=53)
    theta.reshape(K, d)[0] = log_width
    centers[0] = X.max(axis=0) + 1.0  # no other row shares a coordinate with it
    X[0 if block == "held" else n - 1] = centers[0] + (0.0 if on_centre else 1.0)
    want = _recomputed_loss_and_grad(theta, X, y, centers, w, b)
    if math.isfinite(want[0]) and np.isfinite(want[1]).all():
        _assert_bounded(erbf_loss_and_grad(theta, X, y, centers, w, b), want)
    else:
        assert on_centre and log_width < -745.1
        mse, grad = erbf_loss_and_grad(theta, X, y, centers, w, b)
        assert math.isnan(mse) and not np.isfinite(grad).all()


def test_held_block_gives_zero_over_zero_like_the_recomputed_kernel():
    # a row on a centre whose widths underflowed to zero: 0/0 in the held block
    theta, X, y, centers, w, b = _random_problem(20, 3, 2, seed=47)
    theta.reshape(3, 2)[0] = -800.0
    X[4] = centers[0]
    with np.errstate(invalid="ignore"):
        want_mse, _ = _recomputed_loss_and_grad(theta, X, y, centers, w, b)
    assert not math.isfinite(want_mse)
    mse, grad = erbf_loss_and_grad(theta, X, y, centers, w, b,
                                   erbf.held_differences(X, centers))
    assert math.isnan(mse) and not np.isfinite(grad).all()


@pytest.mark.parametrize("rows", [None, 7])
def test_loss_activations_equal_erbf_activations(monkeypatch, rows):
    # the loss and predict share one activation path, so the widths that the
    # fit chose see the activations that it scored
    n, K, d = 60, 5, 3
    if rows:
        monkeypatch.setattr(erbf, "LOSS_BLOCK_BYTES", rows * 8 * K * d)
    theta, X, y, centers, w, b = _random_problem(n, K, d, seed=59)
    seen = []
    block = erbf._activations_block

    def recording(S, s, out):
        block(S, s, out)
        seen.append(out.copy())

    monkeypatch.setattr(erbf, "_activations_block", recording)
    erbf_loss_and_grad(theta, X, y, centers, w, b)
    assert len(seen) == -(-n // (rows or n))
    from_loss = np.concatenate(seen)
    Phi = erbf_activations(X, centers, np.exp(theta.reshape(K, d)))
    assert np.array_equal(from_loss.view(np.uint64), Phi.view(np.uint64))
    # a fit's initial and final Phi contract the held block instead of
    # squaring it again, with the same bits; the later blocks' scratch
    # leaves the held block as it was
    held = erbf.held_differences(X, centers)
    assert held.shape == (d, rows or n, K)
    kept = held.copy()
    from_held = erbf_activations(X, centers, np.exp(theta.reshape(K, d)), held)
    assert np.array_equal(from_held.view(np.uint64), Phi.view(np.uint64))
    assert np.array_equal(held.view(np.uint64), kept.view(np.uint64))


def test_fit_squares_its_rows_once(monkeypatch):
    # at d = 5 every friedman1 row fits in the held block, so the initial Phi,
    # each width-loss evaluation and the final Phi all use one set of squares
    calls = []
    squares = erbf._squares

    def counting(X, centers, out):
        calls.append(X.shape[0])
        squares(X, centers, out)

    monkeypatch.setattr(erbf, "_squares", counting)
    train = gen("friedman1", n=400, seed=67)
    model = fit_erbf(train.X, train.y, n_rbf=40, seed=0)
    assert model.fit_info["stage3_iterations"] > 0
    assert calls == [400]


def test_gradient_zero_when_weights_zero():
    # with w = 0 the widths cannot change the loss, so the gradient vanishes
    rng = np.random.default_rng(127)
    X = rng.normal(size=(10, 2))
    y = rng.normal(size=10)
    centers = rng.normal(size=(3, 2))
    theta = np.zeros(6)
    mse, grad = erbf_loss_and_grad(theta, X, y, centers, np.zeros(3), 0.0)
    assert np.array_equal(grad, np.zeros(6))
    assert mse == pytest.approx(float(((y - 0.0) ** 2).mean()))


def test_degenerate_widths_give_a_loss_that_lbfgs_refuses():
    # a training row sitting exactly on a centre with an underflowed width
    # produces 0/0 activations: the loss and gradient are NaN, and L-BFGS
    # refuses such a point instead of scoring it
    X = np.array([[1.0, 2.0]])
    centers = X.copy()
    theta = np.full(2, -800.0)  # exp -> 0 widths

    def loss(t):
        return erbf_loss_and_grad(t, X, np.array([0.0]), centers, np.array([1.0]), 0.0)

    mse, grad = loss(theta)
    assert math.isnan(mse) and np.isnan(grad).all()
    with pytest.raises(ValueError, match="not finite at the initial point"):
        lbfgs_minimize(loss, theta, max_iter=5)


# ---------------------------------------------------------------------------
# auto_k and config


def test_auto_k_cases():
    assert auto_k(2000, 5) == 40        # max(40, 10) within [20, 200]
    assert auto_k(2000, 100) == 200     # 2d = 200 hits the cap
    assert auto_k(300, 5) == 30         # n//10 = 30 < 40: upper bound wins
    assert auto_k(100, 5) == 10         # upper bound 10 beats the lower bound 20
    assert auto_k(5000, 30) == 60
    with pytest.raises(ValueError):
        auto_k(9, 3)


def test_config_validation():
    rng = np.random.default_rng(173)
    X = rng.normal(size=(40, 2))
    y = rng.normal(size=40)
    for bad in ({"center_init": "grid"}, {"width_init": "global"},
                {"n_rbf": 0}, {"n_rbf": "many"}, {"n_rbf": 2.5}, {"n_rbf": True},
                {"alpha": -0.1}, {"n_rbf_mode": "fixed"}, {"width_optim_iters": 30}):
        with pytest.raises(ValueError):
            fit_model("erbf", X, y, bad)
    with pytest.raises(ValueError, match="n_rbf must be a positive integer or None, got True"):
        fit_model("erbf", X, y, {"n_rbf": True})
    for name in ("n_rbf_mode", "width_optim_iters"):
        with pytest.raises(ValueError, match=f"erbf has no hyperparameter '{name}'"):
            fit_model("erbf", X, y, {name: 1})


# ---------------------------------------------------------------------------
# Lipschitz estimate and centre placement


def test_local_lipschitz_linear_target_matches_slope():
    # for y = 3x in 1-d, every |dy|/|dx| ratio is exactly 3 (up to the eps in
    # the denominator), and the percentile cap keeps it there
    x = np.sort(np.random.default_rng(131).uniform(0, 1, 200))
    L = local_lipschitz(x[:, None], 3.0 * x)
    assert np.abs(L - 3.0).max() < 1e-3


def test_local_lipschitz_flags_steep_region():
    # step target: points near the jump see a huge ratio, far points see ~0
    rng = np.random.default_rng(137)
    x = rng.uniform(-1, 1, 400)
    y = (x > 0).astype(float)
    L = local_lipschitz(x[:, None], y)
    near = np.abs(x) < 0.05
    far = np.abs(x) > 0.5
    assert L[near].mean() > 10 * max(L[far].mean(), 1e-12)


def test_local_lipschitz_percentile_cap(monkeypatch):
    rng = np.random.default_rng(139)
    x = rng.uniform(-1, 1, 300)
    y = (x > 0).astype(float)
    monkeypatch.setattr(erbf, "LIPSCHITZ_CLIP_PERCENTILE", 50.0)
    L = local_lipschitz(x[:, None], y)
    assert (L == L.max()).sum() >= 150  # at least half the points sit at the cap


def test_local_lipschitz_matches_brute_force_across_chunks():
    rng = np.random.default_rng(149)
    n, k = 1000, erbf.LIPSCHITZ_K
    block = erbf.LIPSCHITZ_BLOCK_BYTES // (8 * n)
    assert n // block >= 3 and n % block  # several row blocks, the last one ragged
    X = rng.normal(size=(n, 3))
    y = np.sin(2 * X[:, 0]) + X[:, 1] * X[:, 2]
    want = np.empty(n)
    for i in range(n):
        dist = np.sqrt(((X - X[i]) ** 2).sum(axis=1))
        dist[i] = np.inf
        nb = np.argsort(dist)[:k]
        want[i] = np.max(np.abs(y[i] - y[nb]) / (dist[nb] + 1e-12))
    want = np.minimum(want, np.percentile(want, 99.0))
    L = local_lipschitz(X, y)
    # distances come from the Gram expansion here, from differences above
    np.testing.assert_allclose(L, want, rtol=1e-9, atol=0)


def lipschitz_in_chunks(X, y):
    """The former local_lipschitz: rows in chunks of 2_000_000 // n, one chunk when n <= 1414."""
    n = X.shape[0]
    kk = min(erbf.LIPSCHITZ_K, n - 1)
    L = np.empty(n)
    chunk = max(1, 2_000_000 // n)
    for start in range(0, n, chunk):
        rows = slice(start, min(start + chunk, n))
        A = X[rows]
        d2 = np.maximum((A * A).sum(axis=1)[:, None] + (X * X).sum(axis=1)[None, :]
                        - 2.0 * (A @ X.T), 0.0)
        local = np.arange(d2.shape[0])
        d2[local, start + local] = np.inf
        nb = np.argpartition(d2, kk - 1, axis=1)[:, :kk]
        dists = np.sqrt(np.take_along_axis(d2, nb, axis=1))
        L[rows] = np.max(np.abs(y[rows, None] - y[nb]) / (dists + 1e-12), axis=1)
    return np.minimum(L, np.percentile(L, 99.0))


def test_local_lipschitz_and_its_centres_match_the_chunked_kernel(monkeypatch):
    # row blocks multiply by gemm, the single chunk by the symmetric kernel:
    # L moves in the last bits only, and the drawn centres not at all, also
    # on rounded data with distance and target ties
    rng = np.random.default_rng(151)
    for case in range(300):
        n, d = int(rng.integers(2, 1200)), int(rng.integers(1, 8))
        X = rng.normal(size=(n, d))
        if case % 3 == 0:
            X = np.round(X, 1)
        y = np.sin(X[:, 0]) + X[:, -1] ** 2
        if case % 4 == 0:
            y = np.round(y, 1)
        got, want = local_lipschitz(X, y), lipschitz_in_chunks(X, y)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        k = int(rng.integers(1, min(n, 50) + 1))
        centres = []
        for L in (got, want):
            monkeypatch.setattr(erbf, "local_lipschitz", lambda X, y, L=L: L)
            centres.append(place_centers(X, y, k, "lipschitz", seed=case))
        assert np.array_equal(*centres), case


def test_local_lipschitz_memory_is_bounded_by_its_block():
    # at n = 3000 one chunk of the former kernel held 666 rows, 16 MB per array
    rng = np.random.default_rng(157)
    X = rng.normal(size=(3000, 5))
    y = X[:, 0] * X[:, 1]
    tracemalloc.start()
    try:
        local_lipschitz(X, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * erbf.LIPSCHITZ_BLOCK_BYTES + 2**20, peak


def test_place_centers_lipschitz_concentrates_near_jump():
    # Monte-Carlo sign test over 200 seeds: on y = 1{x > 0} the share of
    # centres landing in |x| < 0.1 under Lipschitz weighting beats uniform
    # placement more often than chance.  Under H0 (no concentration) each
    # comparison is a fair coin; 200 trials give a binomial tail that makes
    # >= 131 wins a p < 1e-5 one-sided rejection
    wins = 0
    ties = 0
    for seed in range(200):
        rng = np.random.default_rng(10_000 + seed)
        x = rng.uniform(-1, 1, 300)
        y = (x > 0).astype(float)
        X = x[:, None]
        centers = place_centers(X, y, k=30, mode="lipschitz", seed=seed)
        got = int((np.abs(centers[:, 0]) < 0.1).sum())
        uniform_idx = np.random.default_rng(seed).choice(300, size=30, replace=False)
        want = int((np.abs(x[uniform_idx]) < 0.1).sum())
        if got > want:
            wins += 1
        elif got == want:
            ties += 1
    assert wins >= 131, f"wins={wins}, ties={ties}"


def test_place_centers_kmeans_mode_returns_centroids():
    rng = np.random.default_rng(149)
    X = np.vstack([rng.normal(loc=0, scale=0.1, size=(50, 2)),
                   rng.normal(loc=5, scale=0.1, size=(50, 2))])
    y = rng.normal(size=100)
    centers = place_centers(X, y, k=2, mode="kmeans", seed=3)
    centers = centers[np.argsort(centers[:, 0])]
    assert np.abs(centers[0] - 0).max() < 0.5
    assert np.abs(centers[1] - 5).max() < 0.5


def test_place_centers_lipschitz_draws_distinct_training_rows():
    rng = np.random.default_rng(151)
    X = rng.normal(size=(40, 2))
    y = rng.normal(size=40)
    centers = place_centers(X, y, k=40, mode="lipschitz", seed=0)
    # k = n forces every row to be used exactly once
    got = centers[np.lexsort(centers.T)]
    want = X[np.lexsort(X.T)]
    assert np.array_equal(got, want)


def test_place_centers_constant_target_falls_back_to_uniform():
    # all Lipschitz estimates are zero; sampling must still return k rows
    rng = np.random.default_rng(157)
    X = rng.normal(size=(30, 2))
    y = np.zeros(30)
    centers = place_centers(X, y, k=10, mode="lipschitz", seed=1)
    assert centers.shape == (10, 2)
    assert np.isfinite(centers).all()


def test_place_centers_validation():
    X = np.zeros((5, 1))
    y = np.zeros(5)
    with pytest.raises(ValueError):
        place_centers(X, y, k=6, mode="lipschitz", seed=0)
    with pytest.raises(ValueError):
        place_centers(X, y, k=2, mode="grid", seed=0)


# ---------------------------------------------------------------------------
# width initialisation


def test_init_widths_bounds_and_shape():
    rng = np.random.default_rng(163)
    for mode in ("local_ridge", "local_variance"):
        X = rng.normal(size=(100, 3))
        y = rng.normal(size=100)
        centers = X[:7].copy()
        sigma = init_widths(X, y, centers, mode=mode)
        assert sigma.shape == (7, 3)
        assert np.all(sigma >= WIDTH_FLOOR) and np.all(sigma <= WIDTH_CAP)


def test_init_widths_local_variance_formula():
    # neighbourhood size is min(n, max(10, min(100, n // K))); with n = 10 it
    # is the whole sample for every centre, so the width is the population
    # std of each column times sqrt(d)
    rng = np.random.default_rng(167)
    X = rng.normal(size=(10, 2)) * np.array([1.0, 5.0])
    y = rng.normal(size=10)
    centers = X[:3].copy()
    sigma = init_widths(X, y, centers, mode="local_variance")
    want = np.clip(X.std(axis=0) * math.sqrt(2), WIDTH_FLOOR, WIDTH_CAP)
    for k in range(3):
        assert np.abs(sigma[k] - want).max() < 1e-12


def test_init_widths_local_ridge_widens_flat_directions():
    # y depends only on x0: |beta_1| ~ 0 so sigma_k1 blows up toward the cap,
    # while sigma_k0 stays moderate
    rng = np.random.default_rng(173)
    X = rng.normal(size=(200, 2))
    y = 2.0 * X[:, 0]
    centers = X[:5].copy()
    sigma = init_widths(X, y, centers, mode="local_ridge")
    assert np.median(sigma[:, 1]) > 5 * np.median(sigma[:, 0])


def _knn_per_centre(X, point, k):
    """The one-point kNN query that init_widths made per centre before it
    queried blocks of centres at once."""
    d2 = ((X - point) ** 2).sum(axis=1)
    return np.argsort(d2, kind="stable")[:k]


def _init_widths_per_centre(X, y, centers, mode):
    """Reference: init_widths with one kNN query and one ridge_solve per centre."""
    n, d = X.shape
    K = centers.shape[0]
    k_nn = min(n, max(10, min(100, n // K)))
    sigma = np.empty((K, d))
    for ki in range(K):
        nb = _knn_per_centre(X, centers[ki], k_nn)
        var = X[nb].var(axis=0)
        if mode == "local_ridge":
            beta, _ = ridge_solve(X[nb], y[nb], alpha=1e-3)
            sigma[ki] = 1.5 * math.sqrt(d) * np.sqrt(var / np.maximum(np.abs(beta), 1e-8))
        else:
            sigma[ki] = np.sqrt(var) * math.sqrt(d)
    return np.clip(sigma, WIDTH_FLOOR, WIDTH_CAP)


def test_init_widths_matches_per_centre_loop_bitwise(monkeypatch):
    # every third case rounds the inputs, so neighbour distances tie; every
    # other case shrinks the byte budget, so the kNN queries run in several
    # blocks of centres, down to one centre per block
    rng = np.random.default_rng(179)
    default_bytes = erbf.LOSS_BLOCK_BYTES
    for case in range(36):
        n, d = int(rng.integers(30, 400)), int(rng.integers(1, 12))
        K = int(rng.integers(1, min(60, n // 2) + 1))
        X = rng.normal(size=(n, d))
        y = X[:, 0] + rng.normal(size=n)
        if case % 3 == 0:
            X, y = np.round(X, 1), np.round(y, 1)
        centers = X[rng.choice(n, K, replace=False)]
        per_block = int(rng.integers(1, 8)) if case % 2 else None
        monkeypatch.setattr(erbf, "LOSS_BLOCK_BYTES",
                            per_block * 8 * n * d if per_block else default_bytes)
        for mode in ("local_ridge", "local_variance"):
            got = init_widths(X, y, centers, mode=mode)
            want = _init_widths_per_centre(X, y, centers, mode)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (case, mode)


def test_init_widths_mode_validation():
    X = np.zeros((10, 1))
    with pytest.raises(ValueError):
        init_widths(X, np.zeros(10), X[:2], mode="nope")


# ---------------------------------------------------------------------------
# full pipeline


def _stage3(kernel, Xs, y, centers, sigma0, w0, b0):
    """fit_erbf's stage 3 with the width loss swapped for kernel."""
    K, d = centers.shape
    res = lbfgs_minimize(lambda theta: kernel(theta, Xs, y, centers, w0, b0),
                         np.log(sigma0).ravel(), max_iter=WIDTH_OPTIM_ITERS)
    return res.iterations, np.exp(res.x.reshape(K, d))


@pytest.mark.parametrize("K", [40, 80])
def test_width_fit_is_bounded_by_the_former_kernel(K):
    # a few ulps per evaluation must not grow into another fit: from the same
    # stage-1/2 start, L-BFGS takes as many steps to nearly the same widths
    train, query = gen("friedman1", n=667, seed=K), gen("friedman1", n=300, seed=K + 1)
    std = Standardizer.fit(train.X)
    Xs, Qs, y = std.apply(train.X), std.apply(query.X), train.y
    centers = place_centers(Xs, y, K, mode="lipschitz", seed=K)
    sigma0 = init_widths(Xs, y, centers, mode="local_ridge")
    w0, b0 = ridge_solve(erbf_activations(Xs, centers, sigma0), y, 1.0)
    fits = [_stage3(kernel, Xs, y, centers, sigma0, w0, b0)
            for kernel in (erbf_loss_and_grad, _recomputed_loss_and_grad)]
    preds = []
    for _, sigma in fits:
        w, b = ridge_solve(erbf_activations(Xs, centers, sigma), y, 1.0)
        preds.append(erbf_activations(Qs, centers, sigma) @ w + b)
    (iters, sigma), (want_iters, want_sigma) = fits
    assert iters == want_iters
    assert np.abs(sigma / want_sigma - 1.0).max() <= 1e-6
    assert np.abs(preds[0] - preds[1]).max() <= 1e-7 * np.ptp(y)


def test_recovers_single_gaussian_bump():
    rng = np.random.default_rng(179)
    X = rng.uniform(-2, 2, size=(400, 2))
    y = np.exp(-0.5 * ((X[:, 0] - 0.3) ** 2 / 0.5 ** 2 + (X[:, 1] + 0.2) ** 2 / 0.8 ** 2))
    model = fit_erbf(X, y, n_rbf=20, alpha=1e-6, seed=0)
    Q = rng.uniform(-1.5, 1.5, size=(300, 2))
    yq = np.exp(-0.5 * ((Q[:, 0] - 0.3) ** 2 / 0.5 ** 2 + (Q[:, 1] + 0.2) ** 2 / 0.8 ** 2))
    pred = model.predict(Q)
    ss_res = float(((pred - yq) ** 2).sum())
    ss_tot = float(((yq - yq.mean()) ** 2).sum())
    assert 1.0 - ss_res / ss_tot > 0.99


def test_anisotropy_noise_axis_gets_wider_sigma():
    # y = f(x0) with x1 pure noise: after training, the median width along
    # the irrelevant axis must exceed the median along the informative axis
    rng = np.random.default_rng(181)
    X = rng.uniform(-1, 1, size=(500, 2))
    y = np.sin(3 * X[:, 0])
    model = fit_erbf(X, y, n_rbf=25, alpha=1e-4, seed=1)
    assert np.median(model.sigma[:, 1]) > np.median(model.sigma[:, 0])


def test_width_positivity_and_stage3_progress():
    # across random fits: widths stay strictly positive (structural, via the
    # log parameterisation) and Stage 3 never worsens the training MSE
    rng = np.random.default_rng(191)
    for case in range(25):
        n = int(rng.integers(30, 90))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=n)
        cfg = dict(
            n_rbf=int(rng.integers(3, 12)),
            alpha=float(rng.uniform(1e-4, 1.0)),
            center_init=("lipschitz", "kmeans")[int(rng.integers(2))],
            width_init=("local_ridge", "local_variance")[int(rng.integers(2))],
            seed=int(rng.integers(1 << 16)),
        )
        model = fit_erbf(X, y, **cfg)
        assert np.all(model.sigma > 0)
        assert np.isfinite(model.sigma).all()
        info = model.fit_info
        assert info["stage3_mse_after"] <= info["stage3_mse_before"] + 1e-12


def test_stage3_actually_improves_on_poor_init():
    # single unit, centre at the origin, target is a wide bump: the width
    # optimiser must improve MSE materially over the initial guess
    rng = np.random.default_rng(193)
    X = rng.uniform(-3, 3, size=(300, 1))
    y = np.exp(-0.5 * X[:, 0] ** 2 / 2.0 ** 2)
    model = fit_erbf(X, y, n_rbf=3, alpha=1e-8, seed=5)
    info = model.fit_info
    assert info["stage3_mse_after"] < info["stage3_mse_before"]
    assert 1 <= info["stage3_iterations"] <= WIDTH_OPTIM_ITERS


def test_an_error_inside_the_width_loss_reaches_the_caller(monkeypatch):
    # a fault in the loss is no infeasible width: it must not be read as
    # one, with the line search backing off and the fit returning a model
    real_loss, calls = erbf.erbf_loss_and_grad, []

    def loss_failing_from_its_4th_call(*args):
        calls.append(None)
        if len(calls) >= 4:
            raise ValueError("fault inside the loss")
        return real_loss(*args)

    monkeypatch.setattr(erbf, "erbf_loss_and_grad", loss_failing_from_its_4th_call)
    ds = gen("friedman1", n=400, seed=3)
    with pytest.raises(ValueError, match="fault inside the loss"):
        fit_erbf(ds.X, ds.y, seed=0)
    assert len(calls) == 4


def test_fit_determinism():
    rng = np.random.default_rng(199)
    X = rng.normal(size=(80, 3))
    y = rng.normal(size=80)
    cfg = dict(n_rbf=8, alpha=0.1, seed=7)
    m1 = fit_erbf(X, y, **cfg)
    m2 = fit_erbf(X, y, **cfg)
    assert np.array_equal(m1.sigma, m2.sigma)
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.bias == m2.bias


def test_auto_k_is_recorded_and_bounded_by_n():
    rng = np.random.default_rng(211)
    X = rng.normal(size=(250, 4))
    y = rng.normal(size=250)
    model = fit_erbf(X, y, seed=3)
    assert model.fit_info["resolved_k"] == auto_k(250, 4) == 25
    assert model.n_rbf == 25

    with pytest.raises(ValueError):
        fit_erbf(X[:20], y[:20], n_rbf=21)


def test_fit_rejects_nonfinite_inputs():
    X = np.ones((30, 2))
    X[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        fit_erbf(X, np.zeros(30), n_rbf=3)


def test_serialization_round_trip():
    rng = np.random.default_rng(223)
    X = rng.normal(size=(90, 2))
    y = np.cos(X[:, 0]) + rng.normal(size=90) * 0.05
    model = fit_erbf(X, y, n_rbf=6, alpha=0.01, seed=9)
    back = ErbfModel.from_dict(model.to_dict(), 2)
    Q = rng.normal(size=(40, 2))
    assert np.array_equal(model.predict(Q), back.predict(Q))
    assert back.fit_info == model.fit_info
