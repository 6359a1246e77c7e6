"""Tests for the numerical kernels: ridge solve, k-means, k-NN, L-BFGS.

Each kernel is checked against an independent oracle: ridge against a direct
normal-equations solve, k-NN against a brute-force sort, k-means against the
Lloyd SSE monotonicity guarantee, and L-BFGS against problems with known
minima (quadratics, Rosenbrock).
"""

import numpy as np
import pytest

from smoothbench import numkit
from smoothbench.numkit import (
    OptimResult,
    kmeans,
    knn_indices,
    lbfgs_minimize,
    ridge_solve,
    ridge_solve_segments,
    sq_dists,
)


# ---------------------------------------------------------------------------
# ridge_solve


def ridge_oracle(Phi, y, alpha):
    """Brute-force ridge via np.linalg.solve on the explicit normal equations.

    Intercept handled by augmenting with a ones column and zeroing its
    penalty entry, which is algebraically the same as centre-and-recover.
    """
    n, p = Phi.shape
    A = np.column_stack([Phi, np.ones(n)])
    P = np.eye(p + 1) * alpha
    P[p, p] = 0.0
    coef = np.linalg.solve(A.T @ A + P, A.T @ y)
    return coef[:p], coef[p]


def test_ridge_matches_normal_equations_oracle():
    rng = np.random.default_rng(7)
    for case in range(100):
        n = int(rng.integers(5, 51))
        p = int(rng.integers(1, 11))
        Phi = rng.normal(size=(n, p)) * rng.uniform(0.1, 10)
        w_true = rng.normal(size=p)
        y = Phi @ w_true + rng.normal(size=n) * 0.1
        alpha = float(rng.choice([0.0, 0.3, 10.0]))
        if alpha == 0.0 and n <= p:
            alpha = 0.3  # keep the oracle's unpenalised solve well-posed
        w, b = ridge_solve(Phi, y, alpha)
        w_ref, b_ref = ridge_oracle(Phi, y, alpha)
        scale = max(1.0, np.linalg.norm(w_ref))
        assert np.linalg.norm(w - w_ref) / scale < 1e-8
        assert abs(b - b_ref) / max(1.0, abs(b_ref)) < 1e-8


def test_ridge_exact_interpolation_without_penalty():
    # alpha=0 with one row more than columns: [Phi, 1] is square and
    # well-conditioned, so weights plus intercept reproduce y exactly
    rng = np.random.default_rng(1)
    Phi = rng.normal(size=(7, 6)) + 3 * np.eye(7, 6)
    y = rng.normal(size=7)
    w, b = ridge_solve(Phi, y, alpha=0.0)
    assert np.allclose(Phi @ w + b, y, atol=1e-8)


def test_ridge_shrinkage_monotonicity():
    # ||w(alpha2)|| <= ||w(alpha1)|| + 1e-10 whenever alpha1 < alpha2
    rng = np.random.default_rng(13)
    for case in range(200):
        n = int(rng.integers(8, 40))
        p = int(rng.integers(1, 8))
        Phi = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        a1 = float(rng.uniform(0.0, 5.0))
        a2 = a1 + float(rng.uniform(0.01, 20.0))
        w1, _ = ridge_solve(Phi, y, a1 if n > p else a1 + 0.1)
        w2, _ = ridge_solve(Phi, y, a2)
        assert np.linalg.norm(w2) <= np.linalg.norm(w1) + 1e-10


def test_ridge_intercept_is_unpenalised():
    # a huge constant offset must be absorbed by b even at large alpha
    rng = np.random.default_rng(3)
    Phi = rng.normal(size=(50, 3))
    y = Phi @ np.array([1.0, -2.0, 0.5]) + 1e4
    _, b = ridge_solve(Phi, y, alpha=100.0)
    assert abs(b - 1e4) < 1.0


def test_ridge_singular_jitter_rescue_and_hard_failure():
    # three equal columns give a rank-1 centred normal matrix with alpha=0:
    # the first factorisation fails, and the one-shot diagonal jitter
    # (1e-10 * trace / p) makes the retry succeed with finite weights
    Phi = np.column_stack([np.arange(10.0)] * 3)
    Xc = Phi - Phi.mean(axis=0)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(Xc.T @ Xc)
    w, _ = ridge_solve(Phi, np.arange(10.0), alpha=0.0)
    assert np.isfinite(w).all()
    # an all-zero design has trace 0, so the jitter is 0 and the retry also
    # fails; that is the hard-error path
    with pytest.raises(np.linalg.LinAlgError):
        ridge_solve(np.zeros((5, 2)), np.zeros(5), alpha=0.0)


def test_ridge_input_validation():
    with pytest.raises(ValueError):
        ridge_solve(np.zeros((3, 2)), np.zeros(4), 1.0)
    with pytest.raises(ValueError):
        ridge_solve(np.zeros((3, 2)), np.zeros(3), -1.0)
    with pytest.raises(ValueError):
        ridge_solve(np.full((3, 2), np.nan), np.zeros(3), 1.0)


def _reference_ridge_solve(Phi, y, alpha):
    """One system solved on its own, with no segment arrays: the centring,
    Gram matrix, factorisation, substitution and intercept that the
    one-segment case of ridge_solve_segments must match bit for bit."""
    Phi = np.asarray(Phi, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    col_means = Phi.mean(axis=0)
    y_mean = float(y.mean())
    Xc = Phi - col_means
    L = numkit._ridge_cholesky(Xc.T @ Xc, alpha)
    w = numkit._cho_solve(L, Xc.T @ (y - y_mean))
    return w, y_mean - float(col_means @ w)


def test_ridge_solve_keeps_the_bits_of_its_former_body():
    rng = np.random.default_rng(23)
    retried = 0
    for case in range(300):
        n = int(rng.integers(2, 400))
        p = int(rng.integers(1, 60))
        Phi = rng.normal(size=(n, p)) * rng.uniform(0.1, 10) + rng.uniform(-5, 5)
        y = rng.normal(size=n) * rng.uniform(0.1, 100) + rng.uniform(-50, 50)
        if case % 4 == 0:
            # rank-deficient at alpha = 0: repeated columns, or fewer rows than
            # columns, so the first factorisation may fail and the retry runs
            if p > 1 and case % 8 == 0:
                Phi[:, p // 2:] = Phi[:, :p - p // 2]
            else:
                Phi = Phi[:min(n, p)]
                y = y[:len(Phi)]
            alpha = 0.0
            Xc = Phi - Phi.mean(axis=0)
            try:
                np.linalg.cholesky(Xc.T @ Xc)
            except np.linalg.LinAlgError:
                retried += 1
        else:
            alpha = float(10.0 ** rng.uniform(-3, 3))
        try:
            w_ref, b_ref = _reference_ridge_solve(Phi, y, alpha)
        except np.linalg.LinAlgError as exc:
            with pytest.raises(np.linalg.LinAlgError, match=str(exc)):
                ridge_solve(Phi, y, alpha)
            continue
        w, b = ridge_solve(Phi, y, alpha)
        assert type(b) is float and w.shape == (Phi.shape[1],)
        assert w.tobytes() == w_ref.tobytes()
        assert np.float64(b).tobytes() == np.float64(b_ref).tobytes()
    assert retried >= 20
    # an all-zero design has trace 0, so the jittered retry fails as well
    with pytest.raises(np.linalg.LinAlgError) as ref_exc:
        _reference_ridge_solve(np.zeros((5, 2)), np.zeros(5), 0.0)
    with pytest.raises(np.linalg.LinAlgError) as exc:
        ridge_solve(np.zeros((5, 2)), np.zeros(5), 0.0)
    assert str(exc.value) == str(ref_exc.value)


def test_ridge_segments_match_ridge_solve_per_segment():
    rng = np.random.default_rng(17)
    for case in range(100):
        k = int(rng.integers(1, 8))
        p = int(rng.integers(1, 12))
        sizes = rng.integers(2, 30, size=k)
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        Phi = rng.normal(size=(bounds[-1], p)) * rng.uniform(0.1, 10)
        y = rng.normal(size=bounds[-1]) + rng.uniform(-5, 5)
        alpha = float(rng.choice([0.0, 1e-3, 0.3, 10.0]))
        if alpha == 0.0:
            # one segment alternates two rows, so its normal matrix has rank 1
            # and needs the jittered retry; the others solve on the first try
            j = int(rng.integers(k))
            rows = np.arange(bounds[j], bounds[j + 1])
            Phi[rows] = Phi[bounds[j] + rows % 2]
        W, b = ridge_solve_segments(Phi, y, bounds, alpha)
        assert W.shape == (k, p) and b.shape == (k,)
        for j in range(k):
            s, e = bounds[j], bounds[j + 1]
            w_ref, b_ref = ridge_solve(Phi[s:e], y[s:e], alpha)
            scale = max(1.0, float(np.abs(w_ref).max()))
            assert np.abs(W[j] - w_ref).max() / scale < 1e-12
            assert abs(b[j] - b_ref) / max(1.0, abs(b_ref)) < 1e-12


def test_ridge_segments_fail_like_ridge_solve():
    good = np.arange(12.0).reshape(6, 2) ** 1.5
    bounds = np.array([0, 3, 6])
    # a segment whose centred design is zero fails the retry too
    Phi = np.vstack([good[:3], np.ones((3, 2))])
    with pytest.raises(np.linalg.LinAlgError, match="positive alpha"):
        ridge_solve_segments(Phi, np.arange(6.0), bounds, 0.0)
    with pytest.raises(ValueError, match="alpha"):
        ridge_solve_segments(good, np.zeros(6), bounds, -1.0)
    with pytest.raises(ValueError, match="finite"):
        ridge_solve_segments(good, np.array([0, 1, 2, 3, np.inf, 5.0]), bounds, 1.0)
    with pytest.raises(ValueError):
        ridge_solve_segments(good, np.zeros(5), bounds, 1.0)


# ---------------------------------------------------------------------------
# kmeans


def sse_of(X, centers, labels):
    return float(((X - centers[labels]) ** 2).sum())


def test_kmeans_exact_clusters():
    # three well-separated blobs are recovered exactly
    rng = np.random.default_rng(5)
    blobs = [rng.normal(loc=c, scale=0.05, size=(30, 2))
             for c in ((0, 0), (10, 0), (0, 10))]
    X = np.vstack(blobs)
    centers, labels = kmeans(X, 3, seed=0)
    # each blob is a single cluster
    for b in range(3):
        assert len(set(labels[30 * b:30 * (b + 1)].tolist())) == 1
    assert len(set(labels.tolist())) == 3


def test_kmeans_sse_non_increasing_across_lloyd_iterations(monkeypatch):
    # kmeans is deterministic for a seed, and KMEANS_MAX_ITER=m stops the same
    # trajectory after m update steps, so sweeping m exposes per-iteration SSE
    rng = np.random.default_rng(17)
    for case in range(25):
        n = int(rng.integers(20, 80))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(2, 8))
        X = rng.normal(size=(n, d))
        seed = int(rng.integers(1 << 30))
        prev = None
        for m in range(1, 8):
            monkeypatch.setattr(numkit, "KMEANS_MAX_ITER", m)
            centers, labels = kmeans(X, k, seed=seed)
            cur = sse_of(X, centers, labels)
            if prev is not None:
                assert cur <= prev + 1e-9
            prev = cur


def test_kmeans_k_equals_n():
    X = np.arange(10.0).reshape(5, 2)
    centers, labels = kmeans(X, 5, seed=2)
    # every point its own cluster: centers are a permutation of the rows
    assert sse_of(X, centers, labels) < 1e-20
    assert sorted(labels.tolist()) == [0, 1, 2, 3, 4]


def test_kmeans_determinism_and_validation():
    X = np.random.default_rng(0).normal(size=(40, 3))
    c1, l1 = kmeans(X, 4, seed=9)
    c2, l2 = kmeans(X, 4, seed=9)
    assert np.array_equal(c1, c2) and np.array_equal(l1, l2)
    with pytest.raises(ValueError):
        kmeans(X, 0, seed=0)
    with pytest.raises(ValueError):
        kmeans(X, 41, seed=0)


def test_kmeans_handles_duplicate_points():
    # more clusters than distinct points: empty-cluster reseeding must not
    # crash or return non-finite centroids
    X = np.array([[0.0, 0.0]] * 6 + [[1.0, 1.0]] * 6)
    centers, labels = kmeans(X, 4, seed=1)
    assert np.isfinite(centers).all()
    assert labels.shape == (12,)


def _update_means_per_cluster(X, labels, centers):
    """The mean update as one boolean mask and one .mean per cluster: the loop
    that the sorted-slice update replaced."""
    out = centers.copy()
    for c in range(centers.shape[0]):
        members = labels == c
        if members.any():
            out[c] = X[members].mean(axis=0)
    return out


def test_update_means_equals_per_cluster_loop_bitwise():
    # d from 1 to 100, k from 2 to 80, empty clusters in about a third of the
    # cases, and rounded inputs in every fourth
    rng = np.random.default_rng(211)
    for case in range(300):
        d, k = int(rng.integers(1, 101)), int(rng.integers(2, 81))
        n = int(rng.integers(k, 1600))
        X = rng.normal(size=(n, d)) * rng.uniform(0.1, 100.0)
        if case % 4 == 0:
            X = np.round(X, 1)
        used = k - int(rng.integers(0, k // 2 + 1)) if case % 3 == 0 else k
        labels = rng.integers(0, used, size=n)
        if case % 3 == 0:
            labels = rng.permutation(k)[labels]  # the empty ones anywhere in 0..k-1
        centers = rng.normal(size=(k, d))
        got = numkit._update_means(X, labels, centers)
        want = _update_means_per_cluster(X, labels, centers)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), case


# ---------------------------------------------------------------------------
# sq_dists


def test_sq_dists_equals_the_one_line_expression_bitwise():
    # the former expression; X[0:n] against X is the symmetric A @ A.T shape
    def one_line(A, B):
        return np.maximum(
            (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] - 2.0 * (A @ B.T), 0.0)

    rng = np.random.default_rng(26)
    for case in range(40):
        n, d = int(rng.integers(1, 300)), int(rng.integers(1, 12))
        X = np.round(rng.normal(size=(n, d)), case % 3)
        m = int(rng.integers(1, n + 1))
        for A, B in ((X, X), (X[0:n], X), (X[:m], X), (X[n - m:], X[:m])):
            assert np.array_equal(sq_dists(A, B), one_line(A, B)), case


# ---------------------------------------------------------------------------
# knn_indices


def knn_oracle(X, point, k):
    d2 = ((X - point) ** 2).sum(axis=1)
    return np.argsort(d2, kind="stable")[:k]


def test_knn_matches_brute_force():
    rng = np.random.default_rng(23)
    for case in range(200):
        n = int(rng.integers(3, 50))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        k = int(rng.integers(1, n))
        point = rng.normal(size=d)
        assert np.array_equal(knn_indices(X, point, k), knn_oracle(X, point, k))


def test_knn_of_a_stack_of_points_equals_one_query_per_point():
    # rounded inputs make distance ties; the stacked sums must keep each
    # point's bits, up to d=100 where numpy sums features pairwise
    rng = np.random.default_rng(24)
    for case in range(60):
        n, d, m = int(rng.integers(3, 300)), int(rng.choice([1, 2, 5, 9, 40, 100])), \
            int(rng.integers(1, 12))
        X = np.round(rng.normal(size=(n, d)), 1 if case % 2 else 6)
        points = np.vstack([X[rng.integers(n, size=m // 2)],
                            np.round(rng.normal(size=(m - m // 2, d)), 1)])
        k = int(rng.integers(1, n + 1))
        got = knn_indices(X, points, k)
        assert got.shape == (m, k)
        for i in range(m):
            assert np.array_equal(got[i], knn_oracle(X, points[i], k)), (case, i)


def knn_full_sort(X, points, k):
    """The former knn_indices: a stable argsort of all n distances per point."""
    d2 = ((X - points[..., None, :]) ** 2).sum(axis=-1)
    return np.argsort(d2, axis=-1, kind="stable")[..., :k]


def test_knn_equals_the_full_stable_sort():
    # ties from rounded and stacked points, NaN distances, k = 1 and k = n
    rng = np.random.default_rng(25)
    for case in range(300):
        n, d, m = int(rng.integers(1, 120)), int(rng.integers(1, 6)), int(rng.integers(1, 8))
        X = np.round(rng.normal(size=(n, d)), case % 3)
        if case % 7 == 0:
            X[:] = X[0]  # every point stacked on one
        if case % 11 == 0 and n > 2:
            X[1, 0] = np.nan  # one NaN distance in every row
        points = np.vstack([X[rng.integers(n, size=m // 2)],
                            np.round(rng.normal(size=(m - m // 2, d)), 1)])
        if case % 5 == 0:
            points[0, 0] = np.nan  # a row of NaN distances
        k = (1, n, int(rng.integers(1, n + 1)))[case % 3]
        got = knn_indices(X, points, k)
        assert got.shape == (m, k)
        assert np.array_equal(got, knn_full_sort(X, points, k)), case
        assert np.array_equal(knn_indices(X, points[0], k), knn_full_sort(X, points[0], k)), case


def test_knn_tie_breaks_to_lower_index():
    X = np.array([[1.0], [1.0], [1.0], [2.0]])
    got = knn_indices(X, np.array([1.0]), 3)
    assert got.tolist() == [0, 1, 2]


def test_knn_validation():
    X = np.zeros((3, 1))
    with pytest.raises(ValueError):
        knn_indices(X, np.zeros(1), 4)  # k > n
    with pytest.raises(ValueError):
        knn_indices(X, np.zeros(1), 0)


# ---------------------------------------------------------------------------
# lbfgs_minimize


def quadratic_problem(A, b):
    def fun(x):
        r = A @ x - b
        return 0.5 * float(r @ r), A.T @ r
    return fun


def test_lbfgs_solves_quadratic():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(8, 8)) + 4 * np.eye(8)
    b = rng.normal(size=8)
    fun = quadratic_problem(A, b)
    res = lbfgs_minimize(fun, np.full(8, 3.5), max_iter=200)
    assert isinstance(res, OptimResult)
    assert res.loss < 1e-10
    x_star = np.linalg.solve(A, b)
    assert np.linalg.norm(res.x - x_star) < 1e-4


def rosenbrock(x):
    a, b = 1.0, 100.0
    f = (a - x[0]) ** 2 + b * (x[1] - x[0] ** 2) ** 2
    g = np.array([
        -2 * (a - x[0]) - 4 * b * x[0] * (x[1] - x[0] ** 2),
        2 * b * (x[1] - x[0] ** 2),
    ])
    return float(f), g


def test_lbfgs_rosenbrock():
    res = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]), max_iter=200)
    assert res.loss < 1e-4
    assert np.linalg.norm(res.x - np.array([1.0, 1.0])) < 0.1


def _lbfgs_recomputing_rho(fun, x0, max_iter):
    """lbfgs_minimize as it was when the two-loop recursion recomputed every
    stored pair's rho = 1 / y.s and the newest pair's gamma on each call:
    the reference that the kept values must reproduce bit for bit."""
    x = np.array(x0, dtype=np.float64, copy=True)
    f, g = fun(x)
    best_x, best_f = x.copy(), f
    s_hist, y_hist = [], []
    it = 0
    while it < max_iter:
        if np.linalg.norm(g) < numkit.LBFGS_GRAD_TOL:
            break
        q = g.copy()
        m = len(s_hist)
        if m == 0:
            d = -(q / max(1.0, float(np.linalg.norm(q))))
        else:
            alphas, rhos = np.empty(m), np.empty(m)
            for i in range(m - 1, -1, -1):
                rhos[i] = 1.0 / float(y_hist[i] @ s_hist[i])
                alphas[i] = rhos[i] * float(s_hist[i] @ q)
                q -= alphas[i] * y_hist[i]
            r = float(s_hist[-1] @ y_hist[-1]) / float(y_hist[-1] @ y_hist[-1]) * q
            for i in range(m):
                r += (alphas[i] - rhos[i] * float(y_hist[i] @ r)) * s_hist[i]
            d = -r
        gd = float(g @ d)
        if gd >= 0.0:
            d = -g
            gd = float(g @ d)
        step = 1.0
        while step >= 1e-20:
            x_new = x + step * d
            f_new, g_new = fun(x_new)
            if np.isfinite(f_new) and f_new <= f + 1e-4 * step * gd:
                break
            step *= 0.5
        else:
            break
        s, yv = x_new - x, g_new - g
        if float(s @ yv) > 1e-10 * np.linalg.norm(s) * np.linalg.norm(yv):
            s_hist.append(s)
            y_hist.append(yv)
            if len(s_hist) > numkit.LBFGS_MEMORY:
                s_hist.pop(0)
                y_hist.pop(0)
        x, f, g = x_new, f_new, g_new
        if f < best_f:
            best_f, best_x = f, x.copy()
        it += 1
    return best_x, float(best_f), it


def test_lbfgs_equals_the_rho_recomputing_reference_bitwise():
    # the Rosenbrock and quadratic problems above, plus random quadratics
    # that fill and cycle the curvature memory
    rng = np.random.default_rng(2)
    A = rng.normal(size=(8, 8)) + 4 * np.eye(8)
    problems = [(rosenbrock, np.array([-1.2, 1.0]), 200),
                (quadratic_problem(A, rng.normal(size=8)), np.full(8, 3.5), 200)]
    for _ in range(20):
        p = int(rng.integers(2, 30))
        M = rng.normal(size=(p, p))
        problems.append((quadratic_problem(M @ M.T + 0.1 * np.eye(p), rng.normal(size=p)),
                         rng.normal(size=p), int(rng.integers(1, 60))))
    for fun, x0, max_iter in problems:
        res = lbfgs_minimize(fun, x0, max_iter=max_iter)
        want_x, want_loss, want_it = _lbfgs_recomputing_rho(fun, x0, max_iter)
        assert np.array_equal(res.x.view(np.uint64), want_x.view(np.uint64))
        assert res.loss == want_loss and res.iterations == want_it


def test_lbfgs_zero_iterations_returns_start():
    fun = quadratic_problem(np.eye(2), np.zeros(2))
    x0 = np.array([1.0, 2.0])
    res = lbfgs_minimize(fun, x0, max_iter=0)
    assert np.array_equal(res.x, x0)
    assert res.iterations == 0
    assert not res.converged


def test_lbfgs_converged_flag_at_stationary_point():
    fun = quadratic_problem(np.eye(3), np.zeros(3))
    res = lbfgs_minimize(fun, np.zeros(3), max_iter=5)
    assert res.converged
    assert res.loss == 0.0


def test_lbfgs_never_worse_than_start_and_returns_best_eval():
    # across 200 random convex quadratics the reported loss never exceeds the
    # starting loss and matches the best point the objective ever saw
    rng = np.random.default_rng(29)
    for case in range(200):
        p = int(rng.integers(1, 6))
        M = rng.normal(size=(p, p))
        A = M @ M.T + np.eye(p) * rng.uniform(0.1, 2)
        b = rng.normal(size=p)
        L = np.linalg.cholesky(A)

        evals = []

        def fun(x):
            r = L.T @ x - np.linalg.solve(L, b)
            f = 0.5 * float(r @ r)
            evals.append(f)
            return f, L @ r

        x0 = rng.normal(size=p) * 3
        res = lbfgs_minimize(fun, x0, max_iter=int(rng.integers(1, 30)))
        assert res.loss <= evals[0] + 1e-15
        assert res.loss <= min(evals) + 1e-15


def test_lbfgs_best_loss_is_non_increasing_in_iteration_budget():
    # deterministic trajectory: the incumbent after k iterations can only
    # improve as the budget grows
    rng = np.random.default_rng(31)
    A = rng.normal(size=(5, 5)) + 3 * np.eye(5)
    fun = quadratic_problem(A, rng.normal(size=5))
    x0 = rng.normal(size=5)
    losses = [lbfgs_minimize(fun, x0, max_iter=m).loss for m in range(0, 12)]
    assert all(l2 <= l1 + 1e-12 for l1, l2 in zip(losses, losses[1:]))


def test_lbfgs_nonfinite_start_raises():
    def fun(x):
        return float("nan"), np.zeros_like(x)
    with pytest.raises(ValueError):
        lbfgs_minimize(fun, np.zeros(2), max_iter=3)
    # a finite loss with a gradient that is not finite is no usable start either
    with pytest.raises(ValueError, match="not finite at the initial point"):
        lbfgs_minimize(lambda x: (0.0, np.full_like(x, np.inf)), np.zeros(2), max_iter=3)


def test_lbfgs_survives_nonfinite_trial_points():
    # objective returning inf away from a narrow basin: line search backtracks
    def fun(x):
        if np.abs(x).max() > 2.0:
            return float("inf"), np.zeros_like(x)
        return float(x @ x), 2 * x

    res = lbfgs_minimize(fun, np.array([1.5, -1.0]), max_iter=50)
    assert res.loss < 1e-8


def test_lbfgs_backs_off_from_a_trial_point_whose_gradient_is_not_finite():
    # a quadratic whose gradient is NaN, with a finite loss, in a band that
    # the first trial point (0.6, 0.8) lands in: accepting that point leaves
    # the run stuck there after 1 iteration, at loss 8.0
    m = np.array([3.0, 4.0])

    def fun(x):
        r = x - m
        return 0.5 * float(r @ r), np.full(2, np.nan) if 0.5 < x[0] < 0.7 else r

    res = lbfgs_minimize(fun, np.zeros(2), max_iter=50)
    assert res.converged
    assert np.abs(res.x - m).max() < 1e-8
