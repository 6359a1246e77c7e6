"""Shared numerical kernels: ridge solves, k-means, kNN queries, L-BFGS.

Everything here is deterministic given its seed arguments and uses plain numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np


# ---------------------------------------------------------------------------
# Ridge regression via Cholesky-factored normal equations


def check_alpha(alpha: float) -> None:
    """Refuse a ridge penalty that is negative, NaN or infinite."""
    if not 0 <= alpha < np.inf:
        raise ValueError(f"alpha must be non-negative and finite, got {alpha}")


def ridge_solve(Phi: np.ndarray, y: np.ndarray, alpha: float) -> Tuple[np.ndarray, float]:
    """Solve min_w ||Phi w + b - y||^2 + alpha ||w||^2; the intercept b is unpenalised.

    The columns and target are centred, (Xc^T Xc + alpha I) is factored by
    Cholesky, and the intercept is recovered from the means, so it never feels
    the penalty. On a factorisation failure the diagonal is jittered once
    (alpha += 1e-10 * trace / p) and the solve is retried; a second failure
    raises.
    """
    Phi = np.asarray(Phi, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if Phi.ndim != 2 or y.ndim != 1 or Phi.shape[0] != y.shape[0]:
        raise ValueError("Phi must be (n, p) and y must be (n,) with matching n")
    if not np.isfinite(Phi).all() or not np.isfinite(y).all():
        raise ValueError("ridge_solve requires finite inputs")
    check_alpha(alpha)

    col_means = Phi.mean(axis=0)
    y_mean = float(y.mean())
    Xc = Phi - col_means
    w = _cho_solve(_ridge_cholesky(Xc.T @ Xc, alpha), Xc.T @ (y - y_mean))
    return w, y_mean - float(col_means @ w)


def _ridge_cholesky(A: np.ndarray, alpha: float) -> np.ndarray:
    """Lower Cholesky factor of A + alpha I, retried once with a jittered diagonal.

    alpha is added to A's diagonal in place. The retry adds
    1e-10 * trace(A) / p to alpha, on the original diagonal; a second
    failure raises.
    """
    p = A.shape[0]
    idx = np.arange(p)
    diag = A[idx, idx]
    A[idx, idx] = diag + alpha
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        jitter = 1e-10 * diag.sum() / p if p else 0.0
        A[idx, idx] = diag + (alpha + jitter)
        try:
            return np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            raise np.linalg.LinAlgError(
                "normal matrix is singular; a positive alpha is required here"
            )


def ridge_solve_segments(
    Phi: np.ndarray,
    y: np.ndarray,
    bounds: np.ndarray,
    alpha: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """ridge_solve(Phi[s:e], y[s:e], alpha) for every segment s, e of bounds at once.

    bounds holds k + 1 ascending row offsets, one segment per consecutive pair.
    Each segment is centred and gets its own Gram matrix, so memory stays
    O(n*p + k*p^2); the k factorisations and triangular solves run stacked.
    A segment whose factorisation fails gets ridge_solve's jitter retry.
    Returns the (k, p) weights and the (k,) intercepts.
    """
    Phi = np.asarray(Phi, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if Phi.ndim != 2 or y.ndim != 1 or Phi.shape[0] != y.shape[0]:
        raise ValueError("Phi must be (n, p) and y must be (n,) with matching n")
    check_alpha(alpha)
    if not np.isfinite(Phi).all() or not np.isfinite(y).all():
        raise ValueError("ridge_solve requires finite inputs")

    k, p = len(bounds) - 1, Phi.shape[1]
    col_means = np.empty((k, p))
    y_means = np.empty(k)
    A = np.empty((k, p, p))
    b = np.empty((k, p))
    for j in range(k):
        s, e = bounds[j], bounds[j + 1]
        col_means[j] = Phi[s:e].mean(axis=0)
        y_means[j] = y[s:e].mean()
        Xc = Phi[s:e] - col_means[j]
        A[j] = Xc.T @ Xc
        b[j] = Xc.T @ (y[s:e] - y_means[j])
    idx = np.arange(p)
    diag = A[:, idx, idx]
    A[:, idx, idx] = diag + alpha
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        A[:, idx, idx] = diag  # each segment retries from its own Gram matrix
        L = np.stack([_ridge_cholesky(a, alpha) for a in A])
    w = _cho_solve_stacked(L, b)
    intercepts = y_means - np.matmul(col_means[:, None, :], w[:, :, None])[:, 0, 0]
    return w, intercepts


def _cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L L^T x = b given the lower Cholesky factor L."""
    p = L.shape[0]
    z = np.empty(p)
    for i in range(p):
        z[i] = (b[i] - L[i, :i] @ z[:i]) / L[i, i]
    x = np.empty(p)
    for i in range(p - 1, -1, -1):
        x[i] = (z[i] - L[i + 1:, i] @ x[i + 1:]) / L[i, i]
    return x


def _cho_solve_stacked(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_cho_solve for a stack of factors L (k, p, p) and right-hand sides b (k, p).

    Each step is one stacked matmul of the same row and column slices that
    _cho_solve multiplies, so the loop runs p times per substitution, not k*p.
    """
    k, p = b.shape
    z = np.empty((k, p))
    for i in range(p):
        dots = np.matmul(L[:, i:i + 1, :i], z[:, :i, None])[:, 0, 0]
        z[:, i] = (b[:, i] - dots) / L[:, i, i]
    x = np.empty((k, p))
    for i in range(p - 1, -1, -1):
        dots = np.matmul(L[:, None, i + 1:, i], x[:, i + 1:, None])[:, 0, 0]
        x[:, i] = (z[:, i] - dots) / L[:, i, i]
    return x


# ---------------------------------------------------------------------------
# k-means clustering


KMEANS_MAX_ITER = 100  # Lloyd iterations at most


def kmeans(X: np.ndarray, n_clusters: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with distance-squared-weighted (k-means++ style) seeding.

    Returns (centroids, labels). Assignment ties go to the lower centroid
    index. A cluster left empty after assignment is re-seeded to the point
    farthest from its own centroid. Deterministic for a given seed.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if not 1 <= n_clusters <= n:
        raise ValueError(f"need 1 <= n_clusters <= n, got {n_clusters} with n={n}")
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_init(X, n_clusters, rng)
    labels = _assign(X, centers)
    for _ in range(KMEANS_MAX_ITER):
        centers = _update_means(X, labels, centers)
        new_labels = _assign(X, centers)
        changed = bool((new_labels != labels).any())
        labels = new_labels
        if not changed:
            break
    return centers, labels


def _kmeanspp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)  # all remaining points coincide with a centre
        centers[j] = X[idx]
        d2 = np.minimum(d2, ((X - centers[j]) ** 2).sum(axis=1))
    return centers


def _assign(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    d2 = _sq_dists(X, centers)
    labels = d2.argmin(axis=1)
    # rescue empty clusters: move the centre onto the farthest point
    k = centers.shape[0]
    counts = np.bincount(labels, minlength=k)
    if (counts == 0).any():
        own = d2[np.arange(X.shape[0]), labels].copy()
        for c in np.flatnonzero(counts == 0):
            far = int(own.argmax())
            centers[c] = X[far]
            labels[far] = c
            own[far] = -1.0
    return labels


def _update_means(X: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> np.ndarray:
    out = centers.copy()
    for c in range(centers.shape[0]):
        members = labels == c
        if members.any():
            out[c] = X[members].mean(axis=0)
    return out


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, (len(A), len(B)), clipped at 0."""
    d2 = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] - 2.0 * (A @ B.T)
    return np.maximum(d2, 0.0)


# ---------------------------------------------------------------------------
# k-nearest-neighbour queries


def knn_indices(X: np.ndarray, point: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k rows of X nearest to point, nearest first.

    Distance ties break toward the lower row index.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    d2 = ((X - np.asarray(point, dtype=np.float64)) ** 2).sum(axis=1)
    return np.argsort(d2, kind="stable")[:k]


# ---------------------------------------------------------------------------
# L-BFGS with Armijo backtracking

LBFGS_MEMORY = 10  # curvature pairs kept
LBFGS_GRAD_TOL = 1e-8  # gradient norm that counts as converged


@dataclass
class OptimResult:
    x: np.ndarray
    loss: float
    iterations: int
    converged: bool


def lbfgs_minimize(fun: Callable[[np.ndarray], Tuple[float, np.ndarray]], x0: np.ndarray,
                   max_iter: int) -> OptimResult:
    """Limited-memory BFGS with two-loop recursion and Armijo backtracking.

    fun(x) must return (loss, gradient). Line search: initial step 1.0, halved
    until f(x + t d) <= f(x) + 1e-4 t g.d; if no admissible step exists the
    run stops. Stops otherwise at max_iter or when ||grad|| < LBFGS_GRAD_TOL.
    The last LBFGS_MEMORY curvature pairs are kept. Always returns the best
    iterate seen, so the reported loss never exceeds the loss at x0.
    """
    x = np.array(x0, dtype=np.float64, copy=True)
    f, g = _eval(fun, x)
    if not np.isfinite(f):
        raise ValueError("objective is not finite at the initial point")
    best_x, best_f = x.copy(), f
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    converged = False
    it = 0
    while it < max_iter:
        if np.linalg.norm(g) < LBFGS_GRAD_TOL:
            converged = True
            break
        d = -_two_loop(g, s_hist, y_hist)
        gd = float(g @ d)
        if gd >= 0.0:  # curvature info went bad: fall back to steepest descent
            d = -g
            gd = float(g @ d)
        step = 1.0
        accepted = False
        while step >= 1e-20:
            x_new = x + step * d
            f_new, g_new = _eval(fun, x_new)
            if np.isfinite(f_new) and f_new <= f + 1e-4 * step * gd:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        s = x_new - x
        yv = g_new - g
        sy = float(s @ yv)
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(yv):
            s_hist.append(s)
            y_hist.append(yv)
            if len(s_hist) > LBFGS_MEMORY:
                s_hist.pop(0)
                y_hist.pop(0)
        x, f, g = x_new, f_new, g_new
        if f < best_f:
            best_f, best_x = f, x.copy()
        it += 1
    return OptimResult(x=best_x, loss=float(best_f), iterations=it, converged=converged)


def _eval(fun, x):
    f, g = fun(x)
    return float(f), np.asarray(g, dtype=np.float64)


def _two_loop(g: np.ndarray, s_hist: list, y_hist: list) -> np.ndarray:
    """H_k g via the standard two-loop recursion over stored (s, y) pairs.

    With no curvature pairs yet, H_0 = I / max(1, ||g||) keeps the first trial
    point within unit distance of the start instead of jumping by the raw
    gradient magnitude.
    """
    q = g.copy()
    m = len(s_hist)
    if m == 0:
        return q / max(1.0, float(np.linalg.norm(q)))
    alphas = np.empty(m)
    rhos = np.empty(m)
    for i in range(m - 1, -1, -1):
        rhos[i] = 1.0 / float(y_hist[i] @ s_hist[i])
        alphas[i] = rhos[i] * float(s_hist[i] @ q)
        q -= alphas[i] * y_hist[i]
    gamma = float(s_hist[-1] @ y_hist[-1]) / float(y_hist[-1] @ y_hist[-1])
    r = gamma * q
    for i in range(m):
        beta = rhos[i] * float(y_hist[i] @ r)
        r += (alphas[i] - beta) * s_hist[i]
    return r
