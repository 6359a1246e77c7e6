"""Shared numerical kernels: ridge solves, k-means, kNN queries, L-BFGS, exact scales.

Everything here is deterministic given its seed arguments and uses plain numpy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Tuple

import numpy as np


def pow2_scale(m) -> np.ndarray:
    """2^e per magnitude in m, m < 2^e, e clipped to [-1021, 1023]; 1 for 0, NaN and inf.

    Dividing by it is exact: a mean, std, median or sum of squares of a / s,
    s = pow2_scale(max |a|), times s, has a's bits wherever those stay in range,
    and stays in range where they did not. Entries below max |a| * 2^-1021 round.
    """
    return np.ldexp(1.0, np.minimum(np.maximum(np.frexp(m)[1], -1021), 1023))


# ---------------------------------------------------------------------------
# Ridge regression via Cholesky-factored normal equations


def check_alpha(alpha: float) -> None:
    """Refuse a ridge penalty that is negative, NaN or infinite."""
    if not 0 <= alpha < np.inf:
        raise ValueError(f"alpha must be non-negative and finite, got {alpha}")


def ridge_solve(Phi: np.ndarray, y: np.ndarray, alpha: float) -> Tuple[np.ndarray, float]:
    """Solve min_w ||Phi w + b - y||^2 + alpha ||w||^2; the intercept b is unpenalised.

    The one-segment case of ridge_solve_segments, with the same bits.
    """
    w, intercepts = ridge_solve_segments(Phi, y, (0, np.size(y)), alpha)
    return w[0], float(intercepts[0])


def _ridge_cholesky(A: np.ndarray, alpha: float) -> np.ndarray:
    """Lower Cholesky factor of A + alpha I, for one (p, p) matrix or a (k, p, p) stack.

    alpha is added to A's diagonal in place. A stack that fails to factor gets
    its diagonals back and is factored one matrix at a time. A matrix that
    fails is retried once with 1e-10 * trace(A) / p added to alpha, on its
    original diagonal; a second failure raises.
    """
    p = A.shape[-1]
    idx = np.arange(p)
    diag = A[..., idx, idx]
    A[..., idx, idx] = diag + alpha
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        if A.ndim == 3:
            A[..., idx, idx] = diag  # each matrix retries from its own Gram matrix
            return np.stack([_ridge_cholesky(a, alpha) for a in A])
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
    """ridge_solve's problem on every segment s, e of bounds: Phi[s:e], y[s:e].

    bounds holds k + 1 ascending row offsets, one segment per consecutive pair.
    Each segment's columns and target are centred, (Xc^T Xc + alpha I) is
    factored by Cholesky, and the intercept is recovered from the means, so it
    never feels the penalty. Memory stays O(n*p + k*p^2); the k factorisations
    run stacked, and so do the triangular solves when k > 1. A segment whose
    factorisation fails is retried once with its diagonal jittered
    (alpha += 1e-10 * trace / p); a second failure raises.
    Returns the (k, p) weights and the (k,) intercepts.
    """
    Phi = np.asarray(Phi, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if Phi.ndim != 2 or y.ndim != 1 or Phi.shape[0] != y.shape[0]:
        raise ValueError("Phi must be (n, p) and y must be (n,) with matching n")
    if not np.isfinite(Phi).all() or not np.isfinite(y).all():
        raise ValueError("ridge_solve requires finite inputs")
    check_alpha(alpha)

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
        np.matmul(Xc.T, Xc, out=A[j])
        np.matmul(Xc.T, y[s:e] - y_means[j], out=b[j])
    L = _ridge_cholesky(A, alpha)
    # the stacked substitution is 2-5x slower than _cho_solve on one system
    w = _cho_solve(L[0], b[0])[None] if k == 1 else _cho_solve_stacked(L, b)
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
    d2 = sq_dists(X, centers)
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
    """Each non-empty cluster's mean, X[labels == c].mean(axis=0) bit for bit.

    One stable sort by label lays every cluster's rows out contiguously in
    their original order, so each mean is the same axis-0 sum over the same
    rows, divided by the same count. An empty cluster keeps its centre.
    """
    out = centers.copy()
    order = np.argsort(labels, kind="stable")
    Xs = X[order]
    counts = np.bincount(labels, minlength=centers.shape[0])
    ends = np.cumsum(counts)
    for c in np.flatnonzero(counts):
        out[c] = np.add.reduce(Xs[ends[c] - counts[c]:ends[c]], axis=0) / counts[c]
    return out


def sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, (len(A), len(B)), clipped at 0.

    |a|^2 + |b|^2 - 2 a.b, worked in place so that only two (len(A), len(B))
    arrays are live at once, with the bits of the one-line expression.
    """
    G = A @ B.T
    G *= 2.0
    d2 = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :]
    d2 -= G
    np.maximum(d2, 0.0, out=d2)
    return d2


# ---------------------------------------------------------------------------
# k-nearest-neighbour queries


def knn_indices(X: np.ndarray, points: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k rows of X nearest to each query point, nearest first.

    points is one point (d,), giving (k,), or a stack of them (m, d), giving
    (m, k); a stack builds an (m, n, d) difference array. Each point's
    distances are the same feature sums whether it is queried alone or in a
    stack. Distance ties break toward the lower row index, and NaN distances
    come last, as in a stable sort of all n distances.

    No row is fully sorted: a selection (np.partition) finds each row's k-th
    distance, and only the candidates not beyond it are sorted, by
    (distance, index). A NaN k-th distance makes the whole row candidates.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    points = np.asarray(points, dtype=np.float64)
    d2 = ((X - points[..., None, :]) ** 2).sum(axis=-1)
    D = d2.reshape(-1, n)
    kth = np.partition(D, k - 1, axis=1)[:, k - 1, None]
    r, c = np.nonzero(~(D > kth))  # row-major: each row's candidates by index
    c = c[np.lexsort((D[r, c], r))]
    starts = np.searchsorted(r, np.arange(D.shape[0]))
    return c[starts[:, None] + np.arange(k)].reshape(d2.shape[:-1] + (k,))


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

    fun(x) must return (loss, gradient). A point whose loss or gradient is not
    finite is unusable: an unusable x0 raises ValueError, and the line search
    backs off from an unusable trial point. Line search: initial step 1.0,
    halved until f(x + t d) <= f(x) + 1e-4 t g.d; if no admissible step exists
    the run stops. Stops otherwise at max_iter or when ||grad|| < LBFGS_GRAD_TOL.
    The last LBFGS_MEMORY curvature pairs are kept. Always returns the best
    iterate seen, so the reported loss never exceeds the loss at x0.
    """
    x = np.array(x0, dtype=np.float64, copy=True)
    f, g = _eval(fun, x)
    if not np.isfinite(f):
        raise ValueError("objective is not finite at the initial point")
    best_x, best_f = x.copy(), f
    hist: Deque[Tuple[np.ndarray, np.ndarray, float, float]] = deque(maxlen=LBFGS_MEMORY)
    converged = False
    it = 0
    while it < max_iter:
        if np.linalg.norm(g) < LBFGS_GRAD_TOL:
            converged = True
            break
        d = -_two_loop(g, hist)
        gd = float(g @ d)
        if gd >= 0.0:  # curvature info went bad: fall back to steepest descent
            d = -g
            gd = float(g @ d)
        step = 1.0
        while step >= 1e-20:
            x_new = x + step * d
            f_new, g_new = _eval(fun, x_new)
            if f_new <= f + 1e-4 * step * gd:
                break
            step *= 0.5
        else:  # no admissible step
            break
        s = x_new - x
        yv = g_new - g
        sy = float(s @ yv)
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(yv):
            # rho = 1 / y.s and gamma = s.y / y.y are fixed once the pair is stored
            hist.append((s, yv, 1.0 / float(yv @ s), sy / float(yv @ yv)))
        x, f, g = x_new, f_new, g_new
        if f < best_f:
            best_f, best_x = f, x.copy()
        it += 1
    return OptimResult(x=best_x, loss=float(best_f), iterations=it, converged=converged)


def _eval(fun, x):
    """fun(x) as (loss, gradient); the loss reads inf at an unusable point."""
    f, g = fun(x)
    g = np.asarray(g, dtype=np.float64)
    return (float(f) if np.isfinite(f) and np.isfinite(g).all() else np.inf), g


def _two_loop(g: np.ndarray, hist: Deque[Tuple[np.ndarray, np.ndarray, float, float]]
              ) -> np.ndarray:
    """H_k g via the standard two-loop recursion over stored (s, y, rho, gamma) pairs.

    H_0 is gamma I with the newest pair's gamma. With no curvature pairs yet,
    H_0 = I / max(1, ||g||) keeps the first trial point within unit distance
    of the start instead of jumping by the raw gradient magnitude.
    """
    q = g.copy()
    if not hist:
        return q / max(1.0, float(np.linalg.norm(q)))
    alphas = []
    for s, y, rho, _ in reversed(hist):
        alpha = rho * float(s @ q)
        q -= alpha * y
        alphas.append(alpha)
    r = hist[-1][3] * q
    for (s, y, rho, _), alpha in zip(hist, reversed(alphas)):
        beta = rho * float(y @ r)
        r += (alpha - beta) * s
    return r
