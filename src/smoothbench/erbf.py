"""Anisotropic Gaussian RBF network trained by a three-stage pipeline.

f(x) = sum_k w_k exp(-1/2 sum_j (x_j - c_kj)^2 / sigma_kj^2) + b, with one
width per (unit, feature) so each bump can stretch independently per axis.

Stage 1 places centres on training points (sampled proportionally to a local
Lipschitz estimate of the target, or by k-means). Stage 2 initialises widths
from local neighbourhood statistics. Stage 3 refines log-widths by L-BFGS
against training MSE with the output layer held fixed, and L-BFGS rejects
trial widths whose loss or gradient is not finite; the output layer is then
re-solved by ridge on the final activations.

The Lipschitz estimate finds each point's neighbours over blocks of rows,
each block's distances within LIPSCHITZ_BLOCK_BYTES, so stage 1 holds two
such blocks at once whatever n is, never all (n, n) distances.

Activations and the loss walk one row-block loop, each block's squared
differences S = (x - c)^2 in one (d, B, K) buffer of at most
LOSS_BLOCK_BYTES, and Phi = exp(-1/2 einsum("jik,jk->ik", S, s)) contracts
them against the K d weights s = sigma^-2. Only the widths change within
one fit, so a fit squares the first block once and holds it: the initial
Phi, every L-BFGS evaluation and the final Phi contract those squares, and
an evaluation's gradient is s times the contraction of r Phi with S. No
(d, B, K) array is divided by the widths. Predict so holds O(n K) plus one
LOSS_BLOCK_BYTES block, and a fit O(n K) plus at most two such blocks,
never (n, K, d) tensors. Phi in the loss has the bits of erbf_activations'
Phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .data import Standardizer, read_array
from .numkit import (OptimResult, kmeans, knn_indices, lbfgs_minimize, ridge_solve,
                     ridge_solve_segments, sq_dists)

WIDTH_FLOOR = 1e-6
WIDTH_CAP = 1e3

WIDTH_MODES = ("local_ridge", "local_variance")

# stage 3: the L-BFGS iteration cap on the log-widths
WIDTH_OPTIM_ITERS = 30

# local_lipschitz: neighbours per point, distance guard, and the percentile cap
LIPSCHITZ_K = 5
LIPSCHITZ_EPS = 1e-12
LIPSCHITZ_CLIP_PERCENTILE = 99.0
# bytes of one (rows, n) block of local_lipschitz's distances
LIPSCHITZ_BLOCK_BYTES = 1024 * 1024

# bytes of one (d, B, K) block of squares (x - c)^2, held by a fit or formed
# per block, and of one (m, n, d) block of init_widths' kNN differences
LOSS_BLOCK_BYTES = 4 * 1024 * 1024

_FLOAT_MAX = float(np.finfo(np.float64).max)


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def auto_k(n: int, d: int) -> int:
    """Default RBF unit count: clip(max(40, 2d), 20, min(200, n // 10)).

    The upper bound wins if the bounds cross on small n.
    """
    if n < 10:
        raise ValueError("auto_k needs n >= 10")
    v = max(40, 2 * d)
    lo, hi = 20, min(200, n // 10)
    return min(max(v, lo), hi)


def local_lipschitz(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-point local Lipschitz estimate of the target.

    L_i = max over the LIPSCHITZ_K nearest neighbours of
    |y_i - y_j| / (||x_i - x_j|| + LIPSCHITZ_EPS), then capped at the
    LIPSCHITZ_CLIP_PERCENTILE percentile to tame outliers.

    Rows go in blocks of LIPSCHITZ_BLOCK_BYTES // (8 n) rows. A block's
    distances live beside sq_dists' product, then beside argpartition's
    indices, so two LIPSCHITZ_BLOCK_BYTES arrays are live at once whatever
    n is. A block of fewer than n rows takes its product from a general
    matrix multiply, not the symmetric X X^T one that a single block of all
    n rows would get, so L can differ from the all-rows kernel's in the
    last bits (at most 4.5e-13 relative on 300 random cases).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least 2 rows")
    kk = min(LIPSCHITZ_K, n - 1)
    L = np.empty(n)
    block = max(1, LIPSCHITZ_BLOCK_BYTES // (8 * n))
    for start in range(0, n, block):
        rows = slice(start, min(start + block, n))
        d2 = sq_dists(X[rows], X)
        local = np.arange(d2.shape[0])
        d2[local, start + local] = np.inf
        nb = np.argpartition(d2, kk - 1, axis=1)[:, :kk]
        dists = np.sqrt(np.take_along_axis(d2, nb, axis=1))
        L[rows] = np.max(np.abs(y[rows, None] - y[nb]) / (dists + LIPSCHITZ_EPS), axis=1)
        del d2, nb  # before the next block's distances are made
    cap = np.percentile(L, LIPSCHITZ_CLIP_PERCENTILE)
    return np.minimum(L, cap)


def place_centers(
    X: np.ndarray,
    y: np.ndarray,
    k: int,
    mode: str,
    seed: int,
) -> np.ndarray:
    """Stage 1: choose k centres in (standardized) feature space.

    lipschitz mode samples k distinct training rows without replacement with
    probability proportional to the local Lipschitz estimate (uniform when the
    estimates are all zero). kmeans mode returns k-means centroids.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if mode == "kmeans":
        centers, _ = kmeans(X, k, seed=seed)
        return centers
    if mode != "lipschitz":
        raise ValueError(f"unknown center mode {mode!r}")
    weights = local_lipschitz(X, y)
    if np.count_nonzero(weights) < k:
        # not enough positive mass to draw k distinct rows: mix in a uniform floor
        floor = weights.max() * 1e-12 if weights.max() > 0 else 1.0
        weights = weights + floor
    rng = np.random.default_rng(seed)
    idx = rng.choice(n, size=k, replace=False, p=weights / weights.sum())
    return X[idx].copy()


def init_widths(
    X: np.ndarray,
    y: np.ndarray,
    centers: np.ndarray,
    mode: str,
) -> np.ndarray:
    """Stage 2: per-centre, per-feature width initialisation.

    Each centre looks at its k = max(10, min(100, n // K)) nearest training
    points. local_ridge sets sigma_kj = 1.5 sqrt(d) * sqrt(Var_local(x_j) / |beta_j|)
    with beta from a lightly regularised local linear fit (|beta| floored at
    1e-8); local_variance sets sigma_kj = std_local(x_j) * sqrt(d). Outputs are
    clamped to [1e-6, 1e3] so every width is strictly positive and finite.
    The kNN queries run for blocks of centres at once, each block's
    differences within LOSS_BLOCK_BYTES. The K local fits run as one stacked
    ridge_solve_segments call: O(K d^2) memory.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    K = centers.shape[0]
    if mode not in WIDTH_MODES:
        raise ValueError(f"unknown width mode {mode!r}")
    k_nn = min(n, max(10, min(100, n // K)))
    # each kNN query holds an (m, n, d) difference array: m centres per LOSS_BLOCK_BYTES
    m = max(1, LOSS_BLOCK_BYTES // (8 * n * d))
    nb = np.concatenate([knn_indices(X, centers[s:s + m], k_nn) for s in range(0, K, m)])
    Xnb = X[nb]
    var = Xnb.var(axis=1)
    if mode == "local_ridge":
        beta, _ = ridge_solve_segments(Xnb.reshape(K * k_nn, d), y[nb].ravel(),
                                       np.arange(0, K * k_nn + 1, k_nn), 1e-3)
        beta = np.maximum(np.abs(beta), 1e-8)
        sigma = 1.5 * math.sqrt(d) * np.sqrt(var / beta)
    else:
        sigma = np.sqrt(var) * math.sqrt(d)
    return np.clip(sigma, WIDTH_FLOOR, WIDTH_CAP)


def _squares(X: np.ndarray, centers: np.ndarray, out: np.ndarray) -> None:
    """Write out[j, i, k] = (x_ij - c_kj)^2 for the rows i of X.

    Copying X's columns first and subtracting in place is faster than one
    broadcast subtract and gives the same bits.
    """
    np.copyto(out, X.T[:, :, None])
    out -= centers.T[:, None, :]
    out *= out


def _inverse_sq(sigma: np.ndarray) -> np.ndarray:
    """The weights s = sigma^-2 of the squares, as a C-ordered (d, K) array.

    einsum's order of summation follows the operands' layout, so every
    caller passes s in one layout and gets Phi with the same bits.

    Where sigma > 0 but sigma^-2 overflows, s is held at the largest double,
    so a zero difference still weighs 0, as 0 / sigma did. At sigma = 0, s is
    inf: a zero difference there gives 0 * inf = NaN, as 0 / 0 did, and any
    other difference inf, so that unit's activation is 0.
    """
    sigma = np.ascontiguousarray(sigma.T)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        s = np.minimum(1.0 / np.square(sigma), _FLOAT_MAX)
    s[sigma == 0.0] = np.inf
    return s


def _activations_block(S: np.ndarray, s: np.ndarray, out: np.ndarray) -> None:
    """Write one row block's activations out = exp(-1/2 sum_j S_j s_j) from its squares."""
    np.einsum("jik,jk->ik", S, s, out=out)
    out *= -0.5
    np.exp(out, out=out)


def _square_blocks(X: np.ndarray, centers: np.ndarray, held: Optional[np.ndarray] = None):
    """Yield (rows, S) for each block of B = max(1, min(n, LOSS_BLOCK_BYTES // (8 K d))) rows.

    S is the block's (d, rows, K) squares (x - c)^2. The first block's S is
    held when given; every other block is squared into one scratch block,
    allocated on first need, so each S is valid until the next is yielded.
    """
    n = X.shape[0]
    K, d = centers.shape
    B = max(1, min(n, LOSS_BLOCK_BYTES // (8 * K * d)))
    scratch = None
    for a in range(0, n, B):
        rows = slice(a, min(a + B, n))
        if a == 0 and held is not None:
            yield rows, held
            continue
        if scratch is None:
            scratch = np.empty((d, B, K))
        S = scratch[:, :rows.stop - a]
        _squares(X[rows], centers, out=S)
        yield rows, S


def erbf_activations(X: np.ndarray, centers: np.ndarray, sigma: np.ndarray,
                     held: Optional[np.ndarray] = None) -> np.ndarray:
    """Activation matrix Phi with Phi[i, k] = exp(-1/2 sum_j (x_ij-c_kj)^2 sigma_kj^-2).

    Rows go in the blocks of _square_blocks, which erbf_loss_and_grad walks
    too: each block's squares (x - c)^2 are contracted against s = sigma^-2
    by the helper the loss uses, so the loss's Phi has these bits. held is
    held_differences(X, centers), the first block's squares, when the caller
    has them. Working memory is the (n, K) output plus one LOSS_BLOCK_BYTES
    block whatever d is.
    """
    X = np.asarray(X, dtype=np.float64)
    s = _inverse_sq(sigma)
    Phi = np.empty((X.shape[0], sigma.shape[0]))
    # widths at the edge of float range are legal during line-search probing;
    # the resulting inf/underflow arithmetic is well defined, so keep it quiet
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for rows, S in _square_blocks(X, centers, held):
            _activations_block(S, s, out=Phi[rows])
    return Phi


def held_differences(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """The first row block's squared differences S = (x - c)^2, a (d, B, K) array.

    The first block of _square_blocks. Only the widths change within one
    fit, so a fit forms S once and passes it to every activation and loss
    evaluation; it has the bits of the squares they would form.
    """
    X = np.asarray(X, dtype=np.float64)
    return next(_square_blocks(X, centers))[1]


def erbf_loss_and_grad(
    theta: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    centers: np.ndarray,
    weights: np.ndarray,
    bias: float,
    held: Optional[np.ndarray] = None,
) -> Tuple[float, np.ndarray]:
    """Training MSE and its exact gradient in log-width coordinates.

    theta is log(sigma) flattened to length K*d; centres, output weights and
    bias are held fixed. With S_ijk = (x_ij - c_kj)^2 and s_kj = sigma_kj^-2,
    d mse / d theta_kj = (2/n) w_k s_kj sum_i r_i Phi_ik S_ijk.

    One pass over the blocks of _square_blocks: a block's squares S serve
    both Phi (through erbf_activations' block helper, so Phi has its bits)
    and the gradient's contraction with A = r Phi; s scales the contracted
    (d, K) sums once. Only the K d values of s depend on theta: no (d, B, K)
    array is divided or clamped. held is held_differences(X, centers), the
    first block's S; when it holds every row, an evaluation makes no
    (d, B, K) array. A row on a centre whose width is 0 gives 0/0; the
    results are returned as computed, finite or not, and lbfgs_minimize
    rejects a point where they are not finite.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    K, d = centers.shape
    r = np.empty(n)
    Gt = np.empty((d, K))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        s = _inverse_sq(np.exp(np.asarray(theta, dtype=np.float64).reshape(K, d)))
        for rows, S in _square_blocks(X, centers, held):
            Pb, rb = np.empty((S.shape[1], K)), r[rows]
            _activations_block(S, s, out=Pb)
            np.matmul(Pb, weights, out=rb)
            rb += bias
            rb -= y[rows]
            Pb *= rb[:, None]  # A = r Phi; Phi is not needed past it
            if rows.start == 0:
                np.einsum("ik,jik->jk", Pb, S, out=Gt)
            else:
                Gt += np.einsum("ik,jik->jk", Pb, S)
        mse = float(r @ r) / n
        # s is inf only at sigma = 0, where every finite outcome has a zero sum
        Gt *= np.minimum(s, _FLOAT_MAX) * ((2.0 / n) * weights)
    return mse, Gt.T.ravel()


@dataclass
class ErbfModel:
    standardizer: Standardizer
    centers: np.ndarray
    sigma: np.ndarray
    weights: np.ndarray
    bias: float
    fit_info: dict = field(default_factory=dict)

    @property
    def n_rbf(self) -> int:
        return self.centers.shape[0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        Xs = self.standardizer.apply(X)
        Phi = erbf_activations(Xs, self.centers, self.sigma)
        return Phi @ self.weights + self.bias

    def to_dict(self) -> dict:
        return {
            "standardizer": self.standardizer.to_dict(),
            "centers": self.centers.tolist(),
            "sigma": self.sigma.tolist(),
            "weights": self.weights.tolist(),
            "bias": self.bias,
            "fit_info": self.fit_info,
        }

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "ErbfModel":
        owner = "erbf model"
        centers = read_array(owner, d, "centers", (None, n_features))
        K = centers.shape[0]
        sigma = read_array(owner, d, "sigma", (K, n_features))
        if not (sigma > 0).all():
            raise ValueError("erbf model: sigma must be > 0")
        fit_info = d.get("fit_info", {})
        if not isinstance(fit_info, dict):
            raise ValueError(f"erbf model: fit_info is not an object: {fit_info!r:.60}")
        return cls(
            standardizer=Standardizer.from_dict(d["standardizer"], n_features),
            centers=centers,
            sigma=sigma,
            weights=read_array(owner, d, "weights", (K,)),
            bias=float(read_array(owner, d, "bias", ())),
            fit_info=dict(fit_info),
        )


def fit_erbf(X: np.ndarray, y: np.ndarray, n_rbf: Optional[int] = None, alpha: float = 1.0,
             center_init: str = "lipschitz", width_init: str = "local_ridge",
             seed: int = 0) -> ErbfModel:
    """Run the three-stage pipeline and return the fitted network.

    n_rbf None sizes the network by auto_k; any other value must be a
    positive integer. center_init is "lipschitz" or "kmeans", width_init
    "local_ridge" or "local_variance".
    """
    if n_rbf is not None and not (_is_int(n_rbf) and n_rbf >= 1):
        raise ValueError(f"n_rbf must be a positive integer or None, got {n_rbf!r}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, d) and y (n,) with matching n")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("fit_erbf requires finite inputs; impute first")
    n, d = X.shape
    K = auto_k(n, d) if n_rbf is None else int(n_rbf)
    if K > n:
        raise ValueError(f"n_rbf={K} exceeds the number of training rows n={n}")

    std = Standardizer.fit(X)
    Xs = std.apply(X)

    centers = place_centers(Xs, y, K, mode=center_init, seed=seed)
    sigma0 = init_widths(Xs, y, centers, mode=width_init)
    held = held_differences(Xs, centers)

    Phi0 = erbf_activations(Xs, centers, sigma0, held)
    w0, b0 = ridge_solve(Phi0, y, alpha)
    r0 = Phi0 @ w0 + b0 - y
    mse_before = float(r0 @ r0) / n

    res: OptimResult = lbfgs_minimize(
        lambda theta: erbf_loss_and_grad(theta, Xs, y, centers, w0, b0, held),
        np.log(sigma0).ravel(), max_iter=WIDTH_OPTIM_ITERS)
    sigma = np.exp(res.x.reshape(K, d))

    Phi = erbf_activations(Xs, centers, sigma, held)
    weights, bias = ridge_solve(Phi, y, alpha)

    return ErbfModel(
        standardizer=std,
        centers=centers,
        sigma=sigma,
        weights=weights,
        bias=float(bias),
        fit_info={
            "resolved_k": K,
            "stage3_mse_before": mse_before,
            "stage3_mse_after": float(res.loss),
            "stage3_iterations": int(res.iterations),
            "stage3_converged": bool(res.converged),
        },
    )
