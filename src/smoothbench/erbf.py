"""Anisotropic Gaussian RBF network trained by a three-stage pipeline.

f(x) = sum_k w_k exp(-1/2 sum_j (x_j - c_kj)^2 / sigma_kj^2) + b, with one
width per (unit, feature) so each bump can stretch independently per axis.

Stage 1 places centres on training points (sampled proportionally to a local
Lipschitz estimate of the target, or by k-means). Stage 2 initialises widths
from local neighbourhood statistics. Stage 3 refines log-widths by L-BFGS
against training MSE with the output layer held fixed; the output layer is
then re-solved by ridge on the final activations.

Activations accumulate the quadratic form one feature at a time into one
(n, K) buffer. The loss and its gradient make one pass over row blocks: a
block's d scaled squares are formed once, into a (d, B, K) buffer of at most
LOSS_BLOCK_BYTES, and serve both the activations and the gradient. Fit and
predict so hold O(n K) working memory plus that block, never (n, K, d)
tensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .data import Standardizer, read_array
from .numkit import OptimResult, kmeans, knn_indices, lbfgs_minimize, ridge_solve

WIDTH_FLOOR = 1e-6
WIDTH_CAP = 1e3

WIDTH_MODES = ("local_ridge", "local_variance")

# local_lipschitz: neighbours per point, distance guard, and the percentile cap
LIPSCHITZ_K = 5
LIPSCHITZ_EPS = 1e-12
LIPSCHITZ_CLIP_PERCENTILE = 99.0

# erbf_loss_and_grad: bytes of the (d, B, K) scaled-square block it holds
LOSS_BLOCK_BYTES = 4 * 1024 * 1024


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
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least 2 rows")
    kk = min(LIPSCHITZ_K, n - 1)
    L = np.empty(n)
    sq_norms = (X * X).sum(axis=1)
    chunk = max(1, int(2_000_000 // max(1, n)))
    for start in range(0, n, chunk):
        rows = slice(start, min(start + chunk, n))
        d2 = sq_norms[rows, None] + sq_norms[None, :] - 2.0 * (X[rows] @ X.T)
        np.maximum(d2, 0.0, out=d2)
        local = np.arange(d2.shape[0])
        d2[local, start + local] = np.inf
        nb = np.argpartition(d2, kk - 1, axis=1)[:, :kk]
        dists = np.sqrt(np.take_along_axis(d2, nb, axis=1))
        L[rows] = np.max(np.abs(y[rows, None] - y[nb]) / (dists + LIPSCHITZ_EPS), axis=1)
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
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    K = centers.shape[0]
    if mode not in WIDTH_MODES:
        raise ValueError(f"unknown width mode {mode!r}")
    k_nn = min(n, max(10, min(100, n // K)))
    sigma = np.empty((K, d))
    tau = 1.5 * math.sqrt(d)
    for ki in range(K):
        nb = knn_indices(X, centers[ki], k_nn)
        Xnb = X[nb]
        var = Xnb.var(axis=0)
        if mode == "local_ridge":
            beta, _ = ridge_solve(Xnb, y[nb], alpha=1e-3)
            beta = np.maximum(np.abs(beta), 1e-8)
            sigma[ki] = tau * np.sqrt(var / beta)
        else:
            sigma[ki] = np.sqrt(var) * math.sqrt(d)
    return np.clip(sigma, WIDTH_FLOOR, WIDTH_CAP)


def erbf_activations(X: np.ndarray, centers: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Activation matrix Phi with Phi[i, k] = exp(-1/2 sum_j ((x_ij-c_kj)/sigma_kj)^2).

    The quadratic form is accumulated one feature at a time into one (n, K)
    buffer, so working memory stays O(n K) whatever d is.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    K, d = sigma.shape
    Phi = np.zeros((n, K))
    z = np.empty((n, K))
    # widths at the edge of float range are legal during line-search probing;
    # the resulting inf/underflow arithmetic is well defined, so keep it quiet
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        for j in range(d):
            _scaled_sq(X[:, j, None], centers[:, j], sigma[:, j], out=z)
            Phi += z
        Phi *= -0.5
        np.exp(Phi, out=Phi)
    return Phi


def _scaled_sq(x: np.ndarray, c: np.ndarray, s: np.ndarray, out: np.ndarray) -> None:
    """Write out = ((x - c) / s)^2, broadcasting x down out's last axis.

    x is a column of inputs, c and s rows of centre and width coordinates.
    Copying x first and subtracting in place is faster than one broadcast
    subtract and gives the same bits.
    """
    np.copyto(out, x)
    out -= c
    out /= s
    out *= out


def erbf_loss_and_grad(
    theta: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    centers: np.ndarray,
    weights: np.ndarray,
    bias: float,
) -> Tuple[float, np.ndarray]:
    """Training MSE and its exact gradient in log-width coordinates.

    theta is log(sigma) flattened to length K*d; centres, output weights and
    bias are held fixed. d mse / d theta_kj =
    (2/n) sum_i r_i w_k Phi_ik (x_ij - c_kj)^2 / sigma_kj^2.

    One pass over blocks of B = LOSS_BLOCK_BYTES // (8 K d) rows: a block's
    scaled squares z_j go once into a (d, B, K) buffer and serve both Phi
    (summed in feature order from zeros, as erbf_activations does, so Phi
    has the same bits) and the gradient. With one block the result equals
    the two-pass kernel's bit for bit; with more, the gradient's sums over
    rows run block by block.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    K, d = centers.shape
    n = X.shape[0]
    B = max(1, min(n, LOSS_BLOCK_BYTES // (8 * K * d)))
    Xt = np.ascontiguousarray(X.T)[:, :, None]
    Ct = np.ascontiguousarray(centers.T)[:, None, :]
    Z = np.empty((d, B, K))
    Phi = np.empty((B, K))
    r = np.empty(n)
    Gt = np.empty((d, K))
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        sigma = np.exp(np.asarray(theta, dtype=np.float64).reshape(K, d))
        St = np.ascontiguousarray(sigma.T)[:, None, :]
        for s in range(0, n, B):
            e = min(s + B, n)
            Zb, Pb, rb = Z[:, :e - s], Phi[:e - s], r[s:e]
            _scaled_sq(Xt[:, s:e], Ct, St, out=Zb)
            Pb.fill(0.0)
            for j in range(d):
                Pb += Zb[j]
            Pb *= -0.5
            np.exp(Pb, out=Pb)
            np.matmul(Pb, weights, out=rb)
            rb += bias
            rb -= y[s:e]
            Pb *= rb[:, None]  # A = r Phi; Phi is not needed past it
            np.minimum(Zb, 1e30, out=Zb)  # keep 0 * inf out of the contraction
            if s == 0:
                np.einsum("ik,jik->jk", Pb, Zb, out=Gt)
            else:
                Gt += np.einsum("ik,jik->jk", Pb, Zb)
        mse = float(r @ r) / n
        Gt *= (2.0 / n) * weights
    grad = Gt.T.ravel()
    if not math.isfinite(mse):
        raise ValueError("non-finite training loss in width optimisation")
    bad = np.flatnonzero(~np.isfinite(grad))
    if bad.size:
        raise ValueError(f"non-finite width gradient at parameter index {int(bad[0])}")
    return mse, grad


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


def fit_erbf(X: np.ndarray, y: np.ndarray, n_rbf_mode: str = "auto",
             n_rbf: Optional[int] = None, alpha: float = 1.0, center_init: str = "lipschitz",
             width_init: str = "local_ridge", width_optim_iters: int = 30,
             seed: int = 0) -> ErbfModel:
    """Run the three-stage pipeline and return the fitted network.

    n_rbf_mode "auto" sizes the network by auto_k and takes no n_rbf; "fixed"
    needs n_rbf, a positive integer. center_init is "lipschitz" or "kmeans",
    width_init "local_ridge" or "local_variance".
    """
    fixed = n_rbf_mode == "fixed" and _is_int(n_rbf) and n_rbf >= 1
    if not (fixed or (n_rbf_mode == "auto" and n_rbf is None)):
        raise ValueError(f"n_rbf_mode={n_rbf_mode!r} with n_rbf={n_rbf!r}: 'auto' takes no "
                         "n_rbf and 'fixed' needs a positive integer n_rbf")
    if not (_is_int(width_optim_iters) and width_optim_iters >= 0):
        raise ValueError(f"width_optim_iters must be an integer >= 0, got {width_optim_iters!r}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, d) and y (n,) with matching n")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("fit_erbf requires finite inputs; impute first")
    n, d = X.shape
    K = int(n_rbf) if fixed else auto_k(n, d)
    if K > n:
        raise ValueError(f"n_rbf={K} exceeds the number of training rows n={n}")

    std = Standardizer.fit(X)
    Xs = std.apply(X)

    centers = place_centers(Xs, y, K, mode=center_init, seed=seed)
    sigma0 = init_widths(Xs, y, centers, mode=width_init)

    Phi0 = erbf_activations(Xs, centers, sigma0)
    w0, b0 = ridge_solve(Phi0, y, alpha)
    r0 = Phi0 @ w0 + b0 - y
    mse_before = float(r0 @ r0) / n

    if width_optim_iters > 0:
        def objective(theta):
            try:
                return erbf_loss_and_grad(theta, Xs, y, centers, w0, b0)
            except ValueError:
                # infeasible trial widths (e.g. underflowed to zero on a row
                # that coincides with a centre): let the line search back off
                return np.inf, np.zeros_like(theta)

        res: OptimResult = lbfgs_minimize(
            objective, np.log(sigma0).ravel(), max_iter=width_optim_iters
        )
        sigma = np.exp(res.x.reshape(K, d))
        mse_after = res.loss
        iters, converged = res.iterations, res.converged
    else:
        sigma = sigma0
        mse_after = mse_before
        iters, converged = 0, False

    Phi = erbf_activations(Xs, centers, sigma)
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
            "stage3_mse_after": float(mse_after),
            "stage3_iterations": int(iters),
            "stage3_converged": bool(converged),
        },
    )
