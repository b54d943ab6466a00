"""Exact and feature-space Gaussian-process regression.

Posteriors are reported in observation space: predictive covariances carry
the +noise^2 I term, so the exact and feature-space routes agree exactly
when the features reproduce the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, cho_solve, lapack

from .errors import NumericalError
from .eucrf import GaussianKernelParams, gaussian_gram
from .mathcore import _adam, _check_range


@dataclass
class GaussianPosterior:
    """Predictive mean vector and covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).ravel()
        self.cov = np.asarray(self.cov, dtype=float)
        if self.cov.shape != (self.mean.size, self.mean.size):
            raise ValueError("covariance shape does not match mean length")


def _jittered_cho(mat: np.ndarray):
    """Cholesky with escalating diagonal jitter, as ``((L, True), jitter)``.

    Each rung calls LAPACK ``dpotrf`` once for the lower factor L, with the
    strict upper triangle zeroed, so the pair works with ``cho_solve``.  The
    matrix is tried as given first, then with 1e-8 tr/N added to the
    diagonal, escalating tenfold up to 1e-4 tr/N before failing.  A
    non-finite matrix raises ``ValueError``, as ``cho_factor`` does.
    """
    mat = np.asarray_chkfinite(mat)
    n = mat.shape[0]
    jitter = 0.0
    while True:
        shifted = mat if jitter == 0.0 else mat + jitter * np.eye(n)
        c, info = lapack.dpotrf(shifted, lower=1, clean=1)
        if info == 0:
            return (c, True), jitter
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK dpotrf")
        base = max(np.trace(mat) / n, 1e-12) if jitter == 0.0 else base  # on failure only
        jitter = 1e-8 * base if jitter == 0.0 else jitter * 10.0
        if jitter > 1e-4 * base:
            raise NumericalError("matrix not positive definite even after 1e-4 tr/N jitter")


def exact_posterior(k_dd, k_pd, k_pp, y, noise_scale: float) -> GaussianPosterior:
    """Kernel-space predictive posterior for noisy observations.

    mean = K_pd (K_dd + s_n^2 I)^-1 y and cov = K_pp - K_pd (...)^-1 K_dp
    + s_n^2 I, solved through a symmetric factorisation.  With an empty
    training set this is the prior N(0, K_pp + s_n^2 I).
    """
    _check_range("noise_scale", noise_scale, "(0, inf)")
    k_dd = np.atleast_2d(np.asarray(k_dd, dtype=float))
    k_pd = np.atleast_2d(np.asarray(k_pd, dtype=float))
    k_pp = np.atleast_2d(np.asarray(k_pp, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n_d = k_dd.shape[0] if k_dd.size else 0
    n_p = k_pp.shape[0]
    if n_d == 0:
        return GaussianPosterior(np.zeros(n_p), k_pp + noise_scale**2 * np.eye(n_p))
    if k_pd.shape != (n_p, n_d) or y.shape != (n_d,):
        raise ValueError("inconsistent block shapes")
    cho, _ = _jittered_cho(k_dd + noise_scale**2 * np.eye(n_d))
    mean = k_pd @ cho_solve(cho, y)
    cov = k_pp - k_pd @ cho_solve(cho, k_pd.T) + noise_scale**2 * np.eye(n_p)
    return GaussianPosterior(mean, 0.5 * (cov + cov.T))


def approx_posterior(phi_d, phi_p, y, noise_scale: float) -> GaussianPosterior:
    """Feature-space posterior of the implied linear model, cost O(N m^2).

    Algebraically identical (by the Woodbury identity) to
    :func:`exact_posterior` applied to the Gram blocks Phi^T Phi.
    Feature matrices are laid out (feature_dim x N).
    """
    _check_range("noise_scale", noise_scale, "(0, inf)")
    phi_d = np.atleast_2d(np.asarray(phi_d, dtype=float))
    phi_p = np.atleast_2d(np.asarray(phi_p, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if phi_d.shape[0] != phi_p.shape[0]:
        raise ValueError("feature dimensions of train/prediction blocks differ")
    if phi_d.shape[1] != y.size:
        raise ValueError("phi_d column count must match y")
    s = phi_d.shape[0]
    n_p = phi_p.shape[1]
    a = phi_d @ phi_d.T / noise_scale**2 + np.eye(s)
    cho, _ = _jittered_cho(a)
    mean = phi_p.T @ cho_solve(cho, phi_d @ y) / noise_scale**2
    cov = phi_p.T @ cho_solve(cho, phi_p) + noise_scale**2 * np.eye(n_p)
    return GaussianPosterior(mean, 0.5 * (cov + cov.T))


def _evidence(k: np.ndarray, y: np.ndarray, noise_scale: float):
    """Factor of K_y = K + s_n^2 I, alpha = K_y^-1 y, the log evidence and the factor's jitter."""
    n = y.size
    cho, jitter = _jittered_cho(k + noise_scale**2 * np.eye(n))
    alpha, _ = lapack.dpotrs(cho[0], y, lower=1)
    logdet = 2.0 * np.sum(np.log(np.diag(cho[0])))
    value = -0.5 * float(y @ alpha) - 0.5 * logdet - 0.5 * n * np.log(2 * np.pi)
    return cho, alpha, value, jitter


def _evidence_and_grad(sq, y, log_params, fixed_ls):
    """Log evidence and its gradient w.r.t. (log l, log s_v, log s_n), given
    the pairwise squared distances D = ``sq`` of the training inputs.

    Each gradient entry is 1/2 tr(W dK/dtheta) with W = alpha alpha^T - K_y^-1
    (Rasmussen & Williams 2006, eq. 5.9); LAPACK ``dpotri`` gives K_y^-1's lower
    triangle from the factor.  As K = K_y - c I with c = s_n^2 + jitter, and
    K_y alpha = y, the entries are, with a = alpha^T alpha and D's zero diagonal,
    (1/2 alpha^T (K o D) alpha - sum(tril(K_y^-1) o K o D)) / l^2,
    y^T alpha - c a - n + c tr(K_y^-1) and s_n^2 (a - tr(K_y^-1)).
    """
    log_l, log_v, log_n = log_params
    if fixed_ls is not None:
        log_l = np.log(fixed_ls)
    ls, sv, sn = np.exp(log_l), np.exp(log_v), np.exp(log_n)
    k = sv**2 * np.exp(-sq / (2 * ls**2))
    cho, alpha, value, jitter = _evidence(k, y, sn)
    k_inv, _ = lapack.dpotri(cho[0], lower=1, overwrite_c=1)  # upper stays 0
    tr_inv, a, c = np.trace(k_inv), float(alpha @ alpha), sn**2 + jitter
    grad_l = 0.0
    if fixed_ls is None:
        # scipy's BLAS, as for the factor: numpy's `@` wakes a second BLAS pool, and on a
        # few cores two pools starve each other.  kd is symmetric, so transposes spare copies
        kd = k * sq
        quad = blas.ddot(alpha, blas.dsymv(1.0, kd.T, alpha))
        grad_l = (0.5 * quad - blas.ddot(k_inv.T.ravel(), kd.ravel())) / ls**2
    grad_v = float(y @ alpha) - c * a - y.size + c * tr_inv
    return value, np.array([grad_l, grad_v, sn**2 * (a - tr_inv)])


def fit_hyperparams(X, y, init: GaussianKernelParams, steps: int,
                    fix_lengthscale: float | None = None) -> GaussianKernelParams:
    """Maximise the exact log evidence of targets ``y`` at inputs ``X`` by
    ``steps`` Adam steps of rate 1e-2 in log-parameter space, from ``init``.

    Positivity is enforced by the log parameterisation; gradients are
    analytic.  ``fix_lengthscale`` pins the lengthscale, so only the scales
    fit.  Training sets are capped at 256 points.
    """
    _check_range("steps", steps, "[1, 5000]")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if y.size > 256:
        raise ValueError("training set capped at 256 points for exact fitting")
    log_params = np.log([init.lengthscale, init.output_scale, max(init.noise_scale, 1e-3)])
    sq = np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=2)  # fixed across steps

    def neg_grad(t, x):  # Adam minimises
        value, grad = _evidence_and_grad(sq, y, x, fix_lengthscale)
        if not np.isfinite(value):
            raise NumericalError(f"evidence became non-finite at step {t}")
        return -grad

    log_params = _adam(neg_grad, log_params, steps, 1e-2)
    ls = fix_lengthscale if fix_lengthscale is not None else np.exp(log_params[0])
    return GaussianKernelParams(float(ls), output_scale=float(np.exp(log_params[1])),
                                noise_scale=float(np.exp(log_params[2])))


def gaussian_kl(p: GaussianPosterior, q: GaussianPosterior) -> float:
    """KL(p || q) in nats between Gaussian posteriors of equal dimension.

    Tiny negative values from roundoff are clamped to zero.
    """
    if p.mean.size != q.mean.size:
        raise ValueError("posteriors have different dimensions")
    k = p.mean.size
    # the same jitter goes on both covariances so KL(p, p) is exactly zero
    cho_q, jitter = _jittered_cho(q.cov)
    cov_p = p.cov + jitter * np.eye(k)
    cho_p, _ = _jittered_cho(cov_p)
    diff = q.mean - p.mean
    trace_term = float(np.trace(cho_solve(cho_q, cov_p)))
    quad = float(diff @ cho_solve(cho_q, diff))
    logdet_q = 2.0 * np.sum(np.log(np.diag(cho_q[0])))
    logdet_p = 2.0 * np.sum(np.log(np.diag(cho_p[0])))
    kl = 0.5 * (trace_term + quad - k + logdet_q - logdet_p)
    if kl < -1e-10:
        raise NumericalError(f"KL evaluated to {kl}; covariances are unusable")
    return max(kl, 0.0)


def kernel_blocks(train_x, pred_x, params: GaussianKernelParams):
    """Convenience: (K_dd, K_pd, K_pp) for the Gaussian kernel."""
    k_dd = gaussian_gram(train_x, train_x, params)
    k_pd = gaussian_gram(pred_x, train_x, params)
    k_pp = gaussian_gram(pred_x, pred_x, params)
    return k_dd, k_pd, k_pp
