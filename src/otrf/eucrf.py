"""Euclidean random feature maps and their evaluation machinery.

Covers the Gaussian kernel, trigonometric and exponential feature maps,
Gram estimation metrics, the pair cost series that drive the coupling
analysis, and a row-normalised attention estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import FeatureOverflowError, NumericalError
from .mathcore import _check_finite, _check_range


@dataclass(frozen=True)
class GaussianKernelParams:
    """Lengthscale, output scale and observation-noise scale."""

    lengthscale: float
    output_scale: float = 1.0
    noise_scale: float = 0.0

    def __post_init__(self):
        _check_range("lengthscale", self.lengthscale, "(0, inf)")
        _check_range("output_scale", self.output_scale, "(0, inf)")
        _check_range("noise_scale", self.noise_scale, "[0, inf)")


def _gaussian_of_sq(sq, params: GaussianKernelParams):
    """s_v^2 exp(-sq / (2 l^2)) of squared distances ``sq``.

    The scales are squared as numpy floats, silently, so a huge scale squares
    to inf instead of raising OverflowError: a huge lengthscale gives the
    constant kernel, a huge output scale inf (caught as a non-finite result).
    """
    with np.errstate(over="ignore"):
        scale = np.float64(params.output_scale) ** 2
        return scale * np.exp(-sq / (2 * np.float64(params.lengthscale) ** 2))


def gaussian_kernel(x, y, params: GaussianKernelParams) -> float:
    """k(x, y) = s_v^2 exp(-||x - y||^2 / (2 l^2)) of two vectors, flattened."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    _check_range("y size", y.size, f"[{x.size}, {x.size}]")
    _check_finite("x", x)
    _check_finite("y", y)
    sq = float(np.sum((x - y) ** 2))
    return _gaussian_of_sq(sq, params)


def gaussian_gram(X, Y, params: GaussianKernelParams) -> np.ndarray:
    """Exact kernel matrix between the rows of X and Y."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    sq = (
        np.sum(X**2, axis=1)[:, None]
        - 2.0 * X @ Y.T
        + np.sum(Y**2, axis=1)[None, :]
    )
    sq = np.maximum(sq, 0.0)
    return _gaussian_of_sq(sq, params)


def _trig_features(args: np.ndarray, scale: float) -> np.ndarray:
    """scale [sin(args); cos(args)], stacked along the second-to-last axis."""
    return scale * np.concatenate([np.sin(args), np.cos(args)], axis=-2)


def _exp_features(args: np.ndarray, sq_norms, scale: float) -> np.ndarray:
    """scale exp(args - sq_norms); raises FeatureOverflowError if any entry
    of ``args``, over a whole stack, passes 700."""
    if np.max(args, initial=-np.inf) > 700.0:
        raise FeatureOverflowError(
            "exp feature argument exceeds 700; enlarge the kernel lengthscale"
        )
    return scale * np.exp(args - sq_norms)


def _check_point(x, freqs) -> tuple[np.ndarray, np.ndarray]:
    """``x`` as a 1 x d row and ``freqs`` as an (m, d) array, m >= 1, both finite."""
    x = np.asarray(x, dtype=float)
    freqs = np.asarray(freqs, dtype=float)
    if freqs.ndim != 2 or not len(freqs):
        raise ValueError(f"freqs must be an (m, d) array with m >= 1, got shape {freqs.shape}")
    if x.shape != freqs.shape[1:]:
        raise ValueError(f"x must have shape {freqs.shape[1:]} to match freqs, got {x.shape}")
    _check_finite("x", x)
    _check_finite("freqs", freqs)
    return x[None, :], freqs


def rff_features(x, freqs, params: GaussianKernelParams) -> np.ndarray:
    """Trigonometric features of length 2m: sqrt(1/m) [sin, cos](w_i . x/l).

    The output is scaled by the kernel output scale, so the self dot
    product is exactly output_scale^2 for any input and (m, d) frequency
    array.  One column of :func:`rff_feature_matrix`.
    """
    return rff_feature_matrix(*_check_point(x, freqs), params)[:, 0]


def rlf_features(x, freqs, params: GaussianKernelParams) -> np.ndarray:
    """Exponential features of length m; all entries strictly positive.

    phi(x) = output_scale sqrt(1/m) exp(-||x/l||^2) exp(w_i . x/l).  Raises
    :class:`FeatureOverflowError` when the exponent would overflow; the fix
    is a larger lengthscale.  One column of :func:`rlf_feature_matrix`.
    """
    return rlf_feature_matrix(*_check_point(x, freqs), params)[:, 0]


def rff_feature_matrix(X, freqs, params: GaussianKernelParams) -> np.ndarray:
    """Feature matrix (2m x N) whose columns are rff_features of X's rows.

    ``freqs`` may be a (T, m, d) stack of ensembles; the result is then a
    (T, 2m, N) stack, slice i equal bit for bit to ``freqs[i]``'s own call.
    """
    freqs = np.asarray(freqs, dtype=float)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    args = freqs @ (X.T / params.lengthscale)
    return _trig_features(args, params.output_scale / np.sqrt(freqs.shape[-2]))


def rlf_feature_matrix(X, freqs, params: GaussianKernelParams) -> np.ndarray:
    """Feature matrix (m x N) whose columns are rlf_features of X's rows.

    A (T, m, d) stack of ``freqs`` gives a (T, m, N) stack, as in
    :func:`rff_feature_matrix`; one overflowing ensemble fails the stack.
    """
    freqs = np.asarray(freqs, dtype=float)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Xs = X / params.lengthscale
    scale = params.output_scale / np.sqrt(freqs.shape[-2])
    return _exp_features(freqs @ Xs.T, np.sum(Xs**2, axis=1)[None, :], scale)


def _check_featurizer(featurizer: str) -> None:
    """Refuse a featurizer name other than 'rff' and 'rlf'."""
    if featurizer not in ("rff", "rlf"):
        raise ValueError(f"featurizer must be 'rff' or 'rlf', got {featurizer!r}")


def _feature_matrix(featurizer: str, X, freqs, params: GaussianKernelParams) -> np.ndarray:
    """rff_feature_matrix or rlf_feature_matrix, by featurizer name."""
    _check_featurizer(featurizer)
    if featurizer == "rff":
        return rff_feature_matrix(X, freqs, params)
    return rlf_feature_matrix(X, freqs, params)


def gram_estimate(features: np.ndarray) -> np.ndarray:
    """K_hat = Phi^T Phi for a (feature_dim x N) matrix; symmetric PSD.

    A (T, feature_dim, N) stack gives the T Grams; numpy runs each slice
    through the same BLAS product as the 2-D call, so the bits agree.
    """
    phi = np.asarray(features, dtype=float)
    return np.swapaxes(phi, -1, -2) @ phi


def relative_rmse(k_hat: np.ndarray, k_exact: np.ndarray):
    """Root mean squared entrywise error between two Gram matrices.

    A ``k_hat`` with one more leading axis than ``k_exact`` is a stack of
    estimates: the result is then an array of one RMSE per slice.
    Benchmark reports normalise this by the value obtained with the iid
    coupling under the same protocol.
    """
    k_hat = np.asarray(k_hat, dtype=float)
    k_exact = np.asarray(k_exact, dtype=float)
    stacked = k_hat.ndim == k_exact.ndim + 1 and k_hat.shape[1:] == k_exact.shape
    if k_hat.shape != k_exact.shape and not stacked:
        raise ValueError(f"shape mismatch: {k_hat.shape} vs {k_exact.shape}")
    diff = k_hat - k_exact
    diff *= diff  # np.mean's sum and division, without its Python wrapper
    if stacked:
        return np.sqrt(np.add.reduce(diff.reshape(len(diff), -1), axis=-1) / k_exact.size)
    return float(np.sqrt(np.add.reduce(diff, axis=None) / diff.size))


# Gram entries per stacked feature-map call in rf-bench and the reference
# loss; bounds the (T, N, N) Gram stack that one call holds
_CHUNK_GRAM = 1 << 15


def _stacked_rmses(featurizer: str, X, freqs, params: GaussianKernelParams, k_exact) -> list:
    """The Gram RMSE of each ensemble in the (T, m, d) stack ``freqs``, in
    ensemble order, as floats: the feature maps, Grams and RMSEs run on
    sub-stacks of at most ``_CHUNK_GRAM`` Gram entries and at least one
    ensemble."""
    step = max(1, _CHUNK_GRAM // len(k_exact) ** 2)
    out = []
    for start in range(0, len(freqs), step):
        phi = _feature_matrix(featurizer, X, freqs[start : start + step], params)
        out += relative_rmse(gram_estimate(phi), k_exact).tolist()
    return out


def rlf_lengthscale_heuristic(X) -> float:
    """Twice the average summed pair norm, (2/N^2) sum_ij ||x_i + x_j||."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    sums = np.linalg.norm(X[:, None, :] + X[None, :, :], axis=2)
    return float(2.0 * np.mean(sums))


# ---------------------------------------------------------------------------
# Pair cost series


def _pair_cost_series(t: float, omega_sq_sum: float, d: int, alternating: bool) -> float:
    """sum_k (+-1)^k t^(2k) (w1^2+w2^2)^k / (4^k k! Gamma(k + d/2)).

    The series is 0F1(; d/2; +-t^2 (w1^2+w2^2) / 4) / Gamma(d/2) (DLMF
    16.2.1); the alternating one is a Bessel J in closed form (DLMF
    10.16.9), the positive one a Bessel I.  Raises NumericalError where
    scipy's 0F1 fails, at some negative arguments once d exceeds 176: nan,
    or inf though the alternating series is at most 1/Gamma(d/2).
    """
    x = (-1.0 if alternating else 1.0) * t * t * omega_sq_sum / 4.0
    value = special.hyp0f1(d / 2.0, x) * special.rgamma(d / 2.0)
    if np.isnan(value) or alternating and np.isinf(value):
        raise NumericalError(f"0F1({d / 2}; {x}) evaluated to {value}")
    return float(value)


def cost_rff(omega1: float, omega2: float, z: float, d: int) -> float:
    """Single ordered-pair trigonometric cost; alternating series in z."""
    for name, value in (("omega1", omega1), ("omega2", omega2), ("z", z)):
        _check_range(name, value, "[0, inf)")
    return _pair_cost_series(z, omega1**2 + omega2**2, d, alternating=True)


def cost_rlf(omega1: float, omega2: float, v: float, d: int) -> float:
    """Single ordered-pair exponential cost; positive-term series in v."""
    for name, value in (("omega1", omega1), ("omega2", omega2), ("v", v)):
        _check_range(name, value, "[0, inf)")
    return _pair_cost_series(v, omega1**2 + omega2**2, d, alternating=False)


# ---------------------------------------------------------------------------
# Attention


def attention_exact(X, params: GaussianKernelParams) -> np.ndarray:
    """Row-normalised kernel scores a_ij = k(x_i, x_j) / sum_l k(x_i, x_l)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    K = gaussian_gram(X, X, params)
    return K / np.sum(K, axis=1, keepdims=True)


def attention_estimate(X, freqs, params: GaussianKernelParams) -> dict:
    """Monte Carlo error of attention estimated with exponential features.

    ``freqs`` is an iterable of (m, d) frequency arrays, one per trial, and
    may be lazy; exponential features keep every kernel estimate positive so
    row sums never vanish.  Returns floats: ``attention_mse``, the squared
    attention error averaged over trials and all (i, j); ``kernel_var`` and
    ``kernel_cov``, the mean pointwise variance and the mean same-row
    covariance of the raw kernel estimates, i.e. the two competing terms in
    the attention error expansion.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    a_exact = attention_exact(X, params)

    att_sq_err = np.zeros((n, n))
    k_sum = np.zeros((n, n))
    k_sq_sum = np.zeros((n, n))
    k_cross = np.zeros(n)  # sum over trials of (sum_j khat_ij)^2 per row
    trials = 0
    for trials, trial_freqs in enumerate(freqs, 1):
        phi = rlf_feature_matrix(X, trial_freqs, params)
        k_hat = gram_estimate(phi)
        a_hat = k_hat / np.sum(k_hat, axis=1, keepdims=True)
        att_sq_err += (a_hat - a_exact) ** 2
        k_sum += k_hat
        k_sq_sum += k_hat**2
        k_cross += np.sum(k_hat, axis=1) ** 2
    if not trials:
        raise ValueError("attention estimate needs at least one ensemble")

    k_mean = k_sum / trials
    var = k_sq_sum / trials - k_mean**2
    # mean over (j1, j2) pairs of Cov(khat_ij1, khat_ij2), including j1 = j2
    row_second = k_cross / trials
    row_mean = np.sum(k_mean, axis=1)
    cov_rows = (row_second - row_mean**2) / n**2
    return {
        "attention_mse": float(np.mean(np.mean(att_sq_err, axis=1) / trials)),
        "kernel_var": float(np.mean(var)),
        "kernel_cov": float(np.mean(cov_rows)),
    }
