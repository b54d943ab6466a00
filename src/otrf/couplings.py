"""Frequency-ensemble construction under coupled sampling schemes.

Ensembles of m frequency vectors in R^d are built so that every vector is
marginally N(0, I_d) while the joint distribution is shaped for variance
reduction: orthogonal directions, negative-monotone norm pairs, antithetic
mirroring, positive-monotone (equal) norms, or a learned Gaussian-copula
joint over the norms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

from . import eucrf
from .errors import NumericalError
from .mathcore import (
    ChiParams,
    _adam,
    _check_finite,
    _check_range,
    _trial_rngs,
    chi_inv_cdf,
    ensure_rng,
    gauss_cdf,
    gauss_inv_cdf,
    halton_points,
)

COUPLING_TAGS = (
    "iid",
    "halton",
    "orthogonal",
    "orthogonal_pnc",
    "orthogonal_pnc_antithetic",
    "positive_monotone",
    "copula",
)

_TINY = 1e-300
_ONE_MINUS = 1.0 - 1e-16


@dataclass
class CorrelationParams:
    """Unconstrained parameters of a row-normalised Cholesky factor.

    ``theta`` holds the m(m-1)/2 strictly-lower-triangular entries in
    row-major order; the diagonal entries are implicitly 1.  Any real values
    are admissible: row normalisation maps them to a valid correlation
    matrix, and negative entries produce negative correlations (required to
    represent negative-monotone couplings).
    """

    m: int
    theta: np.ndarray

    def __post_init__(self):
        _check_range("m", self.m, "[1, inf)")
        self.theta = np.asarray(self.theta, dtype=float)
        expect = self.m * (self.m - 1) // 2
        if self.theta.shape != (expect,):
            raise ValueError(
                f"theta must have shape ({expect},) for m={self.m}, "
                f"got {self.theta.shape}"
            )
        _check_finite("theta", self.theta)

    @classmethod
    def near_independence(cls, m: int, scale: float = 1e-3) -> "CorrelationParams":
        return cls(m, np.full(m * (m - 1) // 2, scale))

    def to_json(self) -> str:
        return json.dumps(list(self.theta))

    @classmethod
    def from_json(cls, text: str) -> "CorrelationParams":
        flat = np.asarray(json.loads(text), dtype=float)
        m = int(round((1 + np.sqrt(1 + 8 * flat.size)) / 2))
        return cls(m, flat)


@dataclass(frozen=True)
class CouplingSpec:
    """A named coupling strategy, optionally carrying copula parameters."""

    tag: str
    params: CorrelationParams | None = None

    def __post_init__(self):
        if self.tag not in COUPLING_TAGS:
            raise ValueError(f"unknown coupling tag {self.tag!r}")
        if self.tag == "copula" and self.params is None:
            raise ValueError("copula coupling requires CorrelationParams")


def _open_unit(rng: np.random.Generator, size) -> np.ndarray:
    """Uniform draws restricted to the open interval (0, 1)."""
    u = rng.random(size)
    while np.any(u == 0.0):
        zeros = u == 0.0
        u[zeros] = rng.random(int(np.sum(zeros)))
    return u


def _orthonormal_rows(gauss: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` sign-corrected QR directions of each d x d matrix
    in the stack ``gauss``, as a (k, count, d) array; one stacked QR factors
    each matrix as its own call would."""
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    return q[:, :, :count].transpose(0, 2, 1)


def sample_orthogonal_directions(d: int, count: int, rng) -> np.ndarray:
    """``count`` pairwise-orthogonal unit vectors, jointly Haar-rotated.

    QR orthonormalisation of a d x d standard Gaussian matrix with sign
    correction, so each row is marginally uniform on the sphere.  ``rng``
    may be a list of T generators, one per trial: each draws its own
    matrix, one stacked QR factors them all, and the rows form T blocks of
    ``count`` in trial order, block i equal to ``rng[i]``'s own call.
    """
    _check_range("count", count, f"[0, {d}]")  # at most d orthogonal directions in R^d
    gauss = np.array([r.standard_normal((d, d)) for r in _trial_rngs(rng)])
    return _orthonormal_rows(gauss, count).reshape(-1, d)


def _norm_uniforms(count: int, d: int, spec: CouplingSpec):
    """The draw half of :func:`sample_norms`: a function of one generator
    that draws its uniforms for ``count`` norms under ``spec``.

    iid, halton and orthogonal draw ``count``; pnc draws one per pair, then
    one for an odd trailing norm; positive_monotone one per block of d, one
    at a time; copula maps a standard Gaussian z to clip(Phi(L z)).
    """
    tag = spec.tag
    if tag in ("orthogonal_pnc", "orthogonal_pnc_antithetic"):
        if count % 2:
            return lambda r: np.append(_open_unit(r, count // 2), _open_unit(r, 1))
        return lambda r: _open_unit(r, count // 2)
    if tag == "positive_monotone":
        return lambda r: np.array([_open_unit(r, 1)[0] for _ in range(0, count, d)])
    if tag == "copula":
        if spec.params.m != count:
            raise ValueError(f"copula params are for m={spec.params.m}, need {count}")
        L = cholesky_from_params(spec.params)
        return lambda r: np.clip(gauss_cdf(L @ r.standard_normal(count)), _TINY, _ONE_MINUS)
    return lambda r: _open_unit(r, count)


def _chi_norms(u: np.ndarray, count: int, d: int, tag: str) -> np.ndarray:
    """The map half of :func:`sample_norms`: (T, count) norms from the
    (T, k) uniforms of T generators, one chi_d quantile call for them all.

    positive_monotone repeats each block's norm d times.  A pnc pair is
    (F^-1(u), F^-1(1 - u)), the mirrored half mapped by a second call, so
    F(w1) + F(w2) = 1 holds exactly; an odd trailing norm stays independent.
    """
    chi = ChiParams(d)
    w = chi_inv_cdf(u, chi)
    if tag == "positive_monotone":
        return np.repeat(w, d, axis=1)[:, :count]
    if tag not in ("orthogonal_pnc", "orthogonal_pnc_antithetic"):
        return w
    pairs = count // 2
    out = np.empty((len(u), count))
    out[:, 0 : 2 * pairs : 2] = w[:, :pairs]
    out[:, 2 * pairs :] = w[:, pairs:]
    if pairs:
        out[:, 1 : 2 * pairs : 2] = chi_inv_cdf(1.0 - u[:, :pairs], chi)
    return out


def sample_norms(count: int, d: int, scheme: CouplingSpec | str, rng) -> np.ndarray:
    """Frequency norms, marginally chi_d, coupled per ``scheme``.

    ``orthogonal_pnc`` norms are negative-monotone in consecutive pairs;
    ``positive_monotone`` norms are equal within consecutive blocks of
    size d; ``copula`` norms are drawn jointly through the Gaussian copula.
    Each scheme only chooses the uniforms it draws (:func:`_norm_uniforms`);
    drawing comes first, then one chi_d quantile call maps them
    (:func:`_chi_norms`).  ``rng`` may be a list of T generators, one per
    trial: each draws its uniforms in its own call's order, one quantile
    call maps all trials' uniforms, and the norms form T blocks of
    ``count`` in trial order, block i equal to ``rng[i]``'s own call.
    """
    spec = CouplingSpec(scheme) if isinstance(scheme, str) else scheme
    draw = _norm_uniforms(count, d, spec)
    u = np.array([draw(r) for r in _trial_rngs(rng)])
    return _chi_norms(u, count, d, spec.tag).ravel()


def cholesky_from_params(theta: CorrelationParams) -> np.ndarray:
    """Row-normalised lower-triangular factor L with Sigma = L L^T.

    Row i is (theta_i1, ..., theta_ii) / s_i with theta_ii = 1 and s_i the
    row L2 norm, so Sigma has unit diagonal by construction.
    """
    m = theta.m
    L = np.zeros((m, m))
    L[0, 0] = 1.0
    pos = 0
    for i in range(1, m):
        row = np.empty(i + 1)
        row[:i] = theta.theta[pos : pos + i]
        row[i] = 1.0
        pos += i
        L[i, : i + 1] = row / np.linalg.norm(row)
    return L


def check_ensemble_size(m: int, d: int, tag: str) -> None:
    """Raise ValueError unless scheme ``tag`` can draw m frequencies in R^d.

    Orthogonal schemes fill independent blocks of d directions (2d for the
    mirrored antithetic one); copula ensembles take blocks of at most d, so
    m <= d or a multiple of d.  Other schemes take any m >= 1, in any d >= 1.
    """
    _check_range("m", m, "[1, inf)")
    _check_range("d", d, "[1, inf)")
    block = {
        "orthogonal": d,
        "orthogonal_pnc": d,
        "positive_monotone": d,
        "orthogonal_pnc_antithetic": 2 * d,
    }.get(tag)
    if block and m % block:
        raise ValueError(f"{tag} needs m to be a multiple of {block}, got m={m}, d={d}")
    if tag == "copula" and m > d and m % d:
        raise ValueError(f"copula needs m <= d or m a multiple of d, got m={m}, d={d}")


def build_ensemble(m: int, d: int, scheme: CouplingSpec | str, rng) -> np.ndarray:
    """Draw an (m, d) frequency array under ``scheme``.

    Orthogonal schemes require m to be a multiple of d (independent blocks
    of d); the antithetic variant requires a multiple of 2d and mirrors each
    block, freq[d+i] = -freq[i].  The Halton scheme maps a d-dimensional
    Halton point through the Gaussian quantile function coordinate-wise,
    with a random modulo-1 shift so marginals stay Gaussian; pass
    ``rng=None`` for the raw, unshifted sequence.

    ``rng`` may be a list of T generators, one per trial; the call then
    returns a (T, m, d) array, block i equal bit for bit to ``rng[i]``'s
    own call.  Each generator is read in its own call's order,
    block by block, while the Halton sequence, each block's QR and each
    block's chi_d quantile run once for all trials.
    """
    spec = CouplingSpec(scheme) if isinstance(scheme, str) else scheme
    tag = spec.tag
    check_ensemble_size(m, d, tag)
    rngs = _trial_rngs(rng)

    if tag == "halton":
        pts = halton_points(m, d)[None]
        if rng is not None:
            pts = np.mod(pts + np.array([r.random(d) for r in rngs])[:, None, :], 1.0)
        freqs = gauss_inv_cdf(np.clip(pts, _TINY, _ONE_MINUS))
    elif tag == "iid":
        freqs = np.array([r.standard_normal((m, d)) for r in rngs])
    elif tag == "copula":
        freqs = _freqs_blockwise(m, d, spec, rngs)
    else:
        # orthogonal blocks of d, each followed by its mirror for antithetic
        mirror = tag == "orthogonal_pnc_antithetic"
        blocks = []
        for _ in range(m // (d + mirror * d)):
            dirs = sample_orthogonal_directions(d, d, rngs)
            base = (sample_norms(d, d, spec, rngs)[:, None] * dirs).reshape(-1, d, d)
            blocks += [base, -base] if mirror else [base]
        freqs = np.concatenate(blocks, axis=1)

    return freqs if isinstance(rng, list) else freqs[0]


def _direction_blocks(m: int, d: int) -> tuple[int, int]:
    """(blocks, directions per block) for m directions in independent
    orthogonal blocks of at most d: one short block when m < d, else m / d."""
    check_ensemble_size(m, d, "copula")
    return -(-m // d), min(m, d)


def _freqs_blockwise(m: int, d: int, spec: CouplingSpec, rng) -> np.ndarray:
    """(T, m, d) frequencies, one m x d sample per generator in ``rng``.

    Each generator draws the d x d Gaussian matrix of each direction block
    (:func:`_direction_blocks`), then its norm uniforms
    (:func:`_norm_uniforms`).  A list may hold one generator several times;
    it then draws those samples one after another.  Mapping comes after all
    draws: one stacked QR turns every block into directions and one
    :func:`_chi_norms` call maps every sample's uniforms to the norms that
    scale them.
    """
    blocks, per_block = _direction_blocks(m, d)
    draw = _norm_uniforms(m, d, spec)
    gauss, u = [], []
    for r in _trial_rngs(rng):
        gauss.append(r.standard_normal((blocks, d, d)))
        u.append(draw(r))
    dirs = _orthonormal_rows(np.concatenate(gauss), per_block).reshape(len(u), m, d)
    return _chi_norms(np.array(u), m, d, spec.tag)[:, :, None] * dirs


# frequency entries per ensemble-layer call in rf-bench, gp-eval,
# attention-bench and the reference loss; bounds the (trials, m, d) block
# that one build_ensemble or _freqs_blockwise call holds
_CHUNK_FREQS = 1 << 15


def _ensemble_batch(m: int, d: int) -> int:
    """Ensembles per ensemble-layer call for m x d ensembles: at most
    _CHUNK_FREQS frequency entries, and at least one ensemble."""
    return max(1, _CHUNK_FREQS // (m * d))


# ---------------------------------------------------------------------------
# Copula loss and optimisation


def _factor_grad(L: np.ndarray, grad_L: np.ndarray) -> np.ndarray:
    """Pull a gradient on the row-normalised factor back to theta.

    Row i of L is r_i / |r_i|, so dL_i maps to dr_i = (dL_i - L_i (L_i . dL_i))
    / |r_i|, and 1 / |r_i| = L_ii.  Only the lower triangle of ``grad_L`` is
    read; the strictly-lower entries of dr are the theta gradient, in the
    row-major order of :class:`CorrelationParams`.
    """
    grad_r = (grad_L - L * np.sum(L * grad_L, axis=1)[:, None]) * np.diag(L)[:, None]
    return grad_r[np.tril_indices(L.shape[0], -1)]


def _loss_dataset(dataset, mc_samples: int) -> np.ndarray:
    """``dataset`` as a 2-D float array, after the checks both RMSE losses
    share: one to 1e6 Monte Carlo draws and a nonempty dataset."""
    _check_range("mc_samples", mc_samples, "[1, 1e6]")
    dataset = np.atleast_2d(np.asarray(dataset, dtype=float))
    if dataset.size == 0:
        raise ValueError("copula loss requires a nonempty dataset")
    return dataset


def _rmse_loss_and_grad(
    theta: np.ndarray,
    dataset: np.ndarray,
    kernel: "eucrf.GaussianKernelParams",
    featurizer: str,
    mc_samples: int,
    seed: int,
) -> tuple[float, np.ndarray]:
    """The copula loss at ``theta`` and its exact gradient: the mean over
    ``mc_samples`` draws of the feature Gram estimate's RMSE against the
    exact Gaussian kernel.

    The seed fixes the noise (directions, then the Gaussian vector z, per
    draw), giving common-random-number evaluations: the loss is a
    deterministic, smooth function of (theta, seed).  The gradient is
    pathwise, a reverse pass through K_hat = Phi^T Phi, the features, the
    norms w = F_chi^-1(Phi(g)), g = L z and the row-normalised factor L.
    The norms use implicit reparameterisation: dw/dg = phi(g) / f_chi(w),
    taken in log space and zero where the uniform Phi(g) was clipped.
    All draws come first; one gauss_cdf and one chi_d quantile call then
    map every draw's g, and the forward and reverse passes run per draw.
    """
    if featurizer not in ("rff", "rlf"):
        raise ValueError(f"featurizer must be 'rff' or 'rlf', got {featurizer!r}")
    dataset = _loss_dataset(dataset, mc_samples)
    n, d = dataset.shape
    m = int(round((1 + np.sqrt(1 + 8 * theta.size)) / 2))
    rng = np.random.default_rng(seed)

    k_exact = eucrf.gaussian_gram(dataset, dataset, kernel)
    x_scaled = dataset / kernel.lengthscale
    sq = np.sum(x_scaled**2, axis=1)[None, :]
    scale = kernel.output_scale / np.sqrt(m)
    chi = ChiParams(d)
    # log phi(g) - log f_chi(w) = log_norm - g^2/2 - (d-1) log w + w^2/2
    log_norm = (d / 2 - 1) * np.log(2.0) + gammaln(d / 2) - 0.5 * np.log(2 * np.pi)

    L = cholesky_from_params(CorrelationParams(m, theta))
    blocks, per_block = _direction_blocks(m, d)
    draws = []
    for _ in range(mc_samples):
        # one list entry per direction block, each drawn from rng in turn
        dirs = sample_orthogonal_directions(d, per_block, [rng] * blocks)
        draws.append((dirs, rng.standard_normal(m)))
    g_all = np.array([L @ z for _, z in draws])
    p_all = gauss_cdf(g_all)
    u_all = np.clip(p_all, _TINY, _ONE_MINUS)
    norms_all = chi_inv_cdf(u_all, chi)
    loss = 0.0
    grad_L = np.zeros((m, m))
    for (dirs, z), g, p, u, norms in zip(draws, g_all, p_all, u_all, norms_all):
        # projections of every datapoint on every direction: (m, N)
        proj = dirs @ x_scaled.T
        args = norms[:, None] * proj
        if featurizer == "rff":
            phi = eucrf._trig_features(args, scale)
        else:
            phi = eucrf._exp_features(args, sq, scale)
        resid = phi.T @ phi - k_exact
        rmse = np.sqrt(np.mean(resid**2))
        loss += rmse
        if rmse == 0.0:
            continue
        # d rmse / d K_hat = resid / (N^2 rmse), and K_hat = Phi^T Phi
        grad_phi = (2.0 / (n * n * rmse)) * (phi @ resid)
        if featurizer == "rff":
            grad_args = grad_phi[:m] * phi[m:] - grad_phi[m:] * phi[:m]
        else:
            grad_args = grad_phi * phi
        grad_norms = np.sum(grad_args * proj, axis=1)
        log_dw_dg = log_norm - 0.5 * g**2 - xlogy(d - 1, norms) + 0.5 * norms**2
        dw_dg = np.where(u == p, np.exp(log_dw_dg), 0.0)
        grad_L += np.outer(grad_norms * dw_dg, z)
    return loss / mc_samples, _factor_grad(L, grad_L) / mc_samples


def reference_coupling_loss(
    scheme: CouplingSpec | str,
    m: int,
    dataset: np.ndarray,
    kernel: "eucrf.GaussianKernelParams",
    featurizer: str,
    mc_samples: int,
    rng,
) -> float:
    """The copula loss's RMSE protocol (:func:`_rmse_loss_and_grad`) for a fixed scheme.

    Gives a like-for-like baseline (e.g. orthogonal with independent or
    negative-monotone-paired norms) to compare learned copulas against.
    The ``mc_samples`` ensembles are drawn from ``rng`` one after another,
    each reading it in :func:`_freqs_blockwise` order: the Gaussian matrix
    of each direction block, then the norm uniforms.  Mapping runs once per
    chunk of at most ``_CHUNK_FREQS`` frequency entries: one stacked QR and
    one chi_d quantile call.  Feature maps and RMSEs stay per ensemble.
    """
    dataset = _loss_dataset(dataset, mc_samples)
    spec = CouplingSpec(scheme) if isinstance(scheme, str) else scheme
    rng = ensure_rng(rng)
    d = dataset.shape[1]
    k_exact = eucrf.gaussian_gram(dataset, dataset, kernel)
    batch = _ensemble_batch(m, d)
    total = 0.0
    for start in range(0, mc_samples, batch):
        chunk = [rng] * min(batch, mc_samples - start)
        for freqs in _freqs_blockwise(m, d, spec, chunk):
            phi = eucrf._feature_matrix(featurizer, dataset, freqs, kernel)
            total += eucrf.relative_rmse(eucrf.gram_estimate(phi), k_exact)
    return total / mc_samples


@dataclass
class CopulaOptConfig:
    """Adam settings for copula optimisation (defaults follow the protocol).

    Each step draws ``mc_samples`` RMSE evaluations from a fresh step seed
    and follows their exact pathwise gradient.  Adam's moment decays and
    offset are fixed constants; only the step count and rate are set here.
    Adam moves theta by about lr per step, so lr <= 1 keeps it finite.
    """

    steps: int = 2000
    lr: float = 1e-2
    mc_samples: int = 2
    m: int | None = None  # ensemble size; defaults to the data dimension

    def __post_init__(self):
        _check_range("steps", self.steps, "[0, 1e6]")
        _check_range("lr", self.lr, "(0, 1]")
        _check_range("mc_samples", self.mc_samples, "[1, 1e6]")
        if self.m is not None:
            _check_range("m", self.m, "[1, inf)")


@dataclass
class CopulaFitResult:
    params: CorrelationParams
    loss_trace: np.ndarray


def optimize_copula(
    dataset: np.ndarray,
    kernel: "eucrf.GaussianKernelParams",
    featurizer: str,
    config: CopulaOptConfig,
    rng,
) -> CopulaFitResult:
    """Learn copula parameters by Adam on the RMSE loss, from near
    independence (:meth:`CorrelationParams.near_independence`).

    Each step evaluates the common-random-number loss at a fresh step seed,
    with its exact pathwise gradient from one reverse pass (see
    :func:`_rmse_loss_and_grad`), and records the loss in ``loss_trace``.  Aborts
    with :class:`NumericalError` on a non-finite loss or gradient.
    """
    dataset = np.atleast_2d(np.asarray(dataset, dtype=float))
    rng = ensure_rng(rng)
    m = config.m if config.m is not None else dataset.shape[1]
    theta = CorrelationParams.near_independence(m).theta
    step_seeds = rng.integers(2**63, size=config.steps)
    trace = np.empty(config.steps)

    def grad_at(t, x):
        loss, grad = _rmse_loss_and_grad(
            x, dataset, kernel, featurizer, config.mc_samples, int(step_seeds[t])
        )
        if not (np.isfinite(loss) and np.all(np.isfinite(grad))):
            raise NumericalError(f"copula loss or gradient became non-finite at step {t}")
        trace[t] = loss
        return grad

    theta = _adam(grad_at, theta, config.steps, config.lr)
    return CopulaFitResult(CorrelationParams(m, theta), trace)
