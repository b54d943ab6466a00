"""Posterior algebra, evidence, hyperparameter fitting and KL divergence."""

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from otrf.errors import NumericalError
from otrf.eucrf import GaussianKernelParams, gaussian_gram
from otrf.gp import (
    GaussianPosterior,
    _evidence,
    _evidence_and_grad,
    _jittered_cho,
    approx_posterior,
    exact_posterior,
    fit_hyperparams,
    gaussian_kl,
    kernel_blocks,
)


def log_marginal_likelihood(k_dd, y, noise_scale):
    """Gaussian log evidence of ``y`` under N(0, K + s_n^2 I), by scipy.stats."""
    cov = np.asarray(k_dd) + noise_scale**2 * np.eye(len(y))
    return stats.multivariate_normal(np.zeros(len(y)), cov).logpdf(y)


def assert_symmetric_psd(cov):
    """Symmetric to 1e-10 with no eigenvalue below -1e-8 max(tr, 1)."""
    assert np.allclose(cov, cov.T, atol=1e-10)
    floor = -1e-8 * max(np.trace(cov), 1.0)
    assert np.min(np.linalg.eigvalsh(0.5 * (cov + cov.T))) >= floor


def _random_problem(seed, n_train=12, n_pred=5, d=3, noise=0.2):
    rng = np.random.default_rng(seed)
    X_tr = rng.standard_normal((n_train, d))
    X_pr = rng.standard_normal((n_pred, d))
    y = rng.standard_normal(n_train)
    params = GaussianKernelParams(1.4, 1.1, noise)
    return X_tr, X_pr, y, params


class TestExactPosterior:
    def test_empty_training_set_gives_prior(self):
        _, X_pr, _, params = _random_problem(0)
        k_pp = gaussian_gram(X_pr, X_pr, params)
        post = exact_posterior(np.zeros((0, 0)), np.zeros((5, 0)), k_pp, [], 0.3)
        assert np.array_equal(post.mean, np.zeros(5))
        assert np.allclose(post.cov, k_pp + 0.09 * np.eye(5))

    def test_scalar_closed_form(self):
        k_dd = np.array([[2.0]])
        k_pd = np.array([[0.7]])
        k_pp = np.array([[2.0]])
        y = np.array([1.5])
        noise = 0.5
        post = exact_posterior(k_dd, k_pd, k_pp, y, noise)
        assert post.mean[0] == pytest.approx(0.7 * 1.5 / (2.0 + 0.25), rel=1e-12)
        assert post.cov[0, 0] == pytest.approx(
            2.0 - 0.7**2 / (2.0 + 0.25) + 0.25, rel=1e-12
        )

    def test_posterior_contracts_prior(self):
        X_tr, X_pr, y, params = _random_problem(1)
        k_dd, k_pd, k_pp = kernel_blocks(X_tr, X_pr, params)
        post = exact_posterior(k_dd, k_pd, k_pp, y, params.noise_scale)
        prior_cov = k_pp + params.noise_scale**2 * np.eye(len(X_pr))
        gap_eigs = np.linalg.eigvalsh(prior_cov - post.cov)
        assert np.min(gap_eigs) > -1e-8
        assert_symmetric_psd(post.cov)

    def test_noise_required(self):
        with pytest.raises(ValueError):
            exact_posterior(np.eye(2), np.eye(2), np.eye(2), np.zeros(2), 0.0)


class TestApproxPosterior:
    def test_zero_features_degenerate(self):
        phi_d = np.zeros((3, 4))
        phi_p = np.zeros((3, 2))
        post = approx_posterior(phi_d, phi_p, np.ones(4), 0.7)
        assert np.array_equal(post.mean, np.zeros(2))
        assert np.allclose(post.cov, 0.49 * np.eye(2))

    def test_exact_cholesky_features_match_exact_posterior(self):
        X_tr, X_pr, y, params = _random_problem(2)
        k_dd, k_pd, k_pp = kernel_blocks(X_tr, X_pr, params)
        exact = exact_posterior(k_dd, k_pd, k_pp, y, params.noise_scale)
        X_joint = np.vstack([X_tr, X_pr])
        k_joint = gaussian_gram(X_joint, X_joint, params)
        n = k_joint.shape[0]
        root = np.linalg.cholesky(k_joint + 1e-12 * np.eye(n))
        phi = root.T
        approx = approx_posterior(
            phi[:, : len(X_tr)], phi[:, len(X_tr) :], y, params.noise_scale
        )
        assert np.max(np.abs(approx.mean - exact.mean)) < 1e-8
        assert np.max(np.abs(approx.cov - exact.cov)) < 1e-8

    def test_feature_and_kernel_space_agree(self):
        # Woodbury consistency for an arbitrary feature matrix
        rng = np.random.default_rng(3)
        phi_d = rng.standard_normal((6, 10))
        phi_p = rng.standard_normal((6, 4))
        y = rng.standard_normal(10)
        noise = 0.4
        feat = approx_posterior(phi_d, phi_p, y, noise)
        kern = exact_posterior(
            phi_d.T @ phi_d, phi_p.T @ phi_d, phi_p.T @ phi_p, y, noise
        )
        assert np.max(np.abs(feat.mean - kern.mean)) < 1e-8
        assert np.max(np.abs(feat.cov - kern.cov)) < 1e-8

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            approx_posterior(np.zeros((3, 4)), np.zeros((2, 4)), np.zeros(4), 0.5)


class TestEvidence:
    def test_scalar_closed_form(self):
        sv, sn = 1.3, 0.6
        _, _, val, _ = _evidence(np.array([[sv**2]]), np.array([0.0]), sn)
        assert val == pytest.approx(-0.5 * np.log(2 * np.pi * (sv**2 + sn**2)), rel=1e-10)

    def test_permutation_invariance(self):
        X_tr, _, y, params = _random_problem(4)
        k_dd = gaussian_gram(X_tr, X_tr, params)
        perm = np.random.default_rng(5).permutation(len(y))
        a = _evidence(k_dd, y, 0.3)[2]
        b = _evidence(k_dd[np.ix_(perm, perm)], y[perm], 0.3)[2]
        assert a == pytest.approx(b, rel=1e-10)
        assert a == pytest.approx(log_marginal_likelihood(k_dd, y, 0.3), rel=1e-10)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((10, 2))
        sq = np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=2)
        y = rng.standard_normal(10)
        log_params = np.array([0.2, -0.1, -1.0])
        _, grad = _evidence_and_grad(sq, y, log_params, None)
        h = 1e-5
        for i in range(3):
            up, dn = log_params.copy(), log_params.copy()
            up[i] += h
            dn[i] -= h
            fd = (
                _evidence_and_grad(sq, y, up, None)[0]
                - _evidence_and_grad(sq, y, dn, None)[0]
            ) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=0.01)


def _oracle_jittered_cho(mat):
    """Reference factorisation: cho_factor on the same jitter ladder."""
    n = mat.shape[0]
    base = max(np.trace(mat) / n, 1e-12)
    jitter = 0.0
    while True:
        try:
            return cho_factor(mat + jitter * np.eye(n), lower=True), jitter
        except LinAlgError:
            jitter = 1e-8 * base if jitter == 0.0 else jitter * 10.0
            if jitter > 1e-4 * base:
                raise NumericalError("not positive definite") from None


def _oracle_evidence_and_grad(sq, y, log_params, fixed_ls):
    """Reference evidence step: K^-1 from a solve against the identity and one
    dense dK/dtheta per parameter.  Also returns, per gradient entry, the
    magnitude of the terms its sum cancels, 1/2 (|a|^T |dK| |a| + sum|K^-1 o dK|)."""
    log_l, log_v, log_n = log_params
    if fixed_ls is not None:
        log_l = np.log(fixed_ls)
    ls, sv, sn = np.exp(log_l), np.exp(log_v), np.exp(log_n)
    n = y.size
    k = sv**2 * np.exp(-sq / (2 * ls**2))
    cho, _ = _oracle_jittered_cho(k + sn**2 * np.eye(n))
    alpha = cho_solve(cho, y)
    logdet = 2.0 * np.sum(np.log(np.diag(cho[0])))
    value = -0.5 * float(y @ alpha) - 0.5 * logdet - 0.5 * n * np.log(2 * np.pi)
    k_inv = cho_solve(cho, np.eye(n))
    grads, scales = [], []
    for dk in (k * sq / ls**2, 2.0 * k, 2.0 * sn**2 * np.eye(n)):
        grads.append(0.5 * float(alpha @ dk @ alpha) - 0.5 * float(np.sum(k_inv * dk)))
        scales.append(0.5 * float(np.abs(alpha) @ np.abs(dk) @ np.abs(alpha))
                      + 0.5 * float(np.sum(np.abs(k_inv * dk))))
    if fixed_ls is not None:
        grads[0] = 0.0
    return value, np.array(grads), np.array(scales)


def _sq_dists(X):
    return np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=2)


class TestEvidenceStepOracle:
    """The eq. 5.9 step against the reference step it replaced."""

    @pytest.mark.parametrize("fixed_ls", [None, 0.7])
    @pytest.mark.parametrize("n", [1, 2, 10, 64, 256])
    def test_matches_reference(self, n, fixed_ls):
        rng = np.random.default_rng(100 + n)
        sq = _sq_dists(rng.standard_normal((n, 3)))
        y = rng.standard_normal(n)
        log_params = np.array([0.3, 0.1, -1.5])
        value, grad = _evidence_and_grad(sq, y, log_params, fixed_ls)
        ref_value, ref_grad, _ = _oracle_evidence_and_grad(sq, y, log_params, fixed_ls)
        assert value == pytest.approx(ref_value, rel=1e-10)
        assert np.max(np.abs(grad - ref_grad)) <= 1e-10 * np.max(np.abs(ref_grad))
        if fixed_ls is not None:
            assert grad[0] == 0.0

    @pytest.mark.parametrize("log_l", [0.0, 1.0, 2.0])
    def test_near_singular_matches_reference(self, log_l, fixed_ls=None):
        # duplicated inputs and a 1e-9 noise scale: K + s_n^2 I is singular,
        # so the factor carries jitter and cond(K_y) >= 1e8.  Each gradient
        # entry then cancels terms ~1e8 times its size in both routes, so it
        # is compared relative to the magnitude of those terms
        rng = np.random.default_rng(5)
        sq = _sq_dists(np.repeat(rng.standard_normal((8, 2)), 2, axis=0))
        y = rng.standard_normal(16)
        log_params = np.array([log_l, 0.0, np.log(1e-9)])
        k = np.exp(-sq / (2 * np.exp(2 * log_l))) + 1e-18 * np.eye(16)
        assert _jittered_cho(k)[1] > 0.0
        value, grad = _evidence_and_grad(sq, y, log_params, fixed_ls)
        ref_value, ref_grad, scales = _oracle_evidence_and_grad(sq, y, log_params, fixed_ls)
        assert value == pytest.approx(ref_value, rel=1e-10)
        assert np.all(np.abs(grad - ref_grad) <= 1e-10 * scales)

    @pytest.mark.parametrize("log_l", [0.0, 1.0, 2.0])
    def test_near_singular_fixed_lengthscale_matches_reference(self, log_l):
        # rf-bench's rlf fit pins the lengthscale, which skips the K o D term
        self.test_near_singular_matches_reference(log_l, fixed_ls=np.exp(log_l))

    @pytest.mark.parametrize("noise", [1e-9, 0.5])
    def test_evidence_reports_applied_jitter(self, noise):
        # the scale gradients shift K_y by s_n^2 + jitter, so _evidence must
        # report the jitter of its factor: none at a healthy noise scale
        rng = np.random.default_rng(7)
        k = np.exp(-_sq_dists(np.repeat(rng.standard_normal((6, 2)), 2, axis=0)) / 2)
        cho, _, _, jitter = _evidence(k, rng.standard_normal(12), noise)
        ref_cho, ref_jitter = _jittered_cho(k + noise**2 * np.eye(12))
        assert jitter == ref_jitter and (jitter > 0.0) == (noise < 1e-3)
        assert np.array_equal(cho[0], ref_cho[0])


class TestJitteredCho:
    def test_factor_reproduces_matrix(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((20, 20))
        mat = a @ a.T + 0.5 * np.eye(20)
        (c, lower), jitter = _jittered_cho(mat)
        assert lower and jitter == 0.0
        assert np.array_equal(np.triu(c, 1), np.zeros((20, 20)))
        assert np.allclose(c @ c.T, mat, rtol=1e-12, atol=1e-12)
        assert np.array_equal(cho_solve((c, lower), mat[:, 0]),
                              cho_solve(_oracle_jittered_cho(mat)[0], mat[:, 0]))

    @pytest.mark.parametrize("rank", [1, 3, 5])
    def test_rank_deficient_jitter_as_reference(self, rank):
        rng = np.random.default_rng(rank)
        b = rng.standard_normal((10, rank))
        mat = b @ b.T
        (c, _), jitter = _jittered_cho(mat)
        (ref_c, _), ref_jitter = _oracle_jittered_cho(mat)
        assert jitter > 0.0 and jitter == ref_jitter
        assert np.array_equal(np.tril(c), np.tril(ref_c))
        assert np.allclose(c @ c.T, mat + jitter * np.eye(10), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("shift", [-1e-7, -1e-6])
    def test_later_rungs_as_reference(self, shift):
        # a negative eigenvalue needs jitter past the first rung
        mat = np.ones((4, 4)) + shift * np.eye(4)
        assert _jittered_cho(mat)[1] == _oracle_jittered_cho(mat)[1] > 1e-8

    def test_not_positive_definite(self):
        with pytest.raises(NumericalError):
            _jittered_cho(np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_raises_as_reference(self, bad):
        mat = np.eye(3)
        mat[1, 2] = mat[2, 1] = bad
        with pytest.raises(ValueError) as ref:
            _oracle_jittered_cho(mat)
        with pytest.raises(ValueError) as err:
            _jittered_cho(mat)
        assert str(err.value) == str(ref.value)


class TestFitHyperparams:
    def test_improves_evidence(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((40, 2))
        true = GaussianKernelParams(1.0, 1.0, 0.1)
        k = gaussian_gram(X, X, true) + 0.01 * np.eye(40)
        y = np.linalg.cholesky(k + 1e-10 * np.eye(40)) @ rng.standard_normal(40)
        init = GaussianKernelParams(3.0, 0.5, 0.5)
        fitted = fit_hyperparams(X, y, init, 300)
        before = log_marginal_likelihood(gaussian_gram(X, X, init), y, init.noise_scale)
        after = log_marginal_likelihood(
            gaussian_gram(X, X, fitted), y, fitted.noise_scale
        )
        assert after > before

    def test_training_cap(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((257, 2))
        y = rng.standard_normal(257)
        with pytest.raises(ValueError):
            fit_hyperparams(X, y, GaussianKernelParams(1.0), 1)

    def test_fixed_lengthscale_respected(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((20, 2))
        y = rng.standard_normal(20)
        fitted = fit_hyperparams(X, y, GaussianKernelParams(1.0, 1.0, 0.2), 50,
                                 fix_lengthscale=2.5)
        assert fitted.lengthscale == 2.5

    def test_step_bounds(self):
        X, y = np.zeros((2, 1)), np.zeros(2)
        with pytest.raises(ValueError, match=r"^steps must lie in \[1, 5000\], got 0$"):
            fit_hyperparams(X, y, GaussianKernelParams(1.0), 0)
        with pytest.raises(ValueError, match=r"^steps must lie in \[1, 5000\], got 5001$"):
            fit_hyperparams(X, y, GaussianKernelParams(1.0), 5001)


class TestGaussianKl:
    def test_identical_posteriors(self):
        X_tr, X_pr, y, params = _random_problem(10)
        k_dd, k_pd, k_pp = kernel_blocks(X_tr, X_pr, params)
        post = exact_posterior(k_dd, k_pd, k_pp, y, params.noise_scale)
        assert gaussian_kl(post, post) <= 1e-10

    def test_one_dimensional_closed_form(self):
        p = GaussianPosterior([0.0], [[1.0]])
        q = GaussianPosterior([1.0], [[1.0]])
        assert gaussian_kl(p, q) == pytest.approx(0.5, abs=1e-12)

    def test_nonnegative_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4))
            p = GaussianPosterior(rng.standard_normal(4), a @ a.T + 0.1 * np.eye(4))
            q = GaussianPosterior(rng.standard_normal(4), b @ b.T + 0.1 * np.eye(4))
            assert gaussian_kl(p, q) >= 0.0

    def test_unusable_covariance_raises(self):
        p = GaussianPosterior([0.0], [[1.0]])
        q = GaussianPosterior([0.0], [[-1.0]])
        with pytest.raises(NumericalError):
            gaussian_kl(p, q)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_kl(
                GaussianPosterior([0.0], [[1.0]]), GaussianPosterior([0.0, 0.0], np.eye(2))
            )
