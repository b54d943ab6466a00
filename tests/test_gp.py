"""Posterior algebra, evidence, hyperparameter fitting and KL divergence."""

import numpy as np
import pytest

from otrf.errors import NumericalError
from otrf.eucrf import GaussianKernelParams, gaussian_gram
from otrf.gp import (
    GaussianPosterior,
    GPFitConfig,
    RegressionData,
    approx_posterior,
    exact_posterior,
    fit_hyperparams,
    gaussian_kl,
    kernel_blocks,
    log_marginal_likelihood,
)


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
        post.validate()

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
        val = log_marginal_likelihood(np.array([[sv**2]]), np.array([0.0]), sn)
        assert val == pytest.approx(-0.5 * np.log(2 * np.pi * (sv**2 + sn**2)), rel=1e-10)

    def test_permutation_invariance(self):
        X_tr, _, y, params = _random_problem(4)
        k_dd = gaussian_gram(X_tr, X_tr, params)
        perm = np.random.default_rng(5).permutation(len(y))
        a = log_marginal_likelihood(k_dd, y, 0.3)
        b = log_marginal_likelihood(k_dd[np.ix_(perm, perm)], y[perm], 0.3)
        assert a == pytest.approx(b, rel=1e-10)

    def test_gradient_against_finite_differences(self):
        from otrf.gp import _evidence_and_grad

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


class TestFitHyperparams:
    def test_improves_evidence(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((40, 2))
        true = GaussianKernelParams(1.0, 1.0, 0.1)
        k = gaussian_gram(X, X, true) + 0.01 * np.eye(40)
        y = np.linalg.cholesky(k + 1e-10 * np.eye(40)) @ rng.standard_normal(40)
        data = RegressionData(X, y, X[:1])
        init = GaussianKernelParams(3.0, 0.5, 0.5)
        fitted = fit_hyperparams(data, init, GPFitConfig(steps=300))
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
            fit_hyperparams(
                RegressionData(X, y, X[:1]), GaussianKernelParams(1.0), GPFitConfig(steps=1)
            )

    def test_fixed_lengthscale_respected(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((20, 2))
        y = rng.standard_normal(20)
        fitted = fit_hyperparams(
            RegressionData(X, y, X[:1]),
            GaussianKernelParams(1.0, 1.0, 0.2),
            GPFitConfig(steps=50, fix_lengthscale=2.5),
        )
        assert fitted.lengthscale == 2.5

    def test_step_bounds(self):
        with pytest.raises(ValueError):
            GPFitConfig(steps=0)
        with pytest.raises(ValueError):
            GPFitConfig(steps=5001)


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

    def test_per_datapoint_normalization(self):
        p = GaussianPosterior(np.zeros(4), np.eye(4))
        q = GaussianPosterior(np.ones(4), np.eye(4))
        assert gaussian_kl(p, q, per_datapoint=True) == pytest.approx(
            gaussian_kl(p, q) / 4
        )

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
