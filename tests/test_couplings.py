"""Ensemble construction, marginal preservation, and copula machinery."""

import json
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln, xlogy

from otrf import couplings
from otrf.couplings import (
    CorrelationParams,
    CopulaOptConfig,
    CouplingSpec,
    _factor_grad,
    _open_unit,
    _rmse_loss_and_grad,
    build_ensemble,
    cholesky_from_params,
    optimize_copula,
    reference_coupling_loss,
    sample_norms,
    sample_orthogonal_directions,
)
from otrf.errors import FeatureOverflowError, NumericalError
from otrf.eucrf import (
    GaussianKernelParams,
    _exp_features,
    _feature_matrix,
    _trig_features,
    gaussian_gram,
    gram_estimate,
    relative_rmse,
)
from otrf.mathcore import ChiParams, _adam, chi_cdf, chi_inv_cdf, gauss_cdf, gauss_inv_cdf


class TestOrthogonalDirections:
    def test_one_dimensional(self):
        rng = np.random.default_rng(0)
        vals = [sample_orthogonal_directions(1, 1, rng)[0, 0] for _ in range(50)]
        assert set(np.round(vals, 12)) <= {1.0, -1.0}
        assert len(set(np.sign(vals))) == 2  # both signs appear

    def test_gram_identity(self):
        dirs = sample_orthogonal_directions(8, 8, np.random.default_rng(1))
        assert np.max(np.abs(dirs @ dirs.T - np.eye(8))) < 1e-10

    def test_too_many_raises(self):
        with pytest.raises(ValueError):
            sample_orthogonal_directions(3, 4, np.random.default_rng(0))

    def test_marginal_matches_sphere_oracle(self):
        # oracle: first coordinate of a normalised Gaussian vector
        rng = np.random.default_rng(2)
        d, n = 4, 20_000
        ours = np.array(
            [sample_orthogonal_directions(d, d, rng)[0, 0] for _ in range(n)]
        )
        g = rng.standard_normal((n, d))
        oracle = g[:, 0] / np.linalg.norm(g, axis=1)
        assert stats.ks_2samp(ours, oracle).pvalue > 0.01


class TestNorms:
    def test_pnc_identity_every_pair(self):
        rng = np.random.default_rng(3)
        chi = ChiParams(8)
        for _ in range(200):
            norms = sample_norms(8, 8, "orthogonal_pnc", rng)
            f = chi_cdf(norms, chi)
            sums = f[0::2] + f[1::2]
            assert np.max(np.abs(sums - 1.0)) < 1e-9

    def test_pnc_median_pair_value(self):
        # at u = 1/2 both pair members sit at the Rayleigh median
        from otrf.mathcore import chi_inv_cdf

        val = chi_inv_cdf(0.5, ChiParams(2))
        assert abs(val - 1.17741) < 1e-5

    def test_pnc_odd_count_leaves_last_free(self):
        rng = np.random.default_rng(4)
        norms = sample_norms(5, 4, "orthogonal_pnc", rng)
        f = chi_cdf(norms, ChiParams(4))
        assert np.max(np.abs(f[0:4:2] + f[1:4:2] - 1.0)) < 1e-9

    def test_pnc_marginal_ks(self):
        rng = np.random.default_rng(5)
        samples = sample_norms(100_000, 8, "orthogonal_pnc", rng)
        res = stats.kstest(samples, lambda x: chi_cdf(x, ChiParams(8)))
        assert res.pvalue > 0.01

    def test_positive_monotone_blocks_equal(self):
        rng = np.random.default_rng(6)
        norms = sample_norms(8, 4, "positive_monotone", rng)
        assert np.all(norms[:4] == norms[0])
        assert np.all(norms[4:] == norms[4])
        assert norms[0] != norms[4]


class TestCholeskyParams:
    def test_zero_theta_gives_identity(self):
        params = CorrelationParams(3, np.zeros(3))
        L = cholesky_from_params(params)
        assert np.array_equal(L, np.eye(3))

    def test_two_by_two_value(self):
        L = cholesky_from_params(CorrelationParams(2, np.array([1.0])))
        assert np.allclose(L[1], [1 / np.sqrt(2), 1 / np.sqrt(2)])
        sigma = L @ L.T
        assert abs(sigma[0, 1] - 0.70711) < 1e-5

    def test_random_theta_correlation_matrix(self):
        rng = np.random.default_rng(7)
        for m in (2, 4, 7):
            theta = CorrelationParams(m, rng.standard_normal(m * (m - 1) // 2))
            sigma = cholesky_from_params(theta) @ cholesky_from_params(theta).T
            assert np.max(np.abs(np.diag(sigma) - 1.0)) < 1e-12
            assert np.min(np.linalg.eigvalsh(sigma)) > -1e-12

    def test_json_round_trip(self):
        params = CorrelationParams(4, np.array([0.5, -1.0, 2.0, 0.1, 0.2, -0.3]))
        back = CorrelationParams.from_json(params.to_json())
        assert back.m == 4
        assert np.array_equal(back.theta, params.theta)
        assert json.loads(params.to_json()) == list(params.theta)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            CorrelationParams(3, np.zeros(2))


class TestCopulaNorms:
    def test_independence_is_identity_factor(self):
        L = cholesky_from_params(CorrelationParams(4, np.zeros(6)))
        assert np.array_equal(L, np.eye(4))

    def test_strong_negative_correlation_recovers_pnc(self):
        rng = np.random.default_rng(8)
        theta = CorrelationParams(2, np.array([-1e8]))
        chi = ChiParams(4)
        for _ in range(100):
            w = sample_norms(2, 4, CouplingSpec("copula", theta), rng)
            assert abs(chi_cdf(w[0], chi) + chi_cdf(w[1], chi) - 1.0) < 1e-3

    def test_marginals_ks_any_theta(self):
        rng = np.random.default_rng(9)
        theta = CorrelationParams(3, np.array([2.0, -1.5, 0.7]))
        chi = ChiParams(4)
        spec = CouplingSpec("copula", theta)
        samples = np.array([sample_norms(3, 4, spec, rng) for _ in range(30_000)])
        for col in range(3):
            assert stats.kstest(samples[:, col], lambda x: chi_cdf(x, chi)).pvalue > 0.01


class TestBuildEnsemble:
    def test_antithetic_mirror_exact(self):
        freqs = build_ensemble(16, 8, "orthogonal_pnc_antithetic", np.random.default_rng(10))
        assert np.array_equal(freqs[8:], -freqs[:8])

    def test_iid_sample_covariance(self):
        freqs = build_ensemble(100_000, 2, "iid", np.random.default_rng(11))
        cov = freqs.T @ freqs / len(freqs)
        assert np.max(np.abs(cov - np.eye(2))) < 0.02

    def test_halton_unshifted_values(self):
        freqs = build_ensemble(4, 1, "halton", None)
        expected = [gauss_inv_cdf(u) for u in (1 / 2, 1 / 4, 3 / 4, 1 / 8)]
        assert np.allclose(freqs.ravel(), expected)

    def test_halton_shifted_marginals(self):
        freqs = build_ensemble(20_000, 2, "halton", np.random.default_rng(12))
        for col in range(2):
            assert stats.kstest(freqs[:, col], "norm").pvalue > 0.01

    def test_orthogonal_block_structure(self):
        freqs = build_ensemble(8, 4, "orthogonal", np.random.default_rng(13))
        for block in (freqs[:4], freqs[4:]):
            gram = block @ block.T
            off = gram - np.diag(np.diag(gram))
            assert np.max(np.abs(off)) < 1e-9 * np.max(np.diag(gram))

    def test_incompatible_sizes_raise(self):
        with pytest.raises(ValueError):
            build_ensemble(6, 4, "orthogonal", np.random.default_rng(0))
        with pytest.raises(ValueError):
            build_ensemble(4, 4, "orthogonal_pnc_antithetic", np.random.default_rng(0))

    @pytest.mark.parametrize("tag", ["orthogonal", "orthogonal_pnc", "positive_monotone"])
    def test_coordinate_marginals_gaussian(self, tag):
        freqs = np.vstack(
            [
                build_ensemble(4, 4, tag, np.random.default_rng((14, i)))
                for i in range(6000)
            ]
        )
        assert stats.kstest(freqs[:, 1], "norm").pvalue > 0.01

    def test_copula_spec_round_trip(self):
        params = CorrelationParams(4, np.full(6, -0.5))
        freqs = build_ensemble(4, 4, CouplingSpec("copula", params), np.random.default_rng(15))
        assert freqs.shape == (4, 4)
        with pytest.raises(ValueError):
            build_ensemble(8, 4, CouplingSpec("copula", params), np.random.default_rng(0))

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            build_ensemble(4, 4, "bogus", np.random.default_rng(0))

    # m = 0 or d = 0 used to return an empty ensemble
    @pytest.mark.parametrize("tag", ["iid", "halton", "orthogonal"])
    def test_zero_frequencies_rejected(self, tag):
        with pytest.raises(ValueError, match=r"^m must lie in \[1, inf\), got 0$"):
            build_ensemble(0, 4, tag, np.random.default_rng(0))

    @pytest.mark.parametrize("tag", ["iid", "halton", "orthogonal"])
    def test_zero_dimensions_rejected(self, tag):
        with pytest.raises(ValueError, match=r"^d must lie in \[1, inf\), got 0$"):
            build_ensemble(4, 0, tag, np.random.default_rng(0))


_BATCHED_TAGS = (
    "iid", "halton", "orthogonal", "orthogonal_pnc", "orthogonal_pnc_antithetic",
    "positive_monotone",
)


def _trial_rngs(seed, count):
    return [np.random.default_rng((seed, i)) for i in range(count)]


class TestTrialLists:
    """A list of T generators gives T blocks, block i bit-identical to
    generator i's own call."""

    @pytest.mark.parametrize(
        "tag, blocks",
        [(t, k) for t in _BATCHED_TAGS for k in (1, 2) if k == 2 or "antithetic" not in t],
    )
    def test_build_ensemble(self, tag, blocks):
        d = 3
        ensembles = build_ensemble(blocks * d, d, tag, _trial_rngs(20, 5))
        assert len(ensembles) == 5
        for freqs, rng in zip(ensembles, _trial_rngs(20, 5)):
            assert np.array_equal(freqs, build_ensemble(blocks * d, d, tag, rng))

    @pytest.mark.parametrize("m", [2, 6])
    def test_build_ensemble_copula(self, m):
        # d = 3: m = 2 takes one short direction block, m = 6 two full ones
        theta = np.random.default_rng(23).standard_normal(m * (m - 1) // 2)
        spec = CouplingSpec("copula", CorrelationParams(m, theta))
        ensembles = build_ensemble(m, 3, spec, _trial_rngs(23, 4))
        assert len(ensembles) == 4
        for freqs, rng in zip(ensembles, _trial_rngs(23, 4)):
            assert np.array_equal(freqs, build_ensemble(m, 3, spec, rng))

    @pytest.mark.parametrize("count", [3, 7])
    @pytest.mark.parametrize("tag", ["iid", "orthogonal_pnc", "positive_monotone"])
    def test_sample_norms(self, tag, count):
        norms = sample_norms(count, 3, tag, _trial_rngs(21, 4))
        singles = [sample_norms(count, 3, tag, rng) for rng in _trial_rngs(21, 4)]
        assert np.array_equal(norms, np.concatenate(singles))

    @pytest.mark.parametrize("count", [2, 3])
    def test_sample_orthogonal_directions(self, count):
        dirs = sample_orthogonal_directions(3, count, _trial_rngs(22, 4))
        singles = [sample_orthogonal_directions(3, count, rng) for rng in _trial_rngs(22, 4)]
        assert np.array_equal(dirs, np.vstack(singles))


class TestCopulaLoss:
    def setup_method(self):
        self.kernel = GaussianKernelParams(1.0)
        self.theta = CorrelationParams(2, np.array([0.3]))

    def test_origin_dataset_rlf_loss_zero(self):
        # exact at the origin for every draw, up to float roundoff
        data = np.zeros((1, 2))
        assert _rmse_loss_and_grad(self.theta.theta, data, self.kernel, "rlf", 4, 0)[0] < 1e-12

    def test_exact_draw_adds_no_gradient(self):
        # at m = 4 rff features reproduce the kernel at one point exactly:
        # every draw's RMSE is 0, and its gradient is skipped, not 0 / 0
        theta = np.random.default_rng(15).standard_normal(6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grad = _rmse_loss_and_grad(theta, np.zeros((1, 4)), self.kernel, "rff", 2, 0)
        assert loss == 0.0 and np.array_equal(grad, np.zeros(6))

    def test_rlf_overflow_raises_feature_overflow(self):
        # rows +-e1 at lengthscale 1e-4 put some exp argument far past 700
        data = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(FeatureOverflowError) as err:
            _rmse_loss_and_grad(self.theta.theta, data, GaussianKernelParams(1e-4), "rlf", 1, 0)
        assert isinstance(err.value, NumericalError)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(16)
        data = rng.standard_normal((6, 2))
        a = _rmse_loss_and_grad(self.theta.theta, data, self.kernel, "rff", 3, 77)
        b = _rmse_loss_and_grad(self.theta.theta, data, self.kernel, "rff", 3, 77)
        assert a[0] == b[0] and np.array_equal(a[1], b[1])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(17)
        data = rng.standard_normal((6, 2))
        a = _rmse_loss_and_grad(self.theta.theta, data, self.kernel, "rff", 3, 5)[0]
        b = _rmse_loss_and_grad(self.theta.theta, data[::-1].copy(), self.kernel, "rff", 3, 5)[0]
        assert abs(a - b) < 1e-12

    def test_independence_matches_orthogonal_reference(self):
        rng = np.random.default_rng(18)
        data = rng.standard_normal((10, 3))
        theta0 = np.zeros(3)  # the independence copula at m = 3
        # both estimators target the same expectation; compare with MC errors
        losses_a = [
            _rmse_loss_and_grad(theta0, data, self.kernel, "rff", 40, seed)[0]
            for seed in range(20)
        ]
        losses_b = [
            reference_coupling_loss(
                "orthogonal", 3, data, self.kernel, "rff", 40, np.random.default_rng(seed)
            )
            for seed in range(20)
        ]
        mean_a, mean_b = np.mean(losses_a), np.mean(losses_b)
        se = np.hypot(np.std(losses_a, ddof=1), np.std(losses_b, ddof=1)) / np.sqrt(20)
        assert abs(mean_a - mean_b) < 2 * se

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            _rmse_loss_and_grad(self.theta.theta, np.zeros((0, 2)), self.kernel, "rff", 1, 0)
        with pytest.raises(ValueError, match="nonempty dataset"):
            reference_coupling_loss("orthogonal", 2, np.zeros((0, 2)), self.kernel, "rff", 1, 0)

    def test_zero_mc_samples_rejected(self):
        data = np.ones((3, 2))
        with pytest.raises(ValueError, match="mc_samples"):
            _rmse_loss_and_grad(self.theta.theta, data, self.kernel, "rff", 0, 0)
        with pytest.raises(ValueError, match="mc_samples"):
            reference_coupling_loss("orthogonal", 2, data, self.kernel, "rff", 0, 0)
        with pytest.raises(ValueError, match="mc_samples"):
            optimize_copula(data, self.kernel, "rff", CopulaOptConfig(mc_samples=0), 0)


# Oracles for the draw-then-map layer: the per-sample code it replaced, where
# each norm scheme called the chi_d quantile on its own uniforms and every
# sample or Monte Carlo draw was mapped before the next one was drawn.


def _norms_oracle(count, d, spec, rng):
    chi = ChiParams(d)
    if spec.tag in ("iid", "halton", "orthogonal"):
        return chi_inv_cdf(_open_unit(rng, count), chi)
    if spec.tag == "positive_monotone":
        u = np.array([_open_unit(rng, 1)[0] for _ in range(0, count, d)])
        return np.repeat(chi_inv_cdf(u, chi), d)[:count]
    if spec.tag == "copula":
        g = cholesky_from_params(spec.params) @ rng.standard_normal(count)
        return chi_inv_cdf(np.clip(gauss_cdf(g), 1e-300, 1.0 - 1e-16), chi)
    out, pairs = np.empty(count), count // 2
    if pairs:
        u = _open_unit(rng, pairs)
        out[0 : 2 * pairs : 2] = chi_inv_cdf(u, chi)
        out[1 : 2 * pairs : 2] = chi_inv_cdf(1.0 - u, chi)
    if count % 2:
        out[-1] = chi_inv_cdf(_open_unit(rng, 1), chi)[0]
    return out


def _directions_oracle(m, d, rng):
    blocks = [sample_orthogonal_directions(d, min(left, d), rng) for left in range(m, 0, -d)]
    return np.vstack(blocks)


def _reference_loss_oracle(spec, m, data, kernel, featurizer, mc_samples, rng):
    k_exact = gaussian_gram(data, data, kernel)
    total = 0.0
    for _ in range(mc_samples):
        dirs = _directions_oracle(m, data.shape[1], rng)
        freqs = _norms_oracle(m, data.shape[1], spec, rng)[:, None] * dirs
        phi = _feature_matrix(featurizer, data, freqs, kernel)
        total += relative_rmse(gram_estimate(phi), k_exact)
    return total / mc_samples


def _rmse_loss_and_grad_oracle(theta, data, kernel, featurizer, mc_samples, seed):
    n, d = data.shape
    m = int(round((1 + np.sqrt(1 + 8 * theta.size)) / 2))
    rng = np.random.default_rng(seed)
    k_exact = gaussian_gram(data, data, kernel)
    x_scaled = data / kernel.lengthscale
    sq = np.sum(x_scaled**2, axis=1)[None, :]
    scale = kernel.output_scale / np.sqrt(m)
    log_norm = (d / 2 - 1) * np.log(2.0) + gammaln(d / 2) - 0.5 * np.log(2 * np.pi)
    L = cholesky_from_params(CorrelationParams(m, theta))
    loss, grad_L = 0.0, np.zeros((m, m))
    for _ in range(mc_samples):
        dirs = _directions_oracle(m, d, rng)
        z = rng.standard_normal(m)
        g = L @ z
        p = gauss_cdf(g)
        u = np.clip(p, 1e-300, 1.0 - 1e-16)
        norms = chi_inv_cdf(u, ChiParams(d))
        proj = dirs @ x_scaled.T
        args = norms[:, None] * proj
        if featurizer == "rff":
            phi = _trig_features(args, scale)
        else:
            phi = _exp_features(args, sq, scale)
        resid = phi.T @ phi - k_exact
        rmse = np.sqrt(np.mean(resid**2))
        loss += rmse
        grad_phi = (2.0 / (n * n * rmse)) * (phi @ resid)
        if featurizer == "rff":
            grad_args = grad_phi[:m] * phi[m:] - grad_phi[m:] * phi[:m]
        else:
            grad_args = grad_phi * phi
        grad_norms = np.sum(grad_args * proj, axis=1)
        log_dw_dg = log_norm - 0.5 * g**2 - xlogy(d - 1, norms) + 0.5 * norms**2
        grad_L += np.outer(grad_norms * np.where(u == p, np.exp(log_dw_dg), 0.0), z)
    return loss / mc_samples, _factor_grad(L, grad_L) / mc_samples


class TestDrawThenMap:
    """Drawing every sample first and mapping them together gives the
    per-sample oracles' values bit for bit."""

    def setup_method(self):
        self.data = np.random.default_rng(30).standard_normal((10, 4)) * 0.6
        self.kernel = GaussianKernelParams(1.7, 1.2)

    @pytest.mark.parametrize(
        "tag, m",
        [("iid", 4), ("orthogonal", 4), ("orthogonal_pnc", 3), ("orthogonal_pnc", 8),
         ("positive_monotone", 4), ("copula", 3), ("copula", 8)],
    )
    @pytest.mark.parametrize("featurizer", ["rff", "rlf"])
    @pytest.mark.parametrize("chunk", [None, 2])
    def test_reference_loss_matches_per_sample_loop(self, tag, m, featurizer, chunk, monkeypatch):
        # chunk = 2 caps each mapping call at two ensembles, so the seven
        # ensembles run in chunks of 2, 2, 2 and 1
        if chunk:
            monkeypatch.setattr(couplings, "_CHUNK_FREQS", chunk * m * 4)
        theta = np.random.default_rng(m).standard_normal(m * (m - 1) // 2)
        spec = CouplingSpec(tag, CorrelationParams(m, theta) if tag == "copula" else None)
        args = (m, self.data, self.kernel, featurizer, 7)
        loss = reference_coupling_loss(spec, *args, np.random.default_rng(31))
        assert loss == _reference_loss_oracle(spec, *args, np.random.default_rng(31))

    @pytest.mark.parametrize("m", [4, 8])
    @pytest.mark.parametrize("featurizer", ["rff", "rlf"])
    @pytest.mark.parametrize("mc_samples", [1, 3])
    def test_rmse_loss_and_grad_match_per_draw_loop(self, m, featurizer, mc_samples):
        theta = np.random.default_rng(32 + m).standard_normal(m * (m - 1) // 2)
        args = (theta, self.data, self.kernel, featurizer, mc_samples, 33)
        loss, grad = couplings._rmse_loss_and_grad(*args)
        expected_loss, expected_grad = _rmse_loss_and_grad_oracle(*args)
        assert loss == expected_loss
        assert np.array_equal(grad, expected_grad)

    @pytest.mark.parametrize("count", [1, 4, 7])
    @pytest.mark.parametrize("tag", _BATCHED_TAGS)
    def test_sample_norms_match_per_scheme_calls(self, tag, count):
        spec = CouplingSpec(tag)
        norms = sample_norms(count, 3, spec, np.random.default_rng(34))
        assert np.array_equal(norms, _norms_oracle(count, 3, spec, np.random.default_rng(34)))


class TestDrawAhead:
    """optimize_copula, drawing the noise of several steps at a time, gives
    the trace and parameters of Adam on one per-step loss call a step."""

    @pytest.mark.parametrize("featurizer", ["rff", "rlf"])
    @pytest.mark.parametrize("mc_samples", [1, 3])
    @pytest.mark.parametrize("m", [3, 6])  # d = 3: m = 6 takes two direction blocks
    @pytest.mark.parametrize("block", [None, 2])
    def test_trace_matches_per_step_losses(self, featurizer, mc_samples, m, block, monkeypatch):
        # block = 2 draws two steps ahead: seven steps span four blocks
        data = np.random.default_rng(42).standard_normal((10, 3)) * 0.6
        kernel = GaussianKernelParams(1.7, 1.2)
        if block:
            monkeypatch.setattr(couplings, "_CHUNK_FREQS", block * mc_samples * m * len(data))
        cfg = CopulaOptConfig(steps=7, lr=0.05, mc_samples=mc_samples, m=m)
        params, trace = optimize_copula(data, kernel, featurizer, cfg, np.random.default_rng(43))

        seeds = np.random.default_rng(43).integers(2**63, size=7)
        expected = np.empty(7)

        def grad_at(t, x):
            expected[t], grad = _rmse_loss_and_grad(
                x, data, kernel, featurizer, mc_samples, int(seeds[t])
            )
            return grad

        theta = _adam(grad_at, CorrelationParams.near_independence(m).theta, 7, 0.05)
        assert np.array_equal(trace, expected)
        assert np.array_equal(params.theta, theta)

    def test_unknown_featurizer_refused_before_any_step(self):
        with pytest.raises(ValueError, match="featurizer must be 'rff' or 'rlf'"):
            optimize_copula(np.ones((3, 2)), GaussianKernelParams(1.0), "bogus",
                            CopulaOptConfig(steps=0), 0)


class TestOptimizeCopula:
    def test_zero_steps_returns_init(self):
        rng = np.random.default_rng(19)
        data = rng.standard_normal((5, 2))
        cfg = CopulaOptConfig(steps=0, m=2)
        params, _ = optimize_copula(data, GaussianKernelParams(1.0), "rff", cfg, rng)
        assert np.array_equal(params.theta, CorrelationParams.near_independence(2).theta)

    @pytest.mark.parametrize("featurizer", ["rff", "rlf"])
    @pytest.mark.parametrize("m", [3, 8])
    def test_gradient_matches_central_difference(self, featurizer, m):
        # the pathwise gradient against a central difference of the loss
        # with the same seed (common random numbers), at m = d
        rng = np.random.default_rng(20 + m)
        data = rng.standard_normal((12, m)) * (0.4 if featurizer == "rlf" else 1.0)
        kernel = GaussianKernelParams(1.5 * np.sqrt(m))
        theta = rng.standard_normal(m * (m - 1) // 2) * 0.5
        seed, h = 99, 1e-5

        def loss_at(t):
            return _rmse_loss_and_grad(t, data, kernel, featurizer, 4, seed)[0]

        grad = _rmse_loss_and_grad(theta, data, kernel, featurizer, 4, seed)[1]
        central = np.array(
            [(loss_at(theta + h * e) - loss_at(theta - h * e)) / (2 * h) for e in np.eye(theta.size)]
        )
        assert np.linalg.norm(grad - central) <= 1e-4 * np.linalg.norm(central)

    def test_loss_trace_recorded_and_finite(self):
        rng = np.random.default_rng(22)
        data = rng.standard_normal((6, 2))
        cfg = CopulaOptConfig(steps=25, m=2, mc_samples=2)
        _, loss_trace = optimize_copula(data, GaussianKernelParams(1.0), "rff", cfg, rng)
        assert loss_trace.shape == (25,)
        assert np.all(np.isfinite(loss_trace))
