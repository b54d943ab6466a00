"""Feature maps, kernel metrics, pair cost series and attention."""

import numpy as np
import pytest
from scipy.special import gamma, i0, j0

from otrf import eucrf
from otrf.couplings import build_ensemble
from otrf.errors import FeatureOverflowError, NumericalError
from otrf.eucrf import (
    GaussianKernelParams,
    attention_estimate,
    attention_exact,
    cost_rff,
    cost_rlf,
    gaussian_gram,
    gaussian_kernel,
    gram_estimate,
    relative_rmse,
    rff_feature_matrix,
    rff_features,
    rlf_feature_matrix,
    rlf_features,
    rlf_lengthscale_heuristic,
)


class TestGaussianKernel:
    def test_zero_distance(self):
        p = GaussianKernelParams(2.0, output_scale=1.5)
        x = np.ones(3)
        assert gaussian_kernel(x, x, p) == 1.5**2

    def test_direct_formula(self):
        p = GaussianKernelParams(1.0)
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])  # squared distance 2
        assert gaussian_kernel(x, y, p) == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        p = GaussianKernelParams(0.7, 1.2)
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        assert gaussian_kernel(x, y, p) == gaussian_kernel(y, x, p)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_kernel(np.zeros(2), np.zeros(3), GaussianKernelParams(1.0))

    def test_gram_matches_pointwise(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((5, 3))
        p = GaussianKernelParams(1.3, 0.9)
        K = gaussian_gram(X, X, p)
        for i in range(5):
            for j in range(5):
                assert K[i, j] == pytest.approx(gaussian_kernel(X[i], X[j], p), abs=1e-12)


class TestRffFeatures:
    def test_zero_input_single_frequency(self):
        ens = build_ensemble(1, 3, "iid", np.random.default_rng(2))
        p = GaussianKernelParams(1.0, output_scale=1.7)
        phi = rff_features(np.zeros(3), ens, p)
        assert np.allclose(phi, [0.0, 1.7])

    def test_self_dot_is_output_scale_sq(self):
        rng = np.random.default_rng(3)
        ens = build_ensemble(8, 4, "orthogonal", rng)
        p = GaussianKernelParams(0.8, output_scale=2.0)
        for _ in range(10):
            x = rng.standard_normal(4)
            phi = rff_features(x, ens, p)
            assert phi @ phi == pytest.approx(4.0, abs=1e-10)

    def test_unbiased_over_iid_ensembles(self):
        rng = np.random.default_rng(4)
        d, m, trials = 3, 4, 20_000
        p = GaussianKernelParams(1.0)
        x, y = rng.standard_normal(d), rng.standard_normal(d)
        freqs = rng.standard_normal((trials, m, d))
        args_x = freqs @ x
        args_y = freqs @ y
        phi_x = np.concatenate([np.sin(args_x), np.cos(args_x)], axis=1) / np.sqrt(m)
        phi_y = np.concatenate([np.sin(args_y), np.cos(args_y)], axis=1) / np.sqrt(m)
        ests = np.sum(phi_x * phi_y, axis=1)
        se = ests.std(ddof=1) / np.sqrt(trials)
        assert abs(ests.mean() - gaussian_kernel(x, y, p)) < 3 * se

    def test_matrix_matches_per_point(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((6, 3))
        ens = build_ensemble(2, 3, "iid", rng)
        p = GaussianKernelParams(1.4, 1.1)
        mat = rff_feature_matrix(X, ens, p)
        # a one-column and a six-column matrix product may round differently
        # in the last bit, so equality is to 1e-14
        for j in range(6):
            assert np.allclose(mat[:, j], rff_features(X[j], ens, p), rtol=0, atol=1e-14)


class TestRlfFeatures:
    def test_zero_input(self):
        ens = build_ensemble(4, 2, "iid", np.random.default_rng(6))
        phi = rlf_features(np.zeros(2), ens, GaussianKernelParams(1.0))
        assert np.allclose(phi, 0.5)  # 1/sqrt(m)
        assert phi @ phi == pytest.approx(1.0, abs=1e-12)

    def test_strict_positivity(self):
        rng = np.random.default_rng(7)
        ens = build_ensemble(6, 3, "iid", rng)
        X = rng.standard_normal((10, 3))
        mat = rlf_feature_matrix(X, ens, GaussianKernelParams(2.0))
        assert np.all(mat > 0)
        assert np.all(gram_estimate(mat) > 0)

    def test_unbiased_over_iid_ensembles(self):
        rng = np.random.default_rng(8)
        d, m, trials = 3, 4, 40_000
        x, y = rng.standard_normal(d) * 0.4, rng.standard_normal(d) * 0.4
        p = GaussianKernelParams(1.0)
        freqs = rng.standard_normal((trials, m, d))
        pre = np.exp(-x @ x - y @ y)
        ests = pre * np.mean(np.exp(freqs @ (x + y)), axis=1)
        se = ests.std(ddof=1) / np.sqrt(trials)
        assert abs(ests.mean() - gaussian_kernel(x, y, p)) < 3 * se

    def test_overflow_flagged(self):
        ens_like = np.full((1, 1), 800.0)
        with pytest.raises(FeatureOverflowError):
            rlf_features(np.ones(1), ens_like, GaussianKernelParams(1.0))

    def test_lengthscale_heuristic(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        norms = [
            np.linalg.norm(X[i] + X[j]) for i in range(2) for j in range(2)
        ]
        assert rlf_lengthscale_heuristic(X) == pytest.approx(2 * np.mean(norms))


class TestGramMetrics:
    def test_cholesky_features_reproduce_kernel(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((6, 2))
        K = gaussian_gram(X, X, GaussianKernelParams(1.0))
        R = np.linalg.cholesky(K + 1e-12 * np.eye(6))
        assert relative_rmse(gram_estimate(R.T), K) < 1e-7

    def test_gram_symmetric_psd(self):
        rng = np.random.default_rng(10)
        phi = rng.standard_normal((4, 7))
        K = gram_estimate(phi)
        assert np.allclose(K, K.T)
        assert np.min(np.linalg.eigvalsh(K)) > -1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            relative_rmse(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("spoil", [None, np.nan, np.inf])
    @pytest.mark.parametrize("shape", [(1,), (7, 7), (64, 64), (3, 5, 4)])
    def test_rmse_bit_for_bit_as_mean(self, shape, spoil):
        rng = np.random.default_rng(sum(shape))
        a, b = rng.standard_normal(shape), rng.standard_normal(shape)
        if spoil is not None:
            a.flat[-1] = spoil
        want = np.sqrt(np.mean((a - b) ** 2))
        a_before, b_before = a.copy(), b.copy()
        got = relative_rmse(a, b)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(a, a_before, equal_nan=True) and np.array_equal(b, b_before)


class TestStackedMaps:
    """A (T, m, d) stack of ensembles gives, slice for slice, the bits of
    the per-ensemble calls."""

    def setup_method(self):
        rng = np.random.default_rng(40)
        self.X = rng.standard_normal((12, 3)) * 0.5
        self.params = GaussianKernelParams(1.3, 1.1)
        self.k_exact = gaussian_gram(self.X, self.X, self.params)
        self.freqs = build_ensemble(4, 3, "iid", [np.random.default_rng(41 + i) for i in range(7)])

    @pytest.mark.parametrize("trials", [1, 7])
    @pytest.mark.parametrize("feature_matrix", [rff_feature_matrix, rlf_feature_matrix])
    def test_stack_matches_per_ensemble_calls(self, feature_matrix, trials):
        freqs = self.freqs[:trials]
        phi = feature_matrix(self.X, freqs, self.params)
        grams = gram_estimate(phi)
        rmses = relative_rmse(grams, self.k_exact)
        assert phi.shape[0] == grams.shape[0] == rmses.shape[0] == trials
        for i, f in enumerate(freqs):
            one = feature_matrix(self.X, f, self.params)
            assert np.array_equal(phi[i], one)
            assert np.array_equal(grams[i], gram_estimate(one))
            assert rmses[i] == relative_rmse(gram_estimate(one), self.k_exact)

    @pytest.mark.parametrize("trials", [1, 7])
    @pytest.mark.parametrize("featurizer", ["rff", "rlf"])
    def test_sub_stacks_match_per_ensemble_calls(self, featurizer, trials, monkeypatch):
        # three Grams per sub-stack: seven ensembles run as 3, 3 and 1
        monkeypatch.setattr(eucrf, "_CHUNK_GRAM", 3 * 12 * 12)
        freqs = self.freqs[:trials]
        got = eucrf._stacked_rmses(featurizer, self.X, freqs, self.params, self.k_exact)
        want = [
            relative_rmse(gram_estimate(eucrf._feature_matrix(featurizer, self.X, f, self.params)),
                          self.k_exact)
            for f in freqs
        ]
        assert got == want and all(type(v) is float for v in got)

    def test_one_overflowing_ensemble_fails_the_rlf_stack(self):
        freqs = self.freqs.copy()
        freqs[5] *= 1e4
        rlf_feature_matrix(self.X, freqs[:5], self.params)
        with pytest.raises(FeatureOverflowError):
            rlf_feature_matrix(self.X, freqs, self.params)

    def test_stack_of_other_shape_refused(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            relative_rmse(np.zeros((3, 4, 4)), np.eye(5))


SQRT_PI = np.sqrt(np.pi)
# x -> (cost_rff, cost_rlf) at argument x = t sqrt(w1^2 + w2^2), per dimension d
COST_FORMS = {
    1: (lambda x: np.cos(x) / SQRT_PI, lambda x: np.cosh(x) / SQRT_PI),
    2: (j0, i0),
    3: (lambda x: 2 * np.sin(x) / (x * SQRT_PI), lambda x: 2 * np.sinh(x) / (x * SQRT_PI)),
    5: (lambda x: 4 * (np.sin(x) - x * np.cos(x)) / (SQRT_PI * x**3),
        lambda x: 4 * (x * np.cosh(x) - np.sinh(x)) / (SQRT_PI * x**3)),
}


class TestCostSeries:
    def test_zero_frequencies_d2(self):
        assert cost_rlf(0.0, 0.0, 1.0, 2) == pytest.approx(1.0, abs=1e-12)
        assert cost_rff(0.0, 0.0, 1.0, 2) == pytest.approx(1.0, abs=1e-12)

    def test_zero_separation_ignores_frequencies(self):
        for d in (2, 3, 6):
            for w in (0.0, 1.3, 4.0):
                assert cost_rff(w, 2.0, 0.0, d) == pytest.approx(
                    1.0 / gamma(d / 2), abs=1e-12
                )

    def test_rlf_increasing_in_omega(self):
        vals = [cost_rlf(w, 1.0, 0.8, 4) for w in np.linspace(0, 4, 9)]
        assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_against_hypergeometric_oracle(self, d):
        # the series is 0F1(d/2; -+x^2 / 4) / Gamma(d/2) with x = t sqrt(s),
        # which has these elementary and Bessel forms (DLMF 10.16.9, 10.49)
        rff, rlf = COST_FORMS[d]
        rng = np.random.default_rng(11)
        # (40, 40) at separation 6 puts x near 339, far past where a
        # 200-term truncation of the series converges
        for w1, w2, t in [(40.0, 40.0, 6.0)] + [tuple(rng.random(3) * 4) for _ in range(40)]:
            x = t * np.sqrt(w1**2 + w2**2)
            assert cost_rff(w1, w2, t, d) == pytest.approx(rff(x), rel=1e-10, abs=1e-12)
            assert cost_rlf(w1, w2, t, d) == pytest.approx(rlf(x), rel=1e-10)

    @pytest.mark.parametrize("d, w, value", [(178, 0.02, "inf"), (400, 0.2, "nan")])
    def test_failed_0f1_raises(self, d, w, value):
        # scipy's 0F1 fails at some small negative arguments past d = 176,
        # where the true cost is about 1/Gamma(d/2)
        with pytest.raises(NumericalError, match=f"evaluated to {value}"):
            cost_rff(w, 0.0, 1.0, d)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            cost_rlf(-1.0, 0.0, 1.0, 2)


def attention_reference(X, freqs, params):
    """attention_estimate one (m, d) ensemble at a time, its sums a += per trial."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    a_exact = attention_exact(X, params)
    att_sq_err, k_sum, k_sq_sum = (np.zeros((n, n)) for _ in range(3))
    k_cross = np.zeros(n)
    for trial_freqs in freqs:
        k_hat = gram_estimate(rlf_feature_matrix(X, trial_freqs, params))
        a_hat = k_hat / np.sum(k_hat, axis=1, keepdims=True)
        att_sq_err += (a_hat - a_exact) ** 2
        k_sum += k_hat
        k_sq_sum += k_hat**2
        k_cross += np.sum(k_hat, axis=1) ** 2
    trials = len(freqs)
    k_mean = k_sum / trials
    row_mean = np.sum(k_mean, axis=1)
    return {
        "attention_mse": float(np.mean(np.mean(att_sq_err, axis=1) / trials)),
        "kernel_var": float(np.mean(k_sq_sum / trials - k_mean**2)),
        "kernel_cov": float(np.mean((k_cross / trials - row_mean**2) / n**2)),
    }


class TestAttention:
    def test_single_token(self):
        X = np.array([[0.3, -0.2]])
        a = attention_exact(X, GaussianKernelParams(1.0))
        assert np.array_equal(a, [[1.0]])

    def test_identical_tokens_uniform(self):
        X = np.tile([0.5, 1.0], (4, 1))
        a = attention_exact(X, GaussianKernelParams(1.0))
        assert np.allclose(a, 0.25)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((6, 3))
        a = attention_exact(X, GaussianKernelParams(1.5))
        assert np.allclose(a.sum(axis=1), 1.0)

    def test_single_token_estimate_has_zero_error(self):
        # one positive estimate self-normalises to 1 for every draw
        X = np.array([[0.4, -0.1]])
        p = GaussianKernelParams(1.0)
        rng = np.random.default_rng(20)
        stats = attention_estimate(X, [build_ensemble(2, 2, "iid", [rng] * 20)], p)
        assert stats["attention_mse"] == 0.0

    def test_estimate_statistics_shapes(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((5, 4)) * 0.3
        p = GaussianKernelParams(rlf_lengthscale_heuristic(X))
        stats = attention_estimate(X, [build_ensemble(4, 4, "orthogonal", [rng] * 50)], p)
        assert set(stats) == {"attention_mse", "kernel_var", "kernel_cov"}
        assert all(type(v) is float for v in stats.values())
        assert stats["attention_mse"] > 0 and stats["kernel_var"] > 0

    def test_estimate_converges_to_exact(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((4, 3)) * 0.3
        p = GaussianKernelParams(rlf_lengthscale_heuristic(X))
        rng_few, rng_many = np.random.default_rng(1), np.random.default_rng(1)
        few = attention_estimate(X, [build_ensemble(3, 3, "orthogonal", [rng_few] * 30)], p)
        many = attention_estimate(X, [build_ensemble(12, 3, "orthogonal", [rng_many] * 30)], p)
        assert many["attention_mse"] < few["attention_mse"]

    @pytest.mark.parametrize(
        "tag",
        ["iid", "halton", "orthogonal", "orthogonal_pnc", "orthogonal_pnc_antithetic",
         "positive_monotone"],
    )
    def test_chunked_ensembles_match_one_call_per_generator(self, tag):
        # seven children in stacks of three, against one stack per child
        rng = np.random.default_rng(15)
        X = rng.standard_normal((5, 4)) * 0.3
        p = GaussianKernelParams(rlf_lengthscale_heuristic(X))
        children = np.random.default_rng(16).spawn(7)
        chunked = attention_estimate(
            X, (build_ensemble(8, 4, tag, children[i : i + 3]) for i in range(0, 7, 3)), p
        )
        singles = [build_ensemble(8, 4, tag, [c]) for c in np.random.default_rng(16).spawn(7)]
        single = attention_estimate(X, singles, p)
        assert chunked == single

    @pytest.mark.parametrize("grams", [1, 3, None])
    @pytest.mark.parametrize("n", [1, 5])
    def test_stack_matches_per_ensemble_reference(self, n, grams, monkeypatch):
        # one, three or (by default) all seven Grams per sub-stack; with one
        # token the row-sum stack is (T, 1), which np.add.reduce sums pairwise
        if grams:
            monkeypatch.setattr(eucrf, "_CHUNK_GRAM", grams * n * n)
        rng = np.random.default_rng(17)
        X = rng.standard_normal((n, 4)) * 0.3
        p = GaussianKernelParams(1.2)
        freqs = build_ensemble(8, 4, "orthogonal_pnc", np.random.default_rng(18).spawn(7))
        assert attention_estimate(X, [freqs], p) == attention_reference(X, freqs, p)
        assert attention_estimate(X, [freqs[:2], freqs[2:]], p) == attention_reference(X, freqs, p)

    def test_estimate_needs_an_ensemble(self):
        with pytest.raises(ValueError):
            attention_estimate(np.zeros((2, 2)), [], GaussianKernelParams(1.0))

    def test_entry_that_is_not_a_stack_refused(self):
        freqs = np.ones((2, 2))
        with pytest.raises(ValueError, match=r"\(T, m, d\) stacks, got shape \(2, 2\)"):
            attention_estimate(np.zeros((2, 2)), [freqs], GaussianKernelParams(1.0))
