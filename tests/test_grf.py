"""Modulation sequences, batched walk projections and node-feature estimators."""

import warnings

import numpy as np
import pytest

from otrf import grf
from otrf.graph import (
    GraphData,
    GraphKernelSpec,
    SigmaCoupling,
    batch_walk_endpoints,
    batch_walk_lengths,
    erdos_renyi,
    exact_graph_kernel,
    taylor_coefficients,
)
from otrf.grf import (
    estimate_quantile_projections,
    grf_feature_matrix,
    grf_features,
    modulation_from_coefficients,
    truncation_count,
)

TWO_PATH = GraphData(np.array([[0.0, 1.0], [1.0, 0.0]]))
REG2 = GraphKernelSpec("d_regularized_laplacian", sigma=1.0, degree=2)


def modulation_for(spec, k_max=40):
    return modulation_from_coefficients(taylor_coefficients(spec, k_max), k_max)


def project_path(g, nodes, f, p_halt):
    """Scalar oracle: importance-weighted prefix loads of one walk's nodes."""
    out = np.zeros(g.n_nodes)
    out[nodes[0]] += f(0)
    weight, prob = 1.0, 1.0
    for t in range(1, min(len(nodes) - 1, f.k_max) + 1):
        weight *= g.adjacency_norm[nodes[t - 1], nodes[t]]
        prob *= (1.0 - p_halt) / g.neighbor_counts[nodes[t - 1]]
        out[nodes[t]] += weight * f(t) / prob
    return out


def projection_oracle(g, starts, lengths, f, p_halt, rng, rows, out):
    """Per-step projecting walk, one ``rng.random`` call per step; returns
    the number of walks cut at the modulation horizon ``f.k_max``."""
    cur = np.asarray(starts, dtype=np.int64).copy()
    weight = np.ones(cur.size)
    np.add.at(out, (rows, cur), f(0))
    for t in range(1, int(lengths.max(initial=0)) + 1):
        idx = np.flatnonzero(lengths >= t)
        if t > f.k_max:
            return idx.size
        nodes = cur[idx]
        deg = g.neighbor_counts[nodes]
        pick = g.indptr[nodes] + (rng.random(idx.size) * deg).astype(np.int64)
        weight[idx] *= g.adjacency_norm[nodes, g.indices[pick]] * deg / (1.0 - p_halt)
        cur[idx] = g.indices[pick]
        np.add.at(out, (rows[idx], cur[idx]), weight[idx] * f(t))
    return 0


def projected_walk(g, start, length, f, p_halt, seed):
    """One seeded walk through the batched engine: (its nodes, its projection).

    Both batched engines draw one uniform per live walker per step, so with
    the same seed the walk of length t is the t-step prefix of a longer one.
    """
    nodes = [
        int(batch_walk_endpoints(g, [start], [t], np.random.default_rng(seed))[0])
        for t in range(length + 1)
    ]
    out = np.zeros((1, g.n_nodes))
    grf._projected_batch(
        g, [start], [length], f, p_halt, np.random.default_rng(seed), np.zeros(1, int), out
    )
    return nodes, out[0]


class TestModulation:
    def test_identity_kernel(self):
        f = modulation_from_coefficients([1.0, 0.0, 0.0], 5)
        assert np.allclose(f.coeffs, [1, 0, 0, 0, 0, 0])

    def test_binomial_square(self):
        f = modulation_from_coefficients([1.0, 2.0, 1.0], 4)
        assert np.allclose(f.coeffs, [1, 1, 0, 0, 0])

    def test_self_convolution_recovers_coefficients(self):
        rng = np.random.default_rng(0)
        alpha = np.abs(rng.standard_normal(12)) + 0.1
        f = modulation_from_coefficients(alpha, 11)
        conv = np.convolve(f.coeffs, f.coeffs)[:12]
        assert np.max(np.abs(conv - alpha)) < 1e-10

    def test_leading_coefficient_positive(self):
        with pytest.raises(ValueError):
            modulation_from_coefficients([0.0, 1.0], 3)

    def test_nan_coefficient_rejected(self):
        # used to return all-NaN coefficients
        with pytest.raises(ValueError, match=r"^alpha\[0\] must lie in \(0, inf\), got nan$"):
            modulation_from_coefficients([np.nan, 0.5])
        with pytest.raises(ValueError, match=r"^alpha\[1\] must lie in \(-inf, inf\), got nan$"):
            modulation_from_coefficients([1.0, np.nan])

    def test_negative_k_max_rejected(self):
        # used to end in IndexError
        with pytest.raises(ValueError, match=r"^k_max must lie in \[0, inf\), got -1$"):
            modulation_from_coefficients([1.0, 0.5], k_max=-1)

    def test_truncation_beyond_kmax(self):
        f = modulation_from_coefficients([1.0, 1.0], 3)
        assert f(3) == f.coeffs[3]
        assert f(4) == 0.0

    def test_negative_k_is_zero(self):
        # used to index from the far end: f(-1) returned f(k_max)
        f = modulation_from_coefficients([1.0, 0.5], 4)
        assert f.coeffs[-1] != 0.0
        assert f(-1) == 0.0 and f(-5) == 0.0

    def test_overflowing_recursion_rejected(self):
        # finite alpha used to give inf and nan coefficients
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^alpha has no finite modulation square root"):
                modulation_from_coefficients([1.0, 1e300], 64)


class TestProjectWalk:
    def test_length_zero(self):
        f = modulation_for(REG2)
        _, out = projected_walk(TWO_PATH, 1, 0, f, 0.5, seed=1)
        expected = np.zeros(2)
        expected[1] = f(0)
        assert np.array_equal(out, expected)

    def test_single_step_arithmetic(self):
        f = modulation_for(REG2)
        _, out = projected_walk(TWO_PATH, 0, 1, f, 0.5, seed=2)
        # prefix probability (1-p)/deg = 0.5, edge weight 1 on the unit path
        assert out[0] == f(0)
        assert out[1] == pytest.approx(2.0 * f(1) * TWO_PATH.adjacency_norm[0, 1])

    def test_invalid_p_halt(self):
        f = modulation_for(REG2)
        with pytest.raises(ValueError):
            grf_feature_matrix(TWO_PATH, 2, "iid", f, 1.5, np.random.default_rng(3))

    @pytest.mark.parametrize("seed", range(5))
    def test_batch_matches_scalar_oracle(self, seed):
        f = modulation_for(REG2)
        g = erdos_renyi(9, 0.4, np.random.default_rng(seed))
        nodes, out = projected_walk(g, seed % 9, 6, f, 0.3, seed=100 + seed)
        assert np.allclose(out, project_path(g, nodes, f, 0.3), rtol=1e-12, atol=0)

    def test_pairwise_unbiased_on_small_graph(self):
        # mean psi(w_i)^T psi(w_j) over independent walk pairs vs exact K_ij
        seed = 4
        g = erdos_renyi(8, 0.45, np.random.default_rng(seed))
        K = exact_graph_kernel(g, REG2)
        f = modulation_for(REG2, 64)
        i, j = 0, 3
        draws = 200_000
        rng = np.random.default_rng(seed + 1)
        starts = np.concatenate([np.full(draws, i), np.full(draws, j)])
        lengths = batch_walk_lengths(2 * draws, 0.5, rng)
        out = np.zeros((2 * draws, 8))
        grf._projected_batch(
            g, starts, lengths, f, 0.5, rng, np.arange(2 * draws), out
        )
        prods = np.sum(out[:draws] * out[draws:], axis=1)
        se = prods.std(ddof=1) / np.sqrt(draws)
        assert abs(prods.mean() - K[i, j]) < 3 * se


class TestGrfFeatures:
    def test_m1_equals_single_projection(self):
        # on the two-node path every walk alternates 0, 1, 0, ...
        f = modulation_for(REG2)
        feat = grf_features(TWO_PATH, 0, 1, "iid", f, 0.5, np.random.default_rng(5))
        length = int(batch_walk_lengths(1, 0.5, np.random.default_rng(5))[0])
        expected = project_path(TWO_PATH, [t % 2 for t in range(length + 1)], f, 0.5)
        assert np.allclose(feat, expected, rtol=1e-12, atol=0)

    def test_features_are_rows_of_the_matrix(self):
        # on a one-node graph the same stream gives the matrix's only row
        f = modulation_for(REG2)
        self_loop = GraphData(np.array([[1.0]]))
        coupling = SigmaCoupling(np.array([1, 0]), 0.4)
        feat = grf_features(self_loop, 0, 4, coupling, f, 0.4, np.random.default_rng(6))
        rows = grf_feature_matrix(self_loop, 4, coupling, f, 0.4, np.random.default_rng(6))
        assert np.array_equal(feat, rows[0])
        with pytest.raises(ValueError):
            grf_features(TWO_PATH, 2, 4, "iid", f, 0.4, np.random.default_rng(6))

    @pytest.mark.parametrize("coupling", ["iid", "antithetic_termination"])
    def test_zero_walkers_rejected(self, coupling):
        # m = 0 used to average no walks into an all-nan feature
        f = modulation_for(REG2)
        with pytest.raises(ValueError, match=r"^m \(walkers\) must lie in \[1, inf\), got 0$"):
            grf_features(TWO_PATH, 0, 0, coupling, f, 0.3, np.random.default_rng(6))
        with pytest.raises(ValueError, match=r"^m \(walkers\) must lie in \[1, inf\), got 0$"):
            grf_feature_matrix(TWO_PATH, 0, coupling, f, 0.3, np.random.default_rng(6))

    def test_paired_couplings_require_even_m(self):
        f = modulation_for(REG2)
        with pytest.raises(ValueError):
            grf_features(TWO_PATH, 0, 3, "antithetic_termination", f, 0.4, np.random.default_rng(6))
        with pytest.raises(ValueError):
            grf_feature_matrix(TWO_PATH, 3, SigmaCoupling(np.array([1, 0]), 0.4), f, 0.4, np.random.default_rng(6))

    def test_sigma_coupling_for_another_p_halt_rejected(self):
        f = modulation_for(REG2)
        coupling = SigmaCoupling(np.array([1, 0]), 0.5)
        with pytest.raises(ValueError, match=r"made for p_halt 0\.5 cannot run at p_halt 0\.3$"):
            grf_feature_matrix(TWO_PATH, 2, coupling, f, 0.3, np.random.default_rng(6))
        # equal after rounding to 10 digits, as experiments keys its couplings
        grf_feature_matrix(TWO_PATH, 2, coupling, f, 0.5 + 1e-12, np.random.default_rng(6))

    def test_identity_sigma_order_one_lengths_independent(self):
        coupling = SigmaCoupling(np.array([0]), 0.4)
        rng = np.random.default_rng(7)
        draws = batch_walk_lengths(40_000, 0.4, rng, coupling).reshape(-1, 2)
        corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(draws.shape[0])

    def test_batch_matrix_unbiased(self):
        seed = 8
        g = erdos_renyi(8, 0.45, np.random.default_rng(seed))
        K = exact_graph_kernel(g, REG2)
        f = modulation_for(REG2, 64)
        draws = 4000
        acc = np.zeros((8, 8))
        acc2 = np.zeros((8, 8))
        for t in range(draws):
            feats = grf_feature_matrix(g, 2, "iid", f, 0.5, np.random.default_rng((seed, t)))
            k_hat = feats @ feats.T
            acc += k_hat
            acc2 += k_hat**2
        mean = acc / draws
        se = np.sqrt(np.maximum(acc2 / draws - mean**2, 0) / draws)
        off = ~np.eye(8, dtype=bool)
        z = np.abs(mean - K)[off] / se[off]
        assert np.max(z) < 4.0  # 56 simultaneous comparisons

    def test_error_decays_like_inverse_sqrt_m(self):
        seed = 9
        g = erdos_renyi(8, 0.45, np.random.default_rng(seed))
        K = exact_graph_kernel(g, REG2)
        kn = np.linalg.norm(K)
        f = modulation_for(REG2, 64)
        ms = [2, 8, 32]
        means = []
        for m in ms:
            errs = [
                np.linalg.norm(
                    (lambda F: F @ F.T)(
                        grf_feature_matrix(g, m, "iid", f, 0.5, np.random.default_rng((seed, m, t)))
                    )
                    - K
                )
                / kn
                for t in range(400)
            ]
            means.append(np.mean(errs))
        slope = np.polyfit(np.log(ms), np.log(means), 1)[0]
        assert abs(slope + 0.5) < 0.1

    @pytest.mark.parametrize("n_trials", [1, 3, 7])
    @pytest.mark.parametrize(
        "coupling", ["iid", "antithetic_termination", SigmaCoupling(np.array([2, 0, 3, 1]), 0.3)]
    )
    def test_trial_batch_matches_per_trial(self, coupling, n_trials):
        g = erdos_renyi(7, 0.5, np.random.default_rng(21))
        f = modulation_for(REG2, 3)  # horizon of three steps
        m, p_halt = 4, 0.3
        seeds = np.random.SeedSequence(22).spawn(n_trials)
        before = truncation_count()
        feats = grf_feature_matrix(g, m, coupling, f, p_halt, [np.random.default_rng(s) for s in seeds])
        batched = truncation_count() - before
        assert feats.shape == (n_trials, 7, 7)
        starts = np.repeat(np.arange(7), m)
        truncated, all_lengths = 0, []
        for i, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            lengths = batch_walk_lengths(starts.size, p_halt, rng, coupling)
            out = np.zeros((7, 7))
            truncated += projection_oracle(g, starts, lengths, f, p_halt, rng, starts, out)
            assert np.array_equal(feats[i], out / m)
            all_lengths.append(lengths)
        assert batched == truncated
        lengths = np.concatenate(all_lengths)
        assert np.any(lengths == 0) and np.any(lengths > f.k_max)
        single = grf_feature_matrix(g, m, coupling, f, p_halt, np.random.default_rng(seeds[-1]))
        assert np.array_equal(single, feats[-1])

    def test_truncation_counter(self):
        before = truncation_count()
        f = modulation_from_coefficients([1.0, 1.0, 1.0], 2)
        projected_walk(TWO_PATH, 0, 5, f, 0.5, seed=10)
        assert truncation_count() - before == 1


class TestQuantileProjections:
    def test_degenerate_high_halt_tile(self):
        # with p_halt = 0.99 the first tiles contain only length-0 walks
        f = modulation_for(REG2)
        psi = estimate_quantile_projections(TWO_PATH, 2, 0.99, f, 50, np.random.default_rng(11))
        expected = np.zeros(2)
        expected[0] = f(0)
        assert np.array_equal(psi[0, 0], expected)

    def test_zero_walks_per_quantile_rejected(self):
        f = modulation_for(REG2)
        with pytest.raises(ValueError, match="walks_per_quantile"):
            estimate_quantile_projections(TWO_PATH, 2, 0.3, f, 0, np.random.default_rng(11))

    def test_variance_halves_with_double_sampling(self):
        f = modulation_for(REG2, 16)
        g = erdos_renyi(6, 0.5, np.random.default_rng(12))

        def entry_variance(wpq, reps=300):
            vals = [
                estimate_quantile_projections(
                    g, 3, 0.3, f, wpq, np.random.default_rng((13, wpq, r))
                )[0, 2, 0]
                for r in range(reps)
            ]
            return np.var(vals, ddof=1)

        ratio = entry_variance(4) / entry_variance(8)
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_relabeling_equivariance_of_projection(self):
        # the engine's loads for a walk on g, relabeled, are the oracle's
        # loads for the relabeled walk on the relabeled graph
        f = modulation_for(REG2)
        g = erdos_renyi(6, 0.5, np.random.default_rng(14))
        perm = np.random.default_rng(15).permutation(6)
        g_perm = GraphData(g.weights[np.ix_(perm, perm)])
        nodes, out = projected_walk(g, 2, 4, f, 0.5, seed=16)
        inv = np.argsort(perm)  # node u of g sits at label inv[u] in g_perm
        out_perm = project_path(g_perm, [int(inv[v]) for v in nodes], f, 0.5)
        # g_perm label i corresponds to g node perm[i]
        assert np.allclose(out_perm, out[perm], rtol=1e-12, atol=0)

    def test_requires_positive_walks(self):
        f = modulation_for(REG2)
        with pytest.raises(ValueError):
            estimate_quantile_projections(TWO_PATH, 2, 0.5, f, 0, np.random.default_rng(0))
