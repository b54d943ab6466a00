"""Graph structure, kernels, Taylor expansions and walk couplings."""

import math

import numpy as np
import pytest
from scipy import stats

from otrf import graph
from otrf.graph import (
    GraphData,
    GraphKernelSpec,
    SigmaCoupling,
    batch_walk_endpoints,
    batch_walk_lengths,
    erdos_renyi,
    exact_graph_kernel,
    laplacian,
    normalized_laplacian,
    taylor_coefficients,
)
from otrf.mathcore import GeometricParams, geometric_cdf

TWO_PATH = GraphData(np.array([[0.0, 1.0], [1.0, 0.0]]))


def geometric_chisquare_pvalue(lengths, p_halt, cut=12):
    """Chi-square test of observed lengths against the geometric pmf.

    Bins 0..cut-1 individually plus one tail bin; sparse bins are merged
    into the tail before testing.
    """
    lengths = np.asarray(lengths)
    gp = GeometricParams(p_halt)
    observed = np.array(
        [np.sum(lengths == l) for l in range(cut)] + [np.sum(lengths >= cut)],
        dtype=float,
    )
    cdf_vals = np.asarray(geometric_cdf(np.arange(cut), gp))
    probs = np.concatenate([[cdf_vals[0]], np.diff(cdf_vals), [1.0 - cdf_vals[-1]]])
    expected = probs * lengths.size
    while expected[-1] < 5 or expected.size > 2 and expected[-2] < 5:
        observed[-2] += observed[-1]
        expected[-2] += expected[-1]
        observed, expected = observed[:-1], expected[:-1]
    return stats.chisquare(observed, expected).pvalue


def coupled_pairs(n_pairs, p_halt, rng, coupling):
    """Lengths of n_pairs coupled walk pairs as an (n_pairs, 2) array."""
    return batch_walk_lengths(2 * n_pairs, p_halt, rng, coupling).reshape(-1, 2)


def endpoint_oracle(g, starts, lengths, rng):
    """Per-step endpoint walk: one ``rng.random`` call per step, for live walks."""
    cur = np.asarray(starts, dtype=np.int64).copy()
    remaining = np.asarray(lengths, dtype=np.int64).copy()
    while np.any(remaining > 0):
        idx = np.flatnonzero(remaining > 0)
        nodes = cur[idx]
        deg = g.neighbor_counts[nodes]
        pick = g.indptr[nodes] + (rng.random(idx.size) * deg).astype(np.int64)
        cur[idx] = g.indices[pick]
        remaining[idx] -= 1
    return cur


def csr_oracle(g):
    """The per-node loop that once built the CSR arrays: (indptr, indices,
    step weights a_uv deg(u))."""
    indptr, indices, step_weight = [0], [], []
    for u in range(g.n_nodes):
        nbrs = np.flatnonzero(g.weights[u] > 0)
        indices.extend(nbrs.tolist())
        indptr.append(len(indices))
        step_weight.extend(g.adjacency_norm[u, nbrs] * len(nbrs))
    return np.array(indptr), np.array(indices), np.array(step_weight)


def connected_oracle(W):
    """Depth-first search from node 0, one neighbour at a time."""
    seen = np.zeros(W.shape[0], dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        for v in np.flatnonzero(W[stack.pop()] > 0):
            if not seen[v]:
                seen[v] = True
                stack.append(int(v))
    return bool(np.all(seen))


WALK_COUPLINGS = ["iid", "antithetic_termination", SigmaCoupling(np.array([2, 0, 3, 1]), 0.3)]


class TestGraphData:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            GraphData(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_isolated(self):
        with pytest.raises(ValueError):
            GraphData(np.array([[0.0, 0.0], [0.0, 0.0]]))

    def test_neighbors_and_degrees(self):
        g = GraphData.from_edges(3, [(0, 1), (1, 2, 2.0)])
        assert list(g.indices[g.indptr[1] : g.indptr[2]]) == [0, 2]
        assert g.degrees[1] == 3.0
        assert g.neighbor_counts[1] == 2

    def test_csr_matches_per_node_loop(self):
        rng = np.random.default_rng(22)
        scale = rng.uniform(0.1, 3.0, (9, 9))
        g = GraphData(erdos_renyi(9, 0.5, rng).weights * (scale + scale.T))
        indptr, indices, step_weight = csr_oracle(g)
        assert g.indptr.dtype == g.indices.dtype == g.neighbor_counts.dtype == np.int64
        assert np.array_equal(g.indptr, indptr)
        assert np.array_equal(g.indices, indices)
        assert np.array_equal(g.neighbor_counts, np.diff(indptr))
        assert np.array_equal(g.step_weight, step_weight)

    def test_file_round_trip(self, tmp_path):
        g = GraphData.from_edges(4, [(0, 1), (1, 2, 0.5), (2, 3), (0, 3, 2.0)])
        path = tmp_path / "graph.edges"
        g.to_file(path)
        back = GraphData.from_file(path)
        assert np.array_equal(back.weights, g.weights)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\n0 1 2 3\n")
        with pytest.raises(ValueError):
            GraphData.from_file(path)

    @pytest.mark.parametrize(
        "text, message",
        [("0 1\n-1 2\n", "bad.edges:2: node ids must be >= 0"), ("\n", "bad.edges: no edges")],
        ids=["negative-id", "empty"],
    )
    def test_rejects_negative_id_and_empty_edge_list(self, tmp_path, text, message):
        # -1 used to wrap to the last node, and no edges to give a 0-node graph
        path = tmp_path / "bad.edges"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            GraphData.from_file(path)
        assert message in str(err.value)


class TestLaplacians:
    def test_two_path_normalized(self):
        expected = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.allclose(normalized_laplacian(TWO_PATH), expected)

    def test_unnormalized_row_sums_zero(self):
        g = erdos_renyi(20, 0.3, np.random.default_rng(0))
        assert np.allclose(laplacian(g).sum(axis=1), 0.0)

    def test_spectrum_in_range(self):
        g = erdos_renyi(50, 0.1, np.random.default_rng(1))
        evals = np.linalg.eigvalsh(normalized_laplacian(g))
        assert evals.min() > -1e-10
        assert evals.max() < 2 + 1e-10

    def test_adjacency_spectral_radius(self):
        g = erdos_renyi(40, 0.15, np.random.default_rng(2))
        # power-iteration estimate of the spectral radius
        v = np.ones(g.n_nodes) / np.sqrt(g.n_nodes)
        for _ in range(200):
            v = g.adjacency_norm @ v
            v /= np.linalg.norm(v)
        radius = abs(v @ g.adjacency_norm @ v)
        assert radius <= 1 + 1e-8


class TestExactKernels:
    def test_two_path_regularized_oracle(self):
        # direct inverse-square oracle on the 2x2 normalised Laplacian
        lap = normalized_laplacian(TWO_PATH)
        oracle = np.linalg.inv(np.eye(2) + lap)
        oracle = oracle @ oracle
        spec = GraphKernelSpec("d_regularized_laplacian", sigma=1.0, degree=2)
        K = exact_graph_kernel(TWO_PATH, spec)
        assert np.allclose(K, oracle, atol=1e-12)
        assert K[0, 0] == pytest.approx(5.0 / 9.0, abs=1e-12)
        assert K[0, 1] == pytest.approx(4.0 / 9.0, abs=1e-12)

    def test_diffusion_zero_rate_identity(self):
        g = erdos_renyi(10, 0.4, np.random.default_rng(3))
        K = exact_graph_kernel(g, GraphKernelSpec("diffusion", sigma=0.0))
        assert np.allclose(K, np.eye(10), atol=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [
            GraphKernelSpec("d_regularized_laplacian", sigma=0.8, degree=3),
            GraphKernelSpec("p_step_random_walk", alpha=2.5, p=3),
            GraphKernelSpec("diffusion", sigma=1.2),
            GraphKernelSpec("inverse_cosine"),
        ],
    )
    def test_psd_on_random_graphs(self, spec):
        g = erdos_renyi(15, 0.3, np.random.default_rng(4))
        K = exact_graph_kernel(g, spec)
        assert np.allclose(K, K.T)
        assert np.min(np.linalg.eigvalsh(K)) > -1e-8

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            GraphKernelSpec("p_step_random_walk", alpha=1.5)


class TestTaylorCoefficients:
    def test_one_regularized_geometric_series(self):
        spec = GraphKernelSpec("d_regularized_laplacian", sigma=1.0, degree=1)
        alpha = taylor_coefficients(spec, 10)
        expected = 0.5 * 0.5 ** np.arange(11)
        assert np.allclose(alpha, expected, atol=1e-14)

    def test_diffusion_poisson_weights(self):
        gamma_sq = 0.7
        spec = GraphKernelSpec("diffusion", sigma=np.sqrt(2 * gamma_sq))
        alpha = taylor_coefficients(spec, 8)
        k = np.arange(9)
        expected = np.exp(-gamma_sq) * gamma_sq**k / [math.factorial(i) for i in k]
        assert np.allclose(alpha, expected, rtol=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [
            GraphKernelSpec("d_regularized_laplacian", sigma=1.0, degree=2),
            GraphKernelSpec("diffusion", sigma=1.0),
            GraphKernelSpec("p_step_random_walk", alpha=2.0, p=4),
            GraphKernelSpec("inverse_cosine"),
        ],
    )
    def test_partial_sums_reconstruct_kernel(self, spec):
        g = erdos_renyi(10, 0.4, np.random.default_rng(5))
        K = exact_graph_kernel(g, spec)
        alpha = taylor_coefficients(spec, 40)
        acc = np.zeros_like(K)
        power = np.eye(10)
        for a in alpha:
            acc += a * power
            power = power @ g.adjacency_norm
        assert np.linalg.norm(acc - K) / np.linalg.norm(K) < 1e-6

    def test_nonnegative_families(self):
        for spec in (
            GraphKernelSpec("d_regularized_laplacian", sigma=1.3, degree=2),
            GraphKernelSpec("diffusion", sigma=0.9),
        ):
            assert np.all(taylor_coefficients(spec, 30) >= 0)

    # scipy's float binomial is the oracle: exact up to degree 10 and p 30 at
    # 64 orders, then up to 9e-13 away from the exactly rounded integer
    @pytest.mark.parametrize(
        "family, values, rtol",
        [
            ("d_regularized_laplacian", range(1, 11), 0.0),
            ("d_regularized_laplacian", range(11, 101), 1e-14),
            ("d_regularized_laplacian", range(101, 400), 1e-12),
            ("p_step_random_walk", range(0, 31), 0.0),
            ("p_step_random_walk", range(31, 101), 1e-14),
            ("p_step_random_walk", range(101, 400), 1e-12),
        ],
    )
    def test_binomials_match_scipy_comb(self, family, values, rtol):
        from scipy.special import comb

        k = np.arange(65)
        sigma_sq = np.float64(0.7) ** 2
        for n in values:
            if family == "p_step_random_walk":
                spec = GraphKernelSpec(family, alpha=2.5, p=n)
                oracle = np.where(k <= n, comb(n, k) * 1.5 ** (n - k), 0.0)
            else:
                spec = GraphKernelSpec(family, sigma=0.7, degree=n)
                rho = sigma_sq / (1.0 + sigma_sq)
                oracle = (1.0 + sigma_sq) ** (-n) * comb(k + n - 1, n - 1) * rho**k
            np.testing.assert_allclose(taylor_coefficients(spec, 64), oracle, rtol=rtol, atol=0)

    @pytest.mark.parametrize(
        "spec",
        [
            GraphKernelSpec("d_regularized_laplacian", degree=10**12),
            GraphKernelSpec("p_step_random_walk", p=10**12),
        ],
    )
    def test_binomial_beyond_float_range_raises(self, spec):
        with pytest.raises(OverflowError):
            taylor_coefficients(spec, 64)


class TestWalks:
    def test_fixed_length_zero(self):
        ends = batch_walk_endpoints(TWO_PATH, [1], [0], np.random.default_rng(6))
        assert ends.tolist() == [1]

    def test_two_cycle_alternates(self):
        ends = batch_walk_endpoints(
            TWO_PATH, np.zeros(6), np.arange(6), np.random.default_rng(7)
        )
        assert ends.tolist() == [0, 1, 0, 1, 0, 1]

    def test_mode_arguments(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            batch_walk_lengths(4, 0.5, rng, "sigma")  # a sigma coupling is an object
        with pytest.raises(ValueError):
            batch_walk_lengths(4, 0.5, rng, "bogus")
        with pytest.raises(ValueError):
            batch_walk_lengths(3, 0.5, rng, "antithetic_termination")

    def test_geometric_lengths_chisquare(self):
        rng = np.random.default_rng(9)
        lengths = batch_walk_lengths(20_000, 0.5, rng)
        assert geometric_chisquare_pvalue(lengths, 0.5) > 0.01

    def test_batch_lengths_chisquare(self):
        rng = np.random.default_rng(10)
        lengths = batch_walk_lengths(100_000, 0.3, rng)
        assert geometric_chisquare_pvalue(lengths, 0.3) > 0.01

    @pytest.mark.parametrize("p_halt", [0.0, 1.0])
    @pytest.mark.parametrize(
        "coupling", ["iid", "antithetic_termination", SigmaCoupling(np.array([1, 0]), 0.5)]
    )
    def test_p_halt_outside_open_interval_rejected(self, coupling, p_halt):
        with pytest.raises(ValueError, match="p_halt"):
            batch_walk_lengths(4, p_halt, np.random.default_rng(0), coupling)

    @pytest.mark.parametrize("budget", [None, 40])
    @pytest.mark.parametrize("n_trials", [1, 3, 7])
    @pytest.mark.parametrize("coupling", WALK_COUPLINGS)
    def test_trial_batch_matches_per_trial(self, coupling, n_trials, budget, monkeypatch):
        # a small stream budget makes the schedule draw in rounds of varying length
        if budget is not None:
            monkeypatch.setattr(graph, "_STREAM_BUDGET", budget)
        g = erdos_renyi(7, 0.5, np.random.default_rng(19))
        starts = np.repeat(np.arange(7), 4)
        seeds = np.random.SeedSequence(20).spawn(n_trials)
        rngs = [np.random.default_rng(s) for s in seeds]
        lengths = batch_walk_lengths(n_trials * starts.size, 0.3, rngs, coupling)
        ends = batch_walk_endpoints(g, np.tile(starts, n_trials), lengths, rngs)
        assert np.any(lengths == 0) and np.any(lengths > 1)
        for i, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            block = slice(i * starts.size, (i + 1) * starts.size)
            expected = batch_walk_lengths(starts.size, 0.3, rng, coupling)
            assert np.array_equal(lengths[block], expected)
            assert np.array_equal(ends[block], endpoint_oracle(g, starts, expected, rng))

    def test_trials_must_split_evenly(self):
        rngs = [np.random.default_rng(s) for s in range(3)]
        with pytest.raises(ValueError, match="equal trials"):
            batch_walk_lengths(10, 0.3, rngs)
        with pytest.raises(ValueError, match="equal trials"):
            batch_walk_endpoints(TWO_PATH, np.zeros(4), np.ones(4), rngs)

    def test_batch_endpoints_one_step_uniform(self):
        g = erdos_renyi(12, 0.4, np.random.default_rng(11))
        rng = np.random.default_rng(12)
        start = 3
        ends = batch_walk_endpoints(g, np.full(30_000, start), np.ones(30_000), rng)
        nbrs = g.indices[g.indptr[start] : g.indptr[start + 1]]
        counts = np.bincount(ends, minlength=12)[nbrs]
        assert stats.chisquare(counts).pvalue > 0.01
        assert counts.sum() == 30_000


class TestQuantileWalks:
    @pytest.mark.parametrize("p_halt", [0.05, 0.3, 0.9])
    def test_lengths_lie_in_their_tile(self, p_halt):
        # F(l) >= q/order and F(l - 1) < (q + 1)/order, with F(-1) = 0
        gp = GeometricParams(p_halt)
        order = 7
        tiles = list(graph._quantile_walks(5, order, p_halt, 40, np.random.default_rng(23)))
        assert [q for q, _, _ in tiles] == list(range(order))
        for q, starts, lengths in tiles:
            assert np.array_equal(starts, np.repeat(np.arange(5), 40))
            below = np.where(lengths > 0, geometric_cdf(np.maximum(lengths - 1, 0), gp), 0.0)
            assert np.all(geometric_cdf(lengths, gp) >= q / order)
            assert np.all(below < (q + 1) / order)


class TestCoupledLengths:
    def test_reversal_order_two(self):
        coupling = SigmaCoupling(np.array([1, 0]), 0.5)
        pairs = coupled_pairs(500, 0.5, np.random.default_rng(13), coupling)
        # u1 < 1/2 iff u2 >= 1/2
        assert np.all((pairs[:, 0] == 0) != (pairs[:, 1] == 0))

    def test_identity_order_two(self):
        coupling = SigmaCoupling(np.array([0, 1]), 0.5)
        pairs = coupled_pairs(500, 0.5, np.random.default_rng(14), coupling)
        assert np.all((pairs[:, 0] == 0) == (pairs[:, 1] == 0))

    @pytest.mark.parametrize("p_halt", [0.1, 0.3, 0.5])
    def test_marginals_geometric(self, p_halt):
        rng = np.random.default_rng(15)
        coupling = SigmaCoupling(np.array([2, 0, 3, 1]), p_halt)
        draws = coupled_pairs(20_000, p_halt, rng, coupling)
        assert geometric_chisquare_pvalue(draws[:, 0], p_halt) > 0.01
        assert geometric_chisquare_pvalue(draws[:, 1], p_halt) > 0.01

    def test_perm_validation(self):
        with pytest.raises(ValueError):
            SigmaCoupling(np.array([0, 0]), 0.3)

    def test_json_round_trip(self):
        coupling = SigmaCoupling(np.array([2, 0, 1]), 0.2, seed=9)
        back = SigmaCoupling.from_json(coupling.to_json())
        assert np.array_equal(back.perm, coupling.perm)
        assert back.p_halt == 0.2
        assert back.seed == 9


class TestAntitheticTermination:
    def test_never_same_timestep_below_half(self):
        pairs = coupled_pairs(400, 0.4, np.random.default_rng(16), "antithetic_termination")
        assert np.all(pairs[:, 0] != pairs[:, 1])

    def test_marginal_lengths_geometric(self):
        rng = np.random.default_rng(17)
        lengths = batch_walk_lengths(20_000, 0.3, rng, "antithetic_termination")
        assert geometric_chisquare_pvalue(lengths, 0.3) > 0.01

    def test_batch_variant_consistent(self):
        rng = np.random.default_rng(18)
        lengths = batch_walk_lengths(100_000, 0.4, rng, "antithetic_termination")
        l1, l2 = lengths[0::2], lengths[1::2]
        assert np.all(l1 != l2)
        assert geometric_chisquare_pvalue(lengths, 0.4) > 0.01

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            batch_walk_lengths(2, 1.0, np.random.default_rng(0), "antithetic_termination")


class TestSyntheticGraphs:
    def test_connectivity_matches_depth_first_search(self):
        rng = np.random.default_rng(24)
        verdicts = []
        for n, p in [(1, 0.5), (2, 0.5), (6, 0.2), (12, 0.15), (12, 0.3), (30, 0.1)]:
            for _ in range(20):
                W = np.triu(rng.random((n, n)) < p, k=1).astype(float)
                W = W + W.T
                verdicts.append(graph._is_connected(W))
                assert verdicts[-1] == connected_oracle(W)
        assert any(verdicts) and not all(verdicts)

    def test_connected(self):
        for seed in range(5):
            g = erdos_renyi(30, 0.08, np.random.default_rng(seed))
            lap = laplacian(g)
            # connectivity <=> second-smallest Laplacian eigenvalue positive
            assert np.sort(np.linalg.eigvalsh(lap))[1] > 1e-10
