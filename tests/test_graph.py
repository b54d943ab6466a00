"""Graph structure, kernels, Taylor expansions and walk couplings."""

import json
import math

import numpy as np
import pytest
from scipy import stats

from otrf import graph, grf
from otrf.graph import (
    GraphData,
    GraphKernelSpec,
    SigmaCoupling,
    batch_walk_endpoints,
    batch_walk_lengths,
    erdos_renyi,
    exact_graph_kernel,
    normalized_laplacian,
    taylor_coefficients,
)
from otrf.mathcore import GeometricParams, geometric_cdf

TWO_PATH = GraphData(np.array([[0.0, 1.0], [1.0, 0.0]]))


def laplacian(g: GraphData) -> np.ndarray:
    """Unnormalised Laplacian D - W; rows sum to zero."""
    return np.diag(g.degrees) - g.weights


def write_edge_list(g: GraphData, path):
    """``g``'s upper-triangle edges as the ``u v [weight]`` lines
    GraphData.from_file reads; a weight of 1 is left out."""
    u, v = np.nonzero(np.triu(g.weights))
    weights = g.weights[u, v]
    path.write_text("".join(f"{a} {b}\n" if w == 1.0 else f"{a} {b} {float(w)!r}\n"
                            for a, b, w in zip(u, v, weights)))


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


def random_walk_case(seed):
    """A seeded batch for the walk engine: (graph, starts, lengths, walks per
    trial, trial seeds).  Each trial halts at its own rate, so the trials
    hold different numbers of live walks at each step; with two trials or
    more, the second one's walks all have length 0."""
    rs = np.random.default_rng(seed)
    n = int(rs.integers(3, 10))
    g = erdos_renyi(n, 0.5, rs)
    n_trials, per_trial = int(rs.integers(1, 6)), int(rs.integers(1, 40))
    starts = rs.integers(0, n, n_trials * per_trial)
    lengths = rs.geometric(rs.uniform(0.05, 0.6, n_trials).repeat(per_trial)) - 1
    lengths[per_trial : 2 * per_trial] = 0
    return g, starts, lengths, per_trial, np.random.SeedSequence(seed).spawn(n_trials)


def antithetic_oracle(n_walks, p_halt, rngs):
    """Per-step antithetic lengths for a list of trial generators: every
    trial with a live walk draws one uniform per pair per step; a pair's
    partner halts on the uniform plus one half, mod 1."""
    per_trial = n_walks // len(rngs)
    lengths = np.zeros((len(rngs), per_trial), dtype=np.int64)
    alive = np.ones((len(rngs), per_trial), dtype=bool)
    live = np.arange(len(rngs))
    while live.size:
        t = np.empty((live.size, per_trial))
        t[:, 0::2] = [rngs[i].random(per_trial // 2) for i in live]
        t[:, 1::2] = (t[:, 0::2] + 0.5) % 1.0
        still = alive[live] & (t >= p_halt)
        alive[live] = still
        lengths[live] += still
        live = live[still.any(axis=1)]
    return lengths.ravel()


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

    def test_nan_weight_named_before_symmetry(self):
        # a NaN weight, unequal to itself, was once reported as asymmetry
        with pytest.raises(ValueError, match=r"^weights must lie in \(-inf, inf\), got nan$"):
            GraphData(np.array([[0.0, np.nan], [np.nan, 0.0]]))

    def test_rejects_isolated(self):
        with pytest.raises(ValueError):
            GraphData(np.array([[0.0, 0.0], [0.0, 0.0]]))

    def test_rejects_empty(self):
        # the empty graph once passed and failed later, naming something else
        with pytest.raises(ValueError, match=r"n_nodes must lie in \[1, inf\), got 0"):
            GraphData(np.zeros((0, 0)))

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
        write_edge_list(g, path)
        back = GraphData.from_file(path)
        assert np.array_equal(back.weights, g.weights)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\n0 1 2 3\n")
        with pytest.raises(ValueError):
            GraphData.from_file(path)

    @pytest.mark.parametrize(
        "text, message",
        [("0 1\n-1 2\n", "bad.edges:2: node id must lie in [0, inf), got -1"),
         ("\n", "bad.edges: no edges")],
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

    def test_inverse_cosine_matches_factorial_loop(self):
        # the factorial loop as oracle; its products round in another order
        c, fact, oracle = np.pi / 4.0, 1.0, []
        for i in range(65):
            fact *= max(i, 1)
            oracle.append((np.sqrt(2.0) / 2.0) * (-1.0) ** (i // 2) * c**i / fact)
        alpha = taylor_coefficients(GraphKernelSpec("inverse_cosine"), 64)
        np.testing.assert_allclose(alpha, oracle, rtol=1e-14, atol=0)

    def test_negative_order_rejected(self):
        # used to return an empty array
        spec = GraphKernelSpec("diffusion")
        with pytest.raises(ValueError, match=r"^max_order must lie in \[0, inf\), got -1$"):
            taylor_coefficients(spec, -1)


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

    @pytest.mark.parametrize("budget", [None, 40])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_batches_match_oracle(self, seed, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(graph, "_STREAM_BUDGET", budget)
        g, starts, lengths, per_trial, seeds = random_walk_case(seed)
        rngs = [np.random.default_rng(s) for s in seeds]
        ends = batch_walk_endpoints(g, starts, lengths, rngs)
        for i, seed_i in enumerate(seeds):
            rng = np.random.default_rng(seed_i)
            block = slice(i * per_trial, (i + 1) * per_trial)
            assert np.array_equal(ends[block], endpoint_oracle(g, starts[block], lengths[block], rng))
            assert np.array_equal(rngs[i].random(4), rng.random(4))

    @pytest.mark.parametrize("n_starts, n_lengths", [(3, 4), (4, 3)])
    def test_starts_and_lengths_sizes_must_match(self, n_starts, n_lengths):
        # 3 starts with 4 lengths once returned 3 end nodes
        with pytest.raises(ValueError, match=f"got {n_starts} starts and {n_lengths} lengths"):
            batch_walk_endpoints(TWO_PATH, np.zeros(n_starts), [1, 1, 1, 0][:n_lengths],
                                 np.random.default_rng(0))

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
    def test_lengths_lie_in_their_tile(self, p_halt, monkeypatch):
        # F(l) >= q/order and F(l - 1) < (q + 1)/order, with F(-1) = 0, for
        # the walks the GRF sigma trainer projects, tile by tile
        gp = GeometricParams(p_halt)
        order = 7
        tiles = []
        monkeypatch.setattr(grf, "_projected_batch",
                            lambda g, starts, lengths, *_: tiles.append((starts, lengths)))
        complete = GraphData(np.ones((5, 5)) - np.eye(5))
        grf.estimate_quantile_projections(complete, order, p_halt, None, 40,
                                          np.random.default_rng(23))
        assert len(tiles) == order
        for q, (starts, lengths) in enumerate(tiles):
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

    def test_fractional_perm_rejected(self):
        # [0.5, 1.2] was once truncated to the permutation [0, 1]
        with pytest.raises(ValueError, match="perm must hold whole numbers, got 0.5"):
            SigmaCoupling([0.5, 1.2], 0.1)
        text = json.dumps({"sigma": [1.5, 2], "n": 2, "p_halt": 0.1, "seed": None})
        with pytest.raises(ValueError, match="perm must hold whole numbers, got 0.5"):
            SigmaCoupling.from_json(text)

    def test_json_fields_must_agree(self):
        # both texts once loaded: n was ignored and a fractional seed kept
        text = json.dumps({"sigma": [2, 1], "n": 5, "p_halt": 0.3})
        with pytest.raises(ValueError, match="^n must equal the length of sigma, 2, got 5$"):
            SigmaCoupling.from_json(text)
        text = json.dumps({"sigma": [2, 1], "n": 2, "p_halt": 0.3, "seed": 1.5})
        with pytest.raises(ValueError, match="^seed must hold whole numbers, got 1.5$"):
            SigmaCoupling.from_json(text)

    @pytest.mark.parametrize("p_halt", [2.0, 1.0, 0.0, -0.5, float("nan")])
    def test_p_halt_validation(self, p_halt):
        with pytest.raises(ValueError, match="p_halt must lie in"):
            SigmaCoupling(np.array([1, 0]), p_halt)
        text = json.dumps({"sigma": [2, 1], "n": 2, "p_halt": p_halt, "seed": None})
        with pytest.raises(ValueError, match="p_halt must lie in"):
            SigmaCoupling.from_json(text)

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

    @pytest.mark.parametrize("budget", [None, 40])
    @pytest.mark.parametrize("per_trial", [2, 8, 120])
    @pytest.mark.parametrize("n_trials", [1, 3, 7])
    @pytest.mark.parametrize("p_halt", [0.05, 0.3, 0.49, 0.5, 0.51, 0.9, 0.99])
    def test_rounds_match_per_step_oracle(self, p_halt, n_trials, per_trial, budget,
                                          monkeypatch):
        # a budget of 40 uniforms makes long walks span many rounds
        if budget is not None:
            monkeypatch.setattr(graph, "_STREAM_BUDGET", budget)
        seeds = np.random.SeedSequence([25, n_trials, per_trial]).spawn(n_trials)
        rngs = [np.random.default_rng(s) for s in seeds]
        oracle_rngs = [np.random.default_rng(s) for s in seeds]
        n_walks = n_trials * per_trial
        lengths = batch_walk_lengths(n_walks, p_halt, rngs, "antithetic_termination")
        assert np.array_equal(lengths, antithetic_oracle(n_walks, p_halt, oracle_rngs))
        # each generator is left where the per-step loop leaves it
        after = [r.random() for r in rngs]
        assert after == [r.random() for r in oracle_rngs]
        one = np.random.default_rng(seeds[-1])
        last = batch_walk_lengths(per_trial, p_halt, one, "antithetic_termination")
        assert np.array_equal(last, lengths[-per_trial:])
        assert one.random() == after[-1]


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
