"""Exact and walk-sampled PageRank, including coupled estimators."""

import time

import numpy as np
import pytest

from otrf.graph import GraphData, SigmaCoupling, batch_walk_endpoints, erdos_renyi
from otrf.matching import hungarian
from otrf.mathcore import GeometricParams, geometric_cdf, geometric_inv_cdf
from otrf.pagerank import (
    _endpoint_profile,
    exact_pagerank,
    mc_pagerank,
    solve_pagerank_sigma,
    transition_matrix,
)

SELF_LOOP = GraphData(np.array([[1.0]]))


def dense_solve_oracle(g, p_halt):
    """PageRank as the Google matrix's dense eigenvector of eigenvalue 1."""
    n = g.n_nodes
    google = (1 - p_halt) * transition_matrix(g) + p_halt / n
    evals, evecs = np.linalg.eig(google.T)
    x = np.real(evecs[:, np.argmin(np.abs(evals - 1.0))])
    return x / x.sum()


def power_iteration_oracle(g, p_halt):
    """PageRank by power iteration, until successive iterates differ by
    less than 1e-12 in L1 (the library's method before its linear solve)."""
    n = g.n_nodes
    P = transition_matrix(g)
    rho = np.full(n, 1.0 / n)
    for _ in range(100_000):
        nxt = (1.0 - p_halt) * (P.T @ rho) + p_halt / n
        nxt /= nxt.sum()
        if np.abs(nxt - rho).sum() < 1e-12:
            return nxt
        rho = nxt
    raise AssertionError("power iteration did not reach 1e-12 in 100000 steps")


STAR = GraphData.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])


def profile_oracle(g, p_halt, order, samples, rng):
    """The sigma trainer's (start, quantile, end) endpoint profile, with each
    tile's lengths drawn by the loop the trainer once inlined."""
    n = g.n_nodes
    profile = np.zeros((n, order, n))
    starts = np.repeat(np.arange(n), samples)
    gp = GeometricParams(p_halt)
    for q in range(order):
        u = (q + rng.random(starts.size)) / order
        lengths = np.asarray(geometric_inv_cdf(u, gp))
        ends = batch_walk_endpoints(g, starts, lengths, rng)
        np.add.at(profile, (starts, q, ends), 1.0)
    return profile / samples


def profile_cost(profile):
    return np.einsum("jqi,jri->qr", profile, profile) / profile.shape[0]


class TestExactPagerank:
    def test_transition_matrix_matches_per_node_loop(self):
        rng = np.random.default_rng(16)
        scale = rng.uniform(0.1, 3.0, (8, 8))
        g = GraphData(erdos_renyi(8, 0.4, rng).weights * (scale + scale.T))
        P = np.zeros((8, 8))
        for u in range(8):
            nbrs = np.flatnonzero(g.weights[u] > 0)
            P[u, nbrs] = 1.0 / len(nbrs)
        assert np.array_equal(transition_matrix(g), P)

    def test_two_node_symmetry(self):
        g = GraphData(np.array([[0.0, 1.0], [1.0, 0.0]]))
        rho = exact_pagerank(g, 0.3)
        assert np.allclose(rho, [0.5, 0.5], atol=1e-12)

    def test_unit_sum(self):
        g = erdos_renyi(15, 0.3, np.random.default_rng(0))
        rho = exact_pagerank(g, 0.2)
        assert abs(rho.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("p_halt", [0.1, 0.5, 0.9])
    def test_matches_dense_solve(self, p_halt):
        g = erdos_renyi(25, 0.2, np.random.default_rng(1))
        rho = exact_pagerank(g, p_halt)
        assert np.max(np.abs(rho - dense_solve_oracle(g, p_halt))) < 1e-10

    @pytest.mark.parametrize("p_halt", [0.05, 0.3, 0.9])
    def test_matches_power_iteration(self, p_halt):
        rng = np.random.default_rng(2)
        scale = rng.uniform(0.1, 3.0, (25, 25))
        weighted = GraphData(erdos_renyi(25, 0.2, rng).weights * scale * scale.T)
        for g in (erdos_renyi(25, 0.2, rng), weighted):
            rho = exact_pagerank(g, p_halt)
            assert np.allclose(rho, power_iteration_oracle(g, p_halt), rtol=0, atol=1e-11)

    def test_bipartite_star_at_small_halt(self):
        # on a bipartite graph power iteration contracts only by 1 - p per
        # step, too slowly to converge in 100,000 steps at p = 1e-4; the
        # centre's share solves rho_c = (1 - p)(1 - rho_c) + p/5
        p = 1e-4
        rho = exact_pagerank(STAR, p)
        centre = (5 - 4 * p) / (5 * (2 - p))
        assert rho.sum() == pytest.approx(1.0, abs=1e-12)
        assert rho[0] == pytest.approx(centre, rel=1e-12)
        assert np.allclose(rho[1:], (1 - centre) / 4, rtol=1e-12, atol=0)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            exact_pagerank(SELF_LOOP, 0.0)


class TestMcPagerank:
    def test_self_loop_graph(self):
        counts = mc_pagerank(SELF_LOOP, 0.5, 8, "iid", np.random.default_rng(2))
        assert np.array_equal(counts, [8])

    def test_counts_sum_exactly(self):
        g = erdos_renyi(20, 0.25, np.random.default_rng(3))
        for tag in ("iid", "antithetic_termination"):
            counts = mc_pagerank(g, 0.3, 4, tag, np.random.default_rng(4))
            assert counts.dtype == np.int64 and counts.shape == (20,)
            assert int(counts.sum()) == 20 * 4

    def test_unbiased_against_exact(self):
        g = erdos_renyi(20, 0.25, np.random.default_rng(5))
        rho = exact_pagerank(g, 0.4)
        runs = 3000
        acc = np.zeros(20)
        acc2 = np.zeros(20)
        for t in range(runs):
            est = mc_pagerank(g, 0.4, 2, "iid", np.random.default_rng((6, t))) / (20 * 2)
            acc += est
            acc2 += est**2
        mean = acc / runs
        se = np.sqrt((acc2 / runs - mean**2) / runs)
        z = np.abs(mean - rho) / se
        assert np.max(z) < 4.0  # 20 simultaneous node comparisons

    def test_sigma_coupling_runs_and_sums(self):
        g = erdos_renyi(12, 0.4, np.random.default_rng(7))
        coupling = SigmaCoupling(np.arange(6)[::-1], 0.3)
        counts = mc_pagerank(g, 0.3, 4, coupling, np.random.default_rng(8))
        assert int(counts.sum()) == 12 * 4

    @pytest.mark.parametrize(
        "coupling", ["iid", "antithetic_termination", SigmaCoupling(np.arange(6)[::-1], 0.3)]
    )
    def test_list_of_generators_gives_one_row_per_trial(self, coupling):
        g = erdos_renyi(12, 0.4, np.random.default_rng(7))
        counts = mc_pagerank(g, 0.3, 4, coupling, [np.random.default_rng((11, t)) for t in range(3)])
        assert counts.dtype == np.int64 and counts.shape == (3, 12)
        for t, row in enumerate(counts):
            single = mc_pagerank(g, 0.3, 4, coupling, np.random.default_rng((11, t)))
            assert np.array_equal(row, single)

    def test_sigma_coupling_for_another_p_halt_rejected(self):
        g = erdos_renyi(12, 0.4, np.random.default_rng(7))
        coupling = SigmaCoupling(np.arange(6)[::-1], 0.5)
        with pytest.raises(ValueError, match=r"made for p_halt 0\.5 cannot run at p_halt 0\.3$"):
            mc_pagerank(g, 0.3, 4, coupling, np.random.default_rng(8))

    @pytest.mark.parametrize("coupling", ["iid", "antithetic_termination"])
    def test_zero_walkers_rejected(self, coupling):
        # m = 0 used to return an estimate over a total of zero walks
        g = erdos_renyi(8, 0.4, np.random.default_rng(9))
        with pytest.raises(ValueError, match=r"^m \(walkers\) must lie in \[1, inf\), got 0$"):
            mc_pagerank(g, 0.3, 0, coupling, np.random.default_rng(0))

    def test_paired_coupling_needs_even_m(self):
        g = erdos_renyi(8, 0.4, np.random.default_rng(9))
        with pytest.raises(ValueError):
            mc_pagerank(g, 0.3, 3, "antithetic_termination", np.random.default_rng(0))

    def test_error_decays_like_inverse_sqrt_m(self):
        g = erdos_renyi(15, 0.3, np.random.default_rng(20))
        rho = exact_pagerank(g, 0.4)
        ms = [2, 8, 32]
        means = []
        for m in ms:
            errs = [
                np.linalg.norm(
                    mc_pagerank(g, 0.4, m, "iid", np.random.default_rng((21, m, t))) / (15 * m)
                    - rho
                )
                for t in range(400)
            ]
            means.append(np.mean(errs))
        slope = np.polyfit(np.log(ms), np.log(means), 1)[0]
        assert abs(slope + 0.5) < 0.1


class TestSolvePagerankSigma:
    def test_matches_exhaustive_small_order(self):
        import itertools

        g = erdos_renyi(12, 0.35, np.random.default_rng(10))
        order, p_halt = 4, 0.3
        # reproduce the solver's cost construction, then compare optima
        cost = profile_cost(_endpoint_profile(g, p_halt, order))
        perm, total = hungarian(cost)
        best = min(
            sum(cost[q, other[q]] for q in range(order))
            for other in itertools.permutations(range(order))
        )
        assert total == pytest.approx(best, abs=1e-12)
        assert np.array_equal(solve_pagerank_sigma(g, p_halt, order).perm, perm)

    def test_profile_matches_tile_loop(self):
        # the tile loop's Monte Carlo profile converges to the exact one at
        # the sqrt(walks) rate: 16 times the walks, a quarter of the gap
        g = erdos_renyi(9, 0.4, np.random.default_rng(14))
        order = 5
        for p_halt in (0.1, 0.5, 0.9):
            exact = _endpoint_profile(g, p_halt, order)
            gaps = [
                np.mean([
                    np.linalg.norm(profile_oracle(g, p_halt, order, walks,
                                                  np.random.default_rng((15, walks, rep))) - exact)
                    for rep in range(8)
                ])
                for walks in (50, 800)
            ]
            assert 3.0 < gaps[0] / gaps[1] < 5.3, p_halt

    @pytest.mark.parametrize("p_halt", [0.01, 0.3, 0.99])
    def test_profile_rows_are_laws(self, p_halt):
        profile = _endpoint_profile(erdos_renyi(10, 0.4, np.random.default_rng(12)), p_halt, 6)
        assert profile.min() >= 0.0
        assert np.max(np.abs(profile.sum(axis=2) - 1.0)) < 1e-12

    @pytest.mark.parametrize("p_halt, order", [(0.99, 4), (0.3, 5), (0.05, 3)])
    def test_tail_matches_truncated_series(self, p_halt, order):
        # the closed-form tail against the length sum run until (1-p)^l
        # drops below 1e-17, every length's tile share taken from F directly
        g = erdos_renyi(8, 0.4, np.random.default_rng(13))
        gp = GeometricParams(p_halt)
        T = transition_matrix(g)
        series = np.zeros((8, order, 8))
        power = np.eye(8)
        for length in range(int(np.log(1e-17) / np.log1p(-p_halt)) + 1):
            lo = geometric_cdf(length - 1, gp) if length else 0.0
            hi = geometric_cdf(length, gp)
            for q in range(order):
                share = min((q + 1) / order, hi) - max(q / order, lo)
                series[:, q, :] += order * max(share, 0.0) * power
            power = power @ T
        assert np.allclose(_endpoint_profile(g, p_halt, order), series, rtol=0, atol=1e-13)

    def test_degenerate_high_halt_returns_valid_permutation(self):
        # L0 = 1: only the last tile holds lengths beyond 0
        g = erdos_renyi(10, 0.4, np.random.default_rng(12))
        coupling = solve_pagerank_sigma(g, 0.99, 10)
        assert sorted(coupling.perm.tolist()) == list(range(10))

    def test_low_halt_returns_valid_permutation_quickly(self):
        # L0 = 230 matrix powers
        g = erdos_renyi(10, 0.4, np.random.default_rng(12))
        start = time.perf_counter()
        coupling = solve_pagerank_sigma(g, 0.01, 10)
        assert time.perf_counter() - start < 5.0
        assert sorted(coupling.perm.tolist()) == list(range(10))

    def test_order_bound(self):
        with pytest.raises(ValueError, match=r"^order must lie in \[2, inf\), got 1$"):
            solve_pagerank_sigma(SELF_LOOP, 0.3, 1)

    @pytest.mark.parametrize("p_halt", [0.0, 1.0, float("nan")])
    def test_bad_p_halt_rejected(self, p_halt):
        with pytest.raises(ValueError, match=r"^p_halt must lie in \(0, 1\), got "):
            solve_pagerank_sigma(SELF_LOOP, p_halt, 4)

