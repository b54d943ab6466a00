"""Assignment solvers, matching costs and random-projection optimisation."""

import itertools

import numpy as np
import pytest

from otrf.graph import GraphKernelSpec, erdos_renyi, taylor_coefficients
from otrf.grf import estimate_quantile_projections, modulation_from_coefficients
from otrf.matching import (
    averaged_sigma_cost_matrix,
    build_sigma_cost_matrix,
    hungarian,
    jlt_dimension,
    jlt_reduce,
    outer_product_vector,
    quadratic_matching_random_projection,
    quadratic_objective,
    solve_sigma_coupling,
)


def hungarian_loop(cost):
    """The scalar column scan that ``hungarian`` replaced, kept as its oracle."""
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    match_row = np.zeros(n + 1, dtype=np.int64)
    way = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        match_row[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match_row[j0]
            delta = np.inf
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match_row[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match_row[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match_row[j0] = match_row[j1]
            j0 = j1
    perm = np.empty(n, dtype=np.int64)
    for j in range(1, n + 1):
        perm[match_row[j] - 1] = j - 1
    return perm, float(cost[np.arange(n), perm].sum())


def averaged_cost_loop(psi, max_pairs, rng):
    """The per-(q, q') loop that ``averaged_sigma_cost_matrix`` replaced."""
    n_nodes, order = psi.shape[0], psi.shape[1]
    cost = np.zeros((order, order))
    if n_nodes**2 <= max_pairs:
        for q1 in range(order):
            for q2 in range(q1, order):
                s = psi[:, q1, :] + psi[:, q2, :]
                b = s.T @ s
                cost[q1, q2] = cost[q2, q1] = float(np.sum(b * b)) / n_nodes**2
        return cost
    rng = np.random.default_rng(rng)
    rows = rng.integers(n_nodes, size=max_pairs)
    cols = rng.integers(n_nodes, size=max_pairs)
    for q1 in range(order):
        for q2 in range(q1, order):
            s = psi[:, q1, :] + psi[:, q2, :]
            dots = np.einsum("pk,pk->p", s[rows], s[cols])
            cost[q1, q2] = cost[q2, q1] = float(np.mean(dots**2))
    return cost


def brute_force_assignment(cost):
    n = cost.shape[0]
    best, best_perm = np.inf, None
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i, perm[i]] for i in range(n))
        if total < best:
            best, best_perm = total, perm
    return np.array(best_perm), best


class TestHungarian:
    def test_diagonal_dominance(self):
        perm, total = hungarian(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert np.array_equal(perm, [0, 1])
        assert total == 2.0

    def test_zero_diagonal(self):
        perm, total = hungarian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.array_equal(perm, [0, 1])
        assert total == 0.0

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            cost = rng.random((5, 5))
            perm, total = hungarian(cost)
            _, best = brute_force_assignment(cost)
            assert total == pytest.approx(best, abs=1e-12)
            assert sorted(perm.tolist()) == list(range(5))

    def test_negative_entries(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            cost = rng.standard_normal((4, 4))
            _, total = hungarian(cost)
            _, best = brute_force_assignment(cost)
            assert total == pytest.approx(best, abs=1e-12)

    def test_deterministic(self):
        cost = np.ones((3, 3))
        perm1, _ = hungarian(cost)
        perm2, _ = hungarian(cost.copy())
        assert np.array_equal(perm1, perm2)

    @pytest.mark.parametrize("kind", ["random", "symmetric", "integer_ties"])
    def test_matches_scalar_scan_oracle(self, kind):
        # argmin takes the first least column, as the strict < scan did
        rng = np.random.default_rng(["random", "symmetric", "integer_ties"].index(kind))
        for n in range(1, 31):
            for _ in range(3):
                if kind == "random":
                    cost = rng.standard_normal((n, n))
                elif kind == "symmetric":
                    cost = rng.random((n, n))
                    cost = cost + cost.T
                else:
                    cost = rng.integers(0, 3, size=(n, n)).astype(float)
                perm, total = hungarian(cost)
                oracle_perm, oracle_total = hungarian_loop(cost)
                assert np.array_equal(perm, oracle_perm)
                assert total == oracle_total

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            hungarian(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            hungarian(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestSigmaCostMatrix:
    def test_zero_projections(self):
        zeros = np.zeros((3, 5))
        assert np.array_equal(build_sigma_cost_matrix(zeros, zeros), np.zeros((3, 3)))

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((4, 6)), rng.standard_normal((4, 6))
        cost = build_sigma_cost_matrix(a, b)
        assert np.allclose(cost, cost.T)
        assert np.all(cost >= 0)

    def test_identical_projection_structure(self):
        # every quantile carries the same vector: entries are the squared
        # self dot of the doubled vector, constant across the matrix
        psi = np.tile([1.0, 2.0], (3, 1))
        cost = build_sigma_cost_matrix(psi, psi)
        norm_sq = 5.0
        assert np.allclose(cost, (4 * norm_sq) ** 2)
        assert np.allclose(cost, cost.T)

    def test_cross_favoring_two_by_two_swaps(self):
        perm, _ = hungarian(np.array([[10.0, 0.0], [0.0, 10.0]]))
        assert np.array_equal(perm, [1, 0])

    def test_spot_entries_direct_formula(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        cost = build_sigma_cost_matrix(a, b)
        for q1 in range(3):
            for q2 in range(3):
                direct = ((a[q1] + a[q2]) @ (b[q1] + b[q2])) ** 2
                assert cost[q1, q2] == pytest.approx(direct, rel=1e-12)

    def test_quantile_relabel_equivariance(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
        perm = rng.permutation(5)
        cost = build_sigma_cost_matrix(a, b)
        cost_perm = build_sigma_cost_matrix(a[perm], b[perm])
        assert np.allclose(cost_perm, cost[np.ix_(perm, perm)])

    @pytest.mark.parametrize(
        "n_nodes, max_pairs",
        [(4, 10_000), (4, 6), (12, 144), (12, 130)],
        ids=["every_pair", "sampled", "every_pair_chunked", "sampled_chunked"],
    )
    def test_averaged_matches_explicit_loop(self, n_nodes, max_pairs):
        # 144 and 130 pairs run through more than one batched chunk
        psi = np.random.default_rng(5).standard_normal((n_nodes, 3, n_nodes))
        batched = averaged_sigma_cost_matrix(psi, max_pairs=max_pairs, rng=8)
        oracle = averaged_cost_loop(psi, max_pairs, 8)
        assert np.allclose(batched, oracle, rtol=1e-12, atol=0)
        if n_nodes**2 <= max_pairs:
            manual = sum(
                build_sigma_cost_matrix(psi[i], psi[j])
                for i in range(n_nodes)
                for j in range(n_nodes)
            )
            assert np.allclose(batched, manual / n_nodes**2, rtol=1e-12, atol=0)

    def test_subsampled_average_tracks_full(self):
        psi = np.random.default_rng(6).standard_normal((10, 3, 6))
        full = averaged_sigma_cost_matrix(psi, max_pairs=10_000)
        sub = averaged_sigma_cost_matrix(psi, max_pairs=60, rng=7)
        assert np.allclose(sub, sub.T)
        assert np.all(sub >= 0)
        assert np.linalg.norm(sub - full) / np.linalg.norm(full) < 0.5


class TestSolveSigmaCoupling:
    def test_matches_exhaustive_diagonal_objective(self):
        g = erdos_renyi(10, 0.4, np.random.default_rng(6))
        spec = GraphKernelSpec("d_regularized_laplacian", sigma=1.0, degree=2)
        f = modulation_from_coefficients(taylor_coefficients(spec, 30), 30)
        rng = np.random.default_rng(7)
        qp = estimate_quantile_projections(g, 5, 0.3, f, 30, rng)
        cost = averaged_sigma_cost_matrix(qp)
        perm, total = hungarian(cost)
        _, best = brute_force_assignment(cost)
        assert total == pytest.approx(best, abs=1e-12)
        coupling = solve_sigma_coupling(g, 0.3, 5, f, 30, np.random.default_rng(7))
        assert sorted(coupling.perm.tolist()) == list(range(5))

    def test_order_bound(self):
        g = erdos_renyi(6, 0.5, np.random.default_rng(8))
        spec = GraphKernelSpec("diffusion", sigma=1.0)
        f = modulation_from_coefficients(taylor_coefficients(spec, 10), 10)
        with pytest.raises(ValueError):
            solve_sigma_coupling(g, 0.3, 1, f, 10, np.random.default_rng(0))


class TestJlt:
    def test_zero_vector(self):
        out = jlt_reduce(np.zeros((2, 50)), 7, np.random.default_rng(9))
        assert np.array_equal(out, np.zeros((2, 7)))

    def test_dimension_formula(self):
        assert jlt_dimension(8, 0.2) == int(np.ceil(8 * np.log(8) / 0.04))

    @pytest.mark.parametrize("eps", [0.0, -0.1, np.nan])
    def test_dimension_refuses_bad_eps(self, eps):
        # eps = 0 ended in OverflowError, and nan in int()'s own ValueError
        with pytest.raises(ValueError, match=rf"^eps must lie in \(0, inf\), got {eps}$"):
            jlt_dimension(8, eps)

    def test_unbiased_dot_products(self):
        rng = np.random.default_rng(10)
        u = rng.standard_normal(60)
        v = rng.standard_normal(60)
        trials = 10_000
        dots = np.empty(trials)
        for t in range(trials):
            red = jlt_reduce(np.vstack([u, v]), 5, np.random.default_rng((11, t)))
            dots[t] = red[0] @ red[1]
        se = dots.std(ddof=1) / np.sqrt(trials)
        assert abs(dots.mean() - u @ v) < 3 * se

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            jlt_reduce(np.zeros((1, 4)), 0, np.random.default_rng(0))


class TestQuadraticSolver:
    def test_single_vector_identity(self):
        perm = quadratic_matching_random_projection(
            np.ones((1, 3)), 5, np.random.default_rng(12)
        )
        assert np.array_equal(perm, [0])

    def test_never_worse_than_diagonal_solution(self):
        rng = np.random.default_rng(13)
        for seed in range(10):
            vectors = np.random.default_rng(seed).standard_normal((5, 4))
            diag_perm, _ = hungarian(build_sigma_cost_matrix(vectors, vectors))
            diag_obj = quadratic_objective(vectors, diag_perm)
            perm = quadratic_matching_random_projection(vectors, 8, rng)
            assert quadratic_objective(vectors, perm) <= diag_obj + 1e-12

    def test_best_of_k_monotone(self):
        vectors = np.random.default_rng(14).standard_normal((5, 4))
        objs = []
        for k in (1, 5, 25):
            perm = quadratic_matching_random_projection(
                vectors, k, np.random.default_rng(15)
            )
            objs.append(quadratic_objective(vectors, perm))
        assert objs[0] >= objs[1] >= objs[2]

    def test_outer_product_vector_symmetry(self):
        v = np.array([1.0, 2.0])
        u = outer_product_vector(v)
        assert np.array_equal(u, [1.0, 2.0, 2.0, 4.0])
        assert np.array_equal(u.reshape(2, 2), u.reshape(2, 2).T)

    def test_objective_equals_outer_product_norms(self):
        rng = np.random.default_rng(16)
        vectors = rng.standard_normal((4, 3))
        perm = np.array([2, 3, 0, 1])
        total = np.zeros(9)
        for q in range(4):
            total += outer_product_vector(vectors[q] + vectors[perm[q]])
        assert quadratic_objective(vectors, perm) == pytest.approx(
            float(total @ total) / 1, rel=1e-10
        )
