"""Assignment solvers and walk-length coupling optimisation.

The length coupling of paired walkers is a permutation matching between
quantiles of the geometric length distribution.  The diagonal-restricted
objective is a linear assignment problem solved exactly in O(n^3); the full
quadratic objective is attacked with random Gaussian projections, made
node-count independent by Johnson-Lindenstrauss reduction.
"""

from __future__ import annotations

import numpy as np

from .graph import GraphData, SigmaCoupling
from .grf import ModulationFn, estimate_quantile_projections
from .mathcore import _check_finite, _check_range, ensure_rng


def hungarian(cost: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-cost perfect matching of a square cost matrix.

    Potential-based shortest augmenting paths, O(n^3); handles negative
    entries.  Returns (perm, total) with perm[row] = assigned column.  Each
    step updates every unused column at once and moves to the first one of
    least reduced cost (``np.argmin``), so ties go to the smallest row, then
    column: the result is deterministic given the input.  Hand-rolled
    rather than scipy's ``linear_sum_assignment``: the graph kinds load no
    scipy (CI checks that ``import otrf.cli`` loads none), and importing
    ``scipy.optimize`` alone took 0.37-0.52 s on a 2-core machine, about
    twice a graph kind's whole setup (0.2 s).
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost matrix must be square, got {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    match_row = np.zeros(n + 1, dtype=np.int64)  # column j -> row (1-indexed)
    way = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        match_row[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while match_row[j0]:
            used[j0] = True
            i0 = match_row[j0]
            free = np.flatnonzero(~used)
            cur = cost[i0 - 1, free - 1] - u[i0] - v[free]
            better = cur < minv[free]
            minv[free[better]] = cur[better]
            way[free[better]] = j0
            j1 = free[np.argmin(minv[free])]
            delta = minv[j1]
            u[match_row[used]] += delta
            v[used] -= delta
            minv[free] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            match_row[j0] = match_row[j1]
            j0 = j1
    perm = np.empty(n, dtype=np.int64)
    perm[match_row[1:] - 1] = np.arange(n)
    return perm, float(cost[np.arange(n), perm].sum())


def _pair_sum_dots(a: np.ndarray) -> np.ndarray:
    """(x_q + x_q') . (y_q + y_q') from a[..., q, q'] = x_q . y_q'.

    The four-term expansion over the last two axes, the one place the
    pair-sum dot of the matching costs is written.
    """
    diag = np.diagonal(a, axis1=-2, axis2=-1)
    return diag[..., :, None] + a + np.swapaxes(a, -1, -2) + diag[..., None, :]


def build_sigma_cost_matrix(psi_i: np.ndarray, psi_j: np.ndarray) -> np.ndarray:
    """Diagonal-restricted matching costs for one node pair.

    Entry (q, q') is the squared dot product of summed quantile projections,
    [(psi_i(q) + psi_i(q'))^T (psi_j(q) + psi_j(q'))]^2; symmetric (up to
    rounding) and nonnegative.
    """
    psi_i = np.asarray(psi_i, dtype=float)
    psi_j = np.asarray(psi_j, dtype=float)
    if psi_i.shape != psi_j.shape:
        raise ValueError(f"shape mismatch: {psi_i.shape} vs {psi_j.shape}")
    _check_finite("psi_i", psi_i)
    _check_finite("psi_j", psi_j)
    return _pair_sum_dots(psi_i @ psi_j.T) ** 2


# node pairs per batched contraction: a chunk holds two (pairs, order,
# n_nodes) blocks of projections, so this bounds the memory of one step
_PAIR_CHUNK = 50


def averaged_sigma_cost_matrix(psi: np.ndarray, max_pairs: int = 2000,
                               rng=None) -> np.ndarray:
    """Cost matrix averaged over node pairs of (n_nodes, order, dim) projections.

    The mean of :func:`build_sigma_cost_matrix` over every ordered node pair
    when the pair count is at most ``max_pairs``; above that, over a seeded
    uniform sample of ``max_pairs`` pairs.  Either way the pairs run through
    one batched contraction, a chunk of pairs at a time.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.ndim != 3 or not len(psi):
        raise ValueError(f"psi must be an (n_nodes, order, dim) array with n_nodes >= 1, "
                         f"got shape {psi.shape}")
    _check_finite("psi", psi)
    _check_range("max_pairs", max_pairs, "[1, inf)")
    n_nodes = psi.shape[0]
    if n_nodes**2 <= max_pairs:
        rows, cols = np.divmod(np.arange(n_nodes**2), n_nodes)
    else:
        rng = ensure_rng(rng if rng is not None else 0)
        rows = rng.integers(n_nodes, size=max_pairs)
        cols = rng.integers(n_nodes, size=max_pairs)
    total = 0.0
    for start in range(0, len(rows), _PAIR_CHUNK):
        chunk = slice(start, start + _PAIR_CHUNK)
        dots = _pair_sum_dots(psi[rows[chunk]] @ np.swapaxes(psi[cols[chunk]], 1, 2))
        total = total + np.sum(dots**2, axis=0)
    return total / len(rows)


def solve_sigma_coupling(g: GraphData, p_halt: float, order: int,
                         f: ModulationFn, walks_per_quantile: int, rng) -> SigmaCoupling:
    """Learn the length-coupling permutation on a training graph.

    Estimates per-quantile projections by simulation, averages the
    diagonal-restricted cost over node pairs (every pair up to 2000, a
    seeded sample of 2000 above that), and solves the matching exactly.
    """
    _check_range("order", order, "[2, inf)")
    rng = ensure_rng(rng)
    psi = estimate_quantile_projections(g, order, p_halt, f, walks_per_quantile, rng)
    cost = averaged_sigma_cost_matrix(psi, rng=rng)
    perm, _ = hungarian(cost)
    return SigmaCoupling(perm, p_halt)


# ---------------------------------------------------------------------------
# Quadratic objective and random-projection solver


def outer_product_vector(v: np.ndarray) -> np.ndarray:
    """Flattened self outer product vec(v x v), symmetric under index swap."""
    v = np.asarray(v, dtype=float)
    return np.outer(v, v).ravel()


def jlt_reduce(vectors: np.ndarray, r: int, rng) -> np.ndarray:
    """Gaussian random projection to r dimensions, (1/sqrt(r)) G u.

    Unbiased for dot products; with r = ceil(8 log n / eps^2) the squared
    norms of sums and differences are preserved within eps with high
    probability.
    """
    _check_range("r", r, "[1, inf)")
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    rng = ensure_rng(rng)
    G = rng.standard_normal((r, vectors.shape[1]))
    return vectors @ G.T / np.sqrt(r)


def jlt_dimension(n: int, eps: float, c: float = 8.0) -> int:
    """Projection count r = ceil(c log(n) / eps^2)."""
    _check_range("n", n, "[1, inf)")
    _check_range("eps", eps, "(0, inf)")
    return int(np.ceil(c * np.log(n) / eps**2))


def quadratic_objective(vectors: np.ndarray, perm: np.ndarray) -> float:
    """Full self-pair matching objective sum_{q1,q2} (s_q1 . s_q2)^2.

    s_q = v_q + v_perm(q); equals the squared L2 norm of the summed outer
    products of the matched pairs.
    """
    vectors = np.asarray(vectors, dtype=float)
    s = vectors + vectors[np.asarray(perm, dtype=np.int64)]
    gram = s @ s.T
    return float(np.sum(gram * gram))


def quadratic_matching_random_projection(vectors: np.ndarray, k_iters: int,
                                         rng) -> np.ndarray:
    """Best-of-k random-projection solver for the full quadratic objective.

    Iteration 0 seeds the candidate set with the diagonal-restricted exact
    matching, so the returned permutation can never do worse than it under
    the true objective.  Each further iteration projects the outer-product
    vectors onto a random Gaussian direction, solves the induced linear
    matching and records the candidate; the candidate with the smallest
    true objective wins.
    """
    _check_range("k_iters", k_iters, "[1, inf)")
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    rng = ensure_rng(rng)
    n, dim = vectors.shape
    if n == 1:
        return np.zeros(1, dtype=np.int64)

    diag_cost = build_sigma_cost_matrix(vectors, vectors)
    best_perm, _ = hungarian(diag_cost)
    best_obj = quadratic_objective(vectors, best_perm)
    for _ in range(k_iters):
        gm = rng.standard_normal((dim, dim))
        perm, _ = hungarian(_pair_sum_dots(vectors @ gm @ vectors.T))
        obj = quadratic_objective(vectors, perm)
        if obj < best_obj:
            best_obj = obj
            best_perm = perm
    return best_perm
