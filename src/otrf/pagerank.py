"""Exact and walk-sampled PageRank with coupled walk lengths.

The teleporting chain is never simulated directly: terminating walks
already account for the teleport term analytically, so each walk's
endpoint is one exact draw and every sample's node counts sum to the walk
total exactly.
"""

from __future__ import annotations

import numpy as np

from .graph import GraphData, SigmaCoupling, batch_walk_endpoints, batch_walk_lengths, coupling_tag
from .matching import hungarian
from .mathcore import GeometricParams, _check_range, _trial_rngs, geometric_cdf, geometric_inv_cdf


def transition_matrix(g: GraphData) -> np.ndarray:
    """Row-stochastic uniform-neighbour transition matrix."""
    return (g.weights > 0) / g.neighbor_counts[:, None]


def exact_pagerank(g: GraphData, p_halt: float) -> np.ndarray:
    """Stationary distribution of (1-p) P + (p/N) E by one linear solve.

    rho solves (I - (1-p) P^T) rho = (p/N) 1, a nonsingular system for any
    p in (0, 1) whose solution is positive, renormalised to sum to one.
    """
    GeometricParams(p_halt)  # p_halt in (0, 1)
    n = g.n_nodes
    rho = np.linalg.solve(np.eye(n) - (1.0 - p_halt) * transition_matrix(g).T,
                          np.full(n, p_halt / n))
    return rho / rho.sum()


def mc_pagerank(g: GraphData, p_halt: float, m: int, coupling, rng) -> np.ndarray:
    """Walk end counts of m terminating walks per node, as int64.

    Each row sums to N m exactly, and counts / (N m) is an unbiased PageRank
    estimate for every supported length coupling ("iid",
    "antithetic_termination", or a :class:`SigmaCoupling` imposing coupled
    lengths on walker pairs within each start node).  One generator gives
    (N,) counts.  With ``rng`` a list of T generators, one per trial, all
    T x N x m walks run in one batch and the counts are (T, N); row i
    equals the counts that ``rng[i]`` alone gives.
    """
    coupling_tag(coupling, m)  # pairs must not span two start nodes
    rngs = _trial_rngs(rng)
    n = g.n_nodes
    n_walks = n * m
    starts = np.tile(np.repeat(np.arange(n), m), len(rngs))
    lengths = batch_walk_lengths(starts.size, p_halt, rngs, coupling)
    ends = batch_walk_endpoints(g, starts, lengths, rngs)
    trial = np.repeat(np.arange(len(rngs)), n_walks)
    counts = np.bincount(trial * n + ends, minlength=len(rngs) * n).reshape(-1, n)
    return counts if isinstance(rng, list) else counts[0]


def _endpoint_profile(g: GraphData, p_halt: float, order: int) -> np.ndarray:
    """Exact (start j, tile q, end) law of a walk's endpoint, its length drawn
    from the qth of ``order`` equal-probability tiles of the geometric law:
    sum_l P(L = l | q) T^l[j], P(L = l | q) = order |tile q & (F(l-1), F(l)]|.
    Every length from L0, the first with (1-p)^L0 <= 1/order, lies in the
    last tile, where they sum to order p (1-p)^L0 T^L0 (I - (1-p) T)^-1."""
    gp = GeometricParams(p_halt)
    _check_range("order", order, "[2, inf)")
    l0 = geometric_inv_cdf(1.0 - 1.0 / order, gp) + 1
    cdf = np.concatenate([[0.0], geometric_cdf(np.arange(l0), gp)])  # F(-1) = 0
    edges = np.arange(order + 1) / order
    weights = order * np.clip(np.minimum(edges[1:], cdf[1:, None])
                              - np.maximum(edges[:-1], cdf[:-1, None]), 0.0, None)
    T = transition_matrix(g)
    profile, power = np.zeros((g.n_nodes, order, g.n_nodes)), np.eye(g.n_nodes)
    for tile_weights in weights:  # one power T^l at a time
        for q in np.flatnonzero(tile_weights):
            profile[:, q] += tile_weights[q] * power
        power = power @ T
    # T^L0 commutes with I - (1-p) T, so one solve gives the tail
    tail = np.linalg.solve(np.eye(g.n_nodes) - (1.0 - p_halt) * T, power)
    profile[:, -1] += order * p_halt * (1.0 - p_halt) ** l0 * tail
    return profile


def solve_pagerank_sigma(g: GraphData, p_halt: float, order: int) -> SigmaCoupling:
    """Learn a length coupling that minimises PageRank estimator variance:
    the matching couples length tiles whose exact endpoint profiles overlap
    least, averaged over start nodes, and is solved exactly."""
    profile = _endpoint_profile(g, p_halt, order)
    perm, _ = hungarian(np.einsum("jqi,jri->qr", profile, profile) / g.n_nodes)
    return SigmaCoupling(perm, p_halt)
