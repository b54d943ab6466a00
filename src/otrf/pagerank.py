"""Exact and walk-sampled PageRank with coupled walk lengths.

The teleporting chain is never simulated directly: terminating walks
already account for the teleport term analytically, so each walk's
endpoint is one exact draw and every sample's node counts sum to the walk
total exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .graph import (
    GraphData,
    SigmaCoupling,
    _quantile_walks,
    batch_walk_endpoints,
    batch_walk_lengths,
    coupling_tag,
)
from .matching import hungarian
from .mathcore import _trial_rngs, ensure_rng


@dataclass
class PageRankVector:
    """Stationary distribution over nodes; entries sum to one."""

    rho: np.ndarray

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        if abs(float(self.rho.sum()) - 1.0) > 1e-12:
            raise ValueError("PageRank entries must sum to 1 within 1e-12")


@dataclass
class PageRankEstimate:
    """Monte Carlo PageRank with its exact counting representation.

    ``counts[i]`` walks terminated at node i out of ``total``; the integer
    identity counts.sum() == total makes each sample sum to one exactly,
    while the float view ``rho`` rounds at machine precision.
    """

    counts: np.ndarray
    total: int
    coupling: str

    @property
    def rho(self) -> np.ndarray:
        return self.counts / self.total


def transition_matrix(g: GraphData) -> np.ndarray:
    """Row-stochastic uniform-neighbour transition matrix."""
    return (g.weights > 0) / g.neighbor_counts[:, None]


def exact_pagerank(g: GraphData, p_halt: float) -> PageRankVector:
    """Stationary distribution of (1-p) P + (p/N) E by power iteration.

    Stops once successive iterates differ by less than 1e-12 in L1; raises
    ConvergenceError after 100,000 iterations.
    """
    if not 0 < p_halt < 1:
        raise ValueError("p_halt must lie in (0, 1)")
    n = g.n_nodes
    P = transition_matrix(g)
    rho = np.full(n, 1.0 / n)
    for _ in range(100_000):
        nxt = (1.0 - p_halt) * (P.T @ rho) + p_halt / n
        nxt /= nxt.sum()
        if np.abs(nxt - rho).sum() < 1e-12:
            return PageRankVector(nxt)
        rho = nxt
    raise ConvergenceError("power iteration did not reach 1e-12 in 100000 steps")


def mc_pagerank(g: GraphData, p_halt: float, m: int, coupling, rng):
    """Estimate PageRank from m terminating walks per node.

    Unbiased for every supported length coupling ("iid",
    "antithetic_termination", or a :class:`SigmaCoupling` imposing coupled
    lengths on walker pairs within each start node).  With ``rng`` a list
    of T generators, one per trial, all T x N x m walks run in one batch
    and the result is a list of T estimates; estimate i equals the one that
    ``rng[i]`` alone gives.
    """
    tag = coupling_tag(coupling, m)
    rngs = _trial_rngs(rng)
    n = g.n_nodes
    n_walks = n * m
    starts = np.tile(np.repeat(np.arange(n), m), len(rngs))
    lengths = batch_walk_lengths(starts.size, p_halt, rngs, coupling)
    ends = batch_walk_endpoints(g, starts, lengths, rngs)
    trial = np.repeat(np.arange(len(rngs)), n_walks)
    counts = np.bincount(trial * n + ends, minlength=len(rngs) * n).reshape(-1, n)
    estimates = [PageRankEstimate(c, n_walks, tag) for c in counts]
    return estimates if isinstance(rng, list) else estimates[0]


def solve_pagerank_sigma(g: GraphData, p_halt: float, order: int,
                         samples_per_quantile: int, rng) -> SigmaCoupling:
    """Learn a length coupling that minimises PageRank estimator variance.

    Estimates, per start node and length quantile, the distribution of walk
    endpoints; the matching cost couples quantiles whose endpoint profiles
    overlap least, averaged over target nodes, and is solved exactly.
    """
    if order < 2:
        raise ValueError("permutation order must be >= 2")
    rng = ensure_rng(rng)
    n = g.n_nodes
    profile = np.zeros((n, order, n))  # (start, quantile, end)
    for q, starts, lengths in _quantile_walks(n, order, p_halt, samples_per_quantile, rng):
        ends = batch_walk_endpoints(g, starts, lengths, rng)
        np.add.at(profile.reshape(-1), (starts * order + q) * n + ends, 1.0)
    profile /= samples_per_quantile
    cost = np.einsum("jqi,jri->qr", profile, profile) / n
    perm, _ = hungarian(cost)
    return SigmaCoupling(perm, p_halt)
