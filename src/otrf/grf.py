"""Sparse node features from importance-weighted random-walk prefix sums.

A walk's projection adds, at every visited node, the product of traversed
normalised-adjacency weights times a modulation coefficient, divided by the
probability of observing that prefix.  Averaged over walks, dot products of
these features estimate graph node kernels whose adjacency Taylor
coefficients equal the self-convolution of the modulation sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import GraphData, _walk, batch_walk_lengths, coupling_tag
from .mathcore import (GeometricParams, _check_finite, _check_range, _trial_rngs, ensure_rng,
                       geometric_inv_cdf)

K_MAX_DEFAULT = 64

# walks longer than the modulation horizon contribute only their prefixes;
# this counter records how often that truncation happened
_truncations = 0


def truncation_count() -> int:
    return _truncations


@dataclass
class ModulationFn:
    """Coefficient sequence whose self-convolution gives kernel coefficients."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.ndim != 1 or not self.coeffs.size:
            raise ValueError(f"coeffs must be a nonempty sequence, got shape {self.coeffs.shape}")
        _check_finite("coeffs", self.coeffs)

    @property
    def k_max(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, k: int) -> float:
        return float(self.coeffs[k]) if 0 <= k <= self.k_max else 0.0


def modulation_from_coefficients(alpha, k_max: int = K_MAX_DEFAULT) -> ModulationFn:
    """Discrete square root of a coefficient sequence under convolution.

    f(0) = sqrt(a_0) and f(k) = (a_k - sum_{j=1}^{k-1} f(j) f(k-j)) / (2 f(0)),
    so (f * f)(k) = a_k for k <= k_max.  Requires finite a_k and a_0 > 0,
    and refuses alpha whose recursion overflows.
    """
    alpha = np.asarray(alpha, dtype=float)
    _check_range("k_max", k_max, "[0, inf)")
    if alpha.ndim != 1 or alpha.size < 1:
        raise ValueError(f"alpha must be a nonempty sequence, got shape {alpha.shape}")
    for k, a_k in enumerate(alpha):
        _check_range(f"alpha[{k}]", a_k, "(-inf, inf)" if k else "(0, inf)")
    padded = np.zeros(k_max + 1)
    padded[: min(alpha.size, k_max + 1)] = alpha[: k_max + 1]
    f = np.zeros(k_max + 1)
    f[0] = np.sqrt(padded[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, k_max + 1):
            inner = np.dot(f[1:k], f[k - 1 : 0 : -1]) if k >= 2 else 0.0
            f[k] = (padded[k] - inner) / (2.0 * f[0])
    if not np.all(np.isfinite(f)):
        k = int(np.argmin(np.isfinite(f)))
        raise ValueError(f"alpha has no finite modulation square root: f({k}) overflows")
    return ModulationFn(f)


def grf_features(g: GraphData, node: int, m: int, coupling, f: ModulationFn,
                 p_halt: float, rng) -> np.ndarray:
    """Average projection of m walks from one node under a length coupling.

    ``coupling`` is "iid", "antithetic_termination", or a
    :class:`SigmaCoupling`; the paired couplings need an even m.  Coupled
    variants impose lengths on walk pairs while leaving every walk's
    marginal unchanged.  This is one row of :func:`grf_feature_matrix`.
    """
    _check_range("node", node, f"[0, {g.n_nodes})")
    return _node_features(g, [node], m, coupling, f, p_halt, rng)[0, 0]


def _projected_batch(g: GraphData, starts: np.ndarray, lengths: np.ndarray,
                     f: ModulationFn, p_halt: float, rng,
                     row_of_walk: np.ndarray, out: np.ndarray):
    """Step a batch of fixed-length walks, scattering prefix loads into out.

    ``out`` is a C-contiguous block with one row per feature (node) and one
    column per graph node; ``row_of_walk`` maps each walk to its output
    row.  All walks advance synchronously so the modulation coefficient is
    a scalar per step.
    ``rng`` may be a list of generators, one per equal block of walks, as
    in :func:`otrf.graph.batch_walk_endpoints`.  Steps past ``f.k_max``
    add no load and draw no uniform.
    """
    global _truncations
    cur = np.asarray(starts, dtype=np.int64).copy()
    lengths = np.asarray(lengths, dtype=np.int64)
    _truncations += int(np.count_nonzero(lengths > f.k_max))
    weight = np.ones(cur.size)
    # add.at on one flat index runs 4-5x faster than on a (row, column) pair
    flat, row_start = out.reshape(-1), row_of_walk * out.shape[1]
    np.add.at(flat, row_start + cur, f(0))
    for t, idx, pick in _walk(g, cur, np.minimum(lengths, f.k_max), _trial_rngs(rng)):
        weight[idx] *= g.step_weight[pick] / (1.0 - p_halt)
        np.add.at(flat, row_start[idx] + cur[idx], weight[idx] * f(t))


def _node_features(g: GraphData, nodes, m: int, coupling, f: ModulationFn,
                   p_halt: float, rng) -> np.ndarray:
    """Mean projection of m coupled walks from each of ``nodes``.

    One (len(nodes), N) block per trial generator, stacked on a leading
    trial axis.
    """
    coupling_tag(coupling, m)
    rngs = _trial_rngs(rng)
    nodes = np.asarray(nodes, dtype=np.int64)
    rows = np.repeat(np.arange(len(rngs) * nodes.size), m)
    starts = np.tile(nodes, len(rngs))[rows]
    lengths = batch_walk_lengths(starts.size, p_halt, rngs, coupling)
    out = np.zeros((len(rngs) * nodes.size, g.n_nodes))
    _projected_batch(g, starts, lengths, f, p_halt, rngs, rows, out)
    return (out / m).reshape(len(rngs), nodes.size, g.n_nodes)


def grf_feature_matrix(g: GraphData, m: int, coupling, f: ModulationFn,
                       p_halt: float, rng) -> np.ndarray:
    """Feature vectors for every node at once (rows = nodes).

    Lengths for all N x m walks are drawn by the coupled sampler up front
    (geometric marginals throughout) and the walks are stepped in parallel.
    With ``rng`` a list of T generators, one per trial, all T x N x m walks
    run in one batch and the result is (T, N, N); block i equals the
    matrix that ``rng[i]`` alone gives.
    """
    feats = _node_features(g, np.arange(g.n_nodes), m, coupling, f, p_halt, rng)
    return feats if isinstance(rng, list) else feats[0]


def estimate_quantile_projections(g: GraphData, order: int, p_halt: float,
                                  f: ModulationFn, walks_per_quantile: int,
                                  rng) -> np.ndarray:
    """Monte Carlo estimate of per-quantile mean projections for all nodes.

    Entry ``[i, q]`` of the (n_nodes, order, n_nodes) result estimates the
    projection of a walk from node i whose length is drawn from the qth of
    ``order`` equal-probability tiles of the geometric length distribution:
    the mean over ``walks_per_quantile`` walks from node i, whose lengths are
    geometric quantiles of uniforms in [q/order, (q+1)/order) from one
    ``rng.random`` call when tile q is reached.
    """
    _check_range("walks_per_quantile", walks_per_quantile, "[1, inf)")
    rng = ensure_rng(rng)
    n = g.n_nodes
    gp = GeometricParams(p_halt)
    starts = np.repeat(np.arange(n), walks_per_quantile)
    psi_hat = np.zeros((n, order, n))
    for q in range(order):
        lengths = np.asarray(geometric_inv_cdf((q + rng.random(starts.size)) / order, gp))
        out = np.zeros((n, n))  # contiguous, unlike psi_hat[:, q, :]
        _projected_batch(g, starts, lengths, f, p_halt, rng, starts, out)
        psi_hat[:, q, :] = out / walks_per_quantile
    return psi_hat
