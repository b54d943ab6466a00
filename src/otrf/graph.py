"""Graph structure, node kernels, coupled walk lengths and batched walks.

Kernels are matrix functions of the (normalised) Laplacian; their Taylor
coefficients in the normalised adjacency drive the walk-based estimators.
Walk lengths count edges and start at zero, matching the geometric
distribution in :mod:`otrf.mathcore`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .mathcore import GeometricParams, _check_range, _trial_rngs, ensure_rng, geometric_inv_cdf

KERNEL_FAMILIES = (
    "d_regularized_laplacian",
    "p_step_random_walk",
    "diffusion",
    "inverse_cosine",
)


class GraphData:
    """Undirected weighted graph with dense and walk-oriented views.

    Holds the adjacency ``W``, weighted degrees, the normalised adjacency
    D^-1/2 W D^-1/2, and CSR-style neighbour arrays for fast walking.
    Isolated nodes are rejected.
    """

    def __init__(self, weights: np.ndarray):
        W = np.asarray(weights, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError("adjacency must be square")
        if not np.allclose(W, W.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(W < 0) or not np.all(np.isfinite(W)):
            raise ValueError("edge weights must be finite and nonnegative")
        degrees = W.sum(axis=1)
        if np.any(degrees <= 0):
            raise ValueError("graph has isolated nodes")
        self.weights = W
        self.n_nodes = W.shape[0]
        self.degrees = degrees
        inv_sqrt = 1.0 / np.sqrt(degrees)
        self.adjacency_norm = W * inv_sqrt[:, None] * inv_sqrt[None, :]
        # CSR neighbour structure; a walk stepping along edge e = (u, v)
        # multiplies its weight by step_weight[e] = a_uv deg(u)
        sources, self.indices = np.nonzero(W > 0)
        self.neighbor_counts = counts = np.bincount(sources, minlength=self.n_nodes)
        self.indptr = np.concatenate([[0], np.cumsum(counts)])
        self.step_weight = self.adjacency_norm[sources, self.indices] * counts[sources]

    @classmethod
    def from_edges(cls, n_nodes: int, edges) -> "GraphData":
        W = np.zeros((n_nodes, n_nodes))
        for edge in edges:
            u, v = int(edge[0]), int(edge[1])
            w = float(edge[2]) if len(edge) > 2 else 1.0
            W[u, v] = w
            W[v, u] = w
        return cls(W)

    @classmethod
    def from_file(cls, path) -> "GraphData":
        """Whitespace-separated edge list ``u v [weight]``, 0-indexed, of at
        least one edge."""
        edges = []
        max_node = -1
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts:
                    continue
                if len(parts) not in (2, 3):
                    raise ValueError(f"{path}:{lineno}: expected 'u v [weight]'")
                u, v = int(parts[0]), int(parts[1])
                _check_range(f"{path}:{lineno}: node id", min(u, v), "[0, inf)")
                w = float(parts[2]) if len(parts) == 3 else 1.0
                edges.append((u, v, w))
                max_node = max(max_node, u, v)
        if not edges:
            raise ValueError(f"{path}: no edges")
        return cls.from_edges(max_node + 1, edges)


def normalized_laplacian(g: GraphData) -> np.ndarray:
    """D^-1/2 (D - W) D^-1/2 = I - normalised adjacency; spectrum in [0, 2]."""
    return np.eye(g.n_nodes) - g.adjacency_norm


@dataclass(frozen=True)
class GraphKernelSpec:
    """A graph node kernel as a matrix function of the Laplacian.

    Families: ``d_regularized_laplacian`` (I + sigma^2 L)^-degree,
    ``p_step_random_walk`` (alpha I - L)^p with alpha >= 2, ``diffusion``
    exp(-sigma^2 L / 2), and ``inverse_cosine`` cos(L pi/4), all of the
    normalised Laplacian L.
    """

    family: str
    sigma: float = 1.0
    degree: int = 1
    alpha: float = 2.0
    p: int = 1

    def __post_init__(self):
        # each message starts with the field it names; a family checks the fields it reads
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(f"family must be one of {list(KERNEL_FAMILIES)}, got {self.family!r}")
        _check_range("sigma", self.sigma, "[-1e150, 1e150]")  # its square must be finite
        if self.family == "p_step_random_walk":
            _check_range("alpha", self.alpha, "[2, inf)")
            _check_range("p", self.p, "[0, inf)")
        if self.family == "d_regularized_laplacian":
            _check_range("degree", self.degree, "[1, inf)")


def exact_graph_kernel(g: GraphData, spec: GraphKernelSpec) -> np.ndarray:
    """Kernel matrix via eigendecomposition of the normalised Laplacian."""
    evals, evecs = np.linalg.eigh(normalized_laplacian(g))
    sigma_sq = np.float64(spec.sigma) ** 2
    if spec.family == "d_regularized_laplacian":
        fn = (1.0 + sigma_sq * evals) ** (-spec.degree)
    elif spec.family == "p_step_random_walk":
        fn = (spec.alpha - evals) ** spec.p
    elif spec.family == "diffusion":
        fn = np.exp(-sigma_sq * evals / 2.0)
    else:  # inverse_cosine
        fn = np.cos(evals * np.pi / 4.0)
    K = (evecs * fn) @ evecs.T
    return 0.5 * (K + K.T)


def taylor_coefficients(spec: GraphKernelSpec, max_order: int) -> np.ndarray:
    """Coefficients a_k with K = sum_k a_k (normalised adjacency)^k.

    Regularised-Laplacian and diffusion families have nonnegative
    coefficients; the inverse-cosine expansion alternates in sign.
    Binomials are exact integers rounded once to a float; one beyond the
    float range raises OverflowError.
    """
    _check_range("max_order", max_order, "[0, inf)")
    k = np.arange(max_order + 1)
    sigma_sq = np.float64(spec.sigma) ** 2
    if spec.family == "d_regularized_laplacian":
        rho = sigma_sq / (1.0 + sigma_sq)
        lead = (1.0 + sigma_sq) ** (-spec.degree)
        binom = [float(math.comb(i + spec.degree - 1, i)) for i in range(max_order + 1)]
        return lead * np.array(binom) * rho**k
    if spec.family == "diffusion":
        gamma_sq = sigma_sq / 2.0
        out = np.empty(max_order + 1)
        out[0] = np.exp(-gamma_sq)
        for i in range(1, max_order + 1):
            out[i] = out[i - 1] * gamma_sq / i
        return out
    if spec.family == "p_step_random_walk":  # comb(p, i) = 0 for i > p
        binom = [float(math.comb(spec.p, i)) for i in range(max_order + 1)]
        return np.array(binom) * (spec.alpha - 1.0) ** (spec.p - k)
    # inverse cosine: cos((I - A) pi/4) = cos(pi/4) cos(A pi/4) + sin(pi/4) sin(A pi/4)
    c = np.pi / 4.0
    return (np.sqrt(2.0) / 2.0) * (-1.0) ** (k // 2) * np.cumprod(np.r_[1.0, c / k[1:]])


# ---------------------------------------------------------------------------
# Walk-length couplings


@dataclass
class SigmaCoupling:
    """A permutation matching between walk-length quantiles.

    ``perm`` is stored 0-indexed; ``perm[q]`` is the quantile paired with
    quantile q.  Serialised 1-indexed alongside n, p_halt and seed so
    couplings learned on one graph can be reused on others.
    """

    perm: np.ndarray
    p_halt: float
    seed: int | None = None

    def __post_init__(self):
        self.perm = np.asarray(self.perm, dtype=np.int64)
        _check_range("order", self.perm.size, "[1, inf)")
        if sorted(self.perm.tolist()) != list(range(self.perm.size)):
            raise ValueError("perm must be a permutation of 0..n-1")
        GeometricParams(self.p_halt)
        if self.seed is not None:
            _check_range("seed", self.seed, "[0, inf)")

    @property
    def order(self) -> int:
        return self.perm.size

    def to_json(self) -> str:
        return json.dumps(
            {
                "sigma": [int(v) + 1 for v in self.perm],
                "n": self.order,
                "p_halt": self.p_halt,
                "seed": self.seed,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "SigmaCoupling":
        obj = json.loads(text)
        perm = np.asarray(obj["sigma"], dtype=np.int64) - 1
        return cls(perm, obj["p_halt"], obj.get("seed"))


# the walk-length couplings by name; "sigma" is passed as its SigmaCoupling
WALK_COUPLING_TAGS = ("iid", "antithetic_termination", "sigma")


def coupling_tag(coupling, walkers: int) -> str:
    """Name of a walk-length coupling, checked against its walker count.

    ``coupling`` is "iid", "antithetic_termination", or a
    :class:`SigmaCoupling` (tag "sigma").  There must be a walker, and the
    paired couplings join consecutive walkers, so they need an even count.
    """
    _check_range("m (walkers)", walkers, "[1, inf)")
    if isinstance(coupling, SigmaCoupling):
        tag = "sigma"
    elif coupling in WALK_COUPLING_TAGS and coupling != "sigma":
        tag = coupling
    else:
        raise ValueError(f"unknown walk-length coupling {coupling!r}")
    if tag != "iid" and walkers % 2:
        raise ValueError("paired couplings need an even number of walkers")
    return tag


def _trial_block(n_walks: int, n_trials: int) -> int:
    """Walks per trial when ``n_walks`` split into ``n_trials`` equal blocks."""
    if n_trials < 1 or n_walks % n_trials:
        raise ValueError(f"{n_walks} walks do not split into {n_trials} equal trials")
    return n_walks // n_trials


def batch_walk_lengths(n_walks: int, p_halt: float, rng,
                       coupling="iid") -> np.ndarray:
    """Geometric walk lengths for a batch under a length coupling.

    Every length is marginally geometric; the paired couplings join walks
    2i and 2i+1.  Antithetic termination draws one halting uniform t per
    pair per step, until the trial's last walk halts; walk 2i halts at the
    first t < p_halt and walk 2i+1 at the first (t + 0.5) % 1.0 < p_halt,
    so for p_halt < 1/2 the two never halt at the same step.  The steps
    are read in rounds, one generator call per trial per round, and each
    generator ends where one call per step would leave it.  A
    :class:`SigmaCoupling` made for this p_halt draws a tile q uniformly
    from its order n, puts the first uniform in tile q and the partner's
    in tile perm[q], and maps both through the geometric quantile function.

    ``rng`` may be a list of T generators, one per trial: the walks then
    form T equal blocks in trial order, and block i equals the lengths that
    ``rng[i]`` alone gives for ``n_walks // T`` walks.
    """
    gp = GeometricParams(p_halt)
    if isinstance(coupling, SigmaCoupling) and round(coupling.p_halt, 10) != round(p_halt, 10):
        raise ValueError(f"a sigma coupling made for p_halt {coupling.p_halt} "
                         f"cannot run at p_halt {p_halt}")
    rngs = _trial_rngs(rng)
    per_trial = _trial_block(n_walks, len(rngs))
    tag = coupling_tag(coupling, per_trial)
    if tag == "iid":
        u = np.concatenate([r.random(per_trial) for r in rngs])
        return np.asarray(geometric_inv_cdf(u, gp))
    n_pairs = per_trial // 2
    if tag == "sigma":
        order = coupling.order
        u = np.empty((len(rngs), per_trial))
        for row, r in zip(u, rngs):
            q = r.integers(order, size=n_pairs)
            row[0::2] = (q + r.random(n_pairs)) / order
            row[1::2] = (coupling.perm[q] + r.random(n_pairs)) / order
        return np.asarray(geometric_inv_cdf(u.ravel(), gp))
    # antithetic: each live trial reads a round of k steps in one call, k
    # the least with (1 - p_halt)^k <= 1/(16 per_trial), so a round the
    # stream budget does not cap ends all of a trial's walks w.p. >= 15/16
    k = math.ceil(min(math.log(16 * per_trial) / -math.log1p(-p_halt),
                      max(1, _STREAM_BUDGET // n_pairs)))
    lengths = np.zeros((len(rngs), per_trial), dtype=np.int64)
    alive = np.ones((len(rngs), per_trial), dtype=bool)
    live = np.arange(len(rngs))
    while live.size:
        gens = [rngs[i] for i in live]
        states = [r.bit_generator.state for r in gens]
        t = np.empty((live.size, k, n_pairs))
        for r, block in zip(gens, t):
            r.random(out=block)
        halt = np.empty((live.size, k + 1, per_trial), dtype=bool)
        halt[:, k] = True  # step k stands for "runs past the round"
        np.less(t, p_halt, out=halt[:, :k, 0::2])
        t += 0.5
        t -= t >= 1.0  # the partners' uniforms, bit-equal to (t + 0.5) % 1.0
        np.less(t, p_halt, out=halt[:, :k, 1::2])
        first = halt.argmax(axis=1) * alive[live]  # steps each live walk survives
        lengths[live] += first
        still = first == k
        alive[live] = still
        done = ~still.any(axis=1)
        # a trial that ends inside the round rewinds and rereads only the
        # steps it used, so its generator ends where the per-step loop's does
        used = first.max(axis=1) + 1
        for j in np.flatnonzero(done & (used < k)).tolist():
            gens[j].bit_generator.state = states[j]
            gens[j].random(used[j] * n_pairs)
        live = live[~done]
    return lengths.ravel()


# ---------------------------------------------------------------------------
# Batched walking (all walkers stepped in parallel)

# uniforms a trial holds at once; the walks and the antithetic lengths draw
# their step streams in rounds of as many steps as fit
_STREAM_BUDGET = 1 << 15


def _walk(g: GraphData, cur: np.ndarray, steps: np.ndarray, rngs: list):
    """Step walk w from node ``cur[w]`` to a uniform neighbour ``steps[w]``
    times, in place; after step t yield ``(t, idx, pick)``: the walks that
    took it and the CSR edges they took (``cur[idx] == g.indices[pick]``).

    The walks form ``len(rngs)`` equal blocks in trial order.  Trial i's
    uniforms come from ``rngs[i]`` in step order and, within a step, in walk
    order: the stream of one ``rngs[i].random`` call per step, drawn a round
    of steps at a time with one call per trial per round.
    """
    n_trials = len(rngs)
    per_trial = _trial_block(steps.size, n_trials)
    horizon = int(steps.max(initial=0))
    # active[t - 1, i]: walks of trial i that take step t
    slot = steps.reshape(n_trials, per_trial) + (horizon + 1) * np.arange(n_trials)[:, None]
    hist = np.bincount(slot.ravel(), minlength=n_trials * (horizon + 1))
    active = np.cumsum(hist.reshape(n_trials, horizon + 1)[:, :0:-1], axis=1)[:, ::-1].T
    drawn = np.concatenate([[0], np.cumsum(active.sum(axis=1))])  # uniforms through step t
    idx = np.flatnonzero(steps > 0)
    ranks = np.arange(idx.size)
    t = 0
    while t < horizon:
        # one round: as many steps as the budget holds, at least one
        end = max(t + 1, int(np.searchsorted(drawn, drawn[t] + _STREAM_BUDGET, "right")) - 1)
        block = active[t:end]
        totals = block.sum(axis=0)
        stream = np.concatenate([r.random(n) for r, n in zip(rngs, totals)])
        start = np.cumsum(totals) - totals  # each trial's next unread uniform
        for counts in block:
            t += 1
            # idx runs trial by trial; a walk's uniform is its trial's next
            # unread one plus its rank among the trial's active walks
            first = np.cumsum(counts) - counts
            u = stream[np.repeat(start - first, counts) + ranks[: idx.size]]
            nodes = cur[idx]
            pick = g.indptr[nodes] + (u * g.neighbor_counts[nodes]).astype(np.int64)
            cur[idx] = g.indices[pick]
            yield t, idx, pick
            start += counts
            idx = idx[steps[idx] > t]


def batch_walk_endpoints(g: GraphData, starts: np.ndarray, lengths: np.ndarray,
                         rng) -> np.ndarray:
    """Terminal node of fixed-length uniform walks, stepped in parallel.

    ``rng`` may be a list of T generators, one per trial: the walks then
    form T equal blocks in trial order, and block i ends where the same
    call with ``rng[i]`` and that block's starts and lengths ends.
    """
    cur = np.asarray(starts, dtype=np.int64).copy()
    for _ in _walk(g, cur, np.asarray(lengths, dtype=np.int64), _trial_rngs(rng)):
        pass
    return cur


# ---------------------------------------------------------------------------
# Synthetic graphs


def erdos_renyi(n_nodes: int, p_edge: float, rng) -> GraphData:
    """Connected Erdos-Renyi G(n, p): resampled until connected."""
    rng = ensure_rng(rng)
    for _ in range(1000):
        upper = rng.random((n_nodes, n_nodes)) < p_edge
        W = np.triu(upper, k=1).astype(float)
        W = W + W.T
        if not np.all(W.sum(axis=1) > 0):
            continue
        if _is_connected(W):
            return GraphData(W)
    raise NumericalError(
        f"failed to sample a connected G({n_nodes}, {p_edge}) in 1000 attempts"
    )


def _is_connected(W: np.ndarray) -> bool:
    """Breadth-first search from node 0, one whole frontier per step."""
    seen = np.zeros(W.shape[0], dtype=bool)
    frontier = np.arange(W.shape[0]) == 0
    while frontier.any():
        seen |= frontier
        frontier = (W[frontier] > 0).any(axis=0) & ~seen
    return bool(seen.all())
