"""Special functions, distributions, quasi-random sequences and Adam.

Every public function here is a pure function of its inputs.  CDFs accept
scalars or numpy arrays and broadcast; inverse CDFs round-trip to 1e-9
(continuous distributions) or exactly (discrete).  The private ``_adam`` is
the one Adam update, shared by GP hyperparameter fitting and copula training.
Only the Gaussian and chi functions need ``scipy.special``, and they import
it themselves, so the graph modules, which import this one, load no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChiParams:
    """Degrees of freedom of a chi distribution."""

    dof: int

    def __post_init__(self):
        if self.dof < 1:
            raise ValueError(f"dof must be >= 1, got {self.dof}")


@dataclass(frozen=True)
class GeometricParams:
    """Per-step halting probability of a terminating walk.

    Walk length counts edges and starts at 0, so F(l) = 1 - (1-p)^(l+1):
    a walk that halts before its first step has length 0.
    """

    p_halt: float

    def __post_init__(self):
        if not 0.0 < self.p_halt < 1.0:
            raise ValueError(f"p_halt must lie in (0, 1), got {self.p_halt}")


def ensure_rng(rng) -> np.random.Generator:
    """Coerce an int seed or Generator into a numpy Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _trial_rngs(rng) -> list:
    """``rng`` as one generator per trial.

    A list holds one generator (or seed) per trial; anything else is one
    trial's generator or seed, as :func:`ensure_rng` takes it.
    """
    if isinstance(rng, list):
        return [ensure_rng(r) for r in rng]
    return [ensure_rng(rng)]


# ---------------------------------------------------------------------------
# Gaussian


def gauss_cdf(x):
    """Standard normal CDF, Phi(x).

    Negative arguments are evaluated by reflection so the symmetry
    gauss_cdf(-x) = 1 - gauss_cdf(x) holds bit-for-bit.  Raises on
    non-finite input.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("gauss_cdf requires finite input")
    from scipy import special

    out = np.where(x >= 0, special.ndtr(x), 1.0 - special.ndtr(-x))
    return float(out) if out.ndim == 0 else out


def gauss_inv_cdf(u):
    """Standard normal quantile function; requires 0 < u < 1."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("gauss_inv_cdf requires 0 < u < 1")
    from scipy import special

    out = special.ndtri(u)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Chi


def chi_cdf(x, d: ChiParams):
    """CDF of the chi distribution with ``d.dof`` degrees of freedom.

    Evaluated through the regularised lower incomplete gamma function,
    P(dof/2, x^2/2).  Raises for negative x.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("chi_cdf requires x >= 0")
    from scipy import special

    out = special.gammainc(d.dof / 2.0, np.square(x) / 2.0)
    return float(out) if out.ndim == 0 else out


def chi_inv_cdf(u, d: ChiParams):
    """Quantile function of chi_d by bracketed bisection on :func:`chi_cdf`.

    Monotone and derivative-free.  Each element halves its own bracket
    until that bracket is below 1e-10 in x, at most 200 times, so an
    element's value does not depend on the other elements of the call.
    Accepts 0 <= u < 1.
    """
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(u_arr < 0.0) or np.any(u_arr >= 1.0):
        raise ValueError("chi_inv_cdf requires 0 <= u < 1")

    hi = np.full_like(u_arr, 2.0 + np.sqrt(d.dof))
    for _ in range(200):
        mask = chi_cdf(hi, d) < u_arr
        if not np.any(mask):
            break
        hi[mask] *= 2.0
    # bisect the unfinished elements; idx holds their flat positions
    out = np.empty(u_arr.size)
    idx = np.arange(u_arr.size)
    target, hi = u_arr.ravel(), hi.ravel()
    lo = np.zeros_like(hi)
    for _ in range(200):
        if not idx.size:
            break
        mid = 0.5 * (lo + hi)
        below = chi_cdf(mid, d) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        width = hi - lo
        if width.min() < 1e-10:
            done = width < 1e-10
            out[idx[done]] = 0.5 * (lo[done] + hi[done])
            left = ~done
            idx, target, lo, hi = idx[left], target[left], lo[left], hi[left]
    out[idx] = 0.5 * (lo + hi)
    out = out.reshape(u_arr.shape)
    out[u_arr == 0.0] = 0.0
    if np.isscalar(u) or np.asarray(u).ndim == 0:
        return float(out[0])
    return out


# ---------------------------------------------------------------------------
# Halton


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def primes(count: int) -> list[int]:
    """First ``count`` prime numbers (Halton bases)."""
    out, n = [], 2
    while len(out) < count:
        if _is_prime(n):
            out.append(n)
        n += 1
    return out


def halton(index: int, base: int) -> float:
    """Radical inverse of ``index`` in prime base ``base``; index >= 1."""
    if index < 1:
        raise ValueError("halton index must be >= 1")
    if not _is_prime(base):
        raise ValueError(f"halton base must be prime, got {base}")
    value, f, i = 0.0, 1.0 / base, index
    while i > 0:
        i, digit = divmod(i, base)
        value += digit * f
        f /= base
    return value


def halton_points(count: int, dim: int) -> np.ndarray:
    """Halton points 1..``count`` (``count`` x ``dim``) in the first ``dim`` prime bases."""
    bases = primes(dim)
    return np.array([[halton(1 + i, b) for b in bases] for i in range(count)])


# ---------------------------------------------------------------------------
# Geometric walk lengths


def geometric_cdf(length, g: GeometricParams):
    """F(l) = 1 - (1 - p_halt)^(l+1) on support l = 0, 1, 2, ..."""
    l_arr = np.asarray(length)
    if np.any(l_arr < 0):
        raise ValueError("geometric_cdf requires length >= 0")
    out = -np.expm1(np.log1p(-g.p_halt) * (np.asarray(length, dtype=float) + 1.0))
    return float(out) if out.ndim == 0 else out


def geometric_inv_cdf(u, g: GeometricParams):
    """Smallest l with F(l) >= u; returns 0 for u <= F(0) (infimum convention)."""
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(u_arr < 0.0) or np.any(u_arr >= 1.0):
        raise ValueError("geometric_inv_cdf requires 0 <= u < 1")
    # closed form, then exact integer correction at the boundaries
    with np.errstate(divide="ignore"):
        raw = np.ceil(np.log1p(-u_arr) / np.log1p(-g.p_halt)) - 1.0
    l = np.maximum(raw, 0.0).astype(np.int64)
    too_low = geometric_cdf(l, g) < u_arr
    while np.any(too_low):
        l = l + too_low.astype(np.int64)
        too_low = geometric_cdf(l, g) < u_arr
    can_drop = (l > 0) & (geometric_cdf(np.maximum(l - 1, 0), g) >= u_arr)
    while np.any(can_drop):
        l = l - can_drop.astype(np.int64)
        can_drop = (l > 0) & (geometric_cdf(np.maximum(l - 1, 0), g) >= u_arr)
    if np.isscalar(u) or np.asarray(u).ndim == 0:
        return int(l[0])
    return l


# ---------------------------------------------------------------------------
# Optimisation


def _adam(grad_at, x: np.ndarray, steps: int, lr: float) -> np.ndarray:
    """Minimise by Adam (Kingma & Ba 2015) from ``x``; returns the last iterate.

    ``grad_at(t, x)`` gives the gradient at step t.  The moment decays b1, b2
    and the denominator offset 1e-8 are fixed.
    """
    b1, b2 = 0.9, 0.999
    m1 = np.zeros_like(x)
    m2 = np.zeros_like(x)
    for t in range(steps):
        g = grad_at(t, x)
        m1 = b1 * m1 + 0.1 * g
        m2 = b2 * m2 + 0.001 * g**2
        m1_hat = m1 / (1 - b1 ** (t + 1))
        m2_hat = m2 / (1 - b2 ** (t + 1))
        x = x - lr * m1_hat / (np.sqrt(m2_hat) + 1e-8)
    return x
