"""Special functions, distributions, quasi-random sequences and Adam.

Every public function here is a pure function of its inputs.  CDFs accept
scalars or numpy arrays and broadcast.  Inverse CDFs refuse NaN; the chi
quantile is a closed form whose every call checks its round trip to 1e-12,
and the geometric one round-trips exactly.  The private ``_adam`` is
the one Adam update, shared by GP hyperparameter fitting and copula training,
and ``_check_range`` the one interval check of a scalar argument or config key
(``_check_finite`` applies it to an array's entries; ``_check_whole`` refuses
a fractional count or index).
Only the Gaussian and chi functions need ``scipy.special``, and they import
it themselves, so the graph modules, which import this one, load no scipy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError


def _check_range(name: str, value, interval: str) -> None:
    """Reject a value outside an interval written like "[1, 1e6]" or "(0, inf)";
    NaN lies in none."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = low <= value if interval[0] == "[" else low < value
    if not (above and (value <= high if interval[-1] == "]" else value < high)):
        raise ValueError(f"{name} must lie in {interval}, got {value}")


def _check_finite(name: str, values: np.ndarray) -> None:
    """Reject an array argument holding a NaN or an infinity, naming its first."""
    if not np.all(np.isfinite(values)):
        _check_range(name, values[~np.isfinite(values)][0], "(-inf, inf)")


def _check_whole(name: str, values) -> None:
    """Reject a number, or an array entry, that is not whole, naming the first."""
    values = np.asarray(values, dtype=float)
    with np.errstate(invalid="ignore"):  # an infinite entry has a NaN remainder
        fractional = values[np.mod(values, 1.0) != 0]
    if fractional.size:
        raise ValueError(f"{name} must hold whole numbers, got {fractional[0]}")


@dataclass(frozen=True)
class ChiParams:
    """Degrees of freedom of a chi distribution."""

    dof: int

    def __post_init__(self):
        _check_range("dof", self.dof, "[1, inf)")


@dataclass(frozen=True)
class GeometricParams:
    """Per-step halting probability of a terminating walk.

    Walk length counts edges and starts at 0, so F(l) = 1 - (1-p)^(l+1):
    a walk that halts before its first step has length 0.
    """

    p_halt: float

    def __post_init__(self):
        _check_range("p_halt", self.p_halt, "(0, 1)")


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
    if not (np.all(u > 0.0) and np.all(u < 1.0)):
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
    """Quantile function of chi_d: sqrt(2 P^-1(dof/2, u)), elementwise.

    P^-1 is scipy's inverse regularised incomplete gamma function (DiDonato
    & Morris 1986), which documents no error bound.  So one :func:`chi_cdf`
    call certifies the whole batch: any x that is non-finite or misses
    |chi_cdf(x) - u| <= 1e-12 raises :class:`NumericalError` naming the dof.
    Accepts 0 <= u < 1.
    """
    u = np.asarray(u, dtype=float)
    if not (np.all(u >= 0.0) and np.all(u < 1.0)):
        raise ValueError("chi_inv_cdf requires 0 <= u < 1")
    from scipy import special

    x = np.sqrt(2.0 * special.gammaincinv(d.dof / 2.0, u))
    miss = np.abs(chi_cdf(x, d) - u)
    if not (np.all(miss <= 1e-12) and np.all(np.isfinite(x))):
        raise NumericalError(
            f"chi quantile with dof = {d.dof} missed its round trip by {np.max(miss):.1e}"
        )
    return float(x) if x.ndim == 0 else x


# ---------------------------------------------------------------------------
# Halton


def primes(count: int) -> list[int]:
    """First ``count`` primes (Halton bases), by trial division by the smaller ones."""
    out, n = [], 2
    while len(out) < count:
        if all(n % p for p in itertools.takewhile(lambda p: p * p <= n, out)):
            out.append(n)
        n += 1
    return out


def halton_points(count: int, dim: int) -> np.ndarray:
    """Halton points 1..``count`` (``count`` x ``dim``) in the first ``dim`` prime bases;
    a column's radical inverses take one digit of every index per pass."""
    out = np.zeros((count, dim))
    for col, base in zip(out.T, primes(dim)):
        index, scale = np.arange(1, count + 1), 1.0 / base
        while index.any():
            index, digit = np.divmod(index, base)
            col += digit * scale
            scale /= base
    return out


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
    if not (np.all(u_arr >= 0.0) and np.all(u_arr < 1.0)):
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
