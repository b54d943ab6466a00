"""Special function and sequence tests against independent oracles."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, optimize, special, stats

from otrf.errors import NumericalError
from otrf.mathcore import (
    ChiParams,
    GeometricParams,
    _check_range,
    chi_cdf,
    chi_inv_cdf,
    gauss_cdf,
    gauss_inv_cdf,
    geometric_cdf,
    geometric_inv_cdf,
    halton_points,
    primes,
)


def erf_series_cdf(x: float) -> float:
    """High-precision Taylor-series oracle for the standard normal CDF."""
    total, term = 0.0, x
    for k in range(1, 200):
        total += term / (2 * k - 1)
        term *= -x * x / (2 * k)
        if abs(term) < 1e-18:
            break
    return 0.5 + total / math.sqrt(2 * math.pi)


def chi_quantile_oracle(u: float, dof: int) -> float:
    """Numeric-integration + root-bracketing oracle for the chi quantile."""

    def pdf(t):
        return (
            t ** (dof - 1)
            * math.exp(-t * t / 2)
            / (2 ** (dof / 2 - 1) * math.gamma(dof / 2))
        )

    def cdf(x):
        return integrate.quad(pdf, 0.0, x)[0]

    return optimize.brentq(lambda x: cdf(x) - u, 1e-12, 50.0, xtol=1e-10)


def chi_quantile_bisection(u, d: ChiParams, upper: bool = False) -> np.ndarray:
    """Chi quantile of the array ``u`` by bracketed bisection on chi_cdf.

    Each element halves its own bracket until that bracket is below 1e-10
    in x, at most 200 times.  Near u = 1 the CDF rounds to the nearest
    double below 1, which moves the crossing by up to 0.05 in x; with
    ``upper`` the bisection compares the survival function with 1 - u
    instead, which keeps its relative precision there.
    """
    if upper:
        def below(x, t):
            return special.gammaincc(d.dof / 2.0, np.square(x) / 2.0) > 1.0 - t
    else:
        def below(x, t):
            return chi_cdf(x, d) < t

    hi = np.full_like(u, 2.0 + np.sqrt(d.dof))
    for _ in range(200):
        mask = below(hi, u)
        if not np.any(mask):
            break
        hi[mask] *= 2.0
    # bisect the unfinished elements; idx holds their flat positions
    out = np.empty(u.size)
    idx = np.arange(u.size)
    target, hi = u.ravel(), hi.ravel()
    lo = np.zeros_like(hi)
    for _ in range(200):
        if not idx.size:
            break
        mid = 0.5 * (lo + hi)
        is_below = below(mid, target)
        lo = np.where(is_below, mid, lo)
        hi = np.where(is_below, hi, mid)
        width = hi - lo
        if width.min() < 1e-10:
            done = width < 1e-10
            out[idx[done]] = 0.5 * (lo[done] + hi[done])
            left = ~done
            idx, target, lo, hi = idx[left], target[left], lo[left], hi[left]
    out[idx] = 0.5 * (lo + hi)
    out = out.reshape(u.shape)
    out[u == 0.0] = 0.0
    return out


class TestCheckRange:
    @pytest.mark.parametrize(
        "value, interval",
        [(0, "(0, 1]"), (1, "[0, 1)"), (-1, "[0, inf)"), (math.inf, "[0, inf)"),
         (math.nan, "(-inf, inf)"), (1e300, "[-1e150, 1e150]")],
    )
    def test_outside_refused_in_one_form(self, value, interval):
        with pytest.raises(ValueError) as err:
            _check_range("x", value, interval)
        assert str(err.value) == f"x must lie in {interval}, got {value}"

    @pytest.mark.parametrize(
        "value, interval",
        [(0, "[0, 1)"), (1, "(0, 1]"), (10**12, "[1, inf)"), (-1e150, "[-1e150, 1e150]")],
    )
    def test_inside_accepted(self, value, interval):
        _check_range("x", value, interval)


class TestGaussCdf:
    def test_median(self):
        assert gauss_cdf(0.0) == 0.5

    def test_against_series_oracle(self):
        oracle = erf_series_cdf(1.959964)
        assert abs(oracle - 0.975) < 1e-6
        assert abs(gauss_cdf(1.959964) - 0.975) < 1e-6

    def test_symmetry_identity(self):
        assert gauss_cdf(-3.0) == 1.0 - gauss_cdf(3.0)

    def test_monotone_in_range(self):
        xs = np.linspace(-8, 8, 2001)
        vals = gauss_cdf(xs)
        assert np.all(np.diff(vals) >= 0)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            gauss_cdf(np.nan)
        with pytest.raises(ValueError):
            gauss_cdf(np.inf)


class TestGaussInvCdf:
    def test_median(self):
        assert gauss_inv_cdf(0.5) == 0.0

    def test_against_bisection_oracle(self):
        lo, hi = 0.0, 10.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if gauss_cdf(mid) < 0.975:
                lo = mid
            else:
                hi = mid
        oracle = (lo + hi) / 2
        assert abs(oracle - 1.959964) < 1e-5
        assert abs(gauss_inv_cdf(0.975) - 1.959964) < 1e-5

    def test_round_trip(self):
        assert abs(gauss_cdf(gauss_inv_cdf(0.123)) - 0.123) < 1e-10

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.1, 1.1, np.nan, [0.5, np.nan]])
    def test_domain(self, u):
        with pytest.raises(ValueError, match="requires 0 < u < 1"):
            gauss_inv_cdf(u)


class TestChi:
    def test_zero_support(self):
        for dof in (1, 2, 5):
            assert chi_cdf(0.0, ChiParams(dof)) == 0.0

    def test_rayleigh_median(self):
        assert abs(chi_cdf(math.sqrt(2 * math.log(2)), ChiParams(2)) - 0.5) < 1e-12

    def test_quantile_against_integration_oracle(self):
        oracle = chi_quantile_oracle(0.5, 3)
        assert abs(oracle - 1.5382) < 1e-3
        assert abs(chi_inv_cdf(0.5, ChiParams(3)) - 1.5382) < 1e-3
        assert abs(chi_inv_cdf(0.5, ChiParams(3)) - oracle) < 1e-8

    def test_round_trips(self):
        rng = np.random.default_rng(0)
        u = rng.random(200) * 0.999
        for dof in (1, 2, 4, 8):
            x = chi_inv_cdf(u, ChiParams(dof))
            assert np.max(np.abs(chi_cdf(x, ChiParams(dof)) - u)) < 1e-9

    @pytest.mark.parametrize("dof", [1, 3, 8])
    def test_quantile_is_elementwise(self, dof):
        chi = ChiParams(dof)
        assert chi_cdf(2.0 + math.sqrt(dof), chi) < 0.99999
        u = np.array([0.5, 0.99999, 0.1, 1e-6, 0.0, 0.7])
        whole = chi_inv_cdf(u, chi)
        for i in range(u.size):
            assert whole[i] == chi_inv_cdf(u[i : i + 1], chi)[0]

    @pytest.mark.parametrize("dof", [1, 4, 8])
    def test_quantile_of_concatenation_is_per_element(self, dof):
        # one call over several callers' uniforms, as the copula loss and
        # the reference loss make it, equals each element's own call; the
        # mirrored 1 - u of a pnc pair may share that call
        chi = ChiParams(dof)
        u = np.random.default_rng(dof).random(9)
        parts = [np.array([0.0, 1e-300, 1.0 - 1e-16]), u, 1.0 - u]
        whole = chi_inv_cdf(np.concatenate(parts), chi)
        singles = [chi_inv_cdf(v, chi) for part in parts for v in part]
        assert np.array_equal(whole, singles)
        stacked = chi_inv_cdf(np.stack([u, 1.0 - u]), chi)
        assert np.array_equal(stacked, [chi_inv_cdf(u, chi), chi_inv_cdf(1.0 - u, chi)])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            chi_cdf(-0.5, ChiParams(2))

    @pytest.mark.parametrize("dof", [1, 2, 4, 8])
    def test_ks_of_pushforward(self, dof):
        rng = np.random.default_rng(123 + dof)
        samples = chi_inv_cdf(rng.random(100_000), ChiParams(dof))
        result = stats.kstest(samples, lambda x: chi_cdf(x, ChiParams(dof)))
        assert result.pvalue > 0.01

    def test_invalid_dof(self):
        for dof in (0, np.nan, np.inf):
            with pytest.raises(ValueError, match="dof"):
                ChiParams(dof)

    @pytest.mark.parametrize("u", [np.nan, [0.5, np.nan], -0.1, 1.0])
    def test_quantile_domain(self, u):
        with pytest.raises(ValueError, match="requires 0 <= u < 1"):
            chi_inv_cdf(u, ChiParams(3))

    @pytest.mark.parametrize("dof", [1, 2, 3, 8, 64, 1000, 10**4, 10**6])
    def test_closed_form_matches_bisection(self, dof):
        # the lower-tail bisection resolves x to 1e-10 up to u = 1/2, and the
        # survival-function bisection above it
        chi = ChiParams(dof)
        rng = np.random.default_rng(dof)
        lower = np.array([0.0, 1e-300, rng.random() / 2, 0.5])
        upper = np.array([0.5, 0.5 + rng.random() / 2, 1 - 1e-12, 1 - 2.0**-53])
        for u, flag in ((lower, False), (upper, True)):
            x = chi_inv_cdf(u, chi)
            assert np.max(np.abs(x - chi_quantile_bisection(u, chi, flag))) < 1e-10

    @pytest.mark.parametrize("dof", [1, 8, 1000])
    @pytest.mark.parametrize(
        "broken", [lambda x: x + 1e-6, lambda x: np.nan * x], ids=["offset", "nan"]
    )
    def test_round_trip_certificate_fires(self, dof, broken, monkeypatch):
        exact = special.gammaincinv
        monkeypatch.setattr(special, "gammaincinv", lambda a, u: broken(exact(a, u)))
        with pytest.raises(NumericalError, match=f"dof = {dof}"):
            chi_inv_cdf(np.array([0.25, 0.5]), ChiParams(dof))


def halton(index: int, base: int) -> float:
    """Radical inverse of ``index`` in ``base``, one digit at a time."""
    value, f, i = 0.0, 1.0 / base, index
    while i > 0:
        i, digit = divmod(i, base)
        value += digit * f
        f /= base
    return value


def primes_oracle(count: int) -> list[int]:
    """First ``count`` primes, by trial division by every smaller integer."""
    return [n for n in range(2, 10 * count + 10) if all(n % f for f in range(2, n))][:count]


class TestHalton:
    def test_base2_prefix(self):
        expected = [1 / 2, 1 / 4, 3 / 4, 1 / 8, 5 / 8, 3 / 8, 7 / 8]
        assert halton_points(7, 1)[:, 0].tolist() == expected

    def test_base3(self):
        assert halton_points(2, 2)[1, 1] == 2 / 3

    @pytest.mark.parametrize("count, dim", [(1, 1), (7, 3), (100, 8), (257, 17), (1000, 64)])
    def test_points_match_scalar_oracle(self, count, dim):
        bases = primes_oracle(dim)
        expected = [[halton(i, b) for b in bases] for i in range(1, count + 1)]
        assert np.array_equal(halton_points(count, dim), np.array(expected))

    def test_primes_match_oracle(self):
        assert primes(200) == primes_oracle(200)
        assert primes(0) == [] and primes(1) == [2]

    def test_points_shape_and_bases(self):
        pts = halton_points(5, 3)
        assert pts.shape == (5, 3)
        assert primes(3) == [2, 3, 5]
        assert pts[0, 0] == 0.5 and pts[0, 1] == 1 / 3


class TestGeometric:
    def test_terminate_immediately(self):
        assert geometric_cdf(0, GeometricParams(0.5)) == 0.5

    def test_inverse_example(self):
        assert geometric_inv_cdf(0.8, GeometricParams(0.5)) == 2

    def test_infimum_convention(self):
        assert geometric_inv_cdf(0.0, GeometricParams(0.3)) == 0

    @pytest.mark.parametrize("u", [np.nan, [0.5, np.nan], -0.1, 1.0])
    def test_inverse_domain(self, u):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="geometric_inv_cdf requires 0 <= u < 1"):
                geometric_inv_cdf(u, GeometricParams(0.3))

    def test_round_trip_is_smallest(self):
        gp = GeometricParams(0.37)
        for u in np.linspace(0.001, 0.999, 97):
            l = geometric_inv_cdf(u, gp)
            assert geometric_cdf(l, gp) >= u
            if l > 0:
                assert geometric_cdf(l - 1, gp) < u

    def test_discrete_round_trip_exact(self):
        gp = GeometricParams(0.23)
        for l in range(30):
            assert geometric_inv_cdf(geometric_cdf(l, gp), gp) == l

    def test_cdf_monotone(self):
        gp = GeometricParams(0.2)
        vals = geometric_cdf(np.arange(50), gp)
        assert np.all(np.diff(vals) > 0)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            GeometricParams(0.0)
        with pytest.raises(ValueError):
            GeometricParams(1.0)
