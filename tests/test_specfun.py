"""Normal density / CDF / quantile accuracy checks.

High-precision reference values come from mpmath (50 digits) and from
bisecting the CDF itself, so the quantile is audited against a path it
does not share.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from summarysd.specfun import (
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
    std_normal_quantile_vec,
)

mpmath.mp.dps = 50


def mp_cdf(z: float) -> float:
    return float((1 + mpmath.erf(mpmath.mpf(z) / mpmath.sqrt(2))) / 2)


def bisect_quantile(p: float) -> float:
    """Independent quantile oracle: plain bisection of the CDF."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if std_normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestPdf:
    def test_at_zero(self):
        assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-16)

    @pytest.mark.parametrize("z", [0.3, 1.0, 2.5, 7.0])
    def test_even_symmetry(self, z):
        assert std_normal_pdf(z) == std_normal_pdf(-z)

    def test_integrates_to_one(self):
        val, _ = quad(std_normal_pdf, -8, 8, epsabs=1e-12)
        assert val == pytest.approx(1.0, abs=1e-10)


class TestCdf:
    def test_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_near_third_quartile(self):
        assert std_normal_cdf(0.6745) == pytest.approx(0.75, abs=1e-4)
        assert std_normal_cdf(bisect_quantile(0.75)) == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("z", np.linspace(-7, 7, 29).tolist())
    def test_against_mpmath(self, z):
        assert std_normal_cdf(z) == pytest.approx(mp_cdf(z), abs=1e-13)

    @pytest.mark.parametrize("z", [0.1, 0.9, 2.0, 5.5])
    def test_reflection(self, z):
        assert std_normal_cdf(z) + std_normal_cdf(-z) == pytest.approx(1.0, abs=1e-15)

    def test_strictly_increasing(self):
        # Above z ~ 6 the CDF is within an ulp of 1 and cannot increase
        # in double precision, so strictness is checked below that.
        zs = np.linspace(-8, 6, 2001)
        vals = [std_normal_cdf(z) for z in zs]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_third_quartile(self):
        assert std_normal_quantile(0.75) == pytest.approx(0.674489750196082, abs=1e-12)
        assert std_normal_quantile(0.75) == pytest.approx(bisect_quantile(0.75), abs=1e-11)

    def test_known_asymptote(self):
        # Asymptotic IQR divisor: twice the third-quartile z-score.
        assert 1.3489 <= 2 * std_normal_quantile(0.75) <= 1.3490

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_domain_error(self, p):
        with pytest.raises(ValueError):
            std_normal_quantile(p)

    def test_roundtrip(self):
        rng = np.random.default_rng(2024)
        ps = rng.uniform(1e-8, 1 - 1e-8, size=10_000)
        worst = max(abs(std_normal_cdf(std_normal_quantile(p)) - p) for p in ps)
        assert worst <= 1e-11

    def test_consistency_near_one(self):
        # The divisors evaluate the quantile near p -> 1 as n grows.
        for n in (2, 50, 500, 5_000, 50_000):
            p = (n - 0.375) / (n + 0.25)
            assert abs(std_normal_cdf(std_normal_quantile(p)) - p) <= 1e-12

    def test_strictly_increasing(self):
        ps = np.linspace(1e-6, 1 - 1e-6, 4001)
        vals = [std_normal_quantile(p) for p in ps]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_array_in_array_out(self):
        ps = np.array([0.1, 0.5, 0.975])
        got = std_normal_quantile(ps)
        assert isinstance(got, np.ndarray) and got.shape == (3,)
        assert got.tolist() == [std_normal_quantile(p) for p in ps.tolist()]
        assert type(std_normal_quantile(0.975)) is float


class TestVectorised:
    def test_matches_scalar(self):
        rng = np.random.default_rng(7)
        ps = np.concatenate(
            [
                rng.uniform(1e-12, 1 - 1e-12, 5_000),
                10.0 ** -np.linspace(1.5, 12, 100),
                1 - 10.0 ** -np.linspace(1.5, 12, 100),
            ]
        )
        ref = np.array([std_normal_quantile(p) for p in ps])
        got = std_normal_quantile_vec(ps)
        assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) < 1e-14

    def test_domain_error(self):
        with pytest.raises(ValueError):
            std_normal_quantile_vec(np.array([0.2, 1.0]))

    def test_shape_preserved(self):
        ps = np.full((3, 4), 0.5)
        assert std_normal_quantile_vec(ps).shape == (3, 4)

    @pytest.mark.parametrize("p", [0.3, 0.99, 1e-300])
    def test_scalar_is_one_element(self, p):
        # Central and both tail branches, for a float and a 0-d array.
        for arg in (p, np.array(p)):
            got = std_normal_quantile_vec(arg)
            assert got.shape == ()
            assert got == std_normal_quantile_vec(np.array([p]))[0]
