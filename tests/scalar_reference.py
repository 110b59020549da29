"""Scalar reference for the normal quantile and the divisors.

A pure-``math`` copy of Wichura's PPND16 normal quantile with its Newton
step, of the divisors built on it, and a numpy copy of the Monte Carlo
oracle's bulk quantile, all with their own constants.  They stay frozen
so that tests can require the shipped array code to give the same
floats, bit for bit, and so that the per-row reference of the
``estimate`` tests does not share code with what it checks.
"""

import math

import numpy as np

from summarysd.estimators import CorrectionOrder

_A = (
    3.3871328727963666080e0,
    1.3314166789178437745e2,
    1.9715909503065514427e3,
    1.3731693765509461125e4,
    4.5921953931549871457e4,
    6.7265770927008700853e4,
    3.3430575583588128105e4,
    2.5090809287301226727e3,
)
_B = (
    1.0,
    4.2313330701600911252e1,
    6.8718700749205790830e2,
    5.3941960214247511077e3,
    2.1213794301586595867e4,
    3.9307895800092710610e4,
    2.8729085735721942674e4,
    5.2264952788528545610e3,
)
_C = (
    1.42343711074968357734e0,
    4.63033784615654529590e0,
    5.76949722146069140550e0,
    3.64784832476320460504e0,
    1.27045825245236838258e0,
    2.41780725177450611770e-1,
    2.27238449892691845833e-2,
    7.74545014278341407640e-4,
)
_D = (
    1.0,
    2.05319162663775882187e0,
    1.67638483018380384940e0,
    6.89767334985100004550e-1,
    1.48103976427480074590e-1,
    1.51986665636164571966e-2,
    5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
_E = (
    6.65790464350110377720e0,
    5.46378491116411436990e0,
    1.78482653991729133580e0,
    2.96560571828504891230e-1,
    2.65321895265761230930e-2,
    1.24266094738807843860e-3,
    2.71155556874348757815e-5,
    2.01033439929228813265e-7,
)
_F = (
    1.0,
    5.99832206555887937690e-1,
    1.36929880922735805310e-1,
    1.48753612908506148525e-2,
    7.86869131145613259100e-4,
    1.84631831751005468180e-5,
    1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)

DELTA_A, DELTA_B = -0.0626, 0.0197
EPSILON_A, EPSILON_B = -2.8822093304294345, -0.23078632706469723
EPSILON2_C0, EPSILON2_C1, EPSILON2_C2, EPSILON2_CENTER = -9.01647, -0.23238, 0.00074, 26
SECOND_ORDER_MAX = 50


def _poly(coeffs, r):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * r + c
    return acc


def _ppnd16(p: float) -> float:
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        return q * _poly(_A, r) / _poly(_B, r)
    r = p if q < 0.0 else 1.0 - p
    r = math.sqrt(-math.log(r))
    if r <= 5.0:
        r -= 1.6
        val = _poly(_C, r) / _poly(_D, r)
    else:
        r -= 5.0
        val = _poly(_E, r) / _poly(_F, r)
    return -val if q < 0.0 else val


def std_normal_quantile(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile argument must lie in (0, 1), got {p!r}")
    x = _ppnd16(p)
    dens = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    if dens > 1e-300:
        x -= (0.5 * math.erfc(-x / math.sqrt(2.0)) - p) / dens
    return x


def std_normal_quantile_vec(p: np.ndarray) -> np.ndarray:
    """PPND16 with ``np.log`` and no Newton step: central branch
    everywhere, tails patched."""
    q = p - 0.5
    r = 0.180625 - q * q
    out = q * _poly(_A, r) / _poly(_B, r)
    tail = np.abs(q) > 0.425
    if tail.any():
        qt, pt = q[tail], p[tail]
        r = np.sqrt(-np.log(np.where(qt < 0.0, pt, 1.0 - pt)))
        val = np.empty_like(r)
        near = r <= 5.0
        val[near] = _poly(_C, r[near] - 1.6) / _poly(_D, r[near] - 1.6)
        val[~near] = _poly(_E, r[~near] - 5.0) / _poly(_F, r[~near] - 5.0)
        out[tail] = np.where(qt < 0.0, -val, val)
    return out


def blom_range_divisor(n: int) -> float:
    p = (n - 0.375) / (n + 0.25)
    if p >= 1.0:
        raise ValueError(f"n={n} is too large for the range divisor")
    return 2.0 * std_normal_quantile(p)


def blom_iqr_divisor(n: int) -> float:
    return 2.0 * std_normal_quantile((0.75 * n - 0.125) / (n + 0.25))


def delta_hat(n: int) -> float:
    return DELTA_A + DELTA_B * math.log(n)


def epsilon_hat(n: int, order: CorrectionOrder) -> float:
    if order is CorrectionOrder.SECOND:
        if not 3 <= n <= SECOND_ORDER_MAX:
            raise ValueError(
                f"second-order correction is defined for 3 <= n <= {SECOND_ORDER_MAX}, got {n}"
            )
        c = n - EPSILON2_CENTER
        return math.exp(n / (EPSILON2_C0 + EPSILON2_C1 * c + EPSILON2_C2 * c * c))
    return math.exp(n / (EPSILON_A + EPSILON_B * n))


def xi_hat(n: int, cutoff: int = 50) -> float:
    if n < 2:
        raise ValueError(f"divisor defined for n >= 2, got {n}")
    base = blom_range_divisor(n)
    if n <= cutoff:
        base += delta_hat(n)
    return base


def eta_hat(n: int, order: CorrectionOrder = CorrectionOrder.FIRST, cutoff: int = 50) -> float:
    if n < 2:
        raise ValueError(f"divisor defined for n >= 2, got {n}")
    base = blom_iqr_divisor(n)
    if order is not CorrectionOrder.NONE and n <= cutoff:
        base += epsilon_hat(n, order)
    return base
