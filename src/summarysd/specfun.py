"""Standard normal density, distribution and quantile functions.

These functions carry the accuracy contract the rest of the library
relies on (absolute error below 1e-12 for the CDF, quantile consistent
with the CDF to the same level).  The density, the CDF and
:func:`std_normal_quantile` take one float or an array.

Both quantiles evaluate Wichura's PPND16 rational approximation,
written once in :func:`_ppnd16`.  :func:`std_normal_quantile`, the one
polished by a Newton step, gives the divisors that ``estimate`` prints.
In it numpy does only the correctly rounded ``+ - * /`` and
``sqrt``; the transcendental steps (``log`` in the approximation,
``exp`` and ``erfc`` in the Newton step's :func:`std_normal_pdf` and
:func:`std_normal_cdf`) are libm's ``math.log``, ``math.exp`` and
``math.erfc`` mapped over the array.
numpy's own ``log`` and ``exp`` differ from libm by one ulp at some
arguments, which would move printed divisors; mapped libm keeps every
element bit-identical to a scalar evaluation.
:func:`std_normal_quantile_vec` maps the Monte Carlo oracle's uniform
order statistics to normal ones with ``np.log`` and no Newton step:
speed matters there, and the oracle's seeded digits depend on it.
"""

from __future__ import annotations

import math
from functools import partial, wraps

import numpy as np

__all__ = [
    "std_normal_pdf",
    "std_normal_cdf",
    "std_normal_quantile",
    "std_normal_quantile_vec",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)


def _libm(f, x: np.ndarray) -> np.ndarray:
    """``f`` from :mod:`math` mapped over the elements of ``x``."""
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _elementwise(f):
    """Let ``f``, written over an array, also take one number and return
    one float."""

    @wraps(f)
    def over_x(x, *args, **kwargs):
        if isinstance(x, np.ndarray):
            return f(x, *args, **kwargs)
        return float(f(np.array([x]), *args, **kwargs)[0])

    return over_x


@_elementwise
def std_normal_pdf(z: float | np.ndarray) -> float | np.ndarray:
    """Density of the standard normal at ``z``."""
    return _libm(math.exp, -0.5 * z * z) / _SQRT_2PI


@_elementwise
def std_normal_cdf(z: float | np.ndarray) -> float | np.ndarray:
    """Distribution function of the standard normal at ``z``.

    Computed through the complementary error function, which keeps the
    absolute error at the 1e-16 level uniformly in ``z``.
    """
    return 0.5 * _libm(math.erfc, -z / _SQRT2)


# Rational approximation of the normal quantile (Wichura's PPND16
# algorithm), accurate to ~1e-16 relative; a Newton step against the
# erfc-based CDF removes the residual approximation error.
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


def _poly(coeffs, r: np.ndarray) -> np.ndarray:
    """Horner's rule at every element of the array ``r``, in one new
    array: the same operations, in the same order, as ``acc * r + c``."""
    acc = r * coeffs[-1]
    acc += coeffs[-2]
    for c in reversed(coeffs[:-2]):
        acc *= r
        acc += c
    return acc


def _ppnd16(p: np.ndarray, log) -> np.ndarray:
    """PPND16 at every element of ``p`` (in (0, 1)); ``log`` maps an
    array to its logarithms.  The central branch (85% of the unit
    interval) runs for every element, in place in three arrays the size
    of ``p`` (q = p - 0.5 is formed again in r's buffer once r is
    spent), and the tails are patched afterwards: every tail element
    takes the near form, which the far form replaces where r > 5.  Each
    element sees the scalar order of operations."""
    if p.ndim == 0:  # a ufunc gives a scalar here, which cannot be written in place
        return _ppnd16(p.reshape(1), log).reshape(())
    r = p - 0.5
    r *= r
    np.subtract(0.180625, r, out=r)  # negative in the tails; harmless, overwritten
    out = _poly(_A, r)
    den = _poly(_B, r)
    q = np.subtract(p, 0.5, out=r)
    out *= q
    out /= den

    tail = np.flatnonzero(np.abs(q, out=den) > 0.425)
    if tail.size:
        pt = p.take(tail)
        r = np.sqrt(-log(np.minimum(pt, 1.0 - pt)))
        val = _poly(_C, r - 1.6) / _poly(_D, r - 1.6)
        far = r > 5.0
        rf = r[far] - 5.0
        val[far] = _poly(_E, rf) / _poly(_F, rf)
        np.put(out, tail, np.copysign(val, q.take(tail)))
    return out


def _open_unit(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    outside = ~((p > 0.0) & (p < 1.0))
    if outside.any():
        raise ValueError(f"quantile argument must lie in (0, 1), got {float(p[outside][0])!r}")
    return p


@_elementwise
def std_normal_quantile(p: float | np.ndarray) -> float | np.ndarray:
    """Quantile (inverse CDF) of the standard normal at ``p``, polished
    by one Newton step against the erfc-based CDF.

    The step is skipped in the far tails, where the density underflows
    and the rational form is already exact for double precision
    purposes.

    Raises
    ------
    ValueError
        If ``p`` (an element of it) is outside the open interval (0, 1).
    """
    p = _open_unit(p)
    x = _ppnd16(p, partial(_libm, math.log))
    dens = std_normal_pdf(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(dens > 1e-300, x - (std_normal_cdf(x) - p) / dens, x)


def std_normal_quantile_vec(p: np.ndarray) -> np.ndarray:
    """Normal quantile for bulk inverse-transform sampling.

    The rational approximation of :func:`std_normal_quantile` with
    numpy's ``log`` and without the Newton polish: the
    approximation alone is accurate to ~1e-15 (asserted against the
    polished quantile in tests).
    """
    return _ppnd16(_open_unit(p), np.log)
