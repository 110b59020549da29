"""Re-derivation of the correction coefficients from the fixture tables.

The corrections shipped in :mod:`summarysd.estimators` are least-squares
fits to the residuals between the tabulated divisors and their
asymptotic approximations.  This module recomputes those residuals,
their variable transforms, and the fits, so the shipped coefficients
can be audited end to end.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import tables
from .estimators import DIVISORS, EPSILON2_CENTER, PIECEWISE_CUTOFF

__all__ = [
    "ResidualKind",
    "ResidualSeries",
    "Coefficient",
    "RegressionFit",
    "SingularDesignError",
    "residual_series",
    "ols",
    "fit_epsilon_linear",
    "fit_epsilon_quadratic",
    "fit_delta",
]

# Two-sided 0.001 critical value of the standard normal; used only to
# set the "p < 0.001" indicator (exact t tails are not computed, and
# every fit here has |t| far beyond any df's critical value).
_T_FLAG_THRESHOLD = 3.2905


class ResidualKind(enum.Enum):
    DELTA = "delta"  # range divisor residuals
    EPSILON = "epsilon"  # IQR divisor residuals


class SingularDesignError(ValueError):
    """The regression design matrix is rank deficient."""


@dataclass(frozen=True)
class ResidualSeries:
    kind: ResidualKind
    ns: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class Coefficient:
    name: str
    estimate: float
    std_error: float
    t_value: float
    p_below_001: bool


@dataclass(frozen=True)
class RegressionFit:
    coefficients: tuple[Coefficient, ...]
    residual_std_error: float
    r_squared: float
    df: int

    def estimates(self) -> tuple[float, ...]:
        return tuple(c.estimate for c in self.coefficients)

    def format_summary(self) -> str:
        """Plain-text summary in the familiar lm-style layout."""
        lines = [f"{'':>12} {'Estimate':>12} {'Std. Error':>12} {'t value':>10} {'Pr(>|t|)':>10}"]
        for c in self.coefficients:
            p = "< 0.001" if c.p_below_001 else ">= 0.001"
            lines.append(
                f"{c.name:>12} {c.estimate:>12.5f} {c.std_error:>12.5f} "
                f"{c.t_value:>10.2f} {p:>10}"
            )
        lines.append(
            f"Residual standard error: {self.residual_std_error:.4g} "
            f"on {self.df} degrees of freedom"
        )
        lines.append(f"Multiple R-squared: {self.r_squared:.4f}")
        return "\n".join(lines)


def residual_series(kind: ResidualKind) -> ResidualSeries:
    """Residuals table-minus-asymptotic over n = 2..tables.N_MAX."""
    divisor = DIVISORS[{ResidualKind.DELTA: "xi", ResidualKind.EPSILON: "eta"}[kind]]
    table = tables.load_tables()[divisor.table]
    ns = np.arange(2, tables.N_MAX + 1)
    values = np.array(table.values)[ns - 1] - divisor.asymptotic(ns)
    return ResidualSeries(kind, ns, values)


def ols(design: np.ndarray, y: np.ndarray, names: tuple[str, ...]) -> RegressionFit:
    """Ordinary least squares with the usual inference summary.

    ``design`` is the full design matrix, intercept column included.
    R-squared is computed about the mean of ``y`` (intercept models).
    """
    design = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    rows, k = design.shape
    if len(names) != k:
        raise ValueError("one name per design column required")
    if rows < k + 1:
        raise ValueError(f"need at least {k + 1} rows for {k} coefficients, got {rows}")

    q, r = np.linalg.qr(design)
    diag = np.abs(np.diag(r))
    if diag.min() <= rows * np.finfo(float).eps * max(diag.max(), 1.0):
        raise SingularDesignError("design matrix is rank deficient")
    beta = np.linalg.solve(r, q.T @ y)

    resid = y - design @ beta
    df = rows - k
    rss = float(resid @ resid)
    sigma2 = rss / df
    rse = math.sqrt(sigma2)
    # (X'X)^-1 via R: X'X = R'R.
    r_inv = np.linalg.solve(r, np.eye(k))
    cov = sigma2 * (r_inv @ r_inv.T)
    ses = np.sqrt(np.diag(cov))
    tss = float(np.square(y - y.mean()).sum())
    r2 = 1.0 - rss / tss if tss > 0 else 1.0

    coeffs = tuple(
        Coefficient(
            name=name,
            estimate=float(b),
            std_error=float(se),
            t_value=float(b / se) if se > 0 else math.inf,
            p_below_001=abs(b / se) > _T_FLAG_THRESHOLD if se > 0 else True,
        )
        for name, b, se in zip(names, beta, ses)
    )
    return RegressionFit(coeffs, rse, r2, df)


def _epsilon_transform(series: ResidualSeries) -> np.ndarray:
    if series.kind is not ResidualKind.EPSILON:
        raise ValueError("epsilon fit requires the IQR residual series")
    if np.any(series.values >= 1.0) or np.any(series.values <= 0.0):
        raise ValueError("IQR residuals must lie in (0, 1) for the log transform")
    return series.ns / np.log(series.values)


def fit_epsilon_linear(series: ResidualSeries) -> RegressionFit:
    """Fit n / ln(residual) as an affine function of n."""
    y = _epsilon_transform(series)
    design = np.column_stack([np.ones_like(y), series.ns.astype(float)])
    return ols(design, y, ("a", "b"))


def fit_epsilon_quadratic(series: ResidualSeries) -> RegressionFit:
    """Quadratic variant on n = 3..PIECEWISE_CUTOFF, centred at EPSILON2_CENTER."""
    keep = (series.ns >= 3) & (series.ns <= PIECEWISE_CUTOFF)
    series = ResidualSeries(series.kind, series.ns[keep], series.values[keep])
    y = _epsilon_transform(series)
    c = series.ns.astype(float) - EPSILON2_CENTER
    design = np.column_stack([np.ones_like(y), c, c * c])
    return ols(design, y, ("c0", "c1", "c2"))


def fit_delta(series: ResidualSeries) -> RegressionFit:
    """Fit the range residuals as an affine function of ln(n)."""
    if series.kind is not ResidualKind.DELTA:
        raise ValueError("delta fit requires the range residual series")
    design = np.column_stack([np.ones(len(series.ns)), np.log(series.ns.astype(float))])
    return ols(design, series.values, ("a", "b"))

