"""Mean and standard deviation estimators from non-parametric summaries.

A study reported with median/range/quartiles instead of mean and SD can
still feed power calculations and meta-analysis: the mean follows from
simple combinations of the reported quantiles, and the SD from dividing
the observed spread by the expected spread of a standard normal sample
of the same size.  For n <= 50 the classical asymptotic divisors are
off by up to ~0.6; the small-sample corrections applied here close that
gap to a few thousandths.

The estimates are computed by one columnar core, :func:`estimate_columns`,
over arrays of studies; :func:`estimate_moments`, :func:`estimate_sd` and
:func:`estimate_mean` are one-row views of it.  The divisors and their
corrections take one sample size and return a float, or take an int64
array of them and return an array of the same floats.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .specfun import _elementwise, _libm, std_normal_quantile
from .tables import _is_int

__all__ = [
    "Scenario",
    "SCENARIOS",
    "CorrectionOrder",
    "StudySummary",
    "MomentEstimate",
    "ColumnEstimates",
    "PIECEWISE_CUTOFF",
    "N_LIMIT",
    "check_cutoff",
    "estimate_columns",
    "estimate_mean",
    "delta_hat",
    "epsilon_hat",
    "DivisorKind",
    "DIVISORS",
    "blom_range_divisor",
    "blom_iqr_divisor",
    "xi_hat",
    "eta_hat",
    "estimate_sd",
    "estimate_moments",
    "required_sample_size",
]

#: Sample size at which the additive small-sample corrections switch off
#: and the asymptotic divisors are used unchanged.
PIECEWISE_CUTOFF = 50

#: Sample sizes must be below this bound to fit the estimators' int64 columns.
N_LIMIT = 2**63

# Log-linear correction for the range divisor, as published:
#     delta_hat(n) = -0.0626 + 0.0197 * ln(n)
DELTA_A = -0.0626
DELTA_B = 0.0197

# Rational-exponent correction for the IQR divisor,
#     epsilon_hat(n) = exp(n / (a + b n)),
# with coefficients kept at full least-squares precision (the published
# values are these rounded to 4 decimals; full precision is required for
# the documented large-n limit exp(1/b) = 0.01312794...).  The refit
# pipeline reproduces them from the tables; see tests.
EPSILON_A = -2.8822093304294345
EPSILON_B = -0.23078632706469723

# Second-order variant from the same residuals, centred at n = 26 and
# valid for 3 <= n <= 50.
EPSILON2_C0 = -9.01647
EPSILON2_C1 = -0.23238
EPSILON2_C2 = 0.00074
EPSILON2_CENTER = 26

_NONFINITE = "summaries must be finite numbers"
_UNORDERED = "summaries must satisfy min <= Q1 <= median <= Q3 <= max"
_NO_SCENARIO = "no scenario derivable: need {min, median, max} and/or {Q1, median, Q3}"
_OVERFLOW = "estimate overflows double precision"
_DIVISOR_N_MIN = "divisor defined for n >= 2, got {}"
_CORRECTION_N_MIN = "correction defined for n >= 2, got {}"
_SECOND_ORDER_DOMAIN = (
    f"second-order correction is defined for 3 <= n <= {PIECEWISE_CUTOFF}, got {{}}"
)
_RANGE_N_TOO_LARGE = "n={} is too large for the range divisor"

# A memo keeps the divisors of n below this, per (divisor, order, cutoff),
# in one array indexed by n.  A larger n is evaluated again in each batch
# it occurs in, so that millions of distinct n run in bounded memory.
_MEMO_LIMIT = 1 << 14


class Scenario(enum.Enum):
    """Which summary pattern a study reports."""

    C1 = "c1"  # min, median, max
    C2 = "c2"  # min, Q1, median, Q3, max
    C3 = "c3"  # Q1, median, Q3


#: Scenarios by the codes of :attr:`ColumnEstimates.scenario`.
SCENARIOS = (Scenario.C1, Scenario.C2, Scenario.C3)
_C1, _C2, _C3 = range(3)


class CorrectionOrder(enum.Enum):
    NONE = "none"
    FIRST = "first"
    SECOND = "second"


@dataclass(frozen=True)
class StudySummary:
    """One study's reported summaries, in the measurement's units.

    Absent summaries are ``None``.  :func:`estimate_moments` derives the
    scenario from which fields are present: C1 needs {min, median, max},
    C3 needs {Q1, median, Q3}, C2 needs all five.
    """

    n: int
    min_a: float | None = None
    q1: float | None = None
    median_m: float | None = None
    q3: float | None = None
    max_b: float | None = None

    def __post_init__(self):
        if not _is_int(self.n):
            raise ValueError(f"sample size must be an integer, got {self.n!r}")
        if problems := _invalid_rows(*self.columns()):
            raise ValueError(problems[0])

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """This study as one-row columns for :func:`estimate_columns`, NaN
        marking an absent summary.  A summary that is NaN (signaling too) or
        beyond double range reads as infinite, not as absent or finite.  A
        bool, or a value that ``math.isnan`` refuses, raises ValueError."""
        values = []
        for field in ("min_a", "q1", "median_m", "q3", "max_b"):
            v = getattr(self, field)
            try:
                if isinstance(v, (bool, np.bool_)):
                    raise TypeError
                values.append(math.nan if v is None else math.inf if math.isnan(v) else float(v))
            except (OverflowError, ValueError):  # beyond double range, or a signaling NaN
                values.append(math.inf)
            except TypeError:
                raise ValueError(f"{field} must be a real number, got {v!r}") from None
        return np.array([self.n]), np.array(values)[:, None]


@dataclass(frozen=True)
class MomentEstimate:
    """Estimated moments with provenance of how they were obtained."""

    mean: float | None
    sd: float | None
    scenario: Scenario
    divisor_used: float
    correction: CorrectionOrder
    degenerate: bool = False  # a spread it divides was exactly zero


@dataclass(frozen=True)
class ColumnEstimates:
    """Per-row results of :func:`estimate_columns`.

    Rows listed in ``errors`` have no estimate; their entries in the
    arrays are meaningless.  ``invalid`` marks the rows of ``errors``
    that are not a valid summary at all (sample size, non-finite or
    unordered values), as opposed to valid summaries that no scenario
    or divisor fits.
    """

    scenario: np.ndarray  # codes into SCENARIOS
    mean: np.ndarray
    sd: np.ndarray
    divisor: np.ndarray
    degenerate: np.ndarray  # a spread the SD divides is exactly zero
    errors: dict[int, str]
    invalid: np.ndarray


def _invalid_rows(n: np.ndarray, values: np.ndarray) -> dict[int, str]:
    """Rows that are not a valid summary, with the reason, NaN marking
    an absent value: an n that is a bool or not an integer, then
    n >= 2**63, then n < 2, then a value that is not finite, then
    values out of order.  The one validity check of a study,
    :class:`StudySummary` included."""
    unordered = np.zeros(n.shape, dtype=bool)
    highest = np.full(n.shape, -np.inf)
    for v in values:  # each value must reach every reported value before it
        unordered |= v < highest
        highest = np.fmax(highest, v)
    problems: dict[int, str] = {}
    if n.dtype.kind not in "iu":  # each element is looked at, and a non-integer reads as 2
        n = n.astype(object)
        for r, x in enumerate(n.tolist()):
            if not _is_int(x):
                problems[r] = f"sample size must be an integer, got {x!r}"
                n[r] = 2
    for r in np.flatnonzero(n >= N_LIMIT).tolist():
        problems[r] = f"sample size must be < 2**63, got {n[r]}"
    for r in np.flatnonzero(n < 2).tolist():
        problems[r] = f"sample size must be >= 2, got {n[r]}"
    for mask, msg in ((np.isinf(values).any(axis=0), _NONFINITE), (unordered, _UNORDERED)):
        for r in np.flatnonzero(mask).tolist():
            problems.setdefault(r, msg)
    return problems


def _scenario_codes(
    present: np.ndarray, override: Scenario | None
) -> tuple[np.ndarray, np.ndarray, str]:
    """Scenario code per row from which of the five values are present,
    preferring C2 > C3 > C1, or ``override``; the mask of the rows it
    does not fit, and their error."""
    c1 = present[0] & present[2] & present[4]
    c3 = present[1] & present[2] & present[3]
    if override is None:
        return np.where(c3, np.where(c1, _C2, _C3), _C1), ~(c1 | c3), _NO_SCENARIO
    fits = {Scenario.C1: c1, Scenario.C2: c1 & c3, Scenario.C3: c3}[override]
    reason = f"scenario {override.value} requested but required fields are missing"
    return np.full(c1.shape, SCENARIOS.index(override)), ~fits, reason


def _means(codes: np.ndarray, n: np.ndarray, values: np.ndarray):
    """The C1/C2/C3 mean formulas, chosen per row by scenario code."""
    a, q1, m, q3, b = values
    c1 = (a + 2 * m + b) / 4.0 + (a - 2 * m + b) / (4.0 * n)
    c2 = (a + 2 * q1 + 2 * m + 2 * q3 + b) / 8.0
    c3 = (q1 + m + q3) / 3.0
    return np.choose(codes, (c1, c2, c3))


def _divisor_column(kind, n, need, order, cutoff, memo, errors) -> np.ndarray:
    """The corrected divisor of ``kind`` for the rows in ``need``, 1.0
    elsewhere, evaluated in one call for the distinct n not in ``memo``'s
    array indexed by n.  Rows whose n has no divisor get an error."""
    out = np.ones(n.shape)
    distinct, inverse = np.unique(n[need], return_inverse=True)
    key = (kind.name, order, cutoff)
    if key not in memo:
        memo[key] = np.full(_MEMO_LIMIT, math.nan)
    known = memo[key]
    kept = distinct[:np.searchsorted(distinct, known.size)]  # sorted, so a prefix
    divisors = np.full(distinct.shape, math.nan)
    divisors[:kept.size] = known[kept]
    miss = np.isnan(divisors)
    if miss.any():
        undefined, reason = kind.domain(distinct, order, cutoff)
        todo = miss & ~undefined
        if todo.any():
            divisors[todo] = kind.corrected(distinct[todo], order, cutoff)
            known[kept] = divisors[:kept.size]
        for row in np.flatnonzero(need)[undefined[inverse]].tolist():
            errors.setdefault(row, reason.format(n[row]))
    out[need] = divisors[inverse]
    return out


def check_cutoff(cutoff: int) -> None:
    """Raise ValueError unless ``cutoff`` is an integer >= 2, not a bool:
    the largest n whose divisors :func:`xi_hat`, :func:`eta_hat` and
    :func:`estimate_columns` correct."""
    if not _is_int(cutoff):
        raise ValueError(f"cutoff must be an integer, got {cutoff!r}")
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2, got {cutoff}")


def estimate_columns(
    n,
    values,
    order: CorrectionOrder = CorrectionOrder.FIRST,
    scenario: Scenario | None = None,
    cutoff: int = PIECEWISE_CUTOFF,
    divisor_memo: dict | None = None,
) -> ColumnEstimates:
    """Mean, SD and divisor of many studies at once.

    ``n`` holds the sample sizes and ``values`` the reported summaries
    as five rows (min, Q1, median, Q3, max) of one column per study,
    NaN marking a value that was not reported.  The scenario of each
    study is C2 > C3 > C1 by the values present, or ``scenario`` for
    all.  C1 divides the range by ``xi_hat``, C3 the IQR by ``eta_hat``
    and C2 averages the two, each corrected for n <= ``cutoff`` (see
    :func:`check_cutoff`) to ``order``; the divisors are evaluated once
    per distinct n.  An ``order`` that is not a :class:`CorrectionOrder`,
    or a ``scenario`` that is not a :class:`Scenario` or None, raises
    ValueError.  A caller estimating several batches may pass the same
    dict as ``divisor_memo`` to reuse divisors across them.  A zero
    spread is not an error, so batch pipelines can keep going: a row is
    flagged ``degenerate`` when a spread its SD divides (the range for
    C1, the IQR for C3, either for C2) is exactly zero, and its SD is 0
    when every such spread is.  Every other row also keeps going, with
    a reason in ``errors``: any integer n, a Python int beyond 64 bits
    included, is either estimated or gets its row error.  An ``n`` that
    is not an array and that ``np.asarray`` would not make an integer
    column keeps each element's own type, so in ``[10, "12"]`` or
    ``[10, 10.5]`` only the second row is an error.
    """
    check_cutoff(cutoff)
    if not isinstance(order, CorrectionOrder):
        raise ValueError(f"order must be a CorrectionOrder, got {order!r}")
    if not (scenario is None or isinstance(scenario, Scenario)):
        raise ValueError(f"scenario must be a Scenario or None, got {scenario!r}")
    raw, n = n, np.asarray(n)
    if n.dtype.kind not in "iu" and not isinstance(raw, np.ndarray):
        n = np.array(raw, dtype=object)
    values = np.asarray(values, dtype=float)
    if n.ndim != 1 or values.shape != (5, n.size):
        raise ValueError(f"n and values must have shapes (k,) and (5, k), "
                         f"got {n.shape} and {values.shape}")
    errors = _invalid_rows(n, values)
    invalid = np.zeros(n.shape, dtype=bool)
    invalid[list(errors)] = True
    # Later steps read an int64 n, 2 in the invalid rows, whose n may
    # not fit int64.
    n, given_n = np.full(n.shape, 2, dtype=np.int64), n
    n[~invalid] = given_n[~invalid]
    codes, unfit, reason = _scenario_codes(~np.isnan(values), scenario)
    for r in np.flatnonzero(unfit & ~invalid).tolist():
        errors[r] = reason
    ok = ~(invalid | unfit)
    memo = {} if divisor_memo is None else divisor_memo
    xi = _divisor_column(DIVISORS["xi"], n, ok & (codes != _C3), order, cutoff, memo, errors)
    eta = _divisor_column(DIVISORS["eta"], n, ok & (codes != _C1), order, cutoff, memo, errors)

    a, q1, m, q3, b = values
    with np.errstate(all="ignore"):
        spread_range, spread_iqr = b - a, q3 - q1
        range_sd = spread_range / xi
        iqr_sd = spread_iqr / eta
        c2_sd = 0.5 * (range_sd + iqr_sd)
        sd = np.choose(codes, (range_sd, c2_sd, iqr_sd))
        zero_range, zero_iqr = spread_range == 0, spread_iqr == 0
        degenerate = np.choose(codes, (zero_range, zero_range | zero_iqr, zero_iqr))
        # For C2 record the effective divisor total_spread / (2 sd).
        c2_divisor = np.where(c2_sd > 0, (spread_range + spread_iqr) / (2.0 * c2_sd), xi)
        divisor = np.choose(codes, (xi, c2_divisor, eta))
        mean = _means(codes, n, values)
        finite = np.isfinite(mean) & np.isfinite(sd) & np.isfinite(divisor)
    for r in np.flatnonzero(~finite).tolist():
        errors.setdefault(r, _OVERFLOW)
    return ColumnEstimates(codes, mean, sd, divisor, degenerate, errors, invalid)


def estimate_mean(summary: StudySummary, scenario: Scenario | None = None) -> float:
    """Estimate the sample mean from the reported summaries: the ``mean``
    of :func:`estimate_moments`, which raises ValueError for the same
    studies.  C1 uses (a + 2m + b)/4 + (a - 2m + b)/(4n), C2
    (a + 2Q1 + 2m + 2Q3 + b)/8 and C3 (Q1 + m + Q3)/3.
    """
    return estimate_moments(summary, scenario=scenario).mean


def _reject(n: np.ndarray, bad: np.ndarray, reason: str) -> None:
    """Raise ``reason`` for the first n flagged in ``bad``."""
    if bad.any():
        raise ValueError(reason.format(n[bad][0]))


def _range_position(n: np.ndarray) -> np.ndarray:
    return (n - 0.375) / (n + 0.25)


def _not_finite_from_two(n: np.ndarray) -> np.ndarray:
    """The n that are not a finite number >= 2, NaN included."""
    return ~((n >= 2) & (n < math.inf))


def _outside_second_order(n: np.ndarray) -> np.ndarray:
    return ~((3 <= n) & (n <= PIECEWISE_CUTOFF))


@_elementwise
def delta_hat(n: int | np.ndarray) -> float | np.ndarray:
    """Additive small-sample correction for the range divisor."""
    _reject(n, _not_finite_from_two(n), _CORRECTION_N_MIN)
    return DELTA_A + DELTA_B * _libm(math.log, n)


@_elementwise
def epsilon_hat(
    n: int | np.ndarray, order: CorrectionOrder = CorrectionOrder.FIRST
) -> float | np.ndarray:
    """Additive small-sample correction for the IQR divisor, in (0, 1)."""
    if order is CorrectionOrder.SECOND:
        _reject(n, _outside_second_order(n), _SECOND_ORDER_DOMAIN)
        c = n - EPSILON2_CENTER
        return _libm(math.exp, n / (EPSILON2_C0 + EPSILON2_C1 * c + EPSILON2_C2 * c * c))
    if order is not CorrectionOrder.FIRST:
        raise ValueError("epsilon correction order must be FIRST or SECOND")
    _reject(n, _not_finite_from_two(n), _CORRECTION_N_MIN)
    return _libm(math.exp, n / (EPSILON_A + EPSILON_B * n))


@_elementwise
def blom_range_divisor(n: int | np.ndarray) -> float | np.ndarray:
    """Asymptotic range divisor: twice the normal quantile at Blom's
    position (n - 3/8) / (n + 1/4) of the sample maximum.  Above
    n = 2**52 the position rounds to 1 and there is no divisor."""
    _reject(n, _not_finite_from_two(n), _DIVISOR_N_MIN)
    p = _range_position(n)
    _reject(n, p >= 1.0, _RANGE_N_TOO_LARGE)
    return 2.0 * std_normal_quantile(p)


@_elementwise
def blom_iqr_divisor(n: int | np.ndarray) -> float | np.ndarray:
    """Asymptotic IQR divisor: twice the normal quantile at Blom's
    position (3n/4 - 1/8) / (n + 1/4) of the third quartile."""
    _reject(n, _not_finite_from_two(n), _DIVISOR_N_MIN)
    return 2.0 * std_normal_quantile((0.75 * n - 0.125) / (n + 0.25))


@_elementwise
def xi_hat(n: int | np.ndarray, cutoff: int = PIECEWISE_CUTOFF) -> float | np.ndarray:
    """Divisor turning an observed range into an SD estimate.

    Asymptotic form plus the log-linear correction for n <= cutoff; the
    asymptotic form alone above it.
    """
    check_cutoff(cutoff)
    base = blom_range_divisor(n)
    small = n <= cutoff
    base[small] += delta_hat(n[small])
    return base


@_elementwise
def eta_hat(
    n: int | np.ndarray,
    order: CorrectionOrder = CorrectionOrder.FIRST,
    cutoff: int = PIECEWISE_CUTOFF,
) -> float | np.ndarray:
    """Divisor turning an observed IQR into an SD estimate."""
    check_cutoff(cutoff)
    base = blom_iqr_divisor(n)
    if order is not CorrectionOrder.NONE:
        small = n <= cutoff
        base[small] += epsilon_hat(n[small], order)
    return base


@dataclass(frozen=True)
class DivisorKind:
    """One SD divisor: the index of its table in ``tables.load_tables()``,
    its asymptotic form, its corrected form called as ``(n, order,
    cutoff)``, and its domain, which maps the same arguments, n >= 2, to
    the mask of the n the corrected form rejects and the reason it
    gives."""

    name: str
    table: int
    asymptotic: Callable
    corrected: Callable
    domain: Callable


#: The range divisor and the IQR divisor.  The corrected forms look
#: ``xi_hat`` and ``eta_hat`` up when called, so that a wrapper put on
#: this module is the one called.
DIVISORS = {
    "xi": DivisorKind(
        "xi", 0, blom_range_divisor,
        lambda n, order, cutoff: xi_hat(n, cutoff),
        lambda n, order, cutoff: (_range_position(n) >= 1.0, _RANGE_N_TOO_LARGE),
    ),
    "eta": DivisorKind(
        "eta", 1, blom_iqr_divisor,
        lambda n, order, cutoff: eta_hat(n, order, cutoff),
        lambda n, order, cutoff: (
            (order is CorrectionOrder.SECOND) & (n <= cutoff) & _outside_second_order(n),
            _SECOND_ORDER_DOMAIN,
        ),
    ),
}


def estimate_moments(
    summary: StudySummary,
    order: CorrectionOrder = CorrectionOrder.FIRST,
    scenario: Scenario | None = None,
    cutoff: int = PIECEWISE_CUTOFF,
) -> MomentEstimate:
    """Estimate both mean and SD of one study (one row of
    :func:`estimate_columns`)."""
    est = estimate_columns(*summary.columns(), order, scenario, cutoff)
    if est.errors:
        raise ValueError(est.errors[0])
    return MomentEstimate(
        mean=float(est.mean[0]),
        sd=float(est.sd[0]),
        scenario=SCENARIOS[est.scenario[0]],
        divisor_used=float(est.divisor[0]),
        correction=order,
        degenerate=bool(est.degenerate[0]),
    )


def estimate_sd(
    summary: StudySummary,
    order: CorrectionOrder = CorrectionOrder.FIRST,
    scenario: Scenario | None = None,
    cutoff: int = PIECEWISE_CUTOFF,
) -> MomentEstimate:
    """Estimate the sample SD from the reported spread:
    :func:`estimate_moments` with ``mean`` left ``None``."""
    return replace(estimate_moments(summary, order, scenario, cutoff), mean=None)


def required_sample_size(sigma: float, delta: float, alpha: float, beta: float) -> int:
    """Per-group sample size for detecting a mean difference ``delta``.

    Smallest integer n with n >= 2 sigma^2 (z_{alpha/2} + z_beta)^2 / delta^2,
    computed from (sigma / delta)^2 when sigma^2 or delta^2 is not a normal float.
    """
    for name, value in (("sigma", sigma), ("delta", delta)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if delta == 0:
        raise ValueError("delta must be nonzero")
    if not 0 < alpha < 1 or not 0 < beta < 1:
        raise ValueError("alpha and beta must lie in (0, 1)")
    z2 = (std_normal_quantile(alpha / 2.0) + std_normal_quantile(beta)) ** 2
    underflow = min(sigma * sigma, delta * delta) < np.finfo(float).tiny
    bound = math.inf if underflow else 2.0 * sigma * sigma * z2 / (delta * delta)
    if not math.isfinite(bound):
        ratio = sigma / delta
        bound = 2.0 * ratio * ratio * z2
    if not math.isfinite(bound):
        raise ValueError(
            f"sample size bound is not a finite float for sigma={sigma!r}, delta={delta!r}"
        )
    return math.ceil(bound)
