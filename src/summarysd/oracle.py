"""Independent numerical recomputation of the divisor tables.

The expected normalised range is recovered from the order-statistic
identity

    E[X_(n) - X_(1)] = integral of z * n * phi(z)
                       * (Phi(z)^(n-1) - (1 - Phi(z))^(n-1)) dz

by the trapezoid rule on [-b, b].  The integrand is analytic and
decays like phi(z), so the rule converges exponentially in the number
of nodes (Trefethen & Weideman, SIAM Review 56, 2014).  The step is
halved from 2^4 panels, up to 2^12, until two successive sums agree to
the tolerance; their difference, but no less than 50 machine epsilons
of the value, is the discretisation error.  The error estimate adds the
tails beyond +-b, which halving cannot shrink: |integrand| <= n z phi(z)
there, so together they are at most 2 n phi(b).  The default tolerance
of 1e-9 is met at 2^6 or 2^7 panels for n = 2..50, and the values agree
with an independent quadrature over the whole real line to 6e-13, which
is the tails beyond b = 8 (3e-15 at b = 10).  phi and Phi at the nodes
do not depend on n and are computed once per (b, level).

The expected normalised IQR is recovered by reproducible Monte Carlo
under a choice of quantile conventions.  A convention reads the sample
IQR off k <= 4 order statistics of m, at ranks r_1 < ... < r_k, and
only those are drawn.  The m + 1 spacings of m sorted uniforms have
the law of m + 1 independent unit exponentials divided by their sum.
Summed between the ranks, the exponentials become k + 1 independent
gammas, and U_(r_j) is the sum of the first j over the sum of all
(Devroye 1986, ch. V).  That costs k + 1 gamma variates a row, where a
chain of k Beta draws costs 2k, and a gap of one rank is an
exponential.  The uniforms go through the bulk normal quantile, and
the weighted sum of those normal order statistics is the sample IQR.
Neither path reuses the correction formulas, so either side can audit
the other against the fixtures.
"""

from __future__ import annotations

import enum
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import tables
from .specfun import std_normal_cdf, std_normal_pdf, std_normal_quantile_vec

__all__ = [
    "QuadratureConfig",
    "McConfig",
    "QuantileConvention",
    "QuadratureError",
    "expected_range",
    "expected_iqr",
    "regenerate_tables",
    "RegenerationResult",
]


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance."""


class QuantileConvention(enum.Enum):
    """How sample quartiles are read off the order statistics.

    BLOM_INTERP
        Linear interpolation at rank h = p (n + 0.25) + 0.375.
    TYPE7_INTERP
        Linear interpolation at rank h = (n - 1) p + 1 (the common
        spreadsheet/NumPy default).
    NEAREST_RANK
        Order statistic at round((n + 1) p), ties to even.
    QUARTER_GROUPS
        Treats the table index q as a quartile-group count: sample size
        4q + 1 with Q1 and Q3 the exact order statistics at positions
        q + 1 and 3q + 1.  This is the convention that reproduces the
        reference table (see the regeneration report).
    """

    BLOM_INTERP = "blom"
    TYPE7_INTERP = "type7"
    NEAREST_RANK = "nearest"
    QUARTER_GROUPS = "quarter-groups"


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    integration_bound: float = 8.0

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol", "integration_bound"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be positive")
        if not 8.0 <= self.integration_bound < math.inf:
            raise ValueError("integration bound must be at least 8")


@dataclass(frozen=True)
class McConfig:
    replications: int = 1_000_000
    seed: int = 0
    quantile_convention: QuantileConvention = QuantileConvention.QUARTER_GROUPS
    chunk_size: int = 100_000

    def __post_init__(self):
        for name in ("replications", "chunk_size", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.replications < 10_000:
            raise ValueError("need at least 10^4 replications")
        if self.chunk_size < 1:
            raise ValueError("chunk size must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


# Trapezoid levels: 2**level panels on [-b, b].
_FIRST_LEVEL, _LAST_LEVEL = 4, 12
_EPS = np.finfo(float).eps


@lru_cache(maxsize=32)
def _range_nodes(b: float, level: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Step h, z phi(z) and Phi(z) at the 2**level + 1 nodes of [-b, b].

    The nodes are h times whole numbers, so they are exactly symmetric
    and Phi(-z) is ``Phi(z)`` reversed.  The arrays are read-only: every
    caller shares them.
    """
    half = 2 ** (level - 1)
    h = b / half
    z = h * np.arange(-half, half + 1)
    zpdf = z * std_normal_pdf(z)
    cdf = std_normal_cdf(z)
    zpdf.flags.writeable = cdf.flags.writeable = False
    return h, zpdf, cdf


def expected_range(n: int, cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Expected range of n standard normal observations, by the
    trapezoid rule with step halving (see the module docstring)."""
    if n < 2:
        raise ValueError(f"expected range defined for n >= 2, got {n}")

    value = math.inf
    for level in range(_FIRST_LEVEL, _LAST_LEVEL + 1):
        h, zpdf, cdf = _range_nodes(cfg.integration_bound, level)
        f = n * zpdf * (cdf ** (n - 1) - cdf[::-1] ** (n - 1))
        previous, value = value, float(h * (f.sum() - 0.5 * (f[0] + f[-1])))
        # Two sums can agree to the last bit; the estimate is kept above
        # their rounding error, as in QUADPACK (f >= 0, so the sum of
        # |f| is the value).
        abserr = max(abs(value - previous), 50 * _EPS * value)
        budget = max(cfg.abs_tol, cfg.rel_tol * abs(value))
        if abserr <= budget:
            break
    abserr += 2 * n * std_normal_pdf(cfg.integration_bound)
    if abserr > 10 * budget:
        raise QuadratureError(
            f"expected_range(n={n}): error estimate {abserr:.3e} exceeds budget "
            f"(abs_tol={cfg.abs_tol:.1e}, rel_tol={cfg.rel_tol:.1e})"
        )
    return value


# Per convention: sample size at table index n, fractional rank of
# quantile p among m.  Quarter-groups is type 7 on 4n + 1 draws, with
# whole quartile ranks n + 1 and 3n + 1.
_TYPE7_RANK = lambda p, m: (m - 1) * p + 1.0
_QUARTILE_RANKS = {
    QuantileConvention.BLOM_INTERP: (lambda n: n, lambda p, m: p * (m + 0.25) + 0.375),
    QuantileConvention.TYPE7_INTERP: (lambda n: n, _TYPE7_RANK),
    QuantileConvention.NEAREST_RANK: (lambda n: n, lambda p, m: float(round((m + 1) * p))),
    QuantileConvention.QUARTER_GROUPS: (lambda n: 4 * n + 1, _TYPE7_RANK),
}

# The closed interval just inside (0, 1), which the quantile accepts.
_OPEN_UNIT = (np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
_TINY = np.finfo(float).tiny


def _iqr_weights(n: int, conv: QuantileConvention) -> tuple[int, dict[int, float]]:
    """Sample size m and the sample IQR as {rank r: weight of X_(r:m)};
    a quartile at rank h in [1, m] is (1 - frac) X_(lo) + frac X_(lo+1)."""
    size_of, rank_of = _QUARTILE_RANKS[conv]
    m = size_of(n)
    weights = Counter()
    for sign, p in ((-1.0, 0.25), (1.0, 0.75)):
        h = min(max(rank_of(p, m), 1.0), float(m))
        lo, frac = int(h), h % 1.0
        weights[lo] += sign * (1.0 - frac)
        weights[lo + 1] += sign * frac
    return m, {r: w for r, w in sorted(weights.items()) if w}


def _chunk_iqr(rng: np.random.Generator, n: int, rows: int, conv: QuantileConvention) -> np.ndarray:
    """IQR of ``rows`` samples under the given convention.

    Draws only the order statistics the convention reads, at its ranks
    r_1 < ... < r_k of m, from k + 1 independent gamma spacings
    G_1 ~ Gamma(r_1), G_j ~ Gamma(r_j - r_{j-1}) and
    G_{k+1} ~ Gamma(m + 1 - r_k), as
    U_(r_j) = (G_1 + ... + G_j) / (G_1 + ... + G_{k+1}) (Devroye,
    Non-Uniform Random Variate Generation, 1986, ch. V; David &
    Nagaraja, Order Statistics, 2003, sec. 2.5).  Each spacing is one
    scalar-shape draw (one call with an array of shapes is slower) into
    a row of one buffer that keeps the running sums.  The total is
    floored at the smallest normal double, so an all-zero row gives 0,
    not 0/0.  Each U is clipped into (0, 1) and mapped through the
    audited normal quantile, the oracle's single accuracy surface.
    """
    m, weights = _iqr_weights(n, conv)
    ranks = [0, *weights, m + 1]
    sums = np.empty((len(ranks) - 1, rows))
    for j, row in enumerate(sums):
        rng.standard_gamma(ranks[j + 1] - ranks[j], size=rows, out=row)
        if j:
            row += sums[j - 1]
    total = np.maximum(sums[-1], _TINY, out=sums[-1])
    u = np.divide(sums[:-1], total, out=sums[:-1])
    np.clip(u, *_OPEN_UNIT, out=u)
    # One rank at a time: the quantile's temporaries hold one row, not k,
    # and elementwise sums, unlike a BLAS matrix product, give the same
    # bits with any BLAS build.
    iqr = np.zeros(rows)
    for row, w in zip(u, weights.values()):
        z = std_normal_quantile_vec(row)
        z *= w
        iqr += z
    return iqr


def expected_iqr(n: int, cfg: McConfig = McConfig()) -> tuple[float, float]:
    """Monte Carlo expected IQR of n normals: (estimate, std. error).

    Output is a deterministic function of (seed, replications,
    chunk_size, convention, n): each chunk draws from its own stream,
    spawned in schedule order from a seed sequence keyed by the
    convention and n, so the result cannot depend on execution
    parallelism, and no two (convention, n) share their draws.
    """
    if n < 2:
        raise ValueError(f"expected IQR defined for n >= 2, got {n}")
    full, rem = divmod(cfg.replications, cfg.chunk_size)
    schedule = [cfg.chunk_size] * full + ([rem] if rem else [])
    key = (list(QuantileConvention).index(cfg.quantile_convention), n)
    streams = np.random.SeedSequence(cfg.seed, spawn_key=key).spawn(len(schedule))
    total = 0.0
    total_sq = 0.0
    for rows, ss in zip(schedule, streams):
        iqr = _chunk_iqr(np.random.Generator(np.random.PCG64(ss)), n,
                         rows, cfg.quantile_convention)
        total += float(iqr.sum())
        total_sq += float(np.square(iqr).sum())
    reps = cfg.replications
    mean = total / reps
    var = max(total_sq / reps - mean * mean, 0.0)
    return mean, math.sqrt(var / reps)


@dataclass
class RegenerationResult:
    """Regenerated divisor values plus deviations from the fixtures."""

    n_values: list[int]
    xi: dict[int, float] = field(default_factory=dict)
    eta: dict[QuantileConvention, dict[int, tuple[float, float]]] = field(default_factory=dict)
    best_convention: QuantileConvention | None = None

    def xi_deviations(self) -> dict[int, float]:
        xi_tab, _ = tables.load_tables()
        return {n: self.xi[n] - xi_tab.value(n) for n in self.xi}

    def eta_deviations(self, conv: QuantileConvention) -> dict[int, float]:
        _, eta_tab = tables.load_tables()
        return {n: est - eta_tab.value(n) for n, (est, _) in self.eta[conv].items()}

    def max_eta_deviation(self, conv: QuantileConvention) -> float:
        return max(abs(d) for d in self.eta_deviations(conv).values())

    def fixture_lines(self) -> list[str]:
        """Rows in the fixture format ``n<TAB>xi<TAB>eta``, eta by the best
        convention (blank if absent)."""
        eta = self.eta.get(self.best_convention, {})
        lines = []
        for n in self.n_values:
            xi_s = f"{self.xi[n]:.6f}" if n in self.xi else ""
            eta_s = f"{eta[n][0]:.6f}" if n in eta else ""
            lines.append(f"{n}\t{xi_s}\t{eta_s}")
        return lines

    def report_lines(self) -> list[str]:
        """Per-n deviation sidecar, one convention block at a time."""
        lines = []
        if self.xi:
            dev = self.xi_deviations()
            lines.append("# range divisor (quadrature) deviation from fixture")
            for n in sorted(dev):
                lines.append(f"xi\t{n}\t{self.xi[n]:.6f}\t{dev[n]:+.6f}")
        for conv in self.eta:
            dev = self.eta_deviations(conv)
            lines.append(f"# IQR divisor (Monte Carlo, convention={conv.value})")
            for n in sorted(dev):
                est, se = self.eta[conv][n]
                lines.append(f"eta\t{n}\t{est:.6f}\t{dev[n]:+.6f}\t{se:.6f}")
            lines.append(
                f"# convention={conv.value} max |deviation| = "
                f"{self.max_eta_deviation(conv):.6f}"
            )
        if self.best_convention is not None:
            lines.append(f"# best convention: {self.best_convention.value}")
        return lines


def regenerate_tables(
    cfg_mc: McConfig = McConfig(),
    n_min: int = 2,
    n_max: int = tables.N_MAX,
    which: str = "both",
    conventions: tuple[QuantileConvention, ...] | None = None,
) -> RegenerationResult:
    """Recompute divisor tables over n_min..n_max.

    ``which`` selects "xi", "eta" or "both".  xi is the range quadrature
    at the default :class:`QuadratureConfig`.  For eta, every requested
    convention is run and the one with the smallest maximum deviation
    from the fixture table is flagged as best.
    """
    ns = list(range(n_min, n_max + 1))
    result = RegenerationResult(n_values=ns)
    if which in ("xi", "both"):
        for n in ns:
            result.xi[n] = expected_range(n)
    if which in ("eta", "both"):
        convs = conventions or tuple(QuantileConvention)
        for conv in convs:
            conv_cfg = replace(cfg_mc, quantile_convention=conv)
            result.eta[conv] = {n: expected_iqr(n, conv_cfg) for n in ns}
        result.best_convention = min(result.eta, key=result.max_eta_deviation)
    return result
