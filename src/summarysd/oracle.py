"""Independent numerical recomputation of the divisor tables.

Both divisors are linear in the means of normal order statistics: the
expected range of n standard normals is 2 E[X_(n:n)], and the expected
sample IQR is a weighted sum of E[X_(r:m)] over the ranks r that a
quantile convention reads.  E[X_(k:m)] is the integral of z times the
density of the k-th of m order statistics,

    f(z) = m! / ((k-1)! (m-k)!) * Phi(z)^(k-1) * (1 - Phi(z))^(m-k) * phi(z)

(David & Nagaraja, Order Statistics, 2003, ch. 3; Royston, Algorithm
AS 177, 1982).  One kernel integrates it for many pairs (k, m) at once,
by the trapezoid rule on [-b, b].  f is formed in log space from an
lgamma coefficient, log phi and log Phi; Phi is erfc-based, so the left
tail keeps its relative accuracy, and log(1 - Phi) is log Phi reversed
on the symmetric nodes.  The integrand is analytic and decays like
phi(z), so the rule converges exponentially in the number of nodes
(Trefethen & Weideman, SIAM Review 56, 2014).  The step is halved from
2^4 panels, up to 2^12, until a pair's error estimate is within its
budget, max(abs_tol, rel_tol |value|).  The estimate is the largest of
three: the change from the previous level's sum, which uses every other
node; |mass - 1|, where the mass is the same rule applied to f alone;
and 50 machine epsilons of the integral of max(|z|, 1) f, the sums'
rounding error.  The mass guards against false convergence: the peak
of a narrow density (large m) can fall between the coarse nodes, where
two levels agree at about 0.  The estimate then adds the tails beyond
+-b, which halving cannot shrink: f <= m phi(z), so together they hold
at most 2 m phi(b).  Past 10 times the budget the quadrature raises
QuadratureError.  At the default tolerance of 1e-9 the range meets its
budget at 2^6 or 2^7 panels for n = 2..50, and agrees with an
independent quadrature over the whole real line to 6.2e-13, which is
the tails beyond b = 8 (1.1e-13 at b = 10).  The nodes, Phi and phi do
not depend on (k, m) and are computed once per (b, level).

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
The exact and the Monte Carlo IQR read their ranks and weights from one
table, so each convention is written once.  Neither path reuses the
correction formulas, so either side can audit the other against the
fixtures.
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
from .specfun import std_normal_cdf, std_normal_quantile_vec

__all__ = [
    "QuadratureConfig",
    "McConfig",
    "QuantileConvention",
    "QuadratureError",
    "expected_range",
    "expected_iqr",
    "expected_iqr_exact",
    "check_range",
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


def _check_convention(value) -> None:
    """Raise ValueError unless ``value`` is a QuantileConvention."""
    if not isinstance(value, QuantileConvention):
        raise ValueError(f"quantile_convention must be a QuantileConvention, got {value!r}")


@dataclass(frozen=True)
class McConfig:
    replications: int = 1_000_000
    seed: int = 0
    quantile_convention: QuantileConvention = QuantileConvention.QUARTER_GROUPS
    chunk_size: int = 100_000

    def __post_init__(self):
        for name in ("replications", "chunk_size", "seed"):
            value = getattr(self, name)
            if not tables._is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        _check_convention(self.quantile_convention)
        if self.replications < 10_000:
            raise ValueError("need at least 10^4 replications")
        if self.chunk_size < 1:
            raise ValueError("chunk size must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


# Trapezoid levels: 2**level panels on [-b, b].
_FIRST_LEVEL, _LAST_LEVEL = 4, 12
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


@lru_cache(maxsize=32)
def _nodes(b: float, level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights, log Phi(z) and log phi(z) at the 2**level + 1 nodes z of [-b, b].

    Row by row, the weights turn a density f at the nodes into the
    trapezoid sums of f, of z f less the previous level's sum of z f
    (every other node), of 50 eps max(|z|, 1) f and of z f.  The third is the
    rounding floor: two sums can agree to the last bit, so an error
    estimate is kept above 50 machine epsilons of the integral of
    max(|z|, 1) f, which bounds both |z f| and f, as in QUADPACK.  The
    nodes are h times whole numbers, so they are exactly symmetric and
    log(1 - Phi(z)) is ``log Phi`` reversed.  Phi is floored at the
    smallest normal double, which keeps its log finite at any bound.  The
    arrays are read-only: every caller shares them.
    """
    half = 2 ** (level - 1)
    h = b / half
    z = h * np.arange(-half, half + 1)
    fine = np.full(z.size, h)
    fine[[0, -1]] = h / 2
    coarse = np.zeros(z.size)
    coarse[::2] = 2 * h
    coarse[[0, -1]] = h
    weights = np.stack([fine, (fine - coarse) * z,
                        50 * _EPS * np.maximum(np.abs(z), 1.0) * fine, fine * z])
    log_cdf = np.log(np.maximum(std_normal_cdf(z), _TINY))
    log_pdf = -0.5 * z * z - 0.5 * math.log(2.0 * math.pi)
    for array in (weights, log_cdf, log_pdf):
        array.flags.writeable = False
    return weights, log_cdf, log_pdf


def _order_stat_means(k, m, cfg: QuadratureConfig, what: str) -> tuple[np.ndarray, np.ndarray]:
    """E[X_(k:m)] of m standard normals and its error estimate, for each
    pair of the integer arrays 1 <= k <= m (see the module docstring).

    A pair leaves the loop at the first level that meets its own budget,
    and every sum runs over its own row, so its value does not depend on
    the other pairs in the call.  Raises QuadratureError, naming ``what``
    and the largest failing estimate, if any estimate exceeds 10 times
    its pair's budget.
    """
    k, m = np.asarray(k), np.asarray(m)
    log_c = np.array([math.lgamma(size + 1) - math.lgamma(r) - math.lgamma(size - r + 1)
                      for r, size in zip(k.tolist(), m.tolist())])[:, None]
    below, above = (k - 1)[:, None], (m - k)[:, None]
    value, abserr, budget = ([0.0] * k.size for _ in range(3))
    todo = list(range(k.size))
    for level in range(_FIRST_LEVEL, _LAST_LEVEL + 1):
        weights, log_cdf, log_pdf = _nodes(cfg.integration_bound, level)
        log_f = below * log_cdf
        log_f += above * log_cdf[::-1]
        log_f += log_pdf
        log_f += log_c
        # Elementwise sums, unlike a BLAS matrix product, give the same
        # bits with any BLAS build.
        sums = np.add.reduce(np.exp(log_f, out=log_f)[:, None] * weights, axis=2)
        still_open = []
        for i, (mass, change, floor, fine) in zip(todo, sums.tolist()):
            value[i] = fine
            abserr[i] = max(abs(mass - 1.0), abs(change), floor)
            budget[i] = max(cfg.abs_tol, cfg.rel_tol * abs(fine))
            still_open.append(abserr[i] > budget[i])
        if not any(still_open):
            break
        if not all(still_open):
            todo = [i for i, keep in zip(todo, still_open) if keep]
            below, above, log_c = below[still_open], above[still_open], log_c[still_open]
    # Beyond +-b the density is at most m phi(z), and phi(b) is the
    # density at the last node.
    tail = 2 * math.exp(log_pdf[-1])
    abserr = [e + tail * size for e, size in zip(abserr, m.tolist())]
    failed = [e for e, limit in zip(abserr, budget) if e > 10 * limit]
    if failed:
        raise QuadratureError(
            f"{what}: error estimate {max(failed):.3e} exceeds budget "
            f"(abs_tol={cfg.abs_tol:.1e}, rel_tol={cfg.rel_tol:.1e})"
        )
    return np.array(value), np.array(abserr)


def _check_sample_size(n: int, what: str) -> None:
    """Raise ValueError unless n, the sample size of ``what``, is an integer >= 2."""
    if not tables._is_int(n):
        raise ValueError(f"expected {what} needs an integer n, got {n!r}")
    if n < 2:
        raise ValueError(f"expected {what} defined for n >= 2, got {n}")


def expected_range(n: int, cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Expected range of n standard normal observations, 2 E[X_(n:n)] by
    the order-statistic quadrature (see the module docstring)."""
    _check_sample_size(n, "range")
    means, _ = _order_stat_means([n], [n], cfg, f"expected_range(n={n})")
    return 2.0 * float(means[0])


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
    parallelism, and no two (convention, n) share their draws.  Chunk i
    draws from the stream ``SeedSequence.spawn`` would give as its i-th.
    """
    _check_sample_size(n, "IQR")
    key = (list(QuantileConvention).index(cfg.quantile_convention), n)
    total = 0.0
    total_sq = 0.0
    for i, start in enumerate(range(0, cfg.replications, cfg.chunk_size)):
        ss = np.random.SeedSequence(cfg.seed, spawn_key=(*key, i))
        rows = min(cfg.chunk_size, cfg.replications - start)
        iqr = _chunk_iqr(np.random.Generator(np.random.PCG64(ss)), n,
                         rows, cfg.quantile_convention)
        total += float(iqr.sum())
        total_sq += float(np.square(iqr).sum())
    reps = cfg.replications
    mean = total / reps
    var = max(total_sq / reps - mean * mean, 0.0)
    return mean, math.sqrt(var / reps)


def expected_iqr_exact(
    n: int,
    convention: QuantileConvention = QuantileConvention.QUARTER_GROUPS,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> tuple[float, float]:
    """Exact expected IQR of n normals under ``convention``: (value,
    error estimate).

    The sample IQR is the weighted sum of order statistics that
    ``_iqr_weights`` gives, the table :func:`expected_iqr` samples, so
    its expectation is the same sum of order-statistic means, each from
    the quadrature of the module docstring.
    """
    _check_sample_size(n, "IQR")
    _check_convention(convention)
    m, weights = _iqr_weights(n, convention)
    means, abserr = _order_stat_means(
        list(weights), [m] * len(weights), cfg,
        f"expected_iqr_exact(n={n}, convention={convention.value})")
    value = sum(w * mean for w, mean in zip(weights.values(), means.tolist()))
    error = sum(abs(w) * e for w, e in zip(weights.values(), abserr.tolist()))
    return value, error


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


def check_range(n_min: int, n_max: int) -> None:
    """Raise ValueError unless integers 2 <= n_min <= n_max <= ``tables.N_MAX``,
    the range :func:`regenerate_tables` can compare with the tables."""
    for name, value in (("n_min", n_min), ("n_max", n_max)):
        if not tables._is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if not 2 <= n_min <= n_max <= tables.N_MAX:
        raise ValueError(f"oracle range limited to 2 <= n_min <= n_max <= {tables.N_MAX}, "
                         f"got {n_min} and {n_max}")


def regenerate_tables(
    cfg_mc: McConfig = McConfig(),
    n_min: int = 2,
    n_max: int = tables.N_MAX,
    which: str = "both",
    conventions: tuple[QuantileConvention, ...] | None = None,
) -> RegenerationResult:
    """Recompute divisor tables over n_min..n_max.

    ``which`` selects "xi", "eta" or "both".  xi is the range quadrature
    at the default :class:`QuadratureConfig`.  For eta, every convention
    in ``conventions`` (all four if it is None) is run and the one with
    the smallest maximum deviation from the fixture table is flagged as
    best.  Raises ValueError for any other ``which`` and, when eta is
    computed, for empty ``conventions``; :func:`check_range` checks the
    range.
    """
    if which not in ("xi", "eta", "both"):
        raise ValueError(f"which must be 'xi', 'eta' or 'both', got {which!r}")
    check_range(n_min, n_max)
    convs = tuple(QuantileConvention) if conventions is None else conventions
    if which != "xi" and not convs:
        raise ValueError("conventions must name at least one QuantileConvention, "
                         f"got {conventions!r}")
    ns = list(range(n_min, n_max + 1))
    result = RegenerationResult(n_values=ns)
    if which in ("xi", "both"):
        for n in ns:
            result.xi[n] = expected_range(n)
    if which in ("eta", "both"):
        for conv in convs:
            conv_cfg = replace(cfg_mc, quantile_convention=conv)
            result.eta[conv] = {n: expected_iqr(n, conv_cfg) for n in ns}
        result.best_convention = min(result.eta, key=result.max_eta_deviation)
    return result
