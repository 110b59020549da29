"""Quadrature and Monte Carlo recomputation of the divisor tables."""

import math
import re
from dataclasses import replace
from decimal import ROUND_HALF_UP, Decimal

import numpy as np
import pytest
from scipy import integrate, special

from summarysd import oracle, tables
from summarysd.estimators import CorrectionOrder, eta_hat, xi_hat
from summarysd.oracle import (
    McConfig,
    QuadratureConfig,
    QuadratureError,
    QuantileConvention,
    _chunk_iqr,
    _iqr_weights,
    _order_stat_means,
    expected_iqr,
    expected_iqr_exact,
    expected_range,
    regenerate_tables,
)

TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def order_stat_mean(k: int, m: int, tol: float = 1e-12) -> float:
    """E[X_(k:m)] of m standard normals, by quadrature of z times the
    density of the k-th order statistic.

    Used only up to m = 201, the quarter-groups sample size at n = 50.
    Its one break point is 0, so for larger m the adaptive rule can miss
    the narrow peak of an off-centre order statistic: it returns 2.7e-13
    for E[X_(4801:6401)], whose true value is about 0.67434."""
    log_c = special.gammaln(m + 1) - special.gammaln(k) - special.gammaln(m - k + 1)

    def f(z):
        log_density = (log_c + (k - 1) * special.log_ndtr(z)
                       + (m - k) * special.log_ndtr(-z) - 0.5 * z * z)
        return z * math.exp(log_density) / math.sqrt(2.0 * math.pi)

    value, _ = integrate.quad(f, -12.0, 12.0, points=[0.0], epsabs=tol, epsrel=tol, limit=400)
    return value


def range_reference(n: int) -> float:
    """E[X_(n:n) - X_(1:n)] as the integral of 1 - Phi^n - (1 - Phi)^n
    over the whole real line, by adaptive quadrature in log space."""
    value, _ = integrate.quad(
        lambda z: -math.expm1(n * special.log_ndtr(z)) - math.exp(n * special.log_ndtr(-z)),
        -np.inf, np.inf, epsabs=1e-13, epsrel=1e-13, limit=400,
    )
    return value


def exact_iqr(n: int, conv: QuantileConvention) -> float:
    """Expected sample IQR as a combination of order-statistic means,
    with each convention's quartile ranks written out here."""
    if conv is QuantileConvention.QUARTER_GROUPS:
        return order_stat_mean(3 * n + 1, 4 * n + 1) - order_stat_mean(n + 1, 4 * n + 1)
    quartiles = []
    for p in (0.25, 0.75):
        h = {
            QuantileConvention.BLOM_INTERP: p * (n + 0.25) + 0.375,
            QuantileConvention.TYPE7_INTERP: (n - 1) * p + 1.0,
            QuantileConvention.NEAREST_RANK: float(round((n + 1) * p)),
        }[conv]
        h = min(max(h, 1.0), float(n))
        lo = math.floor(h)
        frac = h - lo
        hi_mean = order_stat_mean(lo + 1, n) if frac else 0.0
        quartiles.append((1.0 - frac) * order_stat_mean(lo, n) + frac * hi_mean)
    return quartiles[1] - quartiles[0]


class TestExpectedRange:
    def test_analytic_anchor_n2(self):
        # E|X - Y| for two independent standard normals, closed form.
        assert expected_range(2) == pytest.approx(TWO_OVER_SQRT_PI, abs=1e-9)

    def test_matches_independent_reference(self):
        # The trapezoid rule stops at +-8; the tails beyond add < 1e-12.
        dev = {n: abs(expected_range(n) - range_reference(n)) for n in range(2, 51)}
        assert max(dev.values()) < 1e-12, dev

    def test_matches_table_spot_values(self):
        assert expected_range(50) == pytest.approx(tables.xi_table(50), abs=5e-4)
        assert round(expected_range(2), 3) == 1.128

    def test_strictly_increasing(self):
        vals = [expected_range(n) for n in range(2, 51)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_bound_invariance(self):
        cfg8 = QuadratureConfig(integration_bound=8.0)
        cfg10 = QuadratureConfig(integration_bound=10.0)
        for n in (2, 17, 50):
            assert abs(expected_range(n, cfg8) - expected_range(n, cfg10)) <= 10 * cfg8.abs_tol

    def test_unreachable_tolerance_raises(self):
        # No error estimate falls below the sum's rounding error.
        cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300)
        with pytest.raises(QuadratureError, match=(
                r"^expected_range\(n=2\): error estimate \S+ exceeds budget "
                r"\(abs_tol=1\.0e-300, rel_tol=1\.0e-300\)$")):
            expected_range(2, cfg)

    def test_error_estimate_counts_the_tails(self):
        # Beyond b = 8 the tails hold 2 n phi(8) = 5.05e-13 at n = 50,
        # more than 10x a budget of 1e-14 * E[range]; at b = 10 they
        # hold 8e-21.
        tight = dict(abs_tol=1e-14, rel_tol=1e-14)
        with pytest.raises(QuadratureError, match=r"^expected_range\(n=50\)"):
            expected_range(50, QuadratureConfig(**tight, integration_bound=8.0))
        value = expected_range(50, QuadratureConfig(**tight, integration_bound=10.0))
        assert abs(value - range_reference(50)) <= 1e-13

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(integration_bound=4.0)
        for value in (math.nan, math.inf):
            for field in ("abs_tol", "rel_tol"):
                with pytest.raises(ValueError, match="^tolerances must be positive$"):
                    QuadratureConfig(**{field: value})
            with pytest.raises(ValueError, match="^integration bound must be at least 8$"):
                QuadratureConfig(integration_bound=value)
        for field in ("abs_tol", "rel_tol", "integration_bound"):
            for value in ("1e-9", None, True, False):
                with pytest.raises(ValueError,
                                   match=rf"^{field} must be a real number, got {value!r}$"):
                    QuadratureConfig(**{field: value})


def _expected(which, n):
    """``expected_range(n)``, ``expected_iqr(n)`` or ``expected_iqr_exact(n)``, by name."""
    if which == "range":
        return expected_range(n)
    if which == "exact IQR":
        return expected_iqr_exact(n)
    return expected_iqr(n, McConfig(replications=10_000))


class TestSampleSize:
    """The one n rule that expected_range, expected_iqr and
    expected_iqr_exact share; both IQRs name it the same way."""

    # The IQR cases keep their bare ids.
    @pytest.mark.parametrize("which, n", [
        pytest.param(which, n, id=f"{prefix}{n}")
        for which, prefix in (("IQR", ""), ("range", "range-"), ("exact IQR", "exact-"))
        for n in (5.5, 5.0, True, "5", math.nan, math.inf)
    ])
    def test_n_must_be_an_integer(self, which, n):
        what = which.removeprefix("exact ")
        with pytest.raises(ValueError, match=rf"^expected {what} needs an integer n, got {re.escape(repr(n))}$"):
            _expected(which, n)

    def test_n_below_2_keeps_its_reason(self):
        for which in ("IQR", "range", "exact IQR"):
            what = which.removeprefix("exact ")
            with pytest.raises(ValueError, match=rf"^expected {what} defined for n >= 2, got 1$"):
                _expected(which, 1)


class TestExpectedIqr:
    def test_deterministic(self):
        cfg = McConfig(replications=20_000, seed=42, chunk_size=7_000)
        assert expected_iqr(10, cfg) == expected_iqr(10, cfg)

    def test_chunking_changes_stream_not_contract(self):
        # Determinism is pinned to (seed, replications, chunk_size); a
        # different chunk size is a different (still deterministic) run.
        a = expected_iqr(10, McConfig(replications=20_000, seed=42, chunk_size=5_000))
        b = expected_iqr(10, McConfig(replications=20_000, seed=42, chunk_size=20_000))
        assert a != b
        assert a[0] == pytest.approx(b[0], abs=5 * (a[1] + b[1]))

    @pytest.mark.parametrize("chunk_size, conv, n, expected", [
        # Two chunks.
        (10_000, QuantileConvention.QUARTER_GROUPS, 5, (1.2609321984085498, 0.002324452202202003)),
        # Three, the last one short: 7000, 7000 and 6000 rows.
        (7_000, QuantileConvention.TYPE7_INTERP, 10, (1.1724350744535825, 0.002983039285715786)),
        (7_000, QuantileConvention.QUARTER_GROUPS, 25, (1.3294075571400041, 0.0011004950311261786)),
    ])
    def test_streams_of_several_chunks_are_pinned(self, chunk_size, conv, n, expected):
        cfg = McConfig(replications=20_000, seed=3, chunk_size=chunk_size, quantile_convention=conv)
        assert expected_iqr(n, cfg) == expected

    def test_each_convention_and_n_draws_its_own_stream(self, monkeypatch):
        def first_draws(n, conv):
            """The first draw of each chunk's stream."""
            draws = []

            def record(rng, n, rows, conv):
                draws.append(rng.random())
                return np.zeros(rows)

            monkeypatch.setattr(oracle, "_chunk_iqr", record)
            expected_iqr(n, McConfig(replications=30_000, seed=7, chunk_size=10_000,
                                     quantile_convention=conv))
            return draws

        groups, blom = QuantileConvention.QUARTER_GROUPS, QuantileConvention.BLOM_INTERP
        base = first_draws(5, groups)
        assert len(set(base)) == 3
        assert first_draws(5, groups) == base
        assert set(first_draws(50, groups)).isdisjoint(base)
        assert set(first_draws(5, blom)).isdisjoint(base)

    def test_quarter_groups_matches_table(self):
        cfg = McConfig(replications=100_000, seed=3)
        for n in (2, 10, 50):
            est, se = expected_iqr(n, cfg)
            assert est == pytest.approx(tables.eta_table(n), abs=3 * se + 5e-4)

    def test_interp_conventions_run(self):
        for conv in (
            QuantileConvention.BLOM_INTERP,
            QuantileConvention.TYPE7_INTERP,
            QuantileConvention.NEAREST_RANK,
        ):
            cfg = McConfig(replications=10_000, seed=1, quantile_convention=conv)
            est, se = expected_iqr(5, cfg)
            assert est > 0
            assert se > 0

    @pytest.mark.parametrize("conv", list(QuantileConvention), ids=lambda c: c.value)
    @pytest.mark.parametrize("n", [2, 3, 5, 10, 50])
    def test_agrees_with_exact_order_statistics(self, conv, n):
        cfg = McConfig(replications=200_000, seed=20 + n, quantile_convention=conv)
        est, se = expected_iqr(n, cfg)
        assert abs(est - exact_iqr(n, conv)) <= 5 * se

    @pytest.mark.parametrize("conv", list(QuantileConvention), ids=lambda c: c.value)
    def test_sampler_survives_gamma_draws_at_0(self, conv):
        class EdgeGamma:
            """Gamma draws of exactly 0.0 and 1.0, every combination over
            the rows for up to five spacings, the all-zero row included."""

            calls = 0

            def standard_gamma(self, shape, size, out):
                out[:] = (np.arange(size) >> self.calls) & 1
                self.calls += 1
                return out

        for n in (2, 5, 10):
            iqr = _chunk_iqr(EdgeGamma(), n, 32, conv)
            assert iqr.shape == (32,)
            assert np.all(np.isfinite(iqr))

    @pytest.mark.parametrize("conv", list(QuantileConvention), ids=lambda c: c.value)
    @pytest.mark.parametrize("n", [2, 3, 5, 10, 50])
    def test_draws_one_gamma_spacing_per_rank_gap(self, conv, n):
        class Recording:
            def __init__(self):
                self.shapes = []
                self.rng = np.random.default_rng(0)

            def standard_gamma(self, shape, size, out):
                self.shapes.append(shape)
                return self.rng.standard_gamma(shape, size=size, out=out)

        # The ranks are those the convention reads, as _iqr_weights gives
        # them; exact_iqr checks the weights themselves statistically.
        m, weights = _iqr_weights(n, conv)
        ranks = [0, *weights, m + 1]
        rng = Recording()
        iqr = _chunk_iqr(rng, n, 7, conv)
        assert iqr.shape == (7,)
        assert rng.shapes == [b - a for a, b in zip(ranks, ranks[1:])]
        assert sum(rng.shapes) == m + 1

    def test_replication_floor(self):
        with pytest.raises(ValueError):
            McConfig(replications=5_000)

    @pytest.mark.parametrize("field, value", [
        ("replications", 20_000.0),
        ("replications", "20000"),
        ("chunk_size", True),
        ("chunk_size", 2.5),
        ("seed", True),
        ("seed", False),
        ("seed", 1.5),
        ("seed", None),
    ])
    def test_config_fields_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {value!r}$"):
            McConfig(**{"replications": 10_000, field: value})

    def test_convention_must_be_a_quantile_convention(self):
        message = "^quantile_convention must be a QuantileConvention, got 'type7'$"
        with pytest.raises(ValueError, match=message):
            McConfig(replications=10_000, quantile_convention="type7")
        with pytest.raises(ValueError, match=message):
            expected_iqr_exact(5, "type7")
        with pytest.raises(ValueError, match=message):
            regenerate_tables(McConfig(replications=10_000), 2, 2, "eta", conventions=("type7",))
        with pytest.raises(ValueError, match=r"^conventions must name at least one "
                                             r"QuantileConvention, got \(\)$"):
            regenerate_tables(McConfig(replications=10_000), 2, 2, "eta", conventions=())


class TestExpectedIqrExact:
    """The order-statistic kernel and the exact expected IQR built on it."""

    @pytest.mark.parametrize("conv", list(QuantileConvention), ids=lambda c: c.value)
    @pytest.mark.parametrize("n", range(2, 51))
    def test_matches_scipy_order_statistics(self, conv, n):
        value, abserr = expected_iqr_exact(n, conv)
        assert abs(value - exact_iqr(n, conv)) <= 1e-12
        # Each of at most four ranks meets a budget of about 1e-9, and
        # the last two levels' difference overstates the error.
        assert 0 < abserr <= 1e-8

    def test_a_pair_gives_the_same_bits_alone_and_batched(self):
        # Every (rank, m) that some convention reads at n = 2..50.
        pairs = [(r, m) for conv in QuantileConvention for n in range(2, 51)
                 for m, weights in [_iqr_weights(n, conv)] for r in weights]
        cfg = QuadratureConfig()
        ranks, sizes = zip(*pairs)
        batched, batched_err = _order_stat_means(ranks, sizes, cfg, "batch")
        for i, (k, m) in enumerate(zip(ranks, sizes)):
            alone, alone_err = _order_stat_means([k], [m], cfg, "alone")
            assert (alone[0], alone_err[0]) == (batched[i], batched_err[i]), (k, m)

    @pytest.mark.parametrize("m", [1, 2, 5, 50, 201])
    def test_mirror_ranks_have_opposite_means(self, m):
        ranks = np.arange(1, m + 1)
        means, _ = _order_stat_means(ranks, np.full(m, m), QuadratureConfig(), "mirror")
        budget = np.maximum(1e-9, 1e-9 * np.abs(means))
        assert np.all(np.abs(means + means[::-1]) <= budget)

    def test_mass_guard_rejects_a_peak_between_the_nodes(self):
        # X_(2401:3201) has sd 0.014: at 2^3 and 2^4 panels on [-8, 8] its
        # peak falls between the nodes, so both sums are about 0 and agree.
        # Only the density's mass shows the miss; the loop goes on to 2^11
        # panels.  The reference is 30-digit mpmath quadrature.
        means, _ = _order_stat_means([2401], [3201], QuadratureConfig(integration_bound=8.0), "peak")
        assert abs(means[0] - 0.674193844448379) <= 1e-9

    def test_unreachable_tolerance_raises(self):
        cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300)
        with pytest.raises(QuadratureError, match=(
                r"^expected_iqr_exact\(n=5, convention=quarter-groups\): error estimate \S+ "
                r"exceeds budget \(abs_tol=1\.0e-300, rel_tol=1\.0e-300\)$")):
            expected_iqr_exact(5, cfg=cfg)


class TestRegeneration:
    def test_small_regeneration_report(self):
        cfg_mc = McConfig(replications=50_000, seed=11)
        result = regenerate_tables(cfg_mc, n_min=2, n_max=6, which="both")
        assert result.best_convention is QuantileConvention.QUARTER_GROUPS
        # Quadrature side within table rounding at these n.
        for n, dev in result.xi_deviations().items():
            assert abs(dev) <= 5e-4
        lines = result.fixture_lines()
        assert len(lines) == 5
        assert all(line.count("\t") == 2 for line in lines)
        report = result.report_lines()
        assert any("best convention: quarter-groups" in line for line in report)

    def test_each_convention_keeps_the_rest_of_the_config(self):
        cfg_mc = McConfig(replications=10_000, seed=5, chunk_size=3_000)
        result = regenerate_tables(cfg_mc=cfg_mc, n_min=2, n_max=3, which="eta")
        assert list(result.eta) == list(QuantileConvention)
        for conv, by_n in result.eta.items():
            conv_cfg = replace(cfg_mc, quantile_convention=conv)
            assert by_n == {n: expected_iqr(n, conv_cfg) for n in (2, 3)}

    def test_xi_only(self):
        result = regenerate_tables(n_min=2, n_max=3, which="xi")
        assert result.eta == {}
        assert set(result.xi) == {2, 3}
        # eta column stays blank in fixture format
        assert result.fixture_lines()[0].endswith("\t")

    def test_which_outside_the_three_choices_raises(self):
        with pytest.raises(ValueError, match=r"^which must be 'xi', 'eta' or 'both', got 'bogus'$"):
            regenerate_tables(n_min=2, n_max=3, which="bogus")

    @pytest.mark.parametrize("n_min, n_max", [(5, 3), (2, tables.N_MAX + 1), (1, 3)])
    def test_range_outside_the_table_raises(self, n_min, n_max):
        with pytest.raises(ValueError, match=rf"<= {tables.N_MAX}, got {n_min} and {n_max}$"):
            regenerate_tables(n_min=n_min, n_max=n_max, which="eta")

    @pytest.mark.parametrize("n_min, n_max, name, value", [
        (2.5, 3, "n_min", 2.5),
        (2, 3.0, "n_max", 3.0),
        (True, 3, "n_min", True),
    ])
    def test_range_bounds_must_be_integers(self, n_min, n_max, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
            oracle.check_range(n_min, n_max)


def round_half_up(value: float, *places: int) -> float:
    """Round the exact decimal value of ``value`` half up, to each
    number of decimal places in turn."""
    d = Decimal(value)
    for p in places:
        d = d.quantize(Decimal(1).scaleb(-p), ROUND_HALF_UP)
    return float(d)


class TestFixtureProvenance:
    """The fixture holds the exact divisors rounded half up to 4
    decimals and then to 3.  Rounding once to 3 differs at xi(12),
    eta(12) and eta(24).  The rounding is decimal: the 4-decimal values
    4.0855 (xi(30)) and 1.3375 (eta(41)) are ties, which binary floats
    and ``round`` would break either way."""

    @staticmethod
    def exact_values():
        cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13)
        xi = {n: expected_range(n, cfg) for n in range(2, 51)}
        # eta at table index q: sample size 4q + 1, quartiles at ranks
        # q + 1 and 3q + 1, which are symmetric about the median.
        eta = {q: 2.0 * order_stat_mean(3 * q + 1, 4 * q + 1, tol=1e-13) for q in range(1, 51)}
        return xi, eta

    @staticmethod
    def mismatches(*places):
        xi_tab, eta_tab = tables.load_tables()
        xi, eta = TestFixtureProvenance.exact_values()
        assert len(xi) == 49 and len(eta) == 50
        bad = [("xi", n) for n, v in xi.items() if round_half_up(v, *places) != xi_tab.value(n)]
        bad += [("eta", q) for q, v in eta.items() if round_half_up(v, *places) != eta_tab.value(q)]
        return bad

    def test_double_rounding_reproduces_every_entry(self):
        assert self.mismatches(4, 3) == []

    def test_single_rounding_misses_exactly_three_entries(self):
        assert self.mismatches(3) == [("xi", 12), ("eta", 12), ("eta", 24)]


class TestBiasAudit:
    """E[SD estimate]/sigma for normal data, from the exact expected
    spreads.  The corrected IQR divisor is fitted to a table indexed by
    quartile-group count q, whose entry is E[IQR] of 4q + 1 draws, so
    the default C3 estimate of a study of n reads low for small n.  The
    range correction holds."""

    @pytest.mark.parametrize("conv, order, n, ratio", [
        *[("type7", "first", n, r) for n, r in
          ((2, 0.506), (5, 0.771), (10, 0.896), (20, 0.951), (50, 0.978), (51, 1.001))],
        *[("type7", "none", n, r) for n, r in
          ((2, 1.000), (5, 0.996), (10, 1.008), (20, 1.004), (50, 1.001))],
        ("type7", "second", 3, 0.710),
        ("blom", "first", 5, 1.096),  # Blom-interpolated quartiles read high
    ])
    def test_c3(self, conv, order, n, ratio):
        value = exact_iqr(n, QuantileConvention(conv)) / eta_hat(n, CorrectionOrder(order))
        assert value == pytest.approx(ratio, abs=5e-4)

    def test_c2_averages_the_two(self):
        iqr = exact_iqr(5, QuantileConvention.TYPE7_INTERP)
        value = 0.5 * (range_reference(5) / xi_hat(5) + iqr / eta_hat(5))
        assert value == pytest.approx(0.885, abs=5e-4)

    def test_c1_within_a_third_of_a_percent(self):
        ratio = {n: range_reference(n) / xi_hat(n) for n in range(2, 51)}
        worst = max(ratio, key=lambda n: abs(ratio[n] - 1.0))
        assert worst == 3
        assert ratio[worst] == pytest.approx(0.9969, abs=5e-4)
        assert round(100 * abs(ratio[worst] - 1.0), 2) == 0.31  # percent
