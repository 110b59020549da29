"""Mean/SD estimators, corrected divisors, and the planning helper."""

import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from summarysd.estimators import (
    DIVISORS,
    CorrectionOrder,
    Scenario,
    StudySummary,
    blom_iqr_divisor,
    blom_range_divisor,
    delta_hat,
    epsilon_hat,
    estimate_columns,
    estimate_mean,
    estimate_moments,
    estimate_sd,
    eta_hat,
    required_sample_size,
    xi_hat,
)
from summarysd.specfun import std_normal_quantile

_OVERFLOW = "estimate overflows double precision"
FIRST = CorrectionOrder.FIRST
NONE = CorrectionOrder.NONE
SECOND = CorrectionOrder.SECOND


class TestStudySummary:
    def test_scenario_detection(self):
        c1 = StudySummary(n=10, min_a=0, median_m=5, max_b=10)
        assert estimate_moments(c1).scenario is Scenario.C1
        c3 = StudySummary(n=10, q1=1, median_m=2, q3=3)
        assert estimate_moments(c3).scenario is Scenario.C3
        c2 = StudySummary(n=10, min_a=0, q1=1, median_m=2, q3=3, max_b=4)
        assert estimate_moments(c2).scenario is Scenario.C2

    def test_priority_and_override(self):
        full = StudySummary(n=10, min_a=0, q1=1, median_m=2, q3=3, max_b=4)
        assert estimate_moments(full).scenario is Scenario.C2
        assert estimate_moments(full, scenario=Scenario.C1).scenario is Scenario.C1
        assert estimate_moments(full, scenario=Scenario.C3).scenario is Scenario.C3

    def test_override_needs_fields(self):
        c1 = StudySummary(n=10, min_a=0, median_m=5, max_b=10)
        with pytest.raises(ValueError, match="^scenario c3 requested but required fields are missing$"):
            estimate_moments(c1, scenario=Scenario.C3)

    def test_ordering_violation(self):
        with pytest.raises(ValueError):
            StudySummary(n=10, q1=3, median_m=2, q3=1)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            StudySummary(n=1, min_a=0, median_m=1, max_b=2)

    def test_no_scenario(self):
        with pytest.raises(ValueError) as exc:
            estimate_moments(StudySummary(n=10, median_m=2))
        assert str(exc.value) == (
            "no scenario derivable: need {min, median, max} and/or {Q1, median, Q3}")

    @pytest.mark.parametrize("n", [10.5, 10.0, True, "10", None])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(ValueError, match="must be an integer"):
            StudySummary(n=n, min_a=0, median_m=1, max_b=2)

    @pytest.mark.parametrize("n", [2**63, 10**30, np.uint64(2**64 - 1)])
    def test_n_beyond_int64_rejected(self, n):
        with pytest.raises(ValueError, match=rf"^sample size must be < 2\*\*63, got {n}$"):
            StudySummary(n=n, q1=1, median_m=2, q3=3)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(n=1, min_a=-math.inf, median_m=1, max_b=2), "sample size must be >= 2, got 1"),
        (dict(n=10, min_a=3, q1=math.nan, median_m=2, q3=1), "summaries must be finite numbers"),
        (dict(n=10, q1=3, median_m=2, q3=1),
         "summaries must satisfy min <= Q1 <= median <= Q3 <= max"),
        (dict(n=2**63, q1=1, median_m=2, q3=3), f"sample size must be < 2**63, got {2**63}"),
        (dict(n=-10**30, q1=1, median_m=2, q3=3), f"sample size must be >= 2, got {-10**30}"),
        (dict(n=True, q1=1, median_m=2, q3=3), "sample size must be an integer, got True"),
        (dict(n=2.0, q1=1, median_m=2, q3=3), "sample size must be an integer, got 2.0"),
    ], ids=["n1-inf", "nan-unordered", "unordered", "2**63", "-10**30", "True", "2.0"])
    def test_first_reason_wins(self, kwargs, message):
        with pytest.raises(ValueError) as exc:
            StudySummary(**kwargs)
        assert str(exc.value) == message

    @pytest.mark.parametrize("kwargs, message", [
        (dict(n=10, min_a=True, median_m=4, max_b=10), "min_a must be a real number, got True"),
        (dict(n=10, q1=1, median_m=np.True_, q3=3),
         f"median_m must be a real number, got {np.True_!r}"),
        (dict(n=10, q1="3", median_m=4, q3=5), "q1 must be a real number, got '3'"),
        (dict(n=10, min_a=0, median_m=4, max_b=1j), "max_b must be a real number, got 1j"),
        (dict(n=1, min_a="3", median_m=4, max_b=10), "min_a must be a real number, got '3'"),
        (dict(n="10", min_a="3", median_m=4, max_b=10), "sample size must be an integer, got '10'"),
    ], ids=["bool", "numpy-bool", "str", "complex", "before-n-range", "after-n-type"])
    def test_summary_that_is_not_a_number_rejected(self, kwargs, message):
        with pytest.raises(ValueError) as exc:
            StudySummary(**kwargs)
        assert str(exc.value) == message

    @pytest.mark.parametrize("kwargs", [
        dict(n=10, min_a=10**400, median_m=4, max_b=10**401),
        dict(n=10, min_a=0, median_m=4, max_b=Fraction(10**400, 3)),
        dict(n=10, min_a=-10**400, median_m=4, max_b=10),
    ], ids=["int", "fraction", "negative-int"])
    def test_summary_beyond_double_range_is_not_finite(self, kwargs):
        with pytest.raises(ValueError) as exc:
            StudySummary(**kwargs)
        assert str(exc.value) == "summaries must be finite numbers"

    def test_number_types_accepted(self):
        from decimal import Decimal
        from fractions import Fraction

        exact = StudySummary(n=10, min_a=Decimal("0.5"), median_m=Fraction(9, 2), max_b=np.float32(10))
        assert estimate_moments(exact) == estimate_moments(StudySummary(10, 0.5, None, 4.5, None, 10.0))

    @pytest.mark.parametrize("n", [np.int64(10), np.int32(10), np.uint16(10)])
    def test_numpy_integer_n_accepted(self, n):
        assert estimate_sd(StudySummary(n=n, min_a=0, median_m=1, max_b=2)).sd > 0


class TestEstimateMean:
    def test_c1_symmetric(self):
        s = StudySummary(n=17, min_a=0, median_m=5, max_b=10)
        assert estimate_mean(s) == 5.0

    def test_c1_with_finite_n_term(self):
        s = StudySummary(n=10, min_a=0, median_m=4, max_b=10)
        assert estimate_mean(s) == pytest.approx(4.55, abs=1e-12)

    def test_c3_symmetric(self):
        s = StudySummary(n=10, q1=1, median_m=2, q3=3)
        assert estimate_mean(s) == 2.0

    def test_c2(self):
        s = StudySummary(n=10, min_a=0, q1=1, median_m=2, q3=3, max_b=4)
        assert estimate_mean(s) == pytest.approx((0 + 2 + 4 + 6 + 4) / 8)

    @pytest.mark.parametrize("kwargs, reason", [
        (dict(n=10, min_a=1e308, median_m=1.5e308, max_b=1.7e308), _OVERFLOW),  # inf - inf: NaN
        (dict(n=10, q1=1e308, median_m=1.5e308, q3=1.7e308), _OVERFLOW),  # inf
        # The mean is finite, but the study has no SD.
        (dict(n=10, min_a=-1e308, median_m=0, max_b=1e308), _OVERFLOW),
        (dict(n=2**53, min_a=0, median_m=1, max_b=2),
         "n=9007199254740992 is too large for the range divisor"),
    ], ids=["c1", "c3", "sd", "range-divisor"])
    def test_mean_beyond_double_precision(self, kwargs, reason):
        # estimate_mean rejects exactly the studies estimate_moments does.
        for estimate in (estimate_mean, estimate_moments):
            with pytest.raises(ValueError) as exc:
                estimate(StudySummary(**kwargs))
            assert str(exc.value) == reason


class TestCorrections:
    def test_delta_root(self):
        n_root = math.exp(0.0626 / 0.0197)
        lo, hi = math.floor(n_root), math.ceil(n_root)
        assert delta_hat(lo) < 0 < delta_hat(hi)

    def test_delta_values(self):
        assert delta_hat(2) == pytest.approx(-0.0489, abs=5e-4)
        assert delta_hat(50) == pytest.approx(0.0145, abs=5e-4)

    def test_delta_domain(self):
        with pytest.raises(ValueError):
            delta_hat(1)

    def test_epsilon_first_values(self):
        assert epsilon_hat(2, FIRST) == pytest.approx(0.550, abs=1e-3)
        assert 0 < epsilon_hat(2, FIRST) < 1

    def test_epsilon_limit(self):
        assert epsilon_hat(10**9, FIRST) == pytest.approx(0.01312794, abs=1e-6)

    def test_epsilon_positive_everywhere(self):
        assert all(epsilon_hat(n, FIRST) > 0 for n in range(2, 1000))

    def test_epsilon_second_center(self):
        assert epsilon_hat(26, SECOND) == pytest.approx(math.exp(26 / -9.01647), rel=1e-12)

    def test_epsilon_second_domain(self):
        with pytest.raises(ValueError):
            epsilon_hat(2, SECOND)
        with pytest.raises(ValueError):
            epsilon_hat(51, SECOND)

    @pytest.mark.parametrize("order", [NONE, "first"], ids=["none", "str"])
    def test_epsilon_order_must_be_first_or_second(self, order):
        with pytest.raises(ValueError, match="^epsilon correction order must be FIRST or SECOND$"):
            epsilon_hat(10, order)


class TestDivisors:
    def test_xi_hat_near_table(self):
        assert xi_hat(2) == pytest.approx(1.128, abs=0.005)
        assert xi_hat(2) == pytest.approx(1.130, abs=1e-3)
        assert xi_hat(50) == pytest.approx(4.498, abs=0.005)

    def test_xi_hat_above_cutoff_is_uncorrected(self):
        assert xi_hat(51) == 2 * std_normal_quantile(50.625 / 51.25)

    def test_range_divisor_ends_where_blom_position_rounds_to_one(self):
        assert xi_hat(2**52) == blom_range_divisor(2**52) > 0
        for n in (2**52 + 1, 2**63 - 1, 2**70):  # 2**70 is an object array's Python int
            for divisor in (blom_range_divisor, xi_hat):
                with pytest.raises(ValueError, match=f"^n={n} is too large for the range divisor$"):
                    divisor(n)
        assert eta_hat(2**63 - 1) == pytest.approx(1.349, abs=1e-3)
        assert eta_hat(2**70) == 1.3489795003921634

    def test_one_n_or_an_array_of_n(self):
        ns = np.array([2, 3, 50, 51, 10**6])
        assert type(xi_hat(10)) is float and type(eta_hat(10)) is float
        assert xi_hat(ns).tolist() == [xi_hat(n) for n in ns.tolist()]
        assert delta_hat(ns).tolist() == [delta_hat(n) for n in ns.tolist()]
        assert epsilon_hat(ns[1:3], SECOND).tolist() == [epsilon_hat(n, SECOND) for n in (3, 50)]
        # An array is rejected by the first n without a divisor.
        with pytest.raises(ValueError, match="got 1$"):
            xi_hat(np.array([5, 1, 0]))

    def test_eta_hat_near_table(self):
        assert eta_hat(10, FIRST) == pytest.approx(1.303, abs=0.030)

    def test_eta_hat_uncorrected_error(self):
        assert abs(eta_hat(2, NONE) - 1.144) <= 0.580 + 1e-12

    def test_eta_hat_limit(self):
        # Far beyond the cutoff the correction is off; the asymptote is
        # twice the third-quartile z-score.
        assert eta_hat(10**6, FIRST) == pytest.approx(1.349, abs=1e-3)

    def test_monotone_within_branches(self):
        xs = [xi_hat(n) for n in range(2, 201)]
        assert all(b > a for a, b in zip(xs, xs[1:]))
        es = [eta_hat(n, FIRST) for n in range(2, 51)]
        assert all(b > a for a, b in zip(es, es[1:]))
        es_hi = [eta_hat(n, FIRST) for n in range(51, 201)]
        assert all(b > a for a, b in zip(es_hi, es_hi[1:]))

    def test_cutoff_discontinuity_documented(self):
        # The corrections switch off abruptly at the cutoff.  For the
        # range divisor the asymptotic growth absorbs the dropped
        # correction; for the IQR divisor it does not, leaving a ~0.030
        # downward jump.
        assert xi_hat(51) > xi_hat(50)
        assert eta_hat(50, FIRST) - eta_hat(51, FIRST) == pytest.approx(0.0305, abs=0.002)
        assert epsilon_hat(50, FIRST) == pytest.approx(0.0313, abs=0.001)
        assert delta_hat(50) == pytest.approx(0.0145, abs=0.001)

    def test_piecewise_consistency_above_cutoff(self):
        for n in (51, 60, 100):
            assert eta_hat(n, FIRST) == eta_hat(n, NONE)

    def test_domain(self):
        for f in (blom_range_divisor, blom_iqr_divisor, xi_hat, eta_hat):
            for n in (1, 0, -1):
                for arg in (n, np.array([10, n])):
                    with pytest.raises(ValueError, match=f"^divisor defined for n >= 2, got {n}$"):
                        f(arg)

    @pytest.mark.parametrize("cutoff, reason", [
        (0, ">= 2"), (1, ">= 2"), (-5, ">= 2"),
        (2.5, "an integer"), (math.nan, "an integer"), (math.inf, "an integer"),
        (True, "an integer"), ("50", "an integer"),
    ], ids=["0", "1", "-5", "2.5", "nan", "inf", "True", "str"])
    @pytest.mark.parametrize("f", [
        lambda cutoff: xi_hat(10, cutoff),
        lambda cutoff: eta_hat(10, cutoff=cutoff),
        lambda cutoff: estimate_columns([10], [[0.0], [math.nan], [4.0], [math.nan], [10.0]],
                                        cutoff=cutoff),
    ], ids=["xi", "eta", "columns"])
    def test_cutoff_must_be_an_integer_from_two(self, f, cutoff, reason):
        shown = cutoff if reason == ">= 2" else repr(cutoff)
        with pytest.raises(ValueError) as exc:
            f(cutoff)
        assert str(exc.value) == f"cutoff must be {reason}, got {shown}"

    @pytest.mark.parametrize("argument, value, message", [
        ("order", "first", "order must be a CorrectionOrder, got 'first'"),
        ("order", None, "order must be a CorrectionOrder, got None"),
        ("order", 1, "order must be a CorrectionOrder, got 1"),
        ("scenario", "c1", "scenario must be a Scenario or None, got 'c1'"),
        ("scenario", 0, "scenario must be a Scenario or None, got 0"),
    ], ids=["order-str", "order-None", "order-int", "scenario-str", "scenario-int"])
    @pytest.mark.parametrize("f", [
        lambda **kw: estimate_moments(StudySummary(n=10, min_a=0, median_m=4, max_b=10), **kw),
        lambda **kw: estimate_columns([10], [[0.0], [math.nan], [4.0], [math.nan], [10.0]], **kw),
    ], ids=["moments", "columns"])
    def test_order_and_scenario_must_be_enums(self, f, argument, value, message):
        with pytest.raises(ValueError) as exc:
            f(**{argument: value})
        assert str(exc.value) == message

    @pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("f, args, reason", [
        (delta_hat, (), "correction defined for n >= 2"),
        (epsilon_hat, (FIRST,), "correction defined for n >= 2"),
        (epsilon_hat, (SECOND,), "second-order correction is defined for 3 <= n <= 50"),
        (xi_hat, (), "divisor defined for n >= 2"),
        (eta_hat, (NONE,), "divisor defined for n >= 2"),
        (eta_hat, (FIRST,), "divisor defined for n >= 2"),
        (eta_hat, (SECOND,), "divisor defined for n >= 2"),
        (blom_range_divisor, (), "divisor defined for n >= 2"),
        (blom_iqr_divisor, (), "divisor defined for n >= 2"),
    ], ids=["delta", "epsilon-first", "epsilon-second", "xi", "eta-none", "eta-first", "eta-second",
            "blom-range", "blom-iqr"])
    def test_non_finite_n_rejected(self, f, args, reason, n):
        # With no warning: pytest makes a RuntimeWarning an error.
        with pytest.raises(ValueError, match=f"^{reason}, got {n}$"):
            f(n, *args)
        with pytest.raises(ValueError, match=f"^{reason}, got {n}$"):
            f(np.array([10.0, n]), *args)

    @pytest.mark.parametrize("cutoff", [30, 50, 60])
    @pytest.mark.parametrize("order", list(CorrectionOrder))
    @pytest.mark.parametrize("name", list(DIVISORS))
    def test_row_error_is_the_error_the_divisor_raises(self, name, order, cutoff):
        # A C1 row divides by xi and a C3 row by eta: the row has an error
        # exactly when the divisor raises for its n, and the same message;
        # otherwise the row's divisor is the divisor's own value.
        kind = DIVISORS[name]
        ns = [*range(2, 71), 2**52, 2**53 - 1, 2**53, 2**53 + 1, 2**62]
        present = {"xi": (0, 2, 4), "eta": (1, 2, 3)}[name]
        row = [float(j) if j in present else math.nan for j in range(5)]
        est = estimate_columns(np.array(ns), np.array([row] * len(ns)).T, order, cutoff=cutoff)
        for r, n in enumerate(ns):
            try:
                divisor = kind.corrected(n, order, cutoff)
            except ValueError as exc:
                assert est.errors.get(r) == str(exc)
            else:
                assert r not in est.errors
                assert float(est.divisor[r]).hex() == divisor.hex()


class TestEstimateSd:
    def test_c1_zero_range(self):
        s = StudySummary(n=9, min_a=5, median_m=5, max_b=5)
        est = estimate_sd(s)
        assert est.sd == 0.0
        assert est.degenerate

    def test_c2_zero_iqr_flagged(self):
        s = StudySummary(n=10, min_a=0, q1=2, median_m=2, q3=2, max_b=5)
        assert estimate_sd(s).degenerate
        assert estimate_sd(s).sd > 0
        assert estimate_sd(s, scenario=Scenario.C3).degenerate
        assert not estimate_sd(s, scenario=Scenario.C1).degenerate

    def test_c1_divides_by_xi(self):
        s = StudySummary(n=10, min_a=0, median_m=4, max_b=10)
        est = estimate_sd(s)
        assert est.sd == pytest.approx(10 / xi_hat(10), rel=1e-14)
        assert est.divisor_used == pytest.approx(xi_hat(10), rel=1e-14)
        assert est.scenario is Scenario.C1

    def test_c3_population_quartiles(self):
        # Quartiles of N(0, sigma0^2) at huge n recover sigma0.
        sigma0 = 3.7
        q = 0.6745 * sigma0
        s = StudySummary(n=10**6, q1=-q, median_m=0.0, q3=q)
        est = estimate_sd(s)
        assert est.sd == pytest.approx(sigma0, rel=0.005)

    def test_c2_averages_c1_and_c3(self):
        s = StudySummary(n=12, min_a=0, q1=2, median_m=3, q3=5, max_b=9)
        c1 = estimate_sd(s, scenario=Scenario.C1).sd
        c3 = estimate_sd(s, scenario=Scenario.C3).sd
        c2 = estimate_sd(s).sd
        assert c2 == pytest.approx(0.5 * (c1 + c3), rel=1e-14)

    def test_correction_order_recorded(self):
        s = StudySummary(n=12, q1=2, median_m=3, q3=5)
        est = estimate_sd(s, SECOND)
        assert est.correction is SECOND
        assert est.sd == pytest.approx((5 - 2) / eta_hat(12, SECOND), rel=1e-14)

    def test_moments_wrapper(self):
        s = StudySummary(n=10, min_a=0, median_m=4, max_b=10)
        est = estimate_moments(s)
        assert est.mean == pytest.approx(4.55)
        assert est.sd == pytest.approx(10 / xi_hat(10))

    @pytest.mark.parametrize("estimate", [estimate_moments, estimate_sd])
    @pytest.mark.parametrize("summary, kwargs, message", [
        (StudySummary(n=10, median_m=4), {},
         "no scenario derivable: need {min, median, max} and/or {Q1, median, Q3}"),
        (StudySummary(n=10, min_a=0, median_m=4, max_b=10), dict(scenario=Scenario.C3),
         "scenario c3 requested but required fields are missing"),
        (StudySummary(n=2**52 + 1, min_a=0, median_m=4, max_b=10), {},
         "n=4503599627370497 is too large for the range divisor"),
        (StudySummary(n=2, q1=1, median_m=2, q3=3), dict(order=SECOND),
         "second-order correction is defined for 3 <= n <= 50, got 2"),
        (StudySummary(n=10, min_a=-1e308, median_m=0, max_b=1.7e308), {},
         "estimate overflows double precision"),
    ], ids=["no-scenario", "override", "range-divisor", "second-order", "overflow"])
    def test_row_error_raised(self, estimate, summary, kwargs, message):
        with pytest.raises(ValueError) as exc:
            estimate(summary, **kwargs)
        assert str(exc.value) == message


@st.composite
def full_summaries(draw):
    vals = sorted(
        draw(
            st.lists(
                st.floats(-1e6, 1e6, allow_nan=False, width=64),
                min_size=5,
                max_size=5,
            )
        )
    )
    n = draw(st.integers(2, 300))
    return StudySummary(
        n=n, min_a=vals[0], q1=vals[1], median_m=vals[2], q3=vals[3], max_b=vals[4]
    )


class TestEquivariance:
    @given(full_summaries(), st.floats(0.01, 100), st.floats(-1e5, 1e5))
    @example(  # c * x near 6.7e7 rounds by up to 7.5e-9 before the spread is taken
        StudySummary(n=2, min_a=-999995.0, q1=-999995.0, median_m=-999940.0,
                      q3=-999940.0, max_b=-999865.0),
        67.34271912615418,
        0.0,
    )
    @settings(max_examples=200, deadline=None)
    def test_affine_equivariance(self, s, scale, shift):
        def transformed(c, t):
            return StudySummary(
                n=s.n,
                min_a=c * s.min_a + t,
                q1=c * s.q1 + t,
                median_m=c * s.median_m + t,
                q3=c * s.q3 + t,
                max_b=c * s.max_b + t,
            )

        base_sd = estimate_sd(s).sd
        base_mean = estimate_mean(s)
        scaled = transformed(scale, shift)
        # SD: scale-equivariant and translation-invariant (the divisor
        # depends only on n), up to the rounding of the transformed
        # summaries: each is off by at most eps/2 of its size, so a
        # spread by eps of it, and every divisor on n = 2..300 exceeds 1.
        eps, size = sys.float_info.epsilon, max(abs(s.min_a), abs(s.max_b))
        assert estimate_sd(transformed(scale, 0.0)).sd == pytest.approx(
            scale * base_sd, rel=1e-12, abs=2 * eps * scale * size
        )
        assert estimate_sd(transformed(1.0, shift)).sd == pytest.approx(
            base_sd, rel=1e-12, abs=2 * eps * (size + abs(shift))
        )
        # Mean: affine-equivariant.
        assert estimate_mean(scaled) == pytest.approx(
            scale * base_mean + shift, rel=1e-9, abs=1e-6
        )


class TestRequiredSampleSize:
    def test_reference_case(self):
        assert required_sample_size(1.0, 1.0, 0.05, 0.2) == 16

    def test_sigma_scaling(self):
        base = required_sample_size(1.0, 1.0, 0.05, 0.2)
        assert required_sample_size(2.0, 1.0, 0.05, 0.2) in (4 * base, 4 * base - 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sigma=0.0, delta=1.0, alpha=0.05, beta=0.2),
            dict(sigma=1.0, delta=0.0, alpha=0.05, beta=0.2),
            dict(sigma=1.0, delta=1.0, alpha=0.0, beta=0.2),
            dict(sigma=1.0, delta=1.0, alpha=0.05, beta=1.0),
            dict(sigma=1.0, delta=math.inf, alpha=0.05, beta=0.2),
            dict(sigma=1.0, delta=math.nan, alpha=0.05, beta=0.2),
            dict(sigma=math.nan, delta=1.0, alpha=0.05, beta=0.2),
            dict(sigma=math.inf, delta=1.0, alpha=0.05, beta=0.2),
        ],
    )
    def test_domain_errors(self, kwargs):
        # The message names the one argument that differs from a valid call.
        valid = dict(sigma=1.0, delta=1.0, alpha=0.05, beta=0.2)
        (name,) = [k for k, v in kwargs.items() if v != valid[k]]
        with pytest.raises(ValueError, match=name):
            required_sample_size(**kwargs)

    @pytest.mark.parametrize("sigma, delta", [
        (1.0, 1e-200),  # delta**2 underflows to 0
        (1.0, 1e-160),  # delta**2 is subnormal and the bound overflows
        (1e200, 1.0),  # sigma**2 overflows
        (1e200, -1e-200),
        (1e200, 1e-200),  # so does (sigma / delta)**2
    ])
    def test_bound_beyond_double_precision(self, sigma, delta):
        with pytest.raises(ValueError, match=re.escape(f"sigma={sigma!r}, delta={delta!r}")):
            required_sample_size(sigma, delta, 0.05, 0.2)

    @pytest.mark.parametrize("sigma, delta", [
        (1e200, 1e200),  # both squares overflow
        (1e-200, 1e-200),  # both squares underflow
        (1e100, -1e100),
    ])
    def test_ordinary_ratio_of_extreme_values(self, sigma, delta):
        assert required_sample_size(sigma, delta, 0.05, 0.2) == 16

    @pytest.mark.parametrize("sigma, delta, n", [
        (1e-200, 1e-100, 1),  # sigma**2 underflows to 0
        (3e-160, 1e-161, 14128),  # sigma**2 is subnormal
        (3.0, 0.1, 14128),  # the same ratio with normal squares
    ])
    def test_square_below_normal_floats(self, sigma, delta, n):
        assert required_sample_size(sigma, delta, 0.05, 0.2) == n

    def test_large_finite_bound(self):
        # The same formula as before: 2 sigma^2 (z_a + z_b)^2 / delta^2,
        # with both z taken in the lower tail.
        z = std_normal_quantile(0.025) + std_normal_quantile(0.2)
        assert required_sample_size(1.0, 1e-150, 0.05, 0.2) == math.ceil(
            2.0 * z**2 / (1e-150 * 1e-150)
        )

    @pytest.mark.parametrize("alpha, beta, n", [(1e-20, 0.2, 829), (0.05, 1e-20, 1008)])
    def test_tail_where_one_minus_x_rounds_to_one(self, alpha, beta, n):
        assert required_sample_size(1.0, 0.5, alpha, beta) == n

    def test_z_keeps_its_tail_digits(self):
        # 1 - 0.0005 cancels: its quantile is 3.1e-14 off, the lower tail's 5e-16.
        z = -std_normal_quantile(0.0005)
        assert abs(z + ndtri(0.0005)) < 1e-15
        # At a bound of 2.2e15 that 3.1e-14 moved the result by 41; the
        # bound's own rounding moves it by a few units.
        assert abs(required_sample_size(1e7, 1.0, 0.001, 0.5) - 2e14 * ndtri(0.0005) ** 2) < 5
