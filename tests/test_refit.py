"""Residual analysis and least-squares refitting of the corrections."""

import numpy as np
import pytest

from summarysd import tables
from summarysd.estimators import (
    EPSILON_A,
    EPSILON_B,
    blom_iqr_divisor,
    blom_range_divisor,
)
from summarysd.refit import (
    RegressionFit,
    ResidualKind,
    ResidualSeries,
    SingularDesignError,
    fit_delta,
    fit_epsilon_linear,
    fit_epsilon_quadratic,
    ols,
    residual_series,
)


class TestResidualSeries:
    def test_epsilon_series(self):
        s = residual_series(ResidualKind.EPSILON)
        assert list(s.ns) == list(range(2, 51))
        assert np.all(s.values > 0)
        assert s.values[0] == pytest.approx(0.580, abs=1e-3)

    def test_delta_series(self):
        s = residual_series(ResidualKind.DELTA)
        assert len(s.ns) == 49
        assert s.ns[0] == 2

    @pytest.mark.parametrize("kind, table, asymptotic", [
        (ResidualKind.DELTA, tables.xi_table, blom_range_divisor),
        (ResidualKind.EPSILON, tables.eta_table, blom_iqr_divisor),
    ], ids=["delta", "epsilon"])
    def test_matches_scalar_evaluation_bit_for_bit(self, kind, table, asymptotic):
        s = residual_series(kind)
        assert s.ns.tolist() == list(range(2, 51))
        assert s.values.tolist() == [table(n) - asymptotic(n) for n in range(2, 51)]

    def test_magnitude_gap(self):
        # IQR residuals run about an order of magnitude above the range
        # residuals.
        eps = residual_series(ResidualKind.EPSILON)
        dlt = residual_series(ResidualKind.DELTA)
        ratio = np.mean(np.abs(eps.values)) / np.mean(np.abs(dlt.values))
        assert 4 < ratio < 40


class TestOls:
    def test_exact_affine_fit(self):
        x = np.arange(10.0)
        y = 3.0 - 2.0 * x
        fit = ols(np.column_stack([np.ones(10), x]), y, ("a", "b"))
        assert fit.estimates() == (pytest.approx(3.0), pytest.approx(-2.0))
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.residual_std_error == pytest.approx(0.0, abs=1e-10)

    def test_noise_recovery(self):
        rng = np.random.default_rng(1)
        x = np.linspace(0, 10, 49)
        y = x + rng.normal(0, 0.5, size=49)
        fit = ols(np.column_stack([np.ones(49), x]), y, ("a", "b"))
        slope = fit.coefficients[1]
        assert abs(slope.estimate - 1.0) < 3 * slope.std_error

    def test_singular_design(self):
        x = np.ones(10)
        with pytest.raises(SingularDesignError):
            ols(np.column_stack([x, x]), np.arange(10.0), ("a", "b"))

    def test_centered_design_intercept_is_mean(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=30)
        x = x - x.mean()
        y = rng.normal(size=30)
        fit = ols(np.column_stack([np.ones(30), x]), y, ("a", "b"))
        assert fit.coefficients[0].estimate == pytest.approx(y.mean(), rel=1e-12)

    def test_t_times_se_is_estimate(self):
        s = residual_series(ResidualKind.DELTA)
        fit = fit_delta(s)
        for c in fit.coefficients:
            assert c.t_value * c.std_error == pytest.approx(c.estimate, rel=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            ols(np.ones((2, 2)), np.ones(2), ("a", "b"))

    def test_one_name_per_column(self):
        with pytest.raises(ValueError, match="^one name per design column required$"):
            ols(np.ones((5, 2)), np.ones(5), ("a",))


class TestEpsilonFits:
    def test_linear_coefficients(self):
        fit = fit_epsilon_linear(residual_series(ResidualKind.EPSILON))
        a, b = fit.estimates()
        assert a == pytest.approx(-2.8822, abs=0.01)
        assert b == pytest.approx(-0.2308, abs=0.001)
        assert fit.residual_std_error == pytest.approx(0.141, abs=0.005)
        assert fit.r_squared == pytest.approx(0.998, abs=0.001)
        assert fit.df == 47
        assert all(c.p_below_001 for c in fit.coefficients)

    def test_linear_reproduces_shipped_constants(self):
        # The estimator module hardcodes the full-precision fit; the
        # refit must land on exactly those numbers.
        fit = fit_epsilon_linear(residual_series(ResidualKind.EPSILON))
        a, b = fit.estimates()
        assert a == pytest.approx(EPSILON_A, abs=1e-9)
        assert b == pytest.approx(EPSILON_B, abs=1e-9)

    def test_linear_t_values(self):
        fit = fit_epsilon_linear(residual_series(ResidualKind.EPSILON))
        assert fit.coefficients[0].t_value == pytest.approx(-68.48, abs=0.05)
        assert fit.coefficients[1].t_value == pytest.approx(-162.30, abs=0.05)

    def test_quadratic(self):
        fit = fit_epsilon_quadratic(residual_series(ResidualKind.EPSILON))
        c0, c1, c2 = fit.estimates()
        assert c0 == pytest.approx(-9.01647, rel=0.01)
        assert c1 == pytest.approx(-0.23238, rel=0.01)
        assert c2 == pytest.approx(0.00074, rel=0.01)
        assert fit.df == 45
        assert fit.residual_std_error == pytest.approx(0.035, abs=0.002)
        assert fit.r_squared >= 0.999

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            fit_epsilon_linear(residual_series(ResidualKind.DELTA))

    def test_transform_guards(self):
        bad = ResidualSeries(
            ResidualKind.EPSILON, np.arange(2, 7), np.array([0.5, 0.5, 1.5, 0.5, 0.5])
        )
        with pytest.raises(ValueError):
            fit_epsilon_linear(bad)


class TestDeltaFit:
    def test_coefficients(self):
        fit = fit_delta(residual_series(ResidualKind.DELTA))
        a, b = fit.estimates()
        assert a == pytest.approx(-0.0626, abs=0.0011)
        assert b == pytest.approx(0.0197, abs=0.0004)
        assert fit.r_squared == pytest.approx(0.984, abs=0.002)
        assert fit.residual_std_error <= 0.003
        assert fit.coefficients[0].t_value == pytest.approx(-54.66, abs=0.05)
        assert fit.coefficients[1].t_value == pytest.approx(53.72, abs=0.05)

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            fit_delta(residual_series(ResidualKind.EPSILON))


class TestLoopClosure:
    def test_epsilon_fit_rebuilds_iqr_table(self):
        # Correction built from the refit's own coefficients, added to
        # the asymptotic divisor, lands back on the table.
        fit = fit_epsilon_linear(residual_series(ResidualKind.EPSILON))
        a, b = fit.estimates()
        _, eta_tab = tables.load_tables()
        devs = [
            abs(eta_tab.value(n) - (blom_iqr_divisor(n) + np.exp(n / (a + b * n))))
            for n in range(2, 51)
        ]
        assert max(devs) <= 0.031

    def test_delta_fit_rebuilds_range_table(self):
        fit = fit_delta(residual_series(ResidualKind.DELTA))
        a, b = fit.estimates()
        xi_tab, _ = tables.load_tables()
        devs = [
            abs(xi_tab.value(n) - (blom_range_divisor(n) + a + b * np.log(n)))
            for n in range(2, 51)
        ]
        assert max(devs) <= 0.006

    def test_summary_format(self):
        fit = fit_delta(residual_series(ResidualKind.DELTA))
        text = fit.format_summary()
        assert "Estimate" in text
        assert "degrees of freedom" in text
        assert "< 0.001" in text
        assert isinstance(fit, RegressionFit)
