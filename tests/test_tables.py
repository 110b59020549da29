"""Fixture integrity, and the divisors' errors against the fixture."""

import hashlib
from importlib import resources

import numpy as np
import pytest

from summarysd import tables
from summarysd.estimators import CorrectionOrder, eta_hat, xi_hat
from summarysd.specfun import std_normal_quantile
from summarysd.tables import eta_table, load_tables, xi_table

# Frozen checksum of the shipped fixture; any re-transcription must be
# reviewed deliberately.
FIXTURE_SHA256 = "62cee7cd4fae5634f268d16b2a05cebbf1cd93873c7d4b2c9b4a7cfef0e9318e"


def blom_range(n):
    return 2 * std_normal_quantile((n - 0.375) / (n + 0.25))


def blom_iqr(n):
    return 2 * std_normal_quantile((0.75 * n - 0.125) / (n + 0.25))


def abs_errors(table, approx):
    """|table(n) - approx(n)| for n = 2..50; index i holds n = i + 2."""
    return np.abs(np.array([table(n) - approx(n) for n in range(2, 51)]))


class TestFixture:
    def test_checksum(self):
        raw = resources.files("summarysd.data").joinpath(tables.FIXTURE_NAME).read_bytes()
        assert hashlib.sha256(raw).hexdigest() == FIXTURE_SHA256

    def test_full_coverage(self):
        xi_tab, eta_tab = load_tables()
        assert len(xi_tab.values) == 50
        assert len(eta_tab.values) == 50

    @pytest.mark.parametrize(
        "n, xi, eta",
        [(1, 0.0, 0.990), (2, 1.128, 1.144), (10, 3.078, 1.303), (50, 4.498, 1.340)],
    )
    def test_spot_values(self, n, xi, eta):
        assert xi_table(n) == xi
        assert eta_table(n) == eta

    def test_xi_strictly_increasing_from_2(self):
        vals = [xi_table(n) for n in range(2, 51)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_eta_non_decreasing(self):
        vals = [eta_table(n) for n in range(1, 51)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_table_needs_50_entries(self):
        with pytest.raises(ValueError, match="^expected 50 entries, got 49$"):
            tables.DivisorTable("xi", (0.0,) * 49)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda rows: [rows[1], rows[0], *rows[2:]],
         r"fixture must cover n = 1\.\.50 exactly, in order"),
        (lambda rows: [(1, 0.5, rows[0][2]), *rows[1:]], r"xi\(1\) must be exactly 0"),
        (lambda rows: [*rows[:2], (3, rows[1][1], rows[2][2]), *rows[3:]],
         "xi must be strictly increasing for n >= 2"),
        (lambda rows: [*rows[:10], (11, rows[10][1], rows[9][2] - 0.001), *rows[11:]],
         "eta must be non-decreasing"),
    ], ids=["n-order", "xi-1", "xi-increasing", "eta-non-decreasing"])
    def test_corrupt_fixture_rejected(self, monkeypatch, corrupt, message):
        rows = tables._read_fixture()
        load_tables.cache_clear()
        monkeypatch.setattr(tables, "_read_fixture", lambda: corrupt(rows))
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_tables()
        # The cache keeps no exception, so the real fixture loads next.
        monkeypatch.undo()
        assert xi_table(2) == 1.128

    @pytest.mark.parametrize("n", [0, 51, -3, True, 3.0, 2.5])
    def test_lookup_errors(self, n):
        with pytest.raises(KeyError, match=f"^'xi table covers n in 1..50, got {n}'$"):
            xi_table(n)
        with pytest.raises(KeyError, match=f"^'eta table covers n in 1..50, got {n}'$"):
            eta_table(n)


class TestErrorBounds:
    def test_uncorrected_iqr_divisor_bounds(self):
        # Published figures for the asymptotic IQR divisor: sup ~ 0.580,
        # inf ~ 0.030 over n = 2..50.
        err = abs_errors(eta_table, blom_iqr)
        assert err.max() == pytest.approx(0.580, abs=0.001)
        assert err.min() == pytest.approx(0.030, abs=0.001)
        assert err.argmax() == 0  # at n = 2

    def test_uncorrected_range_divisor_bounds(self):
        # sup ~ 0.051 / inf ~ 0.0003 (printed with the wrong symbol in
        # the source text; the values match the range table).
        err = abs_errors(xi_table, blom_range)
        assert err.max() == pytest.approx(0.051, abs=0.001)
        assert err.min() == pytest.approx(0.0003, abs=0.0002)

    def test_corrected_iqr_divisor_bounds(self):
        err = abs_errors(eta_table, lambda n: eta_hat(n, CorrectionOrder.FIRST))
        assert err.max() <= 0.031
        assert err.min() < 0.0002

    def test_corrected_range_divisor_bounds(self):
        err = abs_errors(xi_table, xi_hat)
        assert err.max() <= 0.006
        assert err.min() < 0.0002
