"""Reference divisor tables for n = 1..50.

The tables give the expected normalised range (``xi``) and expected
normalised interquartile range (``eta``) of standard normal samples, as
published upstream.  They are shipped as a plain tab-separated fixture
(``data/divisor_tables.tsv``, one line per n: ``n<TAB>xi<TAB>eta``) so
the transcription is auditable, and are treated as ground truth by the
correction formulas and the refitting pipeline.

Each entry is the exact value rounded half up to 4 decimals, then to 3;
so xi(12) (3.2584553 -> 3.2585 -> 3.259), eta(12) (1.3104663 -> 1.311)
and eta(24) (1.3294858 -> 1.330) differ from a single rounding.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

__all__ = [
    "DivisorTable",
    "load_tables",
    "xi_table",
    "eta_table",
    "FIXTURE_NAME",
]

FIXTURE_NAME = "divisor_tables.tsv"

N_MIN, N_MAX = 1, 50


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class DivisorTable:
    """Immutable lookup table n -> divisor value for n in 1..50."""

    name: str
    values: tuple[float, ...]  # index 0 holds n = 1

    def __post_init__(self):
        if len(self.values) != N_MAX:
            raise ValueError(f"expected {N_MAX} entries, got {len(self.values)}")

    def value(self, n: int) -> float:
        if not (_is_int(n) and N_MIN <= n <= N_MAX):
            raise KeyError(f"{self.name} table covers n in {N_MIN}..{N_MAX}, got {n}")
        return self.values[n - 1]


def _read_fixture() -> list[tuple[int, float, float]]:
    text = resources.files("summarysd.data").joinpath(FIXTURE_NAME).read_text()
    rows = []
    for line in text.strip().splitlines():
        n_s, xi_s, eta_s = line.split("\t")
        rows.append((int(n_s), float(xi_s), float(eta_s)))
    return rows


@lru_cache(maxsize=1)
def load_tables() -> tuple[DivisorTable, DivisorTable]:
    """Load the (xi, eta) fixture tables, validating their integrity."""
    rows = _read_fixture()
    ns = [r[0] for r in rows]
    if ns != list(range(N_MIN, N_MAX + 1)):
        raise ValueError("fixture must cover n = 1..50 exactly, in order")
    xi_vals = tuple(r[1] for r in rows)
    eta_vals = tuple(r[2] for r in rows)
    if xi_vals[0] != 0.0:
        raise ValueError("xi(1) must be exactly 0")
    if any(b <= a for a, b in zip(xi_vals[1:], xi_vals[2:])):
        raise ValueError("xi must be strictly increasing for n >= 2")
    if any(b < a for a, b in zip(eta_vals, eta_vals[1:])):
        raise ValueError("eta must be non-decreasing")
    return DivisorTable("xi", xi_vals), DivisorTable("eta", eta_vals)


def xi_table(n: int) -> float:
    """Tabulated expected normalised range for n in 1..50."""
    return load_tables()[0].value(n)


def eta_table(n: int) -> float:
    """Tabulated expected normalised IQR for n in 1..50."""
    return load_tables()[1].value(n)
