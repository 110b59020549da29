"""Seeded study-summary CSVs for the ``estimate-*`` workloads.

The program only ever sees the CSV written here.  Everything that
depends on ``--seed`` comes from one ``numpy`` generator seeded with it;
the non-finite rows of ``estimate-jsonl-wide-n`` come from a fixed
seed instead, so they are the same rows at the same positions in every
run and the share of failed rows never depends on the seed.
"""

from __future__ import annotations

import math

import numpy as np

ROWS = 100_000
VALUE_COLUMNS = ("min", "q1", "median", "q3", "max")
HEADER = ("study_id", "n") + VALUE_COLUMNS

#: Share of rows whose five summaries all coincide (zero spread).
DEGENERATE_SHARE = 0.01
#: Every NONFINITE_EVERY-th row of the wide-n input carries a non-finite cell.
NONFINITE_EVERY = 200
NONFINITE_SEED = 12550

# Which cells each scenario reports (C1: range, C2: all five, C3: quartiles).
_PRESENT = {
    0: ("min", "median", "max"),
    1: VALUE_COLUMNS,
    2: ("q1", "median", "q3"),
}


def _draw(rng: np.random.Generator, rows: int, wide_n: bool) -> dict[str, list[str]]:
    scenario = rng.integers(0, 3, rows)
    if wide_n:
        n = rng.integers(2, 4_000_001, rows)
    else:
        # log-uniform over 2..400: about 61% of rows have n <= 50
        n = np.minimum(np.exp(rng.uniform(math.log(2), math.log(401), rows)).astype(np.int64), 400)
    median = rng.uniform(-50.0, 150.0, rows)
    sigma = np.exp(rng.uniform(math.log(0.1), math.log(50.0), rows))
    q1 = median - sigma * rng.uniform(0.4, 0.9, rows)
    q3 = median + sigma * rng.uniform(0.4, 0.9, rows)
    lo = q1 - sigma * rng.uniform(0.3, 2.5, rows)
    hi = q3 + sigma * rng.uniform(0.3, 2.5, rows)
    flat = rng.random(rows) < DEGENERATE_SHARE
    values = {"min": lo, "q1": q1, "median": median, "q3": q3, "max": hi}
    for col in values:
        # Rounding is monotone, so the order min <= Q1 <= median <= Q3 <= max
        # survives it; sigma >= 0.1 keeps every non-degenerate spread > 0.
        values[col] = np.round(np.where(flat, median, values[col]), 3)

    cols: dict[str, list[str]] = {"n": [str(v) for v in n]}
    for col, arr in values.items():
        cols[col] = [f"{v:.3f}" for v in arr]
    for i, sc in enumerate(scenario):
        present = _PRESENT[int(sc)]
        for col in VALUE_COLUMNS:
            if col not in present:
                cols[col][i] = ""
    return cols


def _nonfinite_rows(count: int) -> dict[str, list[str]]:
    """Rows with one ``nan``, ``inf`` (in max) or ``-inf`` (in min) cell."""
    rng = np.random.default_rng(NONFINITE_SEED)
    cols = _draw(rng, count, wide_n=True)
    for i in range(count):
        kind = ("nan", "inf", "-inf")[i % 3]
        if kind == "nan":
            present = [c for c in VALUE_COLUMNS if cols[c][i] != ""]
            col = present[int(rng.integers(0, len(present)))]
        else:
            col = "max" if kind == "inf" else "min"
            if cols[col][i] == "":  # a C3 row: give it the range as well
                cols["min"][i] = f"{float(cols['q1'][i]) - 1.0:.3f}"
                cols["max"][i] = f"{float(cols['q3'][i]) + 1.0:.3f}"
        cols[col][i] = kind
    return cols


def make_table(workload: str, seed: int) -> tuple[dict[str, list[str]], set[str]]:
    """Columns of the input CSV (as the strings written) and the ids of
    the rows that carry a non-finite cell."""
    wide_n = workload == "estimate-jsonl-wide-n"
    cols = _draw(np.random.default_rng(seed), ROWS, wide_n)
    cols["study_id"] = [f"r{i:07d}" for i in range(ROWS)]
    nonfinite: set[str] = set()
    if wide_n:
        positions = range(NONFINITE_EVERY - 1, ROWS, NONFINITE_EVERY)
        bad = _nonfinite_rows(len(positions))
        for j, i in enumerate(positions):
            for col in ("n",) + VALUE_COLUMNS:
                cols[col][i] = bad[col][j]
            nonfinite.add(cols["study_id"][i])
    return cols, nonfinite


def write_csv(cols: dict[str, list[str]], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(HEADER) + "\n")
        for row in zip(*(cols[c] for c in HEADER)):
            fh.write(",".join(row) + "\n")
