"""Checks of the program's outputs that do not use the program.

``estimate`` rows are recomputed from the paper's formulas with the
Blom divisors taken from ``scipy.stats.norm.ppf``; the oracle's values
are compared with quadratures written here.  Each check returns a list
of problems (empty when the output is right) and, for ``estimate``, the
number of failed rows: rows with a non-finite input cell that were given
a numeric row instead of an error line.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter

import numpy as np
from scipy import integrate, special, stats

from inputs import VALUE_COLUMNS

CUTOFF = 50
DELTA_A, DELTA_B = -0.0626, 0.0197
# Least-squares coefficients of exp(n / (a + b n)); rounded to four
# decimals they are the published -2.8822 and -0.2308.
EPSILON_A, EPSILON_B = -2.8822093304294345, -0.23078632706469723

OUTPUT_KEYS = ("study_id", "scenario", "mean", "sd", "divisor", "correction", "degenerate")
_ID = re.compile(r"\br\d{7}\b")


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def expected_rows(cols: dict[str, list[str]]) -> dict[str, np.ndarray]:
    """Scenario, mean, SD, divisor and degenerate flag of every input row,
    from the formulas (first-order corrections for n <= 50)."""
    n = np.array(cols["n"], dtype=np.int64).astype(float)
    has = {c: np.array([s != "" for s in cols[c]]) for c in VALUE_COLUMNS}
    v = {c: np.array([float(s) if s else 0.0 for s in cols[c]]) for c in VALUE_COLUMNS}
    a, q1, m, q3, b = (v[c] for c in VALUE_COLUMNS)
    c1 = has["min"] & has["median"] & has["max"]
    c3 = has["q1"] & has["median"] & has["q3"]
    c2 = c1 & c3
    small = n <= CUTOFF
    with np.errstate(all="ignore"):
        xi = 2 * stats.norm.ppf((n - 0.375) / (n + 0.25)) + np.where(small, DELTA_A + DELTA_B * np.log(n), 0.0)
        eta = 2 * stats.norm.ppf((0.75 * n - 0.125) / (n + 0.25)) + np.where(
            small, np.exp(n / (EPSILON_A + EPSILON_B * n)), 0.0
        )
        rng, iqr = b - a, q3 - q1
        sd_c2 = 0.5 * (rng / xi + iqr / eta)
        sd = np.where(c2, sd_c2, np.where(c3, iqr / eta, rng / xi))
        mean = np.where(
            c2,
            (a + 2 * q1 + 2 * m + 2 * q3 + b) / 8,
            np.where(c3, (q1 + m + q3) / 3, (a + 2 * m + b) / 4 + (a - 2 * m + b) / (4 * n)),
        )
        divisor = np.where(
            c2, np.where(sd_c2 > 0, (rng + iqr) / (2 * sd_c2), xi), np.where(c3, eta, xi)
        )
    degenerate = np.where(c2, (rng == 0) | (iqr == 0), np.where(c3, iqr == 0, rng == 0))
    scenario = np.where(c2, "c2", np.where(c3, "c3", "c1"))
    scale = np.maximum(1.0, np.max(np.abs(np.stack([a, q1, m, q3, b])), axis=0))
    return {
        "scenario": scenario, "mean": mean, "sd": sd, "divisor": divisor,
        "degenerate": degenerate, "scale": scale,
    }


def _close(printed: np.ndarray, exact: np.ndarray, scale: np.ndarray, digits: int | None) -> np.ndarray:
    """Printed values equal the exact ones to the printed precision:
    half a unit in the last of ``digits`` significant digits, or a
    relative 1e-10 for full-precision output."""
    mag = np.abs(exact)
    if digits is None:
        tol = 1e-10 * mag
    else:
        with np.errstate(divide="ignore"):
            exp10 = np.floor(np.log10(np.where(mag > 0, mag, 1.0)))
        tol = np.where(mag > 0, 0.5 * 10.0 ** (exp10 - digits + 1) * (1 + 1e-6), 0.0)
    return np.abs(printed - exact) <= tol + 1e-12 * scale


def _parse_records(out: str, fmt: str, problems: list[str]):
    """Study ids of the output rows and, per row, the fields after the
    id; ``None`` for a JSONL row that is not strict JSON."""
    lines = out.splitlines()
    ids, fields = [], []
    if fmt == "csv":
        if not lines or lines[0] != ",".join(OUTPUT_KEYS):
            problems.append(f"bad CSV header {lines[:1]}")
            return ids, fields
        for line in lines[1:]:
            cells = line.split(",")
            try:
                if len(cells) != len(OUTPUT_KEYS) or cells[6] not in ("0", "1"):
                    raise ValueError(line)
                fields.append((cells[1], float(cells[2]), float(cells[3]), float(cells[4]),
                               cells[5], cells[6] == "1"))
            except ValueError:
                problems.append(f"malformed CSV row {line!r}")
                continue
            ids.append(cells[0])
        return ids, fields
    for line in lines:
        try:
            rec = json.loads(line, parse_constant=_reject_constant)
        except ValueError:
            try:
                ids.append(json.loads(line)["study_id"])
                fields.append(None)
            except (ValueError, KeyError, TypeError):
                problems.append(f"unparseable JSONL row {line!r}")
            continue
        if not isinstance(rec, dict) or set(rec) != set(OUTPUT_KEYS) or not isinstance(rec["degenerate"], bool):
            problems.append(f"malformed JSONL row {line!r}")
            continue
        ids.append(rec["study_id"])
        fields.append(tuple(rec[k] for k in OUTPUT_KEYS[1:]))
    return ids, fields


def check_estimate(cols: dict[str, list[str]], nonfinite: set[str], fmt: str,
                   out: str, err: str) -> tuple[list[str], int]:
    """Each input row must give exactly one output row or exactly one
    error line.  Rows with a non-finite cell should give an error line;
    a numeric row for one counts as failed.  Every other row must give a
    numeric row equal to the recomputed one."""
    problems: list[str] = []
    index = {sid: i for i, sid in enumerate(cols["study_id"])}
    ids, fields = _parse_records(out, fmt, problems)
    outputs = Counter(ids)
    errors: Counter[str] = Counter()
    for line in err.splitlines():
        found = set(_ID.findall(line))
        if len(found) != 1 or not line.startswith("error:"):
            problems.append(f"stderr line not tied to one row: {line!r}")
            continue
        errors[found.pop()] += 1

    failed = 0
    for sid in cols["study_id"]:
        n_out, n_err = outputs[sid], errors[sid]
        if n_out + n_err != 1:
            problems.append(f"{sid}: {n_out} output rows and {n_err} error lines")
        elif sid in nonfinite:
            failed += n_out
        elif n_err:
            problems.append(f"{sid}: valid row rejected")
    for sid in (outputs.keys() | errors.keys()) - index.keys():
        problems.append(f"output for unknown study {sid}")

    rows, checked = [], []
    for sid, f in zip(ids, fields):
        if sid in nonfinite or sid not in index or outputs[sid] != 1 or errors[sid]:
            continue
        if f is None:
            problems.append(f"{sid}: JSONL row is not strict JSON")
            continue
        rows.append(index[sid])
        checked.append(f)
    if not checked:
        return problems or ["no rows to check"], failed

    exp = expected_rows(cols)
    rows = np.array(rows)
    scenario, mean, sd, divisor, correction, degenerate = zip(*checked)
    digits = 6 if fmt == "csv" else None
    for key, printed in (("mean", mean), ("sd", sd), ("divisor", divisor)):
        printed = np.array(printed, dtype=float)
        bad = np.flatnonzero(~_close(printed, exp[key][rows], exp["scale"][rows], digits))
        for j in bad[:5]:
            problems.append(f"{cols['study_id'][rows[j]]}: {key}={float(printed[j])!r}, "
                            f"expected {float(exp[key][rows[j]])!r}")
        if len(bad) > 5:
            problems.append(f"... {len(bad)} rows with a wrong {key}")
    wrong = (
        (np.array(scenario) != exp["scenario"][rows])
        | (np.array(correction) != "first")
        | (np.array(degenerate, dtype=bool) != exp["degenerate"][rows])
    )
    for j in np.flatnonzero(wrong)[:5]:
        problems.append(f"{cols['study_id'][rows[j]]}: scenario/correction/degenerate {checked[j]}")
    return problems, failed


def expected_range(n: int) -> float:
    """E[max - min] of n standard normals as the integral of
    1 - Phi^n - (1 - Phi)^n over the real line."""
    value, _ = integrate.quad(
        lambda z: -math.expm1(n * special.log_ndtr(z)) - special.ndtr(-z) ** n,
        -np.inf, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400,
    )
    return value


def order_stat_mean(k: int, m: int) -> float:
    """E[X_(k:m)] for standard normals, by quadrature of its density."""
    logc = special.gammaln(m + 1) - special.gammaln(k) - special.gammaln(m - k + 1)

    def f(z):
        return z * math.exp(logc + (k - 1) * special.log_ndtr(z) + (m - k) * special.log_ndtr(-z) - 0.5 * z * z) / math.sqrt(2 * math.pi)

    centre = stats.norm.ppf((k - 0.375) / (m + 0.25))
    value, _ = integrate.quad(f, -12.0, 12.0, points=[centre], epsabs=1e-12, epsrel=1e-12, limit=400)
    return value


def exact_iqr(n: int, convention: str) -> float:
    """Expected sample IQR under each quartile convention, as a linear
    combination of order-statistic means."""
    if convention == "quarter-groups":
        m = 4 * n + 1
        return order_stat_mean(3 * n + 1, m) - order_stat_mean(n + 1, m)
    quartiles = []
    for p in (0.25, 0.75):
        h = {
            "blom": p * (n + 0.25) + 0.375,
            "type7": (n - 1) * p + 1.0,
            "nearest": float(round((n + 1) * p)),
        }[convention]
        h = min(max(h, 1.0), float(n))
        lo = math.floor(h)
        hi = min(lo + 1, n)
        frac = h - lo
        quartiles.append((1 - frac) * order_stat_mean(lo, n) + frac * order_stat_mean(hi, n))
    return quartiles[1] - quartiles[0]


def check_oracle(result: dict, max_se: float = 5.0) -> list[str]:
    """Quadrature ranges to 1e-8 (and 2/sqrt(pi) at n = 2); every Monte
    Carlo IQR within ``max_se`` of its own standard errors of the exact
    expectation."""
    problems = []
    ranges = {int(n): v for n, v in result["range"].items()}
    if abs(ranges.get(2, math.nan) - 2 / math.sqrt(math.pi)) > 1e-9:
        problems.append(f"expected_range(2) = {ranges.get(2)!r}, not 2/sqrt(pi)")
    for n, value in sorted(ranges.items()):
        ref = expected_range(n)
        if not abs(value - ref) <= 1e-8:
            problems.append(f"expected_range({n}) = {value!r}, quadrature gives {ref!r}")
    for conv, by_n in result["iqr"].items():
        for n_s, (est, se) in by_n.items():
            ref = exact_iqr(int(n_s), conv)
            if not (se > 0 and abs(est - ref) <= max_se * se):
                problems.append(f"expected_iqr({n_s}, {conv}) = {est!r} +- {se!r}, exact {ref!r}")
    return problems
