"""The columnar estimation core and the chunked ``estimate`` command.

The reference here is the per-row computation the core replaced: parse
one row, validate it, pick its scenario and divide its spread by the
scalar ``xi_hat``/``eta_hat``.  Output must match it byte for byte.
"""

import csv
import io
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from summarysd import cli
from summarysd.estimators import (
    CorrectionOrder,
    Scenario,
    StudySummary,
    estimate_columns,
    estimate_mean,
    estimate_moments,
    eta_hat,
    xi_hat,
)

HEADER = ("study_id", "n", "min", "q1", "median", "q3", "max")
FORMATS = ("csv", "tsv", "jsonl")
CORRECTIONS = ("none", "first", "second")
OVERRIDES = (None, "c1", "c2", "c3")


def mixed_rows(seed: int, count: int) -> list[list[str]]:
    """C1/C2/C3 rows with n on both sides of the cutoff, some degenerate,
    some malformed, some blank."""
    rng = random.Random(seed)
    rows = []
    for i in range(count):
        n = rng.choice([2, 3, 4, 49, 50, 51, 52, int(math.exp(rng.uniform(0.7, 6.0)))])
        med = rng.uniform(-50, 150)
        sig = math.exp(rng.uniform(-2, 4))
        q1, q3 = med - sig * rng.uniform(0.3, 1), med + sig * rng.uniform(0.3, 1)
        lo, hi = q1 - sig * rng.uniform(0.1, 2), q3 + sig * rng.uniform(0.1, 2)
        vals = [lo, q1, med, q3, hi]
        if rng.random() < 0.03:
            vals = [med] * 5
        cells = [f"{v:.4f}" for v in vals]
        present = rng.choice([(0, 2, 4), (0, 1, 2, 3, 4), (1, 2, 3)])
        cells = [c if j in present else "" for j, c in enumerate(cells)]
        row = [f"s{i}", str(n)] + cells
        bad = rng.random()
        if bad < 0.01:
            row[0] = ""
        elif bad < 0.02:
            row[0] = f"s{rng.randrange(max(i, 1))}"  # duplicate, or first of its id
        elif bad < 0.03:
            row[1] = rng.choice(["x", "1", "0", "-4", "2.5", ""])
        elif bad < 0.04:
            row[rng.randrange(2, 7)] = rng.choice(["zz", "nan", "inf", "-inf", "1e999"])
        elif bad < 0.05:
            row[2:7] = ["", "", row[4], "", ""]  # median only: no scenario
        elif bad < 0.06:
            row[2:7] = row[6:1:-1]  # reversed order
        elif bad < 0.07:
            row = row[:4]  # short row
        elif bad < 0.08:
            rows.append([])  # blank line before the row
        rows.append(row)
    return rows


def write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(HEADER) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def reference(text: str, fmt: str, correction: str, override, cutoff: int = 50):
    """stdout and stderr of ``estimate`` computed one row at a time."""
    order = CorrectionOrder(correction)
    out, err = [], []
    if fmt != "jsonl":
        out.append({"csv": ",", "tsv": "\t"}[fmt].join(cli.OUTPUT_COLUMNS))
    seen = set()
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    for row in reader:
        if not row:
            continue
        line = reader.line_num
        cell = dict(zip(header, row))
        sid = cell.get("study_id", "").strip()
        if not sid:
            err.append(f"error: line {line}: empty study_id")
            continue
        if sid in seen:
            err.append(f"error: line {line}: duplicate study_id {sid!r}")
            continue
        try:
            summary = reference_summary(cell)
        except ValueError as exc:
            err.append(f"error: line {line} ({sid}): {exc}")
            continue
        seen.add(sid)
        try:
            rec = reference_row(summary, order, override, cutoff)
        except ValueError as exc:
            err.append(f"error: line {line} ({sid}): {exc}")
            continue
        sc, mean, sd, divisor, degenerate = rec
        if fmt == "jsonl":
            out.append(json.dumps({
                "study_id": sid, "scenario": sc, "mean": mean, "sd": sd, "divisor": divisor,
                "correction": correction, "degenerate": degenerate,
            }))
        else:
            out.append({"csv": ",", "tsv": "\t"}[fmt].join([
                sid, sc, format(mean, ".6g"), format(sd, ".6g"), format(divisor, ".6g"),
                correction, "1" if degenerate else "0",
            ]))
    return "".join(x + "\n" for x in out), "".join(x + "\n" for x in err)


def reference_summary(cell: dict) -> StudySummary:
    n_raw = cell.get("n", "").strip()
    try:
        n = int(n_raw)
    except ValueError:
        raise ValueError(f"n={n_raw!r} is not an integer")
    if not -(2**63) <= n < 2**63:
        raise ValueError(f"n={n_raw!r} is out of range")
    vals = []
    for col in HEADER[2:]:
        raw = cell.get(col, "").strip()
        if not raw:
            vals.append(None)
            continue
        try:
            x = float(raw)
        except ValueError:
            raise ValueError(f"{col}={raw!r} is not a number")
        if not math.isfinite(x):
            raise ValueError(f"{col}={raw!r} is not a finite number")
        vals.append(x)
    return StudySummary(n, *vals)


def reference_row(s: StudySummary, order, override, cutoff):
    has_c1 = None not in (s.min_a, s.median_m, s.max_b)
    has_c3 = None not in (s.q1, s.median_m, s.q3)
    if override is not None:
        if not {"c1": has_c1, "c3": has_c3, "c2": has_c1 and has_c3}[override]:
            raise ValueError(f"scenario {override} requested but required fields are missing")
        sc = override
    elif has_c1 or has_c3:
        sc = "c2" if has_c1 and has_c3 else "c3" if has_c3 else "c1"
    else:
        raise ValueError("no scenario derivable: need {min, median, max} and/or {Q1, median, Q3}")
    a, q1, m, q3, b, n = s.min_a, s.q1, s.median_m, s.q3, s.max_b, s.n
    if sc == "c1":
        spread = b - a
        divisor = xi_hat(n, cutoff)
        sd = spread / divisor
        mean = (a + 2 * m + b) / 4.0
        mean += (a - 2 * m + b) / (4.0 * n)
    elif sc == "c3":
        spread = q3 - q1
        divisor = eta_hat(n, order, cutoff)
        sd = spread / divisor
        mean = (q1 + m + q3) / 3.0
    else:
        range_div = xi_hat(n, cutoff)
        iqr_div = eta_hat(n, order, cutoff)
        sd = 0.5 * ((b - a) / range_div + (q3 - q1) / iqr_div)
        spread = (b - a) + (q3 - q1)
        divisor = spread / (2.0 * sd) if sd > 0 else range_div
        mean = (a + 2 * q1 + 2 * m + 2 * q3 + b) / 8.0
    if not all(map(math.isfinite, (mean, sd, divisor))):
        raise ValueError("estimate overflows double precision")
    return sc, mean, sd, divisor, spread == 0


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def mixed_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("columnar") / "mixed.csv"
    write_rows(path, mixed_rows(seed=2023, count=3000))
    return path


@pytest.mark.parametrize("override", OVERRIDES)
@pytest.mark.parametrize("correction", CORRECTIONS)
@pytest.mark.parametrize("fmt", FORMATS)
def test_matches_per_row_reference(capsys, monkeypatch, mixed_file, fmt, correction, override):
    argv = ["estimate", str(mixed_file), "--format", fmt, "--correction", correction]
    if override:
        argv += ["--scenario", override]
    code, out, err = run(capsys, *argv)
    assert code == 0
    exp_out, exp_err = reference(mixed_file.read_text(), fmt, correction, override)
    assert out == exp_out
    assert err == exp_err
    # Chunks that split anywhere, between good and bad rows alike.
    monkeypatch.setattr(cli, "CHUNK_ROWS", 7)
    assert run(capsys, *argv) == (0, out, err)


def test_mixed_file_covers_the_cases(capsys, mixed_file):
    _, out, err = run(capsys, "estimate", str(mixed_file), "--format", "jsonl")
    recs = [json.loads(line) for line in out.splitlines()]
    assert {r["scenario"] for r in recs} == {"c1", "c2", "c3"}
    assert any(r["degenerate"] for r in recs)
    ns = {int(line.split(",")[1]) for line in mixed_file.read_text().splitlines()[1:]
          if line.count(",") == 6 and line.split(",")[1].isdigit()}
    assert {2, 49, 50, 51} <= ns and max(ns) > 100
    for reason in ("empty study_id", "duplicate", "not an integer", "sample size",
                   "not a number", "not a finite number", "no scenario", "min <= Q1"):
        assert reason in err


def test_cutoff_and_second_order_errors_name_the_row(capsys, tmp_path):
    path = tmp_path / "c3.csv"
    path.write_text("study_id,n,q1,median,q3\nok,20,1,2,3\nbig,60,1,2,3\n")
    code, out, err = run(capsys, "estimate", str(path), "--correction", "second",
                         "--cutoff", "60")
    assert code == 0
    assert out.splitlines()[1].startswith("ok,c3,")
    assert err == ("error: line 3 (big): second-order correction is defined for "
                   "3 <= n <= 50, got 60\n")


def test_bad_number_prefixed_once(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("study_id,n,min,median,max\ne3,10,0,zz,10\n")
    _, _, err = run(capsys, "estimate", str(path))
    assert err == "error: line 2 (e3): median='zz' is not a number\n"


def test_line_numbers_count_blank_lines(capsys, tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("study_id,n,min,median,max\na,10,0,4,10\n\n\nb,10,0,,10\n")
    _, out, err = run(capsys, "estimate", str(path))
    assert len(out.splitlines()) == 2
    assert err.startswith("error: line 5 (b): no scenario derivable")


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity", "1e400"])
@pytest.mark.parametrize("fmt", FORMATS)
def test_non_finite_cells_rejected(capsys, tmp_path, cell, fmt):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"study_id,n,min,median,max\nx,10,0,4,{cell}\ny,10,0,4,10\n")
    _, out, err = run(capsys, "estimate", str(path), "--format", fmt)
    assert err == f"error: line 2 (x): max={cell!r} is not a finite number\n"
    assert len(out.splitlines()) == (1 if fmt == "jsonl" else 2)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_study_summary_rejects_non_finite(value):
    with pytest.raises(ValueError, match="finite"):
        StudySummary(n=10, min_a=0.0, median_m=value, max_b=10.0)


def test_overflowing_estimate_is_a_row_error(capsys, tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("study_id,n,min,median,max\nh,10,-1e308,0,1e308\n")
    _, out, err = run(capsys, "estimate", str(path), "--format", "jsonl")
    assert out == ""
    assert err == "error: line 2 (h): estimate overflows double precision\n"


def test_sample_size_beyond_int64_is_a_row_error(capsys, tmp_path):
    path = tmp_path / "bign.csv"
    big = "1" + "0" * 400
    path.write_text(f"study_id,n,q1,median,q3\nb,{big},1,2,3\nc,{2**63 - 1},1,2,3\n")
    code, out, err = run(capsys, "estimate", str(path))
    assert code == 0
    assert err == f"error: line 2 (b): n={big!r} is out of range\n"
    assert out.splitlines()[1].startswith("c,c3,")


def test_divisors_evaluated_once_per_distinct_n(capsys, monkeypatch, mixed_file):
    from summarysd import estimators

    calls, chunks = [], []
    for name in ("xi_hat", "eta_hat"):
        fn = getattr(estimators, name)
        monkeypatch.setattr(estimators, name, lambda n, *a, _f=fn, _k=name: calls.append((_k, n)) or _f(n, *a))
    monkeypatch.setattr(cli, "estimate_columns", lambda n, *a: chunks.append(n.size) or estimate_columns(n, *a))
    monkeypatch.setattr(cli, "CHUNK_ROWS", 100)
    run(capsys, "estimate", str(mixed_file))
    assert calls and len(calls) == len(set(calls))
    data_rows = sum(1 for line in mixed_file.read_text().splitlines()[1:] if line)
    assert chunks == [100] * (data_rows // 100) + [data_rows % 100] * (data_rows % 100 > 0)


def test_one_row_views_agree_with_columns():
    s = StudySummary(n=12, min_a=0, q1=2, median_m=3, q3=5, max_b=9)
    n, values = s.columns()
    for sc in Scenario:
        est = estimate_columns(n, values, scenario=sc)
        one = estimate_moments(s, scenario=sc)
        assert (one.mean, one.sd, one.divisor_used) == (est.mean[0], est.sd[0], est.divisor[0])
        assert one.mean == estimate_mean(s, sc)


def test_columns_validate_like_study_summary():
    values = np.array([[0, 5, 0, np.inf], [np.nan] * 4, [4, 4, 4, 4], [np.nan] * 4, [10, 3, 10, 10]])
    est = estimate_columns(np.array([10, 10, 1, 10]), values)
    assert est.errors == {
        1: "summaries must satisfy min <= Q1 <= median <= Q3 <= max",
        2: "sample size must be >= 2, got 1",
        3: "summaries must be finite numbers",
    }
    assert est.invalid.tolist() == [False, True, True, True]


# Cells: anything on one line, plus the numbers and near-numbers that
# reach the estimator.
_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                              blacklist_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
                max_size=12)
_CELL = st.one_of(
    _TEXT,
    st.sampled_from(["", "nan", "inf", "-inf", "1e308", "-1e308", "1e400", "0", " 1_0 "]),
    st.floats(allow_nan=False).map(repr),
    st.integers(-10, 10**30).map(str),
)


@given(st.lists(st.lists(_CELL, min_size=7, max_size=7), min_size=1, max_size=12),
       st.sampled_from(CORRECTIONS), st.sampled_from(OVERRIDES))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_arbitrary_cells_one_outcome_per_row(tmp_path, capsys, rows, correction, override):
    path = tmp_path / "fuzz.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        writer.writerows(rows)
    argv = ["estimate", str(path), "--format", "jsonl", "--correction", correction]
    if override:
        argv += ["--scenario", override]
    code, out, err = run(capsys, *argv)
    assert code == 0
    records = [json.loads(line, parse_constant=lambda c: pytest.fail(f"{c} in output"))
               for line in out.splitlines()]
    errors = err.splitlines()
    assert len(records) + len(errors) == len(rows)
    lines = [re.match(r"error: line (\d+)[ :]", line).group(1) for line in errors]
    assert len(set(lines)) == len(errors)
    assert all(math.isfinite(r[k]) for r in records for k in ("mean", "sd", "divisor"))
    assert (out, err) == reference(path.read_text(), "jsonl", correction, override)
