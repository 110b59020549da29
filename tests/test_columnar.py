"""The columnar estimation core and the chunked ``estimate`` command.

The reference here is the per-row computation the core replaced: parse
one row, validate it, pick its scenario and divide its spread by the
scalar divisors of ``scalar_reference``.  Output must match it byte for
byte.
"""

import csv
import io
import json
import math
import random
import re
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from summarysd import cli
from summarysd.estimators import (
    CorrectionOrder,
    Scenario,
    StudySummary,
    estimate_columns,
    estimate_mean,
    estimate_moments,
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
        out.append(csv_line(cli.OUTPUT_COLUMNS, fmt))
    seen = set()
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader)
    for row in reader:
        if not row:
            continue
        line = reader.line_num
        cell = dict(zip(header, row))
        sid = cell.get("study_id", "").strip()
        shown = sid if sid.isprintable() else repr(sid)
        if not sid:
            err.append(f"error: line {line}: empty study_id")
            continue
        if sid in seen:
            err.append(f"error: line {line}: duplicate study_id {sid!r}")
            continue
        if any(c.strip() for c in row[len(header):]):
            err.append(f"error: line {line} ({shown}): row has {len(row)} cells, header has {len(header)}")
            continue
        try:
            summary = reference_summary(cell)
        except ValueError as exc:
            err.append(f"error: line {line} ({shown}): {exc}")
            continue
        seen.add(sid)
        try:
            rec = reference_row(summary, order, override, cutoff)
        except ValueError as exc:
            err.append(f"error: line {line} ({shown}): {exc}")
            continue
        sc, mean, sd, divisor, degenerate = rec
        if fmt == "jsonl":
            out.append(json.dumps({
                "study_id": sid, "scenario": sc, "mean": mean, "sd": sd, "divisor": divisor,
                "correction": correction, "degenerate": degenerate,
            }))
        else:
            out.append(csv_line([
                sid, sc, format(mean, ".6g"), format(sd, ".6g"), format(divisor, ".6g"),
                correction, "1" if degenerate else "0",
            ], fmt))
    return "".join(x + "\n" for x in out), "".join(x + "\n" for x in err)


def csv_line(fields, fmt: str) -> str:
    """One row as ``csv.writer`` writes it by default (quoting fields that
    hold the separator, a quote, or a \\r or \\n), without its line end."""
    buf = io.StringIO()
    csv.writer(buf, delimiter={"csv": ",", "tsv": "\t"}[fmt]).writerow(fields)
    return buf.getvalue().removesuffix("\r\n")


def reference_summary(cell: dict) -> StudySummary:
    """The row as a StudySummary, checked here and not by the code under
    test: n >= 2, then (values being finite once parsed) their order.  A
    cell holding ``_`` is not a number, though Python would read 1_0."""
    n_raw = cell.get("n", "").strip()
    try:
        if "_" in n_raw:
            raise ValueError
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
            if "_" in raw:
                raise ValueError
            x = float(raw)
        except ValueError:
            raise ValueError(f"{col}={raw!r} is not a number")
        if not math.isfinite(x):
            raise ValueError(f"{col}={raw!r} is not a finite number")
        vals.append(x)
    if n < 2:
        raise ValueError(f"sample size must be >= 2, got {n}")
    given = [x for x in vals if x is not None]
    if any(b < a for a, b in zip(given, given[1:])):
        raise ValueError("summaries must satisfy min <= Q1 <= median <= Q3 <= max")
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
        degenerate = spread == 0
        divisor = ref.xi_hat(n, cutoff)
        sd = spread / divisor
        mean = (a + 2 * m + b) / 4.0
        mean += (a - 2 * m + b) / (4.0 * n)
    elif sc == "c3":
        spread = q3 - q1
        degenerate = spread == 0
        divisor = ref.eta_hat(n, order, cutoff)
        sd = spread / divisor
        mean = (q1 + m + q3) / 3.0
    else:
        range_div = ref.xi_hat(n, cutoff)
        iqr_div = ref.eta_hat(n, order, cutoff)
        sd = 0.5 * ((b - a) / range_div + (q3 - q1) / iqr_div)
        spread = (b - a) + (q3 - q1)
        degenerate = b - a == 0 or q3 - q1 == 0
        divisor = spread / (2.0 * sd) if sd > 0 else range_div
        mean = (a + 2 * q1 + 2 * m + 2 * q3 + b) / 8.0
    if not all(map(math.isfinite, (mean, sd, divisor))):
        raise ValueError("estimate overflows double precision")
    return sc, mean, sd, divisor, degenerate


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
    path.write_text("study_id,n,q1,median,q3\nok,20,1,2,3\nsmall,2,1,2,3\n")
    code, out, err = run(capsys, "estimate", str(path), "--correction", "second",
                         "--cutoff", "30")
    assert code == 0
    assert out.splitlines()[1].startswith("ok,c3,")
    assert err == ("error: line 3 (small): second-order correction is defined for "
                   "3 <= n <= 50, got 2\n")


def test_second_order_beyond_its_domain_is_a_row_error():
    # A second-order cutoff above 50 is accepted, here as by the CLI; the
    # rows it cannot correct are row errors.
    n = np.array([2, 3, 50, 51, 60, 61])
    values = np.array([[np.nan] * 6, [1.0] * 6, [2.0] * 6, [3.0] * 6, [np.nan] * 6])
    est = estimate_columns(n, values, CorrectionOrder.SECOND, cutoff=60)
    assert est.errors == {
        row: f"second-order correction is defined for 3 <= n <= 50, got {n[row]}"
        for row in (0, 3, 4)
    }
    assert est.divisor[[1, 2, 5]].tolist() == [
        ref.eta_hat(k, CorrectionOrder.SECOND, 60) for k in (3, 50, 61)
    ]


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, Decimal("sNaN")])
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


@pytest.mark.parametrize("n", [2**53 + 1, 10**16, 2**62])
@pytest.mark.parametrize("fmt", FORMATS)
def test_huge_n_has_no_range_divisor(capsys, tmp_path, fmt, n):
    # The Blom position of the maximum rounds to 1; the IQR's stays near 3/4.
    path = tmp_path / "huge.csv"
    write_rows(path, [["c1", str(n), "0", "", "4", "", "10"],
                      ["c2", str(n), "0", "2", "4", "6", "10"],
                      ["c3", str(n), "", "2", "4", "6", ""]])
    code, out, err = run(capsys, "estimate", str(path), "--format", fmt)
    assert code == 0
    assert err == (f"error: line 2 (c1): n={n} is too large for the range divisor\n"
                   f"error: line 3 (c2): n={n} is too large for the range divisor\n")
    assert len(out.splitlines()) == (1 if fmt == "jsonl" else 2) and "c3" in out
    assert (out, err) == reference(path.read_text(), fmt, "first", None)


# One chunk of C1, C2 and C3 rows: every value column has empty cells.
CHUNK = [
    ["a", "10", "0", "", "4", "", "10"],
    ["b", "12", "0", "2", "3", "5", "9"],
    ["c", "20", "", "1", "2", "3", ""],
    ["d", "9", "5", "", "5", "", "5"],
    ["e", "30", "-1", "", "0.5", "", "7.25"],
]


@pytest.fixture
def calls(monkeypatch):
    """The cells ``_parse_cell`` read, as (column, cell), and the output
    rows ``_chunk_output`` wrote for each chunk."""
    taken = {"reparsed": [], "write": []}
    parse_cell, chunk_output = cli._parse_cell, cli._chunk_output

    def cell(col, raw):
        taken["reparsed"].append((col, raw))
        return parse_cell(col, raw)

    def output(*args):
        out, err = chunk_output(*args)
        taken["write"].append(out)
        return out, err

    monkeypatch.setattr(cli, "_parse_cell", cell)
    monkeypatch.setattr(cli, "_chunk_output", output)
    return taken


# ``parse`` says how the column holding the cell is read: whole, with
# only an infinite or NaN cell read again for its reason ("columns"), or
# one row at a time because the whole read raises ("rows").
@pytest.mark.parametrize("column, cell, parse, reparsed", [
    ("q1", "nan", "columns", 1),  # next to empty cells of its column
    ("min", "NaN", "columns", 1),
    ("max", "-inf", "columns", 1),
    ("median", "1e400", "columns", 1),
    ("max", " 1_0 ", "rows", 6),  # float() would read it as 10
    ("n", "1_5", "rows", 6),
    ("n", " 7 ", "columns", 0),
    ("q1", "  ", "rows", 6),  # empty only once stripped
    ("median", "zz", "rows", 6),
    ("n", str(2**63), "rows", 6),
    ("n", "2.5", "rows", 6),
])
@pytest.mark.parametrize("fmt", FORMATS)
def test_both_parse_paths_match_the_reference(
    capsys, tmp_path, calls, fmt, column, cell, parse, reparsed
):
    good = tmp_path / "good.csv"
    write_rows(good, CHUNK)
    _, good_out, good_err = run(capsys, "estimate", str(good), "--format", fmt)
    assert good_err == "" and not calls["reparsed"]

    odd = ["odd", "15", "1", "2", "3", "4", "5"]
    odd[HEADER.index(column)] = cell
    rows = CHUNK[:2] + [odd] + CHUNK[2:]
    path = tmp_path / "odd.csv"
    write_rows(path, rows)
    code, out, err = run(capsys, "estimate", str(path), "--format", fmt)
    assert code == 0
    if parse == "columns":
        read_again = [cell] * reparsed
    else:
        read_again = [row[HEADER.index(column)] for row in rows]
    assert calls["reparsed"] == [(column, raw) for raw in read_again]
    assert len(calls["reparsed"]) == reparsed
    assert (out, err) == reference(path.read_text(), fmt, "first", None)
    # The other rows of the chunk keep their bytes however the cell was read.
    others = [line for line in out.splitlines(keepends=True)
              if not line.startswith(("odd,", "odd\t", '{"study_id": "odd"'))]
    assert "".join(others) == good_out


VALID = ["10", "0", "", "4", "", "10"]
UNORDERED = ["10", "9", "", "4", "", "1"]
MEDIAN_ONLY = ["10", "", "", "4", "", ""]


# ``write`` holds the ids each two-row chunk writes an output row for.
@pytest.mark.parametrize("ids, first, write", [
    ("abcd", VALID, ["ab", "cd"]),
    ("abad", VALID, ["ab", "d"]),  # an id seen in an earlier chunk
    ("aacd", VALID, ["a", "cd"]),  # repeated within the chunk
    ("a cd", VALID, ["a", "cd"]),  # empty
    ("abad", UNORDERED, ["b", "ad"]),  # a rejected row's id is not seen
    ("abad", MEDIAN_ONLY, ["b", "d"]),  # the id of a row with no estimate is
])
@pytest.mark.parametrize("fmt", FORMATS)
def test_chunks_with_empty_or_repeated_ids_are_written_by_row(
    capsys, monkeypatch, tmp_path, calls, fmt, ids, first, write
):
    rows = [[sid.strip()] + (first if k == 0 else VALID) for k, sid in enumerate(ids)]
    path = tmp_path / "ids.csv"
    write_rows(path, rows)
    monkeypatch.setattr(cli, "CHUNK_ROWS", 2)

    def study_id(line):
        if fmt == "jsonl":
            return json.loads(line)["study_id"]
        return line.split(cli.SEPARATORS[fmt])[0]

    code, out, err = run(capsys, "estimate", str(path), "--format", fmt)
    assert code == 0
    assert ["".join(map(study_id, chunk.splitlines())) for chunk in calls["write"]] == write
    assert (out, err) == reference(path.read_text(), fmt, "first", None)


def test_ids_with_separators_quotes_and_line_breaks(capsys, tmp_path):
    ids = ["a,b", "tab\there", 'say "hi"', "two\nlines", "cr\rlf", "plain"]
    path = tmp_path / "ids.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        writer.writerows([sid, "10", "0", "", "4", "", "10"] for sid in ids)
        writer.writerows([sid + "!", "x", "", "", "", "", ""] for sid in ids)
    with open(path, newline="") as fh:
        text = fh.read()
    for fmt in FORMATS:
        code, out, err = run(capsys, "estimate", str(path), "--format", fmt)
        assert code == 0
        assert (out, err) == reference(text, fmt, "first", None)
        if fmt == "jsonl":
            assert [json.loads(line)["study_id"] for line in out.splitlines()] == ids
        else:
            rows = list(csv.reader(io.StringIO(out, newline=""), delimiter=cli.SEPARATORS[fmt]))
            assert [row[0] for row in rows[1:]] == ids
            assert {len(row) for row in rows} == {len(cli.OUTPUT_COLUMNS)}
        errors = err.splitlines()
        assert len(errors) == len(ids)
        # Physical lines: the quoted line breaks take one more line each.
        assert errors[3:] == [
            "error: line 14 ('two\\nlines!'): n='x' is not an integer",
            "error: line 16 ('cr\\rlf!'): n='x' is not an integer",
            "error: line 17 (plain!): n='x' is not an integer",
        ]


@pytest.mark.parametrize("header", [
    ("max", "n", "study_id", "median", "min"),
    ("n", "study_id", "q3", "median", "q1"),
])
@pytest.mark.parametrize("fmt", FORMATS)
def test_header_in_another_order(capsys, monkeypatch, tmp_path, header, fmt):
    rng = random.Random(11)
    lines = [",".join(header)]
    for i, row in enumerate(mixed_rows(seed=11, count=300)):
        cells = [dict(zip(HEADER, row)).get(col, "") for col in header]
        if i < 2 or rng.random() < 0.1:  # short; the first chunk has only short rows
            cells = cells[:rng.randrange(1, len(header))]
        elif rng.random() < 0.1:
            cells.append(" ")  # a blank cell past the header
        lines.append(",".join(cells) if row else "")
    path = tmp_path / "reordered.csv"
    path.write_text("\n".join(lines) + "\n")
    expected = reference(path.read_text(), fmt, "first", None)
    assert expected[0].count("\n") > 100
    assert run(capsys, "estimate", str(path), "--format", fmt) == (0, *expected)
    monkeypatch.setattr(cli, "CHUNK_ROWS", 2)
    assert run(capsys, "estimate", str(path), "--format", fmt) == (0, *expected)


# The last line of the first block at CHUNK_ROWS = 7, each a reason for
# that block to go through ``csv.reader``, and whether it stops the run.
_LONG = "0" * 70_000 + "4"


@pytest.mark.parametrize("last, fatal", [
    ('"q,\nr",10,0,,4,,10\n', None),  # a quoted comma and line break, read on past the block
    ("q,10,0,,4,,10\r\n", None),
    ("q\0,10,0,,4,,10\n", None if sys.version_info >= (3, 11) else "line contains NUL"),
    ("q,10,0,,4,,10", None),  # the end of the file
    ("\n", None),  # the chunk takes one more row from the next block
    ("q,10,0\n", None),
    ("q,10,0,,4,,10, \n", None),
    ("q,10,0,,4,,10,x\n", None),
    ("q\udcff,10,0,,4,,10\n", "'utf-8' codec can't decode byte 0xff"),
    (f"q,10,{'0' * 131_073},,4,,10\n", "field larger than field limit (131072)"),
    (f"q{_LONG},10,{_LONG},,{_LONG},,10\n", None),  # a line over the limit, its fields under it
], ids=["quote", "crlf", "nul", "no-final-newline", "blank", "short", "blank-extra-cell",
        "extra-cell", "bad-byte", "field-over-limit", "line-over-limit"])
@pytest.mark.parametrize("fmt", FORMATS)
def test_each_fallback_trigger_matches_the_reference(capsys, monkeypatch, tmp_path, fmt, last, fatal):
    plain = [f"p{i},{10 + i},0,,{i},,10\n" for i in range(11)]
    before = ",".join(HEADER) + "\n" + "".join(plain[:6])
    text = before + last + ("".join(plain[6:]) if last.endswith("\n") else "")
    path = tmp_path / "trigger.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    monkeypatch.setattr(cli, "CHUNK_ROWS", 7)
    if fatal is None:
        expected = (0, *reference(text, fmt, "first", None))
    else:
        out, err = reference(before, fmt, "first", None)
        expected = (2, out, err + f"error: {path}: line 8: {fatal}\n")
    assert run(capsys, "estimate", str(path), "--format", fmt) == expected


def test_lone_carriage_return_ends_a_line(capsys, tmp_path):
    # A block whose lines all end in \n is not yet one to cut at commas.
    text = ",".join(HEADER) + "\na,10,0,,4,,10\rb,12,0,,4,,10\n"
    path = tmp_path / "cr.csv"
    path.write_bytes(text.encode())
    assert run(capsys, "estimate", str(path)) == (0, *reference(text, "csv", "first", None))


def test_plain_input_sends_only_the_header_through_csv_reader(capsys, monkeypatch):
    path = Path(__file__).parent / "golden" / "estimate-csv.csv"
    expected = (0, *reference(path.read_text(), "csv", "first", None))
    read = []  # the lines that reach csv.reader
    reader = csv.reader
    monkeypatch.setattr(cli.csv, "reader", lambda lines: reader(read.append(x) or x for x in lines))
    assert run(capsys, "estimate", str(path)) == expected
    assert read == [",".join(HEADER) + "\n"]


def test_divisors_evaluated_once_per_distinct_n(capsys, monkeypatch, mixed_file):
    from summarysd import estimators

    passed = {"xi_hat": [], "eta_hat": []}
    chunks = []
    for name, arrays in passed.items():
        fn = getattr(estimators, name)
        monkeypatch.setattr(estimators, name, lambda n, *a, _f=fn, _s=arrays: _s.append(n.copy()) or _f(n, *a))
    monkeypatch.setattr(cli, "estimate_columns", lambda n, *a: chunks.append(n.size) or estimate_columns(n, *a))
    monkeypatch.setattr(cli, "CHUNK_ROWS", 100)
    run(capsys, "estimate", str(mixed_file))
    for arrays in passed.values():
        # At most one call per chunk, and no n evaluated twice in the run.
        assert 0 < len(arrays) <= len(chunks)
        ns = np.concatenate(arrays)
        assert ns.size == np.unique(ns).size
    data_rows = sum(1 for line in mixed_file.read_text().splitlines()[1:] if line)
    assert chunks == [100] * (data_rows // 100) + [data_rows % 100] * (data_rows % 100 > 0)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_divisor_memo_keeps_only_n_below_limit(capsys, monkeypatch, mixed_file, fmt):
    from summarysd import estimators

    expected = run(capsys, "estimate", str(mixed_file), "--format", fmt)
    passed = {"xi_hat": [], "eta_hat": []}
    chunks = []
    for name, calls in passed.items():
        fn = getattr(estimators, name)
        monkeypatch.setattr(estimators, name, lambda n, *a, _f=fn, _c=calls:
                            _c.append((len(chunks), n.copy())) or _f(n, *a))
    monkeypatch.setattr(cli, "estimate_columns", lambda n, *a: chunks.append(n.size) or estimate_columns(n, *a))
    monkeypatch.setattr(cli, "CHUNK_ROWS", 100)
    monkeypatch.setattr(estimators, "_MEMO_LIMIT", 8)
    assert run(capsys, "estimate", str(mixed_file), "--format", fmt) == expected
    for calls in passed.values():
        # At most one call per chunk, each n at most once in a call, and
        # an n below the limit in at most one call of the run.
        assert len({chunk for chunk, _ in calls}) == len(calls) > 1
        assert all(np.unique(ns).size == ns.size for _, ns in calls)
        small = np.concatenate([ns[ns < 8] for _, ns in calls])
        assert small.size == np.unique(small).size > 0


def test_one_row_views_agree_with_columns():
    s = StudySummary(n=12, min_a=0, q1=2, median_m=3, q3=5, max_b=9)
    n, values = s.columns()
    for sc in Scenario:
        est = estimate_columns(n, values, scenario=sc)
        one = estimate_moments(s, scenario=sc)
        assert (one.mean, one.sd, one.divisor_used) == (est.mean[0], est.sd[0], est.divisor[0])
        assert estimate_mean(s, sc).hex() == one.mean.hex()  # bit for bit


def test_columns_validate_like_study_summary():
    values = np.array([[0, 5, 0, np.inf], [np.nan] * 4, [4, 4, 4, 4], [np.nan] * 4, [10, 3, 10, 10]])
    est = estimate_columns(np.array([10, 10, 1, 10]), values)
    assert est.errors == {
        1: "summaries must satisfy min <= Q1 <= median <= Q3 <= max",
        2: "sample size must be >= 2, got 1",
        3: "summaries must be finite numbers",
    }
    assert est.invalid.tolist() == [False, True, True, True]


@pytest.mark.parametrize("n, reason", [
    (np.array([10.5]), "sample size must be an integer, got 10.5"),
    (np.array([10.0]), "sample size must be an integer, got 10.0"),
    (np.array([True]), "sample size must be an integer, got True"),
    (np.array([2**63], dtype=np.uint64), "sample size must be < 2**63, got 9223372036854775808"),
    (np.array([-10**30], dtype=object), "sample size must be >= 2, got -1000000000000000000000000000000"),
    (np.array([2**64], dtype=object), "sample size must be < 2**63, got 18446744073709551616"),
    (np.array([10.5], dtype=object), "sample size must be an integer, got 10.5"),
    (np.array([True], dtype=object), "sample size must be an integer, got True"),
    (np.array([None], dtype=object), "sample size must be an integer, got None"),
    (np.array(["10"]), "sample size must be an integer, got '10'"),
], ids=["float", "integral-float", "bool", "uint64-2**63", "object", "object-2**64",
        "object-float", "object-bool", "object-None", "str"])
def test_columns_reject_the_n_study_summary_rejects(n, reason):
    values = np.array([[0.0], [np.nan], [4.0], [np.nan], [10.0]])
    est = estimate_columns(n, values)
    assert est.errors == {0: reason}
    assert est.invalid.tolist() == [True]
    with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
        StudySummary(n=n.tolist()[0], min_a=0.0, median_m=4.0, max_b=10.0)


@pytest.mark.parametrize("n_shape, values_shape", [
    ((2,), (5, 1)),  # would broadcast one study's summaries to both n
    ((2,), (4, 2)),
    ((2,), (5, 2, 1)),
    ((2, 1), (5, 2)),
])
def test_columns_reject_shapes_that_do_not_match(n_shape, values_shape):
    with pytest.raises(ValueError, match=re.escape(f"got {n_shape} and {values_shape}")):
        estimate_columns(np.full(n_shape, 10), np.zeros(values_shape))


def test_n_beyond_int64_leaves_the_other_rows_estimated():
    values = np.array([[0.0] * 2, [np.nan] * 2, [4.0] * 2, [np.nan] * 2, [10.0] * 2])
    est = estimate_columns([12, 2**64], values)
    alone = estimate_columns([12], values[:, :1])
    assert est.errors == {1: f"sample size must be < 2**63, got {2**64}"}
    assert (est.mean[0], est.sd[0], est.divisor[0]) == (alone.mean[0], alone.sd[0], alone.divisor[0])


@pytest.mark.parametrize("n, errors", [
    ([10.5, 2**70], {0: "sample size must be an integer, got 10.5",
                     1: f"sample size must be < 2**63, got {2**70}"}),
    ([12, None], {1: "sample size must be an integer, got None"}),
    ([10, "12"], {1: "sample size must be an integer, got '12'"}),
    ([10, 10.5], {1: "sample size must be an integer, got 10.5"}),
], ids=["float-and-2**70", "None", "str", "int-and-float"])
def test_n_that_is_not_an_integer_is_its_row_error(n, errors):
    values = np.array([[0.0] * 2, [np.nan] * 2, [4.0] * 2, [np.nan] * 2, [10.0] * 2])
    est = estimate_columns(n, values)
    assert est.errors == errors
    assert est.invalid.tolist() == [r in errors for r in range(2)]
    for r in set(range(2)) - set(errors):  # estimated as if it were alone
        assert est.sd[r] == estimate_columns(np.array([n[r]]), values[:, :1]).sd[0]


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


# Ids: any cell, or text of separators, quotes and line breaks, which
# the CSV input quotes and the output must quote or escape again.
_ID = st.one_of(_CELL, st.lists(st.sampled_from([",", "\t", '"', "\r", "\n", " "]), max_size=3)
                .map(lambda chars: "x" + "".join(chars) + "x"))
# The cells of a valid C1, C2 or C3 row, so that ids reach the output.
_VALID = st.builds(
    lambda n, vals, present: [str(n)] + [repr(v) if j in present else ""
                                         for j, v in enumerate(sorted(vals))],
    st.integers(2, 400),
    st.lists(st.floats(-1e6, 1e6), min_size=5, max_size=5),
    st.sampled_from([(0, 2, 4), (0, 1, 2, 3, 4), (1, 2, 3)]),
)


# Rows of 6 to 8 cells under a header of 7.  Lines end in \n, so that
# blocks with no quoted, short or long row are cut at commas, or in
# \r\n, so that every block goes through ``csv.reader``; chunks of 2 or
# 3 rows mix the two ways in one file.
@given(st.lists(st.tuples(_ID, st.one_of(st.lists(_CELL, min_size=5, max_size=7), _VALID)),
                min_size=1, max_size=12),
       st.sampled_from(FORMATS), st.sampled_from(CORRECTIONS), st.sampled_from(OVERRIDES),
       st.sampled_from(["\n", "\r\n"]), st.sampled_from([2, 3, 1024]))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_arbitrary_cells_one_outcome_per_row(
    tmp_path, capsys, monkeypatch, rows, fmt, correction, override, line_end, chunk_rows
):
    path = tmp_path / "fuzz.csv"
    table = [HEADER, *([sid, *cells] for sid, cells in rows)]
    text = "".join(csv_line(row, "csv") + line_end for row in table)
    path.write_text(text, newline="")
    monkeypatch.setattr(cli, "CHUNK_ROWS", chunk_rows)
    argv = ["estimate", str(path), "--format", fmt, "--correction", correction]
    if override:
        argv += ["--scenario", override]
    code, out, err = run(capsys, *argv)
    assert code == 0
    if fmt == "jsonl":
        records = [json.loads(line, parse_constant=lambda c: pytest.fail(f"{c} in output"))
                   for line in out.splitlines()]
        estimates = [[r[k] for k in ("mean", "sd", "divisor")] for r in records]
    else:
        records = list(csv.reader(io.StringIO(out, newline=""), delimiter=cli.SEPARATORS[fmt]))[1:]
        estimates = [[float(x) for x in r[2:5]] for r in records]
    errors = err.splitlines()
    assert len(records) + len(errors) == len(rows)
    lines = [re.match(r"error: line (\d+)[ :]", line).group(1) for line in errors]
    assert len(set(lines)) == len(errors)
    assert all(map(math.isfinite, sum(estimates, [])))
    assert (out, err) == reference(text, fmt, correction, override)
