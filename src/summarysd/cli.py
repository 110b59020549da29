"""Command-line front end.

Subcommands: ``estimate`` (CSV of study summaries -> moment estimates),
``tables`` (reference values vs. formulas), ``refit`` (re-derive the
correction coefficients), ``oracle`` (regenerate the tables
numerically).  All output is deterministic given identical inputs,
flags and seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import re
import sys
from json.encoder import encode_basestring_ascii
from itertools import compress, zip_longest

import numpy as np

from . import tables
from .estimators import (
    DIVISORS,
    N_LIMIT,
    PIECEWISE_CUTOFF,
    SCENARIOS,
    CorrectionOrder,
    Scenario,
    estimate_columns,
)

INPUT_COLUMNS = ("study_id", "n", "min", "q1", "median", "q3", "max")
REQUIRED_COLUMNS = ("study_id", "n")
OUTPUT_COLUMNS = ("study_id", "scenario", "mean", "sd", "divisor", "correction", "degenerate")
SEPARATORS = {"csv": ",", "tsv": "\t"}

#: Data rows ``estimate`` parses, estimates and writes together, which
#: bounds each chunk's working memory.  The duplicate-id check keeps
#: every accepted id, about 100 bytes for an 8-character one.
CHUNK_ROWS = 1024

# Output labels: scenario names by code, degenerate flags by format.
_SCENARIO_NAMES = np.array([sc.value for sc in SCENARIOS], dtype=object)
_FLAGS = {"csv": ("0", "1"), "tsv": ("0", "1"), "jsonl": ("false", "true")}


class FatalCliError(Exception):
    """Unrecoverable problem: bad file, malformed header, bad usage."""


def _fmt(x: float) -> str:
    return format(x, ".6g")


def _parse_range(text: str, lo: int = 1) -> tuple[int, int]:
    try:
        a_s, b_s = text.split(":")
        a, b = int(a_s), int(b_s)
    except ValueError:
        raise FatalCliError(f"range must be A:B with integers, got {text!r}")
    if a < lo or a > b:
        raise FatalCliError(f"invalid range {text!r}: need {lo} <= A <= B")
    return a, b


def _check_cutoff(cutoff: int, order: CorrectionOrder) -> None:
    if cutoff < 2:
        raise FatalCliError(f"--cutoff must be >= 2, got {cutoff}")
    if order is CorrectionOrder.SECOND and cutoff > PIECEWISE_CUTOFF:
        raise FatalCliError(
            f"--correction second is defined for n <= {PIECEWISE_CUTOFF}, "
            f"so --cutoff must not exceed it, got {cutoff}"
        )


def _parse_cell(col: str, raw: str):
    """One cell of column ``col``: n as an int, a value as a float (NaN
    if the cell is empty).  A ValueError says why the cell is not one."""
    raw = raw.strip()
    if col == "n":
        try:
            n = int(raw)
        except ValueError:
            raise ValueError(f"n={raw!r} is not an integer") from None
        if not -N_LIMIT <= n < N_LIMIT:
            raise ValueError(f"n={raw!r} is out of range")
        return n
    if not raw:
        return math.nan
    try:
        x = float(raw)
    except ValueError:
        raise ValueError(f"{col}={raw!r} is not a number") from None
    if not math.isfinite(x):
        raise ValueError(f"{col}={raw!r} is not a finite number")
    return x


def _parse_column(col: str, cells) -> tuple[np.ndarray, dict[int, str]]:
    """A column of a chunk read whole, with ``int`` (n, as int64) or
    ``float`` (a value, NaN for an empty cell), and its cells that do not
    parse (row -> reason).

    Two kinds of cell go through ``_parse_cell``, which gives the reason:
    a cell that reads infinite or NaN, and every cell of a column whose
    whole read raises (on a word, a whitespace-only cell or an n beyond
    int64, say).
    """
    try:
        if col == "n":
            return np.array(list(map(int, cells)), dtype=np.int64), {}
        nan = math.nan
        parsed = np.array([float(x) if x else nan for x in cells])
        redo = [i for i in np.flatnonzero(~np.isfinite(parsed)).tolist() if cells[i]]
    except (ValueError, OverflowError):
        parsed = np.zeros(len(cells), dtype=np.int64 if col == "n" else float)
        redo = range(len(cells))
    problems = {}
    for i in redo:
        try:
            parsed[i] = _parse_cell(col, cells[i])
        except ValueError as exc:
            problems[i] = str(exc)
    return parsed, problems


def _read_rows(reader, limit: int):
    """Read up to ``limit`` rows of ``reader``; blank lines are skipped.

    Returns the rows, the physical line number of each, their cells
    transposed into columns (short rows padded with empty cells), and
    why the reading stopped early (``line N: reason``: a ``csv.Error``
    or a byte that is not UTF-8, the rows from that one on left out), or
    None.  Input is decoded with ``surrogateescape``, which turns a byte
    that is not UTF-8 into a lone surrogate, the only text that does not
    encode back to UTF-8; one check covers the whole read.
    """
    rows, lines, error = [], [], None
    try:
        for row in reader:
            if row:
                rows.append(row)
                lines.append(reader.line_num)
                if len(rows) == limit:
                    break
    except csv.Error as exc:
        error = f"line {reader.line_num}: {exc}"
    columns = list(zip_longest(*rows, fillvalue=""))
    try:
        "".join(map("".join, columns)).encode()
    except UnicodeEncodeError:
        for bad, row in enumerate(rows):
            try:
                "".join(row).encode()
            except UnicodeEncodeError as exc:
                byte = ord(exc.object[exc.start]) - 0xDC00
                error = f"line {lines[bad]}: 'utf-8' codec can't decode byte 0x{byte:02x}"
                break
        rows, lines = rows[:bad], lines[:bad]
        columns = [col[:bad] for col in columns]
    return rows, lines, columns, error


def _read_chunk(reader, width: int, picks: list[int | None]):
    """Read and parse up to CHUNK_ROWS data rows of ``reader``, whose
    header has ``width`` columns and holds each of INPUT_COLUMNS at the
    index in ``picks`` (None if it does not).

    Returns the physical line number and study id of each row, the
    rows whose cells do not parse (index -> reason), the n and value
    columns (placeholders for those rows), and why the reading stopped
    early, as :func:`_read_rows` gives it.  Cells missing from a short
    row are empty.  A row with a cell past the header's width that is
    not blank is an error, whose reason comes before those of its cells.
    """
    rows, lines, columns, error = _read_rows(reader, CHUNK_ROWS)
    problems = {}
    if len(columns) > width:
        for i, row in enumerate(rows):
            if any(map(str.strip, row[width:])):
                problems[i] = f"row has {len(row)} cells, header has {width}"
    empty = ("",) * len(rows)
    study_ids, *cells = (empty if j is None or j >= len(columns) else columns[j] for j in picks)
    parsed = []
    for col, col_cells in zip(INPUT_COLUMNS[1:], cells):
        array, found = _parse_column(col, col_cells)
        parsed.append(array)
        for i, reason in found.items():  # a row's first failing cell gives its reason
            problems.setdefault(i, reason)
    n, values = parsed[0], np.array(parsed[1:])
    n[list(problems)], values[:, list(problems)] = 2, math.nan
    return lines, list(map(str.strip, study_ids)), problems, n, values, error


def _row_template(fmt: str, order: CorrectionOrder) -> str:
    """printf-style template of one output row; its fields are the
    encoded study id, scenario, mean, SD, divisor and degenerate flag."""
    if fmt == "jsonl":
        # What json.dumps writes for the record, floats by repr.
        return (
            '{"study_id": %s, "scenario": "%s", "mean": %r, "sd": %r, '
            f'"divisor": %r, "correction": "{order.value}", "degenerate": %s}}\n'
        )
    return SEPARATORS[fmt].join(["%s", "%s", "%.6g", "%.6g", "%.6g", order.value, "%s"]) + "\n"


def _encode_ids(ids: list[str], fmt: str) -> list[str]:
    """Study ids as written in output rows: JSON strings, or fields that
    are quoted as ``csv.writer`` quotes them by default, when they hold
    the separator, a quote or a line break."""
    if fmt == "jsonl":
        return list(map(encode_basestring_ascii, ids))
    special = re.compile(f'[{SEPARATORS[fmt]}"\r\n]')
    if not special.search("".join(ids)):
        return ids
    return ['"' + s.replace('"', '""') + '"' if special.search(s) else s for s in ids]


def _shown_id(study_id: str) -> str:
    """A study id as an ``error:`` line names it: by repr if it holds a
    character that is not printable, such as a line break."""
    return study_id if study_id.isprintable() else repr(study_id)


def _chunk_output(lines, ids, problems, est, seen_ids, fmt, template) -> tuple[str, str]:
    """Output rows and ``error:`` lines of one chunk, in row order.

    Adds the ids that now count as seen to ``seen_ids``.  An empty or
    already seen id is the row's error, in place of any other.
    """
    errors = {
        i: f" ({_shown_id(ids[i])}): {reason}" for i, reason in {**est.errors, **problems}.items()
    }
    # Rows that are not a valid summary are rejected before their id
    # counts as seen; rows with no estimate count.
    rejected = {i for i in errors if i in problems or est.invalid[i]}
    for i, study_id in enumerate(ids):
        if not study_id:
            errors[i] = ": empty study_id"
        elif study_id in seen_ids:
            errors[i] = f": duplicate study_id {study_id!r}"
        elif i not in rejected:
            seen_ids.add(study_id)
    keep = np.ones(len(ids), dtype=bool)
    keep[list(errors)] = False
    rows = zip(
        compress(_encode_ids(ids, fmt), keep.tolist()),
        _SCENARIO_NAMES[est.scenario[keep]],
        est.mean[keep].tolist(),
        est.sd[keep].tolist(),
        est.divisor[keep].tolist(),
        np.array(_FLAGS[fmt], dtype=object)[est.degenerate[keep].view(np.int8)],
    )
    err = "".join(f"error: line {lines[i]}{errors[i]}\n" for i in sorted(errors))
    return "".join(map(template.__mod__, rows)), err


def cmd_estimate(args) -> int:
    order = CorrectionOrder(args.correction)
    override = Scenario(args.scenario) if args.scenario else None
    _check_cutoff(args.cutoff, order)

    try:
        # utf-8-sig drops the byte-order mark that spreadsheets put
        # before the header, and only there.
        fh = open(args.input, newline="", encoding="utf-8-sig", errors="surrogateescape")
    except OSError as exc:
        raise FatalCliError(f"cannot read {args.input}: {exc}")
    reader = csv.reader(fh)
    with fh:
        rows, _, _, error = _read_rows(reader, 1)
        if error is not None:
            raise FatalCliError(f"{args.input}: {error}")
        if not rows:
            raise FatalCliError(f"{args.input}: empty file, header row required")
        header = rows[0]
        faults = {
            "unknown columns": [c for c in header if c not in INPUT_COLUMNS],
            "repeated columns": [c for c in dict.fromkeys(header) if header.count(c) > 1],
            "missing required columns": [c for c in REQUIRED_COLUMNS if c not in header],
        }
        parts = [f"{fault} {cols}" for fault, cols in faults.items() if cols]
        if parts:
            raise FatalCliError(
                f"{args.input}: malformed header ({'; '.join(parts)}); "
                f"expected a subset of {list(INPUT_COLUMNS)}"
            )
        picks = [header.index(col) if col in header else None for col in INPUT_COLUMNS]

        if args.format != "jsonl":
            sys.stdout.write(SEPARATORS[args.format].join(OUTPUT_COLUMNS) + "\n")
        template = _row_template(args.format, order)
        seen_ids: set[str] = set()
        divisor_memo: dict = {}
        while True:
            lines, ids, problems, n, values, error = _read_chunk(reader, len(header), picks)
            if ids:
                est = estimate_columns(n, values, order, override, args.cutoff, divisor_memo)
                out, err = _chunk_output(lines, ids, problems, est, seen_ids, args.format, template)
                sys.stdout.write(out)
                sys.stderr.write(err)
            if error is not None:
                raise FatalCliError(f"{args.input}: {error}")
            if len(ids) < CHUNK_ROWS:
                break
    return 0


def _open_output(path: str | None, default=None):
    """``path`` opened for writing, or ``default`` wrapped as a context
    manager when no path is given.  Commands open their output files
    before they print, so that a path that cannot be written stops the
    run with no output."""
    if path is None:
        return contextlib.nullcontext(default)
    try:
        return open(path, "w")
    except OSError as exc:
        raise FatalCliError(f"cannot write {path}: {exc}")


def _write_output(fh, text: str) -> None:
    try:
        fh.write(text)
        fh.flush()
    except OSError as exc:
        raise FatalCliError(f"cannot write {fh.name}: {exc}")


def cmd_tables(args) -> int:
    n_min, n_max = _parse_range(args.range, lo=1)
    order = CorrectionOrder(args.correction)
    _check_cutoff(args.cutoff, order)
    kind = DIVISORS[args.which]
    table = tables.load_tables()[kind.table]
    out = sys.stdout
    out.write("n\ttable\tasymptotic\tcorrected\tresidual\n")
    for n in range(n_min, n_max + 1):
        tab = _fmt(table.value(n)) if n <= tables.N_MAX else ""
        asym = corrected = residual = ""
        if n >= 2:
            # The cells of a divisor that n does not have stay empty.
            with contextlib.suppress(ValueError):
                asym = _fmt(kind.asymptotic(n))
                value = kind.corrected(n, order, args.cutoff)
                corrected = _fmt(value)
                residual = _fmt(float(tab) - value) if tab else ""
        out.write(f"{n}\t{tab}\t{asym}\t{corrected}\t{residual}\n")
    return 0


def cmd_refit(args) -> int:
    from . import refit

    fits = {
        ("delta", "first"): refit.fit_delta,
        ("epsilon", "first"): refit.fit_epsilon_linear,
        ("epsilon", "second"): refit.fit_epsilon_quadratic,
    }
    if (args.kind, args.order) not in fits:
        raise FatalCliError("--order second applies to the epsilon fit only")
    series = refit.residual_series(refit.ResidualKind(args.kind))
    fit = fits[args.kind, args.order](series)
    with _open_output(args.emit_series) as series_out:
        print(fit.format_summary())
        if series_out is not None:
            rows = (f"{n}\t{_fmt(float(v))}\n" for n, v in zip(series.ns, series.values))
            _write_output(series_out, "n\tresidual\n" + "".join(rows))
    return 0


def cmd_oracle(args) -> int:
    from . import oracle

    n_min, n_max = _parse_range(args.range, lo=2)
    if n_max > tables.N_MAX:
        raise FatalCliError(f"oracle range limited to n <= {tables.N_MAX}")
    try:
        cfg_mc = oracle.McConfig(replications=args.reps, seed=args.seed, chunk_size=args.chunk_size)
    except ValueError as exc:
        raise FatalCliError(str(exc))
    if args.convention == "all":
        conventions = tuple(oracle.QuantileConvention)
    else:
        try:
            conventions = (oracle.QuantileConvention(args.convention),)
        except ValueError:
            names = [c.value for c in oracle.QuantileConvention] + ["all"]
            raise FatalCliError(f"--convention must be one of {names}, got {args.convention!r}")
    with _open_output(args.report, sys.stderr) as report:
        result = oracle.regenerate_tables(
            cfg_mc, n_min, n_max, which=args.which, conventions=conventions
        )
        for line in result.fixture_lines():
            print(line)
        _write_output(report, "\n".join(result.report_lines()) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="summarysd",
        description=(
            "Estimate sample mean and SD from non-parametric study summaries "
            "(median, range, quartiles) with small-sample divisor corrections."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate moments for each row of a CSV")
    p_est.add_argument("input", help="CSV with header study_id,n,min,q1,median,q3,max")
    p_est.add_argument("--correction", choices=["none", "first", "second"], default="first")
    p_est.add_argument("--scenario", choices=["c1", "c2", "c3"], default=None)
    p_est.add_argument("--cutoff", type=int, default=PIECEWISE_CUTOFF,
                       help="sample size above which corrections switch off "
                            "(values other than 50 are experimental)")
    p_est.add_argument("--format", choices=["csv", "tsv", "jsonl"], default="csv")
    p_est.set_defaults(func=cmd_estimate)

    p_tab = sub.add_parser("tables", help="reference table vs. formula values")
    p_tab.add_argument("--which", choices=["xi", "eta"], default="xi")
    p_tab.add_argument("--range", default="2:50", metavar="A:B")
    p_tab.add_argument("--correction", choices=["none", "first", "second"], default="first")
    p_tab.add_argument("--cutoff", type=int, default=PIECEWISE_CUTOFF)
    p_tab.set_defaults(func=cmd_tables)

    p_fit = sub.add_parser("refit", help="re-derive correction coefficients")
    p_fit.add_argument("--kind", choices=["epsilon", "delta"], required=True)
    p_fit.add_argument("--order", choices=["first", "second"], default="first")
    p_fit.add_argument("--emit-series", metavar="PATH", default=None,
                       help="write the residual series as TSV")
    p_fit.set_defaults(func=cmd_refit)

    p_or = sub.add_parser("oracle", help="regenerate divisor tables numerically")
    p_or.add_argument("--which", choices=["xi", "eta", "both"], default="both")
    p_or.add_argument("--range", default="2:50", metavar="A:B")
    p_or.add_argument("--reps", type=int, default=100_000)
    p_or.add_argument("--seed", type=int, default=0)
    p_or.add_argument("--chunk-size", type=int, default=100_000)
    # Checked by cmd_oracle, so that building the parser does not import
    # the oracle for the other subcommands.
    p_or.add_argument("--convention", default="all",
                      help="quartile convention of the Monte Carlo IQR oracle, or all")
    p_or.add_argument("--report", metavar="PATH", default=None,
                      help="write the deviation sidecar here instead of stderr")
    p_or.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FatalCliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
