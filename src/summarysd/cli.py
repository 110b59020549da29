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
from functools import partial
from itertools import compress, zip_longest

import numpy as np

from . import tables
from .estimators import (
    PIECEWISE_CUTOFF,
    SCENARIOS,
    CorrectionOrder,
    Scenario,
    blom_iqr_divisor,
    blom_range_divisor,
    estimate_columns,
    eta_hat,
    xi_hat,
)

INPUT_COLUMNS = ("study_id", "n", "min", "q1", "median", "q3", "max")
REQUIRED_COLUMNS = ("study_id", "n")
OUTPUT_COLUMNS = ("study_id", "scenario", "mean", "sd", "divisor", "correction", "degenerate")
VALUE_COLUMNS = INPUT_COLUMNS[2:]
SEPARATORS = {"csv": ",", "tsv": "\t"}

#: Data rows ``estimate`` parses, estimates and writes together; memory
#: stays bounded whatever the length of the input.
CHUNK_ROWS = 1024

# Output labels: scenario names by code, degenerate flags by format.
_SCENARIO_NAMES = np.array([sc.value for sc in SCENARIOS], dtype=object)
_FLAGS = {"csv": ("0", "1"), "tsv": ("0", "1"), "jsonl": ("false", "true")}

# Sample sizes must fit the int64 column the estimator takes.
_N_LIMIT = 2**63


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


def _parse_numbers(n_raw: str, cells) -> tuple[int, list[float]]:
    """Sample size and the five summaries of one row (NaN for an empty
    cell); a ValueError names the first cell that is not a number."""
    n_raw = n_raw.strip()
    try:
        n = int(n_raw)
    except ValueError:
        raise ValueError(f"n={n_raw!r} is not an integer") from None
    if not -_N_LIMIT <= n < _N_LIMIT:
        raise ValueError(f"n={n_raw!r} is out of range")
    values = []
    for col, raw in zip(VALUE_COLUMNS, cells):
        raw = raw.strip()
        if not raw:
            values.append(math.nan)
            continue
        try:
            x = float(raw)
        except ValueError:
            raise ValueError(f"{col}={raw!r} is not a number") from None
        if not math.isfinite(x):
            raise ValueError(f"{col}={raw!r} is not a finite number")
        values.append(x)
    return n, values


def _parse_rows(n_col, cell_cols):
    """The n and value columns of a chunk, parsed one row at a time by
    ``_parse_numbers``, and the rows that do not parse (index -> reason;
    n = 2 and NaN values stand in for them)."""
    problems, ns, values = {}, [], []
    for i, (n_raw, *cells) in enumerate(zip(n_col, *cell_cols)):
        try:
            n, vals = _parse_numbers(n_raw, cells)
        except ValueError as exc:
            problems[i] = str(exc)
            n, vals = 2, [math.nan] * len(VALUE_COLUMNS)
        ns.append(n)
        values.extend(vals)
    cols = np.array(values, dtype=float).reshape(-1, len(VALUE_COLUMNS)).T
    return np.array(ns, dtype=np.int64), cols, problems


def _parse_columns(n_col, cell_cols):
    """``_parse_rows`` one column at a time.

    Raises ValueError or OverflowError if a cell is not a number as it
    stands (whitespace-only, say) or n does not fit int64; the caller
    then parses the chunk by rows.  Rows with a non-finite cell are
    re-parsed by ``_parse_rows``, which gives their reason.
    """
    n = np.array(list(map(int, n_col)), dtype=np.int64)
    nan = math.nan
    values = np.array([[float(x) if x else nan for x in col] for col in cell_cols])
    suspect = np.isinf(values).any(axis=0)
    for col, parsed in zip(cell_cols, values):
        missing = np.isnan(parsed)
        if missing.sum() != col.count(""):  # a cell reads nan
            suspect |= missing & np.array([x != "" for x in col])
    problems = {}
    if suspect.any():
        rows = np.flatnonzero(suspect)
        picked = rows.tolist()
        n[rows], values[:, rows], found = _parse_rows(
            [n_col[i] for i in picked], [[col[i] for i in picked] for col in cell_cols]
        )
        problems = {picked[j]: msg for j, msg in found.items()}
    return n, values, problems


def _read_chunk(reader, header: list[str]):
    """Read and parse up to CHUNK_ROWS data rows of ``reader``.

    Returns the physical line number and study id of each row, the
    rows whose cells do not parse (index -> reason), the n and value
    columns (placeholders for those rows), and the ``csv.Error`` that
    stopped the reading early, or None.  Blank lines are skipped; cells
    missing from a short row are empty.
    """
    rows, lines, error = [], [], None
    try:
        for row in reader:
            if row:
                rows.append(row)
                lines.append(reader.line_num)
                if len(rows) == CHUNK_ROWS:
                    break
    except csv.Error as exc:
        error = exc
    width = len(header)
    where = {name: i for i, name in enumerate(header)}
    # Pad to ``width`` columns plus one empty column at index ``width``,
    # which the columns absent from the header read.
    columns = list(zip_longest(*rows, fillvalue=""))[:width]
    columns += [("",) * len(rows)] * (width + 1 - len(columns))
    study_ids, n_col, *cell_cols = (columns[where.get(col, width)] for col in INPUT_COLUMNS)
    try:
        n, values, problems = _parse_columns(n_col, cell_cols)
    except (ValueError, OverflowError):
        n, values, problems = _parse_rows(n_col, cell_cols)
    return lines, list(map(str.strip, study_ids)), problems, n, values, error


@contextlib.contextmanager
def _csv_errors_fatal(path, reader):
    """Make a ``csv.Error``, such as an over-long cell, fatal."""
    try:
        yield
    except csv.Error as exc:
        raise FatalCliError(f"{path}: line {reader.line_num}: {exc}") from None


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

    Adds the ids that now count as seen to ``seen_ids``.  A chunk whose
    ids are all present, distinct and unseen is written in one pass;
    any other chunk by ``_output_by_row``.
    """
    errors = {**est.errors, **problems}
    # Rows that are not a valid summary are rejected before their id
    # counts as seen; rows with no estimate count.
    rejected = {i for i in errors if i in problems or est.invalid[i]}
    encoded = _encode_ids(ids, fmt)
    distinct = set(ids)
    if "" in distinct or len(distinct) < len(ids) or not seen_ids.isdisjoint(distinct):
        return _output_by_row(lines, ids, encoded, errors, rejected, est, seen_ids, template, fmt)
    seen_ids.update(distinct)
    seen_ids.difference_update(ids[i] for i in rejected)
    err = [f"error: line {lines[i]} ({_shown_id(ids[i])}): {errors[i]}\n" for i in sorted(errors)]
    keep = np.ones(len(ids), dtype=bool)
    keep[list(errors)] = False
    rows = zip(
        compress(encoded, keep.tolist()),
        _SCENARIO_NAMES[est.scenario[keep]],
        est.mean[keep].tolist(),
        est.sd[keep].tolist(),
        est.divisor[keep].tolist(),
        np.array(_FLAGS[fmt], dtype=object)[est.degenerate[keep].view(np.int8)],
    )
    return "".join(map(template.__mod__, rows)), "".join(err)


def _output_by_row(lines, ids, encoded, errors, rejected, est, seen_ids, template, fmt):
    """``_chunk_output`` one row at a time, for chunks with an empty,
    repeated or already seen id."""
    flags = _FLAGS[fmt]
    out, err = [], []
    for i, (line, study_id, code, mean, sd, divisor, degenerate) in enumerate(zip(
        lines, ids, est.scenario.tolist(), est.mean.tolist(), est.sd.tolist(),
        est.divisor.tolist(), est.degenerate.tolist(),
    )):
        if not study_id:
            err.append(f"error: line {line}: empty study_id\n")
        elif study_id in seen_ids:
            err.append(f"error: line {line}: duplicate study_id {study_id!r}\n")
        else:
            if i not in rejected:
                seen_ids.add(study_id)
            if i in errors:
                err.append(f"error: line {line} ({_shown_id(study_id)}): {errors[i]}\n")
            else:
                out.append(template % (
                    encoded[i], _SCENARIO_NAMES[code], mean, sd, divisor, flags[degenerate],
                ))
    return "".join(out), "".join(err)


def cmd_estimate(args) -> int:
    order = CorrectionOrder(args.correction)
    override = Scenario(args.scenario) if args.scenario else None
    _check_cutoff(args.cutoff, order)

    try:
        fh = open(args.input, newline="")
    except OSError as exc:
        raise FatalCliError(f"cannot read {args.input}: {exc}")
    reader = csv.reader(fh)
    with fh, _csv_errors_fatal(args.input, reader):
        header = next(reader, None)
        if header is None:
            raise FatalCliError(f"{args.input}: empty file, header row required")
        unknown = [c for c in header if c not in INPUT_COLUMNS]
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if unknown or missing:
            parts = []
            if unknown:
                parts.append(f"unknown columns {unknown}")
            if missing:
                parts.append(f"missing required columns {missing}")
            raise FatalCliError(
                f"{args.input}: malformed header ({'; '.join(parts)}); "
                f"expected a subset of {list(INPUT_COLUMNS)}"
            )

        if args.format != "jsonl":
            sys.stdout.write(SEPARATORS[args.format].join(OUTPUT_COLUMNS) + "\n")
        template = _row_template(args.format, order)
        seen_ids: set[str] = set()
        divisor_memo: dict = {}
        while True:
            lines, ids, problems, n, values, error = _read_chunk(reader, header)
            if ids:
                est = estimate_columns(n, values, order, override, args.cutoff, divisor_memo)
                out, err = _chunk_output(lines, ids, problems, est, seen_ids, args.format, template)
                sys.stdout.write(out)
                sys.stderr.write(err)
            if error is not None:
                raise error
            if len(ids) < CHUNK_ROWS:
                break
    return 0


def cmd_tables(args) -> int:
    n_min, n_max = _parse_range(args.range, lo=1)
    order = CorrectionOrder(args.correction)
    _check_cutoff(args.cutoff, order)
    xi_tab, eta_tab = tables.load_tables()
    if args.which == "xi":
        tab_values, asymptotic = xi_tab, blom_range_divisor
        divisor = partial(xi_hat, cutoff=args.cutoff)
    else:
        tab_values, asymptotic = eta_tab, blom_iqr_divisor
        divisor = partial(eta_hat, order=order, cutoff=args.cutoff)
    out = sys.stdout
    out.write("n\ttable\tasymptotic\tcorrected\tresidual\n")
    for n in range(n_min, n_max + 1):
        tab = _fmt(tab_values.value(n)) if n <= tables.N_MAX else ""
        asym = corrected = residual = ""
        if n >= 2:
            # The cells of a divisor that n does not have stay empty.
            with contextlib.suppress(ValueError):
                asym = _fmt(asymptotic(n))
                value = divisor(n)
                corrected = _fmt(value)
                residual = _fmt(float(tab) - value) if tab else ""
        out.write(f"{n}\t{tab}\t{asym}\t{corrected}\t{residual}\n")
    return 0


def cmd_refit(args) -> int:
    from . import refit

    if args.kind == "delta":
        if args.order == "second":
            raise FatalCliError("--order second applies to the epsilon fit only")
        series = refit.residual_series(refit.ResidualKind.DELTA)
        fit = refit.fit_delta(series)
    else:
        series = refit.residual_series(refit.ResidualKind.EPSILON)
        if args.order == "second":
            fit = refit.fit_epsilon_quadratic(series)
        else:
            fit = refit.fit_epsilon_linear(series)
    print(fit.format_summary())
    if args.emit_series:
        with open(args.emit_series, "w") as fh:
            fh.write("n\tresidual\n")
            for n, v in zip(series.ns, series.values):
                fh.write(f"{n}\t{_fmt(float(v))}\n")
    return 0


def cmd_oracle(args) -> int:
    from . import oracle

    n_min, n_max = _parse_range(args.range, lo=2)
    if n_max > tables.N_MAX:
        raise FatalCliError(f"oracle range limited to n <= {tables.N_MAX}")
    cfg_q = oracle.QuadratureConfig()
    cfg_mc = oracle.McConfig(
        replications=args.reps, seed=args.seed, chunk_size=args.chunk_size
    )
    if args.convention == "all":
        conventions = tuple(oracle.QuantileConvention)
    else:
        try:
            conventions = (oracle.QuantileConvention(args.convention),)
        except ValueError:
            names = [c.value for c in oracle.QuantileConvention] + ["all"]
            raise FatalCliError(f"--convention must be one of {names}, got {args.convention!r}")
    result = oracle.regenerate_tables(
        cfg_q, cfg_mc, n_min, n_max, which=args.which, conventions=conventions
    )
    for line in result.fixture_lines():
        print(line)
    report = "\n".join(result.report_lines()) + "\n"
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report)
    else:
        sys.stderr.write(report)
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
    # the oracle (and scipy) for the other subcommands.
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
