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
import os
import re
import sys
from json.encoder import encode_basestring_ascii
from itertools import chain, compress, islice, repeat, zip_longest

import numpy as np

from . import tables
from .estimators import (
    DIVISORS,
    N_LIMIT,
    PIECEWISE_CUTOFF,
    SCENARIOS,
    CorrectionOrder,
    Scenario,
    check_cutoff,
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


def _parse_range(text: str) -> tuple[int, int]:
    try:
        a_s, b_s = text.split(":")
        a, b = int(a_s), int(b_s)
    except ValueError:
        raise FatalCliError(f"range must be A:B with integers, got {text!r}")
    if a < 1 or a > b:
        raise FatalCliError(f"invalid range {text!r}: need 1 <= A <= B")
    return a, b


def _check_cutoff(cutoff: int) -> None:
    try:
        check_cutoff(cutoff)
    except ValueError as exc:
        raise FatalCliError(f"--{exc}")


def _parse_cell(col: str, raw: str):
    """One cell of column ``col``: n as an int, a value as a float (NaN
    if the cell is empty).  A ValueError says why the cell is not one.
    A cell holding ``_`` is not one: ``int`` and ``float`` read it as a
    digit separator, as in Python source, but no CSV convention does."""
    raw = raw.strip()
    if col != "n" and not raw:
        return math.nan
    try:
        if "_" in raw:
            raise ValueError
        x = int(raw) if col == "n" else float(raw)
    except ValueError:
        noun = "an integer" if col == "n" else "a number"
        raise ValueError(f"{col}={raw!r} is not {noun}") from None
    if col == "n":
        if not -N_LIMIT <= x < N_LIMIT:
            raise ValueError(f"n={raw!r} is out of range")
    elif not math.isfinite(x):
        raise ValueError(f"{col}={raw!r} is not a finite number")
    return x


def _parse_column(col: str, cells, underscores: bool) -> tuple[np.ndarray, dict[int, str]]:
    """A column of a chunk read whole, with ``int`` (n, as int64) or
    ``float`` (a value, NaN for an empty cell), and its cells that do not
    parse (row -> reason).

    Two kinds of cell go through ``_parse_cell``, which gives the reason:
    a cell that reads infinite or NaN, and every cell of a column whose
    whole read raises (on a word, a whitespace-only cell or an n beyond
    int64, say) or that holds a ``_``.  ``underscores`` False says that
    no cell holds one.
    """
    try:
        if underscores and "_" in "".join(cells):
            raise ValueError
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


def _read_rows(reader, limit: int, offset: int = 0):
    """Read up to ``limit`` rows of ``reader``, which starts after line
    ``offset`` of the file; blank lines are skipped.

    Returns the rows, the physical line number of each (its last, for
    a row with a quoted line break), and why the reading stopped early
    (``line N: reason``: a ``csv.Error`` or a byte that is not UTF-8,
    the rows from that one on left out), or None.  Input is decoded with
    ``surrogateescape``, which turns a byte that is not UTF-8 into a
    lone surrogate, the only text that does not encode back to UTF-8.
    """
    rows, lines, error = [], [], None
    try:
        for row in reader:
            if not row:
                continue
            line = offset + reader.line_num
            try:
                "".join(row).encode()
            except UnicodeEncodeError as exc:
                byte = ord(exc.object[exc.start]) - 0xDC00
                error = f"line {line}: 'utf-8' codec can't decode byte 0x{byte:02x}"
                break
            rows.append(row)
            lines.append(line)
            if len(rows) == limit:
                break
    except csv.Error as exc:
        error = f"line {offset + reader.line_num}: {exc}"
    return rows, lines, error


def _splits_plainly(block: list[str], text: str, width: int) -> bool:
    """Whether the lines ``block``, joined as ``text``, read as
    ``csv.reader`` reads them when cut at each comma and line end: each
    line ends in a newline and has ``width`` cells, and none holds a
    quote, a carriage return, a NUL (which ``csv.reader`` rejects before
    Python 3.11), a field over the field size limit or a byte that is
    not UTF-8."""
    if not text.endswith("\n") or '"' in text or "\r" in text or "\0" in text:
        return False
    if set(map(str.count, block, repeat(","))) != {width - 1}:
        return False
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, block)) > limit:
        return False
    try:
        text.encode()
    except UnicodeEncodeError:
        return False
    return True


def _next_block(fh, width: int) -> tuple[list[str], str | None]:
    """The next CHUNK_ROWS lines of ``fh`` (fewer at its end), whose
    header has ``width`` columns, and their text when they split plainly
    (see :func:`_splits_plainly`), or None."""
    block = list(islice(fh, CHUNK_ROWS))
    text = "".join(block)
    return block, text if _splits_plainly(block, text, width) else None


def _full_and_plain(block: list[str], text: str | None) -> bool:
    """Whether a block of :func:`_next_block` may go to the worker."""
    return text is not None and len(block) == CHUNK_ROWS


def _read_chunk(fh, block, text, line: int, width: int, picks: list[int | None]):
    """Parse a chunk of data rows from the lines ``block`` of ``fh``, as
    :func:`_next_block` gives them with their ``text``, which start
    after line ``line`` of a file whose header has ``width`` columns and
    holds each of INPUT_COLUMNS at the index in ``picks`` (None if it
    does not).

    Lines that split plainly are cut at commas and line ends, which
    reads them as ``csv.reader`` would, and need neither ``block`` nor
    ``fh``.  Other lines go through ``csv.reader``, which reads on from
    ``fh`` for a quoted field that runs past them or for the rows of
    skipped blank lines, up to CHUNK_ROWS rows.

    Returns the physical line number and study id of each row, the
    rows whose cells do not parse (index -> reason), the n and value
    columns (n = 0 and NaN values in those rows, which the estimator
    then marks invalid), and why the reading stopped
    early, as :func:`_read_rows` gives it.  Cells missing from a short
    row are empty.  A row with a cell past the header's width that is
    not blank is an error, whose reason comes before those of its cells.
    """
    problems, error = {}, None
    if text is not None:
        cells = text.replace("\n", ",").split(",")  # ends in one empty cell
        columns = [cells[j:-1:width] for j in range(width)]
        lines = range(line + 1, line + 1 + len(cells) // width)
        underscores = "_" in text
    else:
        rows, lines, error = _read_rows(csv.reader(chain(block, fh)), CHUNK_ROWS, line)
        columns = list(zip_longest(*rows, fillvalue=""))
        underscores = True
        if len(columns) > width:
            for i, row in enumerate(rows):
                if any(map(str.strip, row[width:])):
                    problems[i] = f"row has {len(row)} cells, header has {width}"
    empty = ("",) * len(lines)
    study_ids, *cells = (empty if j is None or j >= len(columns) else columns[j] for j in picks)
    parsed = []
    for col, col_cells in zip(INPUT_COLUMNS[1:], cells):
        array, found = _parse_column(col, col_cells, underscores)
        parsed.append(array)
        for i, reason in found.items():  # a row's first failing cell gives its reason
            problems.setdefault(i, reason)
    n, values = parsed[0], np.array(parsed[1:])
    n[list(problems)], values[:, list(problems)] = 0, math.nan
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
    # Rows that are not a valid summary, which include the rows with a
    # problem (read as n = 0), are rejected before their id counts as
    # seen; rows with no estimate count.
    if "" in ids or len(set(ids)) < len(ids) or not seen_ids.isdisjoint(ids):
        for i, (study_id, skip) in enumerate(zip(ids, est.invalid.tolist())):
            if not study_id:
                errors[i] = ": empty study_id"
            elif study_id in seen_ids:
                errors[i] = f": duplicate study_id {study_id!r}"
            elif not skip:
                seen_ids.add(study_id)
    else:
        seen_ids.update(compress(ids, (~est.invalid).tolist()))
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


class _Worker:
    """A forked process that runs ``job`` on each task sent to it, one
    at a time, and sends back its result.

    It can start only where ``os.fork`` exists, the process may run on
    two CPUs or more and runs no second thread; the first :meth:`send`
    starts it.  Once a task cannot be sent, a result does not come back
    or the start fails, ``usable`` is false and stays so: the caller
    does the work itself.
    """

    def __init__(self, job):
        import threading

        self.job = job
        self.pid = None
        self.usable = (
            hasattr(os, "fork")
            and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1
        )

    def _start(self) -> None:
        import pickle
        import warnings

        self.usable = False
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            # On Python 3.12 and later, fork warns when the process has
            # a second OS thread, as numpy's OpenBLAS pool is.  OpenBLAS
            # re-initialises through its own atfork handler, and the
            # worker calls no BLAS routine.
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", r".*use of fork\(\) may lead to deadlocks",
                                        DeprecationWarning)
                pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            return
        task_in, task_out, result_in, result_out = fds
        if pid == 0:
            # Never return into the caller, nor flush the stdout buffer
            # it shares, run its exit hooks or print a traceback.
            try:
                os.close(task_out)
                os.close(result_in)
                tasks, results = open(task_in, "rb"), open(result_out, "wb")
                with contextlib.suppress(EOFError):
                    while True:
                        pickle.dump(self.job(*pickle.load(tasks)), results, pickle.HIGHEST_PROTOCOL)
                        results.flush()
            finally:
                os._exit(0)
        self.pid = pid
        os.close(task_in)
        os.close(result_out)
        self.tasks, self.results = open(task_out, "wb"), open(result_in, "rb")
        self.usable = True

    def send(self, *task) -> bool:
        """Send the worker ``task``, starting it first if need be;
        whether it took the task."""
        import pickle

        if self.usable and self.pid is None:
            self._start()
        if self.usable:
            try:
                pickle.dump(task, self.tasks, pickle.HIGHEST_PROTOCOL)
                self.tasks.flush()
            except OSError:
                self.usable = False
        return self.usable

    def receive(self):
        """The result of the task sent last, or None if the worker died."""
        import pickle

        try:
            return pickle.load(self.results)
        except (EOFError, pickle.UnpicklingError):
            self.usable = False
            return None

    def close(self) -> None:
        """End the worker and wait for it.  Both pipes close first: the
        worker may be blocked writing a result that will not be read."""
        if self.pid is None:
            return
        for pipe in (self.tasks, self.results):
            with contextlib.suppress(OSError):  # a task left in the buffer
                pipe.close()
        with contextlib.suppress(ChildProcessError):  # reaped already, as under SIGCHLD ignored
            os.waitpid(self.pid, 0)


def cmd_estimate(args) -> int:
    order = CorrectionOrder(args.correction)
    override = Scenario(args.scenario) if args.scenario else None
    _check_cutoff(args.cutoff)

    try:
        # utf-8-sig drops the byte-order mark that spreadsheets put
        # before the header, and only there.
        fh = open(args.input, newline="", encoding="utf-8-sig", errors="surrogateescape")
    except OSError as exc:
        raise FatalCliError(f"cannot read {args.input}: {exc}")
    reader = csv.reader(fh)
    with fh:
        rows, _, error = _read_rows(reader, 1)
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
        width = len(header)
        divisor_memo: dict = {}

        def run_chunk(block, text, line, seen_ids):
            """One chunk read with :func:`_read_chunk`, estimated and
            formatted: its line numbers and ids, its stdout and stderr
            text, and why the reading stopped early, or None."""
            lines, ids, problems, n, values, error = _read_chunk(fh, block, text, line, width, picks)
            out = err = ""
            if ids:
                est = estimate_columns(n, values, order, override, args.cutoff, divisor_memo)
                out, err = _chunk_output(lines, ids, problems, est, seen_ids, args.format, template)
            return lines, ids, out, err, error

        def run_plain_chunk(text, line):
            """A chunk of plain ``text`` run as if no id had been seen
            before it, which is exact when none of its ids had been: its
            ids, stdout and stderr text, and the ids it counts as seen."""
            new_ids: set[str] = set()
            _, ids, out, err, _ = run_chunk(None, text, line, new_ids)
            return ids, out, err, new_ids

        # When the block at hand and the next are full plain blocks, the
        # next goes to the worker while this one runs here.  The output
        # is written in file order, each chunk's stdout then its stderr.
        worker = _Worker(run_plain_chunk)
        seen_ids: set[str] = set()
        line = reader.line_num
        pending: list = []  # blocks read after the one at hand
        try:
            while True:
                block, text = pending.pop(0) if pending else _next_block(fh, width)
                sent = None
                if worker.usable and _full_and_plain(block, text):
                    pending = pending or [_next_block(fh, width)]
                    if _full_and_plain(*pending[0]) and worker.send(pending[0][1], line + CHUNK_ROWS):
                        sent = pending.pop(0)
                lines, ids, out, err, error = run_chunk(block, text, line, seen_ids)
                if ids:
                    sys.stdout.write(out)
                    sys.stderr.write(err)
                if error is not None:
                    raise FatalCliError(f"{args.input}: {error}")
                if len(ids) < CHUNK_ROWS:
                    break
                line = lines[-1]  # a full chunk ends on its last row's last line
                if sent is not None:
                    # While the worker runs, drop what is written and read
                    # up to two blocks ahead, but not past one that is not
                    # full and plain: for that one csv.reader reads on
                    # from fh.
                    block = text = out = err = None
                    while len(pending) < 2 and (not pending or _full_and_plain(*pending[-1])):
                        pending.append(_next_block(fh, width))
                    result = worker.receive()
                    if result is not None and seen_ids.isdisjoint(result[0]):
                        _, out, err, new_ids = result
                        sys.stdout.write(out)
                        sys.stderr.write(err)
                        seen_ids |= new_ids
                        line += CHUNK_ROWS
                    else:  # the block runs here, as any other
                        pending.insert(0, sent)
        finally:
            worker.close()
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
    """Write ``text`` to ``fh`` and close it, or only flush it if it is
    standard error, so that a failed write names the file."""
    try:
        fh.write(text)
        fh.flush() if fh is sys.stderr else fh.close()
    except OSError as exc:
        raise FatalCliError(f"cannot write {fh.name}: {exc}")


def cmd_tables(args) -> int:
    n_min, n_max = _parse_range(args.range)
    order = CorrectionOrder(args.correction)
    _check_cutoff(args.cutoff)
    kind = DIVISORS[args.which]
    table = tables.load_tables()[kind.table]
    out = sys.stdout
    out.write("n\ttable\tasymptotic\tcorrected\tresidual\n")
    for n in range(n_min, n_max + 1):
        tab = _fmt(table.value(n)) if n <= tables.N_MAX else ""
        asym = corrected = residual = ""
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

    n_min, n_max = _parse_range(args.range)
    try:
        oracle.check_range(n_min, n_max)
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
    corrections = [order.value for order in CorrectionOrder]

    p_est = sub.add_parser("estimate", help="estimate moments for each row of a CSV")
    p_est.add_argument("input", help="CSV with header study_id,n,min,q1,median,q3,max")
    p_est.add_argument("--correction", choices=corrections, default="first")
    p_est.add_argument("--scenario", choices=[sc.value for sc in SCENARIOS], default=None)
    p_est.add_argument("--cutoff", type=int, default=PIECEWISE_CUTOFF,
                       help="sample size above which corrections switch off "
                            f"(values other than {PIECEWISE_CUTOFF} are experimental)")
    p_est.add_argument("--format", choices=list(_FLAGS), default="csv")
    p_est.set_defaults(func=cmd_estimate)

    p_tab = sub.add_parser("tables", help="reference table vs. formula values")
    p_tab.add_argument("--which", choices=list(DIVISORS), default="xi")
    p_tab.add_argument("--range", default="2:50", metavar="A:B")
    p_tab.add_argument("--correction", choices=corrections, default="first")
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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except FatalCliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # stdout cannot be written: its reader has gone, as under
        # `| head`, which ends quietly, or its device is full.  Python
        # flushes stdout again at exit, so point it at devnull first.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 1
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
