"""Rewrite ``manifest.json``: the command-line cases of the golden corpus
with the SHA-256 of their stdout and stderr and their exit code.

Run from the repository root as ``PYTHONPATH=src python tests/golden/regen.py``.
``tests/test_golden.py`` runs every case again and compares:
``pytest tests/test_golden.py`` is the check that no case moved, and
each failing test id is the argv of a case whose exit code or hashes
moved.  A change that alters output on purpose regenerates the manifest
and names the cases whose hashes moved.

The input files are checked in, not generated, so that a new numpy
``Generator`` stream cannot change them:

- ``estimate-csv.csv``: the first 3000 rows of the seed-7
  ``estimate-csv`` table of ``perfbench/inputs.py``;
- ``wide-n.csv``: the first 2000 rows of the seed-7
  ``estimate-jsonl-wide-n`` table, its 10 non-finite rows included;
- ``mixed.csv``: ``mixed_rows(seed=2023, count=2000)`` of
  ``tests/test_columnar.py``;
- ``crlf.csv``: the first 1500 rows of ``estimate-csv.csv`` with
  ``\r\n`` line ends and no final line end;
- ``quoted.csv``: the first 2500 rows of ``estimate-csv.csv`` with a
  quoted id holding a line break on physical lines 1025 and 1026, which
  ends the first 1024-line block inside a quoted field; an n of ``x`` on
  line 1503, in a quote-free block; and, in the block after that, a
  quoted id holding a comma and a doubled quote on line 2103 and an n of
  ``2.5`` on line 2203;
- ``repeated-ids.csv``: the first 3000 rows of ``estimate-csv.csv`` with
  ids that repeat one seen before: within the first chunk (line 302)
  and the second (line 1802), from the first chunk in the second (line
  1102), from the second in the third (line 2602) and on a row with
  n = 1 (line 2002); the id of an earlier row with n = 1 (line 402),
  which does not count as seen, again on a valid row (line 2202); and
  an empty id (line 2902);
- files that stop ``estimate``: an empty file, one of blank lines, an
  unknown header column, a byte that is not UTF-8 in the header and in
  the second chunk, and a 200 000-character cell.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from summarysd import cli

GOLDEN = Path(__file__).resolve().parent
MANIFEST = GOLDEN / "manifest.json"

DATA_FILES = (
    "estimate-csv.csv", "wide-n.csv", "mixed.csv", "crlf.csv", "quoted.csv", "repeated-ids.csv",
)
FATAL_FILES = (
    "empty.csv",
    "blank-lines.csv",
    "unknown-column.csv",
    "bad-byte-header.csv",
    "bad-byte-later-chunk.csv",
    "long-cell.csv",
)
CORRECTIONS = ("none", "first", "second")


def cases() -> list[list[str]]:
    """The argv of every case, file paths relative to this directory."""
    argvs = []
    for name in DATA_FILES:
        for fmt in ("csv", "tsv", "jsonl"):
            for correction in CORRECTIONS:
                argvs.append(["estimate", name, "--format", fmt, "--correction", correction])
        argvs.append(["estimate", name, "--scenario", "c2"])
        argvs.append(["estimate", name, "--correction", "second", "--cutoff", "30"])
    argvs += [["estimate", name] for name in FATAL_FILES]
    for which in ("xi", "eta"):
        for correction in CORRECTIONS:
            argvs.append(["tables", "--which", which, "--range", "1:60", "--correction", correction])
    argvs += [
        ["refit", "--kind", "delta"],
        ["refit", "--kind", "epsilon"],
        ["refit", "--kind", "epsilon", "--order", "second"],
        ["oracle", "--which", "xi"],
        ["oracle", "--which", "both", "--reps", "10000", "--range", "2:6"],
    ]
    return argvs


def run(argv: list[str]) -> dict:
    """One case run in process from this directory: its argv, exit code
    and the SHA-256 of its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return {
        "argv": argv,
        "exit": code,
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


def main() -> None:
    records = [run(argv) for argv in cases()]
    MANIFEST.write_text("[\n" + ",\n".join(map(json.dumps, records)) + "\n]\n")
    print(f"wrote {len(records)} cases to {MANIFEST}")


if __name__ == "__main__":
    main()
