"""The command line's output, byte for byte, on the golden corpus.

Each case of ``golden/manifest.json`` is run in process and must give
the exit code and the SHA-256 of stdout and stderr recorded there.  A
change that alters output on purpose rewrites the manifest with
``golden/regen.py``.
"""

import json
import os

import pytest

from golden import regen

CASES = json.loads(regen.MANIFEST.read_text())
# Their first two chunks are full, 1024 rows each, whether cut with
# str.split or, in quoted.csv, read by csv.reader: a worker runs the
# second.  The other data files have fewer than 2048 rows.
FORKING = ("estimate-csv.csv", "quoted.csv", "repeated-ids.csv")


def test_manifest_lists_every_case():
    assert [case["argv"] for case in CASES] == regen.cases()


@pytest.mark.parametrize("case", CASES, ids=[" ".join(case["argv"]) for case in CASES])
def test_output_unchanged(case, forks):
    assert regen.run(case["argv"]) == case
    if case["argv"][0] == "estimate" and case["argv"][1] in FORKING:
        assert len(forks) == 1


@pytest.mark.parametrize("name", regen.DATA_FILES)
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_one_process_writes_what_two_do(monkeypatch, forks, name, fmt):
    argv = ["estimate", name, "--format", fmt]
    two = regen.run(argv)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert regen.run(argv) == two
    assert len(forks) == (name in FORKING)
