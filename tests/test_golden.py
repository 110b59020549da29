"""The command line's output, byte for byte, on the golden corpus.

Each case of ``golden/manifest.json`` is run in process and must give
the exit code and the SHA-256 of stdout and stderr recorded there.  A
change that alters output on purpose rewrites the manifest with
``golden/regen.py``.
"""

import json

import pytest

from golden import regen

CASES = json.loads(regen.MANIFEST.read_text())


def test_manifest_lists_every_case():
    assert [case["argv"] for case in CASES] == regen.cases()


@pytest.mark.parametrize("case", CASES, ids=[" ".join(case["argv"]) for case in CASES])
def test_output_unchanged(case, forks):
    assert regen.run(case["argv"]) == case
    if case["argv"][:2] in (["estimate", "estimate-csv.csv"], ["estimate", "quoted.csv"]):
        # Their first two chunks are full, 1024 rows each, whether cut
        # with str.split or, in quoted.csv, read by csv.reader: a worker
        # runs the second.
        assert len(forks) == 1
