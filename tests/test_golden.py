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
    if case["argv"][:2] == ["estimate", "estimate-csv.csv"]:
        # Its first two 1024-line blocks split plainly: a worker runs the second.
        assert len(forks) == 1
