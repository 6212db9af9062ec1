"""Byte-identical CLI reports against committed golden output.

``golden/cases.json`` lists argv lists over the matrix files in
``golden/inputs``; ``golden/expected`` holds the stdout each one printed
when the cases were generated (``golden/generate.py``).  Every case runs
in-process through ``cli.main``, and both stdout and the exit code must
match byte for byte.
"""

import json
import os

import pytest

from drazin.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
INPUTS = os.path.join(GOLDEN, "inputs")

with open(os.path.join(GOLDEN, "cases.json"), encoding="utf-8") as _handle:
    CASES = json.load(_handle)

PATHS = {
    name[: -len(".json")]: os.path.join(INPUTS, name)
    for name in os.listdir(INPUTS)
    if name.endswith(".json")
}


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_report_is_byte_identical(capsys, monkeypatch, case):
    monkeypatch.delenv("DRAZIN_MAX_DIM", raising=False)
    with open(
        os.path.join(GOLDEN, "expected", case["name"] + ".out"), encoding="utf-8"
    ) as handle:
        expected = handle.read()
    code = main([arg.format(**PATHS) for arg in case["argv"]])
    assert capsys.readouterr().out == expected
    assert code == case["exit"]

