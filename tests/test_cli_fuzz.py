"""Fuzz of the command line: every input ends in one JSON report.

Whatever JSON the input file holds, ``drazin --input`` prints exactly one
JSON document and exits 0 or with the exit code its error kind documents;
it never ends in kind "other" or a traceback.  Each example writes its own
temporary file and captures stdout itself, because function-scoped
fixtures are not reset between Hypothesis examples.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import event, given, settings, strategies as st

from drazin.cli import _ERROR_KINDS, main

EXIT_CODES = {kind: code for _, kind, code in _ERROR_KINDS}

rationals = st.integers() | st.from_regex(r"-?[0-9]{1,4}(/[1-9][0-9]{0,3})?", fullmatch=True)
# any text, and fractions with a zero denominator
texts = st.text() | st.from_regex(r"-?[0-9]{1,4}/0{1,4}", fullmatch=True)
leaves = st.none() | st.booleans() | st.floats() | texts | rationals
json_values = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=20,
)


@st.composite
def near_schema(draw):
    """Matrix objects with rows, cols <= 3 and arbitrary component values."""
    rows = draw(st.integers(1, 3))
    cols = draw(st.sampled_from([rows, 1, 2, 3]))
    # well-formed components only, then any text, then any JSON value, so
    # the computation and each of the parser's refusals are all reached
    component = draw(
        st.sampled_from([rationals, rationals | texts, rationals | texts | json_values])
    )
    count = draw(st.sampled_from([rows * cols, rows * cols, rows * cols + 1]))
    pair = st.lists(component, min_size=2, max_size=2)
    entries = draw(st.lists(pair, min_size=count, max_size=count))
    return {"rows": rows, "cols": cols, "entries": entries}


def run_cli(payload):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "input.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["drazin", "--input", path])
    return code, json.loads(out.getvalue())


@settings(max_examples=200, deadline=None)
@given(st.one_of(json_values, near_schema()))
def test_every_input_ends_in_one_report_with_its_exit_code(payload):
    code, report = run_cli(payload)
    event("exit %d" % code)
    if code == 0:
        assert "error" not in report and report["command"] == "drazin"
    else:
        kind = report["error"]["kind"]
        assert kind in EXIT_CODES, report["error"]
        assert code == EXIT_CODES[kind]
