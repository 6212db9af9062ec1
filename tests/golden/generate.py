"""Write the golden CLI cases: input files, argv lists and expected reports.

Run from the repository root as

    PYTHONPATH=src:tests python tests/golden/generate.py

It rewrites ``tests/golden/inputs/``, ``tests/golden/cases.json`` and
``tests/golden/expected/`` from fixed seeds.  ``test_golden.py`` replays
every case through ``cli.main`` and compares stdout and the exit code
byte for byte, so regenerate only when a report is meant to change, and
say so in the change log.  No case takes its message from Python itself
(JSON decoding, the ``int`` digit cap, argparse), since those vary
between versions.
"""

import contextlib
import io
import json
import os
import random
import shutil
import sys

from drazin.cli import main, matrix_to_json
from drazin.inverses import drazin_col
from drazin.matrices import CMatrix
from drazin.scalars import GaussianRational

from helpers import rand_matrix, rand_with_profile

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")
EXPECTED = os.path.join(HERE, "expected")

PROFILES = [(3, 1, 2), (4, 2, 1), (5, 2, 3), (4, 0, 3), (3, 3, 0)]


def build_inputs():
    rng = random.Random(20130128)
    mats = {}
    for n, r, k in PROFILES:
        name = "p%d%d%d" % (n, r, k)
        mats[name] = rand_with_profile(rng, n, r, k)
        mats[name + "_bcol"] = rand_matrix(rng, n, 2)
        mats[name + "_brow"] = rand_matrix(rng, 2, n)
        mats[name + "_bsq"] = rand_matrix(rng, n, n)
        mats[name + "_x"] = drazin_col(mats[name]).inverse
    # mixed p/q and Gaussian entries, singular with index 1
    mats["mixed"] = CMatrix(
        [
            ["1/2", "2/3+i", "-3/4*i"],
            ["-5/7", "1/3-2/9*i", 4],
            ["17/14", "1/3+11/9*i", "-4-3/4*i"],
        ]
    )
    mats["mixed_x"] = drazin_col(mats["mixed"]).inverse
    big = random.Random(64)
    mats["big64"] = CMatrix(
        [
            [
                GaussianRational(
                    big.randrange(-(2**63), 2**63), big.randrange(-(2**63), 2**63)
                )
                for _ in range(3)
            ]
            for _ in range(3)
        ]
    )
    mats["wide"] = CMatrix([[1, 0, 0], [0, 1, 0]])
    mats["eye11"] = CMatrix.identity(11)
    return mats


def build_cases(mats):
    cases = []

    def case(name, *argv):
        cases.append({"name": name, "argv": list(argv)})

    square = [name for name in mats if name.startswith("p") and "_" not in name]
    square += ["mixed", "big64"]
    for name in square:
        case("drazin-%s" % name, "drazin", "--input", "{%s}" % name)
        case("drazin-row-%s" % name, "drazin", "--input", "{%s}" % name, "--method", "row")
        case("ode-left-%s" % name, "ode-left", "--A", "{%s}" % name, "--B", "{%s}" % name)
        case("ode-right-%s" % name, "ode-right", "--A", "{%s}" % name, "--B", "{%s}" % name)
    for name in square[:5]:
        case("solve-ax-%s" % name, "solve-ax", "--A", "{%s}" % name, "--B", "{%s_bcol}" % name)
        case("solve-xa-%s" % name, "solve-xa", "--A", "{%s}" % name, "--B", "{%s_brow}" % name)
        case("ode-left-bsq-%s" % name, "ode-left", "--A", "{%s}" % name, "--B", "{%s_bsq}" % name)
        case("verify-true-%s" % name, "verify", "--A", "{%s}" % name, "--X", "{%s_x}" % name)
        case("verify-false-%s" % name, "verify", "--A", "{%s}" % name, "--X", "{%s_bsq}" % name)
    case("drazin-column-p523", "drazin", "--input", "{p523}", "--method", "column")
    case("drazin-oracle-p523", "drazin", "--input", "{p523}", "--method", "oracle")
    case("verify-true-mixed", "verify", "--A", "{mixed}", "--X", "{mixed_x}")
    case("group-p421", "group", "--input", "{p421}")
    case("group-p330", "group", "--input", "{p330}")
    case("group-mixed", "group", "--input", "{mixed}")
    case("group-index-p312", "group", "--input", "{p312}")
    case("group-index-p523", "group", "--input", "{p523}")
    case("solve-axb-p312-p330", "solve-axb", "--A", "{p312}", "--B", "{p330}", "--D", "{p312_bsq}")
    case("solve-axb-p421-mixed", "solve-axb", "--A", "{p421}", "--B", "{mixed}", "--D", "{mixed_x}")
    case("text-drazin-p312", "--emit", "text", "drazin", "--input", "{p312}")
    case("text-drazin-mixed", "--emit", "text", "drazin", "--input", "{mixed}")
    case("text-solve-axb", "--emit", "text", "solve-axb", "--A", "{p312}", "--B", "{p330}", "--D", "{p312_bsq}")
    case("text-ode-left-p523", "--emit", "text", "ode-left", "--A", "{p523}", "--B", "{p523_bsq}")
    case("text-ode-left-mixed", "--emit", "text", "ode-left", "--A", "{mixed}", "--B", "{mixed}")
    case("text-group-index", "--emit", "text", "group", "--input", "{p312}")
    case("shape-drazin-wide", "drazin", "--input", "{wide}")
    case("shape-group-wide", "group", "--input", "{wide}")
    case("shape-solve-axb", "solve-axb", "--A", "{p523}", "--B", "{p421}", "--D", "{p421_bcol}")
    case("shape-solve-ax", "solve-ax", "--A", "{p421}", "--B", "{p312_bcol}")
    case("shape-solve-xa", "solve-xa", "--A", "{wide}", "--B", "{p312_brow}")
    case("shape-ode-right", "ode-right", "--A", "{p312}", "--B", "{p312_bcol}")
    case("shape-verify", "verify", "--A", "{p312}", "--X", "{wide}")
    case("shape-verify-wide-a", "verify", "--A", "{wide}", "--X", "{wide}")
    case("size-default", "drazin", "--input", "{eye11}")
    case("size-verify-x", "verify", "--A", "{p312}", "--X", "{eye11}")
    case("size-option", "--max-dimension", "3", "solve-axb", "--A", "{p312}", "--B", "{p421}", "--D", "{p312_bcol}")
    case("size-option-ode", "--max-dimension", "4", "ode-left", "--A", "{p523}", "--B", "{p523_bsq}")
    case("text-size", "--emit", "text", "--max-dimension", "2", "group", "--input", "{p312}")
    return cases


def run_case(argv, paths):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([arg.format(**paths) for arg in argv])
    return code, out.getvalue()


def main_generate():
    mats = build_inputs()
    for directory in (INPUTS, EXPECTED):
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
    paths = {}
    for name, m in mats.items():
        paths[name] = os.path.join(INPUTS, name + ".json")
        with open(paths[name], "w", encoding="utf-8") as handle:
            json.dump(matrix_to_json(m), handle)
            handle.write("\n")
    os.environ.pop("DRAZIN_MAX_DIM", None)
    cases = build_cases(mats)
    for entry in cases:
        code, text = run_case(entry["argv"], paths)
        entry["exit"] = code
        with open(os.path.join(EXPECTED, entry["name"] + ".out"), "w", encoding="utf-8") as handle:
            handle.write(text)
    with open(os.path.join(HERE, "cases.json"), "w", encoding="utf-8") as handle:
        json.dump(cases, handle, indent=1)
        handle.write("\n")
    codes = sorted({entry["exit"] for entry in cases})
    print("%d cases, exit codes %s" % (len(cases), codes))


if __name__ == "__main__":
    sys.exit(main_generate())
