"""End-to-end tests for the command-line interface."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from drazin.cli import (
    EXIT_DIMENSION,
    EXIT_GROUP_INDEX,
    EXIT_OTHER,
    EXIT_PARSE,
    EXIT_SHAPE,
    main,
    matrix_from_json,
    matrix_to_json,
)
from drazin.matrices import CMatrix

from helpers import (
    A_IDX2,
    B_GRP,
    D_RHS,
    GOLD_SOLVE_AX,
    GOLD_SOLVE_AXB,
    rand_matrix,
    rand_with_profile,
)

import random


def write_matrix(path, matrix):
    path.write_text(json.dumps(matrix_to_json(matrix)))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def files(tmp_path):
    return {
        "A": write_matrix(tmp_path / "A.json", A_IDX2),
        "B": write_matrix(tmp_path / "B.json", B_GRP),
        "D": write_matrix(tmp_path / "D.json", D_RHS),
    }


def test_schema_round_trip():
    rng = random.Random(71)
    for _ in range(5):
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        again = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
        assert again == m


def test_schema_accepts_ints_and_fraction_strings():
    m = matrix_from_json(
        {"rows": 1, "cols": 2, "entries": [[1, "-1/2"], ["3", 0]]}
    )
    assert m == CMatrix([["1-1/2*i", 3]])


@pytest.mark.parametrize(
    "payload",
    [
        [],
        {"rows": 1, "cols": 1},
        {"rows": 0, "cols": 1, "entries": []},
        {"rows": 1, "cols": 1, "entries": [[1]]},
        {"rows": 1, "cols": 1, "entries": [[1, 2, 3]]},
        {"rows": 1, "cols": 1, "entries": [[1.5, 0]]},
        {"rows": 1, "cols": 1, "entries": [["1/0", 0]]},
        {"rows": 2, "cols": 2, "entries": [[1, 0]]},
        {"rows": 1, "cols": 1, "entries": [[True, 0]]},
        {"rows": True, "cols": True, "entries": [[1, 0]]},
    ],
)
def test_schema_rejects_malformed_payloads(payload):
    from drazin.cli import InputError

    with pytest.raises(InputError):
        matrix_from_json(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {"rows": 2, "cols": 2, "entries": [[1, 0]] * 100000},
        {"rows": 1, "cols": 1, "entries": [["7" * 99999 + "x", 0]]},
        {"rows": 1, "cols": 1, "entries": [[1] * 100000]},
    ],
    ids=["100000-entries", "100000-character-component", "100000-element-pair"],
)
def test_error_messages_do_not_echo_the_payload(payload):
    from drazin.cli import InputError

    with pytest.raises(InputError) as info:
        matrix_from_json(payload)
    assert len(str(info.value)) < 200


def test_drazin_command_all_methods(capsys, files):
    code, report = run_json(capsys, ["drazin", "--input", files["A"]])
    assert code == 0
    assert report["profile"] == {"index": 2, "rank": 1}
    assert report["denominator"] == ["8", "0"]
    assert report["methods_agree"] is True
    assert set(report["methods"]) == {"column", "row", "oracle"}
    inverse = matrix_from_json(report["inverse"])
    assert inverse == matrix_from_json(report["methods"]["oracle"])
    assert inverse.entry(1, 1) and inverse.entry(1, 2).re == 0


def test_drazin_single_method(capsys, files):
    code, report = run_json(
        capsys, ["drazin", "--input", files["B"], "--method", "column"]
    )
    assert code == 0
    assert report["profile"] == {"index": 1, "rank": 2}
    assert report["denominator"] == ["0", "-18"]
    assert "methods_agree" not in report
    assert list(report["methods"]) == ["column"]


def test_group_command_accepts_index_one(capsys, files):
    code, report = run_json(capsys, ["group", "--input", files["B"]])
    assert code == 0
    assert report["profile"] == {"index": 1, "rank": 2}


def test_group_command_rejects_higher_index(capsys, files):
    code, report = run_json(capsys, ["group", "--input", files["A"]])
    assert code == EXIT_GROUP_INDEX
    assert report["error"]["kind"] == "group-index"


def test_solve_ax_command(capsys, files):
    code, report = run_json(
        capsys, ["solve-ax", "--A", files["B"], "--B", files["D"]]
    )
    assert code == 0
    assert matrix_from_json(report["x"]) == GOLD_SOLVE_AX
    assert report["restriction_satisfied"] is False
    assert report["profile_a"] == {"index": 1, "rank": 2}


def test_solve_axb_command_reports_intermediates(capsys, files):
    code, report = run_json(
        capsys,
        ["solve-axb", "--A", files["A"], "--B", files["B"], "--D", files["D"]],
    )
    assert code == 0
    assert matrix_from_json(report["x"]) == GOLD_SOLVE_AXB
    assert report["profile_b"] == {"index": 1, "rank": 2}
    assert report["db_columns"][2][0] == ["0", "-24"]
    assert len(report["da_rows"]) == 3
    assert report["restriction_satisfied"] is False


def test_solve_output_round_trips(capsys, files, tmp_path):
    code, report = run_json(
        capsys, ["solve-ax", "--A", files["B"], "--B", files["D"]]
    )
    assert code == 0
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(report["x"]))
    code2, report2 = run_json(
        capsys, ["verify", "--A", files["B"], "--X", str(echo)]
    )
    assert code2 == 0
    assert matrix_from_json(report["x"]) == matrix_from_json(
        json.loads(echo.read_text())
    )


def test_ode_left_command(capsys, files):
    code, report = run_json(
        capsys, ["ode-left", "--A", files["B"], "--B", files["D"]]
    )
    assert code == 0
    poly = report["solution"]
    assert poly["variable"] == "t"
    assert len(poly["coefficients"]) == 2
    assert matrix_from_json(poly["coefficients"][0]) == GOLD_SOLVE_AX
    code2, report2 = run_json(
        capsys, ["ode-right", "--A", files["B"], "--B", files["D"]]
    )
    assert code2 == 0
    assert report2["solution"]["variable"] == "t"


def test_verify_command_flags_a_wrong_candidate(capsys, files, tmp_path):
    wrong = write_matrix(tmp_path / "X.json", CMatrix.identity(3))
    code, report = run_json(capsys, ["verify", "--A", files["A"], "--X", wrong])
    assert code == 0
    assert report["all_hold"] is False
    assert set(report["axioms"]) == {
        "power_left",
        "outer",
        "commute",
        "power_right",
    }


def test_verify_command_confirms_the_real_inverse(capsys, files, tmp_path):
    code, report = run_json(
        capsys, ["drazin", "--input", files["A"], "--method", "column"]
    )
    candidate = tmp_path / "X.json"
    candidate.write_text(json.dumps(report["inverse"]))
    code2, report2 = run_json(
        capsys, ["verify", "--A", files["A"], "--X", str(candidate)]
    )
    assert code2 == 0
    assert report2["all_hold"] is True


def test_parse_failure_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, report = run_json(capsys, ["drazin", "--input", str(bad)])
    assert code == EXIT_PARSE
    assert report["error"]["kind"] == "parse"
    code2, report2 = run_json(capsys, ["drazin", "--input", str(tmp_path / "no.json")])
    assert code2 == EXIT_PARSE


@pytest.mark.parametrize(
    "content",
    [
        b'{"rows": 1, "cols": 1, "entries": [[1' + b"0" * 5000 + b', 0]]}',
        b'{"rows": 1, "cols": 1, "entries": [["\xff", 0]]}',
        b"[" * 100000 + b"]" * 100000,
    ],
    ids=["over-4300-digit-integer", "not-utf-8", "nested-too-deep"],
)
def test_undecodable_input_is_a_parse_failure(capsys, tmp_path, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, report = run_json(capsys, ["drazin", "--input", str(bad)])
    assert code == EXIT_PARSE
    assert report["error"]["kind"] == "parse"


def test_dimension_guard_exit_code(capsys, tmp_path):
    big = write_matrix(tmp_path / "big.json", CMatrix.identity(11))
    code, report = run_json(capsys, ["drazin", "--input", big])
    assert code == EXIT_DIMENSION
    assert report["error"]["kind"] == "dimension"
    code2, _ = run_json(
        capsys, ["--max-dimension", "11", "drazin", "--input", big]
    )
    assert code2 == 0


def test_verify_inputs_are_size_checked(capsys, tmp_path):
    big = write_matrix(tmp_path / "big.json", CMatrix.identity(11))
    code, report = run_json(capsys, ["verify", "--A", big, "--X", big])
    assert code == EXIT_DIMENSION
    assert report["error"]["kind"] == "dimension"


def test_right_hand_sides_are_size_checked(capsys, tmp_path):
    a = write_matrix(tmp_path / "A.json", CMatrix.identity(2))
    b = write_matrix(tmp_path / "B.json", CMatrix.zeros(2, 11))
    code, report = run_json(capsys, ["solve-ax", "--A", a, "--B", b])
    assert code == EXIT_DIMENSION
    assert report["error"]["kind"] == "dimension"


def test_size_is_checked_before_the_entries(capsys, tmp_path):
    # 121 entries are missing, but the header alone is over the limit
    path = tmp_path / "header.json"
    path.write_text(json.dumps({"rows": 11, "cols": 11, "entries": []}))
    code, report = run_json(capsys, ["drazin", "--input", str(path)])
    assert code == EXIT_DIMENSION
    assert report["error"]["kind"] == "dimension"


def test_all_methods_agree_above_the_default_cap(capsys, tmp_path):
    # index 4 with a rank-5 core at n = 12: the oracle is polynomial in n,
    # so all three routes finish well within the test's time
    a = rand_with_profile(random.Random(12), 12, 5, 4)
    path = write_matrix(tmp_path / "a12.json", a)
    code, report = run_json(
        capsys, ["--max-dimension", "12", "drazin", "--input", path]
    )
    assert code == 0
    assert report["profile"] == {"index": 4, "rank": 5}
    assert report["methods_agree"] is True


def test_env_var_raises_limit(capsys, tmp_path, monkeypatch):
    big = write_matrix(tmp_path / "big.json", CMatrix.identity(11))
    monkeypatch.setenv("DRAZIN_MAX_DIM", "11")
    code, _ = run_json(capsys, ["drazin", "--input", big])
    assert code == 0
    # the flag wins over the environment
    code2, report = run_json(
        capsys, ["--max-dimension", "10", "drazin", "--input", big]
    )
    assert code2 == EXIT_DIMENSION
    monkeypatch.setenv("DRAZIN_MAX_DIM", "zero")
    code3, report3 = run_json(capsys, ["drazin", "--input", big])
    assert code3 == EXIT_PARSE
    assert report3["error"]["kind"] == "parse"


@pytest.mark.parametrize("value", ["1_1", " 12 ", "+11", "\u0663", "0"])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_size_limit_is_read_strictly(capsys, tmp_path, monkeypatch, source, value):
    # int() reads the first four as 11, 12, 11 and 3; only ASCII [0-9]+ is taken
    big = write_matrix(tmp_path / "big.json", CMatrix.identity(11))
    argv = ["drazin", "--input", big]
    if source == "flag":
        argv = ["--max-dimension", value] + argv
    else:
        monkeypatch.setenv("DRAZIN_MAX_DIM", value)
    code, report = run_json(capsys, argv)
    assert code == EXIT_PARSE
    assert report["error"]["kind"] == "parse"


def test_shape_mismatch_exit_code(capsys, files, tmp_path):
    wide = write_matrix(tmp_path / "wide.json", CMatrix([[1, 2, 3], [4, 5, 6]]))
    code, report = run_json(capsys, ["drazin", "--input", wide])
    assert code == EXIT_SHAPE
    assert report["error"]["kind"] == "shape"


def test_text_emit_smoke(capsys, files):
    code = main(["--emit", "text", "solve-ax", "--A", files["B"], "--B", files["D"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "restriction_satisfied: False" in out
    assert "x:" in out and "[" in out
    code2 = main(["--emit", "text", "group", "--input", files["A"]])
    out2 = capsys.readouterr().out
    assert code2 == EXIT_GROUP_INDEX
    assert "error" in out2


@pytest.mark.parametrize(
    "component",
    ["1.5", "1_0", "1e5000", "+1", " 1", "1 ", "1/-2", "0x10", "1/2/3", "", "١"],
)
def test_strict_parser_rejects_text_outside_the_schema(capsys, tmp_path, component):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"rows": 1, "cols": 1, "entries": [[component, 0]]})
    )
    code, report = run_json(capsys, ["drazin", "--input", str(bad)])
    assert code == EXIT_PARSE
    assert report["error"]["kind"] == "parse"


def test_oversized_output_becomes_an_error_report(capsys, tmp_path):
    # X = 10^6000 has more digits than str() converts by default
    big = "1" + "0" * 3000
    a = tmp_path / "A.json"
    b = tmp_path / "B.json"
    a.write_text(json.dumps({"rows": 1, "cols": 1, "entries": [["1/" + big, 0]]}))
    b.write_text(json.dumps({"rows": 1, "cols": 1, "entries": [[big, 0]]}))
    code, report = run_json(capsys, ["solve-ax", "--A", str(a), "--B", str(b)])
    assert code == EXIT_OTHER
    assert report["error"]["kind"] == "other"
    code2 = main(["--emit", "text", "solve-ax", "--A", str(a), "--B", str(b)])
    out = capsys.readouterr().out
    assert code2 == EXIT_OTHER
    assert out.startswith("command: solve-ax\nerror:")


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [[], ["--max-dimension", "x"]])
def test_closed_stdout_ends_quietly(files, argv):
    # a success report and an error report alike meet the closed pipe
    with contextlib.redirect_stdout(_ClosedPipe()):
        code = main(argv + ["drazin", "--input", files["B"]])
    assert code == EXIT_OTHER


def test_closed_pipe_process_exits_without_a_traceback(files):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-m", "drazin.cli", "drazin", "--input", files["A"]],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # the reader is gone before the report is written
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_OTHER
    assert stderr == b""
