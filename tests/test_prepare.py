"""Every entry point goes through one prepared object per input.

The square check applies to each public function that walks or inverts a
coefficient matrix, and none of them, nor ``index_of`` or
``verify_drazin``, caps the size: only the command line bounds the
dimensions of what it reads.  The oracle, ``verify_drazin`` and a
refused group inverse read only the walk, never the kernel.  Through the
command line, each input matrix is walked once, whatever the subcommand
reports from it, and each operand file is read once, in the order the
subcommand declares its operands.
"""

import json

import pytest

from drazin import cli, inverses, matrices, solvers
from drazin.cli import main, matrix_to_json
from drazin.inverses import (
    GroupIndexError,
    drazin_col,
    drazin_oracle,
    drazin_row,
    group_inverse,
    index_of,
    projector_col,
    projector_row,
    verify_drazin,
)
from drazin.matrices import CMatrix, ShapeError, hstack, vstack
from drazin.ode import ode_left_partial, ode_right_partial
from drazin.solvers import solve_ax, solve_axb, solve_xa

from helpers import A_IDX2, B_GRP, D_RHS

# each path takes the guarded coefficient, whose rows and cols must agree;
# the other operands are shaped to fit it, so a failure can only come from
# the coefficient itself
GUARDED = {
    "drazin_col": drazin_col,
    "drazin_row": drazin_row,
    "group_inverse": group_inverse,
    "projector_col": projector_col,
    "projector_row": projector_row,
    "drazin_oracle": drazin_oracle,
    "solve_ax": lambda a: solve_ax(a, CMatrix.zeros(a.rows, 1)),
    "solve_xa": lambda a: solve_xa(a, CMatrix.zeros(1, a.rows)),
    "solve_axb[A]": lambda a: solve_axb(
        a, CMatrix.identity(2), CMatrix.zeros(a.rows, 2)
    ),
    "solve_axb[B]": lambda b: solve_axb(
        CMatrix.identity(2), b, CMatrix.zeros(2, b.rows)
    ),
    "ode_left_partial": lambda a: ode_left_partial(a, CMatrix.zeros(a.rows, a.rows)),
    "ode_right_partial": lambda a: ode_right_partial(a, CMatrix.zeros(a.rows, a.rows)),
}

# full row rank, so an unguarded index walk would stop at once without error
WIDE = CMatrix([[1, 0, 0], [0, 1, 0]])


@pytest.mark.parametrize("path", sorted(GUARDED))
def test_every_guarded_path_checks_size_and_shape(path):
    with pytest.raises(ShapeError):
        GUARDED[path](WIDE)


@pytest.mark.parametrize("path", sorted(GUARDED))
def test_no_path_caps_the_size(path):
    # n = 11 is above the command line's default limit, which the library
    # does not share
    GUARDED[path](CMatrix.identity(11))


def test_index_and_verification_are_unguarded():
    big = CMatrix.identity(11)
    assert index_of(big).r == big.rows
    assert verify_drazin(big, big).all_hold


def test_oracle_and_group_refusal_never_compute_the_kernel(monkeypatch):
    def no_kernel(self):
        raise AssertionError("the kernel was computed")

    for name in ("_kernel", "numerator", "denominator"):
        monkeypatch.setattr(inverses._Prepared, name, property(no_kernel))
    with pytest.raises(GroupIndexError):
        group_inverse(A_IDX2)
    oracle = drazin_oracle(A_IDX2)
    assert oracle == drazin_oracle(A_IDX2, power_first=True)
    assert verify_drazin(A_IDX2, oracle).all_hold


def write_matrix(path, matrix):
    path.write_text(json.dumps(matrix_to_json(matrix)))
    return str(path)


@pytest.mark.parametrize(
    "argv, walked, loaded",
    [
        pytest.param(["drazin", "--input", "{A}"], [A_IDX2], "A", id="drazin"),
        pytest.param(
            ["drazin", "--input", "{A}", "--method", "oracle"],
            [A_IDX2],
            "A",
            id="oracle",
        ),
        pytest.param(["group", "--input", "{B}"], [B_GRP], "B", id="group"),
        pytest.param(
            ["ode-left", "--A", "{A}", "--B", "{D}"], [A_IDX2], "AD", id="ode-left"
        ),
        pytest.param(
            ["ode-right", "--A", "{A}", "--B", "{D}"], [A_IDX2], "AD", id="ode-right"
        ),
        pytest.param(
            ["solve-axb", "--A", "{A}", "--B", "{B}", "--D", "{D}"],
            [A_IDX2, B_GRP],
            "ABD",
            id="solve-axb",
        ),
        pytest.param(
            ["solve-axb", "--D", "{D}", "--B", "{B}", "--A", "{A}"],
            [A_IDX2, B_GRP],
            "ABD",
            id="solve-axb-reordered",
        ),
        pytest.param(
            ["verify", "--X", "{X}", "--A", "{A}"], [A_IDX2], "AX", id="verify"
        ),
    ],
)
def test_cli_walks_each_input_once(capsys, monkeypatch, tmp_path, argv, walked, loaded):
    inverse = drazin_col(A_IDX2).inverse
    files = {
        name: write_matrix(tmp_path / (name + ".json"), m)
        for name, m in (("A", A_IDX2), ("B", B_GRP), ("D", D_RHS), ("X", inverse))
    }
    seen, read = [], []
    original_walk, original_load = inverses._walk, cli.load_matrix

    def counting_walk(a):
        seen.append(a)
        return original_walk(a)

    def recording_load(path, limit):
        read.append(path)
        return original_load(path, limit)

    monkeypatch.setattr(inverses, "_walk", counting_walk)
    monkeypatch.setattr(cli, "load_matrix", recording_load)
    assert main([arg.format(**files) for arg in argv]) == 0
    assert json.loads(capsys.readouterr().out).get("all_hold", True)
    assert seen == walked
    assert read == [files[name] for name in loaded]


# A's square check, then the other operand's shape, then the walk
MISFITS = {
    "verify_drazin": lambda a: verify_drazin(a, CMatrix.zeros(a.rows, a.rows + 1)),
    "ode_left_partial": lambda a: ode_left_partial(a, CMatrix.zeros(a.rows + 1, a.rows)),
    "ode_right_partial": lambda a: ode_right_partial(a, CMatrix.zeros(a.rows, a.rows + 1)),
}


def refuse_walk(a):
    raise AssertionError("A was walked")


@pytest.mark.parametrize("path", sorted(MISFITS))
def test_a_misfit_operand_is_refused_before_the_walk(monkeypatch, path):
    monkeypatch.setattr(inverses, "_walk", refuse_walk)
    with pytest.raises(ShapeError, match="must match"):
        MISFITS[path](A_IDX2)
    with pytest.raises(ShapeError, match="expected a square matrix"):
        MISFITS[path](WIDE)


@pytest.mark.parametrize("command, operand", [("verify", "--X"), ("ode-left", "--B"),
                                              ("ode-right", "--B")])
def test_cli_refuses_a_misfit_operand_before_the_walk(
    capsys, monkeypatch, tmp_path, command, operand
):
    a = write_matrix(tmp_path / "a.json", A_IDX2)
    misfit = write_matrix(tmp_path / "m.json", CMatrix.zeros(3, 2))
    monkeypatch.setattr(inverses, "_walk", refuse_walk)
    assert main([command, "--A", a, operand, misfit]) == 5
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "shape"


def scaled_operands(monkeypatch, call, operands):
    """Which operands (by name, with "^T" for a column scaling) each
    ``_gaussian_integers`` call of ``call`` scaled, and whether it ran
    inside the walk."""
    seen, walking = [], []
    original_scale, original_walk = matrices._gaussian_integers, inverses._walk

    def recording_scale(vectors):
        vectors = [tuple(v) for v in vectors]
        names = [
            name + suffix
            for name, m in operands.items()
            for suffix, form in (("", m.data), ("^T", tuple(zip(*m.data))))
            if vectors == list(form)
        ]
        seen.append((names[0] if names else "?", bool(walking)))
        return original_scale(vectors)

    def flagged_walk(a):
        walking.append(a)
        try:
            return original_walk(a)
        finally:
            walking.pop()

    for module in (matrices, inverses, solvers):
        monkeypatch.setattr(module, "_gaussian_integers", recording_scale)
    monkeypatch.setattr(inverses, "_walk", flagged_walk)
    call()
    return seen


X_IDX2 = drazin_col(A_IDX2).inverse
POWER = A_IDX2 ** index_of(A_IDX2).k
POWER_B = B_GRP ** index_of(B_GRP).k

# (call, operands by name, expected (name, inside the walk) per scaling).
# A is scaled once, in the walk, and every other operand once for the
# products; the restriction flags still rank A^k stacked with the
# right-hand side as a CMatrix, which scales that stack once more
SCALINGS = {
    "verify_drazin": (lambda: verify_drazin(A_IDX2, X_IDX2), {"A": A_IDX2, "X": X_IDX2},
                      [("A", True), ("X", False)]),
    "solve_ax": (lambda: solve_ax(A_IDX2, D_RHS),
                 {"A": A_IDX2, "B": D_RHS, "[A^k | B]": hstack(POWER, D_RHS)},
                 [("A", True), ("[A^k | B]", False), ("B^T", False)]),
    "solve_xa": (lambda: solve_xa(A_IDX2, D_RHS),
                 {"A": A_IDX2, "B": D_RHS, "[A^k ; B]": vstack(POWER, D_RHS)},
                 [("A", True), ("[A^k ; B]", False), ("B", False)]),
    "solve_axb": (lambda: solve_axb(A_IDX2, B_GRP, D_RHS),
                  {"A": A_IDX2, "B": B_GRP, "D": D_RHS, "[A^k | D]": hstack(POWER, D_RHS),
                   "[B^k ; D]": vstack(POWER_B, D_RHS)},
                  [("A", True), ("B", True), ("D^T", False), ("[A^k | D]", False)]),
}


@pytest.mark.parametrize("path", sorted(SCALINGS))
def test_each_operand_is_scaled_once(monkeypatch, path):
    call, operands, expected = SCALINGS[path]
    assert scaled_operands(monkeypatch, call, operands) == expected
