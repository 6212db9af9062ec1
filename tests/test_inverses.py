"""Drazin/group inverses, projectors, the limit oracle, and axiom checks."""

import random

import pytest

from drazin.matrices import CMatrix, IndexProfile, ShapeError
from drazin.inverses import (
    DrazinResult,
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
from drazin.scalars import GaussianRational as G

from helpers import (
    A_IDX2,
    B_GRP,
    D_RHS,
    GOLD_SOLVE_AX,
    rand_invertible,
    rand_nilpotent,
    rand_singular,
    rand_with_index,
)
from oracles import invert

NILPOTENT = CMatrix([[0, 1], [0, 0]])

# Drazin inverse of A_IDX2, derived once by hand from the representation
# (for k = 2, r = 1 each entry reduces to an entry of A^2 over the trace of
# A^3) and pinned by the axiom checks below.
A_IDX2_DRAZIN = CMatrix(
    [["1/2", 0, 0], ["1/4-1/4*i", 0, 0], ["-1/4-1/4*i", 0, 0]]
)


def test_index_profiles():
    assert index_of(A_IDX2) == IndexProfile(2, 1)
    assert index_of(B_GRP) == IndexProfile(1, 2)
    assert index_of(CMatrix.identity(3)) == IndexProfile(0, 3)
    assert index_of(CMatrix([[2, 0], [0, 0]])) == IndexProfile(1, 1)
    assert index_of(CMatrix.zeros(2, 2)) == IndexProfile(1, 0)
    assert index_of(NILPOTENT) == IndexProfile(2, 0)
    with pytest.raises(ShapeError):
        index_of(CMatrix([[1, 2, 3], [4, 5, 6]]))


def test_index_of_random_fixtures_have_positive_index():
    rng = random.Random(59)
    for n in (2, 3, 4):
        for _ in range(5):
            assert index_of(rand_singular(rng, n)).k >= 1
    assert index_of(rand_with_index(rng, 4, 1)).k == 1
    assert index_of(rand_with_index(rng, 4, 2)).k == 2


def test_drazin_of_invertible_is_classical_inverse():
    result = drazin_col(CMatrix([[2, 0], [0, 4]]))
    assert result.inverse == CMatrix([["1/2", 0], [0, "1/4"]])
    assert result.profile == IndexProfile(0, 2)
    assert result.denominator == G(8)  # det of the matrix itself
    assert result.method == "column"
    rng = random.Random(61)
    for n in (2, 3):
        m = rand_invertible(rng, n)
        assert drazin_col(m).inverse == invert(m)
        assert drazin_row(m).inverse == invert(m)


def test_drazin_of_diagonal_singular():
    result = drazin_col(CMatrix([[2, 0], [0, 0]]))
    assert result.inverse == CMatrix([["1/2", 0], [0, 0]])
    assert result.profile == IndexProfile(1, 1)
    assert result.denominator == G(4)


def test_drazin_of_nilpotent_is_zero():
    result = drazin_col(NILPOTENT)
    assert result.inverse == CMatrix.zeros(2, 2)
    assert result.profile == IndexProfile(2, 0)
    assert result.denominator == G(1)


def test_drazin_golden_index2():
    result = drazin_col(A_IDX2)
    assert result.inverse == A_IDX2_DRAZIN
    assert result.denominator == G(8)
    assert result.inverse == (A_IDX2 ** 2) * G("1/8")
    assert verify_drazin(A_IDX2, result.inverse).all_hold


def test_drazin_golden_group_product():
    result = drazin_col(B_GRP)
    assert result.denominator == G(0, -18)
    assert result.inverse @ D_RHS == GOLD_SOLVE_AX


def test_row_and_column_representations_agree():
    for fixture in (A_IDX2, B_GRP, NILPOTENT):
        assert drazin_row(fixture).inverse == drazin_col(fixture).inverse
    rng = random.Random(67)
    for n in (2, 3, 4):
        for _ in range(5):
            m = rand_singular(rng, n)
            col = drazin_col(m)
            row = drazin_row(m)
            assert col.inverse == row.inverse
            assert col.denominator == row.denominator
            assert row.method == "row"


def test_axioms_hold_on_random_fixtures():
    rng = random.Random(71)
    for n in (2, 3, 4, 5):
        for _ in range(3):
            m = rand_singular(rng, n)
            x = drazin_col(m).inverse
            assert verify_drazin(m, x).all_hold


def test_verify_reports_individual_failures():
    a = CMatrix([[2, 0], [0, 0]])
    wrong = CMatrix([["1/2", 0], [0, 1]])
    report = verify_drazin(a, wrong)
    assert report.power_left      # A^2 X = A still holds here
    assert not report.outer       # X A X = diag(1/2, 0) != X
    assert report.commute
    assert report.power_right
    assert not report.all_hold
    with pytest.raises(ShapeError):
        verify_drazin(a, CMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]]))


def test_group_inverse():
    result = group_inverse(B_GRP)
    assert result.inverse == drazin_col(B_GRP).inverse
    assert result.profile == IndexProfile(1, 2)
    axioms = verify_drazin(B_GRP, result.inverse)
    assert axioms.all_hold
    # with k = 1 the group axioms include A X A = A
    assert B_GRP @ result.inverse @ B_GRP == B_GRP


def test_group_inverse_rejects_high_index():
    with pytest.raises(GroupIndexError, match="matrix has index > 1"):
        group_inverse(A_IDX2)


def test_group_inverse_of_zero_matrix():
    assert group_inverse(CMatrix.zeros(3, 3)).inverse == CMatrix.zeros(3, 3)


def test_projectors_match_products():
    rng = random.Random(73)
    fixtures = [A_IDX2, B_GRP, rand_singular(rng, 4), rand_invertible(rng, 3)]
    for m in fixtures:
        inverse = drazin_col(m).inverse
        p = projector_col(m)
        q = projector_row(m)
        assert p == inverse @ m
        assert q == m @ inverse
        assert p == q  # the commuting projector
        assert p @ p == p


def test_projector_edge_cases():
    assert projector_col(CMatrix.identity(3)) == CMatrix.identity(3)
    assert projector_col(NILPOTENT) == CMatrix.zeros(2, 2)
    assert projector_row(CMatrix.zeros(2, 2)) == CMatrix.zeros(2, 2)
    # multiplying the projector into A^k changes nothing
    assert projector_row(A_IDX2) @ (A_IDX2 ** 2) == A_IDX2 ** 2


def test_oracle_golden_cases():
    assert drazin_oracle(CMatrix.identity(3)) == CMatrix.identity(3)
    assert drazin_oracle(A_IDX2) == A_IDX2_DRAZIN
    assert drazin_oracle(NILPOTENT) == CMatrix.zeros(2, 2)
    assert drazin_oracle(CMatrix([[2, 0], [0, 4]])) == CMatrix([["1/2", 0], [0, "1/4"]])


def test_oracle_agrees_with_determinantal_paths():
    rng = random.Random(79)
    for n in (2, 3, 4):
        for _ in range(4):
            m = rand_singular(rng, n)
            expected = drazin_col(m).inverse
            assert drazin_oracle(m) == expected
            assert drazin_oracle(m, power_first=True) == expected
    nil = rand_nilpotent(rng, 3)
    assert drazin_oracle(nil) == drazin_col(nil).inverse == CMatrix.zeros(3, 3)


def test_transpose_compatibility():
    rng = random.Random(83)
    for _ in range(5):
        m = rand_singular(rng, 3)
        assert drazin_col(m.transpose()).inverse == drazin_col(m).inverse.transpose()


def test_result_record_rejects_contradictory_denominator():
    with pytest.raises(ArithmeticError):
        DrazinResult(CMatrix.zeros(2, 2), IndexProfile(1, 1), G(0), "column")
