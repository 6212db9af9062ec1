"""Exact matrix arithmetic, elimination, and subspace tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from drazin import matrices
from drazin.matrices import (
    CMatrix,
    IndexProfile,
    ShapeError,
    hstack,
    nullspace_contained,
    range_contained,
    vstack,
)
from drazin.scalars import ZERO, GaussianRational as G

from helpers import A_IDX2, B_GRP, D_RHS, rand_matrix, rand_singular, rational_similar
from oracles import apply_to_vector, minor_rank, nullspace_basis, perm_det, product, rref

A_SQUARED = CMatrix([[4, 0, 0], [2 - 2j, 0, 0], [-2 - 2j, 0, 0]])
A_CUBED = CMatrix([[8, 0, 0], [4 - 4j, 0, 0], [-4 - 4j, 0, 0]])
B_SQUARED = CMatrix([[-1j, 1j, 3 - 1j], [1, -1, 1 + 3j], [-3 + 1j, 3 - 1j, 3 + 1j]])


def test_golden_powers():
    assert A_IDX2 ** 2 == A_SQUARED
    assert A_IDX2 ** 3 == A_CUBED
    assert B_GRP ** 2 == B_SQUARED
    assert A_IDX2 ** 0 == CMatrix.identity(3)
    assert A_IDX2 ** 1 == A_IDX2


def test_golden_product():
    expected = CMatrix([[2 - 1j, 2j, 0], [1 + 2j, -2, 0], [1 + 1j, 1j, 0]])
    assert B_GRP @ D_RHS == expected


def test_shape_errors():
    two_by_three = CMatrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ShapeError):
        two_by_three @ two_by_three
    with pytest.raises(ShapeError):
        two_by_three + CMatrix([[1, 2], [3, 4]])
    with pytest.raises(ShapeError):
        two_by_three.det()
    with pytest.raises(ShapeError):
        two_by_three ** 2
    with pytest.raises(ValueError):
        CMatrix([[1, 2], [3, 4]]) ** -1
    with pytest.raises(ShapeError):
        CMatrix([[1, 2], [3]])
    with pytest.raises(ShapeError):
        CMatrix([])


@pytest.mark.parametrize(
    "rows, kind",
    [
        (["12", "34"], "str"),
        ("12", "str"),
        ([b"12"], "bytes"),
        ([{1: 0, 2: 0}], "dict"),
    ],
    ids=["str-rows", "str-matrix", "bytes-row", "dict-row"],
)
def test_rows_must_be_lists_or_tuples(rows, kind):
    with pytest.raises(TypeError, match="got a %s$" % kind):
        CMatrix(rows)
    assert CMatrix(([1, 2], (3, 4))) == CMatrix([[1, 2], [3, 4]])


def test_entry_row_col_are_one_based():
    assert A_IDX2.entry(1, 1) == G(2)
    assert A_IDX2.entry(2, 1) == G(0, -1)
    assert A_IDX2.row(3) == (G(0, -1), G(0, -1), G(0, -1))
    assert A_IDX2.col(1) == (G(2), G(0, -1), G(0, -1))
    with pytest.raises(IndexError):
        A_IDX2.entry(0, 1)
    with pytest.raises(IndexError):
        A_IDX2.col(4)


def test_integer_arguments_refuse_bool():
    # the scalar layer refuses bool, and so do sizes, indices and powers
    with pytest.raises(TypeError):
        A_IDX2 ** True
    with pytest.raises(TypeError):
        CMatrix.identity(True)
    with pytest.raises(TypeError):
        CMatrix.zeros(True, 2)
    with pytest.raises(TypeError):
        CMatrix.zeros(2, False)
    with pytest.raises(TypeError):
        A_IDX2.entry(True, 1)
    with pytest.raises(TypeError):
        A_IDX2.row(True)
    with pytest.raises(TypeError):
        A_IDX2.col(True)


def test_scalar_multiplication_and_negation():
    m = CMatrix([[1, 1j], [0, 2]])
    assert 2 * m == CMatrix([[2, 2j], [0, 4]])
    assert m * G(0, 1) == CMatrix([[1j, -1], [0, 2j]])
    assert -m == CMatrix([[-1, -1j], [0, -2]])
    with pytest.raises(TypeError):
        m * m  # matrix products go through @


def test_golden_determinants():
    # second-order minors that feed the worked denominator
    assert CMatrix([[-1, 1 + 3j], [3 - 1j, 3 + 1j]]).det() == G(-9, -9)
    assert CMatrix([[-1j, 3 - 1j], [-3 + 1j, 3 + 1j]]).det() == G(9, -9)
    assert CMatrix.identity(3).det() == G(1)
    assert A_IDX2.det() == G(0)


def test_determinant_matches_permutation_expansion():
    rng = random.Random(7)
    for n in (2, 3, 4):
        for _ in range(10):
            m = rand_matrix(rng, n)
            assert m.det() == perm_det(m)


def test_determinant_is_multiplicative():
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(5):
            a, b = rand_matrix(rng, n), rand_matrix(rng, n)
            assert (a @ b).det() == a.det() * b.det()


def test_golden_ranks():
    # frozen after cross-checking with the exhaustive-minor oracle
    assert minor_rank(A_IDX2) == 2
    assert A_IDX2.rank() == 2
    assert A_SQUARED.rank() == 1
    assert B_GRP.rank() == 2
    assert B_SQUARED.rank() == 2
    assert CMatrix.zeros(3, 3).rank() == 0
    assert CMatrix.identity(4).rank() == 4


def test_rank_matches_minor_oracle():
    rng = random.Random(13)
    for n in (2, 3, 4):
        for _ in range(6):
            m = rand_singular(rng, n)
            assert m.rank() == minor_rank(m)
        wide = rand_matrix(rng, n, n + 1)
        assert wide.rank() == minor_rank(wide)


# Components mixing integers, small fractions and fractions whose
# denominators have 64 to 80 bits, so the rows and columns of one matrix
# clear to Gaussian integers with different scale factors.
components = st.one_of(
    st.just(Fraction(0)),
    st.integers(-5, 5).map(Fraction),
    st.fractions(max_denominator=12),
    st.builds(Fraction, st.integers(-(2 ** 80), 2 ** 80), st.integers(2 ** 64, 2 ** 80)),
)
scalars = st.builds(G, components, components)


@st.composite
def gaussian_matrices(draw, rows=None, cols=None):
    """Up to 5 x 5, with rows that combine earlier rows (rank deficiency)
    and zeroed rows and columns."""
    rows = rows or draw(st.integers(1, 5))
    cols = cols or draw(st.integers(1, 5))
    data = [[draw(scalars) for _ in range(cols)] for _ in range(rows)]
    for i in range(1, rows):
        if draw(st.booleans()):
            weights = [draw(scalars) for _ in range(i)]
            data[i] = [sum((w * row[j] for w, row in zip(weights, data)), ZERO)
                       for j in range(cols)]
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
        data[i] = [ZERO] * cols
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
        for row in data:
            row[j] = ZERO
    return CMatrix(data)


@st.composite
def conformable_pairs(draw):
    rows, inner, cols = (draw(st.integers(1, 5)) for _ in range(3))
    return (draw(gaussian_matrices(rows, inner)), draw(gaussian_matrices(inner, cols)))


@settings(max_examples=150, deadline=None)
@given(conformable_pairs())
def test_product_matches_entrywise_dot_products(pair):
    a, b = pair
    assert a @ b == product(a, b)


# Divisors: plus and minus one, Gaussian integers, and Gaussian rationals
# whose parts have denominators of up to 80 bits.
divisors = st.one_of(
    st.sampled_from([G(1), G(-1)]),
    st.builds(G, st.integers(-9, 9), st.integers(-9, 9)),
    scalars,
).filter(bool)


@settings(max_examples=150, deadline=None)
@given(conformable_pairs(), divisors)
def test_divided_product_matches_product_then_division(pair, divisor):
    a, b = pair
    expected = product(a, b)
    divided = matrices._divided_product(a, b, divisor)
    assert divided == CMatrix([[v / divisor for v in row] for row in expected.data])


def row_form(m):
    return matrices._gaussian_integers(m.data)


def col_form(m):
    return matrices._gaussian_integers(zip(*m.data))


def check_row_forms(a, b):
    """The row product and the row-to-column conversion give, row by row,
    the (q, re, im) of the Fraction-normalised reference product."""
    expected = row_form(product(a, b))
    assert matrices._row_product(row_form(a), col_form(b)) == expected
    assert matrices._transposed(row_form(a)) == col_form(a)
    assert matrices._transposed(col_form(b)) == row_form(b)
    assert matrices._from_rows(expected) == product(a, b)


@st.composite
def gaussian_integer_pairs(draw):
    rows, inner, cols = (draw(st.integers(1, 5)) for _ in range(3))
    entry = st.builds(G, st.integers(-9, 9), st.integers(-9, 9))
    return tuple(
        CMatrix([[draw(entry) for _ in range(c)] for _ in range(r)])
        for r, c in ((rows, inner), (inner, cols))
    )


@settings(max_examples=150, deadline=None)
@given(st.one_of(conformable_pairs(), gaussian_integer_pairs()))
def test_row_product_matches_the_normalised_product(pair):
    check_row_forms(*pair)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.randoms(use_true_random=False))
def test_row_product_on_rational_similarities(n, rng):
    # D A D^-1 has a different denominator in every row and column; the
    # powers are the index walk's products
    a = rational_similar(rng, rand_matrix(rng, n))
    power = a
    for _ in range(3):
        check_row_forms(power, a)
        power = product(power, a)


def test_divided_product_by_zero_raises():
    a = CMatrix([[1, "1/2"], [3, 1j]])
    for zero in (G(0), G("0/7", "0/3")):
        with pytest.raises(ZeroDivisionError):
            matrices._divided_product(a, a, zero)
    with pytest.raises(ShapeError):
        matrices._divided_product(a, CMatrix([[1, 2]]), G(1))


@settings(max_examples=150, deadline=None)
@given(gaussian_matrices())
def test_rank_matches_reference_elimination(m):
    rank = m.rank()
    assert rank == len(rref(m)[1])
    if max(m.rows, m.cols) <= 4:
        assert rank == minor_rank(m)
        if m.is_square:
            assert m.det() == perm_det(m)


def test_replace_col_golden():
    replaced = A_CUBED.replace_col(1, [12 - 12j, -12j, -12])
    assert replaced == CMatrix([[12 - 12j, 0, 0], [-12j, 0, 0], [-12, 0, 0]])


def test_replace_self_is_identity_operation():
    rng = random.Random(17)
    m = rand_matrix(rng, 4)
    for j in range(1, 5):
        assert m.replace_col(j, m.col(j)) == m
    for i in range(1, 5):
        assert m.replace_row(i, m.row(i)) == m


def test_replace_errors():
    with pytest.raises(ShapeError):
        A_IDX2.replace_col(1, [1, 2])
    with pytest.raises(IndexError):
        A_IDX2.replace_row(4, [1, 2, 3])


def test_transpose():
    rng = random.Random(19)
    a, b = rand_matrix(rng, 3), rand_matrix(rng, 3)
    assert a.transpose().transpose() == a
    assert (a @ b).transpose() == b.transpose() @ a.transpose()
    assert CMatrix([[1, 2, 3]]).transpose() == CMatrix([[1], [2], [3]])


def test_stacking():
    a = CMatrix([[1, 2], [3, 4]])
    b = CMatrix([[5], [6]])
    assert hstack(a, b) == CMatrix([[1, 2, 5], [3, 4, 6]])
    assert vstack(a, CMatrix([[7, 8]])) == CMatrix([[1, 2], [3, 4], [7, 8]])
    with pytest.raises(ShapeError):
        hstack(a, CMatrix([[1, 2]]))
    with pytest.raises(ShapeError):
        vstack(a, b)


def test_range_contained_trivial_cases():
    rng = random.Random(23)
    power = B_GRP  # any fixed matrix works; its range contains A @ Y columns
    for _ in range(5):
        y = rand_matrix(rng, 3)
        assert range_contained(power @ y, power)
    assert not range_contained(CMatrix.identity(3), CMatrix.zeros(3, 3))
    assert range_contained(CMatrix.zeros(3, 2), CMatrix.zeros(3, 3))


def test_range_contained_worked_fixture():
    # columns of D_RHS @ B_GRP against the one-dimensional range of A_IDX2^2;
    # expected value frozen from the exhaustive-minor rank oracle
    m = D_RHS @ B_GRP
    oracle = minor_rank(hstack(A_SQUARED, m)) == minor_rank(A_SQUARED)
    assert oracle is False
    assert range_contained(m, A_SQUARED) is False
    # and a contained counterpart built inside the range
    assert range_contained(A_SQUARED @ D_RHS, A_SQUARED) is True


def test_nullspace_contained_trivial_cases():
    rng = random.Random(29)
    for _ in range(5):
        y = rand_matrix(rng, 3)
        assert nullspace_contained(B_GRP, y @ B_GRP)
    assert not nullspace_contained(CMatrix.zeros(3, 3), CMatrix.identity(3))
    assert nullspace_contained(B_GRP, CMatrix.zeros(3, 3))


def test_nullspace_contained_matches_basis_oracle():
    rng = random.Random(31)
    for _ in range(10):
        n_of = rand_singular(rng, 3)
        m = rand_matrix(rng, 3)
        expected = all(
            all(not x for x in apply_to_vector(m, v)) for v in nullspace_basis(n_of)
        )
        assert nullspace_contained(n_of, m) is expected


def test_equal_matrices_hash_alike():
    a = CMatrix([[1, "1/2"], [1j, 0]])
    b = CMatrix([[G(1), G(Fraction(1, 2))], [G(0, 1), G(0)]])
    assert a == b and hash(a) == hash(b)
    assert len({a, b, a.transpose()}) == 2
    assert {a: "a"}[b] == "a"


def test_index_profile_is_a_plain_record():
    assert IndexProfile(2, 1) == IndexProfile(2, 1)
    assert IndexProfile(2, 1) != IndexProfile(1, 1)
    assert IndexProfile(2, 1).k == 2


def test_printing_is_readable():
    text = str(CMatrix([[1, -1j], ["1/2", 3]]))
    assert text.splitlines() == ["[  1  -i]", "[1/2   3]"]
