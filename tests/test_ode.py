"""Tests for the polynomial solutions of X' + AX = B and X' + XA = B."""

import random
from fractions import Fraction
from math import factorial

import pytest

from drazin.inverses import drazin_col, drazin_oracle, index_of
from drazin.matrices import CMatrix, ShapeError
from drazin.ode import (
    MatrixPolynomial,
    ode_left_partial,
    ode_right_partial,
    residual_left,
    residual_right,
)
from drazin.scalars import GaussianRational as G
from drazin.scalars import ScalarPolynomial

from helpers import (
    B_GRP,
    D_RHS,
    GOLD_ODE_T_COEFF,
    GOLD_SOLVE_AX,
    rand_invertible,
    rand_matrix,
    rand_nilpotent,
    rand_singular,
    rand_with_index,
    rand_with_profile,
    reachable_profiles,
)
from oracles import invert, product

NILPOTENT = CMatrix([[0, 1], [0, 0]])


def direct_partial(a, b):
    """The product form of the left solution, for cross-checking."""
    profile = index_of(a)
    ad = drazin_col(a).inverse
    coeffs = [ad @ b]
    sign = G(1)
    fact = 1
    for m in range(1, profile.k + 1):
        fact *= m
        scale = sign / G(fact)
        coeffs.append(scale * ((a ** (m - 1)) @ b - ad @ (a ** m) @ b))
        sign = -sign
    return MatrixPolynomial(coeffs, rows=a.rows, cols=b.cols)


def test_polynomial_trims_trailing_zeros():
    two = CMatrix([[2]])
    p = MatrixPolynomial([two, CMatrix.zeros(1, 1)])
    assert p.degree == 0
    assert p.coefficients == (two,)
    assert p.coefficient(5) == CMatrix.zeros(1, 1)


def test_polynomial_zero_needs_shape():
    p = MatrixPolynomial(rows=2, cols=3)
    assert p.is_zero and p.degree == -1
    assert p.coefficient(0) == CMatrix.zeros(2, 3)
    with pytest.raises(ValueError):
        MatrixPolynomial()


def test_polynomial_rejects_mixed_shapes():
    with pytest.raises(ShapeError):
        MatrixPolynomial([CMatrix.identity(2), CMatrix.zeros(3, 3)])


def test_polynomial_derivative_and_evaluate():
    c0 = CMatrix([[1, 0], [0, 1]])
    c1 = CMatrix([[0, 2], [0, 0]])
    c2 = CMatrix([[1, 1], [1, 1]])
    p = MatrixPolynomial([c0, c1, c2])
    assert p.derivative() == MatrixPolynomial([c1, c2 * 2])
    assert p.evaluate(0) == c0
    assert p.evaluate(2) == c0 + c1 * 2 + c2 * 4
    assert p.evaluate(G("1/2")) == c0 + c1 * G("1/2") + c2 * G("1/4")


def test_polynomial_entry_poly():
    p = MatrixPolynomial([CMatrix([[1, 2]]), CMatrix([[0, "1/3"]])])
    assert p.entry_poly(1, 1) == ScalarPolynomial((1,))
    assert p.entry_poly(1, 2) == ScalarPolynomial((2, "1/3"))
    # the scalar view inherits the display variable
    assert p.entry_poly(1, 2).variable == "t"
    assert str(p.entry_poly(1, 2)) == "2 + (1/3)*t"


def test_equal_polynomials_hash_alike():
    p = MatrixPolynomial([CMatrix([[1, 2]]), CMatrix([[0, "1/3"]])])
    q = MatrixPolynomial([[[1, 2]], [[0, G(Fraction(1, 3))]], [[0, 0]]])
    zero = MatrixPolynomial([], rows=1, cols=2)
    assert p == q and hash(p) == hash(q)
    assert len({p, q, zero, MatrixPolynomial([CMatrix([[0, 0]])])}) == 2
    assert {p: "p"}[q] == "p"


def test_polynomial_algebra():
    a = CMatrix([[1, 1], [0, 1]])
    p = MatrixPolynomial([CMatrix.identity(2), a])
    q = MatrixPolynomial([a])
    assert (p + q).coefficient(0) == CMatrix.identity(2) + a
    assert (p - q) + q == p
    assert p + (-p) == MatrixPolynomial(rows=2, cols=2)
    # a plain matrix promotes to a constant polynomial on either side
    assert (p - CMatrix.identity(2)).coefficient(0).is_zero
    assert (CMatrix.identity(2) + p).coefficient(0) == CMatrix.identity(2) * 2
    assert (CMatrix.identity(2) - p).coefficient(1) == -a
    with pytest.raises(ShapeError):
        p + MatrixPolynomial(rows=3, cols=3)


def test_polynomial_matrix_products_and_transpose():
    a = CMatrix([[0, 1], [0, 0]])
    p = MatrixPolynomial([CMatrix.identity(2), CMatrix([[1, 2], [3, 4]])])
    left = a @ p
    right = p @ a
    assert left.coefficient(1) == a @ p.coefficient(1)
    assert right.coefficient(1) == p.coefficient(1) @ a
    assert p.transpose().coefficient(1) == p.coefficient(1).transpose()
    assert p.transpose().transpose() == p


def test_polynomial_str_uses_variable_tag():
    p = MatrixPolynomial([CMatrix([[1]]), CMatrix([[2]])])
    assert "t" in str(p)
    assert "(2)*t" in str(p)


def test_worked_left_system():
    # the t-coefficient entries below come from the per-entry derivations;
    # the factored closing display would scale the (1,3) and (2,3) entries
    # by 1/6, which contradicts them, so the per-entry values are asserted
    # and the residual check below settles the conflict
    x = ode_left_partial(B_GRP, D_RHS)
    assert x.degree == 1
    assert x.coefficient(0) == GOLD_SOLVE_AX
    assert x.coefficient(1) == GOLD_ODE_T_COEFF
    assert x.entry_poly(1, 1) == ScalarPolynomial(("1/6+1/6*i",))
    assert x.entry_poly(1, 3) == ScalarPolynomial((0, 1))
    assert x.entry_poly(1, 3).coefficient(1) == G(1) != G("1/6")
    assert residual_left(B_GRP, D_RHS, x).is_zero


def test_worked_left_system_intermediates():
    assert B_GRP @ D_RHS == CMatrix(
        [
            ["2-1*i", "2*i", 0],
            ["1+2*i", -2, 0],
            ["1+1*i", "1*i", 0],
        ]
    )
    assert (B_GRP ** 2) @ D_RHS == CMatrix(
        [
            ["2-2*i", "2+3*i", 0],
            ["2+2*i", "-3+2*i", 0],
            ["1+5*i", -2, 0],
        ]
    )


def test_left_invertible_gives_constant():
    rng = random.Random(41)
    for n in (2, 3):
        a = rand_invertible(rng, n)
        b = rand_matrix(rng, n)
        x = ode_left_partial(a, b)
        assert x.degree == 0
        assert x.coefficient(0) == invert(a) @ b
        assert residual_left(a, b, x).is_zero


def test_left_nilpotent_pattern():
    rng = random.Random(43)
    for a in (NILPOTENT, rand_nilpotent(rng, 3)):
        eye = CMatrix.identity(a.rows)
        x = ode_left_partial(a, eye)
        k = index_of(a).k
        assert x.coefficient(0).is_zero
        assert x.coefficient(1) == eye
        if k >= 2:
            assert x.coefficient(2) == a * G("-1/2")
        assert residual_left(a, eye, x).is_zero


def test_left_matches_direct_products():
    rng = random.Random(47)
    for n in (2, 3, 4):
        for build in (rand_singular, rand_invertible):
            a = build(rng, n)
            b = rand_matrix(rng, n)
            assert ode_left_partial(a, b) == direct_partial(a, b)
    for index in (1, 2):
        a = rand_with_index(rng, 3, index)
        b = rand_matrix(rng, 3)
        assert ode_left_partial(a, b) == direct_partial(a, b)


def literal_series(a, b, x, left):
    """The paper's series written out with an independent inverse X: the
    t^m coefficient of X' + AX = B is ((-1)^(m-1)/m!)(A^(m-1)B - X A^m B),
    of X' + XA = B the mirror ((-1)^(m-1)/m!)(B A^(m-1) - B A^m X)."""
    k = index_of(a).k
    power = CMatrix.identity(a.rows)  # A^(m-1)
    coeffs = [product(x, b) if left else product(b, x)]
    for m in range(1, k + 1):
        scale = G(Fraction((-1) ** (m - 1), factorial(m)))
        if left:
            term = product(power, b) - product(x, product(product(power, a), b))
        else:
            term = product(b, power) - product(product(b, product(power, a)), x)
        coeffs.append(term * scale)
        power = product(power, a)
    return MatrixPolynomial(coeffs, rows=a.rows, cols=a.rows)


@pytest.mark.parametrize("n,r,k", reachable_profiles(5))
def test_series_match_the_literal_formula_on_every_profile(n, r, k):
    rng = random.Random(100 * n + 10 * r + k)
    a = rand_with_profile(rng, n, r, k)
    b = rand_matrix(rng, n)
    x = drazin_oracle(a)
    assert ode_left_partial(a, b) == literal_series(a, b, x, left=True)
    assert ode_right_partial(a, b) == literal_series(a, b, x, left=False)


def test_degree_bounded_by_index():
    rng = random.Random(53)
    for n in (2, 3):
        a = rand_singular(rng, n)
        b = rand_matrix(rng, n)
        assert ode_left_partial(a, b).degree <= index_of(a).k
    a = rand_invertible(rng, 3)
    assert ode_left_partial(a, rand_matrix(rng, 3)).degree == 0


def test_residuals_vanish_on_random_fixtures():
    rng = random.Random(59)
    builders = [rand_singular, rand_invertible, rand_nilpotent]
    for trial in range(12):
        n = rng.choice([2, 3])
        a = builders[trial % len(builders)](rng, n)
        b = rand_matrix(rng, n)
        assert residual_left(a, b, ode_left_partial(a, b)).is_zero
        assert residual_right(a, b, ode_right_partial(a, b)).is_zero
    for index in (1, 2):
        a = rand_with_index(rng, 3, index)
        b = rand_matrix(rng, 3)
        assert residual_left(a, b, ode_left_partial(a, b)).is_zero
        assert residual_right(a, b, ode_right_partial(a, b)).is_zero


def test_right_transpose_duality():
    rng = random.Random(61)
    for _ in range(4):
        a = rand_singular(rng, 3)
        b = rand_matrix(rng, 3)
        dual = ode_left_partial(a.transpose(), b.transpose()).transpose()
        assert ode_right_partial(a, b) == dual


def test_right_invertible_and_zero_rhs():
    rng = random.Random(67)
    a = rand_invertible(rng, 3)
    b = rand_matrix(rng, 3)
    x = ode_right_partial(a, b)
    assert x.degree == 0
    assert x.coefficient(0) == b @ invert(a)
    zero = CMatrix.zeros(3, 3)
    assert ode_right_partial(rand_singular(rng, 3), zero).is_zero


def test_residual_trivia():
    b = CMatrix([[1, 2], [3, 4]])
    zero_poly = MatrixPolynomial(rows=2, cols=2)
    res = residual_left(CMatrix.zeros(2, 2), b, zero_poly)
    assert res == MatrixPolynomial([-b])
    growth = MatrixPolynomial([CMatrix.zeros(2, 2), b])
    assert residual_left(CMatrix.zeros(2, 2), b, growth).is_zero
    assert residual_right(CMatrix.zeros(2, 2), b, growth).is_zero


def test_ode_shape_errors_and_guard():
    square = CMatrix.identity(2)
    with pytest.raises(ShapeError):
        ode_left_partial(CMatrix([[1, 2]]), square)
    with pytest.raises(ShapeError):
        ode_left_partial(square, CMatrix([[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(ShapeError):
        ode_right_partial(square, CMatrix.identity(3))
