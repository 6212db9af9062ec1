"""Exact scalar and polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from drazin.matrices import CMatrix
from drazin.scalars import (
    GaussianRational,
    ScalarPolynomial,
    poly_limit_at_zero,
)

G = GaussianRational

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=12)
gaussians = st.builds(G, fractions, fractions)


def test_known_products_and_quotients():
    assert G(1, 1) * G(1, -1) == G(2)
    assert G(2, -2) / G(2) == G(1, -1)
    # quotients that appear in the worked fixtures
    assert G(3, -3) / G(0, -18) == G("1/6+1/6*i")
    assert G(12, -12) / (G(8) * G(0, -18)) == G("1/12+1/12*i")


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        G(1) / G(0)


def test_mixes_with_builtin_numbers():
    x = G("1/2", "3/4")
    assert 2 * x == G(1, "3/2")
    assert x + 1 == G("3/2", "3/4")
    assert 1 - x == G("1/2", "-3/4")
    assert x / 2 == G("1/4", "3/8")
    assert Fraction(1, 2) * x == G("1/4", "3/8")
    assert x * (1 - 1j) == G("5/4", "1/4")


def test_rejects_floats():
    with pytest.raises(TypeError):
        G(0.5)
    with pytest.raises(TypeError):
        G.parse(0.5)
    with pytest.raises(TypeError):
        G.parse(1.5 + 0j)


def test_parse_forms():
    assert G.parse(3) == G(3)
    assert G.parse("i") == G(0, 1)
    assert G.parse("-i") == G(0, -1)
    assert G.parse("3i") == G(0, 3)
    assert G.parse("1-i") == G(1, -1)
    assert G.parse("1/2-3/4*i") == G("1/2", "-3/4")
    assert G.parse([2, "-1/3"]) == G(2, "-1/3")
    assert G.parse(2 - 2j) == G(2, -2)
    assert G.parse(Fraction(7, 3)) == G("7/3")


@pytest.mark.parametrize("bad", ["", "1+2", "i*i", "abc", "1++i"])
def test_parse_rejects_malformed_text(bad):
    with pytest.raises(ValueError):
        G.parse(bad)


@pytest.mark.parametrize(
    "component",
    ["1.5", "1_0", "1e5000", "+1", " 1", "1 ", "1/-2", "0x10", "1/2/3", "", "١", "1e10000000"],
)
def test_library_rejects_component_text_outside_the_schema(component):
    # the same list the command line rejects: one grammar for both
    with pytest.raises(ValueError):
        G.parse([component, 0])
    with pytest.raises(ValueError):
        CMatrix([[component]])


def test_bool_is_not_a_number():
    with pytest.raises(TypeError):
        G(True)
    with pytest.raises(TypeError):
        G.parse([1, False])
    with pytest.raises(TypeError):
        CMatrix([[True]])
    assert G(1) != True  # noqa: E712 - comparison is the point


def test_error_quotes_only_a_prefix_of_long_text():
    for bad in ("9" * 100000 + "x", "i" * 100000):
        with pytest.raises(ValueError) as info:
            G.parse(bad)
        assert len(str(info.value)) < 200
        with pytest.raises(ValueError) as info:
            G.parse([bad, 0])
        assert len(str(info.value)) < 200


def test_parse_rejects_wrong_sized_pair():
    with pytest.raises(ValueError):
        G.parse([1, 2, 3])


def test_canonical_text():
    assert str(G(0)) == "0"
    assert str(G(-2)) == "-2"
    assert str(G(1, 1)) == "1+i"
    assert str(G(1, -1)) == "1-i"
    assert str(G(0, -1)) == "-i"
    assert str(G(0, 3)) == "3*i"
    assert str(G("1/2", "-3/4")) == "1/2-3/4*i"


@given(gaussians)
def test_text_round_trip(x):
    assert G.parse(str(x)) == x


@given(gaussians, gaussians, gaussians)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == G(0)


@given(gaussians, gaussians)
def test_division_inverts_multiplication(a, b):
    if b:
        assert (a / b) * b == a


def test_hashable():
    seen = {G(1, 2): "x"}
    assert seen[G(1, 2)] == "x"
    assert hash(G("1/2")) == hash(G(Fraction(1, 2)))


EQUAL_BUILTINS = [
    0, 1, -1, -2, 7, 2 ** 61 - 1, 2 ** 64, -(2 ** 70),
    Fraction(1, 2), Fraction(-7, 3), Fraction(1, 2 ** 65), Fraction(-(2 ** 70), 3),
    0j, 1j, -1j, 1 - 1j, -1 - 1j, 3 + 4j, -2 + 0j, complex(2 ** 60, -(2 ** 62)),
]


@pytest.mark.parametrize("value", EQUAL_BUILTINS, ids=repr)
def test_hash_agrees_with_equal_builtin_numbers(value):
    x = G.parse(value)
    assert x == value
    assert hash(x) == hash(value)
    assert x in {value} and value in {x}
    assert {value: "v"}[x] == "v" and {x: "x"}[value] == "x"
    assert len({x, value}) == 1


@given(st.integers(-(2 ** 80), 2 ** 80), st.integers(-(2 ** 80), 2 ** 80))
def test_hash_agrees_with_equal_complex(re, im):
    value = complex(re, im)  # the parts round to floats, which stay integral
    x = G.parse(value)
    assert x == value and hash(x) == hash(value)


def test_conjugate_and_norm():
    x = G(3, -4)
    assert x.conjugate() == G(3, 4)
    assert x.norm_squared() == 25
    assert (x * x.conjugate()) == G(25)


# --- polynomials ---


def P(*coeffs):
    return ScalarPolynomial(coeffs)


def test_polynomial_trims_trailing_zeros():
    assert P(1, 0, 0).degree == 0
    assert P(0).is_zero
    assert P().degree == -1
    assert P(0, 0, 5).valuation() == 2
    assert P().valuation() is None


def test_polynomial_hash_agrees_with_equal_scalars():
    for value in (0, 1, -3, Fraction(1, 2), 1j, G(2, -1)):
        p = P(value)
        assert p == value and hash(p) == hash(value)
        assert value in {p} and p in {value}
        assert {value: "v"}[p] == "v"
    assert hash(P()) == hash(0) and P() in {0}
    assert hash(P(1, 2)) == hash(ScalarPolynomial((G(1), G(2)), "t"))
    assert len({P(1, 2), ScalarPolynomial((1, 2), "t"), P(1)}) == 2


def test_polynomial_arithmetic():
    p = P(1, 2, 1)
    q = P(0, 1)
    assert p + q == P(1, 3, 1)
    assert p - p == P()
    assert q * q == P(0, 0, 1)
    assert (p * q).degree == 3
    assert 2 * q == P(0, 2)
    assert p.coefficient(1) == G(2)
    assert p.coefficient(9) == G(0)


def test_polynomial_evaluation():
    p = P(1, 2, 1)
    assert p(G(0, 1)) == G(0, 2)
    assert p(3) == G(16)


def test_polynomial_display_variable():
    p = ScalarPolynomial((1, 2), "t")
    assert str(p) == "1 + (2)*t"
    assert str(-p) == "-1 + (-2)*t"
    # the variable is presentation only
    assert p == ScalarPolynomial((1, 2))
    assert str(ScalarPolynomial((0, 0, 1))) == "(1)*x^2"


@given(st.lists(gaussians, max_size=5), st.lists(gaussians, max_size=5))
def test_polynomial_product_degree(a, b):
    p, q = ScalarPolynomial(a), ScalarPolynomial(b)
    if not p.is_zero and not q.is_zero:
        assert (p * q).degree == p.degree + q.degree
    else:
        assert (p * q).is_zero


def test_limit_matching_orders():
    # both numerator and denominator vanish to order 2
    assert poly_limit_at_zero(P(0, 0, 3, 5), P(0, 0, 2, 1)) == G("3/2")
    assert poly_limit_at_zero(P(0, G(1, 1)), P(0, G(0, 2))) == G("1/2", "-1/2")


def test_limit_higher_order_numerator_is_zero():
    assert poly_limit_at_zero(P(0, 0, 0, 1), P(0, 0, 1)) == G(0)
    assert poly_limit_at_zero(P(), P(0, 0, 1)) == G(0)


def test_limit_diverges():
    with pytest.raises(ArithmeticError, match="limit diverges"):
        poly_limit_at_zero(P(0, 0, 1), P(0, 0, 0, 1))


def test_limit_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        poly_limit_at_zero(P(1), P())


def _limit_outcome(num, den):
    try:
        return ("value", poly_limit_at_zero(num, den))
    except ArithmeticError:
        return ("diverges",)


@given(
    st.lists(gaussians, min_size=1, max_size=4),
    st.lists(gaussians, max_size=4),
    st.lists(gaussians, min_size=1, max_size=4),
)
def test_limit_cancels_common_factor(p_coeffs, q_coeffs, s_coeffs):
    # any common factor with a nonzero constant term drops out of the limit
    p = ScalarPolynomial([G(1)] + p_coeffs[1:])
    q = ScalarPolynomial(q_coeffs)
    s = ScalarPolynomial(s_coeffs)
    if s.is_zero:
        return
    assert _limit_outcome(p * q, p * s) == _limit_outcome(q, s)
