"""Index-set enumeration and sums of principal minors.

These enumerations are the literal reference for the determinantal
formulas, which the test suite compares production against: denominators
are sums of order-r principal minors, numerators are the same sums taken
over the index sets that contain the replaced row or column.  Production
does not call them; it reads the same sums from one matrix coefficient
(see ``inverses``).  Each sum evaluates its minors one by one, C(n, r) of
them for a denominator, so the cost grows exponentially with n, and no
size guard limits the matrices these functions accept.  Index sets are
strictly increasing tuples of 1-based positions, always produced in
lexicographic order.
"""

from __future__ import annotations

from itertools import combinations

from .matrices import CMatrix, ShapeError
from .scalars import GaussianRational, ZERO


def index_subsets(k: int, n: int):
    """All strictly increasing k-subsets of {1..n}, lexicographically.

    k = 0 yields the single empty tuple.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n, got k=%r n=%r" % (k, n))
    return tuple(combinations(range(1, n + 1), k))


def index_subsets_containing(k: int, n: int, i: int):
    """The k-subsets of {1..n} that contain the fixed position i."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n, got k=%r n=%r" % (k, n))
    if not 1 <= i <= n:
        raise ValueError("position %r out of range 1..%d" % (i, n))
    return tuple(s for s in index_subsets(k, n) if i in s)


def principal_minor(m: CMatrix, subset) -> GaussianRational:
    """Determinant of the principal submatrix on the given 1-based positions."""
    data = m.data
    sub = [[data[a - 1][b - 1] for b in subset] for a in subset]
    return CMatrix(sub).det()


def _check_square_order(m: CMatrix, s: int, what: str):
    if not m.is_square:
        raise ShapeError("%s needs a square matrix" % what)
    if not 1 <= s <= m.rows:
        raise ValueError("minor order %r out of range 1..%d" % (s, m.rows))


def sum_principal_minors(m: CMatrix, s: int) -> GaussianRational:
    """Sum of all order-s principal minors of a square matrix.

    Vanishes whenever s exceeds the rank.
    """
    _check_square_order(m, s, "sum_principal_minors")
    total = ZERO
    for subset in index_subsets(s, m.rows):
        total = total + principal_minor(m, subset)
    return total


def sum_minors_col_replaced(m: CMatrix, i: int, b, r: int) -> GaussianRational:
    """Sum over order-r principal minors through column i after replacing it.

    Column i (1-based) of m is replaced by the vector b, and the sum runs
    over exactly the index sets that contain i; minors missing the replaced
    column would be unchanged, and the determinantal formulas never sum them.
    """
    _check_square_order(m, r, "sum_minors_col_replaced")
    replaced = m.replace_col(i, b)
    total = ZERO
    for subset in index_subsets_containing(r, m.rows, i):
        total = total + principal_minor(replaced, subset)
    return total


def sum_minors_row_replaced(m: CMatrix, j: int, b, r: int) -> GaussianRational:
    """Row-replacement dual of sum_minors_col_replaced (replaces row j)."""
    _check_square_order(m, r, "sum_minors_row_replaced")
    replaced = m.replace_row(j, b)
    total = ZERO
    for subset in index_subsets_containing(r, m.rows, j):
        total = total + principal_minor(replaced, subset)
    return total
