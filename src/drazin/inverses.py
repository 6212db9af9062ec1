"""Drazin and group inverses by exact determinantal representations.

The Drazin inverse of a square complex matrix A with index k (the smallest
power at which the rank stops dropping) is the unique X satisfying

    A^(k+1) X = A^k,    X A X = X,    A X = X A,

and equivalently X A^(k+1) = A^k.  For k <= 1 it is the group inverse; for
invertible A it is the ordinary inverse.

Writing r = rank A^k and S = A^(k+1), entry (i, j) of X is a ratio of minor
sums: the sum of order-r principal minors of S taken over the index sets
through position i, with column i replaced by column j of A^k, divided by
the sum c_r of all order-r principal minors of S.  A row-replacement dual
yields the same matrix.  The same representations with S as the
replacement source give the commuting projector A (Drazin inverse of A) =
(Drazin inverse of A) A.

All of these minor sums are entries of one matrix (Greville, "The
Souriau-Frame algorithm and the Drazin pseudoinverse", 1973): B_(r-1), the
coefficient of x^(n-r) in adj(x I + S).  A column-replaced sum through
position i with replacement vector b is (B_(r-1) b)_i, a row-replaced sum
through position j is (b B_(r-1))_j, and c_r is the matching coefficient of
det(x I + S).  ``_prepare`` is the one way into a matrix for every entry
point here (``index_of`` and ``verify_drazin`` included) and in
``solvers`` and ``ode``, and the only caller of the walk: it checks that
the matrix is square, keeps it, walks its powers to the index, and then,
on first use, computes B_(r-1) and c_r by the Faddeev-LeVerrier
recurrence from the powers the walk ended on.

The walk and the recurrence run on Z[i] row forms (``matrices``: per
row, the least common denominator q and the integer numerators, reduced
by one gcd per row).  The walk scales A to integers once, derives A's
column form from that row form on integers, multiplies the row form of
A^m by it, and ranks each power by ``matrices._bareiss`` on its
integers.  Each step of the recurrence is one row product B_(j-1) S with
S's column form, computed once (B_(j-1) is a polynomial in S, so it
commutes with S); c_j is read from the product's diagonal, and c_r from
the n diagonal dot products of B_(r-1) with S alone.  No intermediate
power or iterate is ever a Fraction or a CMatrix: the prepared object
keeps the row forms of A, A^T, A^k, A^(k+1) and B_(r-1), which the
solvers, the oracle and ``verify_drazin`` multiply, and builds CMatrix
views (``power_k``, ``power_k1``, ``numerator``) only when a caller
asks for them.
``verify_drazin`` multiplies those forms by the candidate's and compares
canonical row forms, so it builds no Fraction at all; like the ODE
series, it checks its second operand's shape after A's square check and
before the walk.  The column and row forms are products
of B_(r-1)'s row or column form with the source's, divided by c_r in the
same integer loop (``matrices._quotient``), so each entry of the result
is built once, with one division.  The column and row forms therefore
share this kernel, so their agreement checks associativity and
commutation rather than the sums themselves; the independent references
are ``drazin_oracle`` and the enumeration in ``minors``, which the test
suite compares against the kernel.  No entry point caps the size: every
route here is polynomial in n, and only the command line, which reads
input from outside the program, bounds the dimensions it accepts.

``drazin_oracle`` recomputes the inverse along a different route: the
exact limit at 0 of (x I + A^(k+1))^-1 A^k, which is the solution of
A^(k+1) X = A^k with columns in the range of A^k, found by fraction-free
Gauss-Jordan elimination over the Gaussian integers.  It shares the index
walk, the row products and the elimination loop ``matrices._bareiss``
(which also computes ``rank`` and ``det``) with production, but not the
Faddeev-LeVerrier recurrence, B_(r-1) or c_r, so its agreement with the
column and row forms checks the minor sums themselves.  It reads only
the walk's powers from the prepared object, so it never triggers the
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .matrices import (
    CMatrix,
    IndexProfile,
    ShapeError,
    _bareiss,
    _dots,
    _from_rows,
    _gaussian_integers,
    _joined,
    _quotient,
    _rank,
    _reduced,
    _row_product,
    _transposed,
)
from .scalars import GaussianRational, ONE


class GroupIndexError(ValueError):
    """The group inverse was requested for a matrix of index above 1."""


@dataclass(frozen=True)
class DrazinResult:
    """A computed inverse with its provenance.

    ``denominator`` is the minor sum every entry was divided by; it is
    reported as 1 for rank-zero (nilpotent) input, where the inverse is the
    zero matrix and no division happens.  ``method`` records which
    representation produced the matrix: "column", "row", or "oracle".
    """

    inverse: CMatrix
    profile: IndexProfile
    denominator: GaussianRational
    method: str

    def __post_init__(self):
        if self.profile.r >= 1 and not self.denominator:
            raise ArithmeticError(
                "minor-sum denominator vanished at positive rank; "
                "this contradicts the representation and signals a bug"
            )


def _identity_rows(n):
    return [(1, [int(i == j) for j in range(n)], [0] * n) for i in range(n)]


def _walk(a: CMatrix):
    """(IndexProfile, A, A^T, A^k, A^(k+1)) as the profile with the row
    forms of A, of A^T (A's column form, from A's row form on integers)
    and of the two powers the walk ends on.  A is scaled to integers once,
    here; each step multiplies by A's column form and ranks the new
    power's row form."""
    rows = power = _gaussian_integers(a.data)
    columns = _transposed(rows)
    previous_rank, previous = a.rows, _identity_rows(a.rows)
    k = 0
    while True:
        current = _rank(power)
        if current == previous_rank:
            return IndexProfile(k, current), rows, columns, previous, power
        previous_rank, previous = current, power
        power = _row_product(power, columns)
        k += 1


def index_of(a: CMatrix) -> IndexProfile:
    """IndexProfile(k, r) with k = Ind(A) and r = rank A^k.

    k is located by walking the powers of A until the rank repeats; the
    ranks strictly decrease before that point, so the walk ends after at
    most n steps.  Invertible matrices have k = 0, singular group-invertible
    ones k = 1.
    """
    return _prepare(a).profile


@dataclass(frozen=True, eq=False)
class _Prepared:
    """One matrix ready for every determinantal formula.

    Everything in it is what the index walk ended on: the profile, A's
    row and column forms (``rows_a``, ``columns_a``) and the row forms of
    A^k and S = A^(k+1) (``rows_k``, ``rows_k1``).
    ``_kernel`` holds the row form of B_(r-1), the coefficient of x^(n-r)
    in adj(x I + S), with c_r, the sum of the order-r principal minors of
    S.  At rank zero they are the zero matrix and 1, the coefficients of
    x^n in adj(x I + S) and det(x I + S).  The kernel is computed on first
    use, so a caller that needs only the walk (the oracle,
    ``verify_drazin``, or ``group_inverse`` refusing index 2 and above)
    never pays for it.  ``power_k``, ``power_k1`` and ``numerator`` are
    the CMatrix views of the three row forms, built only when asked for.
    """

    profile: IndexProfile
    rows_a: list
    columns_a: list
    rows_k: list
    rows_k1: list

    @cached_property
    def power_k(self) -> CMatrix:
        return _from_rows(self.rows_k)

    @cached_property
    def power_k1(self) -> CMatrix:
        return _from_rows(self.rows_k1)

    @cached_property
    def _kernel(self):
        """(row form of B_(r-1), c_r) by Faddeev-LeVerrier on S: B_0 = I,
        and for j >= 1 c_j = tr(B_(j-1) S) / j, B_j = c_j I - B_(j-1) S,
        one row product with S's column form per step (B_(j-1) is a
        polynomial in S, so it commutes with S)."""
        n, r = len(self.rows_a), self.profile.r
        if r == 0:
            return [(1, [0] * n, [0] * n) for _ in range(n)], ONE
        s = _transposed(self.rows_k1)
        b = _identity_rows(n)
        for j in range(1, r):
            p = _row_product(b, s)
            diagonal = [(q, re[i], im[i]) for i, (q, re, im) in enumerate(p)]
            g, (cr,), (ci,) = _trace_over(diagonal, j)
            b = []
            for i, (q, re, im) in enumerate(p):
                d = lcm(q, g)
                f, h = -(d // q), d // g
                re, im = [x * f for x in re], [x * f for x in im]
                re[i] += cr * h
                im[i] += ci * h
                b.append(_reduced(d, re, im))
        # c_r from the n diagonal dot products of B_(r-1) S alone
        diagonal = []
        for (q, ar, ai), column in zip(b, s):
            (sr,), (si,) = _dots(ar, ai, [column])
            diagonal.append((q * column[0], sr, si))
        q, (cr,), (ci,) = _trace_over(diagonal, r)
        return b, GaussianRational(Fraction(cr, q), Fraction(ci, q))

    @cached_property
    def numerator(self) -> CMatrix:
        return _from_rows(self._kernel[0])

    @property
    def denominator(self) -> GaussianRational:
        return self._kernel[1]

    def col_sums(self, columns):
        """Row form of the column-replaced sums over the columns of a
        column form, undivided."""
        return _row_product(self._kernel[0], columns)

    def row_sums(self, rows):
        """Row form of the row-replaced sums over the rows of a row form,
        undivided."""
        return _row_product(rows, _transposed(self._kernel[0]))

    def col_form(self, columns) -> CMatrix:
        """Column-replaced sums over the columns of a column form, divided
        by c_r."""
        b, c = self._kernel
        return _quotient(b, columns, c)

    def row_form(self, rows) -> CMatrix:
        """Row-replaced sums over the rows of a row form, divided by c_r."""
        b, c = self._kernel
        return _quotient(rows, _transposed(b), c)

    def inverse_times(self, columns_b) -> CMatrix:
        """A^D B from B's column form: the column form over A^k B, whose
        column form is the row form of B^T (A^k)^T."""
        return self.col_form(_row_product(columns_b, self.rows_k))

    def times_inverse(self, rows_b) -> CMatrix:
        """B A^D from B's row form: the row form over B A^k."""
        return self.row_form(_row_product(rows_b, _transposed(self.rows_k)))


def _trace_over(terms, j):
    """(sum of (s_r + s_i i) / q over the (q, s_r, s_i) terms) / j, as a
    one-entry row form (q, [re], [im])."""
    q = lcm(*[t for t, _, _ in terms])
    re = sum(sr * (q // t) for t, sr, _ in terms)
    im = sum(si * (q // t) for t, _, si in terms)
    return _reduced(q * j, [re], [im])


def _require_square(a: CMatrix) -> None:
    if not a.is_square:
        raise ShapeError("expected a square matrix, got %dx%d" % (a.rows, a.cols))


def _prepare(a: CMatrix) -> _Prepared:
    """The one way into a matrix for every entry point, and the one caller
    of the walk: the square check and the index walk, with the kernel to
    follow.  Entry points with a second operand call ``_require_square``
    and check that operand's shape first, so a misfit never walks A."""
    _require_square(a)
    return _Prepared(*_walk(a))


def _inverse(prepared: _Prepared, method: str) -> CMatrix:
    """The Drazin inverse by one route: "column", "row" or "oracle"."""
    if method == "column":
        return prepared.col_form(_transposed(prepared.rows_k))
    if method == "row":
        return prepared.row_form(prepared.rows_k)
    return _limit(prepared)


def _representation(prepared: _Prepared, method: str) -> DrazinResult:
    inverse = _inverse(prepared, method)
    return DrazinResult(inverse, prepared.profile, prepared.denominator, method)


def drazin_col(a: CMatrix) -> DrazinResult:
    """Drazin inverse via the column-replacement determinantal form."""
    return _representation(_prepare(a), "column")


def drazin_row(a: CMatrix) -> DrazinResult:
    """Drazin inverse via the row-replacement determinantal form."""
    return _representation(_prepare(a), "row")


def group_inverse(a: CMatrix) -> DrazinResult:
    """Group inverse (the Drazin inverse when Ind(A) <= 1).

    Raises GroupIndexError for matrices of index 2 or more, where no group
    inverse exists.
    """
    prepared = _prepare(a)
    if prepared.profile.k > 1:
        raise GroupIndexError("matrix has index > 1")
    return _representation(prepared, "column")


def projector_col(a: CMatrix) -> CMatrix:
    """(Drazin inverse of A) A, the projector onto the range of A^k along
    its nullspace, via the column determinantal form."""
    prepared = _prepare(a)
    return prepared.col_form(_transposed(prepared.rows_k1))


def projector_row(a: CMatrix) -> CMatrix:
    """A (Drazin inverse of A), the same projector (the two products agree
    by the commutation identity), via the row determinantal form."""
    prepared = _prepare(a)
    return prepared.row_form(prepared.rows_k1)


# --- the limit oracle ---


def drazin_oracle(a: CMatrix, power_first: bool = False) -> CMatrix:
    """Drazin inverse as the exact limit of (x I + A^(k+1))^-1 A^k at 0.

    A^(k+1) has index at most 1, so the limit is the unique solution X of
    A^(k+1) X = A^k whose columns lie in the range of A^k.  It is found as
    X = A^k W for any solution W of A^(2k+1) W = A^k, by fraction-free
    Gauss-Jordan elimination over the Gaussian integers with the free
    unknowns set to zero.  ``power_first=True`` takes the limit of the
    reversed product A^k (x I + A^(k+1))^-1 instead, the same solve on the
    transposed system; both orderings converge to the same matrix.
    """
    return _limit(_prepare(a), power_first)


def _limit(prepared: _Prepared, power_first: bool = False) -> CMatrix:
    """The oracle's limit, from the walk's powers alone (never the kernel).

    Gauss-Jordan on the row-scaled [A^(2k+1) | A^k] leaves, in each pivot
    row, the last pivot d times the row of W at that pivot column, so A^k W
    is the product of the pivot columns of A^k with those rows divided by d.
    The reversed product's limit is the transpose of this one for A^T,
    whose powers' row forms are the column forms of A's.
    """
    power_k, s = prepared.rows_k, prepared.rows_k1
    if power_first:
        power_k, s = _transposed(power_k), _transposed(s)
    n = len(s)
    system = _joined(_row_product(s, _transposed(power_k)), power_k)
    rows = [(re, im) for _, re, im in system]
    pivots, _, (dr, di) = _bareiss(rows, n, clear_above=True)
    if not pivots:
        return CMatrix.zeros(n, n)
    solved = _transposed([(1, re[n:], im[n:]) for re, im in rows[: len(pivots)]])
    used = [(q, [re[c] for c in pivots], [im[c] for c in pivots]) for q, re, im in power_k]
    limit = _quotient(used, solved, GaussianRational(dr, di))
    return limit.transpose() if power_first else limit


# --- axiom checking ---


@dataclass(frozen=True)
class DrazinAxioms:
    """Exact truth of the four defining identities for a candidate inverse."""

    power_left: bool  # A^(k+1) X = A^k
    outer: bool       # X A X = X
    commute: bool     # A X = X A
    power_right: bool  # X A^(k+1) = A^k

    @property
    def all_hold(self) -> bool:
        return self.power_left and self.outer and self.commute and self.power_right


def verify_drazin(a: CMatrix, x: CMatrix) -> DrazinAxioms:
    """Check the Drazin axioms exactly, with k = Ind(A), from A's
    prepared object (the walk alone, never the kernel).

    Every product is a canonical row form, so each identity is an equality
    of integer lists and no Fraction is built.
    """
    _require_square(a)
    if (x.rows, x.cols) != (a.rows, a.cols):
        raise ShapeError("candidate inverse must match the matrix dimensions")
    prepared = _prepare(a)
    rows_x = _gaussian_integers(x.data)
    columns_x = _transposed(rows_x)
    ax = _row_product(prepared.rows_a, columns_x)
    xa = _row_product(rows_x, prepared.columns_a)
    return DrazinAxioms(
        power_left=_row_product(prepared.rows_k1, columns_x) == prepared.rows_k,
        outer=_row_product(xa, columns_x) == rows_x,
        commute=ax == xa,
        power_right=_row_product(rows_x, _transposed(prepared.rows_k1)) == prepared.rows_k,
    )
