"""Dense exact matrices over the Gaussian rationals.

``CMatrix`` is immutable: every operation returns a new matrix, so values
can be shared freely between threads and cached without copying.  Public
row and column indices are 1-based throughout the package, matching the
usual mathematical convention for minors and index sets; internal storage
is an ordinary 0-based tuple of row tuples.

Products, determinants and ranks run on plain ``int`` pairs.  The Z[i]
row form of a matrix (``_gaussian_integers``) stores per row (q, re, im):
q is the least common denominator of the row, and re and im are the
integer numerators.  It is canonical (the gcd of q with every numerator
is 1); the column form is the same for the columns.  ``_dots`` is the one
integer dot-product loop.  ``_row_product`` keeps a product as a row form:
row i's dot products over q_i lcm(p), reduced by one gcd, which are the
integers ``_gaussian_integers`` gives for the Fraction-normalised
product, so repeated products (the index walk and Faddeev-LeVerrier in
``inverses``) never build a Fraction.  ``_transposed`` turns a row form
into a column form, ``_joined`` gives the row form of [L | R], and
``_from_rows`` builds the CMatrix a row form stands for, divided by one
scalar.  Canonical forms are equal exactly when their matrices are, so
products that are compared, ranked or multiplied again stay row forms.
Scaling row by row, not by one lcm for the whole matrix, keeps the
integers short when the rows' denominators differ.
``_bareiss`` is the one fraction-free elimination over Z[i]: ``rank``
counts its pivots, ``det`` is its last pivot over the product of the row
scales, and the limit oracle in ``inverses`` runs it with the rows above
each pivot cleared too.

The determinantal formulas divide every entry of a product by one scalar
(the minor sum c_r, or -m in the ODE series).  ``_quotient`` folds that
division into the dot-product loop, so each entry is one Fraction pair
built once; ``_divided_product`` is its form on two matrices, and ``@``
its divisor-one case.

Values the package builds from normalised Fractions skip the public
constructors' checks: ``CMatrix._of`` and ``GaussianRational._of`` take
them as they are.  ``CMatrix(...)`` parses and checks every entry, so
the input boundary is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod
from operator import mul

from .scalars import GaussianRational, ONE, ZERO

_new = object.__new__


class ShapeError(ValueError):
    """Operand dimensions do not fit the requested operation."""


def _gaussian_integers(vectors):
    """Each vector q * v with q the lcm of its component denominators, as
    (q, real parts, imaginary parts) with plain int parts."""
    out = []
    for vec in vectors:
        re = [v.re for v in vec]
        im = [v.im for v in vec]
        q = lcm(*[x.denominator for x in re], *[x.denominator for x in im])
        if q == 1:
            out.append((1, [x.numerator for x in re], [x.numerator for x in im]))
        else:
            out.append((
                q,
                [x.numerator * (q // x.denominator) for x in re],
                [x.numerator * (q // x.denominator) for x in im],
            ))
    return out


def _reduced(q, re, im):
    """The vector (re + im i) / q in canonical form: q and the numerators
    divided by their gcd."""
    g = gcd(q, *re, *im)
    if g == 1:
        return q, re, im
    return q // g, [x // g for x in re], [x // g for x in im]


def _dots(ar, ai, columns):
    """The integer dot products of the Z[i] row ar + ai i with each Z[i]
    column (p, br, bi), as (real parts, imaginary parts)."""
    re, im = [], []
    for _, br, bi in columns:
        re.append(sum(map(mul, ar, br)) - sum(map(mul, ai, bi)))
        im.append(sum(map(mul, ar, bi)) + sum(map(mul, ai, br)))
    return re, im


def _row_product(rows, columns):
    """Row form of the product of a row form and a column form: row i is
    its dot products over q_i lcm(p), reduced by one gcd."""
    lcd = lcm(*[p for p, _, _ in columns])
    scales = [lcd // p for p, _, _ in columns]
    out = []
    for q, ar, ai in rows:
        re, im = _dots(ar, ai, columns)
        if lcd != 1:
            re, im = list(map(mul, re, scales)), list(map(mul, im, scales))
        out.append(_reduced(q * lcd, re, im))
    return out


def _transposed(rows):
    """Column form of the matrix with row form ``rows`` (and the row form
    of the one with that column form): each column over lcm(q), reduced by
    one gcd."""
    lcd = lcm(*[q for q, _, _ in rows])
    scales = [lcd // q for q, _, _ in rows]
    return [
        _reduced(lcd, list(map(mul, re, scales)), list(map(mul, im, scales)))
        for re, im in zip(zip(*[re for _, re, _ in rows]), zip(*[im for _, _, im in rows]))
    ]


def _joined(left, right):
    """Row form of [L | R] from the row forms of L and R: each row over
    the lcm of its two denominators, which keeps it canonical."""
    out = []
    for (p, lr, li), (q, rr, ri) in zip(left, right):
        d = lcm(p, q)
        f, g = d // p, d // q
        out.append((d, [x * f for x in lr] + [x * g for x in rr],
                    [x * f for x in li] + [x * g for x in ri]))
    return out


def _reciprocal(divisor):
    """(x, y, norm) in integers with 1 / divisor = (x - y i) / norm: for
    divisor = (alpha + beta i) / gamma, x + y i = gamma (alpha + beta i)
    and norm = alpha^2 + beta^2."""
    d_re, d_im = divisor.re, divisor.im
    gamma = lcm(d_re.denominator, d_im.denominator)
    alpha = d_re.numerator * (gamma // d_re.denominator)
    beta = d_im.numerator * (gamma // d_im.denominator)
    norm = alpha * alpha + beta * beta
    if not norm:
        raise ZeroDivisionError("matrix product divided by zero")
    return gamma * alpha, gamma * beta, norm


def _from_rows(rows, divisor=ONE) -> "CMatrix":
    """The matrix with row form ``rows`` divided by divisor, one Fraction
    pair per entry."""
    x, y, norm = _reciprocal(divisor)
    of = GaussianRational._of
    out = []
    for q, re, im in rows:
        qn = q * norm
        out.append(tuple([
            of(Fraction(a * x + b * y, qn), Fraction(b * x - a * y, qn))
            for a, b in zip(re, im)
        ]))
    return CMatrix._of(tuple(out))


def _rank(rows) -> int:
    """Rank of a row form, by elimination on a copy of its integers."""
    work = [(list(re), list(im)) for _, re, im in rows]
    return len(_bareiss(work, len(work[0][0]))[0])


def _bareiss(rows, cols, clear_above=False):
    """Fraction-free elimination over Z[i], in place on ``rows``.

    Each row is a pair (real parts, imaginary parts) of int lists; pivots
    are sought in the first ``cols`` columns, and every column of the row
    is updated.  Returns (pivot columns, sign of the row swaps, last
    pivot as a (re, im) pair), with (1, 0) as the pivot when there is none.
    Forward only, each pivot k of a square nonsingular matrix is the
    leading k x k minor of the row-swapped matrix, so the last one is its
    determinant up to the sign.  With ``clear_above`` the rows above each
    pivot are updated too (fraction-free Gauss-Jordan); the pivot rows then
    solve the system over the last pivot: the entry of row t in a column
    past ``cols`` is the last pivot times the unknown of pivot column t.
    Entries left of the current pivot column are not kept current.
    """
    count = len(rows)
    width = len(rows[0][0])
    pivots = []
    sign = 1
    prev_re, prev_im, norm = 1, 0, 1
    for col in range(cols):
        rank = len(pivots)
        for r in range(rank, count):
            if rows[r][0][col] or rows[r][1][col]:
                if r != rank:
                    rows[rank], rows[r] = rows[r], rows[rank]
                    sign = -sign
                break
        else:
            continue
        yr, yi = rows[rank]
        pr, pi = yr[col], yi[col]
        below = range(rank + 1, count)
        # x <- (pivot * x - f * y) / prev on the other rows: the division is
        # exact (Sylvester's identity), done as multiplication by the
        # conjugate of prev and floor division by its norm
        for r in chain(range(rank), below) if clear_above else below:
            xr, xi = rows[r]
            fr, fi = xr[col], xi[col]
            for j in range(col + 1, width):
                nr = pr * xr[j] - pi * xi[j] - fr * yr[j] + fi * yi[j]
                ni = pr * xi[j] + pi * xr[j] - fr * yi[j] - fi * yr[j]
                xr[j] = (nr * prev_re + ni * prev_im) // norm
                xi[j] = (ni * prev_re - nr * prev_im) // norm
        prev_re, prev_im, norm = pr, pi, pr * pr + pi * pi
        pivots.append(col)
        if rank + 1 == count:
            break
    return pivots, sign, (prev_re, prev_im)


def _require_int(value, what):
    """Refuse anything but an int, bool included, as the scalars do."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError("%s must be an int, got a %s" % (what, type(value).__name__))


def _bad_row(row):
    kind = type(row).__name__
    raise TypeError("a matrix row must be a list or tuple, got a %s" % kind)


@dataclass(frozen=True)
class IndexProfile:
    """Smallest k with rank A^(k+1) = rank A^k, together with r = rank A^k."""

    k: int
    r: int


class CMatrix:
    """An immutable rows x cols matrix of GaussianRational entries."""

    __slots__ = ("_data", "_rows", "_cols")

    def __init__(self, rows):
        parse = GaussianRational.parse
        data = tuple(
            tuple(map(parse, row)) if isinstance(row, (list, tuple)) else _bad_row(row)
            for row in rows
        )
        if not data or not data[0]:
            raise ShapeError("a matrix needs at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ShapeError("all rows must have the same length")
        self._data = data
        self._rows = len(data)
        self._cols = width

    @classmethod
    def _of(cls, data):
        """The matrix with entries ``data``, a non-empty tuple of equally
        long row tuples of GaussianRational that the package built itself,
        without the checks of the public constructor."""
        matrix = _new(cls)
        matrix._data = data
        matrix._rows = len(data)
        matrix._cols = len(data[0])
        return matrix

    @classmethod
    def identity(cls, n: int) -> "CMatrix":
        _require_int(n, "matrix size")
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "CMatrix":
        _require_int(rows, "row count")
        _require_int(cols, "column count")
        return cls([[ZERO] * cols for _ in range(rows)])

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def data(self):
        """Entries as a tuple of row tuples (0-based, for internal-style access)."""
        return self._data

    @property
    def is_square(self) -> bool:
        return self._rows == self._cols

    @property
    def is_zero(self) -> bool:
        return all(not v for row in self._data for v in row)

    def entry(self, i: int, j: int) -> GaussianRational:
        """Entry in row i, column j (1-based)."""
        self._check_row_index(i)
        self._check_col_index(j)
        return self._data[i - 1][j - 1]

    def row(self, i: int):
        """Row i (1-based) as a tuple."""
        self._check_row_index(i)
        return self._data[i - 1]

    def col(self, j: int):
        """Column j (1-based) as a tuple."""
        self._check_col_index(j)
        return tuple(row[j - 1] for row in self._data)

    def _check_row_index(self, i: int) -> None:
        _require_int(i, "row index")
        if not 1 <= i <= self._rows:
            raise IndexError("row index %r out of range 1..%d" % (i, self._rows))

    def _check_col_index(self, j: int) -> None:
        _require_int(j, "column index")
        if not 1 <= j <= self._cols:
            raise IndexError("column index %r out of range 1..%d" % (j, self._cols))

    def transpose(self) -> "CMatrix":
        return CMatrix._of(tuple(zip(*self._data)))

    # --- arithmetic ---

    def __add__(self, other):
        if not isinstance(other, CMatrix):
            return NotImplemented
        if (self._rows, self._cols) != (other._rows, other._cols):
            raise ShapeError(
                "cannot add %dx%d and %dx%d matrices"
                % (self._rows, self._cols, other._rows, other._cols)
            )
        return CMatrix._of(
            tuple(
                tuple([a + b for a, b in zip(ra, rb)])
                for ra, rb in zip(self._data, other._data)
            )
        )

    def __sub__(self, other):
        if not isinstance(other, CMatrix):
            return NotImplemented
        return self.__add__(-other)

    def __neg__(self):
        return CMatrix._of(tuple(tuple([-v for v in row]) for row in self._data))

    def __mul__(self, other):
        if isinstance(other, CMatrix):
            raise TypeError("use @ for matrix products, * is scalar only")
        scalar = GaussianRational._coerce(other)
        if scalar is None:
            return NotImplemented
        return CMatrix._of(
            tuple(tuple([v * scalar for v in row]) for row in self._data)
        )

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, CMatrix):
            return NotImplemented
        return _divided_product(self, other, ONE)

    def __pow__(self, power):
        if not self.is_square:
            raise ShapeError("only square matrices have powers")
        _require_int(power, "matrix power")
        if power < 0:
            raise ValueError("matrix power must be a nonnegative integer")
        result = CMatrix.identity(self._rows)
        for _ in range(power):
            result = result @ self
        return result

    def __eq__(self, other):
        if not isinstance(other, CMatrix):
            return NotImplemented
        return self._data == other._data

    def __hash__(self):
        return hash(self._data)

    # --- elimination-based quantities ---

    def det(self) -> GaussianRational:
        """Determinant by fraction-free (Bareiss) elimination over the
        Gaussian integers: the last pivot of the row-scaled matrix, with the
        sign of the row swaps, divided by the product of the row scales."""
        if not self.is_square:
            raise ShapeError("determinant of a non-square matrix")
        scaled = _gaussian_integers(self._data)
        rows = [(re, im) for _, re, im in scaled]
        pivots, sign, (dr, di) = _bareiss(rows, self._cols)
        if len(pivots) < self._rows:
            return ZERO
        scale = sign * prod(q for q, _, _ in scaled)
        return GaussianRational(Fraction(dr, scale), Fraction(di, scale))

    def rank(self) -> int:
        """Rank by fraction-free (Bareiss) elimination over the Gaussian
        integers, after scaling each row to integer entries."""
        return _rank(_gaussian_integers(self._data))

    # --- row/column surgery ---

    def _coerce_vector(self, values, expected_len, what):
        vec = tuple(GaussianRational.parse(v) for v in values)
        if len(vec) != expected_len:
            raise ShapeError(
                "replacement %s needs %d entries, got %d" % (what, expected_len, len(vec))
            )
        return vec

    def replace_col(self, j: int, values) -> "CMatrix":
        """Copy of the matrix with column j (1-based) replaced."""
        self._check_col_index(j)
        vec = self._coerce_vector(values, self._rows, "column")
        return CMatrix(
            tuple(
                tuple(vec[r] if c == j - 1 else row[c] for c in range(self._cols))
                for r, row in enumerate(self._data)
            )
        )

    def replace_row(self, i: int, values) -> "CMatrix":
        """Copy of the matrix with row i (1-based) replaced."""
        self._check_row_index(i)
        vec = self._coerce_vector(values, self._cols, "row")
        return CMatrix(
            tuple(vec if r == i - 1 else row for r, row in enumerate(self._data))
        )

    def __str__(self):
        body = [[str(v) for v in row] for row in self._data]
        widths = [max(len(body[r][c]) for r in range(self._rows)) for c in range(self._cols)]
        lines = [
            "[" + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + "]"
            for row in body
        ]
        return "\n".join(lines)

    def __repr__(self):
        return "CMatrix(%r)" % ([[str(v) for v in row] for row in self._data],)


def _divided_product(left: CMatrix, right: CMatrix, divisor) -> CMatrix:
    """(left @ right) / divisor, one Fraction pair per entry."""
    if left._cols != right._rows:
        raise ShapeError(
            "cannot multiply %dx%d by %dx%d"
            % (left._rows, left._cols, right._rows, right._cols)
        )
    return _quotient(
        _gaussian_integers(left._data), _gaussian_integers(zip(*right._data)), divisor
    )


def _quotient(rows, columns, divisor) -> CMatrix:
    """The product of a row form and a column form divided by divisor, one
    Fraction pair per entry.

    Row i and column j hold Gaussian integers over q_i and p_j, so their
    dot product is s_r + s_i i over q_i p_j.  Writing
    divisor = (alpha + beta i) / gamma in integers, the entry is

        gamma (s_r + s_i i)(alpha - beta i) / (q_i p_j (alpha^2 + beta^2)).
    """
    x, y, norm = _reciprocal(divisor)
    of = GaussianRational._of
    out = []
    for q, ar, ai in rows:
        qn = q * norm
        out.append(tuple([
            of(Fraction(sr * x + si * y, qn * p), Fraction(si * x - sr * y, qn * p))
            for sr, si, (p, _, _) in zip(*_dots(ar, ai, columns), columns)
        ]))
    return CMatrix._of(tuple(out))


def hstack(left: CMatrix, right: CMatrix) -> CMatrix:
    """Augment two matrices side by side."""
    if left.rows != right.rows:
        raise ShapeError("hstack needs matching row counts")
    return CMatrix(tuple(a + b for a, b in zip(left.data, right.data)))


def vstack(top: CMatrix, bottom: CMatrix) -> CMatrix:
    """Stack two matrices vertically."""
    if top.cols != bottom.cols:
        raise ShapeError("vstack needs matching column counts")
    return CMatrix(top.data + bottom.data)


def range_contained(m: CMatrix, n: CMatrix) -> bool:
    """True iff the column space of m lies inside the column space of n.

    Decided exactly: appending m's columns to n cannot raise the rank when
    they are already combinations of n's columns.
    """
    if m.rows != n.rows:
        raise ShapeError("range comparison needs matching row counts")
    return hstack(n, m).rank() == n.rank()

def nullspace_contained(n_of: CMatrix, m: CMatrix) -> bool:
    """True iff the nullspace of m contains the nullspace of n_of.

    Equivalent to every row of m being a combination of n_of's rows, so the
    stacked matrix has the same rank as n_of alone.
    """
    if m.cols != n_of.cols:
        raise ShapeError("nullspace comparison needs matching column counts")
    return vstack(n_of, m).rank() == n_of.rank()
