"""Closed-form polynomial solutions of X' + AX = B and X' + XA = B.

For a singular coefficient matrix the partial solution (free term set to
zero) of X' + AX = B is the degree-k polynomial

    X(t) = A^D B + sum over m = 1..k of
           ((-1)^(m-1) / m!) (A^(m-1) B - A^D A^m B) t^m,

where k is the index of A; an invertible A gives the constant A^(-1) B
(Campbell, Meyer & Rose, SIAM J. Appl. Math. 31, 1976).  The constant
term X0 = A^D B is the paper's Cramer solution of AX = B: every entry an
exact ratio of column-replaced minor sums over A^k B, read from the
per-matrix numerator of ``inverses._prepare``, the kernel shared with the
inverses and solvers.  The higher coefficients follow from that one
solve: since A^D A^m B = A^(m-1) A X0, the t^1 coefficient is B - A X0
and each next one is A times the previous divided by -m, one integer
product with the division folded in.  The right-sided equation
X' + XA = B is the mirror image, from the row-replaced sums over B A^k.
``_partial`` checks that A is square and that B fits before it walks A,
and returns the prepared object with the series, so the command line
reports the profile and denominator from the same one.

The residual helpers substitute a polynomial back into the equation and
return X'(t) + AX(t) - B exactly; for the polynomials built here the
result is identically zero, which is the decisive correctness check.
"""

from __future__ import annotations

from .inverses import _prepare, _require_square
from .matrices import CMatrix, ShapeError, _divided_product, _gaussian_integers
from .scalars import GaussianRational, ScalarPolynomial


class MatrixPolynomial:
    """Polynomial in one scalar variable with matrix coefficients.

    Coefficients are stored lowest degree first with trailing zero matrices
    trimmed; the zero polynomial keeps its shape but has no stored
    coefficients and degree -1.  Supports exact differentiation, addition,
    scalar multiplication, and matrix products from either side.
    """

    __slots__ = ("_coeffs", "_rows", "_cols", "_variable")

    def __init__(self, coefficients=(), rows=None, cols=None, variable="t"):
        coeffs = [
            c if isinstance(c, CMatrix) else CMatrix(c) for c in coefficients
        ]
        if coeffs:
            if rows is None:
                rows = coeffs[0].rows
            if cols is None:
                cols = coeffs[0].cols
            for c in coeffs:
                if c.rows != rows or c.cols != cols:
                    raise ShapeError("coefficient matrices must share dimensions")
        elif rows is None or cols is None:
            raise ValueError("a zero polynomial needs explicit dimensions")
        while coeffs and coeffs[-1].is_zero:
            coeffs.pop()
        self._coeffs = tuple(coeffs)
        self._rows = rows
        self._cols = cols
        self._variable = variable

    @property
    def coefficients(self):
        return self._coeffs

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def variable(self) -> str:
        return self._variable

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, power: int) -> CMatrix:
        """Coefficient matrix of the given power, zero beyond the degree."""
        if 0 <= power < len(self._coeffs):
            return self._coeffs[power]
        return CMatrix.zeros(self._rows, self._cols)

    def entry_poly(self, i: int, j: int) -> ScalarPolynomial:
        """The (i, j) entry as a scalar polynomial (indices are 1-based)."""
        return ScalarPolynomial(
            tuple(c.entry(i, j) for c in self._coeffs), self._variable
        )

    def derivative(self) -> "MatrixPolynomial":
        derived = [
            c * GaussianRational(m)
            for m, c in enumerate(self._coeffs)
            if m >= 1
        ]
        return MatrixPolynomial(
            derived, rows=self._rows, cols=self._cols, variable=self._variable
        )

    def evaluate(self, value) -> CMatrix:
        """Exact value at a scalar point, by Horner's scheme."""
        point = GaussianRational.parse(value)
        result = CMatrix.zeros(self._rows, self._cols)
        for c in reversed(self._coeffs):
            result = result * point + c
        return result

    def transpose(self) -> "MatrixPolynomial":
        return MatrixPolynomial(
            [c.transpose() for c in self._coeffs],
            rows=self._cols,
            cols=self._rows,
            variable=self._variable,
        )

    def _promote(self, other):
        if isinstance(other, MatrixPolynomial):
            return other
        if isinstance(other, CMatrix):
            return MatrixPolynomial([other], variable=self._variable)
        return None

    def __add__(self, other):
        poly = self._promote(other)
        if poly is None:
            return NotImplemented
        if (poly._rows, poly._cols) != (self._rows, self._cols):
            raise ShapeError("cannot add polynomials of different shapes")
        width = max(len(self._coeffs), len(poly._coeffs))
        total = [
            self.coefficient(m) + poly.coefficient(m) for m in range(width)
        ]
        return MatrixPolynomial(
            total, rows=self._rows, cols=self._cols, variable=self._variable
        )

    __radd__ = __add__

    def __neg__(self):
        return MatrixPolynomial(
            [-c for c in self._coeffs],
            rows=self._rows,
            cols=self._cols,
            variable=self._variable,
        )

    def __sub__(self, other):
        poly = self._promote(other)
        if poly is None:
            return NotImplemented
        return self + (-poly)

    def __rsub__(self, other):
        poly = self._promote(other)
        if poly is None:
            return NotImplemented
        return poly + (-self)

    def __mul__(self, scalar):
        if isinstance(scalar, (CMatrix, MatrixPolynomial)):
            return NotImplemented
        return MatrixPolynomial(
            [c * scalar for c in self._coeffs],
            rows=self._rows,
            cols=self._cols,
            variable=self._variable,
        )

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, CMatrix):
            return NotImplemented
        return MatrixPolynomial(
            [c @ other for c in self._coeffs],
            rows=self._rows,
            cols=other.cols,
            variable=self._variable,
        )

    def __rmatmul__(self, other):
        if not isinstance(other, CMatrix):
            return NotImplemented
        return MatrixPolynomial(
            [other @ c for c in self._coeffs],
            rows=other.rows,
            cols=self._cols,
            variable=self._variable,
        )

    def __eq__(self, other):
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        return (
            self._coeffs == other._coeffs
            and (self._rows, self._cols) == (other._rows, other._cols)
        )

    def __hash__(self):
        return hash((self._coeffs, self._rows, self._cols))

    def __str__(self):
        cells = [
            [str(self.entry_poly(i, j)) for j in range(1, self._cols + 1)]
            for i in range(1, self._rows + 1)
        ]
        widths = [
            max(len(row[j]) for row in cells) for j in range(self._cols)
        ]
        return "\n".join(
            "[ " + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)) + " ]"
            for row in cells
        )

    def __repr__(self):
        return "MatrixPolynomial(%r)" % (list(self._coeffs),)


def ode_left_partial(a: CMatrix, b: CMatrix) -> MatrixPolynomial:
    """Partial polynomial solution of X' + AX = B.

    The constant term is the Drazin solution of AX = B, evaluated through
    column-replaced minor sums, and the t^m coefficient is
    ((-1)^(m-1)/m!)(A^(m-1)B - A^D A^m B), built from it.  The degree
    never exceeds the index of A, and an invertible A yields the constant
    solution of the algebraic system.
    """
    return _partial(a, b, left=True)[1]


def ode_right_partial(a: CMatrix, b: CMatrix) -> MatrixPolynomial:
    """Partial polynomial solution of X' + XA = B, via row-replaced sums."""
    return _partial(a, b, left=False)[1]


def _partial(a: CMatrix, b: CMatrix, left: bool):
    """(A's prepared object, the partial solution of X' + AX = B when
    ``left``, else of X' + XA = B).

    A's square check comes first, then B's shape, then the walk.  With
    X0 = A^D B, the t^m coefficient of the left solution is
    ((-1)^(m-1)/m!) A^(m-1) (B - A X0), so C_1 = B - A X0 and
    C_m = A C_(m-1) / (-m); the right one is the mirror image,
    C_1 = B - X0 A and C_m = C_(m-1) A / (-m).
    """
    _require_square(a)
    if b.rows != a.rows or b.cols != a.rows:
        raise ShapeError(
            "the right-hand side of %s must match the coefficient matrix"
            % ("X' + AX = B" if left else "X' + XA = B")
        )
    prepared = _prepare(a)
    k = prepared.profile.k
    if left:
        x0 = prepared.inverse_times(_gaussian_integers(zip(*b.data)))
        coeffs = [x0, b - a @ x0] if k else [x0]
        for m in range(2, k + 1):
            coeffs.append(_divided_product(a, coeffs[-1], GaussianRational(-m)))
    else:
        x0 = prepared.times_inverse(_gaussian_integers(b.data))
        coeffs = [x0, b - x0 @ a] if k else [x0]
        for m in range(2, k + 1):
            coeffs.append(_divided_product(coeffs[-1], a, GaussianRational(-m)))
    return prepared, MatrixPolynomial(coeffs, rows=a.rows, cols=a.rows)


def residual_left(a: CMatrix, b: CMatrix, x: MatrixPolynomial) -> MatrixPolynomial:
    """X'(t) + A X(t) - B, exactly; zero for the left partial solution."""
    return x.derivative() + a @ x - b


def residual_right(a: CMatrix, b: CMatrix, x: MatrixPolynomial) -> MatrixPolynomial:
    """X'(t) + X(t) A - B, exactly; zero for the right partial solution."""
    return x.derivative() + x @ a - b
