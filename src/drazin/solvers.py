"""Cramer-style solvers for the restricted equations AX = B, XA = B, AXB = D.

Each solver returns the Drazin-inverse solution (A^D B, B A^D, or
A^D D B^D) with every entry produced directly as an exact ratio of minor
sums; no inverse is formed first.  The sums come from the per-matrix
numerator B_(r-1) of ``inverses._prepare``: column-replaced sums over the
columns of a matrix M are the entries of B_(r-1) M, row-replaced ones
those of M B_(r-1).  The products run on Z[i] forms, with the
right-hand side scaled once for them.  Each one-sided solution is one
integer product over the form of A^k B or B A^k divided by c_r in the
same loop; the two-sided one keeps A^k D B^k, both intermediate
products and both orders' undivided results as row forms, and builds
Fractions only for the reported ``x``, ``db_columns`` and ``da_rows``.
``_prepare`` also applies the square check to each coefficient matrix;
the solvers check only that the right-hand side fits.  The reported
restriction flag states whether the right-hand side satisfies the
range/nullspace hypotheses under which that matrix genuinely solves the
unrestricted equation:

    AX = B    needs the column space of B inside that of A^k,
    XA = B    needs the nullspace of B to contain that of A^k,
    AXB = D   needs both conditions, against A^k1 and B^k2 respectively.

When a flag is false the returned matrix still solves the power-restricted
version of the system (with A^(k+1) X = A^k B and its analogues), which is
how the formulas are derived.  The flags compare the rank of A^k stacked
with the right-hand side against r = rank A^k, which the walk already
knows.

The two-sided solver evaluates both available representations, one that
reduces along B first (building the intermediate columns reported as
``db_columns``) and one that reduces along A first (``da_rows``), and
checks that they agree exactly, as canonical row forms, before
returning.  Both orders read the same two numerators, so the check
guards the assembly, not the minor sums; those are checked against the
enumeration in ``minors`` by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .inverses import _prepare
from .matrices import (
    CMatrix,
    IndexProfile,
    ShapeError,
    _from_rows,
    _gaussian_integers,
    _row_product,
    _transposed,
    hstack,
    vstack,
)
from .scalars import GaussianRational


@dataclass(frozen=True)
class SolveReport:
    """Solution matrix plus the exact quantities used to build it.

    ``denominator`` is the minor sum dividing every entry (a product of two
    sums for the two-sided equation); rank-zero factors contribute 1.
    ``profile_b``, ``db_columns`` and ``da_rows`` are populated only by the
    two-sided solver.
    """

    x: CMatrix
    restriction_satisfied: bool
    profile_a: IndexProfile
    denominator: GaussianRational
    profile_b: Optional[IndexProfile] = None
    db_columns: Optional[tuple] = None
    da_rows: Optional[tuple] = None


def solve_ax(a: CMatrix, b: CMatrix) -> SolveReport:
    """Solve A X = B for the Drazin solution X = (Drazin inverse of A) B."""
    if b.rows != a.rows:
        raise ShapeError("right-hand side must have as many rows as A")
    prepared = _prepare(a)
    flag = hstack(prepared.power_k, b).rank() == prepared.profile.r
    x = prepared.inverse_times(_gaussian_integers(zip(*b.data)))
    return SolveReport(x, flag, prepared.profile, prepared.denominator)


def solve_vector(a: CMatrix, y) -> tuple:
    """Single-column specialization of solve_ax, returning a tuple of scalars."""
    column = CMatrix([[GaussianRational.parse(v)] for v in y])
    return solve_ax(a, column).x.col(1)


def solve_xa(a: CMatrix, b: CMatrix) -> SolveReport:
    """Solve X A = B for the Drazin solution X = B (Drazin inverse of A)."""
    if b.cols != a.rows:
        raise ShapeError("right-hand side must have as many columns as A")
    prepared = _prepare(a)
    flag = vstack(prepared.power_k, b).rank() == prepared.profile.r
    x = prepared.times_inverse(_gaussian_integers(b.data))
    return SolveReport(x, flag, prepared.profile, prepared.denominator)


def solve_axb(a: CMatrix, b: CMatrix, d: CMatrix) -> SolveReport:
    """Solve A X B = D for X = (Drazin inverse of A) D (Drazin inverse of B).

    Both reduction orders are evaluated and compared; the intermediate
    vectors of each (the columns built through B's minors and the rows built
    through A's minors) are returned in the report.
    """
    if (d.rows, d.cols) != (a.rows, b.rows):
        raise ShapeError(
            "right-hand side must be %dx%d, got %dx%d"
            % (a.rows, b.rows, d.rows, d.cols)
        )
    pa = _prepare(a)
    pb = _prepare(b)
    den = pa.denominator * pb.denominator
    columns_d = _gaussian_integers(zip(*d.data))
    reduced = _row_product(_row_product(pa.rows_k, columns_d), _transposed(pb.rows_k))
    db = pb.row_sums(reduced)
    da = pa.col_sums(_transposed(reduced))
    via_b = pa.col_sums(_transposed(db))
    if via_b != pb.row_sums(da):
        raise RuntimeError(
            "representation mismatch: the two reduction orders disagree, "
            "which signals a bug in the numerator assembly"
        )

    flag = (
        hstack(pa.power_k, d).rank() == pa.profile.r
        and vstack(pb.power_k, d).rank() == pb.profile.r
    )
    return SolveReport(
        _from_rows(via_b, den),
        flag,
        pa.profile,
        den,
        profile_b=pb.profile,
        db_columns=_from_rows(_transposed(db)).data,
        da_rows=_from_rows(da).data,
    )
