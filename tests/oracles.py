"""Brute-force reference implementations used only to cross-check the library.

Nothing here shares code with the paths under test beyond the scalar type:
determinants come from the permutation expansion, rank from exhaustive minor
search, products from entrywise dot products, nullspaces and inverses from a
separate elimination written for the tests.
"""

from itertools import combinations, permutations

from drazin.matrices import CMatrix
from drazin.scalars import GaussianRational, ONE, ZERO


def perm_det(m):
    """Determinant via the signed permutation expansion."""
    assert m.rows == m.cols
    n = m.rows
    data = m.data
    total = ZERO
    for perm in permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        term = ONE
        for r in range(n):
            term = term * data[r][perm[r]]
        total = total + (term if inversions % 2 == 0 else -term)
    return total


def minor_rank(m):
    """Rank as the largest order of a nonvanishing minor."""
    data = m.data
    for size in range(min(m.rows, m.cols), 0, -1):
        for rows in combinations(range(m.rows), size):
            for cols in combinations(range(m.cols), size):
                sub = CMatrix([[data[r][c] for c in cols] for r in rows])
                if perm_det(sub):
                    return size
    return 0


def rref(m):
    """Reduced row echelon form, returning (rows, pivot column indices)."""
    a = [list(row) for row in m.data]
    pivots = []
    lead = 0
    for col in range(m.cols):
        pivot_row = next((r for r in range(lead, m.rows) if a[r][col]), None)
        if pivot_row is None:
            continue
        a[lead], a[pivot_row] = a[pivot_row], a[lead]
        pivot = a[lead][col]
        a[lead] = [x / pivot for x in a[lead]]
        for r in range(m.rows):
            if r != lead and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[lead])]
        pivots.append(col)
        lead += 1
        if lead == m.rows:
            break
    return a, pivots


def nullspace_basis(m):
    """Basis of the right nullspace as a list of column tuples."""
    a, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * m.cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        basis.append(tuple(v))
    return basis


def invert(m):
    """Inverse of a nonsingular square matrix by Gauss-Jordan elimination."""
    assert m.rows == m.cols
    n = m.rows
    a = [list(row) + [ONE if r == c else ZERO for c in range(n)]
         for r, row in enumerate(m.data)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col]), None)
        if pivot_row is None:
            raise ZeroDivisionError("singular matrix has no inverse")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        pivot = a[col][col]
        a[col] = [x / pivot for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return CMatrix([row[n:] for row in a])


def product(a, b):
    """Matrix product as entrywise GaussianRational dot products."""
    assert a.cols == b.rows
    return CMatrix([
        [sum((a.data[i][t] * b.data[t][j] for t in range(a.cols)), ZERO)
         for j in range(b.cols)]
        for i in range(a.rows)
    ])


def apply_to_vector(m, vec):
    """m times a column vector given as a sequence, as a tuple."""
    vec = [GaussianRational.parse(v) for v in vec]
    assert len(vec) == m.cols
    return tuple(
        sum((a * b for a, b in zip(row, vec)), ZERO) for row in m.data
    )
