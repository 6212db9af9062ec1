"""The benchmark's own exact arithmetic over the Gaussian rationals.

Scalars are (re, im) pairs of Fractions and matrices are sequences of rows.
Both the input generator and the output checks use this module, so neither
depends on the package whose speed and results are being measured.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def bits(re, im):
    """Widest numerator or denominator of a Gaussian rational's parts."""
    return max(re.numerator.bit_length(), re.denominator.bit_length(),
               im.numerator.bit_length(), im.denominator.bit_length())


def g_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def g_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def g_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def g_div(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    return (
        (a[0] * b[0] + a[1] * b[1]) / norm,
        (a[1] * b[0] - a[0] * b[1]) / norm,
    )


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def zeros(rows, cols):
    return [[ZERO] * cols for _ in range(rows)]


def _integral(m):
    """(d, rows of (re, im) integer pairs) with m = rows / d, d the least
    common denominator of m."""
    d = lcm(*(c.denominator for row in m for x in row for c in x))
    return d, [
        [(x[0].numerator * (d // x[0].denominator), x[1].numerator * (d // x[1].denominator))
         for x in row]
        for row in m
    ]


def matmul(a, b):
    """Product over a common denominator: integer dot products, then one
    reduction per entry."""
    da, ai = _integral(a)
    db, bi = _integral(b)
    d = da * db
    cols = list(zip(*bi))
    out = []
    for row in ai:
        out_row = []
        for col in cols:
            re = im = 0
            for (p, q), (s, t) in zip(row, col):
                re += p * s - q * t
                im += p * t + q * s
            out_row.append((Fraction(re, d), Fraction(im, d)))
        out.append(out_row)
    return out


def power(a, k):
    out = identity(len(a))
    for _ in range(k):
        out = matmul(out, a)
    return out


def add(a, b):
    return [[g_add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def sub(a, b):
    return [[g_sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(a, c):
    return [[g_mul(x, c) for x in row] for row in a]


def equal(a, b):
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def is_zero(a):
    return all(x == ZERO for row in a for x in row)


def hstack(a, b):
    return [list(ra) + list(rb) for ra, rb in zip(a, b)]


def vstack(a, b):
    return [list(r) for r in a] + [list(r) for r in b]


def rank(m):
    """Rank by fraction-free elimination on the rows scaled to Gaussian
    integers; each updated row is divided by the gcd of its components."""
    rows = []
    for row in m:
        d = lcm(*(c.denominator for x in row for c in x))
        rows.append([(x[0].numerator * (d // x[0].denominator),
                      x[1].numerator * (d // x[1].denominator)) for x in row])
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != (0, 0)), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p0, p1 = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            f0, f1 = rows[r][col]
            if (f0, f1) == (0, 0):
                continue
            updated = [
                (p0 * x0 - p1 * x1 - f0 * y0 + f1 * y1, p0 * x1 + p1 * x0 - f0 * y1 - f1 * y0)
                for (x0, x1), (y0, y1) in zip(rows[r], rows[rank])
            ]
            g = gcd(*(c for x in updated for c in x))
            if g > 1:
                updated = [(x0 // g, x1 // g) for x0, x1 in updated]
            rows[r] = updated
        rank += 1
    return rank


def det(m):
    """Determinant by exact Gaussian elimination."""
    work = [list(row) for row in m]
    n = len(work)
    value = ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != ZERO), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            value = (-value[0], -value[1])
        p = work[col][col]
        value = g_mul(value, p)
        for r in range(col + 1, n):
            if work[r][col] != ZERO:
                factor = g_div(work[r][col], p)
                work[r] = [g_sub(x, g_mul(factor, y)) for x, y in zip(work[r], work[col])]
    return value


def invert(m):
    """Exact inverse by Gauss-Jordan elimination, or None when singular."""
    n = len(m)
    eye = identity(n)
    work = [list(row) + eye[i] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != ZERO), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        p = work[col][col]
        work[col] = [g_div(v, p) for v in work[col]]
        for r in range(n):
            factor = work[r][col]
            if r != col and factor != ZERO:
                work[r] = [g_sub(v, g_mul(factor, w)) for v, w in zip(work[r], work[col])]
    return [row[n:] for row in work]
