"""Correctness checks for every output, in the benchmark's own arithmetic.

Each check returns a list of failure messages, empty when the output is
right.  The generator knows every input's exact index k and core rank r
and the determinant of its core C, which give independent expectations:

- an inverse must satisfy the four Drazin axioms for that k, and the
  column and row routes must agree;
- every minor-sum denominator equals det(C)^(k+1), the sum of the order-r
  principal minors of A^(k+1) = P (C^(k+1) + 0) P^-1;
- solve_ax must satisfy A^(k+1) X = A^k B with the columns of X in the
  range of A^k (which makes X = A^D B unique), and solve_xa and solve_axb
  the mirrored identities;
- an ODE solution must leave a zero residual, with a constant term in the
  range (or row space) of A^k, which singles out the partial solution;
- the projector must equal A^D A for the generator's exact A^D.

Outputs are also hashed (``Digest``) so that two runs, or a parent commit
and its change, can be shown to have computed the same results.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, is_dataclass
from fractions import Fraction

import exact
from exact import ONE, equal, hstack, matmul, rank, vstack


class Facts:
    """Powers and expectations of one generated square matrix, computed once."""

    def __init__(self, gen):
        self.a = gen.a
        self.k = gen.k
        self.r = gen.r
        self.drazin = gen.drazin
        self.ak = exact.power(gen.a, gen.k)
        self.ak1 = matmul(self.ak, gen.a)
        den = ONE
        if gen.r:
            for _ in range(gen.k + 1):
                den = exact.g_mul(den, gen.core_det)
        self.denominator = den


def raw(m):
    """A CMatrix as (re, im) rows."""
    return [[(v.re, v.im) for v in row] for row in m.data]


def scalar_raw(v):
    return (v.re, v.im)


def json_scalar(pair):
    return (Fraction(pair[0]), Fraction(pair[1]))


def json_matrix(obj):
    cols = obj["cols"]
    values = [json_scalar(p) for p in obj["entries"]]
    return [values[i * cols:(i + 1) * cols] for i in range(obj["rows"])]


def profile_failures(facts, k, r, what="profile"):
    if (k, r) != (facts.k, facts.r):
        return ["%s (k, r) = (%d, %d), expected (%d, %d)" % (what, k, r, facts.k, facts.r)]
    return []


def denominator_failures(expected, got):
    return [] if got == expected else ["denominator differs from det(C)^(k+1)"]


def inverse_failures(f, x):
    out = []
    if not equal(matmul(f.ak1, x), f.ak):
        out.append("A^(k+1) X != A^k")
    ax = matmul(f.a, x)
    if not equal(matmul(x, ax), x):
        out.append("X A X != X")
    if not equal(ax, matmul(x, f.a)):
        out.append("A X != X A")
    if not equal(matmul(x, f.ak1), f.ak):
        out.append("X A^(k+1) != A^k")
    return out


def in_range(f, x):
    """Columns of x lie in the range of A^k."""
    return rank(hstack(f.ak, x)) == f.r


def in_row_space(f, x):
    """Rows of x lie in the row space of A^k."""
    return rank(vstack(f.ak, x)) == f.r


def solve_ax_failures(f, b, x, flag):
    out = []
    if not equal(matmul(f.ak1, x), matmul(f.ak, b)):
        out.append("A^(k+1) X != A^k B")
    if not in_range(f, x):
        out.append("columns of X leave the range of A^k")
    if flag != in_range(f, b):
        out.append("wrong restriction flag")
    return out


def solve_xa_failures(f, b, x, flag):
    out = []
    if not equal(matmul(x, f.ak1), matmul(b, f.ak)):
        out.append("X A^(k+1) != B A^k")
    if not in_row_space(f, x):
        out.append("rows of X leave the row space of A^k")
    if flag != in_row_space(f, b):
        out.append("wrong restriction flag")
    return out


def solve_axb_failures(fa, fb, d, x, flag):
    out = []
    if not equal(matmul(matmul(fa.ak1, x), fb.ak1), matmul(matmul(fa.ak, d), fb.ak)):
        out.append("A^(k1+1) X B^(k2+1) != A^k1 D B^k2")
    if not in_range(fa, x):
        out.append("columns of X leave the range of A^k1")
    if not in_row_space(fb, x):
        out.append("rows of X leave the row space of B^k2")
    if flag != (in_range(fa, d) and in_row_space(fb, d)):
        out.append("wrong restriction flag")
    return out


def ode_failures(f, b, coeffs, left):
    """X' + AX - B = 0 (left) or X' + XA - B = 0, and the constant term in
    the range (left) or row space (right) of A^k."""
    n = len(f.a)
    coeffs = list(coeffs) or [exact.zeros(n, n)]
    out = []
    if len(coeffs) - 1 > f.k:
        out.append("degree %d exceeds the index %d" % (len(coeffs) - 1, f.k))
    for m, c in enumerate(coeffs):
        term = matmul(f.a, c) if left else matmul(c, f.a)
        if m + 1 < len(coeffs):
            term = exact.add(term, exact.scale(coeffs[m + 1], (Fraction(m + 1), Fraction(0))))
        if m == 0:
            term = exact.sub(term, b)
        if not exact.is_zero(term):
            out.append("nonzero residual at t^%d" % m)
    if not (in_range(f, coeffs[0]) if left else in_row_space(f, coeffs[0])):
        out.append("constant term is not the partial solution")
    return out


def projector_failures(f, p):
    return [] if equal(p, matmul(f.drazin, f.a)) else ["projector != A^D A"]


class Digest:
    """SHA-256 over a canonical encoding of outputs, in call order."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self.count = 0

    def add(self, name, output):
        self._hash.update(name.encode())
        self._hash.update(b"=")
        if isinstance(output, (bytes, str)):
            self._hash.update(output.encode() if isinstance(output, str) else output)
        else:
            self._hash.update(canonical(output).encode())
        self._hash.update(b";")
        self.count += 1

    def hexdigest(self):
        return self._hash.hexdigest()


def canonical(obj) -> str:
    """Exact text of a library result.  Integers are written in hex, which
    has no length limit, unlike the decimal conversion of huge integers."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return repr(obj)
    if isinstance(obj, Fraction):
        return "%x/%x" % (obj.numerator, obj.denominator)
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(canonical(v) for v in obj) + ")"
    if hasattr(obj, "re") and hasattr(obj, "im"):
        return canonical(obj.re) + "+" + canonical(obj.im) + "i"
    if hasattr(obj, "data") and hasattr(obj, "rows"):
        return "M%dx%d%s" % (obj.rows, obj.cols, canonical(obj.data))
    if hasattr(obj, "coefficients"):
        return "P%dx%d%s" % (obj.rows, obj.cols, canonical(obj.coefficients))
    if is_dataclass(obj):
        return type(obj).__name__ + canonical(
            tuple((f.name, getattr(obj, f.name)) for f in fields(obj))
        )
    raise TypeError("no canonical form for %r" % type(obj).__name__)

