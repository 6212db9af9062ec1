"""Seeded input generator with exact (n, core rank, index) targets.

Every matrix is built as A = P (C + N) P^-1: C is an invertible r x r core,
N a nilpotent block of Jordan blocks whose largest has size k, and P a
permutation followed by elementary shears with Gaussian-integer
multipliers, so P^-1 is integral as well and A keeps the exact profile
(index k, rank A^k = r), including index 3 or more with a nonzero core.
The same similarity applied to C^-1 + 0 gives the exact Drazin inverse,
which the benchmark hands to ``verify_drazin`` as a true candidate.

Scalars are (re, im) pairs of Fractions and matrices are lists of rows
(see ``exact``); the generator never imports the package under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from exact import ONE, ZERO, det, g_add, g_mul, g_sub, invert


def small_scalar(rng, bound=2):
    """A nonzero Gaussian integer with components in [-bound, bound]."""
    while True:
        value = (Fraction(rng.randint(-bound, bound)), Fraction(rng.randint(-bound, bound)))
        if value != ZERO:
            return value


def _big_fraction(rng, low_bits, high_bits):
    num = rng.getrandbits(rng.randint(low_bits, high_bits)) | 1
    den = rng.getrandbits(rng.randint(low_bits, high_bits)) | 1
    return Fraction(num if rng.random() < 0.5 else -num, den)


def big_scalar(rng, low_bits=32, high_bits=128):
    """Both components rational, numerator and denominator drawn with
    low_bits to high_bits bits (before reduction)."""
    return (_big_fraction(rng, low_bits, high_bits), _big_fraction(rng, low_bits, high_bits))


def jordan_sizes(nil: int, k: int):
    """Nilpotent Jordan block sizes filling nil rows, the largest exactly k."""
    if nil == 0:
        if k != 0:
            raise ValueError("an invertible matrix has index 0")
        return []
    if not 1 <= k <= nil:
        raise ValueError("index %d impossible with a %d-row nilpotent part" % (k, nil))
    sizes = [k]
    rest = nil - k
    while rest:
        sizes.append(min(k, rest))
        rest -= sizes[-1]
    return sizes


@dataclass(frozen=True)
class Generated:
    """A square matrix with its exact profile, Drazin inverse and core
    determinant (the determinant of the empty core is 1)."""

    a: list
    drazin: list
    k: int
    r: int
    core_det: tuple


def profile_matrix(rng, n, r, k, scalar, shears) -> Generated:
    """A = P (C + N) P^-1 with the exact index k and rank A^k = r."""
    if not 0 <= r <= n or n < 2:
        raise ValueError("need n >= 2 and 0 <= r <= n, got n=%d r=%d" % (n, r))
    sizes = jordan_sizes(n - r, k)
    while True:
        core = [[scalar(rng) for _ in range(r)] for _ in range(r)]
        core_inv = invert(core)
        if core_inv is not None:
            break
    a = [[ZERO] * n for _ in range(n)]
    d = [[ZERO] * n for _ in range(n)]
    for i in range(r):
        for j in range(r):
            a[i][j] = core[i][j]
            d[i][j] = core_inv[i][j]
    start = r
    for size in sizes:
        for t in range(size - 1):
            a[start + t][start + t + 1] = ONE
        start += size
    order = list(range(n))
    rng.shuffle(order)
    a = [[a[i][j] for j in order] for i in order]
    d = [[d[i][j] for j in order] for i in order]
    # Similarity by the shear E = I + c e_i e_j: row i += c row j, then
    # column j -= c column i (multiplying by E^-1 on the right).
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        c = small_scalar(rng, 1)
        for m in (a, d):
            m[i] = [g_add(x, g_mul(c, y)) for x, y in zip(m[i], m[j])]
            for row in m:
                row[j] = g_sub(row[j], g_mul(c, row[i]))
    return Generated(a, d, k, r, det(core))


def rand_matrix(rng, rows, cols, scalar):
    return [[scalar(rng) for _ in range(cols)] for _ in range(rows)]


def case_rng(seed: int, workload: str, index: int) -> random.Random:
    """An independent stream per (workload, seed, case), so a case never
    depends on how many cases were generated before it."""
    return random.Random("%s/%d/%d" % (workload, seed, index))
