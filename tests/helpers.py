"""Shared golden fixtures and deterministic random matrix builders."""

from fractions import Fraction

from drazin.matrices import CMatrix
from drazin.scalars import GaussianRational

# The worked 3x3 fixtures used throughout the test suite.
#
# A_IDX2 has index 2 with rank A_IDX2^2 = 1.  B_GRP has index 1 (group
# invertible) with rank 2.  D_RHS is the right-hand side paired with them
# in the two-sided equation A X B = D; B_GRP and D_RHS double as the
# coefficient and right-hand side of the worked one-sided systems and of
# the polynomial ODE example.
A_IDX2 = CMatrix([[2, 0, 0], [-1j, 1j, 1j], [-1j, -1j, -1j]])
B_GRP = CMatrix([[1, -1, 1], [1j, -1j, 1j], [-1, 1, 2]])
D_RHS = CMatrix([[1, 1j, 1], [1j, 0, 1], [1, 1j, 0]])

# (group inverse of B_GRP) @ D_RHS, the worked solution of B_GRP X = D_RHS
# and the constant coefficient of the worked polynomial ODE solution
GOLD_SOLVE_AX = CMatrix(
    [
        ["1/6+1/6*i", "-1/6-1/6*i", 0],
        ["-1/6+1/6*i", "1/6-1/6*i", 0],
        ["2/3", "-1/6+1/2*i", 0],
    ]
)

# the worked solution of A_IDX2 X B_GRP = D_RHS; every entry was recomputed
# from the defining minor sums and is pinned in the tests by the product
# identity A^3 X B^2 == A^2 D B and by the double inverse product
GOLD_SOLVE_AXB = CMatrix(
    [
        ["1/12+1/12*i", "-1/12-1/12*i", "1/6"],
        ["1/12", "-1/12", "1/12-1/12*i"],
        ["-1/12*i", "1/12*i", "-1/12-1/12*i"],
    ]
)

# t-coefficient of the worked polynomial solution of X' + B_GRP X = D_RHS
GOLD_ODE_T_COEFF = CMatrix(
    [
        [0, "1/2+1/2*i", 1],
        [0, "1/2+1/2*i", 1],
        [0, 0, 0],
    ]
)

# intermediate columns of the worked two-sided reduction, one per column of X
GOLD_DB_COLUMNS = (
    (GaussianRational(12, -12), GaussianRational(0, -12), GaussianRational(-12)),
    (GaussianRational(-12, 12), GaussianRational(0, 12), GaussianRational(12)),
    (GaussianRational(0, -24), GaussianRational(-12, -12), GaussianRational(-12, 12)),
)


def rand_scalar(rng, bound=3):
    """A Gaussian integer with components in [-bound, bound]."""
    return GaussianRational(rng.randint(-bound, bound), rng.randint(-bound, bound))


def rand_matrix(rng, rows, cols=None, bound=3):
    cols = rows if cols is None else cols
    return CMatrix([[rand_scalar(rng, bound) for _ in range(cols)] for _ in range(rows)])


def rand_singular(rng, n):
    """A singular n x n Gaussian-integer matrix as a rank-deficient product."""
    inner = rng.randint(1, n - 1)
    left = rand_matrix(rng, n, inner, bound=2)
    right = rand_matrix(rng, inner, n, bound=2)
    return left @ right


def rand_invertible(rng, n):
    while True:
        m = rand_matrix(rng, n, bound=2)
        if m.det():
            return m


def unimodular_pair(rng, n, shears=4):
    """An integer matrix with determinant 1 and its exact inverse.

    Both are products of elementary shears, so the inverse stays integral.
    """
    m = CMatrix.identity(n)
    m_inv = CMatrix.identity(n)
    for _ in range(shears):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        shear = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        shear[i][j] = c
        unshear = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        unshear[i][j] = -c
        m = m @ CMatrix(shear)
        m_inv = CMatrix(unshear) @ m_inv
    return m, m_inv


def _conjugated(rng, block_rows):
    n = len(block_rows)
    s, s_inv = unimodular_pair(rng, n)
    return s @ CMatrix(block_rows) @ s_inv


def rand_with_index(rng, n, index):
    """A singular n x n Gaussian-integer matrix with the exact given index.

    Similarity image of diag(C, N): C is a random invertible core and N the
    nilpotent Jordan block of the requested index (1 or 2).  The conjugating
    matrix is unimodular, so entries stay Gaussian integers.
    """
    assert index in (1, 2) and index <= n
    core = n - index
    block = [[0] * n for _ in range(n)]
    if core:
        inv_core = rand_invertible(rng, core)
        for a in range(core):
            for b in range(core):
                block[a][b] = inv_core.data[a][b]
    if index == 2:
        block[core][core + 1] = 1
    return _conjugated(rng, block)


def rand_nilpotent(rng, n):
    """A nonzero nilpotent n x n matrix (conjugated strict upper triangle)."""
    assert n >= 2, "the only 1x1 nilpotent matrix is zero"
    while True:
        block = [
            [rand_scalar(rng, 2) if b > a else 0 for b in range(n)]
            for a in range(n)
        ]
        m = _conjugated(rng, block)
        if not m.is_zero:
            return m


def reachable_profiles(max_n):
    """Every (n, r, k) an n x n matrix can have, for n = 1..max_n.

    k = 0 forces r = n (invertible); a positive index k leaves room for an
    invertible core of any size r <= n - k beside the nilpotent part.
    """
    return [
        (n, r, k)
        for n in range(1, max_n + 1)
        for k in range(n + 1)
        for r in ((n,) if k == 0 else range(n - k + 1))
    ]


def rand_with_profile(rng, n, r, k):
    """An n x n Gaussian-integer matrix with index exactly k and rank A^k = r.

    Similarity image of diag(C, N) for any reachable profile, including
    index 3 and above with a nonzero core: C is a random invertible r x r
    core and N an (n - r) x (n - r) nilpotent matrix made of Jordan blocks
    of size at most k, the first of size exactly k.  The conjugating matrix
    is unimodular, so entries stay Gaussian integers.
    """
    assert (n, r, k) in reachable_profiles(n)
    block = [[0] * n for _ in range(n)]
    if r:
        core = rand_invertible(rng, r)
        for a in range(r):
            for b in range(r):
                block[a][b] = core.data[a][b]
    start, size = r, k
    while start < n:
        for p in range(start, start + size - 1):
            block[p][p + 1] = 1
        start += size
        size = rng.randint(1, min(k, n - start)) if start < n else 0
    s, s_inv = unimodular_pair(rng, n, shears=2 * n)
    return s @ CMatrix(block) @ s_inv


def rational_similar(rng, a):
    """D A D^-1 for a diagonal D of random p/q with 1 <= p, q <= 2^16.

    Entry (i, j) is a_ij d_i / d_j, so the similarity keeps (n, r, k)
    exact while putting denominators into the off-diagonal entries.
    """
    d = [Fraction(rng.randint(1, 2**16), rng.randint(1, 2**16)) for _ in range(a.rows)]
    return CMatrix(
        [[v * (d[i] / d[j]) for j, v in enumerate(row)] for i, row in enumerate(a.data)]
    )
