"""Values the package builds itself skip the public constructors' checks.

``GaussianRational._of`` and ``CMatrix._of`` take parts and rows the
package made, so nothing re-validates them.  Every matrix a public entry
point or a ``CMatrix`` operator returns must still look exactly like one
the public constructor would build: row tuples of GaussianRational whose
parts are ``Fraction`` in lowest terms, equal to and hashing like
``CMatrix(m.data)``.  An ``int`` part would compare and hash equal, so the
part types are checked directly.
"""

import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from drazin.inverses import (
    drazin_col,
    drazin_oracle,
    drazin_row,
    group_inverse,
    projector_col,
    projector_row,
)
from drazin.matrices import CMatrix
from drazin.ode import ode_left_partial, ode_right_partial
from drazin.scalars import GaussianRational
from drazin.solvers import solve_ax, solve_axb, solve_xa

from helpers import rand_matrix, rand_with_profile, rational_similar, reachable_profiles

PROFILES = reachable_profiles(4)


def check_scalar(v):
    assert type(v) is GaussianRational
    for part in (v.re, v.im):
        assert type(part) is Fraction
        assert part.denominator > 0 and gcd(part.numerator, part.denominator) == 1


def check_rows(rows):
    assert type(rows) is tuple and rows
    for row in rows:
        assert type(row) is tuple and len(row) == len(rows[0])
        for v in row:
            check_scalar(v)


def check_matrix(m):
    assert type(m) is CMatrix
    check_rows(m.data)
    rebuilt = CMatrix(m.data)
    assert (m.rows, m.cols) == (rebuilt.rows, rebuilt.cols)
    assert m == rebuilt and hash(m) == hash(rebuilt)


def returned_matrices(a, rng):
    """Every matrix the entry points return for A, with right-hand sides
    drawn from rng."""
    n = a.rows
    b, d, e = rand_matrix(rng, n), rand_matrix(rng, n, 2), rand_matrix(rng, 2)
    if rng.random() < 0.5:
        b = rational_similar(rng, b)
    out = [
        drazin_col(a).inverse,
        drazin_row(a).inverse,
        drazin_oracle(a),
        drazin_oracle(a, power_first=True),
        projector_col(a),
        projector_row(a),
        solve_ax(a, b).x,
        solve_xa(a, b).x,
    ]
    if drazin_col(a).profile.k <= 1:
        out.append(group_inverse(a).inverse)
    two_sided = solve_axb(a, e, d)
    check_rows(two_sided.db_columns)
    check_rows(two_sided.da_rows)
    out.append(two_sided.x)
    for partial in (ode_left_partial, ode_right_partial):
        out.extend(partial(a, b).coefficients)
    x = out[0]
    out += [a + x, a - x, -x, x * GaussianRational(2, -1), 3 * x, x * Fraction(1, 3),
            a @ x, x.transpose(), d.transpose(), a ** 2]
    return out


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PROFILES), st.booleans(), st.integers(0, 2**32 - 1))
def test_every_returned_matrix_is_normalised(profile, rational, seed):
    rng = random.Random(seed)
    a = rand_with_profile(rng, *profile)
    if rational:
        a = rational_similar(rng, a)
    for m in returned_matrices(a, rng):
        check_matrix(m)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(1, 50)), min_size=4, max_size=4))
def test_scalar_operators_return_normalised_fractions(parts):
    v, w = (GaussianRational(Fraction(*parts[i]), Fraction(*parts[i + 1])) for i in (0, 2))
    results = [v + w, v - w, v * w, -v, v.conjugate(), v + 1, 2 - v, v * 3, Fraction(1, 2) * v]
    if w:
        results += [v / w, 1 / w]
    for r in results:
        check_scalar(r)
