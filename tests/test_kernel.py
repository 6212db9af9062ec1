"""The per-matrix numerator kernel against the paper-literal minor sums.

``inverses._prepare`` builds B_(r-1), the coefficient of x^(n-r) in
adj(x I + A^(k+1)), and c_r by the Faddeev-LeVerrier recurrence.  Every
determinantal formula reads its minor sums from that one matrix, so here
it is compared entry by entry with the enumeration in ``minors`` and, end
to end, with the limit oracle, over every reachable (n, r, k) with
n <= 6.  Above that, index 3 and higher with a nonzero core is checked up
to n = 12 against the oracle and the axioms.  Every profile of index 2
and above with n <= 5 is also checked on a diagonal similarity image
with p/q scales, so the walk, the recurrence and the oracle run on rows
with denominators.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from drazin.inverses import (
    _prepare,
    drazin_col,
    drazin_oracle,
    drazin_row,
    verify_drazin,
)
from drazin.matrices import CMatrix, IndexProfile
from drazin.minors import (
    sum_minors_col_replaced,
    sum_minors_row_replaced,
    sum_principal_minors,
)
from drazin.scalars import ONE

from helpers import rand_scalar, rand_with_profile, rational_similar, reachable_profiles

PROFILES = reachable_profiles(6)


def check_kernel(n, r, k, rng, rational=False):
    a = rand_with_profile(rng, n, r, k)
    if rational:
        a = rational_similar(rng, a)
    prepared = _prepare(a)
    assert prepared.profile == IndexProfile(k, r)
    assert prepared.power_k == a ** k
    assert prepared.power_k1 == a ** (k + 1)
    s, numerator = prepared.power_k1, prepared.numerator
    if r == 0:
        assert numerator == CMatrix.zeros(n, n)
        assert prepared.denominator == ONE
    else:
        assert prepared.denominator == sum_principal_minors(s, r)
        b = [rand_scalar(rng) for _ in range(n)]
        column = CMatrix([[v] for v in b])
        row = CMatrix([b])
        by_col = (numerator @ column).col(1)
        by_row = (row @ numerator).row(1)
        for i in range(1, n + 1):
            assert by_col[i - 1] == sum_minors_col_replaced(s, i, b, r)
            assert by_row[i - 1] == sum_minors_row_replaced(s, i, b, r)
    assert drazin_col(a).inverse == drazin_oracle(a)
    return a


@pytest.mark.parametrize("n,r,k", PROFILES)
def test_kernel_matches_enumeration_on_every_profile(n, r, k):
    check_kernel(n, r, k, random.Random(1000 * n + 10 * r + k))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PROFILES), st.integers(0, 2**32 - 1))
def test_kernel_matches_enumeration_on_random_matrices(profile, seed):
    check_kernel(*profile, random.Random(seed))


RATIONAL_PROFILES = [(n, r, k) for n, r, k in reachable_profiles(5) if k >= 2]


@pytest.mark.parametrize("n,r,k", RATIONAL_PROFILES)
def test_kernel_matches_enumeration_on_rational_rows(n, r, k):
    a = check_kernel(n, r, k, random.Random(7000 + 100 * n + 10 * r + k), rational=True)
    assert any(v.re.denominator > 1 or v.im.denominator > 1 for row in a.data for v in row)
    column = drazin_col(a).inverse
    assert drazin_row(a).inverse == column
    assert drazin_oracle(a, power_first=True) == column
    assert verify_drazin(a, column).all_hold


def test_profiles_cover_index_three_with_a_nonzero_core():
    assert (6, 3, 3) in PROFILES and (5, 2, 3) in PROFILES
    assert len(PROFILES) == sum(1 + n * (n + 1) // 2 for n in range(1, 7))


# index >= 3 with a nonzero core, n = 7..12: for each index, the smallest
# and the largest core
HIGH_INDEX_PROFILES = sorted(
    {(n, r, k) for n in range(7, 13) for k in range(3, n) for r in (1, n - k)}
)


@pytest.mark.parametrize("n,r,k", HIGH_INDEX_PROFILES)
def test_high_index_profiles_above_the_cap_agree_with_the_oracle(n, r, k):
    a = rand_with_profile(random.Random(1000 * n + 10 * r + k), n, r, k)
    prepared = _prepare(a)
    column = drazin_col(a).inverse
    assert prepared.profile == IndexProfile(k, r)
    assert drazin_row(a).inverse == column
    assert drazin_oracle(a) == column
    assert drazin_oracle(a, power_first=True) == column
    assert verify_drazin(a, column).all_hold
