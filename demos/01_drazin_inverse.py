"""
Drazin and group inverses, computed exactly
===========================================

A singular matrix has no inverse, but every square matrix has a unique
Drazin inverse.  This walk-through computes one for a matrix of index 2,
shows that three independent computation routes land on the same answer,
and checks the defining axioms by direct substitution.
"""

from drazin import (
    CMatrix,
    drazin_col,
    drazin_oracle,
    drazin_row,
    group_inverse,
    index_of,
    projector_col,
    projector_row,
    verify_drazin,
)

# a 3x3 matrix whose rank keeps dropping until the second power
a = CMatrix([[2, 0, 0], ["-1*i", "1*i", "1*i"], ["-1*i", "-1*i", "-1*i"]])
print("A =")
print(a)

profile = index_of(a)
print("\nindex:", profile.k, " rank of A^k:", profile.r)

# route 1: column-replaced minor sums
outcome = drazin_col(a)
print("\nDrazin inverse (column form), common denominator", outcome.denominator)
print(outcome.inverse)

# route 2: row-replaced minor sums; route 3: the limit oracle, an exact
# solve of A^(2k+1) W = A^k with A^D = A^k W
assert drazin_row(a).inverse == outcome.inverse
assert drazin_oracle(a) == outcome.inverse
print("\nrow form and the limit oracle agree entrywise")

# the axioms pin the answer down uniquely, so this is a complete check
axioms = verify_drazin(a, outcome.inverse)
print("axioms hold:", axioms.all_hold)

# the two projectors coincide because the inverse commutes with A
assert projector_col(a) == projector_row(a)
print("\nprojector A^D A = A A^D =")
print(projector_col(a))

# a group inverse is the index-1 special case; this matrix has index 2
try:
    group_inverse(a)
except ValueError as exc:
    print("\ngroup inverse refused:", exc)

b = CMatrix([[1, -1, 1], ["1*i", "-1*i", "1*i"], [-1, 1, 2]])
print("\nB (index 1) group inverse:")
print(group_inverse(b).inverse)
