"""Exact Drazin and group inverses with Cramer-style solvers.

Everything runs over Gaussian rationals (complex numbers with rational
components), so results are exact: inverses, the restricted solutions of
AX = B, XA = B and AXB = D, and polynomial solutions of the matrix
differential equations X' + AX = B and X' + XA = B.
"""

from .inverses import (
    DrazinAxioms,
    DrazinResult,
    GroupIndexError,
    drazin_col,
    drazin_oracle,
    drazin_row,
    group_inverse,
    index_of,
    projector_col,
    projector_row,
    verify_drazin,
)
from .matrices import (
    CMatrix,
    IndexProfile,
    ShapeError,
    hstack,
    nullspace_contained,
    range_contained,
    vstack,
)
from .minors import (
    index_subsets,
    index_subsets_containing,
    principal_minor,
    sum_minors_col_replaced,
    sum_minors_row_replaced,
    sum_principal_minors,
)
from .ode import (
    MatrixPolynomial,
    ode_left_partial,
    ode_right_partial,
    residual_left,
    residual_right,
)
from .scalars import (
    GaussianRational,
    ScalarPolynomial,
    poly_limit_at_zero,
)
from .solvers import SolveReport, solve_ax, solve_axb, solve_vector, solve_xa

__version__ = "0.1.0"

__all__ = [
    "CMatrix",
    "DrazinAxioms",
    "DrazinResult",
    "GaussianRational",
    "GroupIndexError",
    "IndexProfile",
    "MatrixPolynomial",
    "ScalarPolynomial",
    "ShapeError",
    "SolveReport",
    "drazin_col",
    "drazin_oracle",
    "drazin_row",
    "group_inverse",
    "hstack",
    "index_of",
    "index_subsets",
    "index_subsets_containing",
    "nullspace_contained",
    "ode_left_partial",
    "ode_right_partial",
    "poly_limit_at_zero",
    "principal_minor",
    "projector_col",
    "projector_row",
    "range_contained",
    "residual_left",
    "residual_right",
    "solve_ax",
    "solve_axb",
    "solve_vector",
    "solve_xa",
    "sum_minors_col_replaced",
    "sum_minors_row_replaced",
    "sum_principal_minors",
    "verify_drazin",
    "vstack",
]
