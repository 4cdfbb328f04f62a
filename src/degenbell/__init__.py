"""Exact computation of deformed Stirling triangles and Bell-type polynomial
families, cross-checked three independent ways: triangle recurrences,
generating-function series, and operator calculus.

All arithmetic is exact: a polynomial keeps integer numerators over one
common denominator, and every coefficient or scalar the package returns is a
`fractions.Fraction`. Every identity check is an exact equality, never a
tolerance comparison.
"""

from .identities import (
    DEFAULT_LAMBDAS,
    classical_spivey_terms,
    spivey_bell_terms,
    spivey_rhs_bell,
    spivey_rhs_rbell,
    triple_agreement,
    verify_spivey_bell,
    verify_spivey_rbell,
)
from .operators import (
    ExpWeightedPoly,
    OperatorWord,
    apply_D,
    apply_X,
    apply_degenerate_operator_product,
    commutation_checks,
    commutation_suite,
    extract_bell_via_operators,
    extract_rbell_via_operators,
    factorization_check,
    normal_order_check,
    normal_order_suite,
)
from .polyalg import (
    Poly,
    Rational,
    as_rational,
    binomial,
    degenerate_falling_eval,
    degenerate_falling_factorial,
    degenerate_falling_product,
    falling_factorial,
)
from .report import Failure, VerificationReport
from .series import (
    TruncatedSeries,
    bell_polys_via_series,
    degenerate_exp_series,
    rbell_polys_via_series,
    stirling_rows_via_series,
)
from .triangles import (
    StirlingTriangle,
    bell_number_classical_bruteforce,
    bell_number_degenerate,
    bell_poly_degenerate,
    r_stirling2_degenerate,
    rbell_poly_degenerate,
    restricted_growth_strings,
    stirling2_degenerate,
    stirling_via_basis_expansion,
    triangle,
)

__version__ = "0.1.0"
