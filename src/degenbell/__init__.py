"""Exact computation of deformed Stirling triangles and Bell-type polynomial
families, cross-checked three independent ways: triangle recurrences,
generating-function series, and operator calculus.

All arithmetic is exact: a polynomial keeps integer numerators over one
common denominator, and every coefficient or scalar the package returns is a
`fractions.Fraction`. Every identity check is an exact equality, never a
tolerance comparison.
"""

from importlib import import_module

# Public name -> defining module. A name is imported on first use (PEP 562),
# so `import degenbell.cli` for a table loads only polyalg and triangles.
_EXPORTS = {
    "identities": (
        "DEFAULT_LAMBDAS", "classical_spivey_terms", "spivey_bell_terms",
        "spivey_rhs_bell", "spivey_rhs_rbell", "triple_agreement",
        "verify_spivey_bell", "verify_spivey_rbell",
    ),
    "operators": (
        "ExpWeightedPoly", "OperatorWord", "apply_D", "apply_X",
        "apply_degenerate_operator_product", "commutation_checks",
        "commutation_suite", "extract_bell_via_operators",
        "extract_rbell_via_operators", "factorization_check",
        "normal_order_check", "normal_order_suite",
    ),
    "polyalg": (
        "Poly", "Rational", "as_rational", "binomial", "degenerate_falling_eval",
        "degenerate_falling_factorial", "degenerate_falling_product",
        "falling_factorial",
    ),
    "report": ("Failure", "VerificationReport"),
    "series": (
        "TruncatedSeries", "bell_polys_via_series", "degenerate_exp_series",
        "rbell_polys_via_series", "stirling_rows_via_series",
    ),
    "triangles": (
        "StirlingTriangle", "bell_number_classical_bruteforce",
        "bell_number_degenerate", "bell_poly_degenerate", "r_stirling2_degenerate",
        "rbell_poly_degenerate", "restricted_growth_strings", "stirling2_degenerate",
        "stirling_via_basis_expansion", "triangle",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})


__version__ = "0.1.0"
