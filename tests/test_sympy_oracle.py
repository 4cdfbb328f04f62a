"""A fourth, offline oracle: sympy's classical Stirling and Bell numbers.

At lam = 0 the triangle rows are the second-kind Stirling numbers, the
Bell-type polynomials are the classical Bell (Touchard) polynomials B_n(x),
and the r-shifted ones are sum_k C(n,k) r^(n-k) B_k(x). sympy computes these
by its own formulas and shares no code with the triangle, series or operator
routes. It is a test-only dependency: without it these tests are skipped.
"""

from math import comb

import pytest

sympy = pytest.importorskip("sympy")
from sympy.functions.combinatorial.numbers import stirling  # noqa: E402

from degenbell.operators import extract_bell_via_operators, extract_rbell_via_operators  # noqa: E402
from degenbell.polyalg import Poly  # noqa: E402
from degenbell.series import bell_polys_via_series, rbell_polys_via_series  # noqa: E402
from degenbell.triangles import bell_poly_degenerate, rbell_poly_degenerate, triangle  # noqa: E402

N_MAX = 14
x = sympy.Symbol("x")


def as_poly(expr) -> Poly:
    """A sympy polynomial in x with integer coefficients, as a Poly."""
    return Poly([int(c) for c in reversed(sympy.Poly(expr, x).all_coeffs())])


def test_triangle_rows_match_sympy_stirling():
    tri = triangle(0, 0)
    for n in range(N_MAX + 1):
        assert tri.row(n) == tuple(int(stirling(n, k)) for k in range(n + 1))


def test_bell_polys_match_sympy_bell_on_every_route():
    via_series = bell_polys_via_series(N_MAX, 0)
    for n in range(N_MAX + 1):
        expected = as_poly(sympy.bell(n, x))
        assert bell_poly_degenerate(n, 0) == expected
        assert via_series[n] == expected
        assert extract_bell_via_operators(n, 0) == expected


@pytest.mark.parametrize("r", range(4))
def test_rbell_polys_match_shifted_sympy_bell_on_every_route(r):
    via_series = rbell_polys_via_series(N_MAX, r, 0)
    for n in range(N_MAX + 1):
        expected = as_poly(sum(comb(n, k) * r ** (n - k) * sympy.bell(k, x) for k in range(n + 1)))
        assert rbell_poly_degenerate(n, r, 0) == expected
        assert via_series[n] == expected
        assert extract_rbell_via_operators(n, r, 0) == expected
