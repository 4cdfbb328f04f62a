"""Every n/m/k/r-type argument of a public entry rejects floats and bools.

A bool is an int subclass, so without an explicit check True silently acts
as 1 (a bool r ran as r = 1, a bool lambda built the lambda = 1 triangle);
a float fails late or not at all. The promise is exact arithmetic on ints
and rationals only, checked at the boundary with TypeError. Every size,
bound, shift and word length also rejects a negative int with ValueError,
after the types of all its arguments are checked.
"""

import pytest

from degenbell.cli import format_rational
from degenbell.identities import (
    classical_spivey_terms,
    spivey_bell_terms,
    spivey_rhs_bell,
    spivey_rhs_rbell,
    triple_agreement,
    verify_spivey_bell,
    verify_spivey_rbell,
)
from degenbell.operators import (
    OperatorWord,
    apply_degenerate_operator_product,
    commutation_checks,
    commutation_suite,
    extract_bell_via_operators,
    extract_rbell_via_operators,
    factorization_check,
    normal_order_check,
    normal_order_suite,
)
from degenbell.polyalg import (
    Poly,
    _require_size,
    as_rational,
    binomial,
    degenerate_falling_eval,
    degenerate_falling_factorial,
    degenerate_falling_product,
    falling_factorial,
)
from degenbell.series import (
    TruncatedSeries,
    bell_polys_via_series,
    degenerate_exp_series,
    rbell_polys_via_series,
    stirling_rows_via_series,
)
from degenbell.triangles import triangle

BAD = object()  # marks the argument under test

CASES = [
    (as_rational, (BAD,)),
    (binomial, (BAD, 0)),
    (binomial, (3, BAD)),
    (Poly.monomial, (BAD,)),
    (degenerate_falling_product, (Poly.X, BAD, 0)),
    (falling_factorial, (BAD,)),
    (degenerate_falling_factorial, (BAD, 0)),
    (degenerate_falling_eval, (1, BAD, 0)),
    (triangle, (BAD, 0)),
    (TruncatedSeries, (BAD,)),
    (TruncatedSeries(2).coefficient, (BAD,)),
    (degenerate_exp_series, (Poly.ONE, 0, BAD)),
    (bell_polys_via_series, (BAD, 0)),
    (rbell_polys_via_series, (BAD, 1, 0)),
    (rbell_polys_via_series, (2, BAD, 0)),
    (stirling_rows_via_series, (BAD, 1, 1, 0)),
    (stirling_rows_via_series, (3, BAD, 1, 0)),
    (stirling_rows_via_series, (3, 1, BAD, 0)),
    (OperatorWord.x_power, (BAD,)),
    (OperatorWord.d_power, (BAD,)),
    (OperatorWord.shifted_product, (BAD, 0)),
    (apply_degenerate_operator_product, (BAD, 0, 0, Poly.ONE)),
    (extract_bell_via_operators, (BAD, 0)),
    (extract_rbell_via_operators, (BAD, 1, 0)),
    (extract_rbell_via_operators, (2, BAD, 0)),
    (normal_order_check, (BAD, 1, 0, 2)),
    (normal_order_check, (2, BAD, 0, 2)),
    (normal_order_check, (2, 1, 0, BAD)),
    (normal_order_suite, (BAD, 1, [0])),
    (normal_order_suite, (2, BAD, [0])),
    (commutation_checks, (BAD, 2, 0)),
    (commutation_checks, (2, BAD, 0)),
    (factorization_check, (BAD, 0)),
    (commutation_suite, (BAD, 2, [0])),
    (commutation_suite, (2, BAD, [0])),
    (commutation_suite, (2, 2, [0], BAD)),
    (spivey_bell_terms, (BAD, 1, 0)),
    (spivey_bell_terms, (1, BAD, 0)),
    (spivey_rhs_bell, (BAD, 1, 0)),
    (classical_spivey_terms, (1, BAD)),
    (spivey_rhs_rbell, (1, 1, BAD, 0)),
    (verify_spivey_bell, (BAD, 1, [0])),
    (verify_spivey_rbell, (1, BAD, 1, [0])),
    (verify_spivey_rbell, (1, 1, BAD, [0])),
    (triple_agreement, (BAD, 1, [0])),
    (triple_agreement, (2, BAD, [0])),
]


def _case_id(case):
    fn, args = case
    name = getattr(fn, "__qualname__", getattr(fn, "__name__", repr(fn)))
    return f"{name}-arg{args.index(BAD)}"


@pytest.mark.parametrize("bad", [1.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("fn,args", CASES, ids=[_case_id(c) for c in CASES])
def test_int_arguments_reject_floats_and_bools(fn, args, bad):
    with pytest.raises(TypeError):
        fn(*[bad if a is BAD else a for a in args])


# -1 is a valid rational, a valid lambda and a valid binomial k (C(3, -1) = 0).
NEGATIVE_IS_VALID = {(as_rational, 0), (triangle, 0), (binomial, 1)}
NEGATIVE_CASES = [(fn, args) for fn, args in CASES if (fn, args.index(BAD)) not in NEGATIVE_IS_VALID]


@pytest.mark.parametrize("fn,args", NEGATIVE_CASES, ids=[_case_id(c) for c in NEGATIVE_CASES])
def test_size_arguments_reject_negative_ints(fn, args):
    with pytest.raises(ValueError):
        fn(*[-1 if a is BAD else a for a in args])


@pytest.mark.parametrize(
    "call",
    [
        lambda: _require_size(n=-1, k=1.0),
        lambda: binomial(-1, 0.5),
        lambda: triangle(0).entry(-1, 0.5),
        lambda: normal_order_suite(-1, 1, [0], m_max=1.0),
        lambda: commutation_suite(-1, 2, [0], total_max=True),
    ],
)
def test_type_errors_come_before_sign_errors(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("bad", [0.1, 1.0, True, False], ids=["float", "integral-float", "true", "false"])
def test_format_rational_rejects_floats_and_bools(bad):
    # a float printed as its binary expansion, or True printed as 1, would let
    # a non-exact value reach the output
    with pytest.raises(TypeError):
        format_rational(bad)
