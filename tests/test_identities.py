from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenbell.identities import (
    DEFAULT_LAMBDAS,
    _deformed_powers,
    _split_order_terms,
    classical_spivey_terms,
    spivey_bell_terms,
    spivey_rhs_bell,
    spivey_rhs_rbell,
    triple_agreement,
    verify_spivey_bell,
    verify_spivey_rbell,
)
from degenbell.operators import (
    commutation_suite,
    extract_rbell_via_operators,
    normal_order_suite,
)
from degenbell.polyalg import Poly, binomial, degenerate_falling_eval
from degenbell.series import rbell_polys_via_series
from degenbell.triangles import (
    bell_number_classical_bruteforce,
    bell_poly_degenerate,
    rbell_poly_degenerate,
    triangle,
)


def test_rhs_bell_base_case():
    assert spivey_rhs_bell(0, 0, F(1, 2)) == Poly.ONE


def test_rhs_bell_small_closed_form():
    for lam in DEFAULT_LAMBDAS:
        assert spivey_rhs_bell(1, 1, lam) == Poly((0, 1 - lam, 1))
        assert spivey_rhs_bell(1, 1, lam) == bell_poly_degenerate(2, lam)


def test_rhs_bell_engine_equality():
    assert spivey_rhs_bell(2, 3, F(1, 2)) == bell_poly_degenerate(5, F(1, 2))


def test_rhs_rbell_reduces_to_bell_at_r_zero():
    for m in range(4):
        for n in range(4):
            assert spivey_rhs_rbell(m, n, 0, F(1, 3)) == spivey_rhs_bell(m, n, F(1, 3))


def test_rhs_rbell_collapsed_sum():
    for lam in DEFAULT_LAMBDAS:
        assert spivey_rhs_rbell(0, 1, 2, lam) == Poly((2, 1))


def test_rhs_rbell_engine_equality():
    assert spivey_rhs_rbell(1, 1, 1, F(1, 3)) == rbell_poly_degenerate(2, 1, F(1, 3))


def test_verify_bell_default_grid():
    report = verify_spivey_bell(6, 6, DEFAULT_LAMBDAS)
    assert report.passed, report.failures[:3]
    # one polynomial and one scalar comparison per grid point
    assert report.checked == 7 * 7 * len(DEFAULT_LAMBDAS) * 2


def test_verify_bell_empty_lambda_list_is_vacuous():
    report = verify_spivey_bell(4, 4, [])
    assert report.passed
    assert report.checked == 0


def test_verify_rbell_default_grid():
    report = verify_spivey_rbell(6, 6, 3, DEFAULT_LAMBDAS)
    assert report.passed, report.failures[:3]


def test_rhs_symmetry_in_split():
    # both orders of the split produce the same total-order polynomial
    for lam in (F(0), F(1, 2), F(-2, 3)):
        for m in range(6):
            for n in range(6):
                assert spivey_rhs_bell(m, n, lam) == spivey_rhs_bell(n, m, lam)


def test_lambda_zero_terms_match_classical_term_by_term():
    for m in range(6):
        for n in range(6):
            deformed = spivey_bell_terms(m, n, 0)
            classical = classical_spivey_terms(m, n)
            assert len(deformed) == len(classical)
            for (idx_d, term_d), (idx_c, term_c) in zip(deformed, classical):
                assert idx_d == idx_c
                assert term_d == term_c


def test_classical_scalar_recurrence_values():
    # at lam = 0, x = 1 the split recurrence reproduces enumerated partition counts
    assert spivey_rhs_bell(2, 2, 0)(1) == 15
    for total in range(9):
        expected = bell_number_classical_bruteforce(total)
        for m in range(total + 1):
            assert spivey_rhs_bell(m, total - m, 0)(1) == expected


def test_classical_rbell_scalar_values():
    # r = 0, lam = 0 reduces the r-version to the plain one
    for total in range(7):
        expected = bell_number_classical_bruteforce(total)
        for m in range(total + 1):
            assert spivey_rhs_rbell(m, total - m, 0, 0)(1) == expected


def test_triple_agreement_moderate_grid():
    report = triple_agreement(10, 3, DEFAULT_LAMBDAS)
    assert report.passed, report.failures[:3]
    # Per lambda: two route pairs for each n, for r = 0..3 and the bell family.
    assert report.checked == len(DEFAULT_LAMBDAS) * 2 * 11 * 5


def test_triple_agreement_bell_family_is_the_r_zero_pass(monkeypatch):
    # The bell checks compare the r = 0 polynomials, so one wrong r = 0
    # operator extraction fails under both families, and nowhere else.
    def off_at_r0_n2(n, r, lam):
        poly = extract_rbell_via_operators(n, r, lam)
        return poly + Poly.ONE if (n, r) == (2, 0) else poly

    monkeypatch.setattr("degenbell.identities.extract_rbell_via_operators", off_at_r0_n2)
    report = triple_agreement(3, 1, [F(1, 2)])
    assert report.checked == 2 * 4 * 3
    assert [f.params for f in report.failures] == [
        {"family": "rbell", "n": 2, "r": 0, "lambda": F(1, 2), "pair": "triangle-vs-operators"},
        {"family": "bell", "n": 2, "lambda": F(1, 2), "pair": "triangle-vs-operators"},
    ]


@pytest.mark.parametrize(
    "suite,args",
    [
        (verify_spivey_bell, (-1, 3, [0])),
        (verify_spivey_bell, (3, -1, [0])),
        (verify_spivey_rbell, (-1, 2, 1, [0])),
        (verify_spivey_rbell, (2, -1, 1, [0])),
        (verify_spivey_rbell, (2, 2, -1, [0])),
        (normal_order_suite, (-1, 1, [0])),
        (normal_order_suite, (1, -1, [0])),
        (triple_agreement, (3, -1, [0])),
        (triple_agreement, (-1, 3, [0])),
        (partial(normal_order_suite, m_max=-1), (1, 1, [0])),
        (commutation_suite, (-1, 1, [0])),
        (commutation_suite, (1, -1, [0])),
        (partial(commutation_suite, total_max=-1), (1, 1, [0])),
    ],
)
def test_suites_reject_negative_bounds(suite, args):
    # A negative bound used to give an empty grid that passed with checked 0.
    with pytest.raises(ValueError):
        suite(*args)
    with pytest.raises(ValueError):
        suite(*args[:-1], [])


def test_triple_agreement_used_as_lhs_of_recurrence():
    # the polynomial the verify suites compare against is route-independent
    from degenbell.operators import extract_bell_via_operators
    from degenbell.series import bell_polys_via_series

    for lam in (F(0), F(1, 2)):
        for m in range(4):
            for n in range(4):
                lhs = bell_poly_degenerate(m + n, lam)
                assert lhs == bell_polys_via_series(m + n, lam)[m + n]
                assert lhs == extract_bell_via_operators(m + n, lam)
                assert lhs == spivey_rhs_bell(m, n, lam)


@settings(max_examples=40, deadline=None)
@given(
    lam=st.builds(F, st.integers(-12, 12), st.integers(1, 12)),
    r=st.integers(0, 3),
    n=st.integers(0, 12),
)
def test_three_routes_agree_on_random_lambda_r_n(lam, r, n):
    from_triangle = rbell_poly_degenerate(n, r, lam)
    assert rbell_polys_via_series(n, r, lam)[n] == from_triangle
    assert extract_rbell_via_operators(n, r, lam) == from_triangle


def test_split_order_terms_read_each_phi_once(monkeypatch):
    # The n+1 polynomials phi_l are read once per call, not once per (k, l).
    calls = []

    def counting(l, r, lam):
        calls.append(l)
        return rbell_poly_degenerate(l, r, lam)

    monkeypatch.setattr("degenbell.identities.rbell_poly_degenerate", counting)
    for m, n, r, lam in [(5, 4, 2, F(-2, 3)), (0, 6, 0, F(1, 2)), (7, 0, 3, F(3))]:
        calls.clear()
        rhs = spivey_rhs_rbell(m, n, r, lam)
        assert len(calls) <= n + 1
        assert rhs == rbell_poly_degenerate(m + n, r, lam)


def reference_terms(m, n, r, lam):
    """The split-order terms from Fraction rows, Fraction deformed powers and
    Poly products: C(n,l) T(m,k) (k - m*lam)_{n-l} x^k phi_l(x)."""
    row = triangle(lam, r).row(m)
    terms = []
    for k in range(m + 1):
        for l in range(n + 1):
            c = binomial(n, l) * row[k] * degenerate_falling_eval(k - m * lam, n - l, lam)
            terms.append(((k, l), Poly.monomial(k, c) * rbell_poly_degenerate(l, r, lam)))
    return terms


split_order_lambdas = st.one_of(
    st.just(F(0)),
    st.integers(-6, 6).map(F),
    st.builds(F, st.integers(-999, 999), st.integers(1, 999)),
)


@given(lam=split_order_lambdas, r=st.integers(0, 3), m=st.integers(0, 6), n=st.integers(0, 6))
@settings(max_examples=80, deadline=None)
def test_split_order_terms_match_a_fraction_reference(lam, r, m, n):
    want = reference_terms(m, n, r, lam)
    cases = [(list(_split_order_terms(m, n, r, lam, _deformed_powers)), want)]
    if r == 0:
        cases.append((spivey_bell_terms(m, n, lam), want))
        cases.append((classical_spivey_terms(m, n), reference_terms(m, n, 0, F(0))))
    for got, expected in cases:
        assert [key for key, _ in got] == [key for key, _ in expected]
        for (_, a), (_, b) in zip(got, expected, strict=True):
            assert a == b and hash(a) == hash(b)
    fold = sum((term for _, term in want), Poly.ZERO)
    assert spivey_rhs_rbell(m, n, r, lam) == fold
