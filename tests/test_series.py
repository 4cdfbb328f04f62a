from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenbell.polyalg import Poly
from degenbell.series import (
    TruncatedSeries,
    bell_polys_via_series,
    degenerate_exp_series,
    rbell_polys_via_series,
    stirling_rows_via_series,
)
from degenbell.triangles import bell_poly_degenerate, rbell_poly_degenerate, triangle

SAMPLE_LAMBDAS = [F(0), F(1), F(-1), F(1, 2), F(-2, 3), F(3)]


def scalar_series(order, *values):
    return TruncatedSeries(order, tuple(Poly.constant(v) for v in values))


def test_mul_examples():
    one_plus_t = scalar_series(2, 1, 1)
    one_minus_t = scalar_series(2, 1, -1)
    assert one_plus_t * one_minus_t == scalar_series(2, 1, 0, -1)

    a = scalar_series(3, 2, 0, 5, 1)
    assert a * TruncatedSeries.one(3) == a
    # the one-series factor costs no product: the other factor comes back
    assert a * TruncatedSeries.one(3) is a
    assert TruncatedSeries.one(3) * a is a

    t = scalar_series(1, 0, 1)
    assert t * t == TruncatedSeries(1)  # t^2 is beyond the truncation


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        scalar_series(2, 1) * scalar_series(3, 1)
    with pytest.raises(ValueError):
        scalar_series(2, 1) + scalar_series(3, 1)


def test_too_many_coefficients_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries(1, (Poly.ONE, Poly.ONE, Poly.ONE))


def test_exp_examples():
    assert TruncatedSeries(4).exp() == TruncatedSeries.one(4)

    t = scalar_series(3, 0, 1)
    assert t.exp() == scalar_series(3, 1, 1, F(1, 2), F(1, 6))

    xt = TruncatedSeries(2, (Poly.ZERO, Poly.X))
    x2 = Poly.monomial(2, F(1, 2))
    assert xt.exp() == TruncatedSeries(2, (Poly.ONE, Poly.X, x2))


def test_exp_rejects_nonzero_constant_term():
    with pytest.raises(ValueError):
        scalar_series(3, 1, 1).exp()


def test_degenerate_exp_examples():
    lam = F(1, 3)
    s = degenerate_exp_series(Poly.ONE, lam, 2)
    assert s == scalar_series(2, 1, 1, (1 - lam) / 2)

    s = degenerate_exp_series(Poly.X, 0, 2)
    assert s == TruncatedSeries(2, (Poly.ONE, Poly.X, Poly.monomial(2, F(1, 2))))

    s = degenerate_exp_series(Poly.constant(2), 1, 2)
    assert s == scalar_series(2, 1, 2, 1)


def test_degenerate_exp_of_zero_is_one():
    for lam in SAMPLE_LAMBDAS:
        assert degenerate_exp_series(Poly.ZERO, lam, 5) == TruncatedSeries.one(5)


def test_bell_polys_match_triangle_route():
    for lam in SAMPLE_LAMBDAS:
        via_series = bell_polys_via_series(14, lam)
        for n in range(15):
            assert via_series[n] == bell_poly_degenerate(n, lam)


def test_bell_polys_examples():
    lam = F(1, 2)
    via_series = bell_polys_via_series(4, lam)
    assert via_series[0] == Poly.ONE
    assert via_series[2] == Poly((0, 1 - lam, 1))
    classical = bell_polys_via_series(4, 0)
    assert classical[4](1) == 15


def test_rbell_polys_match_triangle_route():
    for lam in SAMPLE_LAMBDAS:
        for r in range(5):
            via_series = rbell_polys_via_series(14, r, lam)
            for n in range(15):
                assert via_series[n] == rbell_poly_degenerate(n, r, lam)


def test_rbell_polys_examples():
    lam = F(1, 5)
    assert rbell_polys_via_series(6, 0, lam) == bell_polys_via_series(6, lam)
    assert rbell_polys_via_series(1, 2, lam)[1] == Poly((2, 1))
    assert rbell_polys_via_series(2, 1, F(1, 3))[2] == Poly((F(2, 3), F(8, 3), 1))


def test_stirling_rows_examples():
    assert stirling_rows_via_series(4, 0, 0, F(1, 2)) == [1, 0, 0, 0, 0]
    for lam in SAMPLE_LAMBDAS:
        row = stirling_rows_via_series(3, 1, 0, lam)
        assert row[1] == 1 - lam  # entry n = 2
        assert stirling_rows_via_series(2, 2, 1, lam)[0] == 1  # diagonal entry n = 2


def test_stirling_rows_match_triangle():
    for lam in SAMPLE_LAMBDAS:
        for r in range(4):
            tri = triangle(lam, r)
            for k in range(11):
                row = stirling_rows_via_series(10, k, r, lam)
                for i, n in enumerate(range(k, 11)):
                    assert row[i] == tri.entry(n, k)


def test_stirling_rows_validates_bounds():
    with pytest.raises(ValueError):
        stirling_rows_via_series(2, 3, 0, F(1, 2))


small_rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
small_polys = st.builds(Poly, st.lists(small_rationals, max_size=3))


@st.composite
def zero_constant_series(draw):
    order = draw(st.integers(1, 8))
    tail = draw(st.lists(small_polys, min_size=order, max_size=order))
    return TruncatedSeries(order, [Poly.ZERO] + tail)


@given(zero_constant_series())
@settings(max_examples=40)
def test_exp_inverse_of_formal_log_derivative(s):
    # E = exp(s) satisfies E' = s'E; re-check the defining relation coefficientwise
    e = s.exp()
    for n in range(s.order):
        lhs = e.coeffs[n + 1] * F(n + 1)
        rhs = Poly.ZERO
        for j in range(n + 1):
            rhs = rhs + s.coeffs[j + 1] * F(j + 1) * e.coeffs[n - j]
        assert lhs == rhs


@given(st.integers(1, 8), st.data())
@settings(max_examples=40)
def test_exp_is_homomorphism(order, data):
    tail_a = data.draw(st.lists(small_polys, min_size=order, max_size=order))
    tail_b = data.draw(st.lists(small_polys, min_size=order, max_size=order))
    a = TruncatedSeries(order, [Poly.ZERO] + tail_a)
    b = TruncatedSeries(order, [Poly.ZERO] + tail_b)
    assert (a + b).exp() == a.exp() * b.exp()


def test_truncation_coherence():
    # reading coefficient n from a longer computation equals computing at order n
    for lam in (F(0), F(1, 2), F(-2, 3)):
        full = bell_polys_via_series(10, lam)
        for n in range(11):
            assert bell_polys_via_series(n, lam)[n] == full[n]
        full_r = rbell_polys_via_series(8, 2, lam)
        for n in range(9):
            assert rbell_polys_via_series(n, 2, lam)[n] == full_r[n]
        big = degenerate_exp_series(Poly.X, lam, 9)
        for n in range(10):
            assert degenerate_exp_series(Poly.X, lam, n).coefficient(n) == big.coefficient(n)
