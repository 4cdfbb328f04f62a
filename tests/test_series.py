import math
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


# Reference series arithmetic on lists of trimmed Fraction tuples, one tuple
# per power of t. It shares nothing with Poly's addition or Poly.sum.
def ref_add(a, b):
    out = [F(0)] * max(len(a), len(b))
    for cs in (a, b):
        for i, c in enumerate(cs):
            out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def ref_mul(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_add(out, ())


def ref_cauchy(a, b):
    out = [()] * len(a)
    for i in range(len(a)):
        for j in range(len(a) - i):
            out[i + j] = ref_add(out[i + j], ref_mul(a[i], b[j]))
    return out


def ref_exp(a):
    # (n+1) E_{n+1} = sum_j (j+1) a_{j+1} E_{n-j}
    out = [(F(1),)]
    for n in range(len(a) - 1):
        acc = ()
        for j in range(n + 1):
            acc = ref_add(acc, ref_mul(tuple((j + 1) * c for c in a[j + 1]), out[n - j]))
        out.append(tuple(c / (n + 1) for c in acc))
    return out


def assert_matches_reference(series, ref):
    want = TruncatedSeries(series.order, [Poly(cs) for cs in ref])
    assert series == want and hash(series) == hash(want)
    for p, cs in zip(series.coeffs, ref, strict=True):
        num, den = p._num, p._den
        assert den > 0 and math.gcd(den, *num) == 1 and (not num or num[-1] != 0)
        assert p.coeffs == cs


# Mixed denominators, exact zeros inside a coefficient and whole zero
# coefficients.
mixed_rationals = st.one_of(st.builds(F, st.integers(-30, 30), st.integers(1, 60)), st.just(F(0)))
coeff_tuples = st.one_of(st.just(()), st.lists(mixed_rationals, max_size=4).map(lambda cs: ref_add(cs, ())))


@st.composite
def ref_series(draw, order, zero_constant=False):
    kinds = ["drawn", "zero"] if zero_constant else ["drawn", "zero", "one"]
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return [()] * (order + 1)
    if kind == "one":
        return [(F(1),)] + [()] * order
    head = [()] if zero_constant else [draw(coeff_tuples)]
    return head + draw(st.lists(coeff_tuples, min_size=order, max_size=order))


@given(st.integers(0, 8).flatmap(lambda n: st.tuples(ref_series(n), ref_series(n))))
@settings(max_examples=60)
def test_cauchy_product_matches_fraction_reference(pair):
    a, b = pair
    sa, sb = (TruncatedSeries(len(a) - 1, [Poly(cs) for cs in x]) for x in (a, b))
    assert_matches_reference(sa * sb, ref_cauchy(a, b))


@given(st.integers(0, 8).flatmap(lambda n: ref_series(n, zero_constant=True)))
@settings(max_examples=60)
def test_exp_matches_fraction_reference(a):
    s = TruncatedSeries(len(a) - 1, [Poly(cs) for cs in a])
    assert_matches_reference(s.exp(), ref_exp(a))


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
