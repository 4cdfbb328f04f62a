import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenbell.polyalg import (
    Poly,
    as_rational,
    binomial,
    degenerate_falling_eval,
    degenerate_falling_factorial,
    degenerate_falling_product,
    falling_factorial,
)

SAMPLE_LAMBDAS = [F(0), F(1), F(-1), F(1, 2), F(-2, 3), F(3)]
SAMPLE_POINTS = [F(0), F(1), F(-1), F(1, 2), F(3), F(-2, 3)]

rationals = st.builds(F, st.integers(-20, 20), st.integers(1, 20))
polys = st.builds(Poly, st.lists(rationals, max_size=9))


def test_as_rational_rejects_floats():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        Poly((0.5,))


def test_trailing_zeros_trimmed():
    assert Poly((1, 2, 0, 0)).coeffs == (F(1), F(2))
    assert Poly((0, 0)).coeffs == ()
    assert Poly((0, 0)) == Poly.ZERO
    assert Poly((1, 2)).degree == 1
    assert Poly.ZERO.degree == -1


def test_add_examples():
    x, one = Poly.X, Poly.ONE
    assert (x + one) + (-x) == one
    assert Poly.ZERO + (x + one) == x + one
    assert Poly.monomial(2) + x == Poly((0, 1, 1))


def test_mul_examples():
    x, one = Poly.X, Poly.ONE
    assert (x - one) * (x + one) == Poly((-1, 0, 1))
    assert Poly.ZERO * (x + one) == Poly.ZERO
    assert x * (x - one) == Poly((0, -1, 1))


def test_eval_examples():
    p = Poly((0, -1, 1))  # x^2 - x
    assert p(1) == 0
    assert p(F(1, 2)) == F(-1, 4)
    assert Poly.ZERO(F(7, 3)) == 0


def test_derivative_examples():
    assert Poly.monomial(3).derivative() == Poly((0, 0, 3))
    assert Poly.constant(5).derivative() == Poly.ZERO
    assert Poly((0, -1, 1)).derivative() == Poly((-1, 2))


def test_falling_factorial_values():
    assert falling_factorial(0) == Poly.ONE
    assert falling_factorial(2) == Poly((0, -1, 1))
    assert falling_factorial(3) == Poly((0, 2, -3, 1))


def test_degenerate_falling_factorial_values():
    assert degenerate_falling_factorial(0, F(7)) == Poly.ONE
    assert degenerate_falling_factorial(2, F(1, 2)) == Poly((0, F(-1, 2), 1))
    assert degenerate_falling_factorial(2, 0) == Poly.monomial(2)


def test_zero_lambda_gives_plain_powers():
    for n in range(13):
        assert degenerate_falling_factorial(n, 0) == Poly.monomial(n)


def test_lambda_one_gives_falling_factorial():
    for n in range(9):
        assert degenerate_falling_factorial(n, 1) == falling_factorial(n)


def test_degenerate_falling_eval_examples():
    assert degenerate_falling_eval(1, 2, F(1, 2)) == F(1, 2)
    assert degenerate_falling_eval(1, 3, 0) == 1
    assert degenerate_falling_eval(3, 2, 1) == 6


def test_degenerate_falling_eval_matches_polynomial():
    for n in range(9):
        for lam in SAMPLE_LAMBDAS:
            p = degenerate_falling_factorial(n, lam)
            for x0 in SAMPLE_POINTS:
                assert degenerate_falling_eval(x0, n, lam) == p(x0)


def test_falling_product_substitutes_any_base():
    base = Poly((2, 1))  # x + 2
    for n in range(6):
        for lam in SAMPLE_LAMBDAS:
            expected = Poly.ONE
            for i in range(n):
                expected = expected * (base - Poly.constant(i * lam))
            assert degenerate_falling_product(base, n, lam) == expected


@given(polys, polys)
def test_add_commutes(a, b):
    assert a + b == b + a


@given(polys, polys, polys)
def test_add_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(polys, polys)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(polys, polys, polys)
@settings(max_examples=50)
def test_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(polys, polys, polys)
@settings(max_examples=50)
def test_mul_distributes_over_add(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys, polys)
def test_product_degree(a, b):
    if not a.is_zero() and not b.is_zero():
        assert (a * b).degree == a.degree + b.degree


def test_binomial_matches_math_comb():
    for n in range(16):
        for k in range(-1, n + 2):
            expected = math.comb(n, k) if 0 <= k <= n else 0
            assert binomial(n, k) == expected
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_vandermonde_convolution_for_deformed_powers():
    # (x+y)_n = sum_k C(n,k) (x)_k (y)_{n-k}, all with the same deformation
    for n in range(13):
        for lam in SAMPLE_LAMBDAS:
            for x0 in SAMPLE_POINTS[:4]:
                for y0 in SAMPLE_POINTS[:4]:
                    lhs = degenerate_falling_eval(x0 + y0, n, lam)
                    rhs = sum(
                        binomial(n, k)
                        * degenerate_falling_eval(x0, k, lam)
                        * degenerate_falling_eval(y0, n - k, lam)
                        for k in range(n + 1)
                    )
                    assert lhs == rhs


# Reference arithmetic on trimmed tuples of Fractions, independent of Poly's
# integer numerators over a common denominator.
def ref_trim(cs):
    cs = [F(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def ref_mul(a, b):
    if not a or not b:
        return ()
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_eval(a, x0):
    return sum((c * x0**i for i, c in enumerate(a)), F(0))


def assert_canonical(p):
    num, den = p._num, p._den
    assert type(den) is int and den > 0
    assert all(type(c) is int for c in num)
    assert math.gcd(den, *num) == 1  # also forces den == 1 for the zero polynomial
    assert not num or num[-1] != 0
    assert type(p.coeffs) is tuple
    for c, n in zip(p.coeffs, num, strict=True):
        assert type(c) is F
        assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1
        assert c == F(n, den)


# Wide numerators and denominators, so the common denominator and its gcd are
# exercised, plus exact zeros (trimmed when trailing) and plain ints.
wide_rationals = st.builds(F, st.integers(-(10**9), 10**9), st.integers(1, 10**6))
coeff_lists = st.lists(st.one_of(wide_rationals, st.integers(-50, 50), st.just(F(0))), max_size=9)


@given(coeff_lists, coeff_lists)
def test_add_sub_neg_match_fraction_reference(a, b):
    ra, rb = ref_trim(a), ref_trim(b)
    pa, pb = Poly(a), Poly(b)
    for p in (pa, pb, pa + pb, pa - pb, -pa):
        assert_canonical(p)
    assert pa.coeffs == ra
    assert (pa + pb).coeffs == ref_add(ra, rb)
    assert (pa - pb).coeffs == ref_add(ra, tuple(-c for c in rb))
    assert (-pa).coeffs == tuple(-c for c in ra)


@given(coeff_lists, coeff_lists, st.one_of(wide_rationals, st.integers(-50, 50)))
def test_mul_and_scalar_mul_match_fraction_reference(a, b, s):
    ra, rb = ref_trim(a), ref_trim(b)
    pa, pb = Poly(a), Poly(b)
    for p in (pa * pb, pa * s, s * pa):
        assert_canonical(p)
    assert (pa * pb).coeffs == ref_mul(ra, rb)
    assert (pa * s).coeffs == (s * pa).coeffs == ref_trim([c * s for c in ra])


@given(coeff_lists, wide_rationals)
def test_derivative_and_eval_match_fraction_reference(a, x0):
    ra, p = ref_trim(a), Poly(a)
    assert_canonical(p.derivative())
    assert p.derivative().coeffs == ref_trim([i * ra[i] for i in range(1, len(ra))])
    for x in (x0, F(1), F(0), F(-1), 2):
        value = p(x)
        assert type(value) is F
        assert value == ref_eval(ra, F(x))
    for i in range(-1, len(ra) + 1):
        assert type(p.coefficient(i)) is F
        assert p.coefficient(i) == (ra[i] if 0 <= i < len(ra) else 0)


@given(coeff_lists, st.integers(0, 5))
def test_shift_is_product_by_monomial(a, k):
    p = Poly(a)
    shifted = p._shift(k)
    assert_canonical(shifted)
    assert shifted == Poly.monomial(k) * p


@given(coeff_lists, coeff_lists, wide_rationals.filter(bool))
def test_equal_values_from_different_routes_are_equal_and_hash_alike(a, b, s):
    p, q = Poly(a), Poly(b)
    for other in ((p + q) - q, (p * s) * (1 / s), Poly(tuple(p.coeffs)), Poly(p.coeffs) * 1):
        assert other == p
        assert hash(other) == hash(p)


def test_equal_polynomials_from_different_forms():
    forms = [
        Poly((F(2, 4),)),
        Poly((F(1, 2),)),
        Poly((F(1, 2), 0, 0)),
        Poly((F(1, 3),)) + Poly((F(1, 6),)),
        Poly((3,)) * F(1, 6),
        Poly.monomial(0, F(1, 2)),
    ]
    for p in forms:
        assert_canonical(p)
        assert p == forms[0]
        assert hash(p) == hash(forms[0])
    assert (Poly((1, F(1, 2))) * 2)._den == 1
    assert Poly.ZERO._num == () and Poly.ZERO._den == 1


def test_fraction_built_poly_keeps_its_coefficients_as_the_view():
    row = (F(1, 3), F(-2, 9), F(5))
    p = Poly(row)
    assert all(c is r for c, r in zip(p.coeffs, row, strict=True))
    assert p._num == (3, -2, 45) and p._den == 9


# lam = p/q and x0 = a/b with zeros, negatives and small and wide parts.
small_or_wide = st.one_of(rationals, wide_rationals, st.integers(-5, 5), st.just(F(0)))


@given(small_or_wide, small_or_wide, st.integers(0, 12))
def test_degenerate_falling_eval_matches_factor_by_factor_product(x0, lam, n):
    expected = F(1)
    for i in range(n):
        expected *= F(x0) - i * F(lam)
    got = degenerate_falling_eval(x0, n, lam)
    assert type(got) is F and got == expected
    assert got.denominator > 0 and math.gcd(got.numerator, got.denominator) == 1


# Lists of polynomials with mixed, wide denominators, zero entries included.
poly_lists = st.lists(st.one_of(coeff_lists, st.just(()), st.lists(rationals, max_size=4)), max_size=7)


@given(poly_lists)
def test_sum_matches_the_add_fold_and_fraction_reference(lists):
    polys = [Poly(cs) for cs in lists]
    total = Poly.sum(polys)
    assert_canonical(total)
    fold = sum(polys, Poly.ZERO)
    assert total == fold and hash(total) == hash(fold)
    expected = ()
    for cs in lists:
        expected = ref_add(expected, ref_trim(cs))
    assert total.coeffs == expected
    assert Poly.sum(iter(polys)) == total


def test_sum_examples():
    assert Poly.sum([]) is Poly.ZERO
    assert Poly.sum([Poly.ZERO, Poly.ZERO]) is Poly.ZERO
    # The lcm of 4 and 6 is 12, not the larger denominator 6.
    assert Poly.sum([Poly((F(1, 4),)), Poly((F(1, 6),))]) == Poly((F(5, 12),))
    assert Poly.sum([Poly((F(1, 2), 1)), Poly((F(1, 2), -1)), Poly.ZERO]) == Poly.ONE
    assert Poly.sum([Poly((0, F(1, 3))), Poly((0, F(2, 3)))])._den == 1
