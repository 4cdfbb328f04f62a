from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenbell.operators import (
    ExpWeightedPoly,
    OperatorWord,
    ShiftedXD,
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
from degenbell.polyalg import Poly, degenerate_falling_eval
from degenbell.triangles import bell_poly_degenerate, rbell_poly_degenerate

SAMPLE_LAMBDAS = [F(0), F(1), F(-1), F(1, 2), F(-2, 3), F(3)]


def test_apply_X_examples():
    assert apply_X(Poly.ONE) == Poly.X
    assert apply_X(ExpWeightedPoly(Poly.ONE)) == ExpWeightedPoly(Poly.X)
    assert apply_X(apply_X(Poly.X)) == Poly.monomial(3)


def test_apply_D_examples():
    assert apply_D(Poly.monomial(2)) == Poly((0, 2))
    # D e^x = e^x
    assert apply_D(ExpWeightedPoly(Poly.ONE)) == ExpWeightedPoly(Poly.ONE)
    # product rule: D (x e^x) = (x + 1) e^x
    assert apply_D(ExpWeightedPoly(Poly.X)) == ExpWeightedPoly(Poly((1, 1)))


def test_word_application_order():
    # atoms compose right-to-left: "XD" applied to x^m is X(D x^m) = m x^m
    xd = OperatorWord(("X", "D"))
    dx = OperatorWord(("D", "X"))
    for m in range(5):
        mono = Poly.monomial(m)
        assert xd.apply(mono) == mono * m
        assert dx.apply(mono) == mono * (m + 1)


def test_word_rejects_unknown_atoms():
    with pytest.raises(TypeError):
        OperatorWord(("Q",))


def test_shifted_atom_application():
    word = OperatorWord((ShiftedXD(F(3, 2)),))
    for m in range(4):
        mono = Poly.monomial(m)
        assert word.apply(mono) == mono * (m + F(3, 2))


def test_degenerate_product_on_monomials():
    v = Poly((1, 2, 3))
    assert apply_degenerate_operator_product(0, F(1, 2), F(5), v) == v
    for lam in SAMPLE_LAMBDAS:
        for m in range(6):
            mono = Poly.monomial(m)
            out = apply_degenerate_operator_product(2, lam, 0, mono)
            assert out == mono * (m * (m - lam))
            out = apply_degenerate_operator_product(1, lam, 3, mono)
            assert out == mono * (m + 3)


def test_degenerate_product_scalar_action_general():
    # the length-n product acts on x^m by the deformed power of (m + shift)
    for lam in (F(0), F(1, 2), F(-2, 3)):
        for shift in (F(0), F(1), F(-1, 3)):
            for n in range(5):
                for m in range(5):
                    mono = Poly.monomial(m)
                    expected = mono * degenerate_falling_eval(m + shift, n, lam)
                    assert apply_degenerate_operator_product(n, lam, shift, mono) == expected


def test_extract_bell_examples():
    assert extract_bell_via_operators(0, F(1, 2)) == Poly.ONE
    assert extract_bell_via_operators(1, F(1, 2)) == Poly.X
    for lam in SAMPLE_LAMBDAS:
        assert extract_bell_via_operators(2, lam) == Poly((0, 1 - lam, 1))


def test_extract_bell_matches_triangle_route():
    for lam in SAMPLE_LAMBDAS:
        for n in range(13):
            assert extract_bell_via_operators(n, lam) == bell_poly_degenerate(n, lam)


def test_extract_rbell_examples():
    for lam in SAMPLE_LAMBDAS:
        for n in range(9):
            assert extract_rbell_via_operators(n, 0, lam) == extract_bell_via_operators(n, lam)
        assert extract_rbell_via_operators(1, 2, lam) == Poly((2, 1))
        assert extract_rbell_via_operators(2, 1, lam) == Poly((1 - lam, 3 - lam, 1))
        for n in range(13):
            for r in range(4):
                assert extract_rbell_via_operators(n, r, lam) == rbell_poly_degenerate(n, r, lam)


def test_normal_order_check_trivial_cases():
    report = normal_order_check(1, 0, F(1, 2), 3)
    assert report.passed and report.checked == 4

    # n=2, r=0, m=1: both sides give (1 - lam) x
    for lam in SAMPLE_LAMBDAS:
        mono = Poly.X
        lhs = apply_degenerate_operator_product(2, lam, 0, mono)
        assert lhs == Poly((0, 1 - lam))
        assert normal_order_check(2, 0, lam, 2).passed


def test_normal_order_check_example_grid_point():
    assert normal_order_check(3, 2, F(1, 2), 5).passed


def test_normal_order_suite_passes():
    report = normal_order_suite(8, 3, SAMPLE_LAMBDAS)
    assert report.passed
    assert report.checked > 0


def test_xd_through_xk_instance():
    # (XD) x^5 = 5 x^5 and X^2 (XD + 2) x^3 = 5 x^5
    lhs = OperatorWord((ShiftedXD(F(0)),)).apply(Poly.monomial(5))
    rhs = (OperatorWord.x_power(2) * OperatorWord((ShiftedXD(F(2)),))).apply(Poly.monomial(3))
    assert lhs == Poly.monomial(5, 5)
    assert rhs == Poly.monomial(5, 5)


def test_commutation_checks_pass():
    for lam in SAMPLE_LAMBDAS:
        report = commutation_checks(4, 6, lam)
        assert report.passed, report.failures[:3]


def test_factorization_check_passes():
    for lam in SAMPLE_LAMBDAS:
        report = factorization_check(10, lam)
        assert report.passed, report.failures[:3]


def test_commutation_suite_passes():
    report = commutation_suite(3, 4, [F(0), F(1, 2)], total_max=6)
    assert report.passed
    assert report.checked > 0


small_rationals = st.builds(F, st.integers(-8, 8), st.integers(1, 6))
small_polys = st.builds(Poly, st.lists(small_rationals, max_size=6))


@given(small_polys, small_polys, small_rationals, st.integers(0, 3))
@settings(max_examples=60)
def test_operator_linearity_on_polys(p, q, c, n):
    lam = F(1, 2)
    combo = p + q * c
    for op in (apply_X, apply_D, lambda v: apply_degenerate_operator_product(n, lam, F(1, 3), v)):
        assert op(combo) == op(p) + op(q) * c


@given(small_polys, small_polys, small_rationals)
@settings(max_examples=60)
def test_operator_linearity_on_weighted_values(p, q, c):
    u, v = ExpWeightedPoly(p), ExpWeightedPoly(q)
    combo = u + v * c
    for op in (apply_X, apply_D, lambda w: apply_degenerate_operator_product(3, F(-2, 3), F(2), w)):
        assert op(combo) == op(u) + op(v) * c


shift_rationals = st.one_of(
    st.builds(F, st.integers(-(10**6), 10**6), st.integers(1, 10**4)), st.integers(-5, 5)
)


@given(st.integers(0, 12), shift_rationals, shift_rationals)
def test_shifted_product_atoms_are_exact_shifts(n, lam, shift):
    # Built on ints as (a*q - i*p*b) / (b*q); each atom is the reduced
    # Fraction shift - i*lam.
    atoms = OperatorWord.shifted_product(n, lam, shift).atoms
    assert atoms == tuple(ShiftedXD(F(shift) - i * F(lam)) for i in range(n))
    assert all(type(a) is ShiftedXD and type(a.shift) is F for a in atoms)


# Reference application on plain tuples of Fractions, one atom at a time,
# independent of the numerators-over-one-denominator form.
def ref_apply(atoms, coeffs, weighted):
    cs = [F(c) for c in coeffs]
    for atom in reversed(atoms):
        if atom == "X":
            cs = [F(0), *cs]
            continue
        d = [i * cs[i] for i in range(1, len(cs))] + [F(0)]
        if weighted:  # D(f e^x) = (f' + f) e^x
            d = [a + b for a, b in zip(d, cs + [F(0)])]
        if atom == "D":
            cs = d
        else:  # (XD + c) f = x D(f) + c f
            cs = [a + atom.shift * b for a, b in zip([F(0), *d], cs + [F(0)] * 2)]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


atoms = st.one_of(
    st.sampled_from(["X", "D"]),
    st.builds(ShiftedXD, st.one_of(small_rationals, st.integers(-4, 4), shift_rationals)),
)


@given(st.lists(atoms, max_size=8), st.lists(small_rationals, max_size=6), st.booleans())
@settings(max_examples=200)
def test_word_apply_matches_fraction_reference(word_atoms, coeffs, weighted):
    word = OperatorWord(word_atoms)
    poly = Poly(coeffs)
    value = ExpWeightedPoly(poly) if weighted else poly
    got = word.apply(value)
    assert type(got) is type(value)
    factor = got.factor if weighted else got
    assert factor.coeffs == ref_apply(word_atoms, coeffs, weighted)
    assert factor == Poly(factor.coeffs) and hash(factor) == hash(Poly(factor.coeffs))
    for one, atom in ((apply_X, "X"), (apply_D, "D")):
        assert one(value) == OperatorWord((atom,)).apply(value)


def test_word_apply_on_zero_and_the_empty_word():
    for value in (Poly.ZERO, ExpWeightedPoly(Poly.ZERO)):
        assert OperatorWord(("X", ShiftedXD(F(1, 3)), "D")).apply(value) == value
    for value in (Poly((F(1, 2), 3)), ExpWeightedPoly(Poly((F(-2, 3),)))):
        assert OperatorWord().apply(value) == value
    # A shift with denominator t scales the numerators: (XD + 1/2) x = 3/2 x.
    assert OperatorWord((ShiftedXD(F(1, 2)),)).apply(Poly.X) == Poly((0, F(3, 2)))
