import random
import sys
import threading
from collections import Counter
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenbell import triangles
from degenbell.polyalg import (
    Poly,
    degenerate_falling_eval,
    degenerate_falling_product,
    falling_factorial,
)
from degenbell.triangles import (
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

SAMPLE_LAMBDAS = [F(0), F(1), F(-1), F(1, 2), F(-2, 3), F(3)]


def block_counts(n):
    """Partitions of an n-set tallied by number of blocks; the independent
    enumeration oracle for the lam = 0 corner."""
    counts = Counter()
    for s in restricted_growth_strings(n):
        counts[max(s) + 1 if s else 0] += 1
    return counts


def test_rgs_enumeration_n3():
    assert sorted(restricted_growth_strings(3)) == [
        (0, 0, 0),
        (0, 0, 1),
        (0, 1, 0),
        (0, 1, 1),
        (0, 1, 2),
    ]


def test_bruteforce_bell_values():
    assert bell_number_classical_bruteforce(0) == 1
    assert bell_number_classical_bruteforce(3) == 5
    assert bell_number_classical_bruteforce(8) == 4140


def test_bruteforce_guard():
    with pytest.raises(ValueError):
        bell_number_classical_bruteforce(11)
    with pytest.raises(ValueError):
        bell_number_classical_bruteforce(-1)


def test_diagonal_is_one():
    for lam in SAMPLE_LAMBDAS:
        for n in range(11):
            assert stirling2_degenerate(n, n, lam) == 1
            for r in range(4):
                assert r_stirling2_degenerate(n, n, r, lam) == 1


def test_out_of_range_is_zero():
    tri = triangle(F(1, 2), 1)
    assert tri.entry(3, 5) == 0
    assert tri.entry(3, -1) == 0
    assert stirling2_degenerate(2, 7, F(1, 3)) == 0


def test_column_zero():
    for lam in SAMPLE_LAMBDAS:
        for n in range(1, 9):
            assert stirling2_degenerate(n, 0, lam) == 0
            for r in range(4):
                # (r)_{n,lam}: set x = 0 in the shifted product
                assert r_stirling2_degenerate(n, 0, r, lam) == degenerate_falling_eval(r, n, lam)


def test_row2_column1_closed_form():
    for lam in SAMPLE_LAMBDAS:
        assert stirling2_degenerate(2, 1, lam) == 1 - lam
        assert stirling_via_basis_expansion(2, 0, lam)[1] == 1 - lam


def test_classical_two_block_count():
    # {3,2} at lam = 0 counts 2-block partitions of a 3-set
    assert block_counts(3)[2] == 3
    assert stirling2_degenerate(3, 2, 0) == 3


def test_basis_expansion_examples():
    for lam in SAMPLE_LAMBDAS:
        assert stirling_via_basis_expansion(1, 0, lam) == [0, 1]
        assert stirling_via_basis_expansion(1, 3, lam) == [3, 1]
        row = stirling_via_basis_expansion(2, 1, lam)
        assert row == [1 - lam, 3 - lam, 1]
        # cross-check by evaluation: sum_k row[k] (x0)_k == (x0+1)(x0+1-lam)
        for x0 in (F(0), F(1), F(2)):
            recombined = sum(row[k] * falling_factorial(k)(x0) for k in range(3))
            assert recombined == (x0 + 1) * (x0 + 1 - lam)


def test_r_zero_reduces_to_plain():
    for lam in SAMPLE_LAMBDAS:
        for n in range(13):
            for k in range(n + 1):
                assert r_stirling2_degenerate(n, k, 0, lam) == stirling2_degenerate(n, k, lam)


def test_r_stirling_examples():
    for lam in SAMPLE_LAMBDAS:
        assert r_stirling2_degenerate(2, 1, 1, lam) == 3 - lam
        assert r_stirling2_degenerate(2, 0, 1, lam) == degenerate_falling_eval(1, 2, lam)


def test_recurrence_matches_basis_expansion():
    for lam in SAMPLE_LAMBDAS:
        for r in range(5):
            tri = triangle(lam, r)
            for n in range(15):
                assert list(tri.row(n)) == stirling_via_basis_expansion(n, r, lam)


def test_reconstruction_as_polynomials():
    for lam in SAMPLE_LAMBDAS:
        for r in range(4):
            tri = triangle(lam, r)
            for n in range(13):
                rebuilt = Poly.ZERO
                for k, c in enumerate(tri.row(n)):
                    rebuilt = rebuilt + falling_factorial(k) * c
                shifted = degenerate_falling_product(Poly.X + Poly.constant(r), n, lam)
                assert rebuilt == shifted


def test_recurrence_residual_on_stored_entries():
    for lam in SAMPLE_LAMBDAS:
        for r in range(3):
            tri = triangle(lam, r)
            for n in range(12):
                for k in range(n + 2):
                    residual = (
                        tri.entry(n + 1, k)
                        - tri.entry(n, k - 1)
                        - (k + r - n * lam) * tri.entry(n, k)
                    )
                    assert residual == 0


def test_bell_poly_examples():
    assert bell_poly_degenerate(0, F(1, 2)) == Poly.ONE
    for lam in SAMPLE_LAMBDAS:
        assert bell_poly_degenerate(2, lam) == Poly((0, 1 - lam, 1))
    assert bell_poly_degenerate(3, 0) == Poly((0, 1, 3, 1))
    counts = block_counts(3)
    assert [counts[k] for k in range(4)] == [0, 1, 3, 1]


def test_bell_number_examples():
    for lam in SAMPLE_LAMBDAS:
        assert bell_number_degenerate(2, lam) == 2 - lam
        assert bell_number_degenerate(0, lam) == 1
    assert bell_number_degenerate(5, 0) == 52
    assert bell_number_classical_bruteforce(5) == 52


def test_classical_column_sums_match_bruteforce():
    for n in range(9):
        row_sum = sum(stirling2_degenerate(n, k, 0) for k in range(n + 1))
        assert row_sum == bell_number_classical_bruteforce(n)
        assert bell_number_degenerate(n, 0) == bell_number_classical_bruteforce(n)


def test_classical_rows_match_block_counts():
    for n in range(9):
        counts = block_counts(n)
        for k in range(n + 1):
            assert stirling2_degenerate(n, k, 0) == counts[k]


def test_rbell_poly_examples():
    for lam in SAMPLE_LAMBDAS:
        for n in range(11):
            assert rbell_poly_degenerate(n, 0, lam) == bell_poly_degenerate(n, lam)
        assert rbell_poly_degenerate(1, 2, lam) == Poly((2, 1))
        assert rbell_poly_degenerate(2, 1, lam) == Poly((1 - lam, 3 - lam, 1))


def test_triangle_rejects_negative():
    with pytest.raises(ValueError):
        StirlingTriangle(F(1, 2), -1)
    with pytest.raises(ValueError):
        triangle(F(1, 2), 0).entry(-1, 0)


def test_shared_cache_returns_same_instance():
    assert triangle(F(1, 2), 2) is triangle(F(1, 2), 2)
    assert triangle(F(1, 2), 2) is not triangle(F(1, 2), 1)


# lam = p/q over a range that covers q = 1 (integers, zero) and negative p.
lambdas = st.builds(F, st.integers(-40, 40), st.integers(1, 40))


@settings(max_examples=60, deadline=None)
@given(lam=lambdas, r=st.integers(0, 4), n=st.integers(0, 25))
@example(lam=F(-3), r=4, n=25)
@example(lam=F(-10744, 8077), r=3, n=25)
def test_integer_kernel_matches_basis_expansion(lam, r, n):
    row = triangle(lam, r).row(n)
    assert list(row) == stirling_via_basis_expansion(n, r, lam)
    assert all(type(c) is F for c in row)


@settings(max_examples=60, deadline=None)
@given(lam=lambdas, r=st.integers(0, 4), n=st.integers(0, 25))
def test_rows_grown_at_once_equal_rows_grown_one_by_one(lam, r, n):
    at_once = StirlingTriangle(lam, r)
    at_once.row(n)
    one_by_one = StirlingTriangle(lam, r)
    for m in range(n + 1):
        assert one_by_one.row(m) == at_once.row(m)
        assert all(type(c) is F for c in one_by_one.row(m))


@settings(max_examples=60, deadline=None)
@given(lam=lambdas, r=st.integers(0, 4), n=st.integers(0, 25))
@example(lam=F(-3), r=2, n=25)
@example(lam=F(0), r=0, n=0)
@example(lam=F(-10744, 8077), r=3, n=25)
def test_rbell_poly_from_integer_row_equals_poly_of_fraction_row(lam, r, n):
    # rbell_poly_degenerate reduces V(n,k) q^k over q^n once; the public
    # row is still a tuple of reduced Fractions, built once and shared.
    row = triangle(lam, r).row(n)
    assert type(row) is tuple
    assert all(type(c) is F and c.denominator > 0 and gcd(c.numerator, c.denominator) == 1 for c in row)
    assert triangle(lam, r).row(n) is row
    assert [triangle(lam, r).entry(n, k) for k in range(n + 1)] == list(row)
    poly = rbell_poly_degenerate(n, r, lam)
    assert poly == Poly(row)
    assert hash(poly) == hash(Poly(row))
    assert poly.coeffs == row


def test_scaled_row_is_q_power_times_row():
    tri = StirlingTriangle(F(-5, 7), 2)
    for n in range(12):
        v = tri.scaled_row(n)
        assert all(type(c) is int for c in v)
        assert [F(c, 7 ** (n - k)) for k, c in enumerate(v)] == list(tri.row(n))
    assert StirlingTriangle(F(3), 1).scaled_row(5) == tuple(StirlingTriangle(F(3), 1).row(5))
    with pytest.raises(ValueError):
        tri.scaled_row(-1)


NOT_INTS = [1.5, 2.0, True, False, F(1), "1", None]


@pytest.mark.parametrize("bad", NOT_INTS)
def test_entry_points_reject_non_int_indices(bad):
    calls = [
        lambda: StirlingTriangle(F(1, 2), bad),
        lambda: triangle(F(1, 2), bad),
        lambda: triangle(F(1, 2), 1).row(bad),
        lambda: triangle(F(1, 2), 1).scaled_row(bad),
        lambda: triangle(F(1, 2), 1).entry(bad, 0),
        lambda: triangle(F(1, 2), 1).entry(2, bad),
        lambda: stirling2_degenerate(bad, 1, 0),
        lambda: stirling2_degenerate(3, bad, 0),
        lambda: r_stirling2_degenerate(bad, 1, 1, 0),
        lambda: r_stirling2_degenerate(3, bad, 1, 0),
        lambda: r_stirling2_degenerate(3, 1, bad, 0),
        lambda: stirling_via_basis_expansion(bad, 0, 0),
        lambda: stirling_via_basis_expansion(2, bad, 0),
        lambda: bell_poly_degenerate(bad, 0),
        lambda: bell_number_degenerate(bad, 0),
        lambda: rbell_poly_degenerate(bad, 1, 0),
        lambda: rbell_poly_degenerate(2, bad, 0),
        lambda: list(restricted_growth_strings(bad)),
        lambda: bell_number_classical_bruteforce(bad),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()


def test_float_r_never_reaches_the_cache():
    before = dict(triangles._triangles)
    with pytest.raises(TypeError):
        r_stirling2_degenerate(3, 1, 1.5, F(1, 2))
    with pytest.raises(TypeError):
        stirling2_degenerate(True, 1, F(7, 11))
    assert triangles._triangles == before


def test_concurrent_growth_matches_sequential_growth():
    lam, r, top = F(-5, 7), 2, 60
    expected = [StirlingTriangle(lam, r).row(n) for n in range(top + 1)]
    expected_scaled = [StirlingTriangle(lam, r).scaled_row(n) for n in range(top + 1)]
    shared = StirlingTriangle(lam, r)
    mismatches = []

    def reader(seed):
        order = list(range(top + 1))
        random.Random(seed).shuffle(order)
        for i, n in enumerate(order):
            # Mix the integer rows, the lazily built Fraction rows and
            # single entries, so views are built while rows still grow.
            if i % 3 == 0 and shared.scaled_row(n) != expected_scaled[n]:
                mismatches.append(n)
            if i % 3 == 1 and shared.entry(n, n // 2) != expected[n][n // 2]:
                mismatches.append(n)
            if shared.row(n) != expected[n]:
                mismatches.append(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []
    assert len(shared._rows) == top + 1
    assert all(shared.row(n) is shared.row(n) for n in range(top + 1))
