"""Triangles of deformed Stirling numbers and the Bell-type polynomials they build.

Entry (n, k) of a triangle is the coefficient of the falling factorial (x)_k
in the expansion of the degree-n product (x+r)(x+r-lam)...(x+r-(n-1)lam).
Plain second-kind numbers are the r = 0, lam = 0 corner; lam deforms the
product, r shifts it.
"""

from __future__ import annotations

import threading
from fractions import Fraction

from .polyalg import (
    Poly,
    _require_int,
    _require_size,
    as_rational,
    degenerate_falling_product,
    falling_factorial,
)


class StirlingTriangle:
    """Memoized triangle for a fixed (lam, r) pair.

    Rows follow the recurrence T(n+1, k) = T(n, k-1) + (k + r - n*lam) T(n, k)
    with T(0, 0) = 1, and are grown on demand. Growth happens under a lock;
    published rows are immutable tuples, safe to share across threads.

    Rows are grown and kept as integers. T(m, k) is a polynomial in lam of
    degree at most m - k with integer coefficients, so with lam = p/q the
    scaled entry V(m, k) = q^(m-k) T(m, k) is an integer (and so is
    q^m T(m, k)). It obeys V(m+1, k) = V(m, k-1) + (q(k+r) - m p) V(m, k).
    `scaled_row` returns the integers; `row` and `entry` read a tuple of
    Fractions V/q^(m-k), built on the first read of each row.
    """

    def __init__(self, lam, r: int = 0):
        _require_size(r=r)
        self.lam = as_rational(lam)
        self.r = r
        self._rows = [(1,)]  # V(m, .) for every grown row m
        self._powers = [1]  # q^0 .. q^m, kept only when q > 1
        self._views = {}  # m -> row m as Fractions
        self._lock = threading.Lock()

    def entry(self, n: int, k: int) -> Fraction:
        """Entry (n, k); 0 for k < 0 or k > n."""
        _require_int(k=k)
        _require_size(n=n)
        if k < 0 or k > n:
            return Fraction(0)
        return self._view(n)[k]

    def row(self, n: int) -> tuple[Fraction, ...]:
        """The full row (entries k = 0..n)."""
        _require_size(n=n)
        return self._view(n)

    def scaled_row(self, n: int) -> tuple[int, ...]:
        """Row n as the integers V(n, k) = q^(n-k) T(n, k), lam = p/q."""
        _require_size(n=n)
        self._grow(n)
        return self._rows[n]

    def _view(self, n: int) -> tuple[Fraction, ...]:
        view = self._views.get(n)
        if view is None:
            self._grow(n)
            v = self._rows[n]
            if self.lam.denominator == 1:  # integer lam: V is the row itself
                view = tuple(map(Fraction, v))
            else:
                powers = self._powers
                view = tuple([Fraction(c, powers[n - k]) for k, c in enumerate(v)])
            view = self._views.setdefault(n, view)  # racing readers share one
        return view

    def _grow(self, n: int) -> None:
        if n < len(self._rows):
            return
        with self._lock:
            p, q = self.lam.numerator, self.lam.denominator
            v, powers = self._rows[-1], self._powers
            for m in range(len(self._rows) - 1, n):
                base = q * self.r - m * p
                v = tuple([a + (q * k + base) * b for k, (a, b) in enumerate(zip((0, *v), (*v, 0)))])
                if q != 1:
                    powers.append(powers[-1] * q)
                self._rows.append(v)


_triangles: dict[tuple[Fraction, int], StirlingTriangle] = {}
_cache_lock = threading.Lock()


def triangle(lam, r: int = 0) -> StirlingTriangle:
    """Process-wide memoized triangle for (lam, r)."""
    _require_int(r=r)
    key = (as_rational(lam), r)
    tri = _triangles.get(key)
    if tri is None:
        with _cache_lock:
            tri = _triangles.setdefault(key, StirlingTriangle(key[0], r))
    return tri


def stirling2_degenerate(n: int, k: int, lam) -> Fraction:
    """Coefficient of (x)_k in the expansion of x(x-lam)...(x-(n-1)lam).

    The r = 0 case of r_stirling2_degenerate: 0 for k > n and, when n >= 1,
    for k = 0. At lam = 0 these are the classical second-kind numbers.
    """
    return r_stirling2_degenerate(n, k, 0, lam)


def r_stirling2_degenerate(n: int, k: int, r: int, lam) -> Fraction:
    """Coefficient of (x)_k in the expansion of (x+r)(x+r-lam)...(x+r-(n-1)lam).

    The r = 0 case reduces to stirling2_degenerate. The triangle recurrence
    here is derived by multiplying the shifted product by one more factor and
    re-expanding with x*(x)_k = (x)_{k+1} + k*(x)_k; its agreement with the
    independent basis expansion is enforced by the test suite.
    """
    _require_int(n=n, k=k)
    return triangle(lam, r).entry(n, k)


def stirling_via_basis_expansion(n: int, r: int, lam) -> list[Fraction]:
    """Row n of the (lam, r) triangle by direct change of basis.

    Expands the shifted product (x+r)(x+r-lam)... in the falling-factorial
    basis by exact back-substitution: the basis is monic and triangular, so
    peeling the leading coefficient from degree n down to 0 is exact. This
    never touches the triangle recurrences and serves as their oracle.
    """
    _require_size(n=n, r=r)
    lam = as_rational(lam)
    shifted = degenerate_falling_product(Poly.X + Poly.constant(r), n, lam)
    coeffs = [Fraction(0)] * (n + 1)
    residual = shifted
    for d in range(n, -1, -1):
        c = residual.coefficient(d)
        coeffs[d] = c
        if c != 0:
            residual = residual - falling_factorial(d) * c
    if not residual.is_zero():  # triangular basis: unreachable
        raise AssertionError("basis expansion left a nonzero residual")
    return coeffs


def bell_poly_degenerate(n: int, lam) -> Poly:
    """The r = 0 case of rbell_poly_degenerate."""
    return rbell_poly_degenerate(n, 0, lam)


def bell_number_degenerate(n: int, lam) -> Fraction:
    """bell_poly_degenerate evaluated at 1; the classical Bell number at lam = 0."""
    return bell_poly_degenerate(n, lam)(1)


def rbell_poly_degenerate(n: int, r: int, lam) -> Poly:
    """Row n of the (lam, r) triangle read as a polynomial: sum_k T(n,k) x^k,
    built from the integer row as numerators V(n,k) q^k over q^n."""
    _require_int(n=n)
    tri = triangle(lam, r)
    v = tri.scaled_row(n)
    if tri.lam.denominator == 1:
        return Poly._reduce(list(v), 1)
    powers = tri._powers
    return Poly._reduce([c * powers[k] for k, c in enumerate(v)], powers[n])


_BRUTE_FORCE_LIMIT = 10


def restricted_growth_strings(n: int):
    """Yield every canonical block-assignment string of length n.

    String s encodes the set partition placing element i in block s[i];
    canonical means s[0] = 0 and each later value exceeds the running maximum
    by at most one, so each partition appears exactly once. For n = 0 the
    single empty string encodes the empty partition.
    """
    _require_size(n=n)
    if n == 0:
        yield ()
        return

    def extend(prefix: list[int], prefix_max: int):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(prefix_max + 2):
            prefix.append(v)
            yield from extend(prefix, max(prefix_max, v))
            prefix.pop()

    yield from extend([0], 0)


def bell_number_classical_bruteforce(n: int) -> int:
    """Number of set partitions of an n-element set, by explicit enumeration.

    Exponential-time oracle for the lam = 0, r = 0 corner; n > 10 is rejected
    to flag misuse of the enumeration path.
    """
    _require_size(n=n)
    if n > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute-force enumeration is capped at n = {_BRUTE_FORCE_LIMIT}")
    return sum(1 for _ in restricted_growth_strings(n))
