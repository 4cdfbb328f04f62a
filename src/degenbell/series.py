"""Truncated formal power series in t with polynomial coefficients in x.

Every family in this package can be read off a generating function here by
exact coefficient extraction. None of these routines touch the triangle
recurrences, so they serve as an independent oracle for them.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .polyalg import Poly, _require_int, _require_size, as_rational


class TruncatedSeries:
    """Series sum_{n <= order} c_n t^n with Poly coefficients c_n.

    Arithmetic discards every term beyond t^order; nothing wraps around.
    Binary operations require equal orders. Instances are immutable.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=()):
        _require_size(order=order)
        cs = list(coeffs)
        if len(cs) > order + 1:
            raise ValueError("more coefficients than the truncation order admits")
        for c in cs:
            if not isinstance(c, Poly):
                raise TypeError("coefficients must be Poly values")
        cs.extend([Poly.ZERO] * (order + 1 - len(cs)))
        self.order = order
        self.coeffs = tuple(cs)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls(order, (Poly.ONE,))

    def coefficient(self, n: int) -> Poly:
        _require_int(n=n)
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def _is_one(self) -> bool:
        """True for the one-series, the unit of the Cauchy product."""
        return self.coeffs[0] == Poly.ONE and all(c.is_zero() for c in self.coeffs[1:])

    def _check_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        return TruncatedSeries(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        return TruncatedSeries(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        """Cauchy product, truncated at the common order."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        if other._is_one():
            return self
        if self._is_one():
            return other
        a, b = self.coeffs, other.coeffs
        return TruncatedSeries(
            self.order,
            [Poly.sum([a[i] * b[n - i] for i in range(n + 1)]) for n in range(self.order + 1)],
        )

    def scale(self, factor) -> "TruncatedSeries":
        """Multiply every coefficient by a Poly or exact scalar."""
        if not isinstance(factor, Poly):
            factor = Poly.constant(as_rational(factor))
        return TruncatedSeries(self.order, tuple(c * factor for c in self.coeffs))

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term.

        Uses the derivative recurrence (n+1) E_{n+1} = sum_j (j+1) a_{j+1} E_{n-j}
        (from E' = a' E), keeping the cost quadratic in the order instead of
        summing powers.
        """
        if not self.coeffs[0].is_zero():
            raise ValueError("exp needs a zero constant term")
        n_max = self.order
        weighted = [a * (j + 1) for j, a in enumerate(self.coeffs[1:])]  # (j+1) a_{j+1}
        out = [Poly.ONE]
        for n in range(n_max):
            acc = Poly.sum([weighted[j] * out[n - j] for j in range(n + 1)])
            out.append(acc * Fraction(1, n + 1))
        return TruncatedSeries(n_max, out)

    def __repr__(self):
        return f"TruncatedSeries(order={self.order}, coeffs={list(self.coeffs)!r})"


def degenerate_exp_series(exponent: Poly, lam, order: int) -> TruncatedSeries:
    """Series whose t^n coefficient is the deformed power of `exponent`, over n!.

    For a constant exponent c the result is the deformed exponential of c;
    exponent x gives the two-variable series generalizing e^{x t} (its
    lam = 0 case).
    """
    lam = as_rational(lam)
    coeffs = []
    prod = Poly.ONE
    for n in range(order + 1):
        coeffs.append(prod * Fraction(1, factorial(n)))
        prod = prod * (exponent - Poly.constant(n * lam))
    return TruncatedSeries(order, coeffs)


def bell_polys_via_series(n_max: int, lam) -> list[Poly]:
    """The r = 0 case of rbell_polys_via_series: Bell-type polynomials for
    n = 0..n_max, read off exp(x * (e_lam(t) - 1))."""
    return rbell_polys_via_series(n_max, 0, lam)


def rbell_polys_via_series(n_max: int, r: int, lam) -> list[Poly]:
    """Shifted Bell-type polynomials for n = 0..n_max: exp(x * (e_lam(t) - 1))
    times the deformed exponential of the constant r.

    Each entry is n! times the t^n coefficient of the product. At r = 0 the
    second factor is the one-series, and the Cauchy product returns the first
    factor unchanged.
    """
    _require_size(n_max=n_max, r=r)
    e = degenerate_exp_series(Poly.ONE, lam, n_max)
    inner = (e - TruncatedSeries.one(n_max)).scale(Poly.X)
    egf = inner.exp() * degenerate_exp_series(Poly.constant(r), lam, n_max)
    return [egf.coefficient(n) * Fraction(factorial(n)) for n in range(n_max + 1)]


def stirling_rows_via_series(n_max: int, k: int, r: int, lam) -> list[Fraction]:
    """Triangle column k for n = k..n_max from its generating function
    (e_lam(t) - 1)^k / k! times the deformed exponential of r."""
    _require_size(n_max=n_max, k=k, r=r)
    if n_max < k:
        raise ValueError("n_max must be at least k")
    e = degenerate_exp_series(Poly.ONE, lam, n_max)
    u = e - TruncatedSeries.one(n_max)
    p = TruncatedSeries.one(n_max)
    for _ in range(k):
        p = p * u
    p = p.scale(Fraction(1, factorial(k))) * degenerate_exp_series(Poly.constant(r), lam, n_max)
    out = []
    for n in range(k, n_max + 1):
        c = p.coefficient(n)
        if c.degree > 0:  # all inputs are scalar series: unreachable
            raise AssertionError("column series must have scalar coefficients")
        out.append(c.coefficient(0) * factorial(n))
    return out
