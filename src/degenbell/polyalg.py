"""Exact scalars and dense univariate polynomial arithmetic.

Scalars are `fractions.Fraction` throughout, so every operation in this
package is exact; floats are rejected at the boundary.
"""

from __future__ import annotations

import threading
from fractions import Fraction

Rational = Fraction


def as_rational(value) -> Fraction:
    """Coerce an int or Fraction; anything else (notably floats and bools) is
    an error."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


def _require_int(**values) -> None:
    """Reject anything but an int, bools included, so no float or bool ever
    reaches a size, an index, a shift r or a cache key."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"{name} must be an int, got {type(value).__name__}")


class Poly:
    """Dense univariate polynomial over Fraction.

    Coefficient i is the coefficient of x**i; trailing zeros are trimmed, so
    equal polynomials have equal coefficient tuples and the zero polynomial
    has an empty tuple. Instances are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, value) -> "Poly":
        return cls((value,))

    @classmethod
    def monomial(cls, power: int, coeff=1) -> "Poly":
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls((0,) * power + (coeff,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return Poly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        scalar = as_rational(other)
        return Poly(tuple(c * scalar for c in self.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Poly.ONE
        for _ in range(n):
            out = out * self
        return out

    def __call__(self, x0) -> Fraction:
        """Exact Horner evaluation."""
        x0 = as_rational(x0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def derivative(self) -> "Poly":
        """Formal derivative."""
        return Poly(tuple(i * self.coeffs[i] for i in range(1, len(self.coeffs))))

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif c == 1:
                terms.append("x" if i == 1 else f"x^{i}")
            elif c == -1:
                terms.append("-x" if i == 1 else f"-x^{i}")
            else:
                terms.append(f"{c}*x" if i == 1 else f"{c}*x^{i}")
        out = terms[0]
        for term in terms[1:]:
            out += " - " + term[1:] if term.startswith("-") else " + " + term
        return out


Poly.ZERO = Poly()
Poly.ONE = Poly((1,))
Poly.X = Poly((0, 1))


_pascal_rows = [(1,)]
_pascal_lock = threading.Lock()


def binomial(n: int, k: int) -> int:
    """C(n, k) from the additive Pascal recurrence; 0 outside 0 <= k <= n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return 0
    if n >= len(_pascal_rows):
        with _pascal_lock:
            while len(_pascal_rows) <= n:
                prev = _pascal_rows[-1]
                mid = tuple(prev[i] + prev[i + 1] for i in range(len(prev) - 1))
                _pascal_rows.append((1,) + mid + (1,))
    return _pascal_rows[n][k]


def degenerate_falling_product(base: Poly, n: int, lam) -> Poly:
    """Product of (base - i*lam) over i = 0..n-1; the empty product for n = 0.

    With base = x this is the deformed power x(x-lam)(x-2*lam)...; any other
    polynomial base (x + r, say) substitutes into the same product.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    lam = as_rational(lam)
    out = Poly.ONE
    for i in range(n):
        out = out * (base - Poly.constant(i * lam))
    return out


def falling_factorial(n: int) -> Poly:
    """x(x-1)(x-2)...(x-n+1) as a polynomial; 1 for n = 0."""
    return degenerate_falling_product(Poly.X, n, 1)


def degenerate_falling_factorial(n: int, lam) -> Poly:
    """x(x-lam)(x-2*lam)...(x-(n-1)*lam) as a polynomial; 1 for n = 0.

    Reduces to x**n at lam = 0 and to the ordinary falling factorial at
    lam = 1.
    """
    return degenerate_falling_product(Poly.X, n, lam)


def degenerate_falling_eval(x0, n: int, lam) -> Fraction:
    """The value of the deformed power at x0, by direct scalar product."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    x0 = as_rational(x0)
    lam = as_rational(lam)
    out = Fraction(1)
    for i in range(n):
        out *= x0 - i * lam
    return out
