"""Exact scalars and dense univariate polynomial arithmetic.

Scalars are `fractions.Fraction`, and a polynomial keeps integer numerators
over one common denominator, so every operation in this package is exact;
floats are rejected at the boundary.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm

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


def _require_size(**values) -> None:
    """Reject anything but a nonnegative int: a size, a bound, a shift r or
    a word length. Every type is checked before any sign, so a call with a
    float and a negative int raises TypeError."""
    _require_int(**values)
    for name, value in values.items():
        if value < 0:
            raise ValueError(f"{name} must be nonnegative")


class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    Stored as integer numerators over one common denominator: coefficient i
    of x**i is _num[i] / _den. The form is canonical, so equal polynomials
    have equal (_num, _den): _den > 0, gcd(_den, *_num) == 1, no trailing
    zero numerators, and the zero polynomial is ((), 1). Arithmetic runs on
    ints and takes one gcd per result. `coeffs`, the tuple of reduced
    Fractions, is the boundary view: it is built on first use and cached.
    Instances are immutable.
    """

    __slots__ = ("_num", "_den", "_coeffs")

    def __init__(self, coeffs=()):
        cs = tuple(map(as_rational, coeffs))
        end = len(cs)
        while end and not cs[end - 1]:
            end -= 1
        cs = cs[:end]
        # Each c is reduced, so the numerators over the lcm share no factor
        # with it: the result is already canonical.
        den = lcm(*[c.denominator for c in cs])
        self._num = tuple([c.numerator * (den // c.denominator) for c in cs])
        self._den = den
        self._coeffs = cs

    @classmethod
    def _raw(cls, num: tuple, den: int) -> "Poly":
        """A Poly from numerators and a denominator already in canonical form."""
        p = object.__new__(cls)
        p._num = num
        p._den = den
        p._coeffs = None
        return p

    @classmethod
    def _reduce(cls, num: list, den: int) -> "Poly":
        """A Poly from any int numerators over a positive denominator: trim
        the trailing zeros, then divide out the one common gcd."""
        while num and not num[-1]:
            num.pop()
        if not num:
            return cls.ZERO
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = [c // g for c in num]
                den //= g
        return cls._raw(tuple(num), den)

    @classmethod
    def sum(cls, polys) -> "Poly":
        """The sum of any number of polynomials: numerators accumulated on
        ints over the lcm of the denominators, with one reduction."""
        polys = list(polys)
        den = lcm(*[p._den for p in polys])
        out = [0] * max([len(p._num) for p in polys], default=0)
        for p in polys:
            scale = den // p._den
            for i, c in enumerate(p._num):
                out[i] += c * scale
        return cls._reduce(out, den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients as reduced Fractions, coefficient i of x**i first."""
        cs = self._coeffs
        if cs is None:
            den = self._den
            if den == 1:
                cs = tuple(map(Fraction, self._num))
            else:
                cs = tuple([Fraction(c, den) for c in self._num])
            self._coeffs = cs
        return cs

    @classmethod
    def constant(cls, value) -> "Poly":
        return cls((value,))

    @classmethod
    def monomial(cls, power: int, coeff=1) -> "Poly":
        _require_size(power=power)
        return cls((coeff,))._shift(power)

    def _shift(self, k: int) -> "Poly":
        """x**k times self, by prepending k zero numerators."""
        if not k or not self._num:
            return self
        return Poly._raw((0,) * k + self._num, self._den)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._num) - 1

    def is_zero(self) -> bool:
        return not self._num

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self._num):
            if self._coeffs is not None:
                return self._coeffs[i]
            return Fraction(self._num[i], self._den)
        return Fraction(0)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self._num, self._den))

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly.sum((self, other))

    def __neg__(self):
        return Poly._raw(tuple([-c for c in self._num]), self._den)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            a, b = self._num, other._num
            if not a or not b:
                return Poly.ZERO
            out = [0] * (len(a) + len(b) - 1)
            for i, c in enumerate(a):
                if c:
                    for j, d in enumerate(b, i):
                        out[j] += c * d
            return Poly._reduce(out, self._den * other._den)
        scalar = as_rational(other)
        factor = scalar.numerator
        return Poly._reduce([c * factor for c in self._num], self._den * scalar.denominator)

    __rmul__ = __mul__

    def __call__(self, x0) -> Fraction:
        """Exact Horner evaluation on ints, with one Fraction for the result:
        at x0 = a/b the value is sum_i num[i] a^i b^(deg-i) over den b^deg."""
        x0 = as_rational(x0)
        num = self._num
        if not num:
            return Fraction(0)
        a, b = x0.numerator, x0.denominator
        acc, scale = num[-1], 1
        for c in reversed(num[:-1]):
            scale *= b
            acc = acc * a + c * scale
        return Fraction(acc, self._den * scale)

    def derivative(self) -> "Poly":
        """Formal derivative."""
        num = self._num
        return Poly._reduce([i * num[i] for i in range(1, len(num))], self._den)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


Poly.ZERO = Poly()
Poly.ONE = Poly((1,))
Poly.X = Poly((0, 1))


def binomial(n: int, k: int) -> int:
    """C(n, k); 0 outside 0 <= k <= n."""
    _require_int(k=k)
    _require_size(n=n)
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def degenerate_falling_product(base: Poly, n: int, lam) -> Poly:
    """Product of (base - i*lam) over i = 0..n-1; the empty product for n = 0.

    With base = x this is the deformed power x(x-lam)(x-2*lam)...; any other
    polynomial base (x + r, say) substitutes into the same product.
    """
    _require_size(n=n)
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
    """The value of the deformed power at x0, on ints: with x0 = a/b and
    lam = p/q it is prod(a*q - i*p*b) over (b*q)^n, one Fraction at the end."""
    _require_size(n=n)
    x0 = as_rational(x0)
    lam = as_rational(lam)
    b, q = x0.denominator, lam.denominator
    aq, pb = x0.numerator * q, lam.numerator * b
    out = 1
    for i in range(n):
        out *= aq - i * pb
    return Fraction(out, (b * q) ** n)
