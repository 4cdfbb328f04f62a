"""The multiplication operator X and derivative D, and checks of their ladder
identities by exact application to concrete arguments.

X and D satisfy DX - XD = 1 on polynomials. Values of the form f(x)*e^x are
closed under both operators, which is what lets a product of shifted XD
factors applied to e^x be read off as a plain polynomial.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .polyalg import Poly, _require_int, as_rational, binomial, degenerate_falling_eval
from .report import VerificationReport
from .triangles import triangle


@dataclass(frozen=True)
class ExpWeightedPoly:
    """f(x)*e^x, represented by the polynomial factor f.

    X maps f to x*f and D maps f to f' + f, so the representation is closed
    and "divide by e^x" is just reading off the factor. The map f -> f*e^x
    is linear and injective: two values are equal iff their factors are.
    """

    factor: Poly

    def __add__(self, other):
        if not isinstance(other, ExpWeightedPoly):
            return NotImplemented
        return ExpWeightedPoly(self.factor + other.factor)

    def __mul__(self, scalar):
        if isinstance(scalar, ExpWeightedPoly):
            return NotImplemented
        return ExpWeightedPoly(self.factor * scalar)

    __rmul__ = __mul__


def apply_X(v):
    """Multiply by x: polynomials directly, weighted values on the factor."""
    if isinstance(v, ExpWeightedPoly):
        return ExpWeightedPoly(v.factor._shift(1))
    return v._shift(1)


def apply_D(v):
    """Differentiate: the product rule on f*e^x gives (f' + f)*e^x."""
    if isinstance(v, ExpWeightedPoly):
        return ExpWeightedPoly(v.factor.derivative() + v.factor)
    return v.derivative()


@dataclass(frozen=True)
class ShiftedXD:
    """The atom XD + shift."""

    shift: Fraction


class OperatorWord:
    """A composition of atoms X, D, and (XD + c), applied rightmost first."""

    __slots__ = ("atoms",)

    def __init__(self, atoms=()):
        atoms = tuple(atoms)
        for a in atoms:
            if a not in ("X", "D") and not isinstance(a, ShiftedXD):
                raise TypeError(f"unknown atom: {a!r}")
        self.atoms = atoms

    @classmethod
    def x_power(cls, k: int) -> "OperatorWord":
        _require_int(k=k)
        return cls(("X",) * k)

    @classmethod
    def d_power(cls, k: int) -> "OperatorWord":
        _require_int(k=k)
        return cls(("D",) * k)

    @classmethod
    def shifted_product(cls, n: int, lam, shift=0) -> "OperatorWord":
        """(XD + shift)(XD + shift - lam)...(XD + shift - (n-1)lam), left to right."""
        _require_int(n=n)
        if n < 0:
            raise ValueError("n must be nonnegative")
        lam = as_rational(lam)
        shift = as_rational(shift)
        return cls(tuple(ShiftedXD(shift - i * lam) for i in range(n)))

    def __mul__(self, other):
        """Composition: (a * b) applied to v is a applied to (b applied to v)."""
        if not isinstance(other, OperatorWord):
            return NotImplemented
        return OperatorWord(self.atoms + other.atoms)

    def apply(self, v):
        for atom in reversed(self.atoms):
            if atom == "X":
                v = apply_X(v)
            elif atom == "D":
                v = apply_D(v)
            else:
                v = apply_X(apply_D(v)) + v * atom.shift
        return v

    def __repr__(self):
        return f"OperatorWord({list(self.atoms)!r})"


def apply_degenerate_operator_product(n: int, lam, shift, v):
    """Apply (XD + shift)(XD + shift - lam)...(XD + shift - (n-1)lam) to v,
    rightmost factor first; v is returned unchanged for n = 0."""
    return OperatorWord.shifted_product(n, lam, shift).apply(v)


def extract_bell_via_operators(n: int, lam) -> Poly:
    """The r = 0 case of extract_rbell_via_operators."""
    return extract_rbell_via_operators(n, 0, lam)


def extract_rbell_via_operators(n: int, r: int, lam) -> Poly:
    """Factor of the r-shifted length-n product applied to e^x.

    On x^m each factor acts by a scalar, so the result on e^x is the
    r-shifted Bell-type polynomial times e^x; the e^x never leaves the
    representation.
    """
    _require_int(n=n, r=r)
    if r < 0:
        raise ValueError("r must be nonnegative")
    return apply_degenerate_operator_product(n, lam, r, ExpWeightedPoly(Poly.ONE)).factor


def normal_order_check(n: int, r: int, lam, m_max: int) -> VerificationReport:
    """Check the normally ordered form of the r-shifted length-n product:
    it must equal sum_k T(n, k) X^k D^k with T the (lam, r) triangle row.

    Both sides send x^m to a multiple of x^m whose coefficient is a
    polynomial of degree <= n in m, so agreement for m_max >= n settles the
    operator identity itself, not just the sampled monomials; the grid
    records that threshold.
    """
    _require_int(n=n, r=r, m_max=m_max)
    if n < 0 or r < 0 or m_max < 0:
        raise ValueError("n, r, m_max must be nonnegative")
    lam = as_rational(lam)
    row = triangle(lam, r).row(n)
    report = VerificationReport(
        identity="normal-order",
        grid={"n": n, "r": r, "lambda": lam, "m_max": m_max, "proof_threshold": n},
    )
    start = time.perf_counter()
    words = [
        (c, OperatorWord.x_power(k) * OperatorWord.d_power(k)) for k, c in enumerate(row) if c != 0
    ]
    for m in range(m_max + 1):
        mono = Poly.monomial(m)
        lhs = apply_degenerate_operator_product(n, lam, r, mono)
        rhs = Poly.ZERO
        for c, word in words:
            rhs = rhs + word.apply(mono) * c
        report.record({"m": m}, lhs, rhs)
    report.elapsed = time.perf_counter() - start
    return report


def normal_order_suite(n_max: int, r_max: int, lambdas, m_max: int | None = None) -> VerificationReport:
    """normal_order_check over a whole grid; m ranges to n when m_max is None."""
    _require_int(n_max=n_max, r_max=r_max)
    lambdas = [as_rational(v) for v in lambdas]
    report = VerificationReport(
        identity="normal-order",
        grid={"n_max": n_max, "r_max": r_max, "lambdas": lambdas, "m_max": m_max},
    )
    start = time.perf_counter()
    for lam in lambdas:
        for r in range(r_max + 1):
            for n in range(n_max + 1):
                sub = normal_order_check(n, r, lam, n if m_max is None else m_max)
                report.absorb(sub, n=n, r=r, **{"lambda": lam})
    report.elapsed = time.perf_counter() - start
    return report


def commutation_checks(k_max: int, m_max: int, lam) -> VerificationReport:
    """Exact monomial checks of the ladder relations the recurrences rest on:

      * D X^k - X^k D = k X^(k-1)
      * (XD) X^k = X^k (XD + k)
      * a shifted product moves through X^j with its shift raised by j
      * a shifted product expands binomially into plain products

    Each relation is applied to x^m for m = 0..m_max, with word lengths n
    up to 4 for the product relations.
    """
    _require_int(k_max=k_max, m_max=m_max)
    if k_max < 0 or m_max < 0:
        raise ValueError("k_max and m_max must be nonnegative")
    lam = as_rational(lam)
    report = VerificationReport(
        identity="commutation",
        grid={"k_max": k_max, "m_max": m_max, "lambda": lam, "n_max": 4},
    )
    start = time.perf_counter()
    monos = [Poly.monomial(m) for m in range(m_max + 1)]

    for k in range(1, k_max + 1):
        for m, mono in enumerate(monos):
            lhs = (OperatorWord.d_power(1) * OperatorWord.x_power(k)).apply(mono) - (
                OperatorWord.x_power(k) * OperatorWord.d_power(1)
            ).apply(mono)
            rhs = OperatorWord.x_power(k - 1).apply(mono) * k
            report.record({"relation": "commutator-d-xk", "k": k, "m": m}, lhs, rhs)

            lhs = (OperatorWord((ShiftedXD(Fraction(0)),)) * OperatorWord.x_power(k)).apply(mono)
            rhs = (OperatorWord.x_power(k) * OperatorWord((ShiftedXD(Fraction(k)),))).apply(mono)
            report.record({"relation": "xd-through-xk", "k": k, "m": m}, lhs, rhs)

    # Shift parameters a = extra - mult*lam cover the plain, integer-shifted,
    # and lam-multiple-shifted products the recurrence derivations use.
    shifts = [extra - mult * lam for extra in (0, 1, 2) for mult in (0, 1, 2)]
    for a in shifts:
        for n in range(5):
            for j in range(1, k_max + 1):
                lhs_word = OperatorWord.shifted_product(n, lam, a) * OperatorWord.x_power(j)
                rhs_word = OperatorWord.x_power(j) * OperatorWord.shifted_product(n, lam, a + j)
                for m, mono in enumerate(monos):
                    report.record(
                        {"relation": "shifted-product-through-xj", "j": j, "n": n, "shift": a, "m": m},
                        lhs_word.apply(mono),
                        rhs_word.apply(mono),
                    )
            for m, mono in enumerate(monos):
                lhs = apply_degenerate_operator_product(n, lam, a, mono)
                rhs = Poly.ZERO
                for i in range(n + 1):
                    c = binomial(n, i) * degenerate_falling_eval(a, n - i, lam)
                    if c == 0:
                        continue
                    rhs = rhs + apply_degenerate_operator_product(i, lam, 0, mono) * c
                report.record(
                    {"relation": "shifted-product-binomial", "n": n, "shift": a, "m": m}, lhs, rhs
                )
    report.elapsed = time.perf_counter() - start
    return report


def factorization_check(total_max: int, lam) -> VerificationReport:
    """Splitting a length-(m+n) plain product applied to e^x: the length-m
    block and the (-m*lam)-shifted length-n block give the same result in
    either order."""
    _require_int(total_max=total_max)
    if total_max < 0:
        raise ValueError("total_max must be nonnegative")
    lam = as_rational(lam)
    report = VerificationReport(
        identity="factorization", grid={"total_max": total_max, "lambda": lam}
    )
    start = time.perf_counter()
    one = ExpWeightedPoly(Poly.ONE)
    for total in range(total_max + 1):
        direct = apply_degenerate_operator_product(total, lam, 0, one).factor
        for m in range(total + 1):
            n = total - m
            after_plain = apply_degenerate_operator_product(m, lam, 0, one)
            split = apply_degenerate_operator_product(n, lam, -m * lam, after_plain).factor
            report.record({"m": m, "n": n, "order": "plain-first"}, split, direct)

            after_shifted = apply_degenerate_operator_product(n, lam, -m * lam, one)
            split = apply_degenerate_operator_product(m, lam, 0, after_shifted).factor
            report.record({"m": m, "n": n, "order": "shifted-first"}, split, direct)
    report.elapsed = time.perf_counter() - start
    return report


def commutation_suite(k_max: int, m_max: int, lambdas, total_max: int = 10) -> VerificationReport:
    """commutation_checks plus factorization_check over a list of lam values."""
    _require_int(k_max=k_max, m_max=m_max, total_max=total_max)
    lambdas = [as_rational(v) for v in lambdas]
    report = VerificationReport(
        identity="commutation",
        grid={"k_max": k_max, "m_max": m_max, "total_max": total_max, "lambdas": lambdas},
    )
    start = time.perf_counter()
    for lam in lambdas:
        report.absorb(commutation_checks(k_max, m_max, lam), **{"lambda": lam})
        report.absorb(factorization_check(total_max, lam), **{"lambda": lam, "relation": "factorization"})
    report.elapsed = time.perf_counter() - start
    return report
