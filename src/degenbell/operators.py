"""The multiplication operator X and derivative D, and checks of their ladder
identities by exact application to concrete arguments.

X and D satisfy DX - XD = 1 on polynomials. Values of the form f(x)*e^x are
closed under both operators, which is what lets a product of shifted XD
factors applied to e^x be read off as a plain polynomial.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .polyalg import Poly, _require_size, as_rational, binomial, degenerate_falling_eval
from .report import VerificationReport, run_grid
from .triangles import triangle


class ExpWeightedPoly(namedtuple("ExpWeightedPoly", "factor")):
    """f(x)*e^x, represented by the polynomial factor f.

    X maps f to x*f and D maps f to f' + f, so the representation is closed
    and "divide by e^x" is just reading off the factor. The map f -> f*e^x
    is linear and injective: two values are equal iff their factors are.
    `+` and `*` act on the value, not as tuple concatenation and repetition.
    """

    __slots__ = ()

    def __add__(self, other):
        if not isinstance(other, ExpWeightedPoly):
            return NotImplemented
        return ExpWeightedPoly(self.factor + other.factor)

    def __mul__(self, scalar):
        if isinstance(scalar, ExpWeightedPoly):
            return NotImplemented
        return ExpWeightedPoly(self.factor * scalar)

    __rmul__ = __mul__


def _x_step(num: list) -> list:
    """Numerators of x*f: a zero prepended."""
    return [0, *num]


def _d_step(num: list, weighted: bool) -> list:
    """Numerators of f', plus f itself when the value is f*e^x (the product
    rule)."""
    out = [i * num[i] for i in range(1, len(num))]
    if weighted:
        out = [a + b for a, b in zip(num, out + [0])]
    return out


def apply_X(v):
    """Multiply by x: polynomials directly, weighted values on the factor."""
    return OperatorWord(("X",)).apply(v)


def apply_D(v):
    """Differentiate: the product rule on f*e^x gives (f' + f)*e^x."""
    return OperatorWord(("D",)).apply(v)


class ShiftedXD(namedtuple("ShiftedXD", "shift")):
    """The atom XD + shift."""

    __slots__ = ()


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
        _require_size(k=k)
        return cls(("X",) * k)

    @classmethod
    def d_power(cls, k: int) -> "OperatorWord":
        _require_size(k=k)
        return cls(("D",) * k)

    @classmethod
    def shifted_product(cls, n: int, lam, shift=0) -> "OperatorWord":
        """(XD + shift)(XD + shift - lam)...(XD + shift - (n-1)lam), left to right."""
        _require_size(n=n)
        lam = as_rational(lam)
        shift = as_rational(shift)
        # shift - i*lam = (a*q - i*p*b) / (b*q) at shift = a/b, lam = p/q.
        b, q = shift.denominator, lam.denominator
        aq, pb, bq = shift.numerator * q, lam.numerator * b, b * q
        return cls(tuple([ShiftedXD(Fraction(aq - i * pb, bq)) for i in range(n)]))

    def __mul__(self, other):
        """Composition: (a * b) applied to v is a applied to (b applied to v)."""
        if not isinstance(other, OperatorWord):
            return NotImplemented
        return OperatorWord(self.atoms + other.atoms)

    def apply(self, v):
        """The word applied to a Poly or ExpWeightedPoly: the atoms act in
        turn on the numerators over one denominator, reduced once at the end.
        XD + s/t maps numerators a over den to t*X(D(a)) + s*a over den*t."""
        weighted = isinstance(v, ExpWeightedPoly)
        f = v.factor if weighted else v
        num, den = list(f._num), f._den
        for atom in reversed(self.atoms):
            if isinstance(atom, ShiftedXD):
                s, t = as_rational(atom.shift).as_integer_ratio()
                xd = _x_step(_d_step(num, weighted))
                if t != 1:
                    xd = [t * a for a in xd]
                    den *= t
                for i, a in enumerate(num):
                    xd[i] += s * a
                num = xd
            elif atom == "X":
                num = _x_step(num)
            else:
                num = _d_step(num, weighted)
        f = Poly._reduce(num, den)
        return ExpWeightedPoly(f) if weighted else f

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
    _require_size(n=n, r=r)
    return apply_degenerate_operator_product(n, lam, r, ExpWeightedPoly(Poly.ONE)).factor


def _normal_order_cells(n: int, r: int, lam: Fraction, m_max: int):
    row = triangle(lam, r).row(n)
    product = OperatorWord.shifted_product(n, lam, r)
    words = [
        (c, OperatorWord.x_power(k) * OperatorWord.d_power(k)) for k, c in enumerate(row) if c != 0
    ]
    for m in range(m_max + 1):
        mono = Poly.monomial(m)
        rhs = Poly.sum([word.apply(mono) * c for c, word in words])
        yield {"m": m}, product.apply(mono), rhs


def normal_order_check(n: int, r: int, lam, m_max: int) -> VerificationReport:
    """Check the normally ordered form of the r-shifted length-n product:
    it must equal sum_k T(n, k) X^k D^k with T the (lam, r) triangle row.

    Both sides send x^m to a multiple of x^m whose coefficient is a
    polynomial of degree <= n in m, so agreement for m_max >= n settles the
    operator identity itself, not just the sampled monomials; the grid
    records that threshold.
    """
    _require_size(n=n, r=r, m_max=m_max)
    lam = as_rational(lam)
    grid = {"n": n, "r": r, "lambda": lam, "m_max": m_max, "proof_threshold": n}
    return run_grid("normal-order", grid, _normal_order_cells(n, r, lam, m_max))


def normal_order_suite(n_max: int, r_max: int, lambdas, m_max: int | None = None) -> VerificationReport:
    """normal_order_check over a whole grid; m ranges to n when m_max is None."""
    _require_size(n_max=n_max, r_max=r_max, **({} if m_max is None else {"m_max": m_max}))
    lambdas = [as_rational(v) for v in lambdas]
    cells = (
        ({"n": n, "r": r, "lambda": lam, **params}, lhs, rhs)
        for lam in lambdas
        for r in range(r_max + 1)
        for n in range(n_max + 1)
        for params, lhs, rhs in _normal_order_cells(n, r, lam, n if m_max is None else m_max)
    )
    grid = {"n_max": n_max, "r_max": r_max, "lambdas": lambdas, "m_max": m_max}
    return run_grid("normal-order", grid, cells)


def _commutation_cells(k_max: int, m_max: int, lam: Fraction):
    monos = [Poly.monomial(m) for m in range(m_max + 1)]
    d, xd = OperatorWord.d_power(1), OperatorWord((ShiftedXD(Fraction(0)),))

    for k in range(1, k_max + 1):
        xk = OperatorWord.x_power(k)
        d_xk, xk_d, xk1 = d * xk, xk * d, OperatorWord.x_power(k - 1)
        xd_xk, xk_xd = xd * xk, xk * OperatorWord((ShiftedXD(Fraction(k)),))
        for m, mono in enumerate(monos):
            lhs = d_xk.apply(mono) - xk_d.apply(mono)
            yield {"relation": "commutator-d-xk", "k": k, "m": m}, lhs, xk1.apply(mono) * k
            yield {"relation": "xd-through-xk", "k": k, "m": m}, xd_xk.apply(mono), xk_xd.apply(mono)

    # plain[i][m]: the length-i plain product applied to x^m, for the
    # binomial expansion below.
    plain = [[OperatorWord.shifted_product(i, lam).apply(mono) for mono in monos] for i in range(5)]
    # Shift parameters a = extra - mult*lam cover the plain, integer-shifted,
    # and lam-multiple-shifted products the recurrence derivations use.
    shifts = [extra - mult * lam for extra in (0, 1, 2) for mult in (0, 1, 2)]
    for a in shifts:
        for n in range(5):
            product = OperatorWord.shifted_product(n, lam, a)
            for j in range(1, k_max + 1):
                lhs_word = product * OperatorWord.x_power(j)
                rhs_word = OperatorWord.x_power(j) * OperatorWord.shifted_product(n, lam, a + j)
                for m, mono in enumerate(monos):
                    yield (
                        {"relation": "shifted-product-through-xj", "j": j, "n": n, "shift": a, "m": m},
                        lhs_word.apply(mono),
                        rhs_word.apply(mono),
                    )
            scalars = [(i, binomial(n, i) * degenerate_falling_eval(a, n - i, lam)) for i in range(n + 1)]
            scalars = [(i, c) for i, c in scalars if c != 0]
            for m, mono in enumerate(monos):
                yield (
                    {"relation": "shifted-product-binomial", "n": n, "shift": a, "m": m},
                    product.apply(mono),
                    Poly.sum([plain[i][m] * c for i, c in scalars]),
                )


def commutation_checks(k_max: int, m_max: int, lam) -> VerificationReport:
    """Exact monomial checks of the ladder relations the recurrences rest on:

      * D X^k - X^k D = k X^(k-1)
      * (XD) X^k = X^k (XD + k)
      * a shifted product moves through X^j with its shift raised by j
      * a shifted product expands binomially into plain products

    Each relation is applied to x^m for m = 0..m_max, with word lengths n
    up to 4 for the product relations.
    """
    _require_size(k_max=k_max, m_max=m_max)
    lam = as_rational(lam)
    grid = {"k_max": k_max, "m_max": m_max, "lambda": lam, "n_max": 4}
    return run_grid("commutation", grid, _commutation_cells(k_max, m_max, lam))


def _factorization_cells(total_max: int, lam: Fraction):
    one = ExpWeightedPoly(Poly.ONE)
    words = [OperatorWord.shifted_product(m, lam) for m in range(total_max + 1)]
    plain = [word.apply(one) for word in words]
    for total in range(total_max + 1):
        direct = plain[total].factor
        for m in range(total + 1):
            n = total - m
            shifted = OperatorWord.shifted_product(n, lam, -m * lam)
            yield {"m": m, "n": n, "order": "plain-first"}, shifted.apply(plain[m]).factor, direct
            yield {"m": m, "n": n, "order": "shifted-first"}, words[m].apply(shifted.apply(one)).factor, direct


def factorization_check(total_max: int, lam) -> VerificationReport:
    """Splitting a length-(m+n) plain product applied to e^x: the length-m
    block and the (-m*lam)-shifted length-n block give the same result in
    either order."""
    _require_size(total_max=total_max)
    lam = as_rational(lam)
    grid = {"total_max": total_max, "lambda": lam}
    return run_grid("factorization", grid, _factorization_cells(total_max, lam))


def commutation_suite(k_max: int, m_max: int, lambdas, total_max: int = 10) -> VerificationReport:
    """commutation_checks plus factorization_check over a list of lam values."""
    _require_size(k_max=k_max, m_max=m_max, total_max=total_max)
    lambdas = [as_rational(v) for v in lambdas]

    def cells():
        for lam in lambdas:
            for params, lhs, rhs in _commutation_cells(k_max, m_max, lam):
                yield {"lambda": lam, **params}, lhs, rhs
            for params, lhs, rhs in _factorization_cells(total_max, lam):
                yield {"lambda": lam, "relation": "factorization", **params}, lhs, rhs

    grid = {"k_max": k_max, "m_max": m_max, "total_max": total_max, "lambdas": lambdas}
    return run_grid("commutation", grid, cells())
