"""Split-order recurrences for the Bell-type polynomial families, and grid
verification that ties all three computation routes together.

The headline identities express a polynomial of split order m+n through
triangle entries of order m, deformed powers, and lower-order polynomials;
at lam = 0, r = 0 they collapse to the classical Bell-number recurrence over
set partitions.
"""

from __future__ import annotations

from fractions import Fraction

from .operators import extract_rbell_via_operators
from .polyalg import Poly, _require_size, as_rational, binomial
from .report import VerificationReport, run_grid
from .series import rbell_polys_via_series
from .triangles import bell_poly_degenerate, rbell_poly_degenerate, triangle

DEFAULT_LAMBDAS = (
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(-2, 3),
    Fraction(3),
)


def _split_order_terms(m: int, n: int, r: int, lam, powers):
    """Yield the (k, l)-indexed terms C(n,l) T(m,k) (k - m*lam)_{n-l} x^k
    phi_l(x) of the split-order recurrence in lexicographic order, with T and
    phi from the (lam, r) triangle; powers is _deformed_powers or, at lam = 0,
    the classical _plain_powers. On ints, with lam = p/q: T(m,k) is V(m,k)
    over q^(m-k) and power e is powers(...)[e] over q^e, so a term is one
    scalar times phi's numerators, reduced once (Poly.ZERO for a zero scalar).
    """
    _require_size(m=m, n=n, r=r)
    tri = triangle(lam, r)
    v = tri.scaled_row(m)
    p, q = tri.lam.numerator, tri.lam.denominator
    phis = [(binomial(n, l), rbell_poly_degenerate(l, r, lam)) for l in range(n + 1)]
    for k in range(m + 1):
        pw = powers(k, m, n, p, q)
        for l, (b, phi) in enumerate(phis):
            c = b * v[k] * pw[n - l]
            term = Poly._reduce([c * a for a in phi._num], phi._den * q ** (m - k + n - l))
            yield (k, l), term._shift(k)


def _deformed_powers(k: int, m: int, n: int, p: int, q: int) -> list[int]:
    """Numerators of the deformed powers (k - m*lam)_e, e = 0..n, at
    lam = p/q: prod_{i<e} (k*q - (m+i)*p), each over q^e."""
    out = [1]
    for i in range(n):
        out.append(out[-1] * (k * q - (m + i) * p))
    return out


def _plain_powers(k: int, m: int, n: int, p: int, q: int) -> list[int]:
    """k^e for e = 0..n, the classical powers that _deformed_powers deforms;
    m, p and q (always 0 and 1 here) are not read."""
    return [k ** e for e in range(n + 1)]


def _sum_terms(terms) -> Poly:
    """One polynomial from a term array, reduced once."""
    return Poly.sum([term for _, term in terms])


def spivey_bell_terms(m: int, n: int, lam) -> list[tuple[tuple[int, int], Poly]]:
    """The terms of the split-order Bell recurrence, in lexicographic order:
    C(n,k) T(m,j) (j - m*lam)_{n-k} x^j phi_k(x), zero terms included."""
    return list(_split_order_terms(m, n, 0, lam, _deformed_powers))


def spivey_rhs_bell(m: int, n: int, lam) -> Poly:
    """The r = 0 case of spivey_rhs_rbell; verify_spivey_bell checks it."""
    return spivey_rhs_rbell(m, n, 0, lam)


def classical_spivey_terms(m: int, n: int) -> list[tuple[tuple[int, int], Poly]]:
    """The lam = 0 terms computed directly with plain powers:
    C(n,k) T(m,j) j^(n-k) x^j phi_k(x)."""
    return list(_split_order_terms(m, n, 0, 0, _plain_powers))


def spivey_rhs_rbell(m: int, n: int, r: int, lam) -> Poly:
    """Right-hand side of the split-order recurrence for the r-shifted family:
    sum over k <= m, l <= n of C(n,l) T(m,k) (k - m*lam)_{n-l} x^k phi_l(x),
    with T and phi taken from the (lam, r) triangle."""
    return _sum_terms(_split_order_terms(m, n, r, lam, _deformed_powers))


def _classical_rbell_rhs(m: int, n: int, r: int) -> Poly:
    """lam = 0 right-hand side with plain powers k^(n-l) in place of the
    deformed ones."""
    return _sum_terms(_split_order_terms(m, n, r, 0, _plain_powers))


def verify_spivey_bell(m_max: int, n_max: int, lambdas) -> VerificationReport:
    """Exact polynomial (plus x = 1 scalar) check of the split-order Bell
    recurrence over the whole grid; an empty lam list passes vacuously."""
    _require_size(m_max=m_max, n_max=n_max)
    lambdas = [as_rational(v) for v in lambdas]

    def cells():
        for lam in lambdas:
            for m in range(m_max + 1):
                for n in range(n_max + 1):
                    target = bell_poly_degenerate(m + n, lam)
                    rhs = spivey_rhs_bell(m, n, lam)
                    params = {"m": m, "n": n, "lambda": lam}
                    yield params, target, rhs
                    yield {**params, "at": "x=1"}, target(1), rhs(1)

    return run_grid("spivey-bell", {"m_max": m_max, "n_max": n_max, "lambdas": lambdas}, cells())


def verify_spivey_rbell(m_max: int, n_max: int, r_max: int, lambdas) -> VerificationReport:
    """Exact polynomial check of the r-shifted split-order recurrence; at
    lam = 0 the classical plain-power form is checked as well."""
    _require_size(m_max=m_max, n_max=n_max, r_max=r_max)
    lambdas = [as_rational(v) for v in lambdas]

    def cells():
        for lam in lambdas:
            for r in range(r_max + 1):
                for m in range(m_max + 1):
                    for n in range(n_max + 1):
                        target = rbell_poly_degenerate(m + n, r, lam)
                        params = {"m": m, "n": n, "r": r, "lambda": lam}
                        yield params, target, spivey_rhs_rbell(m, n, r, lam)
                        if lam == 0:
                            classical = _classical_rbell_rhs(m, n, r)
                            yield {**params, "form": "classical-powers"}, target, classical

    grid = {"m_max": m_max, "n_max": n_max, "r_max": r_max, "lambdas": lambdas}
    return run_grid("spivey-rbell", grid, cells())


def triple_agreement(n_max: int, r_max: int, lambdas) -> VerificationReport:
    """The triangle recurrences, the series extractions, and the operator
    extractions must produce identical polynomials, for both families; the
    bell checks record the r = 0 pass again, with no "r" in their params."""
    _require_size(n_max=n_max, r_max=r_max)
    lambdas = [as_rational(v) for v in lambdas]

    def cells():
        for lam in lambdas:
            for r in range(r_max + 1):
                from_series = rbell_polys_via_series(n_max, r, lam)
                for n in range(n_max + 1):
                    from_triangle = rbell_poly_degenerate(n, r, lam)
                    routes = {"series": from_series[n], "operators": extract_rbell_via_operators(n, r, lam)}
                    families = [{"family": "rbell", "n": n, "r": r, "lambda": lam}]
                    if r == 0:
                        families.append({"family": "bell", "n": n, "lambda": lam})
                    for params in families:
                        for route, other in routes.items():
                            yield {**params, "pair": f"triangle-vs-{route}"}, from_triangle, other

    return run_grid("triple-agreement", {"n_max": n_max, "r_max": r_max, "lambdas": lambdas}, cells())
