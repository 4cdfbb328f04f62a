"""The three routes stay independent oracles: the series and operator
extractions must not read triangle rows, and the series module must not
import the other two routes at all. Within the split-order identities, the
classical lam = 0 form must not take the deformed powers it is checked
against."""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest

import degenbell.series
from degenbell import identities
from degenbell.operators import extract_rbell_via_operators
from degenbell.polyalg import Poly
from degenbell.series import rbell_polys_via_series
from degenbell.triangles import StirlingTriangle, rbell_poly_degenerate

CASES = [(F(0), 0), (F(1, 2), 2), (F(-2, 3), 3), (F(5), 1)]
N_MAX = 8


def test_series_and_operator_routes_run_without_triangle_rows(monkeypatch):
    expected = {
        (lam, r): [rbell_poly_degenerate(n, r, lam) for n in range(N_MAX + 1)] for lam, r in CASES
    }

    def no_rows(self, n):
        raise AssertionError("a triangle row was read")

    # Every row and entry read goes through _grow, cached rows included.
    monkeypatch.setattr(StirlingTriangle, "_grow", no_rows)
    for (lam, r), want in expected.items():
        assert rbell_polys_via_series(N_MAX, r, lam) == want
        assert [extract_rbell_via_operators(n, r, lam) for n in range(N_MAX + 1)] == want


def test_series_module_imports_no_other_route():
    tree = ast.parse(Path(degenbell.series.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported, "no imports found; the check would be vacuous"
    for name in imported:
        assert not {"triangles", "operators"} & set(name.split(".")), name


def test_classical_split_order_route_never_takes_the_deformed_power(monkeypatch):
    def no_deformed_power(*args):
        raise AssertionError("the deformed power was taken")

    monkeypatch.setattr(identities, "_deformed_powers", no_deformed_power)
    terms = identities.classical_spivey_terms(3, 4)
    assert len(terms) == 4 * 5
    assert sum((t for _, t in terms), Poly.ZERO) == rbell_poly_degenerate(7, 0, 0)
    assert identities._classical_rbell_rhs(3, 4, 2) == rbell_poly_degenerate(7, 2, 0)
    # The patch is not vacuous: the deformed route does read it.
    with pytest.raises(AssertionError, match="deformed power"):
        identities.spivey_bell_terms(3, 4, 0)
