"""Every suite hands its cells to report.run_grid.

The checked count of each suite equals its closed form on small grids, zero
bounds and an empty lambda list included; the forms restate the ones the
benchmark derives from a grid. And within the package only report.py builds
a VerificationReport or records a comparison, so a change to how cells are
counted or stored is made in one place.
"""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest

import degenbell
from degenbell.identities import triple_agreement, verify_spivey_bell, verify_spivey_rbell
from degenbell.operators import (
    commutation_checks,
    commutation_suite,
    factorization_check,
    normal_order_check,
    normal_order_suite,
)

LAMBDA_LISTS = {"none": [], "zero": [F(0)], "three": [F(1, 2), F(0), F(-2, 3)]}


# Closed forms of checked, from the bounds, the number of lambdas and the
# number of zero lambdas among them.
def spivey_bell(m_max, n_max, lams, zeros):
    return lams * (m_max + 1) * (n_max + 1) * 2  # each polynomial and its value at x = 1


def spivey_rbell(m_max, n_max, r_max, lams, zeros):
    # a zero lambda also checks the classical plain-power form
    return (lams + zeros) * (r_max + 1) * (m_max + 1) * (n_max + 1)


def normal_order(n_max, r_max, lams, zeros, m_max=None):
    monomials = (n_max + 1) * (n_max + 2) // 2 if m_max is None else (n_max + 1) * (m_max + 1)
    return lams * (r_max + 1) * monomials


def ladder(k_max, m_max):
    # 2K(M+1) ladder checks, and 9 shifts x 5 lengths x (K+1) x (M+1)
    # product checks
    return (m_max + 1) * (47 * k_max + 45)


def factorization(total_max):
    return (total_max + 1) * (total_max + 2)  # two orders per split m + n <= total_max


def commutation(k_max, m_max, total_max, lams, zeros):
    return lams * (ladder(k_max, m_max) + factorization(total_max))


def triple(n_max, r_max, lams, zeros):
    return lams * 2 * (n_max + 1) * (r_max + 2)  # the r = 0 pass is recorded twice


SUITES = [
    (verify_spivey_bell, spivey_bell, {"m_max": 0, "n_max": 0}),
    (verify_spivey_bell, spivey_bell, {"m_max": 2, "n_max": 1}),
    (verify_spivey_rbell, spivey_rbell, {"m_max": 0, "n_max": 0, "r_max": 0}),
    (verify_spivey_rbell, spivey_rbell, {"m_max": 1, "n_max": 2, "r_max": 1}),
    (normal_order_suite, normal_order, {"n_max": 0, "r_max": 0}),
    (normal_order_suite, normal_order, {"n_max": 3, "r_max": 1}),
    (normal_order_suite, normal_order, {"n_max": 2, "r_max": 1, "m_max": 4}),
    (commutation_suite, commutation, {"k_max": 0, "m_max": 0, "total_max": 0}),
    (commutation_suite, commutation, {"k_max": 2, "m_max": 1, "total_max": 3}),
    (triple_agreement, triple, {"n_max": 0, "r_max": 0}),
    (triple_agreement, triple, {"n_max": 3, "r_max": 1}),
]


def _grid_id(case):
    fn, _, bounds = case
    return f"{fn.__name__}-{'-'.join(map(str, bounds.values()))}"


@pytest.mark.parametrize("lambdas", LAMBDA_LISTS.values(), ids=LAMBDA_LISTS.keys())
@pytest.mark.parametrize("suite,closed_form,bounds", SUITES, ids=[_grid_id(c) for c in SUITES])
def test_suite_checked_equals_its_closed_form(suite, closed_form, bounds, lambdas):
    report = suite(**bounds, lambdas=lambdas)
    assert report.passed
    assert report.checked == closed_form(**bounds, lams=len(lambdas), zeros=lambdas.count(0))


# The single-lambda checks the operator suites are built from.
CHECKS = [
    (normal_order_check, lambda n, r, m_max: m_max + 1, {"n": 0, "r": 0, "m_max": 0}),
    (normal_order_check, lambda n, r, m_max: m_max + 1, {"n": 3, "r": 2, "m_max": 5}),
    (commutation_checks, ladder, {"k_max": 0, "m_max": 0}),
    (commutation_checks, ladder, {"k_max": 2, "m_max": 3}),
    (factorization_check, factorization, {"total_max": 0}),
    (factorization_check, factorization, {"total_max": 4}),
]


@pytest.mark.parametrize("lam", [F(0), F(-2, 3)], ids=["0", "-2/3"])
@pytest.mark.parametrize("check,closed_form,bounds", CHECKS, ids=[_grid_id(c) for c in CHECKS])
def test_single_lambda_check_counts(check, closed_form, bounds, lam):
    report = check(**bounds, lam=lam)
    assert report.passed
    assert report.checked == closed_form(**bounds)


def _builds_or_records(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "VerificationReport" or (isinstance(func, ast.Attribute) and name == "record"):
                return True
    return False


def test_only_the_report_module_builds_reports_or_records_cells():
    package = Path(degenbell.__file__).parent
    assert [p.name for p in sorted(package.glob("*.py")) if _builds_or_records(p)] == ["report.py"]
