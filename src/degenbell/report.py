"""Pass/fail reports for exact identity verification runs."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .polyalg import Poly


def encode_value(value):
    """JSON-friendly form: polynomials as ascending coefficient strings,
    scalars as canonical p/q strings."""
    if isinstance(value, Poly):
        return [str(c) for c in value.coeffs]
    return str(value)


def encode_params(obj):
    """Recursively stringify Fractions inside grid/parameter structures."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {k: encode_params(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode_params(v) for v in obj]
    return obj


class Failure(namedtuple("Failure", "params lhs rhs")):
    """One grid point where the two sides disagreed, carried verbatim."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "params": encode_params(self.params),
            "lhs": encode_value(self.lhs),
            "rhs": encode_value(self.rhs),
        }


class VerificationReport:
    """Outcome of checking one identity over a parameter grid.

    Passes iff `failures` is empty; failures carry both sides so a breakage
    produces a diffable artifact rather than a bare boolean.
    """

    __slots__ = ("identity", "grid", "checked", "failures")

    def __init__(self, identity: str, grid: dict):
        self.identity, self.grid = identity, grid
        self.checked, self.failures = 0, []

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, params: dict, lhs, rhs) -> None:
        """Compare one grid point, appending a failure on mismatch."""
        self.checked += 1
        if lhs != rhs:
            self.failures.append(Failure(dict(params), lhs, rhs))

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "grid": encode_params(self.grid),
            "checked": self.checked,
            "status": "pass" if self.passed else "fail",
            "failures": [f.to_json_dict() for f in self.failures],
        }


def run_grid(identity: str, grid: dict, cells) -> VerificationReport:
    """The report of one identity over its grid: each (params, lhs, rhs) cell
    the suite yields is recorded in order."""
    report = VerificationReport(identity, grid)
    for params, lhs, rhs in cells:
        report.record(params, lhs, rhs)
    return report
