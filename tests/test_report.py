from fractions import Fraction as F

from degenbell.polyalg import Poly
from degenbell.report import Failure, VerificationReport, encode_params, encode_value, run_grid


def test_encode_value_forms():
    assert encode_value(Poly((0, F(1, 2), 1))) == ["0", "1/2", "1"]
    assert encode_value(Poly.ZERO) == []
    assert encode_value(F(-2, 3)) == "-2/3"
    assert encode_value(7) == "7"


def test_encode_params_recurses():
    grid = {"lambdas": [F(0), F(1, 2)], "n_max": 4, "inner": {"shift": F(-1, 3)}}
    assert encode_params(grid) == {
        "lambdas": ["0", "1/2"],
        "n_max": 4,
        "inner": {"shift": "-1/3"},
    }


def test_report_pass_iff_no_failures():
    report = VerificationReport("demo", grid={"n": 1})
    report.record({"n": 0}, Poly.ONE, Poly.ONE)
    assert report.passed and report.checked == 1

    report.record({"n": 1}, Poly.ONE, Poly.X)
    assert not report.passed
    failure = report.failures[0]
    assert failure == Failure({"n": 1}, Poly.ONE, Poly.X)


def test_run_grid_records_every_cell_in_order():
    lam = F(1, 2)
    cells = [
        ({"lambda": lam, "relation": "factorization", "m": 0}, Poly.ONE, Poly.ONE),
        ({"n": 2, "r": 1, "lambda": lam, "m": 1}, Poly.X, Poly.ONE),
        ({"m": 2}, F(1), F(1)),
        ({"lambda": lam, "relation": "factorization", "m": 3}, 1, 2),
    ]
    report = run_grid("demo", {"lambdas": [lam]}, iter(cells))
    assert (report.identity, report.grid, report.checked) == ("demo", {"lambdas": [lam]}, 4)
    assert report.failures == [Failure(*cells[1]), Failure(*cells[3])]
    assert [list(f.params) for f in report.failures] == [
        ["n", "r", "lambda", "m"],
        ["lambda", "relation", "m"],
    ]
    assert run_grid("empty", {}, iter(())).checked == 0


def test_report_json_dict_excludes_elapsed_by_default():
    report = VerificationReport("demo", grid={"lambda": F(1, 2)})
    report.record({"k": 0}, F(1), F(2))
    doc = report.to_json_dict()
    assert "elapsed_seconds" not in doc
    assert doc["status"] == "fail"
    assert doc["grid"] == {"lambda": "1/2"}
    assert doc["failures"] == [{"params": {"k": 0}, "lhs": "1", "rhs": "2"}]
