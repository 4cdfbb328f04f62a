import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import degenbell
from degenbell.cli import format_rational, parse_rational, run
from degenbell.report import VerificationReport
from degenbell.triangles import rbell_poly_degenerate, triangle


def test_parse_rational_accepts_strict_forms():
    assert parse_rational("0") == 0
    assert parse_rational("-7") == -7
    assert parse_rational("1/2") == F(1, 2)
    assert parse_rational("-2/3") == F(-2, 3)
    assert parse_rational("4/6") == F(2, 3)


@pytest.mark.parametrize("bad", ["0.5", "1e3", "", "x", "1/0", "1/-2", "+1", "2/3/4", " 1"])
def test_parse_rational_rejects_loose_forms(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_rational_is_canonical():
    assert format_rational(F(4, 6)) == "2/3"
    assert format_rational(F(-1, 2)) == "-1/2"
    assert format_rational(F(5)) == "5"


def test_bell_json_example(capsys):
    code = run(["bell", "--max-n", "2", "--lambda", "1/2", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "bell"
    assert doc["parameters"] == {"max_n": 2, "lambda": "1/2"}
    rec = doc["records"][2]
    assert rec["coefficients"] == ["0", "1/2", "1"]
    assert rec["value"] == "3/2"


def test_stirling_csv_classical_row(capsys):
    code = run(["stirling", "--max-n", "3", "--lambda", "0", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,k,value"
    assert [l for l in lines if l.startswith("3,")] == ["3,0,0", "3,1,1", "3,2,3", "3,3,1"]


def test_rstirling_csv_row(capsys):
    code = run(["rstirling", "--max-n", "2", "--r", "1", "--lambda", "1/2", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert [l for l in lines if l.startswith("2,")] == ["2,0,1/2", "2,1,5/2", "2,2,1"]


def test_bell_csv_carries_values_at_one(capsys):
    run(["bell", "--max-n", "2", "--lambda", "1/2", "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert "2,phi1,3/2" in lines
    assert "2,1,1/2" in lines


def test_rbell_json_round_trips_against_library(capsys):
    code = run(["rbell", "--max-n", "5", "--r", "2", "--lambda=-2/3", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    lam = parse_rational(doc["parameters"]["lambda"])
    assert lam == F(-2, 3)
    for rec in doc["records"]:
        expected = rbell_poly_degenerate(rec["n"], 2, lam)
        coeffs = tuple(parse_rational(c) for c in rec["coefficients"])
        assert coeffs == expected.coeffs
        assert parse_rational(rec["value"]) == expected(1)


def test_stirling_json_round_trips_against_library(capsys):
    run(["stirling", "--max-n", "6", "--lambda", "1/2", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    tri = triangle(F(1, 2), 0)
    for rec in doc["records"]:
        assert parse_rational(rec["value"]) == tri.entry(rec["n"], rec["k"])


def test_verify_spivey_bell_passes(capsys):
    code = run(
        ["verify", "--identity", "spivey-bell", "--max-m", "4", "--max-n", "4",
         "--lambda", "0", "--lambda", "1/2"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "verify"
    record = doc["records"][0]
    assert record["status"] == "pass"
    assert record["failures"] == []
    assert record["checked"] == 5 * 5 * 2 * 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--identity", "spivey-rbell", "--max-m", "2", "--max-n", "2", "--r", "2"],
        ["verify", "--identity", "normal-order", "--max-n", "4", "--r", "2"],
        ["verify", "--identity", "commutation", "--max-k", "2", "--max-m", "3", "--max-n", "4"],
    ],
)
def test_verify_identities_exit_zero(argv, capsys):
    assert run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["records"][0]["status"] == "pass"


def test_oracle_check_passes(capsys):
    code = run(["oracle-check", "--max-n", "6", "--r", "2", "--lambda", "0", "--lambda", "1/2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["parameters"]["identity"] == "triple-agreement"
    assert doc["records"][0]["status"] == "pass"


def test_verify_exit_one_when_report_fails(monkeypatch, capsys):
    def fake_verify(m_max, n_max, lambdas):
        report = VerificationReport("spivey-bell", grid={})
        report.record({"m": 0, "n": 0}, 1, 2)  # deliberate mismatch
        return report

    monkeypatch.setattr("degenbell.cli.verify_spivey_bell", fake_verify)
    code = run(["verify", "--identity", "spivey-bell"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["records"][0]["status"] == "fail"
    assert doc["records"][0]["failures"] == [{"params": {"m": 0, "n": 0}, "lhs": "1", "rhs": "2"}]


def test_output_to_file_and_determinism(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ["bell", "--max-n", "6", "--lambda=-2/3", "--format", "json"]
    assert run(argv + ["--out", str(first)]) == 0
    assert run(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_stdout_determinism(capsys):
    argv = ["verify", "--identity", "spivey-bell", "--max-m", "3", "--max-n", "3", "--lambda", "1/2"]
    assert run(argv) == 0
    out1 = capsys.readouterr().out
    assert run(argv) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_malformed_lambda_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["bell", "--max-n", "2", "--lambda", "0.5"])
    assert exc.value.code == 2


def test_missing_lambda_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["bell", "--max-n", "2"])
    assert exc.value.code == 2


def test_repeated_lambda_on_table_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["bell", "--max-n", "2", "--lambda", "0", "--lambda", "1"])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_negative_bound_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["bell", "--max-n", "-3", "--lambda", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flag,text",
    [
        ("--lambda", "1/2\n"),
        ("--lambda", "\u0663"),  # ARABIC-INDIC DIGIT THREE
        ("--max-n", "+5"),
        ("--max-n", " 5"),
        ("--max-n", "1_0"),
        ("--max-n", "\u0662"),  # ARABIC-INDIC DIGIT TWO
        ("--r", "+1"),
    ],
)
def test_numbers_on_the_command_line_are_strict_ascii(flag, text, capsys):
    args = {"--max-n": "2", "--r": "1", "--lambda": "0", flag: text}
    with pytest.raises(SystemExit) as exc:
        run(["rbell", *[token for pair in args.items() for token in pair]])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "identity,flags",
    [
        ("spivey-bell", ["--r", "7"]),
        ("spivey-bell", ["--max-k", "3"]),
        ("spivey-bell", ["--r", "7", "--max-k", "3"]),
        ("spivey-rbell", ["--max-k", "3"]),
        ("normal-order", ["--max-k", "3"]),
        ("commutation", ["--r", "2"]),
    ],
)
def test_verify_rejects_flags_the_identity_never_reads(identity, flags, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--identity", identity, *flags, "--lambda", "0"])
    assert exc.value.code == 2
    assert "is not used by --identity" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,echo",
    [
        (["verify", "--identity", "spivey-bell", "--max-m", "1", "--max-n", "2"],
         {"identity": "spivey-bell", "max_m": 1, "max_n": 2}),
        (["verify", "--identity", "spivey-rbell", "--max-m", "1", "--max-n", "2", "--r", "1"],
         {"identity": "spivey-rbell", "max_m": 1, "max_n": 2, "r": 1}),
        (["verify", "--identity", "normal-order", "--max-n", "2", "--r", "1", "--max-m", "3"],
         {"identity": "normal-order", "max_n": 2, "r": 1, "max_m": 3}),
        (["verify", "--identity", "commutation", "--max-k", "1", "--max-m", "1", "--max-n", "2"],
         {"identity": "commutation", "max_k": 1, "max_m": 1, "max_n": 2}),
        (["oracle-check", "--max-n", "2", "--r", "1"],
         {"identity": "triple-agreement", "max_n": 2, "r": 1}),
    ],
)
def test_report_commands_accept_and_echo_every_flag_they_read(argv, echo, capsys):
    assert run([*argv, "--lambda=-2/3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["parameters"] == {**echo, "lambdas": ["-2/3"]}
    assert list(doc["parameters"]) == [*echo, "lambdas"]
    assert doc["records"][0]["status"] == "pass"


def test_normal_order_echoes_max_m_only_when_given(capsys):
    argv = ["verify", "--identity", "normal-order", "--max-n", "2", "--r", "0", "--lambda", "1"]
    assert run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "max_m" not in doc["parameters"]
    assert doc["records"][0]["grid"]["m_max"] is None
    assert run(argv + ["--max-m", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["parameters"]["max_m"] == 4
    assert doc["records"][0]["grid"]["m_max"] == 4
    assert doc["records"][0]["checked"] == 3 * 5


def _run_python(*args, close_stdout=False):
    src = str(Path(degenbell.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # sh's ">&-" starts the interpreter with file descriptor 1 closed.
    shell = ["sh", "-c", 'exec "$@" >&-', "sh"] if close_stdout else []
    return subprocess.run([*shell, sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def _run_module(module, *argv, close_stdout=False):
    return _run_python("-m", module, *argv, close_stdout=close_stdout)


@pytest.mark.parametrize(
    "argv",
    [
        ["stirling", "--max-n", "3", "--lambda", "0"],
        ["verify", "--identity", "spivey-bell", "--max-m", "1", "--max-n", "1"],
    ],
)
def test_unwritable_out_is_a_usage_error(argv, tmp_path):
    # Exit 1 is reserved for a report with failures, so CI can tell the two apart.
    path = tmp_path / "missing" / "out.json"
    done = _run_module("degenbell", *argv, "--out", str(path))
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith(f"degenbell: error: cannot write {path}: ")
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["stirling", "--max-n", "2", "--lambda", "0"],
        ["verify", "--identity", "spivey-bell", "--max-m", "1", "--max-n", "1"],
    ],
)
def test_closed_stdout_is_a_usage_error(argv):
    # Python sets sys.stdout to None when fd 1 is closed at start-up; that
    # must read as a failed write (exit 2), not as a failing report (exit 1).
    done = _run_module("degenbell", *argv, close_stdout=True)
    assert done.returncode == 2
    assert done.stderr.startswith("degenbell: error: cannot write stdout: ")
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("module", ["degenbell", "degenbell.cli"])
def test_module_entry_points_run_the_cli(module):
    done = _run_module(module, "stirling", "--max-n", "3", "--lambda", "0", "--format", "csv")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-4:] == ["3,0,0", "3,1,1", "3,2,3", "3,3,1"]
    assert _run_module(module, "frobnicate").returncode == 2


# Every name degenbell exported when its __init__ imported each module.
PACKAGE_EXPORTS = (
    "DEFAULT_LAMBDAS", "classical_spivey_terms", "spivey_bell_terms", "spivey_rhs_bell",
    "spivey_rhs_rbell", "triple_agreement", "verify_spivey_bell", "verify_spivey_rbell",
    "ExpWeightedPoly", "OperatorWord", "apply_D", "apply_X", "apply_degenerate_operator_product",
    "commutation_checks", "commutation_suite", "extract_bell_via_operators",
    "extract_rbell_via_operators", "factorization_check", "normal_order_check",
    "normal_order_suite", "Poly", "Rational", "as_rational", "binomial",
    "degenerate_falling_eval", "degenerate_falling_factorial", "degenerate_falling_product",
    "falling_factorial", "Failure", "VerificationReport", "TruncatedSeries",
    "bell_polys_via_series", "degenerate_exp_series", "rbell_polys_via_series",
    "stirling_rows_via_series", "StirlingTriangle", "bell_number_classical_bruteforce",
    "bell_number_degenerate", "bell_poly_degenerate", "r_stirling2_degenerate",
    "rbell_poly_degenerate", "restricted_growth_strings", "stirling2_degenerate",
    "stirling_via_basis_expansion", "triangle",
)


@pytest.mark.parametrize("command", ["stirling", "rstirling", "bell", "rbell"])
def test_table_command_loads_only_polyalg_and_triangles(command):
    # The package and the CLI import the report modules on first use, so a
    # table process never compiles or runs them.
    code = (
        "import sys; from degenbell.cli import run; "
        f"run(['{command}', '--max-n', '4', '--lambda=-2/3', '--format', 'json']); "
        "print(sorted(m for m in sys.modules if m.startswith('degenbell')"
        " or m in ('dataclasses', 'inspect', 'json')), file=sys.stderr)"
    )
    done = _run_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stderr.strip() == str(["degenbell", "degenbell.cli", "degenbell.polyalg", "degenbell.triangles"])
    assert json.loads(done.stdout)["kind"] == command


@pytest.mark.parametrize("name", PACKAGE_EXPORTS)
def test_every_package_export_still_imports(name):
    namespace = {}
    exec(f"from degenbell import {name}", namespace)
    assert namespace[name] is getattr(degenbell, name)
    assert name in dir(degenbell)


def test_unknown_package_and_cli_attributes_raise_attribute_error():
    # The tracer patches by getattr(module, name, None); a lazy module must
    # answer an unknown name with AttributeError, not an import or a value.
    import degenbell.cli as cli

    for module in (degenbell, cli):
        assert getattr(module, "no_such_name", None) is None
        with pytest.raises(AttributeError):
            module.no_such_name
    with pytest.raises(ImportError):
        exec("from degenbell import no_such_name", {})
    assert cli.verify_spivey_bell is degenbell.verify_spivey_bell


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # Every CLI operation is a cold interpreter, so its import path is part
    # of each run's cost; the record classes are plain __slots__/namedtuple.
    done = _run_python(
        "-c",
        "import sys, degenbell.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv,command,message",
    [
        (["bell", "--max-n", "2"], "bell", "--lambda is required"),
        (["stirling", "--max-n", "2", "--lambda", "1", "--lambda", "2"], "stirling", "expected exactly one --lambda"),
        (["verify", "--identity", "spivey-bell", "--r", "2"], "verify", "--r is not used by --identity spivey-bell"),
    ],
)
def test_errors_after_parsing_print_the_subcommand_usage(argv, command, message, capsys):
    # The same usage and prefix as argparse's own errors for that subcommand.
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage: degenbell {command} [-h]")
    assert err.endswith(f"\ndegenbell {command}: error: {message}\n")
    with pytest.raises(SystemExit):
        run([command, "--max-n", "x"])
    err = capsys.readouterr().err
    assert err.startswith(f"usage: degenbell {command} [-h]")
    assert f"\ndegenbell {command}: error: argument --max-n" in err
