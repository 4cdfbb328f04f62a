"""Table output against an independent reference, byte for byte.

The CLI prints each entry straight from the integer rows of the triangle and
writes JSON from a fixed template. The reference here takes the other road:
rows by change of basis (`stirling_via_basis_expansion`, which never touches
the recurrence), one `Fraction` record per entry, serialised with
`json.dumps(doc, indent=2)` or the CSV join. The golden digests pin one size;
this covers small sizes, every table command and both formats.
"""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenbell.cli import run
from degenbell.triangles import stirling_via_basis_expansion

COMMANDS = ("stirling", "rstirling", "bell", "rbell")

lambdas = st.one_of(
    st.just(F(0)),
    st.integers(-6, 6).map(F),
    st.builds(lambda p, q: F(-p, q), st.integers(1, 200), st.integers(2, 200)),
)


def reference_table(command, max_n, r, lam, fmt):
    rows = [stirling_via_basis_expansion(n, r, lam) for n in range(max_n + 1)]
    lines = ["n,k,value"]
    if command.endswith("stirling"):
        records = [
            {"n": n, "k": k, "value": str(value)}
            for n, row in enumerate(rows)
            for k, value in enumerate(row)
        ]
        lines += [f"{rec['n']},{rec['k']},{rec['value']}" for rec in records]
    else:
        records = [
            {"n": n, "coefficients": [str(c) for c in row], "value": str(sum(row))}
            for n, row in enumerate(rows)
        ]
        for rec in records:
            n = rec["n"]
            lines += [f"{n},{k},{text}" for k, text in enumerate(rec["coefficients"])]
            lines.append(f"{n},phi1,{rec['value']}")
    params = {"max_n": max_n, "r": r, "lambda": str(lam)}
    if not command.startswith("r"):
        del params["r"]
    if fmt == "csv":
        return "\n".join(lines) + "\n"
    doc = {"kind": command, "parameters": params, "records": records}
    return json.dumps(doc, indent=2) + "\n"


@settings(max_examples=80, deadline=None)
@given(
    command=st.sampled_from(COMMANDS),
    fmt=st.sampled_from(("csv", "json")),
    max_n=st.integers(0, 15),
    r=st.integers(0, 4),
    lam=lambdas,
)
@example(command="rbell", fmt="json", max_n=0, r=0, lam=F(0))
@example(command="rstirling", fmt="csv", max_n=15, r=0, lam=F(-197, 199))
@example(command="bell", fmt="json", max_n=15, r=0, lam=F(-5))
def test_table_bytes_match_fraction_reference(command, fmt, max_n, r, lam):
    if not command.startswith("r"):
        r = 0
    argv = [command, "--max-n", str(max_n), f"--lambda={lam}", "--format", fmt]
    if command.startswith("r"):
        argv += ["--r", str(r)]
    expected = reference_table(command, max_n, r, lam, fmt)

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run(argv) == 0
    assert stdout.getvalue() == expected

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.out")
        with contextlib.redirect_stdout(io.StringIO()) as quiet:
            assert run(argv + ["--out", path]) == 0
        assert quiet.getvalue() == ""
        with open(path, "rb") as fh:
            assert fh.read() == expected.encode("utf-8")
