"""Seeded operation streams for the three workloads, and the checks that
decide whether an operation's output is correct.

Every workload is a stream of rounds. A round is a fixed list of slots (a
stratified design), and the seed only permutes the slots and draws the sizes
and lambdas inside each slot's narrow range, so the mix of cheap and costly
operations is the same in every round and every run. That is what keeps
throughput and latency comparable across seeds.

The output checks never reuse the route under test:

* a table row T(n, .) is checked through the change of basis
  sum_k T(n,k) (x0)_k = prod_{i<n} (x0 + r - i*lam) at a seeded non-integer
  rational x0, modulo a 61-bit prime for every row, and exactly over
  Fraction for the last row and a seeded sample of other rows;
* a verification report must say "pass" with no failures, and its checked
  count must equal the count this module derives from the grid by its own
  formula, so a run that skips checks is a failed run, not a faster one.
"""

from __future__ import annotations

import json
import random
import re
import time
from fractions import Fraction

P = (1 << 61) - 1
# Slots per round. An odd count puts the median and p75 of a run's latencies
# inside one slot's cluster of similar costs, not in the gap between two.
ROUND = 9
# A run stops starting operations after this much real time, whole round or
# not, so that even a much slower program ends within the time a run has.
DEADLINE_S = 140
_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")


# The time speed_probe() takes on the reference machine (a 2-core 2.0 GHz
# Xeon VM in a spell when no neighbouring load slows it). Timings are also
# reported rescaled to this speed: on that VM a fixed CPU-bound job's time
# varies up to 1.9x within seconds, with CPU time equal to wall time.
PROBE_REF_S = 0.0135


class CheckError(Exception):
    """An output that is malformed or wrong."""


def speed_probe() -> float:
    """Seconds for a fixed stdlib-only job shaped like the program's work:
    60 rows of a Stirling-type triangle recurrence over Fraction."""
    start = time.perf_counter()
    lam, r = Fraction(-7, 9), 2
    row = (Fraction(1),)
    for m in range(60):
        row = tuple((row[k - 1] if k else 0) + ((k + r - m * lam) * row[k] if k <= m else 0)
                    for k in range(m + 2))
    return time.perf_counter() - start


def rescale(wall: float, probe_before: float, probe_after: float) -> float:
    """A wall time rescaled to the reference speed, by the probes taken just
    before and just after it on the same CPU."""
    return wall * 2 * PROBE_REF_S / (probe_before + probe_after)


# ---------------------------------------------------------------- inputs


def draw_lambda(rng: random.Random, cls: str) -> Fraction:
    """A lambda of the given size class: zero, an integer, or p/q whose
    reduced denominator has 1 to 4 digits. Within a class the size is kept
    narrow (q in the top four tenths of its digit range, |lam| in [1/2, 3/2],
    |integer| in 2..4), because the bit growth of every route follows it and
    a wide draw would make one run's cost depend on luck."""
    if cls == "zero":
        return Fraction(0)
    sign = rng.choice((1, -1))
    if cls == "int":
        return Fraction(sign * rng.randint(2, 4))
    digits = int(cls[-1])
    q = rng.randint(6 * 10 ** (digits - 1), 10**digits - 1)
    while True:
        p = rng.randint((q + 1) // 2, 3 * q // 2)
        if Fraction(p, q).denominator == q:
            return Fraction(sign * p, q)


def _lam_arg(lam: Fraction) -> str:
    return f"--lambda={lam}"


# Table slots: (command, format, lambda class, max-n range, r range).
# Sizes shrink as the lambda's denominator grows, so that every slot costs
# a few tenths of a second and no single slot dominates a round.
TABLE_SLOTS = (
    ("stirling", "csv", "zero", (234, 236), None),
    ("stirling", "json", "den4", (121, 123), None),
    ("rstirling", "csv", "den2", (142, 144), (1, 4)),
    ("rstirling", "json", "int", (162, 164), (0, 4)),
    ("bell", "csv", "den1", (162, 164), None),
    ("bell", "json", "int", (172, 174), None),
    ("rbell", "csv", "den3", (121, 123), (1, 4)),
    ("rbell", "json", "den1", (152, 154), (1, 4)),
    ("rstirling", "json", "den1", (150, 152), (1, 4)),
)

# Verify slots: (identity, format, lambda classes, grid). Grids sit around
# the CLI defaults and are fixed per slot, because a grid one step larger can
# cost half again as much; the seed only swaps max_m and max_n. Every other
# slot includes lam = 0 so the classical-powers branch of spivey-rbell and
# the lam = 0 paths run. The three costliest slots cost about the same, so
# the p75 latency falls inside one cluster of costs, not at its edge.
VERIFY_SLOTS = (
    ("spivey-bell", "json", ("zero", "den1"), {"max_m": 6, "max_n": 7}),
    ("spivey-bell", "csv", ("den2",), {"max_m": 7, "max_n": 8}),
    ("spivey-rbell", "json", ("zero",), {"max_m": 5, "max_n": 6, "r": 3}),
    ("spivey-rbell", "json", ("int", "den1"), {"max_m": 5, "max_n": 5, "r": 2}),
    ("normal-order", "json", ("zero", "int"), {"max_n": 11, "r": 3}),
    ("normal-order", "csv", ("den2",), {"max_n": 8, "r": 3}),
    ("commutation", "json", ("den1",), {"max_k": 4, "max_m": 6, "max_n": 10}),
    ("commutation", "json", ("zero",), {"max_k": 4, "max_m": 7, "max_n": 10}),
    ("spivey-rbell", "csv", ("den2",), {"max_m": 4, "max_n": 5, "r": 2}),
)

# Oracle slots: (kind, pool index, n range, r range). The pool holds three
# lambdas drawn once per run, so (lam, r) pairs repeat across operations and
# the process-wide triangle cache is exercised.
ORACLE_POOL = ("int", "den1", "den2")
ORACLE_SLOTS = (
    ("triple", 0, (29, 31), (2, 2)),
    ("triple", 1, (24, 26), (3, 3)),
    ("triple", 2, (22, 24), (1, 1)),
    ("triple", 1, (25, 27), (2, 2)),
    ("series-bell", 0, (52, 54), None),
    ("series-bell", 1, (46, 48), None),
    ("series-rbell", 2, (35, 37), (1, 3)),
    ("series-rbell", 1, (39, 41), (1, 3)),
    ("series-bell", 2, (40, 42), None),
)


def _check_points(rng: random.Random, n: int):
    """A seeded non-integer x0, and the rows checked exactly: the last row
    and three others."""
    v = rng.randint(2, 9)
    x0 = Fraction(rng.choice([a for a in range(-40, 41) if a % v]), v)
    return x0, sorted({n, *rng.sample(range(1, n), 3)})


def _table_op(rng: random.Random, slot) -> dict:
    command, fmt, cls, (n_lo, n_hi), r_range = slot
    lam = draw_lambda(rng, cls)
    n = rng.randint(n_lo, n_hi)
    r = rng.randint(*r_range) if r_range else 0
    argv = [command, "--max-n", str(n)]
    if r_range:
        argv += ["--r", str(r)]
    argv += [_lam_arg(lam), "--format", fmt]
    x0, exact_rows = _check_points(rng, n)
    return {
        "kind": "table", "argv": argv, "command": command, "format": fmt,
        "n": n, "r": r, "lambdas": [lam], "pairs": [(lam, r)],
        "x0": x0, "exact_rows": exact_rows,
    }


def _verify_op(rng: random.Random, slot) -> dict:
    identity, fmt, classes, grid = slot
    lams = [draw_lambda(rng, c) for c in classes]
    grid = dict(grid)
    if identity.startswith("spivey") and rng.random() < 0.5:
        grid["max_m"], grid["max_n"] = grid["max_n"], grid["max_m"]
    argv = ["verify", "--identity", identity]
    for k, val in grid.items():
        argv += ["--" + k.replace("_", "-"), str(val)]
    argv += [_lam_arg(lam) for lam in lams] + ["--format", fmt]
    r_max = grid.get("r", 0)
    return {
        "kind": "verify", "argv": argv, "identity": identity, "format": fmt,
        "grid": grid, "lambdas": lams,
        "pairs": [(lam, r) for lam in lams for r in range(r_max + 1)],
        "expected_checked": expected_verify_checked(identity, grid, lams),
    }


def _oracle_op(rng: random.Random, slot, pool) -> dict:
    kind, idx, (n_lo, n_hi), r_range = slot
    lam = pool[idx]
    n = rng.randint(n_lo, n_hi)
    r = rng.randint(*r_range) if r_range else 0
    op = {"kind": kind, "n": n, "r": r, "lambdas": [lam]}
    if kind == "triple":
        op["pairs"] = [(lam, rr) for rr in range(r + 1)]
        op["expected_checked"] = expected_triple_checked(n, r, [lam])
    else:
        op["pairs"] = [(lam, r)]
        op["x0"], op["exact_rows"] = _check_points(rng, n)
    return op


def rounds(workload: str, seed: int):
    """Yield the workload's rounds forever; the same seed yields the same
    rounds."""
    rng = random.Random(f"degenbell-{workload}-{seed}")
    if workload == "tables":
        slots, make = TABLE_SLOTS, _table_op
    elif workload == "verify":
        slots, make = VERIFY_SLOTS, _verify_op
    elif workload == "oracle":
        pool = [draw_lambda(rng, c) for c in ORACLE_POOL]
        slots = ORACLE_SLOTS

        def make(r, s):
            return _oracle_op(r, s, pool)
    else:
        raise ValueError(f"unknown workload: {workload}")
    while True:
        order = list(slots)
        rng.shuffle(order)
        yield [make(rng, s) for s in order]


def input_properties(ops) -> dict:
    """Shares of operations whose lambdas are all integers, that include
    lam = 0, and whose every (lam, r) pair already occurred earlier in the
    run (the share a cache keyed by (lam, r) could serve)."""
    seen = set()
    integer = zero = repeat = 0
    for op in ops:
        integer += all(lam.denominator == 1 for lam in op["lambdas"])
        zero += any(lam == 0 for lam in op["lambdas"])
        repeat += all(p in seen for p in op["pairs"])
        seen.update(op["pairs"])
    total = max(len(ops), 1)
    return {
        "integer_lambda_share": integer / total,
        "zero_lambda_share": zero / total,
        "lambda_r_repeat_share": repeat / total,
    }


# ------------------------------------------------------- expected counts


def expected_verify_checked(identity: str, grid: dict, lams) -> int:
    """The number of comparisons a correct report holds for this grid."""
    n_lam = len(lams)
    if identity == "spivey-bell":
        return n_lam * (grid["max_m"] + 1) * (grid["max_n"] + 1) * 2
    if identity == "spivey-rbell":
        cells = (grid["r"] + 1) * (grid["max_m"] + 1) * (grid["max_n"] + 1)
        return (n_lam + sum(1 for lam in lams if lam == 0)) * cells
    if identity == "normal-order":
        n = grid["max_n"]
        return n_lam * (grid["r"] + 1) * (n + 1) * (n + 2) // 2
    if identity == "commutation":
        k, m, t = grid["max_k"], grid["max_m"], grid["max_n"]
        # Per lambda: 2K(M+1) ladder checks, 9 shifts x 5 lengths x (K+1)
        # x (M+1) product checks, and the factorization pairs.
        return n_lam * ((m + 1) * (47 * k + 45) + (t + 1) * (t + 2))
    raise ValueError(f"unknown identity: {identity}")


def expected_triple_checked(n: int, r: int, lams) -> int:
    return len(lams) * 2 * (n + 1) * (r + 2)


# ---------------------------------------------------------------- checks


def _mod(value: Fraction) -> int:
    return value.numerator % P * pow(value.denominator, -1, P) % P


def _mod_str(text: str) -> int:
    if not _RATIONAL_RE.match(text):
        raise CheckError(f"not a p/q rational: {text[:40]!r}")
    a, _, b = text.partition("/")
    if not b:
        return int(a) % P
    den = int(b) % P
    if den == 0:
        raise CheckError(f"denominator vanishes mod p: {text[:40]!r}")
    return int(a) % P * pow(den, -1, P) % P


def _canonical(text: str) -> Fraction:
    value = Fraction(text)
    if str(value) != text:
        raise CheckError(f"non-canonical rational: {text[:40]!r}")
    return value


class RowChecker:
    """Checks rows 0..n of the (lam, r) family against the change-of-basis
    identity at x0."""

    def __init__(self, n: int, r: int, lam: Fraction, x0: Fraction, exact_rows):
        self.r, self.lam, self.x0 = r, lam, x0
        self.exact_rows = set(exact_rows)
        xm, lm = _mod(x0), _mod(lam)
        self.ff = [1] * (n + 2)  # (x0)_k mod P
        self.rhs = [1] * (n + 2)  # prod_{i<n} (x0 + r - i*lam) mod P
        for k in range(n + 1):
            self.ff[k + 1] = self.ff[k] * (xm - k) % P
            self.rhs[k + 1] = self.rhs[k] * (xm + r - k * lm) % P

    def check_mod(self, n: int, residues) -> int:
        """Verify row n from residues; returns the residue of the row sum."""
        if len(residues) != n + 1:
            raise CheckError(f"row {n} has {len(residues)} entries, expected {n + 1}")
        acc = 0
        for c, f in zip(residues, self.ff):
            acc += c * f
        if acc % P != self.rhs[n]:
            raise CheckError(f"row {n} fails the change-of-basis identity")
        return sum(residues) % P

    def check_exact(self, n: int, values) -> Fraction:
        """Verify row n over Fraction; returns the exact row sum."""
        acc, ff = Fraction(0), Fraction(1)
        for k, c in enumerate(values):
            acc += c * ff
            ff *= self.x0 - k
        rhs = Fraction(1)
        for i in range(n):
            rhs *= self.x0 + self.r - i * self.lam
        if acc != rhs:
            raise CheckError(f"row {n} fails the exact change-of-basis identity")
        return sum(values, Fraction(0))


def _table_rows_csv(text: str, op) -> tuple[dict, dict]:
    """Rows and (for polynomial tables) values at 1, as strings, from CSV."""
    lines = text.split("\n")
    if lines[0] != "n,k,value" or lines[-1] != "":
        raise CheckError("bad CSV framing")
    rows: dict[int, list[str]] = {}
    values: dict[int, str] = {}
    for line in lines[1:-1]:
        n_s, k_s, v = line.split(",")
        n = int(n_s)
        if k_s == "phi1":
            values[n] = v
            continue
        row = rows.setdefault(n, [])
        if int(k_s) != len(row):
            raise CheckError(f"row {n} out of order at k={k_s}")
        row.append(v)
    return rows, values


def _table_rows_json(text: str, op) -> tuple[dict, dict]:
    doc = json.loads(text)
    expected = {"max_n": op["n"], "lambda": str(op["lambdas"][0])}
    if op["command"] in ("rstirling", "rbell"):
        expected["r"] = op["r"]
    if doc.get("kind") != op["command"] or doc.get("parameters") != expected:
        raise CheckError("JSON kind or parameters do not echo the request")
    rows: dict[int, list[str]] = {}
    values: dict[int, str] = {}
    if op["command"] in ("stirling", "rstirling"):
        for rec in doc["records"]:
            row = rows.setdefault(rec["n"], [])
            if rec["k"] != len(row):
                raise CheckError(f"row {rec['n']} out of order at k={rec['k']}")
            row.append(rec["value"])
    else:
        for rec in doc["records"]:
            if rec["n"] in rows:
                raise CheckError(f"row {rec['n']} repeated")
            rows[rec["n"]] = rec["coefficients"]
            values[rec["n"]] = rec["value"]
    return rows, values


def check_table(text: str, op) -> int:
    """Check a table command's whole output; returns the number of emitted
    coefficients."""
    if not text:
        raise CheckError("empty output")
    parse = _table_rows_csv if op["format"] == "csv" else _table_rows_json
    rows, values = parse(text, op)
    n_max = op["n"]
    if sorted(rows) != list(range(n_max + 1)):
        raise CheckError("rows missing or extra")
    polys = op["command"] in ("bell", "rbell")
    if polys and sorted(values) != list(range(n_max + 1)):
        raise CheckError("values at x=1 missing or extra")
    if not polys and values:
        raise CheckError("unexpected values at x=1")
    checker = RowChecker(n_max, op["r"], op["lambdas"][0], op["x0"], op["exact_rows"])
    emitted = 0
    for n in range(n_max + 1):
        row = rows[n]
        emitted += len(row)
        total = checker.check_mod(n, [_mod_str(v) for v in row])
        if polys and _mod_str(values[n]) != total:
            raise CheckError(f"value at x=1 of row {n} is not the coefficient sum")
        if n in checker.exact_rows:
            exact_total = checker.check_exact(n, [_canonical(v) for v in row])
            if polys and _canonical(values[n]) != exact_total:
                raise CheckError(f"value at x=1 of row {n} is not the exact coefficient sum")
    return emitted


def check_polys(polys, op) -> int:
    """Check an in-process list of Bell-type polynomials for n = 0..op["n"];
    returns the number of polynomials checked."""
    n_max = op["n"]
    if len(polys) != n_max + 1:
        raise CheckError(f"{len(polys)} polynomials, expected {n_max + 1}")
    checker = RowChecker(n_max, op["r"], op["lambdas"][0], op["x0"], op["exact_rows"])
    for n, p in enumerate(polys):
        coeffs = list(p.coeffs)
        checker.check_mod(n, [_mod(c) for c in coeffs])
        if n in checker.exact_rows:
            checker.check_exact(n, coeffs)
    return len(polys)


def check_verify(text: str, op) -> int:
    """Check a verify command's report; returns its checked count."""
    if not text:
        raise CheckError("empty output")
    identity, expected = op["identity"], op["expected_checked"]
    if op["format"] == "csv":
        want = f"identity,status,checked,failures\n{identity},pass,{expected},0\n"
        if text != want:
            raise CheckError(f"report is not a pass with {expected} checks: {text[:120]!r}")
        return expected
    doc = json.loads(text)
    params = doc.get("parameters", {})
    if doc.get("kind") != "verify" or params.get("identity") != identity:
        raise CheckError("JSON kind or identity do not echo the request")
    if params.get("lambdas") != [str(lam) for lam in op["lambdas"]]:
        raise CheckError("JSON lambdas do not echo the request")
    (rec,) = doc["records"]
    if rec.get("status") != "pass" or rec.get("failures"):
        raise CheckError("report did not pass")
    if rec.get("checked") != expected:
        raise CheckError(f"report checked {rec.get('checked')}, expected {expected}")
    return expected


def check_report(report, op) -> int:
    """Check an in-process VerificationReport; returns its checked count."""
    if not report.passed:
        raise CheckError("report did not pass")
    if report.checked != op["expected_checked"]:
        raise CheckError(f"report checked {report.checked}, expected {op['expected_checked']}")
    return report.checked
