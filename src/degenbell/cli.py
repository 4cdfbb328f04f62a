"""Command-line front end: triangle tables, Bell-type polynomial tables, and
identity verification reports, emitted as CSV or JSON.

Output is byte-deterministic for fixed flags: rationals are canonical "p/q"
strings, record order is fixed, and timing never reaches the stream. The
verify and oracle-check commands exit 0 exactly when the report has no
failures, so CI can gate on them.
"""

from __future__ import annotations

import argparse
import errno
import os
import re
import sys
from fractions import Fraction
from importlib import import_module
from math import gcd
from operator import mul

from .polyalg import as_rational
from .triangles import triangle

# The report suites and their default lambdas are imported on the report
# path only, so a table process loads neither identities nor operators.
# Module __getattr__ (PEP 562) binds each name as a global on first read,
# through the package's own lazy exports; the report path reads them all
# before dispatch, and from then on the _REPORTS lambdas, the tracer and a
# patch of degenbell.cli.<name> share that one binding.
_SUITE_NAMES = (
    "DEFAULT_LAMBDAS",
    "triple_agreement",
    "verify_spivey_bell",
    "verify_spivey_rbell",
    "normal_order_suite",
    "commutation_suite",
)


def __getattr__(name):
    if name not in _SUITE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(__package__), name)
    return value


# ASCII digits only: \d and int() also take other scripts' digits, and int()
# takes a sign, surrounding spaces and underscores.
_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")
_INT_RE = re.compile(r"-?[0-9]+")


def parse_rational(text: str) -> Fraction:
    """Strict 'p' or 'p/q' with nonzero q; decimal notation is rejected so no
    float ever sneaks into the exact pipeline."""
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not an integer or p/q rational: {text!r}")
    if "/" in text:
        p, q = text.split("/")
        if int(q) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(p), int(q))
    return Fraction(int(text))


def format_rational(value: Fraction) -> str:
    """Canonical form: reduced, 'p/q' with q >= 1, bare 'p' when q == 1."""
    return str(as_rational(value))


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _nonneg_int(text: str) -> int:
    if not _INT_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("bounds must be nonnegative")
    return value


# Table commands: name -> (takes --r, help). Each plain table is the r = 0
# case of its r-shifted twin and shares its code path.
_TABLE_COMMANDS = {
    "stirling": (False, "triangle of deformed second-kind numbers"),
    "rstirling": (True, "triangle of r-shifted deformed numbers"),
    "bell": (False, "Bell-type polynomials and their values at 1"),
    "rbell": (True, "r-shifted Bell-type polynomials and values at 1"),
}


# Report commands: identity -> (the flags it reads, with their defaults, in
# the order "parameters" echoes them, where a default of None is echoed only
# when the flag is given; its suite, called with (grid, lambdas) and looked up
# by name at run time). oracle-check runs triple-agreement, verify the rest.
_REPORTS = {
    "spivey-bell": (
        {"max_m": 6, "max_n": 6},
        lambda g, lams: verify_spivey_bell(g["max_m"], g["max_n"], lams),
    ),
    "spivey-rbell": (
        {"max_m": 5, "max_n": 5, "r": 3},
        lambda g, lams: verify_spivey_rbell(g["max_m"], g["max_n"], g["r"], lams),
    ),
    "normal-order": (
        {"max_n": 8, "r": 3, "max_m": None},
        lambda g, lams: normal_order_suite(g["max_n"], g["r"], lams, m_max=g["max_m"]),
    ),
    "commutation": (
        {"max_k": 4, "max_m": 6, "max_n": 10},
        lambda g, lams: commutation_suite(g["max_k"], g["max_m"], lams, total_max=g["max_n"]),
    ),
    "triple-agreement": (
        {"max_n": 12, "r": 3},
        lambda g, lams: triple_agreement(g["max_n"], g["r"], lams),
    ),
}
_VERIFY_IDENTITIES = tuple(name for name in _REPORTS if name != "triple-agreement")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenbell",
        description="Tables and verification reports for deformed Stirling/Bell families.",
        epilog="Negative rationals need the '=' form, e.g. --lambda=-2/3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, identities=()):
        # The flags the identities read: the bounds, then the shift r.
        flags = dict.fromkeys(flag for name in identities for flag in _REPORTS[name][0])
        for flag in sorted(flags, key=lambda flag: flag == "r"):
            p.add_argument(f"--{flag.replace('_', '-')}", type=_nonneg_int, default=None)
        p.add_argument(
            "--lambda",
            dest="lambdas",
            action="append",
            type=_rational_arg,
            metavar="P/Q",
            help="deformation parameter, integer or p/q (repeatable)",
        )
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--out", default="stdout", metavar="PATH", help="output path, or 'stdout'")

    for name, (has_r, help_text) in _TABLE_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--max-n", type=_nonneg_int, required=True)
        if has_r:
            p.add_argument("--r", type=_nonneg_int, default=0)
        common(p)

    p = sub.add_parser("verify", help="run one identity suite; exit 0 iff it passes")
    p.add_argument("--identity", required=True, choices=_VERIFY_IDENTITIES)
    common(p, _VERIFY_IDENTITIES)

    p = sub.add_parser("oracle-check", help="triangle vs series vs operator agreement")
    common(p, ["triple-agreement"])

    # Errors found after parsing print the subcommand's usage, as argparse's own do.
    for p in sub.choices.values():
        p.set_defaults(error=p.error)
    return parser


def _single_lambda(args) -> Fraction:
    if not args.lambdas:
        args.error("--lambda is required")
    if len(args.lambdas) > 1:
        args.error("expected exactly one --lambda")
    return args.lambdas[0]


def _ratio(num: int, den: int) -> str:
    """num/den in the canonical form of format_rational, with one gcd."""
    if den == 1:
        return str(num)
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _formatted_rows(tri, max_n: int):
    """Yield (n, V, texts, powers) for rows n = 0..max_n: the integer row
    V(n, k) = q^(n-k) T(n, k), the texts of the entries T(n, k), and
    q^0 .. q^n (None when q = 1, where V is the row itself)."""
    powers = None if tri.lam.denominator == 1 else [1]
    for n in range(max_n + 1):
        v = tri.scaled_row(n)
        if powers is None:
            yield n, v, list(map(str, v)), None
            continue
        if n:
            powers.append(powers[-1] * tri.lam.denominator)
        yield n, v, [_ratio(c, powers[n - k]) for k, c in enumerate(v)], powers


def _triangle_output(tri, max_n: int, fmt: str) -> list[str]:
    """The table's CSV lines, or its JSON record texts, for entries (n, k)."""
    out = ["n,k,value"] if fmt == "csv" else []
    for n, _, texts, _ in _formatted_rows(tri, max_n):
        if fmt == "csv":
            out.extend([f"{n},{k},{text}" for k, text in enumerate(texts)])
        else:
            out.extend([
                f'    {{\n      "n": {n},\n      "k": {k},\n      "value": "{text}"\n    }}'
                for k, text in enumerate(texts)
            ])
    return out


def _poly_output(tri, max_n: int, fmt: str) -> list[str]:
    """The table's CSV lines, or its JSON record texts, for the polynomials
    sum_k T(n, k) x^k and their values at 1, sum_k V(n, k) q^k over q^n."""
    out = ["n,k,value"] if fmt == "csv" else []
    for n, v, texts, powers in _formatted_rows(tri, max_n):
        if powers is None:
            at_one = str(sum(v))
        else:
            at_one = _ratio(sum(map(mul, v, powers)), powers[n])
        if fmt == "csv":
            out.extend([f"{n},{k},{text}" for k, text in enumerate(texts)])
            out.append(f"{n},phi1,{at_one}")
        else:
            coefficients = ",\n".join([f'        "{text}"' for text in texts])
            out.append(
                f'    {{\n      "n": {n},\n      "coefficients": [\n{coefficients}\n      ],'
                f'\n      "value": "{at_one}"\n    }}'
            )
    return out


def _report_output(report, fmt: str) -> list[str]:
    """The report's CSV lines, or its one JSON record text, indented to sit
    inside the document."""
    if fmt == "csv":
        return [
            "identity,status,checked,failures",
            f"{report.identity},{'pass' if report.passed else 'fail'},{report.checked},{len(report.failures)}",
        ]
    import json

    return ["    " + json.dumps(report.to_json_dict(), indent=2).replace("\n", "\n    ")]


def _json_value(value, indent: str) -> str:
    """An int, a string with nothing to escape, or a nonempty list of them,
    as json.dumps(..., indent=2) writes it at this indent."""
    if isinstance(value, list):
        items = ",\n".join(f"{indent}  {_json_value(v, indent)}" for v in value)
        return f"[\n{items}\n{indent}]"
    return str(value) if isinstance(value, int) else f'"{value}"'


def _write(text: str, out: str) -> None:
    if out in ("stdout", "-"):
        if sys.stdout is None:  # started with stdout closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit(kind: str, parameters: dict, records: list[str], args) -> None:
    """Write CSV lines, or the JSON document around the record texts: the
    bytes of json.dumps({"kind", "parameters", "records"}, indent=2)."""
    if args.format == "csv":
        text = "\n".join(records) + "\n"
    else:
        params = ",\n".join(f'    "{k}": {_json_value(v, "    ")}' for k, v in parameters.items())
        body = ",\n".join(records)
        text = (
            f'{{\n  "kind": "{kind}",\n  "parameters": {{\n{params}\n  }},'
            f'\n  "records": [\n{body}\n  ]\n}}\n'
        )
    try:
        _write(text, args.out)
    except OSError as exc:
        # Exit 1 means "the report has failures"; a failed write is exit 2.
        sys.stderr.write(f"degenbell: error: cannot write {args.out}: {exc.strerror}\n")
        raise SystemExit(2) from None


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command in _TABLE_COMMANDS:
        lam = _single_lambda(args)
        r = getattr(args, "r", 0)
        output = _triangle_output if args.command.endswith("stirling") else _poly_output
        records = output(triangle(lam, r), args.max_n, args.format)
        params = {"max_n": args.max_n, "r": r, "lambda": format_rational(lam)}
        if not hasattr(args, "r"):  # a plain table is the r = 0 case and prints no r
            del params["r"]
        _emit(args.command, params, records, args)
        return 0

    for name in {*_SUITE_NAMES} - globals().keys():
        __getattr__(name)  # bind what the _REPORTS lambdas read
    lambdas = list(args.lambdas) if args.lambdas else list(DEFAULT_LAMBDAS)
    identity = getattr(args, "identity", "triple-agreement")
    defaults, suite = _REPORTS[identity]
    given = {flag: value for flag, value in vars(args).items() if value is not None}
    for flag in dict.fromkeys(f for flags, _ in _REPORTS.values() for f in flags):
        if flag in given and flag not in defaults:
            args.error(f"--{flag.replace('_', '-')} is not used by --identity {identity}")
    grid = {flag: given.get(flag, default) for flag, default in defaults.items()}
    report = suite(grid, lambdas)
    params = {"identity": identity, **{k: v for k, v in grid.items() if v is not None}}
    params["lambdas"] = [format_rational(v) for v in lambdas]
    _emit("verify", params, _report_output(report, args.format), args)
    return 0 if report.passed else 1


def main(argv=None) -> None:
    raise SystemExit(run(argv))


if __name__ == "__main__":
    main()
