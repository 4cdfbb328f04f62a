"""Command-line front end: triangle tables, Bell-type polynomial tables, and
identity verification reports, emitted as CSV or JSON.

Output is byte-deterministic for fixed flags: rationals are canonical "p/q"
strings, record order is fixed, and timing never reaches the stream. The
verify and oracle-check commands exit 0 exactly when the report has no
failures, so CI can gate on them.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .identities import (
    DEFAULT_LAMBDAS,
    triple_agreement,
    verify_spivey_bell,
    verify_spivey_rbell,
)
from .operators import commutation_suite, normal_order_suite
from .triangles import rbell_poly_degenerate, triangle

_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Strict 'p' or 'p/q' with nonzero q; decimal notation is rejected so no
    float ever sneaks into the exact pipeline."""
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not an integer or p/q rational: {text!r}")
    if "/" in text:
        p, q = text.split("/")
        if int(q) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(p), int(q))
    return Fraction(int(text))


def format_rational(value: Fraction) -> str:
    """Canonical form: reduced, 'p/q' with q >= 1, bare 'p' when q == 1."""
    if type(value) is not Fraction:
        value = Fraction(value)
    return str(value)


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
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

    return parser


def _single_lambda(args, parser) -> Fraction:
    if not args.lambdas:
        parser.error("--lambda is required")
    if len(args.lambdas) > 1:
        parser.error("expected exactly one --lambda")
    return args.lambdas[0]


def _triangle_output(tri, max_n: int):
    records = []
    csv_lines = ["n,k,value"]
    for n in range(max_n + 1):
        for k, value in enumerate(tri.row(n)):
            text = format_rational(value)
            records.append({"n": n, "k": k, "value": text})
            csv_lines.append(f"{n},{k},{text}")
    return records, csv_lines


def _poly_output(polys):
    records = []
    csv_lines = ["n,k,value"]
    for n, p in polys:
        at_one = format_rational(p(1))
        texts = [format_rational(c) for c in p.coeffs]
        records.append({"n": n, "coefficients": texts, "value": at_one})
        csv_lines.extend(f"{n},{k},{text}" for k, text in enumerate(texts))
        csv_lines.append(f"{n},phi1,{at_one}")
    return records, csv_lines


def _report_output(report):
    records = [report.to_json_dict()]
    csv_lines = [
        "identity,status,checked,failures",
        f"{report.identity},{'pass' if report.passed else 'fail'},{report.checked},{len(report.failures)}",
    ]
    return records, csv_lines


def _write(text: str, out: str) -> None:
    if out in ("stdout", "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit(kind: str, parameters: dict, records, csv_lines, args) -> None:
    if args.format == "csv":
        text = "\n".join(csv_lines) + "\n"
    else:
        doc = {"kind": kind, "parameters": parameters, "records": records}
        text = json.dumps(doc, indent=2) + "\n"
    _write(text, args.out)


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command in _TABLE_COMMANDS:
        lam = _single_lambda(args, parser)
        r = getattr(args, "r", 0)
        if args.command.endswith("stirling"):
            records, csv_lines = _triangle_output(triangle(lam, r), args.max_n)
        else:
            polys = [(n, rbell_poly_degenerate(n, r, lam)) for n in range(args.max_n + 1)]
            records, csv_lines = _poly_output(polys)
        params = {"max_n": args.max_n, "r": r, "lambda": format_rational(lam)}
        if not hasattr(args, "r"):  # a plain table is the r = 0 case and prints no r
            del params["r"]
        _emit(args.command, params, records, csv_lines, args)
        return 0

    lambdas = list(args.lambdas) if args.lambdas else list(DEFAULT_LAMBDAS)
    identity = getattr(args, "identity", "triple-agreement")
    defaults, suite = _REPORTS[identity]
    given = {flag: value for flag, value in vars(args).items() if value is not None}
    for flag in dict.fromkeys(f for flags, _ in _REPORTS.values() for f in flags):
        if flag in given and flag not in defaults:
            parser.error(f"--{flag.replace('_', '-')} is not used by --identity {identity}")
    grid = {flag: given.get(flag, default) for flag, default in defaults.items()}
    report = suite(grid, lambdas)
    params = {"identity": identity, **{k: v for k, v in grid.items() if v is not None}}
    params["lambdas"] = [format_rational(v) for v in lambdas]
    records, csv_lines = _report_output(report)
    _emit("verify", params, records, csv_lines, args)
    return 0 if report.passed else 1


def main(argv=None) -> None:
    raise SystemExit(run(argv))


if __name__ == "__main__":
    main()
