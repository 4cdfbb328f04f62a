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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenbell",
        description="Tables and verification reports for deformed Stirling/Bell families.",
        epilog="Negative rationals need the '=' form, e.g. --lambda=-2/3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
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
    p.add_argument(
        "--identity",
        required=True,
        choices=("spivey-bell", "spivey-rbell", "normal-order", "commutation"),
    )
    p.add_argument("--max-m", type=_nonneg_int, default=None)
    p.add_argument("--max-n", type=_nonneg_int, default=None)
    p.add_argument("--max-k", type=_nonneg_int, default=None)
    p.add_argument("--r", type=_nonneg_int, default=None)
    common(p)

    p = sub.add_parser("oracle-check", help="triangle vs series vs operator agreement")
    p.add_argument("--max-n", type=_nonneg_int, default=12)
    p.add_argument("--r", type=_nonneg_int, default=3)
    common(p)

    return parser


# verify flags each identity never reads; passing one is a usage error.
_VERIFY_UNUSED_FLAGS = {
    "spivey-bell": ("r", "max_k"),
    "spivey-rbell": ("max_k",),
    "normal-order": ("max_k",),
    "commutation": ("r",),
}


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
    lambda_strs = [format_rational(v) for v in lambdas]

    if args.command == "verify":
        for flag in _VERIFY_UNUSED_FLAGS[args.identity]:
            if getattr(args, flag) is not None:
                parser.error(f"--{flag.replace('_', '-')} is not used by --identity {args.identity}")
        if args.identity == "spivey-bell":
            m_max = 6 if args.max_m is None else args.max_m
            n_max = 6 if args.max_n is None else args.max_n
            report = verify_spivey_bell(m_max, n_max, lambdas)
            params = {"identity": args.identity, "max_m": m_max, "max_n": n_max, "lambdas": lambda_strs}
        elif args.identity == "spivey-rbell":
            m_max = 5 if args.max_m is None else args.max_m
            n_max = 5 if args.max_n is None else args.max_n
            r_max = 3 if args.r is None else args.r
            report = verify_spivey_rbell(m_max, n_max, r_max, lambdas)
            params = {
                "identity": args.identity,
                "max_m": m_max,
                "max_n": n_max,
                "r": r_max,
                "lambdas": lambda_strs,
            }
        elif args.identity == "normal-order":
            n_max = 8 if args.max_n is None else args.max_n
            r_max = 3 if args.r is None else args.r
            report = normal_order_suite(n_max, r_max, lambdas, m_max=args.max_m)
            params = {"identity": args.identity, "max_n": n_max, "r": r_max, "lambdas": lambda_strs}
        else:
            k_max = 4 if args.max_k is None else args.max_k
            m_max = 6 if args.max_m is None else args.max_m
            total_max = 10 if args.max_n is None else args.max_n
            report = commutation_suite(k_max, m_max, lambdas, total_max=total_max)
            params = {
                "identity": args.identity,
                "max_k": k_max,
                "max_m": m_max,
                "max_n": total_max,
                "lambdas": lambda_strs,
            }
    else:  # oracle-check; argparse has rejected every other command
        report = triple_agreement(args.max_n, args.r, lambdas)
        params = {
            "identity": "triple-agreement",
            "max_n": args.max_n,
            "r": args.r,
            "lambdas": lambda_strs,
        }
    records, csv_lines = _report_output(report)
    _emit("verify", params, records, csv_lines, args)
    return 0 if report.passed else 1


def main(argv=None) -> None:
    raise SystemExit(run(argv))


if __name__ == "__main__":
    main()
