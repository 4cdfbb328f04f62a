"""Layer tracer for degenbell, installed from outside the package.

`Tracer.install()` replaces public functions and methods of each degenbell
module with wrappers that keep a self-time stack: a call's self time is its
duration minus the time spent in wrapped calls below it, so the layers' self
times partition the time inside the outermost wrapped call. Hot calls
(polynomial arithmetic, triangle reads, report records, operator
application, rational formatting) only update counters; the others also
record a span with its operation id and parent span. Work the tracer does for
itself after a call returns (bit lengths, cache bookkeeping) is kept out of
every layer's self time.
"""

from __future__ import annotations

import importlib
import time
from fractions import Fraction

perf = time.perf_counter
MAX_SPANS = 100_000

# (module, attribute, layer, records a span). "Class.method" attributes are
# patched on the class; plain names are patched in every degenbell module
# that imported the same function object.
TARGETS = (
    ("polyalg", "Poly.__mul__", "polyalg.mul", False),
    ("polyalg", "Poly.__rmul__", "polyalg.mul", False),
    ("polyalg", "Poly.__add__", "polyalg.add", False),
    ("polyalg", "Poly.__call__", "polyalg.eval", False),
    ("triangles", "StirlingTriangle._grow", "triangles.grow", False),
    ("triangles", "StirlingTriangle.row", "triangles.read", False),
    ("triangles", "StirlingTriangle.entry", "triangles.read", False),
    ("triangles", "triangle", "triangles.read", False),
    ("triangles", "stirling2_degenerate", "triangles.read", False),
    ("triangles", "r_stirling2_degenerate", "triangles.read", False),
    ("triangles", "bell_poly_degenerate", "triangles.read", False),
    ("triangles", "rbell_poly_degenerate", "triangles.read", False),
    ("triangles", "bell_number_degenerate", "triangles.read", False),
    ("series", "TruncatedSeries.exp", "series.exp", True),
    ("series", "TruncatedSeries.__mul__", "series.cauchy", True),
    ("series", "degenerate_exp_series", "series.extract", True),
    ("series", "bell_polys_via_series", "series.extract", True),
    ("series", "rbell_polys_via_series", "series.extract", True),
    ("series", "stirling_rows_via_series", "series.extract", True),
    ("operators", "OperatorWord.apply", "operators.apply", False),
    ("operators", "extract_bell_via_operators", "operators.extract", True),
    ("operators", "extract_rbell_via_operators", "operators.extract", True),
    ("operators", "normal_order_check", "operators.suite", True),
    ("operators", "normal_order_suite", "operators.suite", True),
    ("operators", "commutation_checks", "operators.suite", True),
    ("operators", "factorization_check", "operators.suite", True),
    ("operators", "commutation_suite", "operators.suite", True),
    ("identities", "spivey_bell_terms", "identities.rhs", True),
    ("identities", "spivey_rhs_bell", "identities.rhs", True),
    ("identities", "classical_spivey_terms", "identities.rhs", True),
    ("identities", "spivey_rhs_rbell", "identities.rhs", True),
    ("identities", "_classical_rbell_rhs", "identities.rhs", True),
    ("identities", "verify_spivey_bell", "identities.verify", True),
    ("identities", "verify_spivey_rbell", "identities.verify", True),
    ("identities", "triple_agreement", "identities.triple", True),
    ("report", "VerificationReport.record", "report.record", False),
    ("cli", "run", "cli.run", True),
    ("cli", "format_rational", "cli.format", False),
    ("cli", "_triangle_output", "cli.format", True),
    ("cli", "_poly_output", "cli.format", True),
    ("cli", "_report_output", "cli.format", True),
    ("cli", "_emit", "cli.emit", True),
    ("cli", "_write", "cli.emit", False),
)

LAYERS = tuple(dict.fromkeys(t[2] for t in TARGETS))
MODULES = ("polyalg", "triangles", "series", "operators", "identities", "report", "cli")

# Layers whose outputs are exact values worth measuring in bits.
_BITS_LAYERS = {
    "polyalg.mul", "polyalg.add", "polyalg.eval", "series.exp", "series.cauchy",
    "series.extract", "operators.apply", "operators.extract", "identities.rhs",
}


def _bits(value) -> int:
    """Largest numerator or denominator bit length inside a layer output."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    coeffs = getattr(value, "coeffs", None)
    if coeffs is None:
        factor = getattr(value, "factor", None)  # ExpWeightedPoly
        if factor is not None:
            return _bits(factor)
        if isinstance(value, (list, tuple)):
            return max((_bits(v) for v in value), default=0)
        return 0
    if coeffs and not isinstance(coeffs[0], Fraction):  # a series of Polys
        return max((_bits(c) for c in coeffs), default=0)
    best = 0
    for c in coeffs:
        b = c.numerator.bit_length()
        if b > best:
            best = b
        b = c.denominator.bit_length()
        if b > best:
            best = b
    return best


class Tracer:
    """Self times, call counts, counters and spans for one process."""

    def __init__(self):
        self.stats = {layer: [0, 0.0] for layer in LAYERS}  # calls, self seconds
        self.rows_grown = 0
        self.tri_lookups = 0
        self.tri_hits = 0
        self.checked = 0
        self.failed = 0
        self.output_bytes = 0
        self.max_bits = 0
        self.root_s = 0.0  # time inside outermost wrapped calls
        self.op = 0
        self.spans = []
        self.dropped_spans = 0
        self._stack = []  # time spent in wrapped children, per open call
        self._span_stack = []
        self._next_span = 1
        self._triangle_first_op = {}  # id(triangle) -> op that first got it

    # -- operations -----------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._span_stack.clear()
        self._span_stack.append(self._open_span())
        self._op_start = perf()

    def end_op(self) -> None:
        end = perf()
        self._close_span(self._span_stack.pop(), None, "op", self._op_start, end)

    def _open_span(self) -> int:
        sid = self._next_span
        self._next_span += 1
        return sid

    def _close_span(self, sid, parent, name, start, end) -> None:
        if len(self.spans) < MAX_SPANS:
            self.spans.append((self.op, sid, parent, name, start, end))
        else:
            self.dropped_spans += 1

    # -- wrappers -------------------------------------------------------

    def _wrap(self, fn, layer: str, span: bool, hook):
        stats = self.stats[layer]
        stack = self._stack
        span_stack = self._span_stack
        tracer = self

        def wrapper(*args, **kwargs):
            if span:
                sid = tracer._open_span()
                parent = span_stack[-1] if span_stack else None
                span_stack.append(sid)
            stack.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                child = stack.pop()
                stats[0] += 1
                stats[1] += end - start - child
                if span:
                    span_stack.pop()
                    tracer._close_span(sid, parent, layer, start, end)
            if hook is not None:
                hook(args, result)
            if stack:
                stack[-1] += perf() - start
            else:
                tracer.root_s += perf() - start
            return result

        return wrapper

    def _hook_for(self, attr: str, layer: str):
        if attr == "StirlingTriangle._grow":
            return self._after_grow
        if attr == "triangle":
            return self._after_triangle
        if attr == "VerificationReport.record":
            return self._after_record
        if attr == "_write":
            return self._after_write
        if layer in _BITS_LAYERS:
            return self._after_value
        return None

    def _after_value(self, args, result) -> None:
        bits = _bits(result)
        if bits > self.max_bits:
            self.max_bits = bits

    def _after_grow(self, args, result) -> None:
        tri = args[0]
        grown = len(tri._rows) - getattr(tri, "_bench_rows", 1)  # row 0 is built in
        if grown:
            self.rows_grown += grown
            tri._bench_rows = len(tri._rows)
            self._after_value(None, tri._rows[-1])

    def _after_triangle(self, args, result) -> None:
        # A hit is a triangle an earlier operation in this process already
        # got: the cache carried work across operations. Reuse inside one
        # operation shows in triangles.read instead.
        self.tri_lookups += 1
        if self._triangle_first_op.setdefault(id(result), self.op) != self.op:
            self.tri_hits += 1

    def _after_record(self, args, result) -> None:
        self.checked += 1
        self.failed += args[2] != args[3]  # (report, params, lhs, rhs)

    def _after_write(self, args, result) -> None:
        self.output_bytes += len(args[0].encode("utf-8"))

    def install(self) -> None:
        """Patch every target in the degenbell modules."""
        mods = {name: importlib.import_module(f"degenbell.{name}") for name in MODULES}
        mods["__init__"] = importlib.import_module("degenbell")
        for module, attr, layer, span in TARGETS:
            hook = self._hook_for(attr, layer)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[module], cls_name)
                setattr(cls, meth, self._wrap(cls.__dict__[meth], layer, span, hook))
                continue
            original = getattr(mods[module], attr)
            wrapped = self._wrap(original, layer, span, hook)
            for mod in mods.values():
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)

    def dump(self) -> dict:
        return {
            "stats": self.stats,
            "rows_grown": self.rows_grown,
            "tri_lookups": self.tri_lookups,
            "tri_hits": self.tri_hits,
            "checked": self.checked,
            "failed": self.failed,
            "output_bytes": self.output_bytes,
            "max_bits": self.max_bits,
            "root_s": self.root_s,
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
        }
