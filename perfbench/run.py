"""The degenbell benchmark.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload tables|verify|oracle --seed N \
        --seconds S --trace 0|1

Workloads, each a closed loop with one client (so at most this process and
one child are alive):

* tables  - `degenbell stirling|rstirling|bell|rbell` as a fresh subprocess
            per operation, writing CSV or JSON to --out;
* verify  - `degenbell verify --identity ...` as a fresh subprocess per
            operation, report on stdout, exit status gating;
* oracle  - triple_agreement and series extractions through the library API,
            all in one worker process that keeps the triangle cache warm.

Operations come in whole rounds (see workloads.py) until the operations
have used --seconds of wall time. Every output is checked after its clock
stops. The run is pinned to one CPU, and each timing is rescaled to a
reference machine speed by speed probes taken just before and after it
(README.md, "Noise"). The last line of stdout is the result; the line before
it records the run's inputs and machine (Python version, core count, seed,
input shares, calibration timings) and the timings as measured.

With --trace 0 the result holds the end-to-end metrics. With --trace 1 the
first round is run untraced and then traced (wrappers installed before
cli.run, or before the first oracle operation) as often as --seconds allows;
the result holds per-operation means of each layer's calls and self time,
and the trace (spans with operation id and parent) is written to
.perfbench_run/trace-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

perf = time.perf_counter
CLI_CODE = "import sys; sys.path.insert(0, 'src'); from degenbell.cli import main; main(sys.argv[1:])"
SETUP_ARGV = ["stirling", "--max-n", "0", "--lambda", "0"]
SETUP_OUTPUT = {"kind": "stirling", "parameters": {"max_n": 0, "lambda": "0"},
                "records": [{"n": 0, "k": 0, "value": "1"}]}
SETUP_RUNS = 11
CHILD_TIMEOUT_S = 120
# The tail percentile is fixed, so that a run with fewer operations reports
# the same quantity: p75 is the highest percentile that keeps at least 10
# samples beyond it in every workload's 25-second run (about 45 to 81
# operations).
TAIL_PERCENTILE = 75
RUN_DIR = ".perfbench_run"
# Layers whose call counts are reported; every layer reports its self time.
COUNTED_LAYERS = ("polyalg.mul", "polyalg.add", "polyalg.eval", "triangles.read", "series.exp",
                  "series.cauchy", "operators.apply", "identities.rhs", "report.record",
                  "cli.format")


class BenchError(Exception):
    """The benchmark cannot run here."""


def calibrate() -> float:
    """Median of nine runs of the stdlib-only speed probe, taken at the start
    and end of a run to record how fast the machine ran; nothing gates on
    it."""
    return statistics.median(workloads.speed_probe() for _ in range(9))


def spawn(cmd, stdout_path: str, stderr_path: str):
    """Run cmd to completion; returns (wall seconds, exit code, peak RSS KiB).

    os.wait4 reports the child's own peak RSS and wakes as soon as the child
    ends, so the wall time carries no polling delay. A watchdog kills a child
    that outlives CHILD_TIMEOUT_S.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = perf()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = perf() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return ""


def measure_setup(tmp: str) -> tuple[float, float]:
    """Median wall time of a fresh interpreter running the no-work command,
    rescaled and as measured; one unmeasured run first so byte-compilation
    is not counted."""
    cmd = [sys.executable, "-c", CLI_CODE, *SETUP_ARGV]
    out, err = os.path.join(tmp, "setup.out"), os.path.join(tmp, "setup.err")
    walls, scaled = [], []
    for i in range(SETUP_RUNS + 1):
        probe = workloads.speed_probe()
        wall, code, _ = spawn(cmd, out, err)
        if code != 0 or json.loads(_read(out) or "null") != SETUP_OUTPUT:
            raise BenchError(f"set-up command failed (exit {code}): {_read(err)[-300:]}")
        if i:
            walls.append(wall)
            scaled.append(workloads.rescale(wall, probe, workloads.speed_probe()))
    return statistics.median(scaled), statistics.median(walls)


def run_cli_op(op: dict, op_id: int, traced: bool, tmp: str) -> dict:
    """One CLI operation in a fresh interpreter, then its output check."""
    out_path = os.path.join(tmp, "op.out")
    stdout_path = os.path.join(tmp, "op.stdout")
    stderr_path = os.path.join(tmp, "op.stderr")
    trace_path = os.path.join(tmp, "op.trace")
    for path in (out_path, trace_path):
        if os.path.exists(path):
            os.remove(path)
    argv = list(op["argv"])
    if op["kind"] == "table":
        argv += ["--out", out_path]
    if traced:
        cmd = [sys.executable, os.path.join(HERE, "child.py"), str(op_id), trace_path, "--", *argv]
    else:
        cmd = [sys.executable, "-c", CLI_CODE, *argv]
    probe = workloads.speed_probe()
    wall, code, rss_kb = spawn(cmd, stdout_path, stderr_path)
    res = {"wall": wall, "norm": workloads.rescale(wall, probe, workloads.speed_probe()),
           "ok": False, "items": 0, "error": None, "rss_kb": rss_kb}
    try:
        if code != 0:
            raise workloads.CheckError(f"exit {code}: {_read(stderr_path)[-200:]!r}")
        if op["kind"] == "table":
            res["items"] = workloads.check_table(_read(out_path), op)
        else:
            res["items"] = workloads.check_verify(_read(stdout_path), op)
        res["ok"] = True
    except (workloads.CheckError, ValueError, KeyError, TypeError, ArithmeticError) as exc:
        res["error"] = f"{' '.join(op['argv'])}: {type(exc).__name__}: {exc}"
    if traced:
        res["trace"] = json.loads(_read(trace_path) or "null")
    return res


def run_oracle(seed: int, seconds: float, traced: bool, n_rounds: int, op_base: int, tmp: str) -> dict:
    """One oracle worker process; returns its JSON document."""
    cmd = [sys.executable, os.path.join(HERE, "oracle_worker.py"),
           str(seed), str(seconds), str(int(traced)), str(n_rounds), str(op_base)]
    out, err = os.path.join(tmp, "worker.out"), os.path.join(tmp, "worker.err")
    _, code, rss_kb = spawn(cmd, out, err)
    if code != 0:
        raise BenchError(f"oracle worker failed (exit {code}): {_read(err)[-500:]}")
    doc = json.loads(_read(out))
    doc["peak_rss_kb"] = max(doc["peak_rss_kb"], rss_kb)
    return doc


def tail(latencies) -> tuple[float, int]:
    """(latency at TAIL_PERCENTILE by nearest rank, samples beyond it)."""
    data = sorted(latencies)
    rank = max(-(-TAIL_PERCENTILE * len(data) // 100), 1)
    return data[rank - 1], len(data) - rank


# ------------------------------------------------------------- end to end


def _timing(results, key: str) -> dict:
    """Throughput and latency from one kind of op time ("norm" or "wall").

    Every round holds the same slots, so rates are taken per round and the
    median round is reported: a few rounds that met a slow spell of the
    machine do not move it.
    """
    good = [r for r in results if r["ok"]]
    latencies = [r[key] for r in good] or [0.0]
    rounds = [results[i:i + workloads.ROUND]
              for i in range(0, len(results) - workloads.ROUND + 1, workloads.ROUND)] or [results]
    busy = [sum(r[key] for r in rnd) for rnd in rounds]
    tail_s, beyond = tail(latencies)
    return {
        "ops_per_s": statistics.median(sum(r["ok"] for r in rnd) / b for rnd, b in zip(rounds, busy)),
        "items_per_s": statistics.median(
            sum(r["items"] for r in rnd if r["ok"]) / b for rnd, b in zip(rounds, busy)),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "beyond": beyond,
        "round_busy_s": busy,
    }


def end_to_end(workload: str, seed: int, seconds: float, tmp: str):
    setup_s, raw_setup_s = measure_setup(tmp)
    stream = workloads.rounds(workload, seed)
    ops, results, peak_kb = [], [], 0
    if workload == "oracle":
        doc = run_oracle(seed, seconds, False, 0, 0, tmp)
        results = doc["ops"]
        peak_kb = doc["peak_rss_kb"]
        while len(ops) < len(results):
            ops += next(stream)
    else:
        busy, deadline = 0.0, perf() + workloads.DEADLINE_S
        while busy < seconds and perf() < deadline:
            round_ops = next(stream)
            for op in round_ops:
                if perf() > deadline:
                    break
                res = run_cli_op(op, len(results) + 1, False, tmp)
                busy += res["wall"]
                peak_kb = max(peak_kb, res["rss_kb"])
                results.append(res)
            ops += round_ops
    failed = sum(1 for r in results if not r["ok"])
    scaled, raw = _timing(results, "norm"), _timing(results, "wall")
    metrics = {
        "setup_s": (setup_s, "s"),
        **{k: (scaled[k], u) for k, u in (("ops_per_s", "1/s"), ("items_per_s", "1/s"),
                                          ("op_p50_s", "s"), ("op_tail_s", "s"))},
        "ok_ratio": (1 - failed / len(results), "ratio"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    info = {
        "op_tail_percentile": TAIL_PERCENTILE,
        "op_tail_samples_beyond": scaled["beyond"],
        "ops": len(results),
        "rounds": len(results) // workloads.ROUND,
        "failed_ratio": failed / len(results),
        ("coeffs_per_s" if workload == "tables" else "checks_per_s"): scaled["items_per_s"],
        "as_measured": {"setup_s": raw_setup_s, **{k: raw[k] for k in (
            "ops_per_s", "items_per_s", "op_p50_s", "op_tail_s", "round_busy_s")}},
        **workloads.input_properties(ops[: len(results)]),
        "errors": [r["error"] for r in results if not r["ok"]][:5],
    }
    return metrics, info, len(results), failed


# ----------------------------------------------------------------- traced


def _per_layer(traces, walls_t, walls_u, roots) -> dict:
    n_ops = len(walls_t)
    stats = {layer: [0, 0.0] for layer in LAYERS}
    total = {"rows_grown": 0, "tri_lookups": 0, "tri_hits": 0, "checked": 0,
             "failed": 0, "output_bytes": 0}
    max_bits = 0
    for doc in traces:
        for layer, (calls, self_s) in doc["stats"].items():
            stats[layer][0] += calls
            stats[layer][1] += self_s
        for key in total:
            total[key] += doc[key]
        max_bits = max(max_bits, doc["max_bits"])
    self_sum = sum(s for _, s in stats.values())
    process_s = sum(w - r for w, r in zip(walls_t, roots))

    def per_op(x):
        return x / n_ops

    m = {f"{layer}.self_s": (per_op(s), "s") for layer, (_, s) in stats.items()}
    for layer in COUNTED_LAYERS:
        m[f"{layer}.calls"] = (per_op(stats[layer][0]), "count")
    m["polyalg.max_bits"] = (max_bits, "bit")
    m["triangles.rows_grown"] = (per_op(total["rows_grown"]), "count")
    m["triangles.cache_hit_ratio"] = (
        total["tri_hits"] / total["tri_lookups"] if total["tri_lookups"] else 0.0, "ratio")
    m["report.checked"] = (per_op(total["checked"]), "count")
    m["report.failed"] = (per_op(total["failed"]), "count")
    m["cli.output_bytes"] = (per_op(total["output_bytes"]), "byte")
    m["process.self_s"] = (per_op(process_s), "s")
    m["trace.op_wall_s"] = (per_op(sum(walls_t)), "s")
    m["trace.overhead_s"] = (per_op(sum(walls_t) - sum(walls_u)), "s")
    m["trace.unattributed_s"] = (per_op(sum(walls_t) - self_sum - process_s), "s")
    return m


def traced(workload: str, seed: int, seconds: float, tmp: str, trace_path: str):
    first_round = next(workloads.rounds(workload, seed))
    walls_u, walls_t, roots, traces, results = [], [], [], [], []
    # Half the deadline: a repetition runs every operation twice.
    busy, rep, deadline = 0.0, 0, perf() + workloads.DEADLINE_S / 2
    while rep == 0 or busy < seconds and perf() < deadline:
        base = rep * workloads.ROUND
        if workload == "oracle":
            plain = run_oracle(seed, 0, False, 1, base, tmp)["ops"]
            doc = run_oracle(seed, 0, True, 1, base, tmp)
            with_trace = doc["ops"]
            traces.append(doc["trace"])
            roots += [r["root"] for r in with_trace]
        else:
            plain, with_trace = [], []
            for i, op in enumerate(first_round):
                plain.append(run_cli_op(op, base + i + 1, False, tmp))
                res = run_cli_op(op, base + i + 1, True, tmp)
                with_trace.append(res)
                if res["trace"] is None:
                    raise BenchError(f"traced child wrote no trace: {res['error']}")
                traces.append(res["trace"])
                roots.append(res["trace"]["root_s"])
        walls_u += [r["wall"] for r in plain]
        walls_t += [r["wall"] for r in with_trace]
        results += plain + with_trace
        busy += sum(r["wall"] for r in plain + with_trace)
        rep += 1
    metrics = _per_layer(traces, walls_t, walls_u, roots)
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed, "columns":
                             ["op", "span", "parent", "name", "start_s", "end_s"]}) + "\n")
        for doc in traces:
            for span in doc["spans"]:
                fh.write(json.dumps(span) + "\n")
    failed = sum(1 for r in results if not r["ok"])
    info = {
        "traced_ops": len(walls_t),
        "repetitions": rep,
        "dropped_spans": sum(doc["dropped_spans"] for doc in traces),
        "trace_file": trace_path,
        "errors": [r["error"] for r in results if not r["ok"]][:5],
        **workloads.input_properties(first_round),
    }
    return metrics, info, len(results), failed


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="degenbell benchmark")
    parser.add_argument("--workload", required=True, choices=("tables", "verify", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "degenbell", "cli.py")):
        print("perfbench: run from the repository root; src/degenbell is missing", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)
    # One CPU for this process and every child it starts, so that the speed
    # probes run on the CPU the measured work runs on.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    run_dir = os.path.join(root, RUN_DIR)
    tmp = os.path.join(run_dir, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        calib_start = calibrate()
        if args.trace:
            trace_path = os.path.join(RUN_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
            metrics, info, attempted, failed = traced(
                args.workload, args.seed, args.seconds, tmp, trace_path)
        else:
            metrics, info, attempted, failed = end_to_end(
                args.workload, args.seed, args.seconds, tmp)
        calib_end = calibrate()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "calibration_start_s": calib_start,
        "calibration_end_s": calib_end,
        **info,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
