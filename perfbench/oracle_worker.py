"""Run oracle operations in one process through the degenbell library API.

Usage: python3 perfbench/oracle_worker.py SEED SECONDS TRACE ROUNDS OP_BASE

Run from the root of the repository: degenbell is imported from ./src. The
worker runs whole rounds of the seeded oracle stream. With ROUNDS = 0 it
runs rounds until SECONDS of operation time have passed; otherwise it runs
exactly the first ROUNDS rounds. Each operation is timed alone and its result
is checked after the clock stops; operation ids start after OP_BASE. One JSON
document goes to stdout.
"""

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    seed, seconds = int(sys.argv[1]), float(sys.argv[2])
    trace, n_rounds, op_id = (int(a) for a in sys.argv[3:6])
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    from degenbell import identities, series

    results = []
    busy, deadline = 0.0, time.perf_counter() + workloads.DEADLINE_S
    for index, ops in enumerate(workloads.rounds("oracle", seed)):
        done = index >= n_rounds if n_rounds else index > 0 and busy >= seconds
        if done or time.perf_counter() > deadline:
            break
        for op in ops:
            if time.perf_counter() > deadline:
                break
            op_id += 1
            lam = op["lambdas"][0]
            root_before = tracer.root_s if tracer else 0.0
            if tracer:
                tracer.begin_op(op_id)
            probe_before = workloads.speed_probe()
            start = time.perf_counter()
            try:
                if op["kind"] == "triple":
                    out = identities.triple_agreement(op["n"], op["r"], [lam])
                elif op["kind"] == "series-bell":
                    out = series.bell_polys_via_series(op["n"], lam)
                else:
                    out = series.rbell_polys_via_series(op["n"], op["r"], lam)
            except Exception as exc:  # a failed operation; the run goes on
                out = exc
            wall = time.perf_counter() - start
            if tracer:
                tracer.end_op()
            busy += wall
            res = {"wall": wall, "norm": workloads.rescale(wall, probe_before, workloads.speed_probe()),
                   "ok": True, "items": 0, "error": None}
            if tracer:
                res["root"] = tracer.root_s - root_before
            try:
                if isinstance(out, Exception):
                    raise workloads.CheckError(f"raised {type(out).__name__}: {out}")
                if op["kind"] == "triple":
                    res["items"] = workloads.check_report(out, op)
                else:
                    res["items"] = workloads.check_polys(out, op)
            except (workloads.CheckError, ArithmeticError, ValueError, TypeError) as exc:
                desc = f"{op['kind']} n={op['n']} r={op['r']} lambda={lam}"
                res["ok"], res["error"] = False, f"{desc}: {type(exc).__name__}: {exc}"
            results.append(res)
    doc = {
        "ops": results,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.dump() if tracer else None,
    }
    json.dump(doc, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
