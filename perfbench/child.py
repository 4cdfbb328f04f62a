"""Run one degenbell CLI command with the layer tracer installed.

Usage: python3 perfbench/child.py OP_ID TRACE_OUT -- CLI_ARGS...

Run from the root of the repository: degenbell is imported from ./src. The
trace (per-layer counters, self times and spans) is written to TRACE_OUT as
JSON after the command finishes, and the command's exit status is kept.
"""

import json
import os
import sys
import traceback

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from tracer import Tracer  # noqa: E402


def main() -> int:
    op_id, trace_out, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py OP_ID TRACE_OUT -- CLI_ARGS...")
    tracer = Tracer()
    tracer.install()
    from degenbell import cli

    tracer.begin_op(int(op_id))
    try:
        cli.main(cli_args)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the operation failed; its trace is still written
        traceback.print_exc()
        code = 1
    finally:
        tracer.end_op()
    sys.stdout.flush()
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
