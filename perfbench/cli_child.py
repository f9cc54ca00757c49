"""Traced launcher for one CLI op.

    python3 perfbench/cli_child.py TRACE_FILE LAUNCHED_AT ARGS...

Installs the layer wrappers, records the start-up span from LAUNCHED_AT
(the parent's ``time.perf_counter()`` just before it started this
process) to CLI entry, calls ``perisym.cli.main(ARGS)``, and writes the
spans to TRACE_FILE.  Needs ``src`` on PYTHONPATH.
"""

import sys

import tracing


def main() -> int:
    trace_path, launched_at, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    import perisym.cli

    tracer.begin_op(0)
    tracer.record("cli.startup", tracing.clock() - launched_at)
    frame = tracer.enter("cli.main")
    try:
        return perisym.cli.main(argv)
    finally:
        tracer.exit(frame)
        tracer.end_op()
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
