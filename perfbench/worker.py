"""One benchmark process: set-up, then the timed closed loop.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --spawned-at T [--setup-only] [--trace]

T is the parent's ``time.monotonic()`` just before it started this
process, so set-up time runs from process start to the first timed op.
Prints one JSON object as the last line of stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
import traceback

import tracing
from workloads import OUT_DIR, WORKLOADS, import_perisym

clock = tracing.clock


def describe(exc: Exception) -> str:
    where = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} (at {where.filename}:{where.lineno})"


def attempt(workload, item, tracer=None, op_id: int = 0):
    """Run one op, timed, then check its output outside the timed interval.

    Returns (latency, output, ok, error).  An op that raises, or whose
    output fails the check, is not ok.
    """
    error = None
    if tracer is not None:
        tracer.begin_op(op_id)
        frame = tracer.enter("op")
    start = clock()
    try:
        output = workload.run(item, traced=tracer is not None)
    except Exception as exc:  # an op failure is counted, not fatal
        output, error = None, describe(exc)
    latency = clock() - start
    if tracer is not None:
        tracer.exit(frame)
        child_trace = getattr(workload, "child_trace", None)
        if child_trace is not None and child_trace.exists():
            tracer.adopt(str(child_trace))
            child_trace.unlink()
        tracer.end_op()
    ok = False
    if output is not None:
        try:
            ok = bool(workload.check(item, output))
        except Exception as exc:  # a check that cannot parse the output fails it
            error = "check raised " + describe(exc)
        if not ok and error is None:
            error = "wrong output"
    return latency, output, ok, error


def digest(canonical) -> str:
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def measure(workload, seconds: float, tracer=None) -> dict:
    """Closed loop, one client: whole rounds until ``seconds`` have passed.

    A pass is ``workload.pass_rounds`` rounds: once over the workload's
    inputs.  With a tracer, the first pass runs untraced and counts in
    neither half (it is where the run's own inputs first reach the
    caches); after it, passes alternate between traced, with the wrappers
    installed, and untraced, with them removed.  Both halves thus run the
    same inputs, and the run stops after equally many passes of each, so
    their difference is the tracing overhead.

    Peak RSS is read after the first pass, a fixed amount of work, so that
    a faster program, which gets through more passes and keeps more in
    its caches, is not reported as using more memory.
    """
    peak_rss_mb = None
    latencies: list[float] = []
    passed: list[bool] = []
    phases: list[str] = []
    errors: list[str] = []
    digests: dict[str, str] = {}
    mismatched: set[str] = set()
    input_sizes: list[int] = []
    output_sizes: list[int] = []
    undo = None
    start = clock()
    try:
        for rounds_done, batch in enumerate(workload.rounds(), start=1):
            pass_index = (rounds_done - 1) // workload.pass_rounds
            if tracer is None:
                phase = "untraced"
            elif pass_index == 0:
                phase = "prime"
            else:
                phase = "traced" if pass_index % 2 else "untraced"
            if phase == "traced" and undo is None:
                undo = tracing.install(tracer)
            elif phase != "traced" and undo is not None:
                tracing.uninstall(undo)
                undo = None
            op_tracer = tracer if phase == "traced" else None
            for input_id, item in batch:
                latency, output, ok, error = attempt(workload, item, op_tracer, len(latencies))
                latencies.append(latency)
                passed.append(ok)
                phases.append(phase)
                if not ok:
                    errors.append(error)
                    continue
                value = digest(workload.canonical(output))
                if digests.setdefault(input_id, value) != value:
                    mismatched.add(input_id)
                size_in, size_out = workload.sizes(item, output)
                input_sizes.append(size_in)
                output_sizes.append(size_out)
            if rounds_done == workload.pass_rounds:
                peak_rss_mb = workload.peak_rss_mb()
            if clock() - start >= seconds and (
                    tracer is None
                    or (rounds_done % workload.pass_rounds == 0
                        and pass_index >= 2 and pass_index % 2 == 0)):
                break
    finally:
        if undo is not None:
            tracing.uninstall(undo)
    return {
        "attempted": len(latencies),
        "verified": sum(passed),
        "failed": len(latencies) - sum(passed),
        "errors": errors[:5],
        "latencies": latencies,
        "passed": passed,
        "phases": phases,
        "peak_rss_mb": peak_rss_mb if peak_rss_mb is not None else workload.peak_rss_mb(),
        "digests": dict(sorted(digests.items())),
        "nondeterministic_inputs": sorted(mismatched),
        "input_sizes": input_sizes,
        "output_sizes": output_sizes,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import_perisym()
    tracer = tracing.Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed)
    try:
        workload.setup()
        result = {"setup_s": time.monotonic() - args.spawned_at}
        if not args.setup_only:
            result.update(measure(workload, args.seconds, tracer))
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
    if tracer is not None and not args.setup_only:
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(str(path))
        result["trace"] = tracer.summary()
        result["trace_file"] = str(path.relative_to(OUT_DIR.parent))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
