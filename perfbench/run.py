"""perisym benchmark: one seeded workload, measured end to end or traced.

    python3 perfbench/run.py --workload {certify,euler,cli_lift}
        --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src``.

``--trace 0`` sets the workload up five times in fresh processes, two
before the measured one and two after it (reporting the median set-up
time), and measures the middle one for S seconds with nothing wrapped.
``--trace 1`` runs whole passes over the inputs for at least S seconds:
one untraced pass that primes the caches, then passes that alternate
between traced, with every cross-module call wrapped, and untraced.  It
reports per-layer counts and self times per traced op, next to the
untraced op time on the same inputs, with the tracing overhead as the
difference.

Every output is checked exactly.  A human-readable report line (prefixed
``report``) is printed and written to ``.perfbench/``; the last line of
stdout is the JSON result.  The exit code is nonzero, with no result,
when the program cannot be found or a worker process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("certify", "euler", "cli_lift")
SETUP_RUNS_BEFORE = 2
SETUP_RUNS_AFTER = 2
BUDGET_S = 170.0
P90_MIN_SAMPLES = 100

# op_p50_s, op_p90_s and fail_ratio are in the report only.  The median op
# latency jumps between the host's fast and slow speed states, which each
# last for seconds to minutes: in four sets of ten euler seeds on a 2-vCPU
# VM its spread was 8-36% of the median, in one set beyond the largest
# bound allowed.
END_TO_END_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: (layer, fields).  calls and self_s are per timed op;
# terms, cols, rows and weights are means per call.
LAYER_FIELDS = [
    ("laurent.exact_divide", ("calls", "self_s", "dividend_terms", "divisor_terms")),
    ("laurent.mul", ("calls", "self_s")),
    ("laurent.add", ("calls", "self_s")),
    ("schur.schur_poly", ("calls", "self_s", "repeat_share")),
    ("schur.schur_expand", ("calls", "self_s", "terms_in", "weights_out")),
    ("dsmap.kernel_decompose", ("calls", "self_s", "terms_in")),
    ("thinkac.sch_thin_kac", ("calls", "self_s", "repeat_share")),
    ("lift.Certificate.validate", ("calls", "self_s")),
    ("lift.certify", ("calls", "self_s")),
    ("lift.lift_window", ("calls", "self_s", "terms_out")),
    ("intlinalg.EchelonSystem.factor", ("calls", "self_s", "cols", "rows")),
    ("intlinalg.EchelonSystem.solve", ("calls", "self_s")),
    ("intlinalg.reduce_by_lattice", ("calls", "self_s")),
    ("euler.euler_characteristic", ("calls", "self_s", "terms_out")),
    ("dsmap.ds_eval", ("calls", "self_s")),
    ("dsmap.membership", ("calls", "self_s")),
    ("serialize.poly_from_dict", ("self_s",)),
    ("serialize.poly_to_dict", ("self_s",)),
]
FIELD_UNITS = {
    "calls": "calls/op", "self_s": "s/op", "repeat_share": "ratio",
    "dividend_terms": "terms/call", "divisor_terms": "terms/call",
    "terms_in": "terms/call", "terms_out": "terms/call",
    "weights_out": "count/call", "cols": "count/call", "rows": "count/call",
}
EXTRA_LAYER_UNITS = {
    "cli.startup_s": "s/op",
    "op.wall_s": "s/op",
    "op.unwrapped_s": "s/op",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead_ops_per_s": "1/s",
}


class WorkerFailed(Exception):
    pass


def spawn(workload: str, seed: int, seconds: float, deadline: float,
          setup_only: bool = False, trace: bool = False) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds)]
    if setup_only:
        argv.append("--setup-only")
    if trace:
        argv.append("--trace")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerFailed("time budget exhausted before a worker could start")
    argv += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker exceeded the {BUDGET_S:.0f} s budget")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_and_max(values: list[int]) -> dict:
    if not values:
        return {"median": None, "max": None}
    return {"median": statistics.median(values), "max": max(values)}


def git_commit() -> str | None:
    """The checked-out commit, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": git_commit()}


def run_summary(result: dict, phase: str = "untraced") -> dict:
    """Op statistics over the ops of one phase of a run."""
    ops = [(latency, ok) for latency, ok, op_phase
           in zip(result["latencies"], result["passed"], result["phases"]) if op_phase == phase]
    latencies = [latency for latency, _ in ops]
    verified = sum(ok for _, ok in ops)
    wall = sum(latencies)
    return {
        "attempted": len(ops),
        "verified": verified,
        "failed": len(ops) - verified,
        "fail_ratio": (len(ops) - verified) / len(ops),
        "ops_per_s": verified / wall,
        "op_p50_s": statistics.median(latencies),
        "op_samples": len(latencies),
        "op_p90_s": (statistics.quantiles(latencies, n=10)[-1]
                     if len(latencies) >= P90_MIN_SAMPLES else None),
        "op_mean_s": wall / len(ops),
        "timed_wall_s": wall,
    }


def outputs_record(result: dict) -> dict:
    lines = "".join(f"{k}:{v}\n" for k, v in result["digests"].items())
    return {
        "outputs_digest": hashlib.sha256(lines.encode("utf-8")).hexdigest(),
        "digest_inputs": len(result["digests"]),
        "per_input_digests": result["digests"],
        "nondeterministic_inputs": result["nondeterministic_inputs"],
        "input_size": median_and_max(result["input_sizes"]),
        "output_terms": median_and_max(result["output_sizes"]),
    }


def measure_end_to_end(args, deadline) -> tuple[dict, dict]:
    def setup_only() -> float:
        return spawn(args.workload, args.seed, args.seconds, deadline,
                     setup_only=True)["setup_s"]

    # Set-ups before and after the measured run, so that their median
    # spans the run rather than a few seconds of it.
    setups = [setup_only() for _ in range(SETUP_RUNS_BEFORE)]
    result = spawn(args.workload, args.seed, args.seconds, deadline)
    setups.append(result["setup_s"])
    setups += [setup_only() for _ in range(SETUP_RUNS_AFTER)]
    summary = run_summary(result)
    metrics = {
        "ops_per_s": summary["ops_per_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    report = {"setup_runs_s": setups, **summary, "peak_rss_mb": result["peak_rss_mb"],
              "errors": result["errors"], **outputs_record(result),
              "op_latencies_s": result["latencies"]}
    return result, {"metrics": metrics, "units": END_TO_END_UNITS, "report": report}


def layer_metrics(trace: dict, ops: int) -> dict:
    calls, self_s = trace["calls"], trace["self_s"]
    attrs, repeats = trace["attrs"], trace["repeats"]
    out = {}
    for layer, fields in LAYER_FIELDS:
        n = calls.get(layer, 0)
        for field in fields:
            if field == "calls":
                value = n / ops
            elif field == "self_s":
                value = self_s.get(layer, 0.0) / ops
            elif field == "repeat_share":
                value = repeats.get(layer, 0) / n if n else 0.0
            else:
                value = attrs.get(layer, {}).get(field, 0) / n if n else 0.0
            out[f"{layer}.{field}"] = value
    out["cli.startup_s"] = self_s.get("cli.startup", 0.0) / ops
    out["op.unwrapped_s"] = self_s.get("op", 0.0) / ops
    return out


def measure_traced(args, deadline) -> tuple[dict, dict]:
    result = spawn(args.workload, args.seed, args.seconds, deadline, trace=True)
    plain, timed = run_summary(result), run_summary(result, "traced")
    ops = timed["attempted"]
    trace = result["trace"]
    metrics = layer_metrics(trace, ops)
    metrics["op.wall_s"] = timed["op_mean_s"]
    metrics["trace.ops_per_s"] = timed["ops_per_s"]
    metrics["trace.untraced_ops_per_s"] = plain["ops_per_s"]
    metrics["trace.overhead_ops_per_s"] = plain["ops_per_s"] - timed["ops_per_s"]
    units = {f"{layer}.{field}": FIELD_UNITS[field] for layer, fields in LAYER_FIELDS
             for field in fields}
    units.update(EXTRA_LAYER_UNITS)

    wall = timed["timed_wall_s"]
    layers = sorted(
        ({"layer": layer, "self_s_per_op": seconds / ops, "self_share": seconds / wall,
          "inclusive_s_per_op": trace["inclusive_s"].get(layer, 0.0) / ops,
          "calls_per_op": trace["calls"].get(layer, 0) / ops}
         for layer, seconds in trace["self_s"].items() if layer != "op"),
        key=lambda row: row["self_s_per_op"], reverse=True)
    report = {
        "prime": run_summary(result, "prime"),
        "untraced": plain,
        "traced": timed,
        "untraced_op_mean_s": plain["op_mean_s"],
        "overhead_ops_per_s": metrics["trace.overhead_ops_per_s"],
        "overhead_share": 1 - timed["ops_per_s"] / plain["ops_per_s"],
        "layers_by_self_time": layers,
        "largest_layer_by_self_time": layers[0]["layer"] if layers else None,
        "unwrapped_s_per_op": metrics["op.unwrapped_s"],
        "op_wall_s_per_op": wall / ops,
        # Self times of all wrapped layers plus the unwrapped remainder,
        # over the traced op wall time; 1 up to rounding.
        "self_sum_over_wall": sum(trace["self_s"].values()) / wall,
        "trace_file": result["trace_file"],
        "errors": result["errors"],
        **outputs_record(result),
    }
    return result, {"metrics": metrics, "units": units, "report": report}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + BUDGET_S

    if not (ROOT / "src" / "perisym" / "__init__.py").is_file():
        print(f"perfbench: no perisym sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            counts, out = measure_traced(args, deadline)
        else:
            counts, out = measure_end_to_end(args, deadline)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **environment(), **out["report"]}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    brief = {k: v for k, v in report.items()
             if k not in ("per_input_digests", "op_latencies_s")}
    print("report " + json.dumps(brief))
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": out["units"][name]}
                    for name, value in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
