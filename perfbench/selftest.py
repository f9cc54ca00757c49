"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. A short smoke run of every workload, untraced and traced, must emit
   every metric that BENCHMARK.json names, with its unit, and fail no op.
2. The output gate must count a perturbed output polynomial, and an op
   that raises, as failures.
3. A copy holding only BENCHMARK.json and perfbench/ must exit nonzero
   without printing a result.

Exits nonzero on the first failed expectation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import OUT_DIR, ROOT, WORKLOADS, import_perisym
from worker import measure

SMOKE_SEED = 1
SMOKE_SECONDS = "1"


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def run_benchmark(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SMOKE_SEED),
         "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def smoke() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_benchmark(ROOT, name, trace)
            expect(proc.returncode == 0, f"{name} trace={trace} exited {proc.returncode}: "
                                         f"{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace={trace}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace={trace}: fail_ratio is not 0: {result['failed']} of "
                   f"{result['attempted']}")
            emitted = result["metrics"]
            for metric in declared:
                got = emitted.get(metric["name"])
                expect(got is not None, f"{name} trace={trace}: {metric['name']} missing")
                expect(got["unit"] == metric["unit"],
                       f"{name} trace={trace}: {metric['name']} has unit {got['unit']}")
                expect(isinstance(got["value"], (int, float)),
                       f"{name} trace={trace}: {metric['name']} is not a number")
            expect(set(emitted) == {m["name"] for m in declared},
                   f"{name} trace={trace}: undeclared metrics "
                   f"{sorted(set(emitted) - {m['name'] for m in declared})}")
            print(f"smoke {name} trace={trace}: {len(emitted)} metrics, "
                  f"{result['attempted']} ops, 0 failed")


def _perturb_poly(P, poly):
    """The polynomial plus one extra monomial: wrong by exactly one term."""
    return poly + P.LaurentPoly.monomial(poly.arity, (7,) * poly.arity)


def _perturbed_certify(P, output):
    cert, validated = output
    return cert, _perturb_poly(P, validated)


def _perturbed_euler(P, output):
    poly, expansion, image = output
    return poly, expansion, _perturb_poly(P, image)


def _perturbed_cli_lift(P, output):
    code, stdout = output
    payload = json.loads(stdout)
    payload["terms"][0]["coef"] = str(int(payload["terms"][0]["coef"]) + 1)
    return code, json.dumps(payload)


PERTURB = {"certify": _perturbed_certify, "euler": _perturbed_euler,
           "cli_lift": _perturbed_cli_lift}


class Altered:
    """A workload whose op output passes through ``change``."""

    def __init__(self, workload, change):
        self._workload = workload
        self._change = change

    def __getattr__(self, name):
        return getattr(self._workload, name)

    def run(self, item, traced: bool = False):
        return self._change(self._workload.run(item, traced))


def _raise(_output):
    raise RuntimeError("injected op failure")


def gate() -> None:
    P, _ = import_perisym()
    for name, cls in WORKLOADS.items():
        workload = cls(SMOKE_SEED)
        workload.setup()
        try:
            clean = measure(workload, 0)
            expect(clean["failed"] == 0, f"{name}: clean round failed: {clean['errors']}")
            perturb = PERTURB[name]
            wrong = measure(Altered(workload, lambda out: perturb(P, out)), 0)
            expect(wrong["attempted"] >= 1 and wrong["failed"] == wrong["attempted"]
                   and wrong["verified"] == 0,
                   f"{name}: perturbed outputs were not all counted as failures")
            raised = measure(Altered(workload, _raise), 0)
            expect(raised["failed"] == raised["attempted"] >= 1,
                   f"{name}: raising ops were not all counted as failures")
        finally:
            close = getattr(workload, "close", None)
            if close is not None:
                close()
        print(f"gate {name}: {wrong['failed']} perturbed and {raised['failed']} raising "
              "ops counted as failures")


def bare_copy() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=OUT_DIR))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_benchmark(bare, "euler", 0)
        expect(proc.returncode != 0, "a copy without the program exited 0")
        expect('"metrics"' not in proc.stdout, "a copy without the program printed a result")
    finally:
        shutil.rmtree(bare)
    print(f"bare copy: exit {proc.returncode}, no result")


def main() -> None:
    gate()
    bare_copy()
    smoke()
    print("selftest passed")


if __name__ == "__main__":
    main()
