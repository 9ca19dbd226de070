"""Self-test of the benchmark itself.

    python3 vpfbench/selftest.py

Checks, on the fast `box_verify` workload, that
1. a closed form with one term dropped is reported as failed operations,
   while `correct` stays true (it speaks of the operations that did not fail);
2. the unmodified program runs with 0 failed and correct outputs;
3. every metric run.py prints, with --trace 0 and --trace 1, matches
   BENCHMARK.json by name and unit;
4. run.py fails without printing a result where the checkout has no src/.
Exits 0 when all hold.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import run
from refclock import RefClock
from workloads import build

BENCHMARK = run.ROOT / "BENCHMARK.json"
WORKLOAD = "box_verify"


def check(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        check.failures += 1


check.failures = 0


def drop_last_term(expr):
    return replace(expr, terms=expr.terms[:-1])


def dropped_term_fails() -> None:
    clock = RefClock()
    try:
        rnd = run.Bench(build(WORKLOAD, 7), clock,
                        mutate=drop_last_term).run_round()
    finally:
        clock.close()
    check(rnd.failed > 0, f"dropped term: {rnd.failed} of {rnd.attempted} "
          "operations failed")
    check(not rnd.problems, "dropped term: correct stays true")


def result_of(*args, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "vpfbench" / "run.py"), "--workload",
         WORKLOAD, "--seed", "3", "--seconds", "1", *args],
        capture_output=True, text=True, cwd=cwd, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def metrics_match_benchmark_json() -> None:
    spec = json.loads(BENCHMARK.read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        code, result = result_of("--trace", trace)
        check(code == 0 and result is not None, f"--trace {trace} exits 0")
        if result is None:
            continue
        check(result["correct"] and result["failed"] == 0
              and result["attempted"] > 0,
              f"--trace {trace}: correct, 0 failed of {result['attempted']}")
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        declared = {m["name"]: m["unit"] for m in spec[key]}
        check(printed == declared,
              f"--trace {trace} prints exactly the {key} metrics of "
              "BENCHMARK.json, with their units")


def fails_without_program() -> None:
    bare = run.TRACE_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "vpfbench").mkdir(parents=True)
    shutil.copy(BENCHMARK, bare)
    for path in run.BENCH_DIR.glob("*.py"):
        shutil.copy(path, bare / "vpfbench")
    try:
        code, result = result_of("--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    check(code != 0 and result is None,
          f"without src/: exit code {code}, no result printed")


def main() -> int:
    dropped_term_fails()
    metrics_match_benchmark_json()
    fails_without_program()
    return 1 if check.failures else 0


if __name__ == "__main__":
    sys.exit(main())
