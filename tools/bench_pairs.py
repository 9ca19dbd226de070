"""Paired benchmark runs of the working tree against a parent revision.

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs 10 --seconds 20 \
        --workloads box_verify level_ladder multivar_orders \
        --claim "verify_pts_per_s on box_verify rises" --out BENCH_27.json

The parent's committed files are extracted with `git archive` into a
temporary directory, removed afterwards.  Pair i runs `vpfbench/run.py
--seed i` once in each tree, the parent first on odd seeds and the change
(the working tree) first on even ones, so a drift of the machine's speed
falls on both sides alike.  The output holds the command, the machine, the
parent commit, the claim, a summary per workload and end-to-end metric
(medians, the parent's quartiles, how many pairs the change won) and every
pair's raw results, and one traced round (`--trace 1`, seed 1) per side
and workload, and a `layers` key: for each side, on the 3x4 default
order, `(1 7 11)`, Beck and a phased 3x5 spec, the median time of a warm
`compute` (in ms), of building the evaluation kernel (`ResultExpr._plan`,
in ms), of a warm `evaluate` per point (in us; with `evaluate`'s count memo
warm after the first round) and of the oracle `box_counts` per point of
that input's benchmark box (in us), warm and in its first call after a
fresh import of `vpf` compiled from source, as vpfbench's set-up imports
it (null for the phased spec, which `box_counts` rejects).  Each is the
median over LAYER_CALLS calls of
`run_layers` per side, each call `time_layers` in a fresh interpreter that
imports `vpf` from that side's `src`; the calls alternate the sides, the
parent first in even calls and the change first in odd ones, so a drift of
the machine's speed falls on both sides alike.  Metric names and
directions come from BENCHMARK.json.  Needs only git and the standard
library.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 vpfbench/run.py --workload W --seed {} --seconds {:g} --trace {}"
#: Each layer input's matrix, column phases, elimination order (None for
#: the default) and `verify_box` box in vpfbench (None for a phased spec).
LAYER_INPUTS = {
    "3x4 default order": (((1, 1, 1, 0), (0, 1, 2, 1), (1, 0, 1, 3)), (),
                          None, ((0, 0, 0), (4, 4, 4))),
    "(1 7 11)": (((1, 7, 11),), (), None, ((-6,), (160,))),
    "Beck": (((1, 2, 1, 0), (1, 1, 0, 1)), (), None, ((0, 0), (20, 20))),
    # Eliminated exponents whose levels reach 840 over phases of level 12.
    "phased 3x5 order 021": (
        ((0, -1, 1, 0, 2), (2, 2, 2, 1, -1), (0, -1, 2, 2, 2)),
        tuple(Fraction(*q) for q in ((1, 4), (5, 6), (1, 4), (1, 4), (1, 2))),
        (0, 2, 1), None),
}
LAYER_ROUNDS = 7
LAYER_POINTS = 500
LAYER_CALLS = 6


def run_bench(tree: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """The result line of one `vpfbench/run.py` run in `tree`."""
    proc = subprocess.run(
        [sys.executable, "vpfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, encoding="utf-8")
    if proc.returncode:
        raise RuntimeError(f"vpfbench/run.py --workload {workload} --seed "
                           f"{seed} failed in {tree}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def time_layers() -> dict:
    """Per input of LAYER_INPUTS: the median over LAYER_ROUNDS of one
    `compute` after a first one has filled the memos (`compute_ms`), of one
    kernel build on a copy of the expression that has none (`plan_ms`), of
    a warm `evaluate` per point over LAYER_POINTS seeded points in
    [-2, 30]^m (`evaluate_us`; the points repeat every round, so from the
    second round on `evaluate`'s count memo holds their counts), and of the
    oracle `box_counts` per point of the input's box, warm
    (`box_counts_us`) and cold (`box_counts_cold_us`: its first call after
    a fresh import of `vpf`, compiled from source with no bytecode cache,
    and the certificate and transform read as vpfbench's set-up reads
    them); both None without a box.  Imports `vpf` from wherever
    `sys.path` finds it."""
    from vpf import ProblemSpec, compute, evaluate
    from vpf.oracle import box_counts
    out = {}
    for name, (rows, phases, order, box) in LAYER_INPUTS.items():
        spec = ProblemSpec.from_rows(rows, phases)
        expr = compute(spec, order)
        rng = random.Random(1)
        pts = [tuple(rng.randint(-2, 30) for _ in rows)
               for _ in range(LAYER_POINTS)]
        computes, builds, evals, oracle = [], [], [], []
        for _ in range(LAYER_ROUNDS):
            start = time.perf_counter()
            compute(spec, order)
            computes.append(time.perf_counter() - start)
            fresh = replace(expr)  # a new expression holds no kernel
            start = time.perf_counter()
            fresh._plan
            builds.append(time.perf_counter() - start)
            start = time.perf_counter()
            for b in pts:
                evaluate(fresh, b)
            evals.append((time.perf_counter() - start) / LAYER_POINTS)
            if box:
                start = time.perf_counter()
                counts = box_counts(spec, *box)
                oracle.append((time.perf_counter() - start) / len(counts))
        out[name] = {"summands": len(expr.terms), "points": LAYER_POINTS,
                     "rounds": LAYER_ROUNDS,
                     "compute_ms": statistics.median(computes) * 1e3,
                     "plan_ms": statistics.median(builds) * 1e3,
                     "evaluate_us": statistics.median(evals) * 1e6,
                     "box_counts_us": statistics.median(oracle) * 1e6
                     if oracle else None,
                     "box_counts_cold_us": None}
    for name, (rows, phases, _, box) in LAYER_INPUTS.items():
        cold = []
        for _ in range(LAYER_ROUNDS if box else 0):
            vpf = fresh_vpf()
            spec = vpf.ProblemSpec.from_rows(rows, phases)
            vpf.nonnegativize(spec, vpf.check_pointed(spec))
            start = time.perf_counter()
            counts = vpf.oracle.box_counts(spec, *box)
            cold.append((time.perf_counter() - start) / len(counts))
        if cold:
            out[name]["box_counts_cold_us"] = statistics.median(cold) * 1e6
    return out


def fresh_vpf():
    """`vpf` imported anew and compiled from source, as vpfbench's set-up
    imports it: the bytecode cache is neither read nor written."""
    for name in [n for n in sys.modules if n == "vpf" or n.startswith("vpf.")]:
        del sys.modules[name]
    saved = sys.pycache_prefix, sys.dont_write_bytecode
    # A prefix that is never created: no cached bytecode can be found.
    sys.pycache_prefix = str(ROOT / ".no-pycache")
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("vpf")
    finally:
        sys.pycache_prefix, sys.dont_write_bytecode = saved


def run_layers(tree: Path) -> dict:
    """`time_layers` in a fresh interpreter on the `vpf` of `tree`."""
    code = ("import json, sys; sys.path[:0] = ['src', sys.argv[1]]; "
            "from bench_pairs import time_layers; "
            "print(json.dumps(time_layers()))")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "tools")],
        cwd=tree, capture_output=True, text=True, encoding="utf-8")
    if proc.returncode:
        raise RuntimeError(f"time_layers failed in {tree}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def pair_layers(trees: dict) -> dict:
    """Per side of `trees` ("parent" and "change"), the median of each time
    over LAYER_CALLS `run_layers` calls; call i runs the parent first when
    i is even and the change first when it is odd."""
    runs = {side: [] for side in trees}
    for i in range(LAYER_CALLS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_layers(trees[side]))
    return {side: {name: {key: statistics.median(r[name][key] for r in rs)
                          if key.endswith(("_ms", "_us")) and value is not None
                          else value for key, value in first.items()}
                   for name, first in rs[0].items()}
            for side, rs in runs.items()}


def summarize(pairs: list, metrics: dict) -> dict:
    """Per workload and metric: medians, the parent's quartiles and range,
    the change's range, the relative change of the medians, and the pairs
    in which the change was strictly better.  `metrics` maps each name to
    "lower" or "higher", the better direction."""
    summary: dict = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        runs = [p for p in pairs if p["workload"] == workload]
        failed = {side: sum(p[side]["failed"] for p in runs)
                  for side in ("parent", "change")}
        correct = all(p[side]["correct"] for p in runs
                      for side in ("parent", "change"))
        summary[workload] = {}
        for name, better in metrics.items():
            old = [p["parent"]["metrics"][name]["value"] for p in runs]
            new = [p["change"]["metrics"][name]["value"] for p in runs]
            # statistics.quantiles needs two points before Python 3.13.
            q1, _, q3 = (statistics.quantiles(old, n=4) if len(old) > 1
                         else old * 3)
            sign = 1 if better == "higher" else -1
            med = statistics.median(old)
            summary[workload][name] = {
                "parent_median": med,
                "parent_q1": q1,
                "parent_q3": q3,
                "change_median": statistics.median(new),
                "change_min": min(new),
                "change_max": max(new),
                "parent_min": min(old),
                "parent_max": max(old),
                "relative_change": (statistics.median(new) - med) / med
                if med else 0.0,
                "change_better_pairs": sum(sign * (b - a) > 0
                                           for a, b in zip(old, new)),
                "pairs": len(runs),
                "failed_parent": failed["parent"],
                "failed_change": failed["change"],
                "correct": correct,
            }
    return summary


def machine(pairs: int) -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return (f"{os.cpu_count()}-CPU {model}, Python "
            f"{platform.python_version()}; {pairs} pairs per workload, seeds "
            f"1-{pairs}, parent first on odd seeds and change first on even "
            f"seeds; the parent run from a git archive of its commit, the "
            f"change from the working tree; quartiles by "
            f"statistics.quantiles(n=4)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--claim", required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    known = {w["name"] for w in declared["workloads"]}
    if not set(args.workloads) <= known:
        ap.error(f"unknown workload among {args.workloads}; known: "
                 f"{sorted(known)}")
    if len(set(args.workloads)) < len(args.workloads):
        ap.error(f"a workload is repeated in {args.workloads}")
    metrics = {m["name"]: m["better"] for m in declared["end_to_end"]}
    commit = subprocess.run(
        ["git", "rev-parse", "--short", f"{args.parent}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
        encoding="utf-8").stdout.strip()

    with tempfile.TemporaryDirectory(prefix="vpf-parent-") as tmp:
        parent = Path(tmp)
        archive = subprocess.run(["git", "archive", commit], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive,
                       check=True)
        trees = {"parent": parent, "change": ROOT}
        pairs = []
        for workload in args.workloads:
            for seed in range(1, args.pairs + 1):
                order = (("parent", "change") if seed % 2
                         else ("change", "parent"))
                pair = {"workload": workload, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_bench(trees[side], workload, seed,
                                           args.seconds, 0)
                print(f"{workload} seed {seed}, {order[0]} first: failed "
                      f"{pair['parent']['failed']} parent, "
                      f"{pair['change']['failed']} change", file=sys.stderr)
                pairs.append(pair)
        result = {
            "command": COMMAND.format("N", args.seconds, 0),
            "machine": machine(args.pairs),
            "parent": {"commit": commit},
            "claim": args.claim,
            "summary": summarize(pairs, metrics),
            "pairs": pairs,
            "trace": {"command": COMMAND.format(1, args.seconds, 1)},
        }
        for workload in args.workloads:
            result["trace"][workload] = {}
            for side in ("parent", "change"):
                line = run_bench(trees[side], workload, 1, args.seconds, 1)
                result["trace"][workload][side] = {
                    **{k: v["value"] for k, v in line["metrics"].items()},
                    "failed": line["failed"]}
        result["layers"] = pair_layers(trees)
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for workload, table in result["summary"].items():
        for name, s in table.items():
            print(f"{workload:16s} {name:17s} {s['parent_median']:12.5g} -> "
                  f"{s['change_median']:12.5g} ({s['relative_change']:+.1%}, "
                  f"better in {s['change_better_pairs']}/{s['pairs']})",
                  file=sys.stderr)
    for name in result["layers"]["change"]:
        old, new = (result["layers"][side][name]
                    for side in ("parent", "change"))
        oracle, cold = (" -> ".join("-" if v[key] is None
                                    else f"{v[key]:.3g}" for v in (old, new))
                        for key in ("box_counts_us", "box_counts_cold_us"))
        print(f"{name:20s} compute {old['compute_ms']:.3g} -> "
              f"{new['compute_ms']:.3g} ms, plan {old['plan_ms']:.3g} -> "
              f"{new['plan_ms']:.3g} ms, evaluate {old['evaluate_us']:.3g} -> "
              f"{new['evaluate_us']:.3g} us, box_counts {oracle} us "
              f"(cold {cold} us)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
