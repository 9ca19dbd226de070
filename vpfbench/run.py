"""End-to-end benchmark of vpf: compute, evaluate and verify_box.

    python3 vpfbench/run.py --workload multivar_orders --seed 1 \
        --seconds 20 --trace 0

Drives vpf from outside, through its public functions, in one process and
one thread, on the checkout's `src/`.  The last line of standard output is
one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`).  Progress and raw wall times go to standard error.  See
README.md in this directory for the workloads and the timing method.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

# Imported here so that a set-up measures vpf's own modules only.
import cmath  # noqa: E402,F401
import dataclasses  # noqa: E402,F401
import fractions  # noqa: E402,F401
import functools  # noqa: E402,F401

from refclock import RefClock  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, box_points, build  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".vpfbench_trace"
#: Never created: pointing the bytecode cache here makes every fresh import
#: compile vpf from source, whether or not a __pycache__ exists.
NO_PYCACHE = BENCH_DIR / ".no-pycache"

END_TO_END = {
    "setup_s": "s",
    "compute_s": "s",
    "eval_pts_per_s": "1/s",
    "verify_pts_per_s": "1/s",
    "terms_out": "count",
    "expr_kb": "KB",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cyclotomic.mul.calls": "count",
    "cyclotomic.mul.self_s": "s",
    "cyclotomic.add.calls": "count",
    "cyclotomic.add.self_s": "s",
    "cyclotomic.inv.calls": "count",
    "cyclotomic.inv.distinct": "count",
    "cyclotomic.inv.self_s": "s",
    "cyclotomic.raise_level.calls": "count",
    "cyclotomic.raise_level.self_s": "s",
    "cyclotomic.from_phase.calls": "count",
    "cyclotomic.max_level": "level",
    "genfun.eliminate_last_var.calls": "count",
    "genfun.eliminate_last_var.self_s": "s",
    "genfun.final_univariate.calls": "count",
    "genfun.final_univariate.self_s": "s",
    "genfun.raw_terms": "count",
    "genfun.pfd_numerator.calls": "count",
    "genfun.pfd_numerator.self_s": "s",
    "params.term_value.calls": "count",
    "params.term_value.self_s": "s",
    "params.parampoly_eval.self_s": "s",
    "pipeline.compute.self_s": "s",
    "pipeline.evaluate.self_s": "s",
    "pipeline.verify_box.self_s": "s",
    "matrixops.fm_certificate.calls": "count",
    "matrixops.fm_certificate.self_s": "s",
    "oracle.count_points.calls": "count",
    "oracle.count_points.self_s": "s",
    "serialize.expr_to_json.self_s": "s",
    "trace.overhead_s": "s",
}

#: How many points of each closed form the JSON round trip is checked at.
ROUND_TRIP_POINTS = 3


def fresh_vpf():
    """Import vpf from the checkout's src/, compiled from source, anew."""
    for name in [n for n in sys.modules if n == "vpf" or n.startswith("vpf.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path[:1]:
        sys.path.insert(0, str(SRC))
    prefix, sys.pycache_prefix = sys.pycache_prefix, str(NO_PYCACHE)
    try:
        vpf = importlib.import_module("vpf")
        importlib.import_module("vpf.serialize")
    finally:
        sys.pycache_prefix = prefix
    if SRC not in Path(vpf.__file__).resolve().parents:
        raise ImportError(f"vpf was imported from {vpf.__file__}, not {SRC}")
    return vpf


class Round:
    """Timings and outcomes of one pass over every case of a workload."""

    def __init__(self):
        self.setup: list = []
        self.compute: dict = {}  # label -> [(reference s, raw s)] per compute
        self.evaluate: list = []
        self.verify: list = []
        self.eval_calls = 0
        self.verify_points = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # failed properties: correct = false
        self.errors: list[str] = []    # raised by vpf: counted in failed
        self.terms = 0
        self.expr_bytes = 0


class Bench:
    def __init__(self, cases, clock, *, tracer=None, mutate=None):
        self.cases = cases
        self.clock = clock
        self.tracer = tracer
        # Applied to every closed form before use; the self-test drops a term.
        self.mutate = mutate
        self.matrices = sorted({c.rows for c in cases})

    def setup(self, rnd: Round):
        """Fresh import, then every ProblemSpec, certificate and transform."""
        out = []
        with self.clock.region(out):
            vpf = fresh_vpf()
            specs = {}
            for rows in self.matrices:
                spec = vpf.ProblemSpec.from_rows(rows)
                vpf.nonnegativize(spec, vpf.check_pointed(spec))
                specs[rows] = spec
        rnd.setup.append(out[0])
        if self.tracer is not None:
            self.tracer.install(vpf)
        return vpf, specs

    def run_round(self) -> Round:
        rnd = Round()
        values: dict = {}  # group -> point -> set of values
        for case in self.cases:
            self.run_case(case, rnd, values)
        for group, by_point in values.items():
            for b, seen in by_point.items():
                if len(seen) > 1:
                    rnd.problems.append(f"{group}: orders disagree at {b}")
        return rnd

    def run_case(self, case, rnd, values):
        n_ops = (case.repeat + len(case.points)
                 + (len(box_points(*case.box)) if case.box else 0))
        rnd.attempted += n_ops
        timed: list = []
        try:
            for _ in range(case.repeat):
                vpf, specs = self.setup(rnd)
                spec = specs[case.rows]
                with self.clock.region(timed):
                    expr = vpf.compute(spec, case.order)
        except Exception as exc:  # the program refused: every op fails
            rnd.failed += n_ops
            rnd.errors.append(f"{case.label}: compute raised {exc!r}")
            return
        rnd.compute[case.label] = timed
        # From the import that computed expr: classes differ between imports.
        from vpf.serialize import expr_to_json

        if self.mutate is not None:
            expr = self.mutate(expr)
        rnd.terms += len(expr.terms)
        rnd.expr_bytes += len(json.dumps(expr_to_json(expr), indent=2))

        got = {}
        timed = []
        with self.clock.region(timed):
            for b in case.points:
                try:
                    got[b] = vpf.evaluate(expr, b)
                except Exception as exc:
                    got[b] = exc
        rnd.evaluate.append(timed[0])
        rnd.eval_calls += len(case.points)
        seen = values.setdefault(case.group, {}) if case.group else None
        for b in case.points:
            if _is_count(got[b], case.expected[b]):
                if seen is not None:
                    seen.setdefault(b, set()).add(got[b])
            else:
                rnd.failed += 1
        with self.checking():
            self.check_round_trip(case, expr, vpf, got, rnd)

        if case.box:
            self.verify_case(case, vpf, spec, expr, rnd)

    def checking(self):
        """The benchmark's own checks call vpf too; keep them out of spans."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.paused()

    def check_round_trip(self, case, expr, vpf, got, rnd):
        """expr_from_json(expr_to_json(e)) evaluates like e, errors alike."""
        from vpf.serialize import expr_from_json, expr_to_json

        back = expr_from_json(json.loads(json.dumps(expr_to_json(expr))))
        for b in case.points[:ROUND_TRIP_POINTS]:
            try:
                value = vpf.evaluate(back, b)
            except Exception as exc:
                value = exc
            if isinstance(value, Exception):
                same = type(value) is type(got[b])
            else:
                same = value == got[b]
            if not same:
                rnd.problems.append(f"{case.label}: JSON round trip at {b}")

    def verify_case(self, case, vpf, spec, expr, rnd):
        lo, hi = case.box
        points = box_points(lo, hi)
        size = len(points)
        timed: list = []
        try:
            with self.clock.region(timed):
                report = vpf.verify_box(spec, expr, lo, hi)
        except Exception as exc:
            rnd.failed += size
            rnd.errors.append(f"{case.label}: verify_box raised {exc!r}")
            return
        rnd.verify.append(timed[0])
        rnd.verify_points += size
        if report.points_checked != size:
            rnd.problems.append(
                f"{case.label}: verify_box checked {report.points_checked} "
                f"of {size} points")
        # A point passes when verify_box found no mismatch there and the
        # closed form really gives the independent count.
        flagged = {tuple(b) for b, _, _ in report.mismatches}
        with self.checking():
            for b in points:
                try:
                    ok = b not in flagged and _is_count(
                        vpf.evaluate(expr, b), case.expected[b])
                except Exception:
                    ok = False
                rnd.failed += not ok


def _is_count(value, expected: int) -> bool:
    """A nonnegative integer equal to the independent count."""
    return (isinstance(value, fractions.Fraction) and value.denominator == 1
            and value >= 0 and value == expected)


#: A run makes at least this many set-ups, so setup_s is a median of many.
MIN_SETUPS = 15


def measure(bench: Bench, seconds: float) -> list[Round]:
    """Whole rounds until the next one would end after `seconds`."""
    extra = Round()
    per_round = sum(case.repeat for case in bench.cases)
    for _ in range(max(0, MIN_SETUPS - per_round)):
        bench.setup(extra)
    start = time.perf_counter()
    rounds = []
    while True:
        t = time.perf_counter()
        rounds.append(bench.run_round())
        took = time.perf_counter() - t
        if time.perf_counter() - start + took > seconds:
            break
    rounds[0].setup[:0] = extra.setup
    return rounds


def end_to_end(rounds: list[Round]) -> dict:
    labels = {label for r in rounds for label in r.compute}
    compute_s = sum(
        statistics.median(s for r in rounds
                          for s, _ in r.compute.get(label, ()))
        for label in labels)
    return {
        "setup_s": statistics.median(s for r in rounds for s, _ in r.setup),
        "compute_s": compute_s,
        "eval_pts_per_s": statistics.median(
            r.eval_calls / sum(s for s, _ in r.evaluate) for r in rounds),
        "verify_pts_per_s": statistics.median(
            r.verify_points / sum(s for s, _ in r.verify) for r in rounds),
        "terms_out": rounds[0].terms,
        "expr_kb": rounds[0].expr_bytes / 1000,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _timed_total(rnd: Round) -> float:
    regions = [*sum(rnd.compute.values(), []), *rnd.evaluate, *rnd.verify]
    return sum(s for s, _ in regions)


def per_layer(cases, clock, workload, seed) -> tuple[list[Round], dict]:
    """One untraced round, then one traced round of the same cases."""
    untraced = Bench(cases, clock).run_round()
    tracer = Tracer(clock)
    first_slice = len(clock.slices)
    traced = Bench(cases, clock, tracer=tracer).run_round()
    factor = clock.factor(clock.slices[first_slice:])
    metrics = tracer.metrics(factor)
    metrics["trace.overhead_s"] = _timed_total(traced) - _timed_total(untraced)
    tracer.write(TRACE_DIR / f"{workload}-seed{seed}.json",
                 {"workload": workload, "seed": seed, "factor": factor})
    return [untraced, traced], {k: metrics[k] for k in PER_LAYER}


def report(rounds: list[Round]) -> None:
    """Raw wall seconds beside reference-speed seconds, on standard error."""
    for i, r in enumerate(rounds):
        print(f"round {i}: {r.attempted} ops, {r.failed} failed",
              file=sys.stderr)
        for label, timed in r.compute.items():
            ref = statistics.median(s for s, _ in timed)
            raw = statistics.median(w for _, w in timed)
            print(f"  compute {label:24s} {ref:9.4f} s ref  {raw:9.4f} s raw"
                  f"  (median of {len(timed)})", file=sys.stderr)
        for name, regions in (("setup", r.setup), ("evaluate", r.evaluate),
                              ("verify", r.verify)):
            ref = sum(s for s, _ in regions)
            raw = sum(w for _, w in regions)
            print(f"  {name:32s} {ref:9.4f} s ref  {raw:9.4f} s raw",
                  file=sys.stderr)
        for error in r.errors:
            print(f"  FAILED {error}", file=sys.stderr)
        for problem in r.problems:
            print(f"  PROBLEM {problem}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    fresh_vpf()  # fail before any work when the checkout has no vpf
    cases = build(args.workload, args.seed)
    clock = RefClock()
    try:
        if args.trace:
            rounds, metrics = per_layer(cases, clock, args.workload, args.seed)
            units = PER_LAYER
        else:
            rounds = measure(Bench(cases, clock), args.seconds)
            metrics = end_to_end(rounds)
            units = END_TO_END
    finally:
        clock.close()
    report(rounds)
    print(json.dumps({
        "correct": not any(r.problems for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
