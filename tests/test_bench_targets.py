"""The benchmark's span targets and calls match vpf.

`vpfbench/spans.py` wraps each `TARGETS` entry by module, class and
attribute name, so renaming one breaks the traced round (`--trace 1`),
which only the slow self-test runs.  `vpfbench/run.py` calls a few entry
points positionally, so a changed signature fails every benchmark operation.
The file is loaded by path, so vpf never imports vpfbench.
"""
from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "vpfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("vpfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


def test_every_target_resolves():
    targets = _targets()
    assert targets
    for name, modname, clsname, attr in targets:
        owner = importlib.import_module(modname)
        if clsname is not None:
            owner = getattr(owner, clsname)
            # The tracer replaces the entry in the class's own namespace.
            assert attr in vars(owner), name
        assert callable(getattr(owner, attr)), name


def test_benchmark_calls_bind():
    # The calls of vpfbench/run.py, by argument count.
    import vpf
    from vpf.serialize import expr_from_json, expr_to_json

    calls = [
        (vpf.ProblemSpec.from_rows, 1),   # from_rows(rows)
        (vpf.check_pointed, 1),           # check_pointed(spec)
        (vpf.nonnegativize, 2),           # nonnegativize(spec, y)
        (vpf.compute, 2),                 # compute(spec, order)
        (vpf.evaluate, 2),                # evaluate(expr, b)
        (vpf.verify_box, 4),              # verify_box(spec, expr, lo, hi)
        (expr_to_json, 1),
        (expr_from_json, 1),
    ]
    for fn, nargs in calls:
        inspect.signature(fn).bind(*range(nargs))
