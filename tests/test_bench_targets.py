"""The benchmark's span targets name real functions of vpf.

`vpfbench/spans.py` wraps each `TARGETS` entry by module, class and
attribute name, so renaming one breaks the traced round (`--trace 1`),
which only the slow self-test runs.  The file is loaded by path, so vpf
never imports vpfbench.
"""
from __future__ import annotations

import importlib.util
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
