"""Spans around the public functions of vpf's modules, from outside vpf.

`Tracer.install(vpf)` replaces each traced function by a wrapper in the
module that defines it, in every vpf module that imported the name, and
under every alias on its class (`Cyclotomic.__rmul__ is __mul__`).  Spans
stay in memory: every span is folded into per-name call counts and self
time (its duration less what its child spans cover), and the spans of the
coarse layers are also kept whole for the trace file written at the end.
"""
from __future__ import annotations

import json
import sys
from contextlib import contextmanager

#: (span name, module, class or None, attribute).  `render` and `cli` are
#: not measured.
TARGETS = (
    ("cyclotomic.mul", "vpf.cyclotomic", "Cyclotomic", "__mul__"),
    ("cyclotomic.add", "vpf.cyclotomic", "Cyclotomic", "__add__"),
    ("cyclotomic.inv", "vpf.cyclotomic", "Cyclotomic", "inv"),
    ("cyclotomic.raise_level", "vpf.cyclotomic", "Cyclotomic", "raise_level"),
    ("cyclotomic.from_phase", "vpf.cyclotomic", "Cyclotomic", "from_phase"),
    ("params.term_value", "vpf.params", "Term", "value"),
    ("params.parampoly_eval", "vpf.params", "ParamPoly", "eval"),
    ("genfun.eliminate_last_var", "vpf.genfun", None, "eliminate_last_var"),
    ("genfun.final_univariate", "vpf.genfun", None, "final_univariate"),
    ("genfun.pfd_numerator", "vpf.genfun", None, "pfd_numerator"),
    ("matrixops.fm_certificate", "vpf.matrixops", None, "fm_certificate"),
    ("oracle.count_points", "vpf.oracle", None, "count_points"),
    ("pipeline.compute", "vpf.pipeline", None, "compute"),
    ("pipeline.evaluate", "vpf.pipeline", None, "evaluate"),
    ("pipeline.verify_box", "vpf.pipeline", None, "verify_box"),
    ("serialize.expr_to_json", "vpf.serialize", None, "expr_to_json"),
)

#: Layers too hot to keep every span of; they are kept as counts only.
_FOLDED_ONLY = ("cyclotomic.", "params.")


class Tracer:
    def __init__(self, clock):
        self.now = clock.now
        self.stats = {name: [0, 0.0] for name, *_ in TARGETS}
        self.inverted: set = set()
        self.max_level = 1
        self.raw_terms = 0
        self.spans: list = []       # (id, parent id, name, start, end)
        self._stack: list = []      # [start, child seconds, span id]
        self._next_id = 0
        self._active = True

    # -- installation ------------------------------------------------------

    def install(self, vpf) -> None:
        """Wrap every target in this (freshly imported) copy of vpf."""
        modules = [m for n, m in sys.modules.items()
                   if n == "vpf" or n.startswith("vpf.")]
        for name, modname, clsname, attr in TARGETS:
            owner = sys.modules[modname]
            if clsname is None:
                original = getattr(owner, attr)
                wrapped = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
                continue
            cls = getattr(owner, clsname)
            raw = vars(cls)[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
                continue
            wrapped = self._wrap(name, raw)
            for key, value in list(vars(cls).items()):
                if value is raw:
                    setattr(cls, key, wrapped)

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        now = self.now
        keep = not name.startswith(_FOLDED_ONLY)
        after = {
            "cyclotomic.inv": self._after_inv,
            "genfun.final_univariate": self._after_final,
        }.get(name, self._after_cyclotomic if name.startswith("cyclotomic.")
              else None)

        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            frame = [now(), 0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end = now()
                dur = end - frame[0]
                stats[0] += 1
                stats[1] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if keep:
                    parent = stack[-1][2] if stack else None
                    self.spans.append((frame[2], parent, name, frame[0], end))
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def paused(self):
        """Calls made inside run untraced."""
        self._active = False
        try:
            yield
        finally:
            self._active = True

    # -- counters at the same boundaries -------------------------------------

    def _after_cyclotomic(self, args, result) -> None:
        level = getattr(result, "level", 1)
        if level > self.max_level:
            self.max_level = level

    def _after_inv(self, args, result) -> None:
        self._after_cyclotomic(args, result)
        self.inverted.add((args[0].level, args[0].coeffs))

    def _after_final(self, args, result) -> None:
        self.raw_terms += len(result)

    # -- output ------------------------------------------------------------

    def metrics(self, factor: float) -> dict:
        """Per-layer metrics; self times are scaled to reference speed."""
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s * factor
        out["cyclotomic.inv.distinct"] = len(self.inverted)
        out["cyclotomic.max_level"] = self.max_level
        out["genfun.raw_terms"] = self.raw_terms
        return out

    def write(self, path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**header,
                       "folded": {n: {"calls": c, "self_s": s}
                                  for n, (c, s) in self.stats.items()},
                       "spans": [dict(zip(("id", "parent", "name", "start",
                                           "end"), s)) for s in self.spans]},
                      fh)
