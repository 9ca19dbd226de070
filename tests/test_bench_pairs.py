"""The summary that `tools/bench_pairs.py` writes into a BENCH file.

The script itself runs the benchmark, which only the slow CI job does; its
summary is checked here on made-up results, its layer timing on this
tree, and its argument checks with nothing run.  The file is loaded by path.
"""
from __future__ import annotations

import importlib.util
import statistics
import sys
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def summarize(bench_pairs):
    return bench_pairs.summarize


def _pair(workload, seed, parent, change, failed=0):
    def side(values):
        return {"correct": True, "attempted": 10, "failed": failed,
                "metrics": {k: {"value": v, "unit": "s"}
                            for k, v in values.items()}}
    return {"workload": workload, "seed": seed,
            "first": "parent" if seed % 2 else "change",
            "parent": side(parent), "change": side(change)}


def test_medians_quartiles_and_wins(summarize):
    pairs = [_pair("w", seed, {"t": t, "rate": r}, {"t": t - d, "rate": r})
             for seed, (t, r, d) in enumerate(
                 [(4, 10, 1), (2, 20, 1), (3, 30, -1), (1, 40, 0)], 1)]
    pairs.append(_pair("v", 1, {"t": 1, "rate": 5}, {"t": 1, "rate": 6}, 2))
    out = summarize(pairs, {"t": "lower", "rate": "higher"})
    assert list(out) == ["w", "v"]
    t = out["w"]["t"]
    assert (t["parent_median"], t["parent_q1"], t["parent_q3"]) == (
        2.5, 1.25, 3.75)
    assert (t["parent_min"], t["parent_max"]) == (1, 4)
    assert (t["change_median"], t["change_min"], t["change_max"]) == (
        2.0, 1, 4)
    assert t["relative_change"] == pytest.approx(-0.2)
    # Lower is better for t: two pairs fell, one tie, one rose.
    assert t["change_better_pairs"] == 2 and t["pairs"] == 4
    assert out["w"]["rate"]["change_better_pairs"] == 0
    # One pair: the quartiles are its value.
    rate = out["v"]["rate"]
    assert (rate["parent_q1"], rate["parent_q3"]) == (5, 5)
    assert rate["change_better_pairs"] == 1 and rate["relative_change"] == 0.2
    assert (rate["failed_parent"], rate["failed_change"]) == (2, 2)
    assert rate["correct"] is True


def test_layers_of_this_tree(bench_pairs):
    # The parent's side runs the same way, from its own tree's src.
    layers = bench_pairs.run_layers(PAIRS.parents[1])
    assert list(layers) == ["3x4 default order", "(1 7 11)", "Beck",
                            "phased 3x5 order 021"]
    assert [v["summands"] for v in layers.values()] == [19, 3, 5, 50]
    for name, v in layers.items():
        assert list(v) == ["summands", "points", "rounds", "compute_ms",
                           "plan_ms", "evaluate_us", "box_counts_us",
                           "box_counts_cold_us"]
        assert v["compute_ms"] > 0
        assert v["plan_ms"] > 0 and v["evaluate_us"] > 0
        # box_counts rejects a phased spec, so that input has no oracle time.
        if name.startswith("phased"):
            assert v["box_counts_us"] is v["box_counts_cold_us"] is None
        else:
            assert v["box_counts_us"] > 0 and v["box_counts_cold_us"] > 0


def test_cold_layer_imports_vpf_afresh(bench_pairs):
    # The cold oracle time follows an import that compiles vpf from source,
    # as vpfbench's set-up imports it; the modules found before go back.
    import vpf.oracle  # noqa: F401
    saved = {n: m for n, m in sys.modules.items()
             if n == "vpf" or n.startswith("vpf.")}
    flags = sys.pycache_prefix, sys.dont_write_bytecode
    try:
        fresh = bench_pairs.fresh_vpf()
        assert fresh is not saved["vpf"]
        assert fresh.oracle is not saved["vpf.oracle"]
        assert fresh.oracle.__file__ == saved["vpf.oracle"].__file__
        assert fresh.oracle.__spec__.cached.startswith(
            str(PAIRS.parents[1] / ".no-pycache"))
        assert (sys.pycache_prefix, sys.dont_write_bytecode) == flags
    finally:
        for name in [n for n in sys.modules
                     if n == "vpf" or n.startswith("vpf.")]:
            del sys.modules[name]
        sys.modules.update(saved)


def test_repeated_workload_rejected_before_any_run(bench_pairs, monkeypatch,
                                                  tmp_path, capsys):
    def run(*args, **kwargs):
        raise AssertionError("nothing may run")
    monkeypatch.setattr(bench_pairs, "run_bench", run)
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["--parent", "HEAD", "--pairs", "1", "--seconds", "1",
                          "--workloads", "box_verify", "level_ladder",
                          "box_verify", "--claim", "none", "--out", str(out)])
    assert exit_.value.code == 2
    assert "repeated" in capsys.readouterr().err
    assert not out.exists()


def test_layers_alternate_sides_and_report_medians(bench_pairs, monkeypatch):
    # Each run_layers call reports its own call number as every time, so
    # the medians show which calls each side got.
    calls = []

    def run_layers(tree):
        calls.append(tree)
        n = len(calls)
        return {"x": {"summands": 3, "points": 5, "rounds": 2,
                      "compute_ms": n, "plan_ms": 10 * n,
                      "evaluate_us": n / 2, "box_counts_us": None,
                      "box_counts_cold_us": None}}
    monkeypatch.setattr(bench_pairs, "run_layers", run_layers)
    out = bench_pairs.pair_layers({"parent": "P", "change": "C"})
    k = bench_pairs.LAYER_CALLS
    # The side that runs first changes from one call to the next, and an
    # even number of calls gives each side the first place equally often.
    assert k >= 4 and k % 2 == 0
    assert calls == ["P", "C", "C", "P"] * (k // 2)
    assert list(out) == ["parent", "change"]
    for side, tree in (("parent", "P"), ("change", "C")):
        got = [n for n, t in enumerate(calls, 1) if t == tree]
        (x,) = out[side].values()
        assert x["compute_ms"] == statistics.median(got)
        assert x["plan_ms"] == 10 * statistics.median(got)
        assert x["evaluate_us"] == statistics.median(got) / 2
        assert (x["summands"], x["points"], x["rounds"]) == (3, 5, 2)
        assert x["box_counts_us"] is x["box_counts_cold_us"] is None
