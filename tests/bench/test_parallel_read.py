"""Tier-1 smoke hook for the decoded-fragment cache microbench (assert-only).

Imports ``benchmarks/bench_parallel_read.py`` by path (the benchmarks
directory is not a package) and asserts the warm-cache read speedup at a
laxer floor than the standalone run, so a regression that makes cached
reads re-load or re-sort fragments fails the regular suite, not just the
benchmark run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

_BENCH = (
    Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "bench_parallel_read.py"
)


def _load_bench():
    spec = importlib.util.spec_from_file_location(
        "bench_parallel_read", _BENCH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parallel_read_speedup_smoke():
    bench = _load_bench()
    result = bench.bench_parallel_read(
        n_fragments=16, points=8_000, repeats=3
    )
    bench.assert_speedup_ok(result, bench.MIN_SPEEDUP_SMOKE)
    assert result["hit_rate"] > 0.5
