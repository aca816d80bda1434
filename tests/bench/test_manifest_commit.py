"""Tier-1 smoke hook for the manifest-commit microbench (assert-only).

Imports ``benchmarks/bench_manifest_commit.py`` by path and asserts, on
bytes rather than time so it is deterministic, that the record a write
appends to ``manifest.log`` does not grow with the store's fragment
count — the property that keeps a commit O(1).
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

_BENCH = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "bench_manifest_commit.py"
)


def _load_bench():
    spec = importlib.util.spec_from_file_location(
        "bench_manifest_commit", _BENCH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_log_records_do_not_grow_with_the_store():
    bench = _load_bench()
    result = bench.bench_manifest_commit(n_fragments=300, window=30, reopens=1)
    bench.assert_records_flat(result)
    # A whole-manifest rewrite of 300 entries is ~100x one record.
    assert result["last_record_bytes"] < 1_000
