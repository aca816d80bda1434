"""Tier-1 smoke hook for the cascade compression microbench.

Imports ``benchmarks/bench_compression_cascade.py`` by path and
asserts the sorted-TSP address-buffer size reduction at the same floor
as the standalone run (bit-width is deterministic — no timing jitter
to absorb), so a regression that loses the cascade's packing (or
breaks cross-codec read identity — the bench compares all three
codecs' reads bit for bit) fails the regular suite.  The arrival-order
cells must pick ``for`` and put no more address bytes on disk than
``zlib``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

_BENCH = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "bench_compression_cascade.py"
)


def _load_bench():
    spec = importlib.util.spec_from_file_location(
        "bench_compression_cascade", _BENCH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compression_cascade_smoke():
    bench = _load_bench()
    result = bench.bench_compression(side=256, n_queries=2_000)
    bench.assert_reduction_ok(result, bench.MIN_SIZE_REDUCTION_SMOKE)
    # The whole-fragment ratio is values-dominated but must still be a
    # net win, and every pattern's cascade cell must beat raw.
    assert result["total_reduction"] > 1.0
    for name in ("TSP", "GSP", "MSP"):
        cascade = result["cells"][f"{name}/cascade"]
        raw = result["cells"][f"{name}/raw"]
        assert cascade["encoded_nbytes"] <= raw["encoded_nbytes"], name
        assert cascade["addr_nbytes"] < raw["addr_nbytes"], name
        # In arrival order the cascade packs addresses at their range's
        # width, which beats DEFLATE over the raw bytes.
        arrival = result["arrival_cells"]
        assert arrival[f"{name}/cascade"]["chain"] == "for", name
        assert (arrival[f"{name}/cascade"]["addr_nbytes"]
                <= arrival[f"{name}/zlib"]["addr_nbytes"]), name
