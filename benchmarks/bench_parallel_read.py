"""Microbench: decoded-fragment cache speedup on repeated reads.

Algorithm 3's READ pays, per query and per overlapping fragment: one file
read, one CRC verify, one decode, then the actual index lookup.  On a
multi-fragment store the first three dwarf the fourth, and they are pure
re-computation — the fragments are immutable between manifest generations.
The ``repro.storage.readpath`` cache removes them: a bytes-bounded LRU of
decoded fragments.

This bench builds one >=16-fragment LINEAR store and times repeated
point-query batches two ways, both read inline:

* **cold** — ``cache_bytes=0`` (the seed behavior): every read re-loads
  and re-decodes all fragments;
* **warm** — a cache big enough for the working set, primed with one
  read.

The PR-facing claim, asserted here and in the tier-1 smoke
(``tests/bench/test_parallel_read.py``): warm reads are at least
``MIN_SPEEDUP``x faster, from the cache alone.  (The name is kept so its
record, ``BENCH_parallel_read.json``, stays one trajectory.)

Runs standalone (``python benchmarks/bench_parallel_read.py``) and in the
tier-1 suite (smoke asserts a laxer floor to absorb CI jitter).
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.storage import FragmentStore, StoreOptions

#: The PR-facing claim for the standalone run (warm/cold speedup floor).
MIN_SPEEDUP = 2.0
#: The tier-1 smoke floor (same store, laxer to absorb shared-CI jitter).
MIN_SPEEDUP_SMOKE = 1.5

SHAPE = (1 << 10, 1 << 10)


def build_store(
    directory: Path, *, n_fragments: int, points: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """An ``n_fragments``-fragment LINEAR store with disjoint row bands."""
    rng = np.random.default_rng(seed)
    store = FragmentStore(directory, SHAPE, "LINEAR")
    band = SHAPE[0] // n_fragments
    sample_coords = []
    for i in range(n_fragments):
        rows = rng.integers(i * band, (i + 1) * band, size=points,
                            dtype=np.uint64)
        cols = rng.integers(0, SHAPE[1], size=points, dtype=np.uint64)
        coords = np.column_stack([rows, cols])
        store.write(coords, rng.random(points))
        sample_coords.append(coords[:16])
    queries = np.vstack(sample_coords)
    return queries, rng.permutation(queries.shape[0])


def _time_reads(store: FragmentStore, queries, *, repeats) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = store.read_points(queries)
        best = min(best, time.perf_counter() - t0)
        assert out.found.all()  # sanity: the bench reads stored points
    return best


def bench_parallel_read(
    n_fragments: int = 16, points: int = 8_000, repeats: int = 5
) -> dict[str, float]:
    """Cold (uncached) vs warm (cached) point reads.

    Returns ``{"cold": s, "warm": s, "speedup": cold/warm, "hit_rate": r,
    "fragments": n}``.  Both variants run the identical query batch against
    the identical on-disk store; obs is disabled during timing and restored
    afterwards.
    """
    tmp = Path(tempfile.mkdtemp(prefix="bench-readpath-"))
    was_enabled = obs.is_enabled()
    try:
        obs.disable()
        queries, order = build_store(
            tmp / "ds", n_fragments=n_fragments, points=points
        )
        queries = queries[order]
        cold_store = FragmentStore(
            tmp / "ds", SHAPE, "LINEAR", options=StoreOptions(cache_bytes=0)
        )
        warm_store = FragmentStore(
            tmp / "ds", SHAPE, "LINEAR",
            options=StoreOptions(cache_bytes=1 << 28),
        )
        cold = _time_reads(cold_store, queries, repeats=repeats)
        warm_store.read_points(queries)  # prime the cache
        warm = _time_reads(warm_store, queries, repeats=repeats)
        stats = warm_store.cache.stats()
        lookups = stats["hits"] + stats["misses"]
        return {
            "cold": cold,
            "warm": warm,
            "speedup": cold / warm if warm else float("inf"),
            "hit_rate": stats["hits"] / lookups if lookups else 0.0,
            "fragments": float(n_fragments),
        }
    finally:
        if was_enabled:
            obs.enable()
        else:
            obs.disable()
        shutil.rmtree(tmp, ignore_errors=True)


def assert_speedup_ok(
    result: dict[str, float], min_speedup: float = MIN_SPEEDUP
) -> None:
    assert result["speedup"] >= min_speedup, (
        f"warm cached read not fast enough: cold={result['cold']:.4f}s "
        f"warm={result['warm']:.4f}s speedup={result['speedup']:.2f}x "
        f"(floor {min_speedup}x, hit rate {result['hit_rate']:.2f})"
    )


def test_parallel_read_speedup():
    """Collected when pytest is pointed at benchmarks/ explicitly."""
    assert_speedup_ok(bench_parallel_read())


if __name__ == "__main__":
    r = bench_parallel_read()
    print(f"{int(r['fragments'])}-fragment LINEAR store, "
          f"{int(r['fragments']) * 16} point queries: "
          f"cold={r['cold'] * 1e3:.1f} ms warm={r['warm'] * 1e3:.1f} ms "
          f"speedup={r['speedup']:.2f}x hit-rate={r['hit_rate']:.2f}")
    assert_speedup_ok(r)
    print(f"OK (>= {MIN_SPEEDUP}x warm-cache speedup)")
