"""Microbench: range-sharded reads + parallel per-shard compaction.

A fragment store fed *scattered* writes ends up with fragments whose
bounding boxes and zone maps each cover essentially the whole tensor —
nothing prunes, every read pays for every byte.  ``ShardedStore`` routes
the same writes through the global-address bands first, so every
fragment it commits is band-limited by construction: a hot-region query
(the paper's locality pattern) touches only the bands the region maps
to, and routing never opens the other children.

This bench builds the same scattered workload three ways — one
``FragmentStore``, a 4-shard and a 16-shard ``ShardedStore`` — compacts
each to its steady state, and times two hot-region read workloads:

* **scattered points** — stored coordinates sampled from a 64-row hot
  region, shuffled (the paper's point-existence pattern);
* **box** — the covering region box.

The PR-facing claim, asserted standalone and in the tier-1 smoke
(``tests/bench/test_sharded.py``): at 16 shards the scattered-point
workload is at least ``MIN_READ_SPEEDUP``x faster than the single
store.  The mechanism is pruning, not parallelism, so it holds on any
core count.

The second half times :meth:`ShardedStore.compact` with one worker vs
one per shard.  Per-shard compaction is embarrassingly parallel (shards
share no state), but the win needs real cores — the assertion only arms
on hosts with ``MIN_COMPACT_CORES``+ CPUs; below that the ratio is
recorded, unasserted.

Runs standalone (``python benchmarks/bench_sharded.py``) and in the
tier-1 suite at smoke sizes/floors.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import Box, obs
from repro.storage import FragmentStore, ShardedStore

#: The PR-facing claim: hot-region scattered points, 16 shards vs one store.
MIN_READ_SPEEDUP = 2.0
#: Tier-1 smoke floor (smaller store, shared-CI jitter).
MIN_READ_SPEEDUP_SMOKE = 1.3
#: Parallel-compaction floor at 4+ shards...
MIN_COMPACT_SPEEDUP = 2.0
#: ...asserted only when the host has at least this many cores (threads
#: cannot beat serial on fewer; the ratio is still recorded).
MIN_COMPACT_CORES = 4

SHAPE = (1 << 10, 1 << 10)
HOT_ROWS = (480, 544)  # the 64-row hot region the read workloads target


def make_parts(n_parts: int, points: int, seed: int = 0):
    """Scattered write parts — the layout a single store cannot prune."""
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(n_parts):
        coords = np.column_stack([
            rng.integers(0, SHAPE[0], size=points, dtype=np.uint64),
            rng.integers(0, SHAPE[1], size=points, dtype=np.uint64),
        ])
        parts.append((coords, rng.random(points)))
    return parts


def hot_region_queries(parts, n_queries: int, seed: int = 1) -> np.ndarray:
    """Stored coordinates inside the hot region, shuffled."""
    rng = np.random.default_rng(seed)
    coords = np.vstack([c for c, _ in parts])
    lo, hi = HOT_ROWS
    hot = coords[(coords[:, 0] >= lo) & (coords[:, 0] < hi)]
    rng.shuffle(hot)
    return hot[:n_queries]


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_sharded_reads(
    n_parts: int = 8,
    points: int = 25_000,
    n_queries: int = 2_000,
    repeats: int = 5,
    shard_counts: tuple[int, ...] = (4, 16),
) -> dict[str, float]:
    """Hot-region point + box reads: one store vs each shard count.

    All stores hold identical data and are compacted to steady state
    before timing.  Returns per-configuration times plus the headline
    ``point_speedup`` / ``box_speedup`` at ``max(shard_counts)``.
    """
    tmp = Path(tempfile.mkdtemp(prefix="bench-sharded-"))
    was_enabled = obs.is_enabled()
    try:
        obs.disable()
        parts = make_parts(n_parts, points)
        queries = hot_region_queries(parts, n_queries)
        box = Box((HOT_ROWS[0], 0), (HOT_ROWS[1] - HOT_ROWS[0], SHAPE[1]))

        single = FragmentStore(tmp / "single", SHAPE, "LINEAR")
        for c, v in parts:
            single.write(c, v)
        single.compact()

        def timed(store):
            def read_points():
                assert store.read_points(queries).found.all()
            return (
                _best(read_points, repeats),
                _best(lambda: store.read_box(box), repeats),
            )

        point_single, box_single = timed(single)
        metrics: dict[str, float] = {
            "point_single": point_single,
            "box_single": box_single,
            "n_queries": queries.shape[0],
            "nnz": n_parts * points,
        }
        for n_shards in shard_counts:
            sharded = ShardedStore(
                tmp / f"sharded-{n_shards}", SHAPE, "LINEAR",
                n_shards=n_shards,
            )
            for c, v in parts:
                sharded.write(c, v)
            sharded.compact()
            point_t, box_t = timed(sharded)
            metrics[f"point_sharded_{n_shards}"] = point_t
            metrics[f"box_sharded_{n_shards}"] = box_t
            metrics[f"point_speedup_{n_shards}"] = point_single / point_t
            metrics[f"box_speedup_{n_shards}"] = box_single / box_t
        headline = max(shard_counts)
        metrics["point_speedup"] = metrics[f"point_speedup_{headline}"]
        metrics["box_speedup"] = metrics[f"box_speedup_{headline}"]
        return metrics
    finally:
        if was_enabled:
            obs.enable()
        shutil.rmtree(tmp, ignore_errors=True)


def bench_parallel_compaction(
    n_shards: int = 4,
    n_parts: int = 8,
    points: int = 25_000,
) -> dict[str, float]:
    """Per-shard compaction: one worker vs one per shard.

    Two identical sharded stores (compaction is destructive), timed once
    each — compaction is a maintenance op, not a hot loop.
    """
    tmp = Path(tempfile.mkdtemp(prefix="bench-sharded-compact-"))
    was_enabled = obs.is_enabled()
    try:
        obs.disable()
        parts = make_parts(n_parts, points)
        times = {}
        for label, workers in (("serial", 1), ("parallel", n_shards)):
            store = ShardedStore(
                tmp / label, SHAPE, "LINEAR", n_shards=n_shards
            )
            for c, v in parts:
                store.write(c, v)
            t0 = time.perf_counter()
            receipts = store.compact(max_workers=workers)
            times[label] = time.perf_counter() - t0
            assert len(receipts) == n_shards
        return {
            "compact_serial": times["serial"],
            "compact_parallel": times["parallel"],
            "compact_speedup": times["serial"] / times["parallel"],
            "n_shards": n_shards,
            "cpus": os.cpu_count() or 1,
        }
    finally:
        if was_enabled:
            obs.enable()
        shutil.rmtree(tmp, ignore_errors=True)


def assert_read_speedup_ok(metrics: dict, floor: float) -> None:
    speedup = metrics["point_speedup"]
    assert speedup >= floor, (
        f"sharded hot-region point reads only {speedup:.2f}x faster "
        f"than the single store (floor {floor}x)"
    )


def assert_compact_speedup_ok(metrics: dict, floor: float) -> None:
    """Arm the parallel-compaction floor only on multi-core hosts."""
    if metrics["cpus"] < MIN_COMPACT_CORES:
        return
    speedup = metrics["compact_speedup"]
    assert speedup >= floor, (
        f"parallel compaction only {speedup:.2f}x faster at "
        f"{metrics['n_shards']} shards on {metrics['cpus']} cores "
        f"(floor {floor}x)"
    )


def main() -> None:
    reads = bench_sharded_reads()
    print(f"hot-region reads over {reads['nnz']:,} stored points "
          f"({reads['n_queries']} queries):")
    print(f"  single store:   points {reads['point_single'] * 1e3:7.2f} ms"
          f"   box {reads['box_single'] * 1e3:7.2f} ms")
    for n_shards in (4, 16):
        p = reads[f"point_sharded_{n_shards}"]
        b = reads[f"box_sharded_{n_shards}"]
        print(f"  {n_shards:2d} shards:      points {p * 1e3:7.2f} ms "
              f"({reads[f'point_speedup_{n_shards}']:4.2f}x)"
              f"   box {b * 1e3:7.2f} ms "
              f"({reads[f'box_speedup_{n_shards}']:4.2f}x)")
    assert_read_speedup_ok(reads, MIN_READ_SPEEDUP)

    compact = bench_parallel_compaction()
    print(f"compaction at {compact['n_shards']} shards "
          f"({compact['cpus']} cores): "
          f"serial {compact['compact_serial'] * 1e3:.0f} ms, "
          f"parallel {compact['compact_parallel'] * 1e3:.0f} ms "
          f"({compact['compact_speedup']:.2f}x)")
    assert_compact_speedup_ok(compact, MIN_COMPACT_SPEEDUP)
    print("OK")


if __name__ == "__main__":
    main()
