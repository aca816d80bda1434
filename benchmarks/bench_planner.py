"""Microbench: read-side query planner (zone maps + spatial index).

A fragment store's only seed-era read filter is the per-fragment bounding
box.  Scattered point batches defeat it completely: a batch whose points
span the tensor has a bounding box that intersects *every* fragment, so
the seed visits (reads, CRC-checks, decodes) all of them even when the
points live in a handful.  The planner (``repro.storage.planner``) closes
that gap with per-fragment zone maps over global linear addresses — a
fragment whose address range/histogram provably contains none of the
query addresses is skipped without touching its file.

This bench builds one >=256-fragment LINEAR store of disjoint row bands
and times two workloads over the plan-on/off x crc_mode eager/once
matrix:

* **scattered points** — stored points sampled from a few spread-out
  bands, shuffled.  Their collective bbox spans nearly all bands, so
  plan-off visits ~every fragment while zone maps keep the visit list
  near the true band count.  This is the PR-facing claim:
  ``point_speedup`` (plan-on/eager vs plan-off/eager) must be at least
  ``MIN_SPEEDUP``x standalone, ``MIN_SPEEDUP_SMOKE``x in the tier-1
  smoke (``tests/bench/test_planner.py``).
* **band box** — a small box inside one band.  Bbox pruning already
  handles this shape in the seed, so the planner's win is the O(log F)
  interval index and zone confirmation; reported, not asserted.

``crc_mode="once"`` rows show whole-file CRC memoization stacking on
top (repeats > 1, so later rounds hit the memo).  Every configuration
reads the identical on-disk store and the bench asserts identical hit
counts across all of them.

Runs standalone (``python benchmarks/bench_planner.py``) and in the
tier-1 suite at a laxer floor to absorb CI jitter.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.core.boundary import Box
from repro.storage import FragmentStore, StoreOptions

#: The PR-facing claim for the standalone run (plan-on/off point floor).
MIN_SPEEDUP = 3.0
#: The tier-1 smoke floor (same store, laxer to absorb shared-CI jitter).
MIN_SPEEDUP_SMOKE = 1.5

SHAPE = (1 << 12, 1 << 10)
#: Bands the scattered point workload actually touches.
QUERY_BANDS = 8


def build_store(
    directory: Path, *, n_fragments: int, points: int, seed: int = 0
) -> np.ndarray:
    """A disjoint-row-band LINEAR store + a scattered point batch.

    The returned queries are stored points from ``QUERY_BANDS`` bands
    spread across the full row range (first band, last band, evenly
    between), shuffled — their bounding box spans ~all fragments, their
    addresses only a few.
    """
    rng = np.random.default_rng(seed)
    store = FragmentStore(directory, SHAPE, "LINEAR")
    band = SHAPE[0] // n_fragments
    picked = np.linspace(0, n_fragments - 1, QUERY_BANDS).astype(int)
    sample: list[np.ndarray] = []
    for i in range(n_fragments):
        rows = rng.integers(i * band, (i + 1) * band, size=points,
                            dtype=np.uint64)
        cols = rng.integers(0, SHAPE[1], size=points, dtype=np.uint64)
        coords = np.column_stack([rows, cols])
        store.write(coords, rng.random(points))
        if i in picked:
            sample.append(coords[:32])
    queries = np.vstack(sample)
    return queries[rng.permutation(queries.shape[0])]


def _time_points(store: FragmentStore, queries, *, repeats: int) -> tuple[float, int]:
    """Best-of-``repeats`` wall time + hit count for one query batch."""
    best = float("inf")
    hits = -1
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = store.read_points(queries)
        best = min(best, time.perf_counter() - t0)
        hits = int(out.found.sum())
    return best, hits


def _time_box(store: FragmentStore, box: Box, *, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        store.read_box(box)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_planner(
    n_fragments: int = 256, points: int = 256, repeats: int = 5
) -> dict[str, float]:
    """Scattered point + band box reads over the planner config matrix.

    Returns per-config best times (``point_<cfg>`` / ``box_<cfg>`` for
    cfg in ``off_eager / off_once / on_eager / on_once``),
    the headline ``point_speedup`` and ``box_speedup`` (eager plan-on
    vs eager plan-off), and ``visited_on`` / ``visited_off`` fragment
    counts from the plans themselves.  obs is disabled during timing
    and restored afterwards.
    """
    tmp = Path(tempfile.mkdtemp(prefix="bench-planner-"))
    was_enabled = obs.is_enabled()
    try:
        obs.disable()
        queries = build_store(
            tmp / "ds", n_fragments=n_fragments, points=points
        )
        band = SHAPE[0] // n_fragments
        box = Box((band * (n_fragments // 2), 0), (band, SHAPE[1] // 4))
        configs = {
            "off_eager": StoreOptions(planner=False, crc_mode="eager"),
            "off_once": StoreOptions(planner=False, crc_mode="once"),
            "on_eager": StoreOptions(planner=True, crc_mode="eager"),
            "on_once": StoreOptions(planner=True, crc_mode="once"),
        }
        result: dict[str, float] = {"fragments": float(n_fragments)}
        hit_counts = set()
        stores = {}
        for name, options in configs.items():
            store = FragmentStore(tmp / "ds", SHAPE, "LINEAR", options=options)
            stores[name] = store
            t, hits = _time_points(store, queries, repeats=repeats)
            result[f"point_{name}"] = t
            result[f"box_{name}"] = _time_box(store, box, repeats=repeats)
            hit_counts.add(hits)
        # Every config must agree on what the store contains.
        assert hit_counts == {queries.shape[0]}, (
            f"configs disagree on hits: {hit_counts} "
            f"(expected all {queries.shape[0]})"
        )
        result["point_speedup"] = (
            result["point_off_eager"] / result["point_on_eager"]
            if result["point_on_eager"] else float("inf")
        )
        result["box_speedup"] = (
            result["box_off_eager"] / result["box_on_eager"]
            if result["box_on_eager"] else float("inf")
        )
        result["visited_off"] = float(
            stores["off_eager"].read_points(queries).fragments_visited
        )
        result["visited_on"] = float(
            stores["on_eager"].read_points(queries).fragments_visited
        )
        return result
    finally:
        if was_enabled:
            obs.enable()
        else:
            obs.disable()
        shutil.rmtree(tmp, ignore_errors=True)


def assert_speedup_ok(
    result: dict[str, float], min_speedup: float = MIN_SPEEDUP
) -> None:
    assert result["point_speedup"] >= min_speedup, (
        f"planner point speedup too low: "
        f"off={result['point_off_eager']:.4f}s "
        f"on={result['point_on_eager']:.4f}s "
        f"speedup={result['point_speedup']:.2f}x (floor {min_speedup}x, "
        f"visited {result['visited_on']:.0f}"
        f"/{result['visited_off']:.0f} fragments)"
    )


def test_planner_speedup():
    """Collected when pytest is pointed at benchmarks/ explicitly."""
    assert_speedup_ok(bench_planner())


if __name__ == "__main__":
    r = bench_planner()
    print(f"{int(r['fragments'])}-fragment LINEAR store, scattered points "
          f"from {QUERY_BANDS} bands "
          f"(visited {r['visited_on']:.0f}/{r['visited_off']:.0f} frags):")
    for cfg in ("off_eager", "off_once", "on_eager", "on_once"):
        print(f"  {cfg:<10s} point={r['point_' + cfg] * 1e3:8.2f} ms  "
              f"box={r['box_' + cfg] * 1e3:8.2f} ms")
    print(f"point speedup (on/eager vs off/eager): "
          f"{r['point_speedup']:.2f}x   "
          f"box speedup: {r['box_speedup']:.2f}x")
    assert_speedup_ok(r)
    print(f"OK (>= {MIN_SPEEDUP}x planner point-query speedup)")
