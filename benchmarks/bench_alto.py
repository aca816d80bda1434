"""Microbench: ALTO bit-interleaved linearization vs row-major for boxes.

Every sorted ingest path — WAL packing, merge compaction, sharded
re-banding — lays fragments out as *consecutive runs of the address
order*.  Under row-major linearization a run is a slab: full extent in
every late mode, a sliver of the leading one.  A box query that is
small in the late modes therefore overlaps almost every fragment (each
slab spans the full late-mode planes), and neither bounding boxes nor
zone maps can prune what genuinely overlaps.  ALTO (PAPERS.md) spends
``ceil(log2(m_d))`` address bits per mode and interleaves them, so the
same equal-count runs become multi-mode *blocks* — small in every
dimension at once — and a box query overlaps only the handful of
blocks it actually touches.

This bench materializes the same uniform point set twice — one
``FragmentStore(addr_order="row_major")``, one ``"alto"`` — as 256
equal sorted runs each (the layout the durable ingest paths produce),
then times a skewed box workload on the mode-skewed 3D/4D shapes:

* **box reads** (the PR-facing claim): random boxes proportional to the
  tensor extents.  ``prune_ratio`` (fragments visited row-major /
  fragments visited alto, from the stores' own ``explain()`` plans)
  must be >= ``MIN_PRUNE_RATIO``; the end-to-end wall-clock
  ``box_speedup`` must be >= ``MIN_BOX_SPEEDUP`` standalone
  (``MIN_BOX_SPEEDUP_SMOKE`` in the tier-1 smoke).
* **guardrails**: stored-point lookups and the sorted-run (TSP-style)
  ingest itself (best of ``INGEST_ROUNDS`` alternating builds per
  order) must stay within ``MAX_SIDE_REGRESSION`` of the
  row-major baseline — the interleaved transform is a handful of
  vectorized shift/mask gathers, not a new cost tier.

Both stores must return bit-identical box contents (asserted before any
timing).  Runs standalone (``python benchmarks/bench_alto.py``) and in
the tier-1 suite (``tests/bench/test_alto.py``) at a laxer floor.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.core.boundary import Box
from repro.core.linearize import delinearize
from repro.storage import FragmentStore
from repro.storage.options import StoreOptions

#: The PR-facing claims for the standalone run.
MIN_PRUNE_RATIO = 2.0
MIN_BOX_SPEEDUP = 1.5
#: The tier-1 smoke floor (smaller store, laxer to absorb CI jitter).
MIN_BOX_SPEEDUP_SMOKE = 1.2
#: Point reads and ingest may not regress beyond this (standalone).
MAX_SIDE_REGRESSION = 1.1
#: Smoke-size guardrail (tiny batches, jitter-dominated).
MAX_SIDE_REGRESSION_SMOKE = 1.5
#: Each order's ingest time is the best of this many builds, the orders
#: alternating, so one slow wall-clock sample cannot trip the guardrail.
INGEST_ROUNDS = 3

#: Mode-skewed shapes: one long leading mode, short late modes.
SHAPES = {
    "3d": (1024, 256, 64),
    "4d": (256, 256, 16, 16),
}
ORDERS = ("row_major", "alto")

#: Query boxes span 1/4 of the leading mode but only 1/16 of each late
#: mode (>= 4 cells): the skewed "wide scan, narrow late selection"
#: shape where row-major slabs cannot be pruned but ALTO blocks can.
LEAD_FRACTION = 4
LATE_FRACTION = 16
N_QUERY_BOXES = 12


def _unique_coords(shape: tuple[int, ...], n: int, rng) -> np.ndarray:
    """``n`` distinct uniform coordinates (duplicate-free, so both
    stores hold the identical logical tensor regardless of layout)."""
    cells = int(np.prod([int(m) for m in shape], dtype=np.int64))
    addrs = rng.integers(0, cells, size=int(n * 1.2) + 64, dtype=np.uint64)
    addrs = np.unique(addrs)[:n]
    if addrs.shape[0] < n:  # pathological collision rate; resample
        return _unique_coords(shape, n, rng)
    return delinearize(addrs, shape)


def build_store(
    directory: Path,
    shape: tuple[int, ...],
    addr_order: str,
    coords: np.ndarray,
    values: np.ndarray,
    *,
    n_fragments: int,
) -> tuple[FragmentStore, float]:
    """Bulk-load ``coords`` as ``n_fragments`` equal sorted runs.

    This reproduces what every durable path converges to: WAL packing,
    merge compaction and sharded re-banding all emit fragments that are
    consecutive runs of the store's address order.  Returns the store
    and the ingest wall time (the TSP-style guardrail metric).
    """
    store = FragmentStore(
        directory, shape, "COO-SORTED",
        options=StoreOptions(addr_order=addr_order),
    )
    from repro.core.linearize import linearize_order

    order = np.argsort(
        linearize_order(coords, shape, addr_order, validate=False),
        kind="stable",
    )
    coords = coords[order]
    values = values[order]
    run = coords.shape[0] // n_fragments
    t0 = time.perf_counter()
    for i in range(n_fragments):
        s = i * run
        e = coords.shape[0] if i == n_fragments - 1 else (i + 1) * run
        store.write(coords[s:e], values[s:e])
    return store, time.perf_counter() - t0


def _query_boxes(shape: tuple[int, ...], rng) -> list[Box]:
    sizes = tuple(
        max(4, m // (LEAD_FRACTION if d == 0 else LATE_FRACTION))
        for d, m in enumerate(shape)
    )
    boxes = []
    for _ in range(N_QUERY_BOXES):
        origin = tuple(
            int(rng.integers(0, m - s + 1)) for m, s in zip(shape, sizes)
        )
        boxes.append(Box(origin, sizes))
    return boxes


def _best_of_alternating(stores, run, *, repeats: int) -> dict[str, float]:
    """Each order's best wall time of ``run(store)`` over ``repeats``.

    The orders alternate repeat by repeat, and which goes first swaps
    each repeat, so a slow stretch of the machine lands on both sides
    instead of on every repeat of one.
    """
    best = dict.fromkeys(stores, float("inf"))
    orders = list(stores)
    for r in range(repeats):
        for order in orders if r % 2 == 0 else orders[::-1]:
            t0 = time.perf_counter()
            run(stores[order])
            best[order] = min(best[order], time.perf_counter() - t0)
    return best


def _tensor_key(tensor) -> list[tuple]:
    return sorted(
        map(tuple, np.column_stack([tensor.coords, tensor.values]).tolist())
    )


def bench_alto(
    n_fragments: int = 256,
    points_per_fragment: int = 600,
    repeats: int = 3,
    shapes: tuple[str, ...] = ("3d", "4d"),
    seed: int = 7,
) -> dict[str, float]:
    """Box/point/ingest comparison across ``SHAPES`` x ``ORDERS``.

    Returns per-shape ``visited_<order>_<shape>`` fragment counts (from
    ``explain()`` over the box workload), ``box_<order>_<shape>`` /
    ``point_<order>_<shape>`` / ``ingest_<order>_<shape>`` wall times,
    and the headline aggregates ``prune_ratio`` / ``box_speedup`` /
    ``point_ratio`` / ``ingest_ratio`` (worst case over shapes, so the
    floors hold for every shape, not just on average).
    """
    rng = np.random.default_rng(seed)
    tmp = Path(tempfile.mkdtemp(prefix="bench-alto-"))
    was_enabled = obs.is_enabled()
    result: dict[str, float] = {"fragments": float(n_fragments)}
    prune_ratios, box_speedups, point_ratios, ingest_ratios = [], [], [], []
    try:
        obs.disable()
        for key in shapes:
            shape = SHAPES[key]
            coords = _unique_coords(
                shape, n_fragments * points_per_fragment, rng
            )
            values = rng.standard_normal(coords.shape[0])
            boxes = _query_boxes(shape, rng)
            pick = rng.choice(
                coords.shape[0], size=min(512, coords.shape[0]),
                replace=False,
            )
            queries = coords[pick]
            stores = {}
            ingest = dict.fromkeys(ORDERS, float("inf"))
            for _ in range(INGEST_ROUNDS):
                for order in ORDERS:
                    directory = tmp / f"{key}-{order}"
                    shutil.rmtree(directory, ignore_errors=True)
                    stores[order], seconds = build_store(
                        directory, shape, order, coords, values,
                        n_fragments=n_fragments,
                    )
                    ingest[order] = min(ingest[order], seconds)
            for order in ORDERS:
                result[f"ingest_{order}_{key}"] = ingest[order]
            # Both layouts must answer identically before any timing.
            probe = boxes[0]
            assert _tensor_key(stores["row_major"].read_box(probe)) == \
                _tensor_key(stores["alto"].read_box(probe)), (
                    f"layouts disagree on box contents ({key})"
                )
            visited = {}
            for order in ORDERS:
                visited[order] = float(sum(
                    len(stores[order].explain(box).fragments)
                    for box in boxes
                ))
                result[f"visited_{order}_{key}"] = visited[order]
            box_times = _best_of_alternating(
                stores, lambda store: [store.read_box(b) for b in boxes],
                repeats=repeats,
            )
            point_times = _best_of_alternating(
                stores, lambda store: store.read_points(queries),
                repeats=repeats,
            )
            for order in ORDERS:
                result[f"box_{order}_{key}"] = box_times[order]
                result[f"point_{order}_{key}"] = point_times[order]
            prune_ratios.append(
                visited["row_major"] / max(visited["alto"], 1.0)
            )
            box_speedups.append(
                result[f"box_row_major_{key}"]
                / max(result[f"box_alto_{key}"], 1e-12)
            )
            point_ratios.append(
                result[f"point_alto_{key}"]
                / max(result[f"point_row_major_{key}"], 1e-12)
            )
            ingest_ratios.append(
                result[f"ingest_alto_{key}"]
                / max(result[f"ingest_row_major_{key}"], 1e-12)
            )
        result["prune_ratio"] = min(prune_ratios)
        result["box_speedup"] = min(box_speedups)
        result["point_ratio"] = max(point_ratios)
        result["ingest_ratio"] = max(ingest_ratios)
        return result
    finally:
        if was_enabled:
            obs.enable()
        else:
            obs.disable()
        shutil.rmtree(tmp, ignore_errors=True)


def assert_alto_ok(
    result: dict[str, float],
    *,
    min_prune: float = MIN_PRUNE_RATIO,
    min_speedup: float = MIN_BOX_SPEEDUP,
    max_side: float = MAX_SIDE_REGRESSION,
) -> None:
    assert result["prune_ratio"] >= min_prune, (
        f"ALTO fragment-prune ratio too low: "
        f"{result['prune_ratio']:.2f}x (floor {min_prune}x)"
    )
    assert result["box_speedup"] >= min_speedup, (
        f"ALTO box-read speedup too low: "
        f"{result['box_speedup']:.2f}x (floor {min_speedup}x)"
    )
    assert result["point_ratio"] <= max_side, (
        f"ALTO point reads regressed: {result['point_ratio']:.2f}x "
        f"of row-major (cap {max_side}x)"
    )
    assert result["ingest_ratio"] <= max_side, (
        f"ALTO ingest regressed: {result['ingest_ratio']:.2f}x "
        f"of row-major (cap {max_side}x)"
    )


def test_alto_linearization():
    """Collected when pytest is pointed at benchmarks/ explicitly."""
    assert_alto_ok(bench_alto())


if __name__ == "__main__":
    r = bench_alto()
    print(f"{int(r['fragments'])}-fragment sorted-run stores, "
          f"{N_QUERY_BOXES} boxes at 1/{LEAD_FRACTION} leading / "
          f"1/{LATE_FRACTION} late extents:")
    for key in SHAPES:
        if f"box_row_major_{key}" not in r:
            continue
        print(f"  {key} {SHAPES[key]}:")
        for order in ORDERS:
            print(f"    {order:<10s} "
                  f"visited={r[f'visited_{order}_{key}']:6.0f}  "
                  f"box={r[f'box_{order}_{key}'] * 1e3:8.2f} ms  "
                  f"point={r[f'point_{order}_{key}'] * 1e3:7.2f} ms  "
                  f"ingest={r[f'ingest_{order}_{key}']:6.3f} s")
    print(f"prune ratio {r['prune_ratio']:.2f}x   "
          f"box speedup {r['box_speedup']:.2f}x   "
          f"point ratio {r['point_ratio']:.2f}x   "
          f"ingest ratio {r['ingest_ratio']:.2f}x")
    assert_alto_ok(r)
    print(f"OK (>= {MIN_PRUNE_RATIO}x prune, >= {MIN_BOX_SPEEDUP}x box, "
          f"<= {MAX_SIDE_REGRESSION}x side regressions)")
