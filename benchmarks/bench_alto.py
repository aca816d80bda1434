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
  ingest itself (``INGEST_ROUNDS`` builds per order) must stay within
  ``MAX_SIDE_REGRESSION`` of the row-major baseline — the interleaved
  transform is a handful of vectorized shift/mask gathers, not a new
  cost tier.

Every ratio is the median over repeats of a *paired* ratio.  Within a
read repeat the two orders run back to back (which goes first
alternates), and each timed sample repeats its batch until it lasts at
least ``SAMPLE_SECONDS``; the two builds of an ingest round interleave
write by write.  A slow stretch of the machine then lands on both sides
of a pair, and one stall moves one pair, which the median ignores.

Both stores must return bit-identical box contents (asserted before any
timing).  Runs standalone (``python benchmarks/bench_alto.py``) and in
the tier-1 suite (``tests/bench/test_alto.py``) at a laxer floor.
"""

from __future__ import annotations

import math
import shutil
import statistics
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
#: Builds per order; the ingest ratio is the median of the rounds' ratios.
INGEST_ROUNDS = 5
#: A timed read sample repeats its batch until it lasts this long, so a
#: stall of a few milliseconds is a small part of any sample.
SAMPLE_SECONDS = 0.05

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


def build_stores(
    directory: Path,
    shape: tuple[int, ...],
    coords: np.ndarray,
    values: np.ndarray,
    *,
    n_fragments: int,
) -> tuple[dict[str, FragmentStore], dict[str, float]]:
    """Bulk-load ``coords`` into one store per order, each as
    ``n_fragments`` equal sorted runs of its own address order.

    This reproduces what every durable path converges to: WAL packing,
    merge compaction and sharded re-banding all emit fragments that are
    consecutive runs of the store's address order.  The loads interleave
    write by write (which order goes first alternates), so a slow
    stretch of the machine lands on both.  Returns the stores and each
    order's summed write time (the TSP-style guardrail metric).
    """
    from repro.core.linearize import linearize_order

    stores: dict[str, FragmentStore] = {}
    runs: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    seconds = dict.fromkeys(ORDERS, 0.0)
    for order in ORDERS:
        stores[order] = FragmentStore(
            directory / order, shape, "COO-SORTED",
            options=StoreOptions(addr_order=order),
        )
        perm = np.argsort(
            linearize_order(coords, shape, order, validate=False),
            kind="stable",
        )
        runs[order] = (coords[perm], values[perm])
    run = coords.shape[0] // n_fragments
    for i in range(n_fragments):
        s = i * run
        e = coords.shape[0] if i == n_fragments - 1 else (i + 1) * run
        for order in ORDERS if i % 2 == 0 else ORDERS[::-1]:
            part_coords, part_values = runs[order]
            t0 = time.perf_counter()
            stores[order].write(part_coords[s:e], part_values[s:e])
            seconds[order] += time.perf_counter() - t0
    return stores, seconds


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


def _paired_times(stores, run, *, repeats: int) -> dict[str, list[float]]:
    """Each order's wall time of one ``run(store)``, per repeat.

    The orders alternate repeat by repeat, and which goes first swaps
    each repeat, so a slow stretch of the machine lands on both sides
    of a pair.  Each sample runs the batch ``k`` times, ``k`` set by an
    untimed first run so a sample lasts at least ``SAMPLE_SECONDS``.
    """
    orders = list(stores)
    t0 = time.perf_counter()
    run(stores[orders[0]])
    k = max(1, math.ceil(SAMPLE_SECONDS / max(time.perf_counter() - t0, 1e-6)))
    times: dict[str, list[float]] = {order: [] for order in orders}
    for r in range(repeats):
        for order in orders if r % 2 == 0 else orders[::-1]:
            t0 = time.perf_counter()
            for _ in range(k):
                run(stores[order])
            times[order].append((time.perf_counter() - t0) / k)
    return times


def _paired_ratio(num: list[float], den: list[float]) -> float:
    """The median of the per-repeat ratios ``num / den``."""
    return statistics.median(a / max(b, 1e-12) for a, b in zip(num, den))


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
    ``explain()`` over the box workload), median ``box_<order>_<shape>``
    / ``point_<order>_<shape>`` / ``ingest_<order>_<shape>`` wall times,
    and the headline aggregates ``prune_ratio`` / ``box_speedup`` /
    ``point_ratio`` / ``ingest_ratio`` (paired medians, worst case over
    shapes, so the floors hold for every shape, not just on average).
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
            ingest: dict[str, list[float]] = {order: [] for order in ORDERS}
            for _ in range(INGEST_ROUNDS):
                directory = tmp / key
                shutil.rmtree(directory, ignore_errors=True)
                stores, seconds = build_stores(
                    directory, shape, coords, values,
                    n_fragments=n_fragments,
                )
                for order in ORDERS:
                    ingest[order].append(seconds[order])
            for order in ORDERS:
                result[f"ingest_{order}_{key}"] = statistics.median(
                    ingest[order]
                )
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
            box_times = _paired_times(
                stores, lambda store: [store.read_box(b) for b in boxes],
                repeats=repeats,
            )
            point_times = _paired_times(
                stores, lambda store: store.read_points(queries),
                repeats=repeats,
            )
            for order in ORDERS:
                result[f"box_{order}_{key}"] = statistics.median(
                    box_times[order]
                )
                result[f"point_{order}_{key}"] = statistics.median(
                    point_times[order]
                )
            prune_ratios.append(
                visited["row_major"] / max(visited["alto"], 1.0)
            )
            box_speedups.append(
                _paired_ratio(box_times["row_major"], box_times["alto"])
            )
            point_ratios.append(
                _paired_ratio(point_times["alto"], point_times["row_major"])
            )
            ingest_ratios.append(
                _paired_ratio(ingest["alto"], ingest["row_major"])
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
