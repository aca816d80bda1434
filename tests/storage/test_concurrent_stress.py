"""Concurrency stress: mixed readers/writers/compaction on one store.

The read pipeline's thread-safety contract (``docs/READ_PATH.md``):

* a read never observes a torn state — every value it returns is the value
  some committed write stored for that coordinate;
* points committed before a read began are always found;
* a compaction never yanks fragment files out from under in-flight reads,
  and the decoded-fragment cache never serves pre-compaction entries;
* the cache byte bound holds at every instant;
* the ``store.cache.*`` observability counters equal the cache's own
  cumulative totals once the dust settles.

Values are a pure function of the coordinate (``value_of``), so any
returned value is checkable without knowing which writes a read raced
with.  The writer stops after ``max_writes`` writes, or earlier once the
first reader finishes, so the fragment count a run reaches — and with
it the run time — stays bounded however the threads are scheduled.  The
fast variant runs in tier-1; the soak variant is ``@pytest.mark.slow``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import obs
from repro.core import Box
from repro.storage import FragmentStore, ReadOptions, StoreOptions

SHAPE = (48, 48)
SIDE = SHAPE[1]


def value_of(coords: np.ndarray) -> np.ndarray:
    """Deterministic value per coordinate: linear address + 1."""
    return (coords[:, 0] * SIDE + coords[:, 1]).astype(np.float64) + 1.0


def row_block(row: int, width: int = SIDE) -> np.ndarray:
    cols = np.arange(width, dtype=np.uint64)
    return np.column_stack([np.full(width, row, dtype=np.uint64), cols])


def run_stress(tmp_path, *, n_readers, iterations, cache_bytes, compactions,
               max_writes):
    obs.enable()
    obs.reset()
    store = FragmentStore(
        tmp_path / "ds", SHAPE, "LINEAR",
        options=StoreOptions(cache_bytes=cache_bytes),
    )
    base = np.vstack([row_block(r) for r in range(4)])
    store.write(base, value_of(base))

    errors: list[BaseException] = []
    written_rows: set[int] = set(range(4))
    rows_lock = threading.Lock()
    stop = threading.Event()

    def check(condition, message):
        if not condition:
            raise AssertionError(message)

    def reader(seed):
        rng = np.random.default_rng(seed)
        modes = ("none", "thread")
        try:
            for i in range(iterations):
                parallel = modes[i % 2]
                n = int(rng.integers(1, 40))
                queries = np.column_stack([
                    rng.integers(0, SHAPE[0], size=n, dtype=np.uint64),
                    rng.integers(0, SHAPE[1], size=n, dtype=np.uint64),
                ])
                out = store.read_points(
                    queries, options=ReadOptions(parallel=parallel)
                )
                got = out.values
                want = value_of(queries[out.found])
                check(
                    np.array_equal(got, want),
                    f"torn point read: {got} != {want}",
                )
                base_mask = queries[:, 0] < 4
                check(
                    bool(out.found[base_mask].all()),
                    "base fragment point missing from read",
                )
                r0 = int(rng.integers(0, SHAPE[0]))
                box = Box((r0, 0), (min(6, SHAPE[0] - r0), SHAPE[1]))
                tensor = store.read_box(
                    box, options=ReadOptions(parallel=parallel)
                )
                check(
                    np.array_equal(tensor.values, value_of(tensor.coords)),
                    "torn box read",
                )
                coords_list = [tuple(c) for c in tensor.coords.tolist()]
                check(
                    len(coords_list) == len(set(coords_list)),
                    "box read returned duplicate coordinates",
                )
                check(
                    store.cache.current_bytes <= max(cache_bytes, 0)
                    or cache_bytes == 0,
                    "cache byte bound violated",
                )
        except BaseException as exc:  # noqa: BLE001 - collected for main
            errors.append(exc)
        finally:
            stop.set()

    def writer(seed):
        rng = np.random.default_rng(seed)
        try:
            for _ in range(max_writes):
                if stop.is_set():
                    break
                row = int(rng.integers(4, SHAPE[0]))
                coords = row_block(row)
                store.write(coords, value_of(coords))
                with rows_lock:
                    written_rows.add(row)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    def compactor():
        try:
            done = 0
            while not stop.is_set() and done < compactions:
                if len(store.fragments) >= 3:
                    store.compact()
                    done += 1
                stop.wait(0.01)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=reader, args=(1000 + i,))
        for i in range(n_readers)
    ]
    threads.append(threading.Thread(target=writer, args=(2000,)))
    threads.append(threading.Thread(target=compactor))
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads), "stress thread hung"
    assert not errors, f"invariant violated under concurrency: {errors[:3]}"

    # Post-join: the store holds exactly the written rows, right values.
    with rows_lock:
        rows = sorted(written_rows)
    all_coords = np.vstack([row_block(r) for r in rows])
    out = store.read_points(
        all_coords, options=ReadOptions(parallel="thread")
    )
    assert out.found.all()
    np.testing.assert_array_equal(out.values, value_of(all_coords))
    full = store.read_box(Box((0, 0), SHAPE))
    assert full.nnz == len(rows) * SIDE

    # Obs counters and the cache's own totals must agree exactly.
    snap = obs.snapshot()
    by_name = {m["name"]: m["value"] for m in snap["counters"]}
    stats = store.cache.stats()
    for kind in ("hits", "misses", "evictions", "invalidations"):
        assert by_name.get(f"store.cache.{kind}", 0) == stats[kind], kind
    assert store.cache.current_bytes <= store.cache.max_bytes
    return store


class TestConcurrentStress:
    def test_mixed_traffic_fast(self, tmp_path):
        run_stress(
            tmp_path, n_readers=3, iterations=30,
            cache_bytes=64 * 1024, compactions=2, max_writes=60,
        )

    def test_mixed_traffic_cache_disabled(self, tmp_path):
        store = run_stress(
            tmp_path, n_readers=2, iterations=15,
            cache_bytes=0, compactions=1, max_writes=30,
        )
        assert store.cache.stats()["hits"] == 0

    def test_tiny_cache_thrashes_safely(self, tmp_path):
        """A cache too small for the working set evicts but never corrupts."""
        store = run_stress(
            tmp_path, n_readers=2, iterations=15,
            cache_bytes=2048, compactions=1, max_writes=30,
        )
        assert store.cache.current_bytes <= 2048

    @pytest.mark.slow
    def test_mixed_traffic_soak(self, tmp_path):
        run_stress(
            tmp_path, n_readers=6, iterations=150,
            cache_bytes=256 * 1024, compactions=8, max_writes=300,
        )
