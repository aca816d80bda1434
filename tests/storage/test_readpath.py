"""Read pipeline: fragment cache, ordered pool map, RW lock, fault parity.

A store reads inline, one planned fragment after another; reads that
overlap come from concurrent callers.  Reads issued from caller threads
must be *indistinguishable* from inline ones in everything but
wall-clock: same results, same ``on_corruption`` outcomes, same
counters.  These tests pin that contract, plus the unit behavior of the
pieces (:class:`~repro.storage.readpath.FragmentCache`,
:func:`~repro.storage.readpath.map_fragments_ordered`,
:class:`~repro.storage.readpath.RWLock`).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import ChecksumError
from repro.core.errors import FragmentIOError
from repro.storage import FragmentStore, ReadOptions, StoreOptions
from repro.storage.readpath import (
    MAX_READ_WORKERS,
    FragmentCache,
    RWLock,
    map_fragments_ordered,
    payload_nbytes,
)
from repro.testing.faults import FaultPlan, FaultRule, inject

from ..conftest import read_as


def make_store(path, *, n_fragments=4, points_per_fragment=12, options=None):
    """A LINEAR store with ``n_fragments`` disjoint fragments."""
    shape = (64, 64)
    store = FragmentStore(path, shape, "LINEAR", options=options)
    all_coords, all_values = [], []
    for i in range(n_fragments):
        rows = np.arange(points_per_fragment, dtype=np.uint64)
        coords = np.column_stack(
            [rows, np.full(points_per_fragment, i, dtype=np.uint64)]
        )
        values = (rows + 100.0 * i).astype(np.float64)
        store.write(coords, values)
        all_coords.append(coords)
        all_values.append(values)
    return store, np.vstack(all_coords), np.concatenate(all_values)


def fake_payload(value_bytes=800, buffer_bytes=160):
    return SimpleNamespace(
        values=np.zeros(value_bytes // 8, dtype=np.float64),
        buffers={"addresses": np.zeros(buffer_bytes // 8, dtype=np.uint64)},
    )


def corrupt_file(path, offset=-12):
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0xFF
    path.write_bytes(bytes(blob))


class TestValidateParallel:
    """Reads have no fan-out setting left: ``parallel`` and
    ``max_workers`` are rejected wherever they are passed."""

    def test_rejects_unknown(self):
        for removed in ({"parallel": "thread"}, {"max_workers": 2}):
            with pytest.raises(TypeError):
                ReadOptions(**removed)

    def test_store_rejects_unknown(self, tmp_path):
        store, coords, _ = make_store(tmp_path / "ds", n_fragments=1)
        with pytest.raises(TypeError):
            store.read_points(coords, parallel="thread")

    def test_worker_bound_positive(self):
        assert MAX_READ_WORKERS >= 1


class TestMapFragmentsOrdered:
    def test_preserves_input_order(self):
        # Later items finish first; results must still land in input order.
        def task(i):
            time.sleep(0.002 * (8 - i))
            return i * 10

        out = map_fragments_ordered(list(range(8)), task)
        assert [r for r, exc in out] == [i * 10 for i in range(8)]
        assert all(exc is None for _, exc in out)

    def test_captures_exceptions_per_item(self):
        def task(i):
            if i % 2:
                raise ValueError(f"boom-{i}")
            return i

        out = map_fragments_ordered(list(range(6)), task)
        for i, (result, exc) in enumerate(out):
            if i % 2:
                assert isinstance(exc, ValueError) and str(exc) == f"boom-{i}"
            else:
                assert result == i and exc is None

    def test_empty_items(self):
        assert map_fragments_ordered([], lambda x: x) == []

    def test_window_of_one_is_sequential_order(self):
        seen = []
        out = map_fragments_ordered(
            list(range(5)), lambda i: seen.append(i) or i, max_workers=1
        )
        assert seen == list(range(5))
        assert [r for r, _ in out] == list(range(5))


class TestFragmentCache:
    def test_disabled_by_default(self):
        cache = FragmentCache()
        assert not cache.enabled
        cache.put("k", fake_payload())
        assert cache.get("k") is None
        # A disabled cache records nothing: it is not "all misses".
        assert cache.hits == cache.misses == 0
        assert len(cache) == 0

    def test_hit_miss_accounting(self):
        cache = FragmentCache(1 << 20)
        p = fake_payload()
        assert cache.get("k") is None
        cache.put("k", p)
        assert cache.get("k") is p
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction_order(self):
        p = fake_payload()
        per_entry = payload_nbytes(p)
        cache = FragmentCache(3 * per_entry)
        for key in ("a", "b", "c"):
            cache.put(key, fake_payload())
        cache.get("a")  # refresh: "b" is now least recent
        cache.put("d", fake_payload())
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert cache.get("d") is not None
        assert cache.evictions == 1

    def test_bytes_bound_respected(self):
        per_entry = payload_nbytes(fake_payload())
        cache = FragmentCache(int(2.5 * per_entry))
        for i in range(10):
            cache.put(f"k{i}", fake_payload())
            assert cache.current_bytes <= cache.max_bytes
        assert len(cache) == 2
        assert cache.evictions == 8

    def test_oversized_payload_not_cached(self):
        cache = FragmentCache(256)  # smaller than any fake payload
        cache.put("big", fake_payload())
        assert len(cache) == 0 and cache.current_bytes == 0

    def test_replacing_key_does_not_leak_bytes(self):
        cache = FragmentCache(1 << 20)
        cache.put("k", fake_payload())
        before = cache.current_bytes
        cache.put("k", fake_payload())
        assert cache.current_bytes == before
        assert len(cache) == 1

    def test_invalidate_clears_but_keeps_totals(self):
        cache = FragmentCache(1 << 20)
        cache.put("k", fake_payload())
        cache.get("k")
        cache.invalidate()
        assert len(cache) == 0 and cache.current_bytes == 0
        assert cache.hits == 1
        assert cache.invalidations == 1
        # Invalidating an empty cache is a no-op, not another invalidation.
        cache.invalidate()
        assert cache.invalidations == 1

    def test_stats_snapshot(self):
        cache = FragmentCache(4096)
        cache.put("k", fake_payload())
        stats = cache.stats()
        assert stats["enabled"] == 1
        assert stats["entries"] == 1
        assert stats["bytes"] == cache.current_bytes
        assert set(stats) == {
            "enabled", "max_bytes", "bytes", "entries",
            "hits", "misses", "evictions", "invalidations",
        }

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            FragmentCache(-1)

    def test_cache_counters_land_in_obs(self, tmp_path):
        from repro import obs

        obs.enable()
        obs.reset()
        store, coords, _ = make_store(
            tmp_path / "ds", n_fragments=2,
            options=StoreOptions(cache_bytes=1 << 20),
        )
        store.read_points(coords)
        store.read_points(coords)
        snap = obs.snapshot()
        by_name = {m["name"]: m["value"] for m in snap["counters"]}
        assert by_name.get("store.cache.misses", 0) == store.cache.misses
        assert by_name.get("store.cache.hits", 0) == store.cache.hits
        assert store.cache.hits >= 2


class TestRWLock:
    def test_concurrent_readers(self):
        lock = RWLock()
        inside = threading.Barrier(3, timeout=5)

        def reader():
            with lock.read_locked():
                inside.wait()  # all 3 readers inside simultaneously

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers(self):
        lock = RWLock()
        order = []
        lock.acquire_write()

        def reader():
            with lock.read_locked():
                order.append("read")

        t = threading.Thread(target=reader)
        t.start()
        time.sleep(0.05)
        order.append("write-done")
        lock.release_write()
        t.join(timeout=5)
        assert order == ["write-done", "read"]

    def test_writer_reentrant(self):
        lock = RWLock()
        with lock.write_locked():
            with lock.write_locked():
                with lock.read_locked():  # reads under own write lock: OK
                    pass
        # Fully released: another thread can acquire immediately.
        acquired = []

        def writer():
            with lock.write_locked():
                acquired.append(True)

        t = threading.Thread(target=writer)
        t.start()
        t.join(timeout=5)
        assert acquired == [True]


class TestParallelMatchesSequential:
    """Reads issued by concurrent callers equal the inline read."""

    @pytest.mark.parametrize("max_workers", [None, 1, 2])
    def test_read_points_identical(self, tmp_path, max_workers):
        store, coords, values = make_store(
            tmp_path / "ds", n_fragments=6,
            options=StoreOptions(cache_bytes=1 << 20),
        )
        seq = store.read_points(coords)
        with ThreadPoolExecutor(max_workers) as pool:
            outs = list(pool.map(lambda _: store.read_points(coords), range(4)))
        for par in outs:
            np.testing.assert_array_equal(seq.found, par.found)
            np.testing.assert_array_equal(seq.values, par.values)
            assert seq.fragments_visited == par.fragments_visited

    def test_read_box_identical(self, tmp_path):
        from repro.core import Box

        store, *_ = make_store(tmp_path / "ds", n_fragments=6)
        box = Box((0, 0), (20, 64))
        seq = store.read_box(box)
        with ThreadPoolExecutor(2) as pool:
            outs = list(pool.map(lambda _: store.read_box(box), range(4)))
        for par in outs:
            np.testing.assert_array_equal(seq.coords, par.coords)
            np.testing.assert_array_equal(seq.values, par.values)

    def test_parallel_op_accounting_matches(self, tmp_path):
        """Each read charges its own span's counter: reads on two
        threads at once charge exactly twice one inline read."""
        from repro import obs

        store, coords, _ = make_store(tmp_path / "ds", n_fragments=4)
        faithful = ReadOptions(faithful=True)

        def total_ops(reads):
            obs.enable()
            obs.reset()
            reads()
            snap = obs.snapshot()
            return {
                m["name"]: m["value"] for m in snap["counters"]
                if ".ops." in m["name"]
            }

        def two_threads():
            with ThreadPoolExecutor(2) as pool:
                for _ in pool.map(
                    lambda _: store.read_points(coords, options=faithful),
                    range(2),
                ):
                    pass

        inline = total_ops(
            lambda: store.read_points(coords, options=faithful)
        )
        assert inline and all(v > 0 for v in inline.values())
        assert total_ops(two_threads) == {k: 2 * v for k, v in inline.items()}


class TestCorruptionPolicyParity:
    """skip / quarantine / raise behave the same for a read issued from
    a worker thread as inline (one caller, so the counts stay exact)."""

    @pytest.mark.parametrize("caller", ["none", "thread"])
    def test_skip_parity(self, tmp_path, caller):
        store, coords, values = make_store(
            tmp_path / f"ds-{caller}",
            options=StoreOptions(on_corruption="skip"),
        )
        corrupt_file(store.fragments[1].path)
        with pytest.warns(UserWarning, match="skip"):
            out = read_as(caller, lambda: store.read_points(coords), threads=1)
        # Fragment 1's points vanish; everything else survives.
        expected = np.ones(len(coords), dtype=bool)
        expected[12:24] = False
        np.testing.assert_array_equal(out.found, expected)
        np.testing.assert_array_equal(out.values, values[expected])
        assert store.corrupt_fragments == 1
        assert len(store.fragments) == 4  # skip never de-lists

    @pytest.mark.parametrize("caller", ["none", "thread"])
    def test_quarantine_parity(self, tmp_path, caller):
        store, coords, _ = make_store(
            tmp_path / f"ds-{caller}",
            options=StoreOptions(on_corruption="quarantine"),
        )
        bad = store.fragments[2].path
        corrupt_file(bad)
        with pytest.warns(UserWarning, match="quarantine"):
            out = read_as(caller, lambda: store.read_points(coords), threads=1)
        assert int(out.found.sum()) == 36
        assert not bad.exists()
        assert (bad.parent / ".quarantine" / bad.name).exists()
        assert len(store.fragments) == 3  # de-listed from the manifest
        # A reopened store agrees: the manifest commit was durable.
        reopened = FragmentStore(bad.parent, (64, 64), "LINEAR")
        assert len(reopened.fragments) == 3

    @pytest.mark.parametrize("caller", ["none", "thread"])
    def test_raise_parity(self, tmp_path, caller):
        store, coords, _ = make_store(tmp_path / f"ds-{caller}")
        corrupt_file(store.fragments[0].path)
        with pytest.raises(ChecksumError):
            read_as(caller, lambda: store.read_points(coords), threads=1)
        assert len(store.fragments) == 4  # raise never mutates the store

    @pytest.mark.parametrize("caller", ["none", "thread"])
    def test_corrupt_fragment_never_cached(self, tmp_path, caller):
        store, coords, _ = make_store(
            tmp_path / f"ds-{caller}",
            options=StoreOptions(on_corruption="skip", cache_bytes=1 << 20),
        )
        corrupt_file(store.fragments[0].path)
        for _ in range(2):  # second read must re-detect, not hit a cache
            with pytest.warns(UserWarning):
                read_as(caller, lambda: store.read_points(coords), threads=1)
        assert store.corrupt_fragments == 2


class TestRetryParity:
    def test_exhausted_retries_surface(self, tmp_path):
        """Nothing retries a failed read: the first read fault surfaces
        as :class:`FragmentIOError`, and the store reads fine after."""
        store, coords, values = make_store(tmp_path / "ds")
        plan = FaultPlan([FaultRule(op="read", pattern="frag-*.bin", times=1)])
        with inject(plan), pytest.raises(FragmentIOError):
            store.read_points(coords)
        assert plan.fired
        out = store.read_points(coords)
        assert out.found.all()
        np.testing.assert_array_equal(out.values, values)


class TestCacheLifecycle:
    def test_write_invalidates(self, tmp_path):
        store, coords, values = make_store(
            tmp_path / "ds", options=StoreOptions(cache_bytes=1 << 20)
        )
        store.read_points(coords)
        assert len(store.cache) > 0
        store.write(coords[:1], values[:1] + 1.0)
        assert len(store.cache) == 0

    def test_compact_invalidates_and_next_read_is_fresh(self, tmp_path):
        store, coords, values = make_store(
            tmp_path / "ds", options=StoreOptions(cache_bytes=1 << 20)
        )
        store.read_points(coords)
        store.compact()
        assert len(store.cache) == 0
        out = store.read_points(coords)
        assert out.found.all()
        np.testing.assert_array_equal(out.values, values)

    def test_warm_read_skips_disk(self, tmp_path):
        store, coords, _ = make_store(
            tmp_path / "ds", n_fragments=3,
            options=StoreOptions(cache_bytes=1 << 20),
        )
        store.read_points(coords)          # cold: 3 misses
        misses_after_cold = store.cache.misses
        # Injecting unconditional read faults proves warm reads never
        # touch the files.
        plan = FaultPlan(
            [FaultRule(op="read", pattern="frag-*.bin", times=None)]
        )
        with inject(plan):
            out = store.read_points(coords)
        assert out.found.all()
        assert store.cache.misses == misses_after_cold
        assert store.cache.hits >= 3
