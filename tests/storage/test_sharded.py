"""ShardedStore: banding, routing, re-banding, and differential reads.

The differential classes pin the headline contract: a ShardedStore and a
single FragmentStore fed the same writes return **bit-identical** results
for every format, planner on or off, before and after compaction and
re-banding.
"""

import json
import threading

import numpy as np
import pytest

from repro import Box, ReadOptions, SparseTensor, StoreOptions, available_formats
from repro.core.errors import ManifestError, ShapeError
from repro.storage import (
    FragmentStore,
    ShardedStore,
    fsck_sharded,
    is_sharded_dir,
)
from repro.storage.sharded import SHARD_MANIFEST_NAME, SHARD_RANGE_NAME

SHAPE = (24, 24, 24)


def make_parts(seed=0, n_parts=3, n=300, shape=SHAPE):
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(n_parts):
        coords = np.column_stack(
            [rng.integers(0, m, size=n) for m in shape]
        ).astype(np.uint64)
        values = rng.random(n)
        parts.append((coords, values))
    return parts


def build_pair(tmp_path, format_name="LINEAR", *, parts=None, planner=True,
               n_shards=4):
    """The same writes into a ShardedStore and a plain FragmentStore."""
    opts = StoreOptions(planner=planner)
    sharded = ShardedStore(tmp_path / "sharded", SHAPE, format_name,
                           n_shards=n_shards, options=opts)
    single = FragmentStore(tmp_path / "single", SHAPE, format_name,
                           options=opts)
    for coords, values in (parts or make_parts()):
        sharded.write(coords, values)
        single.write(coords, values)
    return sharded, single


def assert_reads_identical(sharded, single, *, seed=7):
    rng = np.random.default_rng(seed)
    hits = np.column_stack(
        [rng.integers(0, m, size=200) for m in SHAPE]
    ).astype(np.uint64)
    a = sharded.read_points(hits)
    b = single.read_points(hits)
    assert np.array_equal(a.found, b.found)
    assert a.values.dtype == b.values.dtype
    assert np.array_equal(a.values, b.values)

    for box in (Box((0, 0, 0), SHAPE),           # everything
                Box((6, 6, 6), (12, 12, 12)),    # interior
                Box((20, 20, 20), (4, 4, 4))):   # tail band
        ta = sharded.read_box(box)
        tb = single.read_box(box)
        assert ta.coords.dtype == tb.coords.dtype
        assert np.array_equal(ta.coords, tb.coords)
        assert np.array_equal(ta.values, tb.values)


class TestBanding:
    def test_bands_cover_address_space(self, tmp_path):
        store = ShardedStore(tmp_path / "s", SHAPE, "LINEAR", n_shards=4)
        bands = store.shards
        assert len(bands) == 4
        assert bands[0].addr_lo == 0
        assert bands[-1].addr_hi == 24 * 24 * 24
        for a, b in zip(bands, bands[1:]):
            assert a.addr_hi == b.addr_lo

    def test_tiny_shape_clamps_shard_count(self, tmp_path):
        store = ShardedStore(tmp_path / "s", (2,), "COO", n_shards=16)
        assert len(store.shards) == 2

    def test_each_shard_is_a_directory_with_sidecar(self, tmp_path):
        store = ShardedStore(tmp_path / "s", SHAPE, "LINEAR", n_shards=3)
        for entry in store.shards:
            assert entry.path.is_dir()
            sidecar = json.loads((entry.path / SHARD_RANGE_NAME).read_text())
            assert sidecar["addr_lo"] == entry.addr_lo
            assert sidecar["addr_hi"] == entry.addr_hi

    def test_reopen_adopts_committed_bands(self, tmp_path):
        store = ShardedStore(tmp_path / "s", SHAPE, "LINEAR", n_shards=4)
        names = [e.name for e in store.shards]
        # n_shards is ignored on reopen; the committed table wins.
        again = ShardedStore(tmp_path / "s", SHAPE, "LINEAR", n_shards=9)
        assert [e.name for e in again.shards] == names

    def test_parent_with_old_stats_keys_opens_unchanged(self, tmp_path):
        """Parent manifests that still carry per-shard stats open as
        before (the keys are ignored) and lose them at the next commit."""
        sharded, single = build_pair(tmp_path)
        path = sharded.directory / SHARD_MANIFEST_NAME
        doc = json.loads(path.read_text())
        for band in doc["bands"]:
            band.update(nnz=1, bbox_origin=[0, 0, 0], bbox_size=[1, 1, 1],
                        zone={"addr_min": 0, "addr_max": 0, "hist": []})
        path.write_text(json.dumps(doc))
        reopened = ShardedStore(tmp_path / "sharded", SHAPE, "LINEAR")
        assert_reads_identical(reopened, single)
        reopened.split(0)
        for band in json.loads(path.read_text())["bands"]:
            assert set(band) == {"dir", "addr_lo", "addr_hi", "epoch"}
        assert_reads_identical(reopened, single)

    def test_rejects_relative_coords(self, tmp_path):
        with pytest.raises(ShapeError):
            ShardedStore(tmp_path / "s", SHAPE, "LINEAR",
                         options=StoreOptions(relative_coords=True))

    def test_rejects_bad_shard_count(self, tmp_path):
        with pytest.raises(ValueError):
            ShardedStore(tmp_path / "s", SHAPE, "LINEAR", n_shards=0)

    def test_is_sharded_dir(self, tmp_path):
        ShardedStore(tmp_path / "s", SHAPE, "LINEAR")
        FragmentStore(tmp_path / "f", SHAPE, "LINEAR")
        assert is_sharded_dir(tmp_path / "s")
        assert not is_sharded_dir(tmp_path / "f")
        # Detection survives a lost parent manifest (via range.json).
        (tmp_path / "s" / SHARD_MANIFEST_NAME).unlink()
        assert is_sharded_dir(tmp_path / "s")


class TestRouting:
    def test_write_routes_each_point_to_exactly_one_shard(self, tmp_path):
        store = ShardedStore(tmp_path / "s", SHAPE, "LINEAR", n_shards=4)
        coords, values = make_parts(n_parts=1, n=500)[0]
        store.write(coords, values)
        # No cross-shard duplication: per-shard nnz sums to the part
        # size (duplicates counted, same as a single FragmentStore).
        assert store.nnz == coords.shape[0]
        assert sum(r["nnz"] for r in store.stats()) == coords.shape[0]
        # ...and every child holds only addresses inside its own band.
        for i, entry in enumerate(store.shards):
            for frag in store._child(i).fragments:
                assert entry.addr_lo <= frag.zone.addr_min
                assert frag.zone.addr_max < entry.addr_hi

    def test_parent_stats_track_writes(self, tmp_path):
        """Per-shard stats come from the child stores; a routed write
        leaves the parent's band table (and generation) alone."""
        store = ShardedStore(tmp_path / "s", SHAPE, "LINEAR", n_shards=4)
        gen0 = store.generation
        coords, values = make_parts(n_parts=1)[0]
        store.write(coords, values)
        assert store.generation == gen0
        rows = store.stats()
        assert any(r["nnz"] for r in rows)
        for i, row in enumerate(rows):
            child = store._child(i)
            assert row["nnz"] == child.nnz
            assert row["fragments"] == (1 if row["nnz"] else 0)
            for frag in child.fragments:
                assert not frag.bbox.is_empty() and frag.zone is not None

    def test_untouched_shard_stays_empty(self, tmp_path):
        store = ShardedStore(tmp_path / "s", SHAPE, "LINEAR", n_shards=4)
        # All points in the first row -> lowest band only.
        coords = np.column_stack([
            np.zeros(10, dtype=np.uint64),
            np.zeros(10, dtype=np.uint64),
            np.arange(10, dtype=np.uint64),
        ])
        store.write(coords, np.ones(10))
        rows = store.stats()
        assert rows[0]["nnz"] == 10
        for row in rows[1:]:
            assert row["nnz"] == 0 and row["fragments"] == 0

    def test_routed_ops_never_commit_parent(self, tmp_path):
        """Routed writes, appends, packs, compactions and migrations
        commit in the children only: no ``shards.json`` op, and the
        parent generation stays put."""
        from repro.testing.faults import OpRecorder, inject

        store = ShardedStore(tmp_path / "s", SHAPE, "LINEAR", n_shards=4)
        gen = store.generation
        parts = make_parts(n_parts=3)
        recorder = OpRecorder()
        with inject(recorder):
            store.write(*parts[0])
            store.write_many(parts[1:2])
            store.append(*parts[2])
            store.pack_wal()
            store.compact()
            store.migrate_all("COO")
        touched = [e for e in recorder.events
                   if e.path.name.startswith(SHARD_MANIFEST_NAME)]
        assert recorder.events and not touched
        assert store.generation == gen

    def test_empty_write_is_noop(self, tmp_path):
        store = ShardedStore(tmp_path / "s", SHAPE, "LINEAR")
        gen = store.generation
        receipts = store.write(
            np.empty((0, 3), dtype=np.uint64), np.empty(0)
        )
        assert receipts == []
        assert store.generation == gen

    def test_write_many_routes_all_parts(self, tmp_path):
        store = ShardedStore(tmp_path / "s", SHAPE, "LINEAR")
        parts = make_parts(n_parts=3)
        out = store.write_many(parts)
        assert len(out) == 3
        assert all(receipts for receipts in out)

    def test_write_tensor(self, tmp_path):
        store = ShardedStore(tmp_path / "s", SHAPE, "LINEAR")
        coords, values = make_parts(n_parts=1)[0]
        store.write_tensor(SparseTensor(SHAPE, coords, values))
        assert store.nnz > 0


class TestBandRouting:
    """Routing is the shard-level prune: a read reaches only the bands
    its keys or box intervals fall in."""

    @pytest.mark.parametrize("order, box, band", [
        ("row_major", Box((7, 3, 3), (4, 10, 10)), 1),   # rows 6..11
        ("alto", Box((16, 16, 16), (4, 4, 4)), 3),       # top bits 111
    ])
    def test_box_inside_one_band_visits_only_it(self, tmp_path, order, box,
                                                band):
        from repro import obs

        opts = StoreOptions(addr_order=order)
        sharded = ShardedStore(tmp_path / "sharded", SHAPE, "LINEAR",
                               n_shards=4, options=opts)
        single = FragmentStore(tmp_path / "single", SHAPE, "LINEAR",
                               options=opts)
        for coords, values in make_parts():
            sharded.write(coords, values)
            single.write(coords, values)
        assert all(row["nnz"] for row in sharded.stats())
        plan = sharded.explain(box)
        assert [e.name for e in plan.fragments] == [sharded.shards[band].name]

        def counter(name):
            return {c["name"]: c["value"]
                    for c in obs.snapshot()["counters"]}.get(name, 0)

        visited = counter("store.shard.visited")
        pruned = counter("store.shard.pruned")
        got = sharded.read_box(box)
        assert counter("store.shard.visited") == visited + 1
        assert counter("store.shard.pruned") == pruned + 3
        want = single.read_box(box)
        assert want.nnz > 0
        assert np.array_equal(got.coords, want.coords)
        assert np.array_equal(got.values, want.values)


    @pytest.mark.parametrize("order", ["row_major", "alto"])
    def test_reads_at_band_edges(self, tmp_path, order):
        """The last cell of each band and the first of the next route to
        their own bands, as points and as one-cell boxes."""
        from repro.core.linearize import delinearize_order

        shape = (16, 16, 16)  # ALTO's address space is the cell count
        sharded = ShardedStore(tmp_path / "s", shape, "LINEAR", n_shards=4,
                               options=StoreOptions(addr_order=order))
        edges = np.array(
            [a for e in sharded.shards[1:] for a in (e.addr_lo - 1, e.addr_lo)],
            dtype=np.uint64,
        )
        coords = delinearize_order(edges, shape, order)
        values = np.arange(1, edges.size + 1, dtype=float)
        sharded.write(coords, values)
        out = sharded.read_points(coords)
        assert out.found.all() and np.array_equal(out.values, values)
        for cell, value in zip(coords, values):
            box = Box(tuple(int(c) for c in cell), (1, 1, 1))
            got = sharded.read_box(box)
            assert got.nnz == 1 and got.values[0] == value


class TestPlanner:
    def test_explain_prunes_untouched_shards(self, tmp_path):
        store = ShardedStore(tmp_path / "s", SHAPE, "LINEAR", n_shards=4)
        coords = np.column_stack([
            np.zeros(10, dtype=np.uint64),
            np.zeros(10, dtype=np.uint64),
            np.arange(10, dtype=np.uint64),
        ])
        store.write(coords, np.ones(10))
        plan = store.explain(Box((0, 0, 0), (1, 1, 24)))
        # Only the first band can hold row 0; empty shards masked out.
        assert len(plan.fragments) == 1
        assert plan.fragments[0].name == store.shards[0].name
        assert plan.total_fragments == 4

    def test_point_explain(self, tmp_path):
        store = ShardedStore(tmp_path / "s", SHAPE, "LINEAR", n_shards=4)
        parts = make_parts(n_parts=1)
        store.write(*parts[0])
        q = parts[0][0][:16]
        plan = store.explain(q)
        assert 1 <= len(plan.fragments) <= 4


FORMATS = available_formats()


class TestDifferentialReads:
    """ShardedStore must read bit-identically to one FragmentStore."""

    @pytest.mark.parametrize("format_name", FORMATS)
    def test_all_formats(self, tmp_path, format_name):
        sharded, single = build_pair(tmp_path, format_name)
        assert_reads_identical(sharded, single)

    @pytest.mark.parametrize("planner", [True, False])
    def test_plan_on_off(self, tmp_path, planner):
        sharded, single = build_pair(tmp_path, planner=planner)
        assert_reads_identical(sharded, single)

    def test_overwrite_semantics_match(self, tmp_path):
        """Newest-wins duplicates behave identically across the cut."""
        rng = np.random.default_rng(3)
        coords = np.column_stack(
            [rng.integers(0, m, size=100) for m in SHAPE]
        ).astype(np.uint64)
        parts = [
            (coords, np.full(100, 1.0)),
            (coords[:50], np.full(50, 2.0)),   # overwrite half
            (np.repeat(coords[:5], 3, axis=0),  # in-part duplicates
             np.arange(15, dtype=float)),
        ]
        sharded, single = build_pair(tmp_path, parts=parts)
        assert_reads_identical(sharded, single)
        out_s = sharded.read_points(coords)
        out_f = single.read_points(coords)
        assert np.array_equal(out_s.values, out_f.values)

    def test_identical_after_compact(self, tmp_path):
        sharded, single = build_pair(tmp_path)
        sharded.compact()
        assert_reads_identical(sharded, single)

    def test_identical_after_split_and_merge(self, tmp_path):
        sharded, single = build_pair(tmp_path)
        sharded.split(1)
        assert_reads_identical(sharded, single)
        sharded.merge(0)
        assert_reads_identical(sharded, single)

    def test_identical_after_reopen(self, tmp_path):
        sharded, single = build_pair(tmp_path)
        reopened = ShardedStore(tmp_path / "sharded", SHAPE, "LINEAR")
        assert_reads_identical(reopened, single)

    def test_identical_with_parallel_reads(self, tmp_path):
        sharded, single = build_pair(tmp_path)
        rng = np.random.default_rng(11)
        q = np.column_stack(
            [rng.integers(0, m, size=100) for m in SHAPE]
        ).astype(np.uint64)
        a = sharded.read_points(q, options=ReadOptions(parallel="thread"))
        b = single.read_points(q)
        assert np.array_equal(a.found, b.found)
        assert np.array_equal(a.values, b.values)

    def test_empty_store_reads(self, tmp_path):
        sharded = ShardedStore(tmp_path / "s", SHAPE, "LINEAR")
        out = sharded.read_points(np.zeros((4, 3), dtype=np.uint64))
        assert not out.found.any()
        t = sharded.read_box(Box((0, 0, 0), SHAPE))
        assert t.nnz == 0


class TestCompaction:
    def test_compact_merges_each_shard_to_one_fragment(self, tmp_path):
        sharded, _ = build_pair(tmp_path)
        before = len(sharded.fragments)
        assert before > len(sharded.shards)
        sharded.compact()
        for row in sharded.stats():
            if row["nnz"]:
                assert row["fragments"] == 1

    def test_compact_skips_single_fragment_shards(self, tmp_path):
        sharded, _ = build_pair(tmp_path)
        sharded.compact()
        gens = [s["generation"] for s in sharded.stats()]
        receipts = sharded.compact()       # everything already compacted
        assert receipts == []
        assert [s["generation"] for s in sharded.stats()] == gens

    def test_compact_max_workers(self, tmp_path):
        sharded, single = build_pair(tmp_path)
        sharded.compact(max_workers=2)
        assert_reads_identical(sharded, single)


class TestSplitMerge:
    def test_split_halves_the_band(self, tmp_path):
        sharded, _ = build_pair(tmp_path)
        entry = sharded.shards[0]
        lo, hi, nnz = entry.addr_lo, entry.addr_hi, sharded.stats()[0]["nnz"]
        sharded.split(0)
        a, b = sharded.shards[0], sharded.shards[1]
        assert a.addr_lo == lo and b.addr_hi == hi and a.addr_hi == b.addr_lo
        a_nnz, b_nnz = (row["nnz"] for row in sharded.stats()[:2])
        # The split rewrite merges fragments, so duplicates collapse.
        assert 0 < a_nnz + b_nnz <= nnz
        assert a_nnz > 0 and b_nnz > 0   # median split puts data both sides

    def test_split_at_explicit_address(self, tmp_path):
        sharded, _ = build_pair(tmp_path)
        entry = sharded.shards[0]
        at = entry.addr_lo + (entry.addr_hi - entry.addr_lo) // 3
        sharded.split(0, at=at)
        assert sharded.shards[0].addr_hi == at

    def test_split_rejects_out_of_band_cut(self, tmp_path):
        sharded, _ = build_pair(tmp_path)
        with pytest.raises(ValueError):
            sharded.split(0, at=sharded.shards[0].addr_hi + 10)

    def test_split_removes_old_directory(self, tmp_path):
        sharded, _ = build_pair(tmp_path)
        old = sharded.shards[0].path
        sharded.split(0)
        assert not old.exists()
        assert fsck_sharded(sharded.directory).clean

    def test_merge_joins_neighbours(self, tmp_path):
        sharded, _ = build_pair(tmp_path)
        a, b = sharded.shards[0], sharded.shards[1]
        a_row, b_row = sharded.stats()[:2]
        n_before = len(sharded.shards)
        sharded.merge(0)
        merged = sharded.shards[0]
        assert merged.addr_lo == a.addr_lo and merged.addr_hi == b.addr_hi
        assert sharded.stats()[0]["nnz"] == a_row["nnz"] + b_row["nnz"]
        assert len(sharded.shards) == n_before - 1
        assert fsck_sharded(sharded.directory).clean

    def test_merge_needs_right_neighbour(self, tmp_path):
        sharded, _ = build_pair(tmp_path)
        with pytest.raises(ValueError):
            sharded.merge(len(sharded.shards) - 1)

    def test_auto_split_on_threshold(self, tmp_path):
        store = ShardedStore(tmp_path / "s", SHAPE, "LINEAR", n_shards=2,
                             split_nnz=100)
        coords, values = make_parts(n_parts=1, n=600)[0]
        store.write(coords, values)
        assert len(store.shards) > 2
        for e, row in zip(store.shards, store.stats()):
            # Post-split every shard is at/below threshold (or unsplittable).
            assert row["nnz"] <= 100 or e.addr_hi - e.addr_lo <= 1

    def test_auto_merge_on_threshold(self, tmp_path):
        store = ShardedStore(tmp_path / "s", SHAPE, "LINEAR", n_shards=4,
                             merge_nnz=5)
        coords = np.column_stack([
            np.zeros(3, dtype=np.uint64),
            np.zeros(3, dtype=np.uint64),
            np.arange(3, dtype=np.uint64),
        ])
        store.write(coords, np.ones(3))
        # Every adjacent pair is under threshold -> collapse to one shard.
        assert len(store.shards) == 1


class TestRebandingLifecycle:
    def test_split_merge_and_fsck_leave_no_packer_threads(self, tmp_path):
        before = set(threading.enumerate())
        store = ShardedStore(
            tmp_path / "s", (16, 16), "LINEAR", n_shards=2,
            options=StoreOptions(wal_pack_interval=0.05),
        )
        coords = np.array([[1, 1], [2, 2], [3, 3], [9, 9]], dtype=np.uint64)
        store.write(coords, np.arange(4.0))
        store.split(0)
        store.merge(0)
        store.read_points(coords)  # opens every band's child
        store.fsck(repair=True)    # drops (and must close) the children
        store.close()
        leaked = [
            t.name for t in set(threading.enumerate()) - before
            if t.name.startswith("wal-packer:")
        ]
        assert leaked == []

    @pytest.mark.parametrize("op", ["split", "merge"])
    def test_unpacked_tail_moves_with_the_band(self, tmp_path, op):
        store = ShardedStore(tmp_path / "s", (16, 16), "LINEAR", n_shards=2)
        store.write(
            np.array([[1, 1], [2, 2], [3, 3]], dtype=np.uint64), np.ones(3)
        )
        tail = np.array([[1, 5], [2, 6]], dtype=np.uint64)
        store.append(tail, np.array([7.0, 8.0]))
        getattr(store, op)(0)
        store.close()
        reopened = ShardedStore(tmp_path / "s", (16, 16), "LINEAR")
        out = reopened.read_points(tail)
        assert out.found.all() and np.array_equal(out.values, [7.0, 8.0])
        reopened.close()


class TestReopenAdoptsCodec:
    """``codec=None`` on reopen adopts the parent manifest's codec, as
    :class:`FragmentStore` adopts its own manifest's."""

    @pytest.mark.parametrize("codec, recorded, written", [
        ("cascade", "cascade", "cascade"),
        (None, None, "raw"),  # a fresh store records null; bands write raw
    ])
    def test_reopen_keeps_codec_through_split(self, tmp_path, codec,
                                              recorded, written):
        store = ShardedStore(tmp_path / "s", SHAPE, "LINEAR", n_shards=2,
                             options=StoreOptions(codec=codec))
        for coords, values in make_parts():
            store.write(coords, values)
        store.close()

        reopened = ShardedStore(tmp_path / "s", SHAPE, "LINEAR")
        assert reopened.compression_stats()["codec"] == written
        reopened.split(0)  # commits the parent, writes two new bands
        parent = json.loads(
            (reopened.directory / SHARD_MANIFEST_NAME).read_text()
        )
        assert parent["codec"] == recorded
        for entry in reopened.shards:
            child = json.loads((entry.path / "manifest.json").read_text())
            assert child["codec"] == written


class TestFsckSharded:
    def test_clean_tree(self, tmp_path):
        sharded, _ = build_pair(tmp_path)
        report = sharded.fsck()
        assert report.clean
        assert report.checked > 0

    def test_orphan_shard_dir_quarantined(self, tmp_path):
        sharded, _ = build_pair(tmp_path)
        orphan = sharded.directory / "shard-9999"
        orphan.mkdir()
        (orphan / SHARD_RANGE_NAME).write_text(
            json.dumps({"addr_lo": 0, "addr_hi": 1, "epoch": 99})
        )
        report = fsck_sharded(sharded.directory)
        assert any(i.kind == "extra" for i in report.issues)
        report = fsck_sharded(sharded.directory, repair=True)
        assert any(i.repaired == "quarantined" for i in report.issues)
        assert not orphan.exists()
        assert fsck_sharded(sharded.directory).clean

    def test_missing_shard_dir_recreated_empty(self, tmp_path):
        import shutil

        sharded, _ = build_pair(tmp_path)
        victim = sharded.shards[1]
        shutil.rmtree(victim.path)
        report = fsck_sharded(sharded.directory)
        assert not report.clean
        assert any(i.kind == "missing" for i in report.issues)
        report = fsck_sharded(sharded.directory, repair=True)
        assert any(i.kind == "missing" for i in report.issues)
        # Coverage survives: the store reopens, the band reads empty.
        reopened = ShardedStore(tmp_path / "sharded", SHAPE, "LINEAR")
        assert reopened.stats()[1]["nnz"] == 0
        assert fsck_sharded(sharded.directory).clean

    def test_lost_parent_manifest_rebuilt(self, tmp_path):
        sharded, single = build_pair(tmp_path)
        nnz = sharded.nnz
        (sharded.directory / SHARD_MANIFEST_NAME).unlink()
        with pytest.raises(ManifestError):
            ShardedStore(tmp_path / "sharded", SHAPE, "LINEAR")
        report = fsck_sharded(sharded.directory, repair=True)
        assert report.repaired
        reopened = ShardedStore(tmp_path / "sharded", SHAPE, "LINEAR")
        assert reopened.nnz == nnz
        assert_reads_identical(reopened, single)

    def test_corrupt_parent_manifest_rebuilt(self, tmp_path):
        sharded, single = build_pair(tmp_path)
        (sharded.directory / SHARD_MANIFEST_NAME).write_text("{ not json")
        with pytest.raises(ManifestError):
            ShardedStore(tmp_path / "sharded", SHAPE, "LINEAR")
        fsck_sharded(sharded.directory, repair=True)
        reopened = ShardedStore(tmp_path / "sharded", SHAPE, "LINEAR")
        assert_reads_identical(reopened, single)

    def test_repair_refreshes_band_stats(self, tmp_path):
        """A rebuilt parent is the band table alone; the per-shard
        counts, read from the child stores, come through unchanged."""
        sharded, _ = build_pair(tmp_path)
        expect = [(r["shard"], r["nnz"]) for r in sharded.stats()]
        (sharded.directory / SHARD_MANIFEST_NAME).unlink()
        fsck_sharded(sharded.directory, repair=True)
        reopened = ShardedStore(tmp_path / "sharded", SHAPE, "LINEAR")
        assert [(r["shard"], r["nnz"]) for r in reopened.stats()] == expect
        parent = json.loads(
            (sharded.directory / SHARD_MANIFEST_NAME).read_text()
        )
        for band in parent["bands"]:
            assert set(band) == {"dir", "addr_lo", "addr_hi", "epoch"}

    def test_stale_parent_tmp_cleaned(self, tmp_path):
        sharded, _ = build_pair(tmp_path)
        (sharded.directory / "shards.json.tmp").write_bytes(b"torn")
        report = fsck_sharded(sharded.directory, repair=True)
        assert any(i.kind == "tmp" and i.repaired == "deleted"
                   for i in report.issues)
        assert fsck_sharded(sharded.directory).clean

    def test_child_issue_reported_with_prefix(self, tmp_path):
        sharded, _ = build_pair(tmp_path)
        victim = sharded.shards[0]
        frag = next(victim.path.glob("frag-*.bin"))
        frag.write_bytes(b"garbage")
        report = fsck_sharded(sharded.directory)
        bad = [i for i in report.issues if i.name.startswith(victim.name)]
        assert bad


class TestStats:
    def test_rows(self, tmp_path):
        sharded, _ = build_pair(tmp_path)
        rows = sharded.stats()
        assert len(rows) == len(sharded.shards)
        assert sum(r["nnz"] for r in rows) == sharded.nnz
        for row in rows:
            assert set(row) == {"shard", "addr_lo", "addr_hi", "nnz",
                                "fragments", "nbytes", "generation"}

    def test_counters(self, tmp_path):
        from repro import obs

        obs.reset()
        sharded, _ = build_pair(tmp_path)
        rng = np.random.default_rng(5)
        q = np.column_stack(
            [rng.integers(0, m, size=50) for m in SHAPE]
        ).astype(np.uint64)
        sharded.read_points(q)
        counters = {
            c["name"]: c["value"] for c in obs.snapshot()["counters"]
        }
        assert counters.get("store.shard.routed_parts", 0) > 0
        assert counters.get("store.shard.visited", 0) > 0
