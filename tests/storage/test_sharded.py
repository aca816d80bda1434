"""ShardedStore: banding, routing, re-banding, and differential reads.

A ShardedStore is one FragmentStore whose manifest carries a band table.
The differential classes pin the headline contract: a ShardedStore and a
single FragmentStore fed the same writes return **bit-identical** results
for every format, planner on or off, before and after compaction and
re-banding.
"""

import json
import threading

import numpy as np
import pytest

from repro import Box, SparseTensor, StoreOptions, available_formats
from repro.core.errors import ManifestError, ShapeError
from repro.storage import FragmentStore, ShardedStore, fsck
from repro.storage.durability import LEGACY_SHARDS_NAME, load_manifest
from repro.testing.faults import OpRecorder, inject

from ..conftest import read_as
from .test_wal import _open_fds_under, needs_proc_fd

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


def committed(directory) -> dict:
    """The store's committed manifest, log replayed."""
    return load_manifest(directory).doc


def band_marks(store) -> list:
    """Each live fragment's header band mark."""
    from repro.storage.fragment import load_fragment

    return [load_fragment(f.path).extra.get("band") for f in store.fragments]


def commits(events) -> int:
    """Manifest commits among recorded ops: log appends + checkpoints."""
    return sum(
        (e.op == "write" and e.path.name == "manifest.log")
        or (e.op == "rename" and e.path.name == "manifest.json")
        for e in events
    )


def build_legacy(directory, shape, fmt="LINEAR", *, n_bands=2, parts=(),
                 appends=(), addr_order="row_major", stats_keys=False):
    """A directory in the layout ``ShardedStore`` wrote before its fold
    into one store: ``shards.json`` over one child ``FragmentStore`` per
    band in ``shard-NNNN/``, each with its ``range.json``; the parts are
    routed to the bands, and ``appends`` stay unpacked in the WAL."""
    from repro.core.linearize import address_space_size, linearize_order

    directory.mkdir(parents=True)
    cells = address_space_size(shape, addr_order)
    cuts = [cells * i // n_bands for i in range(n_bands + 1)]
    opts = StoreOptions(addr_order=addr_order)
    children, bands = [], []
    for i, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        name = f"shard-{i:04d}"
        children.append(FragmentStore(directory / name, shape, fmt,
                                      options=opts))
        sidecar = {"addr_lo": lo, "addr_hi": hi, "epoch": 1,
                   "shape": list(shape)}
        (directory / name / "range.json").write_text(json.dumps(sidecar))
        band = {"dir": name, "addr_lo": lo, "addr_hi": hi, "epoch": 1}
        if stats_keys:
            band.update(nnz=1, bbox_origin=[0] * len(shape),
                        bbox_size=[1] * len(shape))
        bands.append(band)
    for method, batches in (("write", parts), ("append", appends)):
        for coords, values in batches:
            coords = np.asarray(coords, dtype=np.uint64)
            addrs = linearize_order(coords, shape, addr_order)
            for child, lo, hi in zip(children, cuts, cuts[1:]):
                mask = (addrs >= lo) & (addrs < hi)
                if mask.any():
                    getattr(child, method)(coords[mask], values[mask])
    for child in children:
        child.close()
    doc = {"version": 1, "generation": 1, "shape": list(shape),
           "format": fmt, "codec": None, "bands": bands}
    if addr_order != "row_major":
        doc["addr_order"] = addr_order
    (directory / LEGACY_SHARDS_NAME).write_text(json.dumps(doc))


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

    def test_band_table_lives_in_the_manifest(self, tmp_path):
        """The interior edges are the manifest's ``"bands"``, committed
        with the store's first checkpoint; no directory or sidecar is
        written per band."""
        store = ShardedStore(tmp_path / "s", SHAPE, "LINEAR", n_shards=3)
        doc = json.loads((store.directory / "manifest.json").read_text())
        assert doc["bands"] == [e.addr_lo for e in store.shards[1:]]
        assert sorted(p.name for p in store.directory.iterdir()) == [
            "manifest.json", "manifest.log",
        ]

    def test_reopen_adopts_committed_bands(self, tmp_path):
        store = ShardedStore(tmp_path / "s", SHAPE, "LINEAR", n_shards=4)
        names = [e.name for e in store.shards]
        store.split(0, at=100)
        store.close()
        # n_shards is ignored on reopen; the committed table wins.
        again = ShardedStore(tmp_path / "s", SHAPE, "LINEAR", n_shards=9)
        assert again.shards[0].addr_hi == 100
        assert len(again.shards) == len(names) + 1

    def test_parent_with_old_stats_keys_opens_unchanged(self, tmp_path):
        """A legacy ``shards.json`` whose bands still carry per-shard
        stats keys converts like any other: the keys are ignored."""
        parts = make_parts()
        build_legacy(tmp_path / "legacy", SHAPE, n_bands=4, parts=parts,
                     stats_keys=True)
        single = FragmentStore(tmp_path / "single", SHAPE, "LINEAR")
        for coords, values in parts:
            single.write(coords, values)
        reopened = ShardedStore(tmp_path / "legacy", SHAPE, "LINEAR")
        assert len(reopened.shards) == 4
        assert_reads_identical(reopened, single)
        reopened.split(0)
        assert_reads_identical(reopened, single)

    def test_rejects_relative_coords(self, tmp_path):
        with pytest.raises(ShapeError):
            ShardedStore(tmp_path / "s", SHAPE, "LINEAR",
                         options=StoreOptions(relative_coords=True))

    def test_rejects_bad_shard_count(self, tmp_path):
        with pytest.raises(ValueError):
            ShardedStore(tmp_path / "s", SHAPE, "LINEAR", n_shards=0)

    def test_is_sharded_dir(self, tmp_path):
        """A banded directory is one whose manifest has ``"bands"``; a
        plain FragmentStore refuses it, and a one-band store writes no
        band key."""
        ShardedStore(tmp_path / "s", SHAPE, "LINEAR").close()
        FragmentStore(tmp_path / "f", SHAPE, "LINEAR").close()
        ShardedStore(tmp_path / "one", SHAPE, "LINEAR", n_shards=1).close()
        assert committed(tmp_path / "s")["bands"]
        assert "bands" not in committed(tmp_path / "f")
        assert "bands" not in committed(tmp_path / "one")
        with pytest.raises(ManifestError, match="ShardedStore"):
            FragmentStore(tmp_path / "s", SHAPE, "LINEAR")


class TestRouting:
    def test_write_routes_each_point_to_exactly_one_shard(self, tmp_path):
        store = ShardedStore(tmp_path / "s", SHAPE, "LINEAR", n_shards=4)
        coords, values = make_parts(n_parts=1, n=500)[0]
        store.write(coords, values)
        # No cross-band duplication: per-band nnz sums to the part size
        # (duplicates counted, same as a single FragmentStore).
        assert store.nnz == coords.shape[0]
        assert sum(r["nnz"] for r in store.stats()) == coords.shape[0]
        # ...and every fragment holds only addresses inside its band,
        # which its header records.
        for entry, mark, frag in zip(store.shards, band_marks(store),
                                     store.fragments):
            assert mark == [entry.addr_lo, entry.addr_hi]
            assert entry.addr_lo <= frag.zone.addr_min
            assert frag.zone.addr_max < entry.addr_hi

    def test_parent_stats_track_writes(self, tmp_path):
        """Per-band stats come from the manifest's fragments; a routed
        write leaves the band table alone."""
        store = ShardedStore(tmp_path / "s", SHAPE, "LINEAR", n_shards=4)
        bands = store.shards
        coords, values = make_parts(n_parts=1)[0]
        store.write(coords, values)
        assert store.shards == bands
        rows = store.stats()
        assert all(row["nnz"] for row in rows)
        for row in rows:
            assert row["fragments"] == 1
            assert row["generation"] == store.generation
        for frag in store.fragments:
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
        """There is no parent manifest: routed writes, appends, packs,
        compactions and migrations commit the one store manifest, write
        no ``shards.json``, and leave the band table as it is."""
        store = ShardedStore(tmp_path / "s", SHAPE, "LINEAR", n_shards=4)
        bands = store.shards
        parts = make_parts(n_parts=3)
        recorder = OpRecorder()
        with inject(recorder):
            store.write(*parts[0])
            store.write_many(parts[1:2])
            store.append(*parts[2])
            store.pack_wal()
            store.compact()
            store.migrate_all("COO")
        assert recorder.events
        assert not any(e.path.name.startswith(LEGACY_SHARDS_NAME)
                       for e in recorder.events)
        assert {e.path.parent for e in recorder.events} <= {
            store.directory, store.directory / "wal",
        }
        assert store.shards == bands

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
        assert sum(len(receipts) for receipts in out) == len(store.fragments)

    def test_write_tensor(self, tmp_path):
        store = ShardedStore(tmp_path / "s", SHAPE, "LINEAR")
        coords, values = make_parts(n_parts=1)[0]
        store.write_tensor(SparseTensor(SHAPE, coords, values))
        assert store.nnz > 0


class TestOneCommitPerMutation:
    """Every mutation that spans bands is one manifest commit: one log
    record or one checkpoint."""

    @pytest.mark.parametrize("op", [
        "write", "write_many", "pack_wal", "compact", "split", "merge",
    ])
    def test_one_commit(self, tmp_path, op):
        store = ShardedStore(tmp_path / "s", (16, 16), "LINEAR", n_shards=2)
        low = np.array([[1, 1], [3, 3]], dtype=np.uint64)
        high = np.array([[9, 9], [12, 2]], dtype=np.uint64)
        both = np.vstack([low, high])
        store.write(both, np.arange(4.0))
        store.write(both, np.arange(4.0) + 10)
        if op == "pack_wal":
            store.append(both, np.ones(4))
        calls = {
            "write": lambda: store.write(both, np.ones(4)),
            "write_many": lambda: store.write_many(
                [(low, np.ones(2)), (high, np.ones(2)), (both, np.ones(4))]
            ),
            "pack_wal": store.pack_wal,
            "compact": store.compact,
            "split": lambda: store.split(0),
            "merge": lambda: store.merge(0),
        }
        recorder = OpRecorder()
        with inject(recorder):
            out = calls[op]()
        assert commits(recorder.events) == 1
        if op in ("write", "pack_wal", "compact"):
            assert len(out) == 2  # one fragment per band, one commit
        oracle = {(1, 1): 10.0, (3, 3): 11.0, (9, 9): 12.0, (12, 2): 13.0}
        if op in ("write", "write_many", "pack_wal"):
            oracle = dict.fromkeys(oracle, 1.0)
        got = store.read_points(both)
        assert got.found.all()
        assert got.values.tolist() == [oracle[tuple(c)] for c in
                                        both.tolist()]


class TestBandRouting:
    """The planner's zone maps prune whole bands: a read visits only the
    fragments of the bands its keys or box intervals fall in."""

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
        entry = sharded.shards[band]
        plan = sharded.explain(box)
        assert plan.fragments
        for frag in plan.fragments:
            assert entry.addr_lo <= frag.zone.addr_min
            assert frag.zone.addr_max < entry.addr_hi

        def counter(name):
            return {c["name"]: c["value"]
                    for c in obs.snapshot()["counters"]}.get(name, 0)

        visited = counter("store.fragments_visited")
        got = sharded.read_box(box)
        assert counter("store.fragments_visited") == visited + len(
            plan.fragments
        )
        want = single.read_box(box)
        assert want.nnz > 0
        assert np.array_equal(got.coords, want.coords)
        assert np.array_equal(got.values, want.values)


    @pytest.mark.parametrize("order", ["row_major", "alto"])
    def test_reads_at_band_edges(self, tmp_path, order):
        """The last cell of each band and the first of the next land in
        their own bands and read back, as points and as one-cell boxes."""
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
        assert len(sharded.fragments) == 4
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
        store.write(make_parts(n_parts=1)[0][0], np.ones(300))
        plan = store.explain(Box((0, 0, 0), (1, 1, 24)))
        # Only band 0 can hold row 0: the other bands' fragments prune.
        assert plan.total_fragments == 5
        first = store.shards[0]
        assert plan.fragments
        for frag in plan.fragments:
            assert first.addr_lo <= frag.zone.addr_min < first.addr_hi

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
        """Two concurrent callers read what a single store reads."""
        sharded, single = build_pair(tmp_path)
        rng = np.random.default_rng(11)
        q = np.column_stack(
            [rng.integers(0, m, size=100) for m in SHAPE]
        ).astype(np.uint64)
        a = read_as("thread", lambda: sharded.read_points(q))
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
        assert band_marks(sharded) == [
            [e.addr_lo, e.addr_hi] for e in sharded.shards
        ]

    def test_compact_skips_single_fragment_shards(self, tmp_path):
        sharded, _ = build_pair(tmp_path)
        sharded.compact()
        gen = sharded.generation
        receipts = sharded.compact()       # everything already compacted
        assert receipts == []
        assert sharded.generation == gen

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
        """A split retires the band's old fragments: with no retention
        their files are deleted after the commit, and fsck finds the
        store clean."""
        sharded, _ = build_pair(tmp_path)
        old = [f.path for f in sharded._band_fragments()[0]]
        sharded.split(0)
        assert old and not any(path.exists() for path in old)
        assert fsck(sharded.directory).clean

    def test_merge_joins_neighbours(self, tmp_path):
        sharded, _ = build_pair(tmp_path)
        a, b = sharded.shards[0], sharded.shards[1]
        a_row, b_row = sharded.stats()[:2]
        n_before = len(sharded.shards)
        sharded.merge(0)
        merged = sharded.shards[0]
        assert merged.addr_lo == a.addr_lo and merged.addr_hi == b.addr_hi
        # The merge rewrites both bands into one fragment, newest-wins.
        assert 0 < sharded.stats()[0]["nnz"] <= a_row["nnz"] + b_row["nnz"]
        assert sharded.stats()[0]["fragments"] == 1
        assert len(sharded.shards) == n_before - 1
        assert fsck(sharded.directory).clean

    @pytest.mark.parametrize("op", ["split", "merge"])
    def test_failed_rebanding_keeps_the_table(self, tmp_path, op):
        """A split or merge whose fragment write fails commits nothing:
        the table, the fragments and the reads stay as they were."""
        from repro.testing.faults import FaultPlan, FaultRule

        sharded, single = build_pair(tmp_path)
        bands, names = sharded.shards, [f.path.name for f in sharded.fragments]
        plan = FaultPlan([FaultRule(op="rename", pattern="frag-*")])
        with inject(plan), pytest.raises(OSError):
            getattr(sharded, op)(0)
        assert sharded.shards == bands
        assert [f.path.name for f in sharded.fragments] == names
        sharded.write(*make_parts(seed=9, n_parts=1)[0])
        single.write(*make_parts(seed=9, n_parts=1)[0])
        reopened = ShardedStore(tmp_path / "sharded", SHAPE, "LINEAR")
        assert reopened.shards == bands
        assert_reads_identical(reopened, single)

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
            # Post-split every band is at/below threshold (or unsplittable).
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
        # Every adjacent pair is under threshold -> collapse to one band.
        assert len(store.shards) == 1
        assert "bands" not in committed(store.directory)


class TestRebandingLifecycle:
    @needs_proc_fd
    def test_split_merge_and_fsck_leave_no_packer_threads(self, tmp_path):
        """A banded store is one store: after ``split``, ``merge`` and
        ``fsck`` its ``close()`` leaves no descriptor open under it and no
        thread it started."""
        before = set(threading.enumerate())
        store = ShardedStore(tmp_path / "s", (16, 16), "LINEAR", n_shards=2)
        coords = np.array([[1, 1], [2, 2], [3, 3], [9, 9]], dtype=np.uint64)
        store.write(coords, np.arange(4.0))
        store.write(coords, np.arange(4.0) + 1)  # opens the manifest log
        store.append(coords[:2], np.ones(2))     # opens a WAL segment
        assert _open_fds_under(tmp_path) >= 2
        store.split(0)
        store.merge(0)
        store.read_points(coords)
        store.append(coords, np.ones(4))
        store.fsck(repair=True)
        store.close()
        assert _open_fds_under(tmp_path) == 0
        started = [t for t in set(threading.enumerate()) - before
                   if not t.name.startswith("repro-read")]
        assert started == []

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

    @pytest.mark.parametrize("op", ["split", "merge"])
    def test_snapshot_survives_rebanding(self, tmp_path, op):
        """A snapshot keeps reading across a split or merge: the old
        fragments retire, and its pin keeps their files."""
        store = ShardedStore(tmp_path / "s", (8, 6), "LINEAR", n_shards=2)
        cell = np.array([[0, 1]], dtype=np.uint64)
        store.write(cell, np.array([1.0]))
        snap = store.snapshot()
        if op == "split":
            store.split(0, at=3)
        else:
            store.merge(0)
        store.write(cell, np.array([2.0]))
        assert snap.read_points(cell).values.tolist() == [1.0]
        assert store.read_points(cell).values.tolist() == [2.0]
        snap.close()
        store.gc()
        assert store.read_points(cell).values.tolist() == [2.0]

    def test_snapshot_generation_time_travel(self, tmp_path):
        store = ShardedStore(tmp_path / "s", (8, 6), "LINEAR", n_shards=2,
                             options=StoreOptions(retain_generations=8))
        cells = np.array([[0, 1], [6, 5]], dtype=np.uint64)
        store.write(cells, np.array([1.0, 2.0]))
        gen = store.generation
        store.write(cells, np.array([3.0, 4.0]))
        store.merge(0)
        with store.snapshot(generation=gen) as snap:
            assert type(snap).__name__ == "StoreSnapshot"
            assert snap.read_points(cells).values.tolist() == [1.0, 2.0]
        assert store.read_points(cells).values.tolist() == [3.0, 4.0]

    def test_set_addr_order_rejected_with_bands(self, tmp_path):
        store = ShardedStore(tmp_path / "s", (8, 6), "LINEAR", n_shards=2)
        with pytest.raises(ValueError):
            store.set_addr_order("alto")
        store.merge(0)
        store.set_addr_order("alto")
        assert store.addr_order == "alto"


class TestReopenAdoptsCodec:
    """``codec=None`` on reopen adopts the manifest's codec, as
    :class:`FragmentStore` does."""

    @pytest.mark.parametrize("codec, reopen_codec, written", [
        ("cascade", "cascade", "cascade"),
        (None, None, "raw"),  # a fresh store records raw; None adopts it
    ])
    def test_reopen_keeps_codec_through_split(self, tmp_path, codec,
                                              reopen_codec, written):
        store = ShardedStore(tmp_path / "s", SHAPE, "LINEAR", n_shards=2,
                             options=StoreOptions(codec=codec))
        for coords, values in make_parts():
            store.write(coords, values)
        store.close()

        reopened = ShardedStore(tmp_path / "s", SHAPE, "LINEAR",
                                options=StoreOptions(codec=reopen_codec))
        assert reopened.compression_stats()["codec"] == written
        reopened.split(0)  # rewrites band 0 into two bands
        assert committed(reopened.directory)["codec"] == written
        assert reopened.codec == written


class TestFsckSharded:
    def test_clean_tree(self, tmp_path):
        sharded, _ = build_pair(tmp_path)
        report = sharded.fsck()
        assert report.clean
        assert report.checked > 0

    def test_orphan_shard_dir_quarantined(self, tmp_path):
        """A split output whose commit never landed claims a band the
        committed table lacks: fsck quarantines it, never recovers it."""
        from repro.testing.faults import CrashPlan, FaultRule

        sharded, single = build_pair(tmp_path)
        listed = {f.path.name for f in sharded.fragments}
        plan = CrashPlan([FaultRule(op="write", pattern="manifest.log")])
        with inject(plan), pytest.raises(OSError):
            sharded.split(0)
        orphans = {
            p.name for p in sharded.directory.glob("frag-*.bin")
        } - listed
        assert len(orphans) == 2
        report = fsck(sharded.directory)
        assert orphans <= {i.name for i in report.issues if i.kind == "extra"}
        report = fsck(sharded.directory, repair=True)
        assert {i.name for i in report.issues
                if i.repaired == "quarantined"} >= orphans
        assert fsck(sharded.directory).clean
        reopened = ShardedStore(tmp_path / "sharded", SHAPE, "LINEAR")
        assert len(reopened.shards) == 4
        assert_reads_identical(reopened, single)

    def test_missing_shard_dir_recreated_empty(self, tmp_path):
        """A band's missing fragment file is dropped by the repair; the
        band table stays and the band reads empty."""
        sharded, _ = build_pair(tmp_path)
        sharded.compact()
        victim = sharded._band_fragments()[1][0]
        sharded.close()
        victim.path.unlink()
        report = fsck(sharded.directory)
        assert any(i.kind == "missing" for i in report.issues)
        fsck(sharded.directory, repair=True)
        reopened = ShardedStore(tmp_path / "sharded", SHAPE, "LINEAR")
        assert len(reopened.shards) == 4
        assert reopened.stats()[1]["nnz"] == 0
        assert fsck(sharded.directory).clean

    def test_lost_parent_manifest_rebuilt(self, tmp_path):
        """Without ``manifest.json`` and ``manifest.log`` the reopen
        rebuilds the band table from the fragments' band marks."""
        sharded, single = build_pair(tmp_path)
        nnz, bands = sharded.nnz, sharded.shards
        sharded.close()
        for name in ("manifest.json", "manifest.log"):
            (sharded.directory / name).unlink()
        reopened = ShardedStore(tmp_path / "sharded", SHAPE, "LINEAR")
        assert reopened.nnz == nnz
        assert reopened.shards == bands
        assert_reads_identical(reopened, single)

    def test_rebuild_keeps_a_write_whose_last_piece_was_rewritten(
        self, tmp_path
    ):
        """A band's split may retire the last file of a routed commit
        whose other piece lives on in another band; the split's newer
        output vouches that the commit finished, so a rebuild keeps the
        other piece (found by the lifecycle model)."""
        store = ShardedStore(tmp_path / "s", (8, 6), "LINEAR", n_shards=2)
        high, low = np.array([[4, 0]], np.uint64), np.array([[0, 0], [0, 1]],
                                                           np.uint64)
        store.write_many([(high, np.ones(1)), (low, np.ones(2) * 2)])
        store.split(0)  # rewrites the low piece, the commit's last file
        before = [f.path.name for f in store.fragments]
        store.close()
        for name in ("manifest.json", "manifest.log"):
            (tmp_path / "s" / name).unlink()
        reopened = ShardedStore(tmp_path / "s", (8, 6), "LINEAR")
        assert [f.path.name for f in reopened.fragments] == before
        assert len(reopened.shards) == 3
        assert reopened.read_points(np.vstack([high, low])).values.tolist() \
            == [1.0, 2.0, 2.0]

    @pytest.mark.filterwarnings("ignore:.*rebuilt it:UserWarning")
    def test_rebuild_after_splitting_a_split_half(self, tmp_path):
        """A split's halves cover less than the band it rewrote; when a
        later split rewrites a half, the first split's outputs still
        supersede the band's original fragment, retained or not (found by
        the lifecycle model)."""
        opts = StoreOptions(addr_order="alto", retain_generations=2)
        store = ShardedStore(tmp_path / "s", (8, 6), "LINEAR", n_shards=2,
                             options=opts)
        cells = np.array([[0, 0], [0, 1], [0, 2], [0, 3]], np.uint64)
        store.write(cells, np.arange(1.0, 5.0))
        store.split(0)
        store.split(0)
        store.split(2)
        before = [f.path.name for f in store.fragments]
        store.close()
        for name in ("manifest.json", "manifest.log"):
            (tmp_path / "s" / name).unlink()
        reopened = ShardedStore(tmp_path / "s", (8, 6), "LINEAR",
                                options=opts)
        assert [f.path.name for f in reopened.fragments] == before
        assert reopened.read_points(cells).values.tolist() == [1, 2, 3, 4]

    def test_corrupt_parent_manifest_rebuilt(self, tmp_path):
        sharded, single = build_pair(tmp_path)
        sharded.close()
        (sharded.directory / "manifest.json").write_text("{ not json")
        with pytest.raises(ManifestError):
            ShardedStore(tmp_path / "sharded", SHAPE, "LINEAR")
        fsck(sharded.directory, repair=True)
        reopened = ShardedStore(tmp_path / "sharded", SHAPE, "LINEAR")
        assert len(reopened.shards) == 4
        assert_reads_identical(reopened, single)

    def test_repair_refreshes_band_stats(self, tmp_path):
        """A rebuilt table's per-band counts come through unchanged, and a
        band whose fragments are all gone merges into its neighbour."""
        sharded, _ = build_pair(tmp_path)
        sharded.compact()
        rows = [(r["addr_lo"], r["nnz"]) for r in sharded.stats()]
        gone = sharded._band_fragments()[0][0]
        sharded.close()
        for name in ("manifest.json", "manifest.log"):
            (sharded.directory / name).unlink()
        gone.path.unlink()
        reopened = ShardedStore(tmp_path / "sharded", SHAPE, "LINEAR")
        # Band 0 lost its one fragment: band 1 now starts at address 0.
        assert [(r["addr_lo"], r["nnz"]) for r in reopened.stats()] == [
            (0, rows[1][1]), *rows[2:],
        ]

    def test_stale_parent_tmp_cleaned(self, tmp_path):
        sharded, _ = build_pair(tmp_path)
        (sharded.directory / "manifest.json.tmp").write_bytes(b"torn")
        report = fsck(sharded.directory, repair=True)
        assert any(i.kind == "tmp" and i.repaired == "deleted"
                   for i in report.issues)
        assert fsck(sharded.directory).clean

    def test_child_issue_reported_with_prefix(self, tmp_path):
        """A corrupt fragment of one band is reported under its own file
        name (the store is one directory, so there is no band prefix)."""
        sharded, _ = build_pair(tmp_path)
        victim = sharded._band_fragments()[0][0]
        victim.path.write_bytes(b"garbage")
        report = fsck(sharded.directory)
        assert [i.name for i in report.issues if i.kind == "corrupt"] == [
            victim.path.name
        ]


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
        assert counters.get("store.shard.routed_parts", 0) == len(
            sharded.fragments
        )
        assert counters.get("store.fragments_visited", 0) > 0


class TestLegacyLayout:
    """A ``shards.json`` + ``shard-NNNN/`` directory converts in place on
    open: one checkpoint, then the legacy files go."""

    def build(self, directory, order="row_major"):
        rng = np.random.default_rng(4)
        parts = make_parts(seed=4)
        appends = [(
            rng.integers(0, 24, size=(50, 3)).astype(np.uint64),
            rng.random(50),
        )]
        build_legacy(directory, SHAPE, n_bands=3, parts=parts,
                     appends=appends, addr_order=order)
        oracle = FragmentStore(directory.parent / f"oracle-{order}", SHAPE,
                               "LINEAR", options=StoreOptions(addr_order=order))
        for coords, values in parts:
            oracle.write(coords, values)
        oracle.append(*appends[0])
        return oracle

    @pytest.mark.parametrize("order", ["row_major", "alto"])
    def test_opens_as_a_banded_store(self, tmp_path, order):
        oracle = self.build(tmp_path / "legacy", order)
        store = ShardedStore(tmp_path / "legacy", SHAPE, "LINEAR")
        assert store.addr_order == order
        assert len(store.shards) == 3
        assert len(store.fragments) == 3
        assert_reads_identical(store, oracle)
        left = {p.name for p in (tmp_path / "legacy").iterdir()}
        assert left == {"manifest.json", "manifest.log",
                        *(f.path.name for f in store.fragments)}
        assert fsck(tmp_path / "legacy").clean

    def test_plain_store_and_cli_refuse_it(self, tmp_path, capsys):
        from repro.cli import main

        self.build(tmp_path / "legacy")
        with pytest.raises(ManifestError, match="ShardedStore"):
            FragmentStore(tmp_path / "legacy", SHAPE, "LINEAR")
        for argv in (["fsck", str(tmp_path / "legacy")],
                     ["stats", "--store", str(tmp_path / "legacy")]):
            assert main(argv) == 1
            assert "opening it with ShardedStore converts it" in (
                capsys.readouterr().err
            )

    def test_fsck_refuses_it_and_writes_nothing(self, tmp_path):
        """fsck has no band table to check a legacy directory against: it
        refuses, so a repair never writes a root manifest that the next
        open would take for a finished conversion."""
        directory = tmp_path / "legacy"
        oracle = self.build(directory)
        tree = {p: p.read_bytes() for p in directory.rglob("*") if p.is_file()}
        for repair in (False, True):
            with pytest.raises(ManifestError, match="ShardedStore"):
                fsck(directory, repair=repair)
        assert {
            p: p.read_bytes() for p in directory.rglob("*") if p.is_file()
        } == tree
        assert_reads_identical(
            ShardedStore(directory, SHAPE, "LINEAR"), oracle
        )

    def test_children_without_band_table_raise(self, tmp_path):
        self.build(tmp_path / "legacy")
        (tmp_path / "legacy" / LEGACY_SHARDS_NAME).unlink()
        with pytest.raises(ManifestError, match=str(tmp_path / "legacy")):
            ShardedStore(tmp_path / "legacy", SHAPE, "LINEAR")
