"""ShardedStore crash-consistency: kill every commit op and recover.

A banded store is one FragmentStore whose manifest carries the band
table, so each workload here — a routed ``write_many``, ``split``,
``merge``, store creation, a legacy layout's conversion — is one
manifest commit.  Each is first run under
:class:`~repro.testing.faults.OpRecorder` to enumerate every
durability-layer op, then replayed once per op with a plan that kills
exactly that op.  The invariants (docs/SHARDED_STORE.md):

* reopening from disk always succeeds;
* a routed write is all-or-nothing across every band it touches, and a
  band-table change (split/merge) is too: the reopened store shows the
  old table and fragments or the new ones, never a mix;
* ``fsck --repair`` always restores a clean store without dropping a
  committed fragment, and reads afterwards still match a single
  FragmentStore fed the same writes.
"""

import warnings

import numpy as np
import pytest

from repro.storage import FragmentStore, ShardedStore, fsck
from repro.testing.faults import (
    CrashPlan,
    FaultRule,
    OpRecorder,
    inject,
    plan_for_crash_point,
)

from .test_sharded import build_legacy

SHAPE = (32, 32)  # 1024 cells; 2 bands cut at address 512 (row 16)
N_PARTS = 3

# A crash leaves uncommitted fragments that warn on open, by design.
pytestmark = pytest.mark.filterwarnings(
    "ignore:.*not in the manifest.*:UserWarning"
)


def part(j):
    """Part ``j``: 5 points on row ``j`` + 5 on row ``16+j``.

    Every part straddles both bands, and parts are pairwise disjoint, so
    which parts each band holds is directly observable.
    """
    rows = np.concatenate([
        np.full(5, j, dtype=np.uint64),
        np.full(5, 16 + j, dtype=np.uint64),
    ])
    cols = np.tile(np.arange(5, dtype=np.uint64), 2)
    values = float(j * 100) + np.arange(10, dtype=float)
    return np.column_stack([rows, cols]), values


def make_store(directory, **kw):
    return ShardedStore(directory, SHAPE, "LINEAR", n_shards=2, **kw)


def reopen(directory):
    with warnings.catch_warnings():
        # Uncommitted fragments warn on open, by design.
        warnings.simplefilter("ignore", UserWarning)
        return make_store(directory)


def make_single(directory, n_parts=N_PARTS):
    single = FragmentStore(directory, SHAPE, "LINEAR")
    for j in range(n_parts):
        single.write(*part(j))
    return single


def assert_shard_prefixes(store):
    """Each band holds a prefix of the parts, and both bands the same
    one: a routed write is whole or absent."""
    lower = []  # parts visible in the low band
    upper = []  # parts visible in the high band
    for j in range(N_PARTS):
        coords, values = part(j)
        out = store.read_points(coords)
        lo_found, hi_found = out.found[:5], out.found[5:]
        assert lo_found.all() or not lo_found.any(), \
            f"part {j} partially present in low band"
        assert hi_found.all() or not hi_found.any(), \
            f"part {j} partially present in high band"
        if lo_found.all():
            lower.append(j)
            lo_vals = out.values[: int(out.found[:5].sum())]
            assert np.allclose(lo_vals, values[:5])
        if hi_found.all():
            upper.append(j)
    assert lower == list(range(len(lower))), f"low band not a prefix: {lower}"
    assert upper == list(range(len(upper))), f"high band not a prefix: {upper}"
    assert lower == upper, f"a write in one band only: {lower} / {upper}"
    return lower, upper


def assert_matches_single(store, single, *, n_parts=N_PARTS):
    for j in range(n_parts):
        coords, values = part(j)
        a = store.read_points(coords)
        b = single.read_points(coords)
        assert np.array_equal(a.found, b.found)
        assert np.array_equal(a.values, b.values)


class TestCreationCrash:
    def record(self, tmp_path):
        recorder = OpRecorder()
        with inject(recorder):
            make_store(tmp_path / "record")
        return recorder.events

    def test_creation_ops(self, tmp_path):
        events = self.record(tmp_path)
        # One checkpoint commits the band table.
        assert [e.op for e in events] == ["write", "rename"]
        assert events[-1].path.name == "manifest.json"

    def test_every_creation_crash_recovers(self, tmp_path):
        events = self.record(tmp_path)
        for index in range(len(events)):
            directory = tmp_path / f"crash-{index}"
            plan = plan_for_crash_point(events, index)
            with inject(plan), pytest.raises(OSError):
                make_store(directory)
            assert plan.fired
            store = reopen(directory)
            # The recovered store covers the address space and works.
            assert store.shards[0].addr_lo == 0
            assert store.shards[-1].addr_hi == 32 * 32
            assert len(store.shards) == 2
            store.write(*part(0))
            assert store.read_points(part(0)[0]).found.all()


class TestRoutedWriteCrash:
    def record(self, tmp_path):
        store = make_store(tmp_path / "record")
        recorder = OpRecorder()
        with inject(recorder):
            store.write_many([part(j) for j in range(N_PARTS)])
        return recorder.events

    def run_crash(self, tmp_path, events, index):
        directory = tmp_path / f"crash-{index}"
        store = make_store(directory)
        plan = plan_for_crash_point(events, index)
        with inject(plan), pytest.raises(OSError):
            store.write_many([part(j) for j in range(N_PARTS)])
        assert plan.fired, "the planned fault never triggered"
        return directory

    def test_every_write_crash_recovers(self, tmp_path):
        events = self.record(tmp_path)
        single = make_single(tmp_path / "single")
        outcomes = []
        for index in range(len(events)):
            directory = self.run_crash(tmp_path, events, index)
            store = reopen(directory)
            # The one commit failed: nothing of the batch is listed.
            assert assert_shard_prefixes(store) == ([], [])
            report = fsck(directory, repair=True)
            assert report.repaired
            assert fsck(directory).clean
            repaired = reopen(directory)
            # Repair recovers a batch whose files were all written, and
            # never half of one.
            lower, _ = assert_shard_prefixes(repaired)
            outcomes.append(len(lower))
            # The store keeps working after recovery: re-write every
            # part and converge to the single-store state.
            repaired.write_many([part(j) for j in range(N_PARTS)])
            assert_matches_single(repaired, single)
        assert set(outcomes) == {0, N_PARTS}

    def test_crash_between_bands_is_whole(self, tmp_path):
        """A write of two cells that lie in two bands, killed at its 3rd
        durable op (the second band's fragment), reads as before it after
        the repair: its two fragments are one commit."""
        def build(directory):
            store = ShardedStore(directory, (8, 6), "LINEAR", n_shards=2)
            store.append(cells, np.array([1.0, 2.0]))
            store.pack_wal()
            store.split(0)  # cuts between the two cells
            return store

        cells = np.array([[0, 0], [0, 1]], dtype=np.uint64)
        recorder = OpRecorder()
        store = build(tmp_path / "record")
        with inject(recorder):
            store.write(cells, np.array([3.0, 4.0]))
        store = build(tmp_path / "crash")
        plan = plan_for_crash_point(recorder.events, 2)
        with inject(plan), pytest.raises(OSError):
            store.write(cells, np.array([3.0, 4.0]))
        store.fsck(repair=True)
        store.close()
        reopened = ShardedStore(tmp_path / "crash", (8, 6), "LINEAR")
        assert reopened.read_points(cells).values.tolist() in (
            [1.0, 2.0], [3.0, 4.0],
        )

    @pytest.mark.filterwarnings("ignore:.*rebuilt it:UserWarning")
    def test_torn_write_stays_torn_after_a_band_compaction(self, tmp_path):
        """A write of two cells in two bands, killed at its second band's
        fragment, leaves its first piece naming a last file that was
        never written.  The store reopens without fsck, writes twice to
        the other band and compacts that band into a file newer than that
        last number; a rebuild without the manifest still reads the write
        as absent: the output vouches only for commits it saw committed."""
        shape = (8, 6)  # 2 bands cut at address 24 (row 4)
        cells = np.array([[0, 0], [4, 0]], dtype=np.uint64)
        other = np.array([[5, 0]], dtype=np.uint64)
        store = ShardedStore(tmp_path / "record", shape, "LINEAR", n_shards=2)
        recorder = OpRecorder()
        with inject(recorder):
            store.write(cells, np.array([1.0, 2.0]))
        last = next(i for i, e in enumerate(recorder.events)
                    if e.path.name == "frag-000001.bin")
        directory = tmp_path / "crash"
        store = ShardedStore(directory, shape, "LINEAR", n_shards=2)
        with inject(plan_for_crash_point(recorder.events, last)), \
                pytest.raises(OSError):
            store.write(cells, np.array([1.0, 2.0]))
        store = ShardedStore(directory, shape, "LINEAR")
        store.write(other, np.array([3.0]))
        store.write(other, np.array([4.0]))
        store.compact()  # band 1 only: frag-000002/3 become frag-000004
        store.close()
        assert sorted(p.name for p in directory.glob("frag-*.bin")) == [
            "frag-000000.bin", "frag-000004.bin",
        ]
        for name in ("manifest.json", "manifest.log"):
            (directory / name).unlink()
        rebuilt = ShardedStore(directory, shape, "LINEAR")
        out = rebuilt.read_points(np.vstack([cells, other]))
        assert out.found.tolist() == [False, False, True]
        assert out.values.tolist() == [4.0]


class SplitMergeBase:
    def build(self, directory):
        store = make_store(directory)
        store.write_many([part(j) for j in range(N_PARTS)])
        return store

    def record(self, tmp_path):
        store = self.build(tmp_path / "record")
        recorder = OpRecorder()
        with inject(recorder):
            self.operate(store)
        return recorder.events

    def run_all_crash_points(self, tmp_path):
        events = self.record(tmp_path)
        assert events, "the operation performed no durable ops?"
        single = make_single(tmp_path / "single")
        layouts = set()
        for index in range(len(events)):
            directory = tmp_path / f"crash-{index}"
            store = self.build(directory)
            before = [(e.addr_lo, e.addr_hi) for e in store.shards]
            plan = plan_for_crash_point(events, index)
            with inject(plan):
                try:
                    self.operate(store)
                except OSError:
                    pass  # a failed delete after the commit is not raised
            assert plan.fired, "the planned fault never triggered"

            reopened = reopen(directory)
            layout = [(e.addr_lo, e.addr_hi) for e in reopened.shards]
            # All-or-nothing band-table change: old table or the new one.
            assert layout == before or self.is_new_layout(layout, before)
            layouts.add(len(layout))
            assert_matches_single(reopened, single)

            report = fsck(directory, repair=True)
            assert report.repaired
            assert fsck(directory).clean
            repaired = reopen(directory)
            assert [(e.addr_lo, e.addr_hi) for e in repaired.shards] == layout
            assert_matches_single(repaired, single)
        return layouts


class TestSplitCrash(SplitMergeBase):
    def operate(self, store):
        store.split(0)

    def is_new_layout(self, layout, before):
        # Band 0 became two contiguous bands; any cut inside it will do.
        return (
            len(layout) == len(before) + 1
            and layout[0][0] == before[0][0]
            and layout[1][1] == before[0][1]
            and layout[0][1] == layout[1][0]
            and layout[2:] == before[1:]
        )

    def test_torn_parent_manifest(self, tmp_path):
        """A torn band-table commit — the split's manifest-log record —
        is cut off on reopen, and the committed table stays in force."""
        events = self.record(tmp_path)
        torn_indices = [
            i for i, e in enumerate(events)
            if e.op == "write" and e.path.name == "manifest.log"
        ]
        assert len(torn_indices) == 1
        single = make_single(tmp_path / "single")
        for index in torn_indices:
            for torn in (0, 1, 100):
                directory = tmp_path / f"crash-{index}-{torn}"
                store = self.build(directory)
                before = [(e.addr_lo, e.addr_hi) for e in store.shards]
                plan = plan_for_crash_point(events, index, torn_bytes=torn)
                with inject(plan), pytest.raises(OSError):
                    store.split(0)
                assert plan.fired
                store = reopen(directory)
                assert [(e.addr_lo, e.addr_hi) for e in store.shards] == before
                assert_shard_prefixes(store)
                assert_matches_single(store, single)
                fsck(directory, repair=True)
                assert fsck(directory).clean

    def test_every_split_crash_point(self, tmp_path):
        n_layouts = self.run_all_crash_points(tmp_path)
        # Kills before the commit (the log append) keep the old table;
        # kills after it, while the old fragments are deleted, the new.
        assert n_layouts == {2, 3}


class TestMergeCrash(SplitMergeBase):
    def operate(self, store):
        store.merge(0)

    def is_new_layout(self, layout, before):
        return layout == [(before[0][0], before[1][1])] + before[2:]

    def test_every_merge_crash_point(self, tmp_path):
        layouts = self.run_all_crash_points(tmp_path)
        assert layouts == {1, 2}


class TestOrphansAfterKilledRebanding:
    def kill_split_commit(self, directory):
        """Split band 0 and crash at its commit, both halves written."""
        store = make_store(directory)
        store.write_many([part(j) for j in range(N_PARTS)])
        names = {f.path.name for f in store.fragments}
        plan = CrashPlan(
            [FaultRule(op="write", pattern="manifest.log", times=1)]
        )
        with inject(plan), pytest.raises(OSError):
            store.split(0)
        assert plan.fired
        on_disk = {p.name for p in directory.glob("frag-*.bin")}
        orphans = on_disk - names
        assert len(orphans) == 2
        return orphans

    def test_killed_split_orphans_are_quarantined(self, tmp_path):
        """The halves of a split whose commit never landed claim bands the
        committed table lacks: fsck quarantines them, keeping the bytes."""
        directory = tmp_path / "ds"
        orphans = self.kill_split_commit(directory)
        report = fsck(directory)
        flagged = {i.name for i in report.issues if i.kind == "extra"}
        assert orphans <= flagged
        report = fsck(directory, repair=True)
        assert {i.name for i in report.issues
                if i.repaired == "quarantined"} >= orphans
        assert fsck(directory).clean
        for name in orphans:
            assert (directory / ".quarantine" / name).is_file()
        assert len(reopen(directory).shards) == 2

    def test_lost_parent_after_killed_split_prefers_old_epoch(self, tmp_path):
        """Without the manifest the rebuild cannot tell the killed split
        from a committed one: its complete halves supersede the old band
        (a roll-forward), and reads are the same either way."""
        directory = tmp_path / "ds"
        self.kill_split_commit(directory)
        single = make_single(tmp_path / "single")
        for name in ("manifest.json", "manifest.log"):
            (directory / name).unlink()
        reopened = reopen(directory)
        assert len(reopened.shards) == 3
        assert_matches_single(reopened, single)
        assert fsck(directory).clean


class TestLegacyConversionCrash:
    """A crash at every durable op of a legacy layout's conversion, then a
    reopen, reads what the legacy store held."""

    def build(self, directory):
        appends = [(np.array([[2, 7], [20, 3]], dtype=np.uint64),
                    np.array([-1.0, -2.0]))]
        build_legacy(directory, SHAPE, n_bands=2,
                     parts=[part(j) for j in range(N_PARTS)],
                     appends=appends)
        return appends[0]

    def test_every_conversion_crash_recovers(self, tmp_path):
        tail, tail_values = self.build(tmp_path / "record")
        recorder = OpRecorder()
        with inject(recorder):
            make_store(tmp_path / "record").close()
        events = recorder.events
        assert any(e.path.name == "shards.json" for e in events)
        single = make_single(tmp_path / "single")
        single.write(tail, tail_values)
        for index in range(len(events)):
            directory = tmp_path / f"crash-{index}"
            self.build(directory)
            plan = plan_for_crash_point(events, index)
            with inject(plan), pytest.raises(OSError):
                make_store(directory)
            assert plan.fired
            store = reopen(directory)
            assert len(store.shards) == 2
            assert_matches_single(store, single)
            out = store.read_points(tail)
            assert out.values.tolist() == tail_values.tolist()
            assert not (directory / "shards.json").exists()
            assert not list(directory.glob("shard-*"))
            assert fsck(directory).clean
