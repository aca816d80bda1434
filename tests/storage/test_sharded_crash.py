"""ShardedStore crash-consistency: kill every commit op and recover.

Mirrors ``test_crash_consistency.py`` one level up: each workload —
routed ``write_many``, ``split``, ``merge``, store creation — is first
run under :class:`~repro.testing.faults.OpRecorder` to enumerate every
durability-layer op, then replayed once per op with a plan that kills
exactly that op.  The invariants (docs/SHARDED_STORE.md):

* reopening from disk always succeeds — or raises ``ManifestError``
  explicitly demanding ``fsck --repair``, after which it succeeds;
* each child store holds a *prefix* of the parts routed to it, and a
  band-table swap (split/merge) is all-or-nothing: the reopened store
  shows either the old layout or the new one, never a mix;
* ``fsck --repair`` always restores a clean tree without silently
  dropping a committed fragment, and reads afterwards still match a
  single FragmentStore fed the same writes.
"""

import warnings

import numpy as np
import pytest

from repro.core.errors import ManifestError
from repro.storage import FragmentStore, ShardedStore, fsck_sharded
from repro.testing.faults import (
    FaultPlan,
    FaultRule,
    OpRecorder,
    inject,
    plan_for_crash_point,
)

SHAPE = (32, 32)  # 1024 cells; 2 shards cut at address 512 (row 16)
N_PARTS = 3

# Children with crash-orphaned fragments warn when lazily opened mid-read;
# that advisory is by design and asserted on elsewhere — not noise here.
pytestmark = pytest.mark.filterwarnings(
    "ignore:.*not in the manifest.*:UserWarning"
)


def part(j):
    """Part ``j``: 5 points on row ``j`` + 5 on row ``16+j``.

    Every part straddles both bands, and parts are pairwise disjoint, so
    per-child prefixes are directly observable from which rows read back.
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
        # Orphaned child fragments warn on open, by design.
        warnings.simplefilter("ignore", UserWarning)
        return make_store(directory)


def make_single(directory, n_parts=N_PARTS):
    single = FragmentStore(directory, SHAPE, "LINEAR")
    for j in range(n_parts):
        single.write(*part(j))
    return single


def assert_shard_prefixes(store):
    """Each band holds a prefix of the parts routed to it."""
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
        # 2 sidecars (write+rename each) + the parent manifest commit.
        assert [e.op for e in events] == ["write", "rename"] * 3
        assert events[-1].path.name == "shards.json"

    def test_every_creation_crash_recovers(self, tmp_path):
        events = self.record(tmp_path)
        for index in range(len(events)):
            directory = tmp_path / f"crash-{index}"
            plan = plan_for_crash_point(events, index)
            with inject(plan), pytest.raises(OSError):
                make_store(directory)
            assert plan.fired
            try:
                store = reopen(directory)
            except ManifestError:
                report = fsck_sharded(directory, repair=True)
                assert report.repaired
                store = reopen(directory)
            # The recovered store covers the address space and works.
            assert store.shards[0].addr_lo == 0
            assert store.shards[-1].addr_hi == 32 * 32
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
            lower, upper = assert_shard_prefixes(store)
            outcomes.append((len(lower), len(upper)))

            found_before = sum(
                int(store.read_points(part(j)[0]).found.sum())
                for j in range(N_PARTS)
            )
            report = fsck_sharded(directory, repair=True)
            assert report.repaired
            assert fsck_sharded(directory).clean
            repaired = reopen(directory)
            # Repair recovers orphans, never drops committed points.
            found_after = sum(
                int(repaired.read_points(part(j)[0]).found.sum())
                for j in range(N_PARTS)
            )
            assert found_after >= found_before
            assert_shard_prefixes(repaired)
            # The store keeps working after recovery: re-write every
            # part and converge to the single-store state.
            repaired.write_many([part(j) for j in range(N_PARTS)])
            assert_matches_single(repaired, single)
        # Coverage sanity: some crash commits nothing, none commit all
        # parts in both bands before the last injected op.
        assert min(sum(o) for o in outcomes) == 0
        assert max(sum(o) for o in outcomes) > 0


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
            with inject(plan), pytest.raises(OSError):
                self.operate(store)
            assert plan.fired, "the planned fault never triggered"

            reopened = reopen(directory)
            layout = [(e.addr_lo, e.addr_hi) for e in reopened.shards]
            # All-or-nothing band swap: old layout or the new one.
            assert layout == before or layout == self.expected_layout(before)
            layouts.add(len(layout))
            assert_matches_single(reopened, single)

            report = fsck_sharded(directory, repair=True)
            assert report.repaired
            assert fsck_sharded(directory).clean
            assert_matches_single(reopen(directory), single)
        return layouts


class TestSplitCrash(SplitMergeBase):
    def operate(self, store):
        store.split(0)

    def expected_layout(self, before):
        # Any cut strictly inside band 0 is acceptable.
        return None  # overridden check below

    def run_all_crash_points(self, tmp_path):
        events = self.record(tmp_path)
        single = make_single(tmp_path / "single")
        n_layouts = set()
        for index in range(len(events)):
            directory = tmp_path / f"crash-{index}"
            store = self.build(directory)
            before = [(e.addr_lo, e.addr_hi) for e in store.shards]
            plan = plan_for_crash_point(events, index)
            with inject(plan), pytest.raises(OSError):
                store.split(0)
            assert plan.fired

            reopened = reopen(directory)
            layout = [(e.addr_lo, e.addr_hi) for e in reopened.shards]
            if len(layout) == len(before):
                assert layout == before
            else:
                # Committed split: band 0 became two contiguous bands.
                assert len(layout) == len(before) + 1
                assert layout[0][0] == before[0][0]
                assert layout[1][1] == before[0][1]
                assert layout[0][1] == layout[1][0]
                assert layout[2:] == before[1:]
            n_layouts.add(len(layout))
            assert_matches_single(reopened, single)

            fsck_sharded(directory, repair=True)
            assert fsck_sharded(directory).clean
            assert_matches_single(reopen(directory), single)
        return n_layouts

    def test_torn_parent_manifest(self, tmp_path):
        """Routed writes never write ``shards.json``; re-banding does, and
        a torn band-table commit leaves the committed layout in force."""
        events = self.record(tmp_path)
        torn_indices = [
            i for i, e in enumerate(events)
            if e.op == "write" and e.path.name == "shards.json.tmp"
        ]
        assert torn_indices
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
                # The committed parent manifest survives a torn tmp.
                store = reopen(directory)
                assert [(e.addr_lo, e.addr_hi) for e in store.shards] == before
                assert_shard_prefixes(store)
                assert_matches_single(store, single)
                fsck_sharded(directory, repair=True)
                assert fsck_sharded(directory).clean

    def test_every_split_crash_point(self, tmp_path):
        n_layouts = self.run_all_crash_points(tmp_path)
        # Every injected kill lands before the parent commit, so the
        # old layout always survives (the commit point is the very last
        # durable op of the operation).
        assert n_layouts == {2}


class TestMergeCrash(SplitMergeBase):
    def operate(self, store):
        store.merge(0)

    def expected_layout(self, before):
        return [(before[0][0], before[1][1])] + before[2:]

    def test_every_merge_crash_point(self, tmp_path):
        layouts = self.run_all_crash_points(tmp_path)
        assert 2 in layouts  # the old layout survives pre-commit kills


class TestOrphansAfterKilledRebanding:
    def test_killed_split_orphans_are_quarantined(self, tmp_path):
        directory = tmp_path / "ds"
        store = make_store(directory)
        store.write_many([part(j) for j in range(N_PARTS)])
        names_before = {e.name for e in store.shards}
        # Kill the parent-manifest rename — both halves fully written.
        plan = FaultPlan(
            [FaultRule(op="rename", pattern="shards.json", times=1)]
        )
        with inject(plan), pytest.raises(OSError):
            store.split(0)
        assert plan.fired
        # The half-written shard dirs are on disk but unreferenced.
        on_disk = {p.name for p in directory.glob("shard-*") if p.is_dir()}
        orphans = on_disk - names_before
        assert len(orphans) == 2
        report = fsck_sharded(directory)
        flagged = {i.name for i in report.issues if i.kind == "extra"}
        assert orphans <= flagged
        report = fsck_sharded(directory, repair=True)
        assert {i.name for i in report.issues
                if i.repaired == "quarantined"} >= orphans
        assert fsck_sharded(directory).clean
        # Quarantine keeps the bytes: dirs moved, not deleted.
        for name in orphans:
            assert (directory / ".quarantine" / name).is_dir()

    def test_lost_parent_after_killed_split_prefers_old_epoch(self, tmp_path):
        """Sidecar rebuild must resurrect the *committed* layout, not the
        half-finished split's newer-epoch orphans."""
        directory = tmp_path / "ds"
        store = make_store(directory)
        store.write_many([part(j) for j in range(N_PARTS)])
        old_names = {e.name for e in store.shards}
        single = make_single(tmp_path / "single")
        plan = FaultPlan(
            [FaultRule(op="rename", pattern="shards.json", times=1)]
        )
        with inject(plan), pytest.raises(OSError):
            store.split(0)
        (directory / "shards.json").unlink()
        report = fsck_sharded(directory, repair=True)
        assert report.repaired
        reopened = reopen(directory)
        assert {e.name for e in reopened.shards} == old_names
        assert_matches_single(reopened, single)
        assert fsck_sharded(directory).clean
