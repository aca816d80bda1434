"""Crash-consistency for the WAL ingest path: kill every durable op.

Mirrors ``test_crash_consistency.py`` for the append pipeline.  A
deterministic workload — open, three durable appends, ``pack_wal``, one
more append — runs once under :class:`~repro.testing.faults.OpRecorder`
to enumerate every durability-layer op, then once per op (plus torn-write
variants) with a plan that kills exactly that op.  Invariants, per
docs/WAL_SNAPSHOTS.md:

* reopening always succeeds and yields a *consistent prefix* of the
  appends — each append is atomic (all 10 points or none) and a later
  append is never visible without every earlier one;
* the merged read view never contains duplicate coordinates, even when a
  crash between the pack's manifest commit and its segment unlinks leaves
  points both packed and still in the log (over-coverage);
* ``fsck --repair`` then ``fsck`` is clean, and repair never loses a
  committed append.
"""

import warnings

import numpy as np
import pytest

from repro.core.boundary import Box
from repro.storage import FragmentStore, StoreOptions, fsck
from repro.testing.faults import (
    FaultPlan,
    FaultRule,
    OpRecorder,
    inject,
    plan_for_crash_point,
)

SHAPE = (32, 32)
N_APPENDS = 3          # durable appends before the pack
N_PARTS = N_APPENDS + 1  # one more append lands after the pack

WAL_OPTS = StoreOptions(wal_segment_bytes=512, wal_fsync=True)


def part(j):
    """Append ``j``'s payload: 10 points on row ``j``, disjoint per append."""
    coords = np.column_stack(
        [np.full(10, j, dtype=np.uint64), np.arange(10, dtype=np.uint64)]
    )
    values = float(j * 100) + np.arange(10, dtype=float)
    return coords, values


def run_workload(directory):
    """Open, append three parts durably, pack, append one more."""
    store = FragmentStore(directory, SHAPE, "LINEAR", options=WAL_OPTS)
    for j in range(N_APPENDS):
        store.append(*part(j))
    store.pack_wal()
    store.append(*part(N_APPENDS))


def reopen(directory):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return FragmentStore(directory, SHAPE, "LINEAR", options=WAL_OPTS)


def record_injection_points(tmp_path):
    recorder = OpRecorder()
    with inject(recorder):
        run_workload(tmp_path / "record")
    return recorder.events


def assert_consistent_prefix(store):
    """Appends are atomic and visible as a prefix; no duplicate coords."""
    present = []
    for j in range(N_PARTS):
        coords, values = part(j)
        out = store.read_points(coords)
        if out.found.all():
            assert np.allclose(out.values, values)
            present.append(True)
        else:
            assert not out.found.any(), f"append {j} is half-visible"
            present.append(False)
    k = sum(present)
    assert present == [True] * k + [False] * (N_PARTS - k), (
        f"visible appends {present} are not a prefix"
    )
    box = store.read_box(Box((0, 0), SHAPE))
    lin = box.coords[:, 0] * SHAPE[1] + box.coords[:, 1]
    assert np.unique(lin).size == lin.size, "duplicate coords in read view"
    assert int((box.coords[:, 0] < N_PARTS).sum()) == 10 * k
    return k


def crash_and_recover(tmp_path, events, index, torn_bytes=None):
    directory = tmp_path / f"crash-{index}-{torn_bytes}"
    plan = plan_for_crash_point(events, index, torn_bytes=torn_bytes)
    with inject(plan), pytest.raises(OSError):
        run_workload(directory)
    assert plan.fired, "the planned fault never triggered"

    # First reopen replays the log, truncating/quarantining damage.
    k = assert_consistent_prefix(reopen(directory))

    report = fsck(directory, repair=True)
    assert fsck(directory).clean, f"fsck not clean after repair: {report}"
    assert assert_consistent_prefix(reopen(directory)) == k
    return k


class TestInjectionPointEnumeration:
    def test_recorded_ops_cover_the_wal_lifecycle(self, tmp_path):
        events = record_injection_points(tmp_path)
        ops = [e.op for e in events]
        names = [e.path.name for e in events]
        # Durable appends fsync; the pack seals (rename), commits a
        # fragment + manifest, and retires segments (unlink).
        assert "fsync" in ops
        assert "unlink" in ops
        assert any(n.startswith("seg-") for n in names)
        assert any(n.startswith("frag-") for n in names)
        assert "manifest.json" in names

    def test_acknowledged_appends_are_fsynced(self, tmp_path):
        events = record_injection_points(tmp_path)
        record_writes = [
            i for i, e in enumerate(events)
            if e.op == "write" and e.path.name.endswith(".open")
        ]
        for i in record_writes:
            following = [e.op for e in events[i + 1:i + 2]]
            assert following == ["fsync"], (
                f"WAL write at op {i} not followed by fsync"
            )


class TestCrashAtEveryPoint:
    def test_every_injection_point_recovers(self, tmp_path):
        events = record_injection_points(tmp_path)
        prefix_sizes = []
        for index in range(len(events)):
            prefix_sizes.append(crash_and_recover(tmp_path, events, index))
        # Coverage sanity: the earliest crash commits nothing; a crash
        # after the pack's commit (or during the final append) keeps all
        # three packed appends.
        assert prefix_sizes[0] == 0
        assert max(prefix_sizes) >= N_APPENDS

    def test_torn_wal_writes_at_byte_offsets(self, tmp_path):
        events = record_injection_points(tmp_path)
        wal_writes = [
            i for i, e in enumerate(events)
            if e.op == "write" and e.path.name.startswith("seg-")
        ]
        assert wal_writes
        for index in wal_writes:
            for torn in (0, 1, 37):
                crash_and_recover(tmp_path, events, index,
                                  torn_bytes=torn)

    def test_crash_then_continue_appending(self, tmp_path):
        """Recovery is not read-only: appends and packs keep working."""
        events = record_injection_points(tmp_path)
        directory = tmp_path / "resume"
        plan = plan_for_crash_point(events, len(events) - 1)
        with inject(plan), pytest.raises(OSError):
            run_workload(directory)
        store = reopen(directory)
        k = assert_consistent_prefix(store)
        extra = np.column_stack(
            [np.full(5, 31, dtype=np.uint64),
             np.arange(5, dtype=np.uint64)]
        )
        store.append(extra, np.ones(5))
        store.pack_wal()
        assert store.wal_stats()["points"] == 0
        recovered = reopen(directory)
        assert recovered.read_points(extra).found.all()
        assert assert_consistent_prefix(recovered) >= k


class TestTargetedWindows:
    def test_pack_crash_never_loses_acknowledged_appends(self, tmp_path):
        """Killing the pack's fragment commit keeps every acked append."""
        directory = tmp_path / "ds"
        store = FragmentStore(directory, SHAPE, "LINEAR", options=WAL_OPTS)
        for j in range(N_APPENDS):
            store.append(*part(j))
        plan = FaultPlan([FaultRule(op="write", pattern="frag-*", times=1)])
        with inject(plan), pytest.raises(OSError):
            store.pack_wal()
        assert plan.fired

        recovered = reopen(directory)
        assert assert_consistent_prefix(recovered) == N_APPENDS
        assert recovered.wal_stats()["points"] == 10 * N_APPENDS

    def test_pack_crash_between_commit_and_retire(self, tmp_path):
        """Over-coverage window: fragment committed, segments not yet
        unlinked.  Reads stay duplicate-free and the next pack retires."""
        directory = tmp_path / "ds"
        store = FragmentStore(directory, SHAPE, "LINEAR", options=WAL_OPTS)
        for j in range(N_APPENDS):
            store.append(*part(j))
        plan = FaultPlan([FaultRule(op="unlink", pattern="seg-*", times=1)])
        with inject(plan), pytest.raises(OSError):
            store.pack_wal()
        assert plan.fired

        recovered = reopen(directory)
        assert len(recovered.fragments) == 1       # the pack committed
        assert recovered.wal_stats()["points"] > 0  # over-coverage
        assert assert_consistent_prefix(recovered) == N_APPENDS
        recovered.pack_wal()
        assert recovered.wal_stats()["points"] == 0
        assert assert_consistent_prefix(recovered) == N_APPENDS

    def test_gc_crash_between_commit_and_delete(self, tmp_path):
        """GC is manifest-then-delete: a failed unlink leaves only a
        stray file for fsck to account for, never a manifest entry
        pointing at a deleted file — and the GC itself still succeeds."""
        directory = tmp_path / "ds"
        store = FragmentStore(
            directory, SHAPE, "LINEAR",
            options=StoreOptions(retain_generations=2),
        )
        store.write(*part(0))
        store.write(*part(1))
        store.compact()
        plan = FaultPlan([FaultRule(op="unlink", pattern="frag-*", times=1)])
        with inject(plan):
            deleted = store.gc(keep_generations=0)
        assert plan.fired
        # The trimmed manifest committed before any unlink; the fragment
        # whose unlink was killed survives on disk as an unreferenced
        # stray rather than as a dangling manifest entry.
        assert deleted == 2
        strays = [
            p for p in directory.glob("frag-*.bin")
            if p.name not in {f.path.name for f in store.fragments}
        ]
        assert len(strays) == 1

        recovered = reopen(directory)
        for j in range(2):
            coords, values = part(j)
            out = recovered.read_points(coords)
            assert out.found.all()
            assert np.allclose(out.values, values)
        report = fsck(directory, repair=True)
        assert report.repaired or report.clean
        assert fsck(directory).clean


class TestFailedAppend:
    """An append that raises while the process lives on must leave the
    log as it was: the acknowledged appends around it still replay."""

    @staticmethod
    def _fail_one_append(directory, rules):
        store = FragmentStore(
            directory, SHAPE, "LINEAR", options=StoreOptions(wal_fsync=True)
        )
        store.append(*part(0))
        plan = FaultPlan(rules)
        with inject(plan), pytest.raises(OSError):
            store.append(*part(1))
        assert plan.fired
        store.append(*part(2))  # acknowledged and fsynced
        store.close()
        recovered = reopen(directory)
        return recovered, [
            bool(recovered.read_points(part(j)[0]).found.all())
            for j in range(3)
        ]

    def test_torn_append_is_cut_back(self, tmp_path):
        torn = FaultRule(op="write", pattern="seg-*", torn_bytes=37)
        recovered, found = self._fail_one_append(tmp_path / "ds", [torn])
        assert found == [True, False, True]
        assert recovered.wal_stats()["torn_tails_repaired"] == 0
        assert fsck(tmp_path / "ds").clean

    def test_failed_cut_back_seals_the_segment(self, tmp_path):
        rules = [
            FaultRule(op="write", pattern="seg-*", torn_bytes=37),
            FaultRule(op="truncate", pattern="seg-*"),
        ]
        recovered, found = self._fail_one_append(tmp_path / "ds", rules)
        assert found == [True, False, True]
        # The torn bytes ended the sealed segment; replay cut them off.
        assert recovered.wal_stats()["torn_tails_repaired"] == 1
        names = sorted(p.name for p in (tmp_path / "ds" / "wal").iterdir())
        assert names == ["seg-000000.wal", "seg-000001.wal.open"]
