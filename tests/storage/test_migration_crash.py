"""Crash-consistency for format migration: kill every durable op.

A deterministic workload — open, two writes, migrate a fragment,
compact, migrate again — runs once under
:class:`~repro.testing.faults.OpRecorder` to enumerate every
durability-layer op, then once per op with a plan that kills exactly
that op.  Invariants:

* reopening always succeeds and yields a *consistent prefix* of the
  writes — each write is atomic, and migration/compaction never lose or
  duplicate a committed point;
* every fragment the reopened store serves is in either its **old or
  its new** format (the manifest commit is the atomic switch point) and
  reads bit-identically either way;
* ``fsck --repair`` then ``fsck`` is clean — a replacement fragment
  orphaned between its file write and the manifest commit is detected
  and recovered from its self-describing header.
"""

import warnings

import numpy as np
import pytest

from repro.core.boundary import Box
from repro.storage import FragmentStore, StoreOptions, fsck
from repro.testing.faults import OpRecorder, inject, plan_for_crash_point

SHAPE = (32, 32)
N_WRITES = 2

#: Formats the workload moves through; any fragment the recovered store
#: serves must be in one of these (old-or-new, never half-migrated).
ALLOWED_FORMATS = {"COO-SORTED", "LINEAR", "GCSR++"}

OPTS = StoreOptions(fsync=True)


def part(j):
    """Write ``j``'s payload: 10 points on row ``j``, disjoint per write."""
    coords = np.column_stack(
        [np.full(10, j, dtype=np.uint64), np.arange(10, dtype=np.uint64)]
    )
    values = float(j * 100) + np.arange(10, dtype=float)
    return coords, values


def run_workload(directory):
    """Open, write twice, migrate, compact, migrate the survivor again."""
    store = FragmentStore(directory, SHAPE, "COO-SORTED", options=OPTS)
    for j in range(N_WRITES):
        store.write(*part(j))
    store.migrate_fragment(0, "LINEAR")
    store.compact()
    store.migrate_fragment(0, "GCSR++")


def reopen(directory):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return FragmentStore(directory, SHAPE, "COO-SORTED", options=OPTS)


def record_injection_points(tmp_path):
    recorder = OpRecorder()
    with inject(recorder):
        run_workload(tmp_path / "record")
    return recorder.events


def assert_consistent(store, allowed=frozenset(ALLOWED_FORMATS)):
    """Writes are atomic and prefix-visible; formats are old-or-new."""
    present = []
    for j in range(N_WRITES):
        coords, values = part(j)
        out = store.read_points(coords)
        if out.found.all():
            assert np.allclose(out.values, values)
            present.append(True)
        else:
            assert not out.found.any(), f"write {j} is half-visible"
            present.append(False)
    k = sum(present)
    assert present == [True] * k + [False] * (N_WRITES - k), (
        f"visible writes {present} are not a prefix"
    )
    for frag in store.fragments:
        assert frag.format_name in allowed, (
            f"unexpected fragment format {frag.format_name!r}"
        )
    box = store.read_box(Box((0, 0), SHAPE))
    lin = box.coords[:, 0] * SHAPE[1] + box.coords[:, 1]
    assert np.unique(lin).size == lin.size, "duplicate coords in read view"
    assert lin.size == 10 * k, "migration lost or duplicated points"
    return k


def crash_and_recover(tmp_path, events, index, torn_bytes=None):
    directory = tmp_path / f"crash-{index}-{torn_bytes}"
    plan = plan_for_crash_point(events, index, torn_bytes=torn_bytes)
    with inject(plan):
        # The workload dies at the injected op.
        try:
            run_workload(directory)
        except OSError:
            pass
    assert plan.fired, "the planned fault never triggered"

    k = assert_consistent(reopen(directory))

    report = fsck(directory, repair=True)
    assert fsck(directory).clean, f"fsck not clean after repair: {report}"
    # Repair may *recover* a write whose fragment was durable but whose
    # manifest commit was the crashed op (the orphan's self-describing
    # header carries its format and codec) — it must never lose one.
    k_repaired = assert_consistent(reopen(directory))
    assert k_repaired >= k, "fsck repair lost a committed write"
    return k


class TestInjectionPointEnumeration:
    def test_recorded_ops_cover_the_migration_lifecycle(self, tmp_path):
        events = record_injection_points(tmp_path)
        ops = [e.op for e in events]
        names = [e.path.name for e in events]
        assert "fsync" in ops
        assert "rename" in ops
        # Each migration writes a replacement fragment and removes the
        # doomed original after the manifest commit.
        assert "unlink" in ops
        assert any(n.startswith("frag-") for n in names)
        assert "manifest.json" in names


class TestMigrationCrashConsistency:
    def test_every_injection_point_recovers(self, tmp_path):
        events = record_injection_points(tmp_path)
        sizes = []
        for index in range(len(events)):
            sizes.append(crash_and_recover(tmp_path, events, index))
        # The earliest crash commits nothing; crashes during/after the
        # migrations keep both writes.
        assert sizes[0] == 0
        assert max(sizes) == N_WRITES

    def test_torn_fragment_writes_during_migration(self, tmp_path):
        events = record_injection_points(tmp_path)
        frag_writes = [
            i for i, e in enumerate(events)
            if e.op == "write" and e.path.name.startswith("frag-")
        ]
        assert frag_writes
        for index in frag_writes:
            for torn in (0, 1, 37):
                crash_and_recover(tmp_path, events, index, torn_bytes=torn)

    def test_crash_then_migrate_again(self, tmp_path):
        """Recovery is not read-only: migration keeps working after it."""
        events = record_injection_points(tmp_path)
        directory = tmp_path / "resume"
        plan = plan_for_crash_point(events, len(events) - 1)
        with inject(plan):
            try:
                run_workload(directory)
            except OSError:
                pass
        assert plan.fired
        store = reopen(directory)
        k = assert_consistent(store)
        store.migrate_all("CSF")
        assert all(f.format_name == "CSF" for f in store.fragments)
        recovered = reopen(directory)
        assert assert_consistent(recovered, allowed={"CSF"}) == k


def run_order_workload(directory):
    """Open, write twice, re-linearize to ALTO, compact."""
    store = FragmentStore(directory, SHAPE, "COO-SORTED", options=OPTS)
    for j in range(N_WRITES):
        store.write(*part(j))
    store.set_addr_order("alto")
    store.compact()


def assert_order_consistent(store):
    """Reads are prefix-consistent and every fragment's manifest tag is
    old-or-new *and* agrees with its self-describing file header."""
    from repro.storage.serialization import unpack_header

    k = assert_consistent(store, allowed={"COO-SORTED"})
    for frag in store.fragments:
        assert frag.addr_order in ("row_major", "alto"), frag.addr_order
        header, _ = unpack_header(frag.path.read_bytes())
        want = str(
            (header.get("extra") or {}).get("addr_order")
            or (header.get("meta") or {}).get("addr_order")
            or "row_major"
        )
        assert frag.addr_order == want, (
            f"{frag.path.name}: manifest tag {frag.addr_order!r} "
            f"disagrees with header tag {want!r}"
        )
    return k


class TestAddrOrderMigrationCrashConsistency:
    """Kill every durable op in write -> set_addr_order("alto") ->
    compact.  The per-fragment commit protocol must leave a readable
    (possibly mixed-order) store, and ``fsck --repair`` must recover
    orphaned re-linearized fragments with the correct ``addr_order``
    tag taken from their self-describing headers."""

    def record(self, tmp_path):
        recorder = OpRecorder()
        with inject(recorder):
            run_order_workload(tmp_path / "order-record")
        return recorder.events

    def test_recorded_ops_cover_the_reorder_lifecycle(self, tmp_path):
        events = self.record(tmp_path)
        ops = [e.op for e in events]
        names = [e.path.name for e in events]
        assert "fsync" in ops and "rename" in ops and "unlink" in ops
        assert any(n.startswith("frag-") for n in names)
        assert "manifest.json" in names

    def test_every_injection_point_recovers(self, tmp_path):
        events = self.record(tmp_path)
        sizes = []
        for index in range(len(events)):
            directory = tmp_path / f"order-crash-{index}"
            plan = plan_for_crash_point(events, index)
            with inject(plan):
                try:
                    run_order_workload(directory)
                except OSError:
                    pass
            assert plan.fired, "the planned fault never triggered"
            k = assert_order_consistent(reopen(directory))
            report = fsck(directory, repair=True)
            assert fsck(directory).clean, (
                f"fsck not clean after repair: {report}"
            )
            k_repaired = assert_order_consistent(reopen(directory))
            assert k_repaired >= k, "fsck repair lost a committed write"
            sizes.append(k_repaired)
        assert sizes[0] == 0
        assert max(sizes) == N_WRITES

    def test_torn_reorder_fragment_writes(self, tmp_path):
        """A torn replacement fragment must never be adopted: the
        original (row-major) fragment stays live, reads stay intact,
        and repair discards or completes the orphan — with whatever
        order tag its header managed to claim."""
        events = self.record(tmp_path)
        frag_writes = [
            i for i, e in enumerate(events)
            if e.op == "write" and e.path.name.startswith("frag-")
        ]
        assert frag_writes
        for index in frag_writes:
            for torn in (0, 37):
                directory = tmp_path / f"order-torn-{index}-{torn}"
                plan = plan_for_crash_point(events, index, torn_bytes=torn)
                with inject(plan):
                    try:
                        run_order_workload(directory)
                    except OSError:
                        pass
                assert plan.fired
                k = assert_order_consistent(reopen(directory))
                fsck(directory, repair=True)
                assert fsck(directory).clean
                assert assert_order_consistent(reopen(directory)) >= k

    def test_crash_then_reorder_again(self, tmp_path):
        """Re-running set_addr_order after recovery converges: every
        fragment ends tagged alto and reads are unchanged."""
        events = self.record(tmp_path)
        # Crash on every manifest commit in turn, then finish the job.
        manifest_commits = [
            i for i, e in enumerate(events)
            if e.op == "rename" and e.path.name == "manifest.json"
        ]
        assert manifest_commits
        for index in manifest_commits[:4]:
            directory = tmp_path / f"order-resume-{index}"
            plan = plan_for_crash_point(events, index)
            with inject(plan):
                try:
                    run_order_workload(directory)
                except OSError:
                    pass
            assert plan.fired
            store = reopen(directory)
            k = assert_order_consistent(store)
            store.set_addr_order("alto")
            assert all(f.addr_order == "alto" for f in store.fragments)
            assert store.addr_order == "alto"
            recovered = reopen(directory)
            assert recovered.addr_order == "alto"
            assert assert_order_consistent(recovered) == k
