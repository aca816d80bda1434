"""Durability layer: atomic commits, checksums, quarantine, fsck."""

import json
import shutil
import warnings

import numpy as np
import pytest

from repro.core import (
    Box,
    ChecksumError,
    FragmentError,
    FragmentIOError,
    ManifestError,
)
from repro.storage import FragmentStore, ShardedStore, StoreOptions, fsck
from repro.storage.durability import (
    CRC32_RESIDUE,
    clean_temp_files,
    encode_manifest,
    file_crc,
    fragment_file_crc,
    load_manifest,
    quarantine_file,
    write_bytes_atomic,
)
from repro.testing.faults import (
    CrashPlan,
    FaultPlan,
    FaultRule,
    OpRecorder,
    inject,
)


def make_store(path, *, n=30, seed=7, options=None):
    rng = np.random.default_rng(seed)
    store = FragmentStore(path, (32, 32), "LINEAR", options=options)
    # Distinct coordinates so value comparisons are unambiguous.
    lin = rng.choice(32 * 32, size=n, replace=False)
    coords = np.column_stack([lin // 32, lin % 32]).astype(np.uint64)
    values = rng.random(n)
    store.write(coords, values)
    return store, coords, values


def corrupt_file(path, offset=-12):
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0xFF
    path.write_bytes(bytes(blob))


class TestAtomicCommit:
    def test_write_bytes_atomic_commits(self, tmp_path):
        target = tmp_path / "blob.bin"
        assert write_bytes_atomic(target, b"hello", fsync=True) == 5
        assert target.read_bytes() == b"hello"
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_rename_leaves_old_content(self, tmp_path):
        target = tmp_path / "blob.bin"
        target.write_bytes(b"old")
        plan = FaultPlan([FaultRule(op="rename", pattern="blob.bin")])
        with inject(plan), pytest.raises(OSError):
            write_bytes_atomic(target, b"new")
        assert target.read_bytes() == b"old"

    def test_torn_write_never_reaches_target(self, tmp_path):
        target = tmp_path / "blob.bin"
        plan = FaultPlan(
            [FaultRule(op="write", pattern="blob.bin.tmp", torn_bytes=2)]
        )
        with inject(plan), pytest.raises(OSError):
            write_bytes_atomic(target, b"abcdef")
        assert not target.exists()
        # The torn temp file holds exactly the prefix.
        assert (tmp_path / "blob.bin.tmp").read_bytes() == b"ab"

    def test_clean_temp_files(self, tmp_path):
        (tmp_path / "a.tmp").write_bytes(b"x")
        (tmp_path / "b.bin").write_bytes(b"y")
        removed = clean_temp_files(tmp_path)
        assert [p.name for p in removed] == ["a.tmp"]
        assert (tmp_path / "b.bin").exists()

    def test_store_open_cleans_temp_files(self, tmp_path):
        store, *_ = make_store(tmp_path / "ds")
        stale = tmp_path / "ds" / "frag-000099.bin.tmp"
        stale.write_bytes(b"torn")
        FragmentStore(tmp_path / "ds", (32, 32), "LINEAR")
        assert not stale.exists()

    def test_manifest_generation_monotonic(self, tmp_path):
        store, coords, values = make_store(tmp_path / "ds")
        g1 = store.generation
        store.write(coords, values)
        assert store.generation > g1
        manifest = load_manifest(tmp_path / "ds").doc
        assert manifest["generation"] == store.generation

    def test_manifest_records_fragment_crc(self, tmp_path):
        store, *_ = make_store(tmp_path / "ds")
        manifest = load_manifest(tmp_path / "ds").doc
        entry = manifest["fragments"][0]
        data = (tmp_path / "ds" / entry["file"]).read_bytes()
        # The body's CRC, which the file's trailer holds — not the CRC of
        # the whole file, which is the same residue for every fragment.
        assert entry["crc"] == file_crc(data[:-4]) == fragment_file_crc(data)
        assert file_crc(data) == CRC32_RESIDUE != entry["crc"]

    def test_fragment_file_crc_matches_full_crc(self):
        """The O(1) trailer read equals the CRC computed over the whole
        body."""
        from repro.storage import pack_fragment

        blob = pack_fragment(
            "LINEAR", (8, 8), 2, {},
            {"addresses": np.array([1, 2], dtype=np.uint64)},
            np.array([0.5, 1.5]),
        )
        assert fragment_file_crc(blob) == file_crc(blob[:-4])

    def test_corrupt_manifest_raises_manifest_error(self, tmp_path):
        make_store(tmp_path / "ds")
        (tmp_path / "ds" / "manifest.json").write_text("{not json")
        with pytest.raises(ManifestError):
            FragmentStore(tmp_path / "ds", (32, 32), "LINEAR")
        # Backward compatible: still a FragmentError.
        with pytest.raises(FragmentError):
            FragmentStore(tmp_path / "ds", (32, 32), "LINEAR")


class TestDirectoryFsync:
    """A rename, or a new WAL segment, survives power loss only once its
    directory is fsync'd; that follows the store's fsync flags."""

    @staticmethod
    def _record(directory, fsync, wal_fsync):
        recorder = OpRecorder()
        opts = StoreOptions(
            fsync=fsync, wal_fsync=wal_fsync, wal_segment_bytes=512
        )
        rng = np.random.default_rng(0)
        with inject(recorder):
            store, _, _ = make_store(directory, options=opts)
            for _ in range(4):  # creates and seals segments
                coords = rng.integers(0, 32, (20, 2)).astype(np.uint64)
                store.append(coords, rng.random(20))
            store.pack_wal()
            store.compact()
        return recorder.events

    @pytest.mark.parametrize("fsync, wal_fsync", [
        (True, None), (False, None), (False, True),
    ])
    def test_directory_fsync_follows_each_rename(self, tmp_path, fsync,
                                                 wal_fsync):
        events = self._record(tmp_path / "ds", fsync, wal_fsync)
        wal_on = fsync if wal_fsync is None else wal_fsync
        expected = 0
        renames = [i for i, e in enumerate(events) if e.op == "rename"]
        assert {events[i].path.parent.name for i in renames} == {"ds", "wal"}
        for i in renames:
            if wal_on if events[i].path.parent.name == "wal" else fsync:
                following = events[i + 1]
                assert (following.op, following.path, following.directory) \
                    == ("fsync", events[i].path.parent, True)
                expected += 1
        created = []
        for i, e in enumerate(events):
            if (e.op == "write" and e.path.name.startswith("seg-")
                    and e.path not in {events[j].path for j in created}):
                created.append(i)  # the segment's header write
        assert len(created) >= 2
        if wal_on:
            # The WAL directory's own entry, then each new segment's.
            first = events[created[0] - 1]
            assert (first.op, first.path.name, first.directory) \
                == ("fsync", "ds", True)
            for i in created:
                assert [(x.op, x.directory) for x in events[i + 1:i + 3]] \
                    == [("fsync", False), ("fsync", True)]
                assert events[i + 2].path == events[i].path.parent
            expected += 1 + len(created)
        assert sum(e.directory for e in events) == expected


class TestManifestEncoding:
    def test_documents_are_compact(self, tmp_path):
        store, _, _ = make_store(tmp_path / "ds")
        store.close()
        blob = (tmp_path / "ds" / "manifest.json").read_bytes()
        assert b"\n" not in blob and b'": ' in blob
        assert blob == encode_manifest(json.loads(blob))

    def test_indented_documents_open_and_read_unchanged(self, tmp_path):
        """Every store written before the compact encoding has an
        indented manifest; it opens, reads and updates unchanged."""
        directory = tmp_path / "ds"
        store, coords, values = make_store(directory)
        store.write(coords[:5], values[:5] + 1.0)
        store.close()
        path = directory / "manifest.json"
        doc = json.loads(path.read_text())
        path.write_text(json.dumps(doc, indent=1) + "\n")

        reopened = FragmentStore(directory, (32, 32), "LINEAR")
        assert len(reopened.fragments) == 2
        out = reopened.read_points(coords)
        assert out.found.all()
        expected = values.copy()
        expected[:5] += 1.0
        np.testing.assert_array_equal(out.values, expected)
        reopened.compact()
        reopened.close()
        assert b"\n" not in (directory / "manifest.json").read_bytes()
        again = FragmentStore(directory, (32, 32), "LINEAR")
        np.testing.assert_array_equal(again.read_points(coords).values,
                                      expected)

    def test_indented_sharded_manifests_open_unchanged(self, tmp_path):
        directory = tmp_path / "sh"
        store = ShardedStore(directory, (32, 32), "LINEAR", n_shards=2)
        rng = np.random.default_rng(1)
        lin = rng.choice(32 * 32, size=40, replace=False)
        coords = np.column_stack([lin // 32, lin % 32]).astype(np.uint64)
        values = rng.random(40)
        store.write(coords, values)
        store.close()
        path = directory / "manifest.json"
        doc = json.loads(path.read_text())
        assert doc["bands"]
        path.write_text(json.dumps(doc, indent=1))

        reopened = ShardedStore(directory, (32, 32), "LINEAR", n_shards=2)
        out = reopened.read_points(coords)
        assert out.found.all()
        np.testing.assert_array_equal(out.values, values)


class TestRetryPolicy:
    """There is no retry policy: a read fails on its first attempt."""

    def test_exhausted_retries_reraise(self, tmp_path):
        store, coords, _ = make_store(tmp_path / "ds")
        plan = FaultPlan([FaultRule(op="read", pattern="frag-*", times=None)])
        with inject(plan), pytest.raises(FragmentIOError):
            store.read_points(coords)
        assert len(plan.fired) == 1  # one attempt, no retry

    def test_checksum_error_never_retried(self, tmp_path):
        store, coords, _ = make_store(tmp_path / "ds")
        corrupt_file(store.fragments[0].path)
        recorder = OpRecorder()
        with inject(recorder), pytest.raises(ChecksumError):
            store.read_points(coords)
        assert [e.op for e in recorder.events] == ["read"]


class TestCorruptionPolicies:
    def test_invalid_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            FragmentStore(tmp_path / "ds", (8, 8), "LINEAR",
                          options=StoreOptions(on_corruption="ignore"))

    def test_raise_policy_propagates_checksum_error(self, tmp_path):
        store, coords, _ = make_store(tmp_path / "ds")
        corrupt_file(store.fragments[0].path)
        with pytest.raises(ChecksumError):
            store.read_points(coords)

    def test_skip_policy_serves_surviving_fragments(self, tmp_path):
        store, coords, values = make_store(
            tmp_path / "ds", options=StoreOptions(on_corruption="skip")
        )
        # Second fragment with disjoint data remains readable.
        coords2 = coords.copy()
        values2 = values + 10.0
        store.write(coords2, values2)
        corrupt_file(store.fragments[0].path)
        with pytest.warns(UserWarning, match="skipped"):
            out = store.read_points(coords)
        assert out.found.all()  # later fragment covers the same points
        assert np.allclose(out.values, values2)
        assert store.corrupt_fragments == 1
        assert len(store.fragments) == 2  # skip never de-lists

    def test_quarantine_policy_moves_file_and_delists(self, tmp_path):
        store, coords, values = make_store(
            tmp_path / "ds", options=StoreOptions(on_corruption="quarantine")
        )
        store.write(coords, values + 1.0)
        bad = store.fragments[0].path
        corrupt_file(bad)
        with pytest.warns(UserWarning, match="quarantined"):
            out = store.read_points(coords)
        assert out.found.all()
        assert not bad.exists()
        qdir = tmp_path / "ds" / ".quarantine"
        assert (qdir / bad.name).exists()
        assert (qdir / (bad.name + ".reason")).exists()
        assert len(store.fragments) == 1
        # The manifest no longer lists the quarantined fragment.
        reloaded = FragmentStore(tmp_path / "ds", (32, 32), "LINEAR")
        assert len(reloaded.fragments) == 1
        assert fsck(tmp_path / "ds").clean

    def test_read_box_honors_policy(self, tmp_path):
        store, coords, values = make_store(
            tmp_path / "ds", options=StoreOptions(on_corruption="skip")
        )
        store.write(coords, values + 1.0)
        corrupt_file(store.fragments[0].path)
        with pytest.warns(UserWarning):
            got = store.read_box(Box((0, 0), (32, 32)))
        assert got.nnz > 0

    def test_compact_quarantines_and_merges_survivors(self, tmp_path):
        store, coords, values = make_store(
            tmp_path / "ds", options=StoreOptions(on_corruption="quarantine")
        )
        far = coords.copy()
        far[:, 0] = (far[:, 0] + 16) % 32
        store.write(far, values + 1.0)
        corrupt_file(store.fragments[0].path)
        with pytest.warns(UserWarning):
            store.compact()
        assert len(store.fragments) == 1
        assert store.corrupt_fragments == 1
        out = store.read_points(far)
        assert out.found.all()
        assert fsck(tmp_path / "ds").clean

    def test_compact_raise_policy_aborts_untouched(self, tmp_path):
        store, coords, values = make_store(tmp_path / "ds")
        store.write(coords, values + 1.0)
        corrupt_file(store.fragments[0].path)
        with pytest.raises(ChecksumError):
            store.compact()
        assert len(store.fragments) == 2  # nothing deleted

    def test_corrupt_counter_lands_in_obs(self, tmp_path):
        from repro import obs

        obs.enable()
        obs.reset()
        store, coords, _ = make_store(
            tmp_path / "ds", options=StoreOptions(on_corruption="skip")
        )
        corrupt_file(store.fragments[0].path)
        with pytest.warns(UserWarning):
            store.read_points(coords)
        snap = obs.snapshot()
        hits = [
            m for m in snap["counters"]
            if m["name"] == "store.corrupt_fragments"
        ]
        assert hits and hits[0]["value"] >= 1


class TestFsck:
    def test_clean_store(self, tmp_path):
        make_store(tmp_path / "ds")
        report = fsck(tmp_path / "ds")
        assert report.clean
        assert report.checked == 1
        assert report.ok == ["frag-000000.bin"]

    def test_detects_corruption(self, tmp_path):
        store, *_ = make_store(tmp_path / "ds")
        corrupt_file(store.fragments[0].path)
        report = fsck(tmp_path / "ds")
        assert not report.clean
        assert report.issues_of("corrupt")

    def test_detects_missing_and_extra(self, tmp_path):
        store, coords, values = make_store(tmp_path / "ds")
        store.write(coords, values)
        # Delete one committed fragment; orphan another by renaming.
        store.fragments[0].path.unlink()
        report = fsck(tmp_path / "ds")
        assert len(report.issues_of("missing")) == 1

    def test_repair_quarantines_never_deletes(self, tmp_path):
        store, coords, values = make_store(tmp_path / "ds")
        store.write(coords, values)
        bad = store.fragments[0].path
        corrupt_file(bad)
        report = fsck(tmp_path / "ds", repair=True)
        assert report.repaired
        assert not bad.exists()
        assert (tmp_path / "ds" / ".quarantine" / bad.name).exists()
        # Post-repair the store is clean and serves the surviving fragment.
        assert fsck(tmp_path / "ds").clean
        reloaded = FragmentStore(tmp_path / "ds", (32, 32), "LINEAR")
        assert len(reloaded.fragments) == 1

    def test_repair_recovers_uncommitted_fragment(self, tmp_path):
        store, coords, values = make_store(tmp_path / "ds")
        # Simulate a crash after the fragment rename but before the
        # manifest commit: put a valid fragment file outside the manifest.
        committed = {
            path: path.read_bytes()
            for path in (tmp_path / "ds").glob("manifest.*")
        }
        store.write(coords, values + 5.0)
        for path, blob in committed.items():  # roll the manifest back
            path.write_bytes(blob)
        with pytest.warns(UserWarning, match="not in the manifest"):
            reopened = FragmentStore(tmp_path / "ds", (32, 32), "LINEAR")
        assert len(reopened.fragments) == 1  # consistent committed prefix
        report = fsck(tmp_path / "ds", repair=True)
        assert [i for i in report.issues if i.repaired == "recovered"]
        recovered = FragmentStore(tmp_path / "ds", (32, 32), "LINEAR")
        assert len(recovered.fragments) == 2
        out = recovered.read_points(coords)
        assert np.allclose(out.values, values + 5.0)

    def test_repair_removes_stale_tmp(self, tmp_path):
        make_store(tmp_path / "ds")
        stale = tmp_path / "ds" / "frag-000001.bin.tmp"
        stale.write_bytes(b"torn")
        report = fsck(tmp_path / "ds", repair=True)
        assert not stale.exists()
        assert [i for i in report.issues if i.kind == "tmp"]

    def test_store_fsck_method_reloads_after_repair(self, tmp_path):
        store, coords, values = make_store(tmp_path / "ds")
        store.write(coords, values)
        corrupt_file(store.fragments[0].path)
        report = store.fsck(repair=True)
        assert report.repaired
        assert len(store.fragments) == 1
        # Appending after the repair picks a fresh sequence number.
        store.write(coords, values)
        assert len(store.fragments) == 2

    def test_fsck_missing_directory(self, tmp_path):
        with pytest.raises(ManifestError):
            fsck(tmp_path / "nope")

    def test_fsck_json_roundtrip(self, tmp_path):
        make_store(tmp_path / "ds")
        report = fsck(tmp_path / "ds")
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["clean"] is True
        assert payload["checked"] == 1


class TestStaleDataStaysGone:
    """Superseded or foreign fragment bytes never come back as live data."""

    CELL = np.array([[3, 4]], dtype=np.uint64)

    def _two_writes(self, directory):
        store = FragmentStore(directory, (8, 8), "LINEAR")
        store.write(self.CELL, np.array([1.0]))
        store.write(self.CELL, np.array([2.0]))
        return store

    def _read(self, directory):
        out = FragmentStore(directory, (8, 8), "LINEAR").read_points(self.CELL)
        return out.values.tolist()

    def test_fsck_does_not_relist_a_superseded_compaction_source(
        self, tmp_path
    ):
        directory = tmp_path / "ds"
        store = self._two_writes(directory)
        # The source's unlink fails after the compaction committed.
        unlink = FaultRule(op="unlink", pattern="frag-000000.bin")
        with inject(FaultPlan([unlink])):
            store.compact()
        store.close()
        report = fsck(directory, repair=True)
        [issue] = report.issues_of("extra")
        assert issue.name == "frag-000000.bin"
        assert "superseded" in issue.detail
        assert issue.repaired == "quarantined"
        assert self._read(directory) == [2.0]
        assert fsck(directory).clean

    def test_fsck_does_not_relist_a_migration_cut_before_its_commit(
        self, tmp_path
    ):
        directory = tmp_path / "ds"
        store = self._two_writes(directory)
        # Crash between the replacement's file and the manifest commit.
        crash = CrashPlan([FaultRule(op="write", pattern="manifest.*")])
        with inject(crash), pytest.raises(OSError):
            store.migrate_fragment(0, "COO")
        assert (directory / "frag-000002.bin").exists()
        report = fsck(directory, repair=True)
        [issue] = report.issues_of("extra")
        assert issue.name == "frag-000002.bin"
        assert "superseded" in issue.detail
        assert self._read(directory) == [2.0]

    @pytest.mark.parametrize("rebuild", ["reopen", "fsck"])
    def test_lost_manifest_keeps_a_migrated_fragment_in_its_slot(
        self, tmp_path, rebuild
    ):
        """A migration's replacement takes a higher file number but holds
        the older write's points: a rebuild without the manifest orders
        it by the slot its header records, not by its file name."""
        directory = tmp_path / "ds"
        store = self._two_writes(directory)
        store.migrate_fragment(0, "COO")
        store.close()
        (directory / "manifest.json").unlink()
        (directory / "manifest.log").unlink()
        if rebuild == "fsck":
            report = fsck(directory, repair=True)
            assert len(report.issues_of("extra")) == 2
            entries = load_manifest(directory).doc["fragments"]
            assert [(e["file"], e.get("seq")) for e in entries] == [
                ("frag-000002.bin", 0), ("frag-000001.bin", None),
            ]
        # Without a manifest the constructor rebuilds it (fsck --repair).
        reopened = FragmentStore(directory, (8, 8), "LINEAR")
        assert [f.path.name for f in reopened.fragments] == [
            "frag-000002.bin", "frag-000001.bin",
        ]
        assert reopened.fragments[0].seq == 0
        assert reopened.read_points(self.CELL).values.tolist() == [2.0]
        reopened.close()
        assert self._read(directory) == [2.0]

    def _compacted_under_retention(self, directory):
        """Two cells written as 1.0, then as 2.0, then compacted with
        retention on: 1 live fragment, 2 retired ones, nnz 2."""
        store = FragmentStore(
            directory, (8, 8), "LINEAR",
            options=StoreOptions(retain_generations=2),
        )
        cells = np.array([[3, 4], [5, 6]], dtype=np.uint64)
        store.write(cells, np.array([1.0, 1.0]))
        store.write(cells, np.array([2.0, 2.0]))
        store.compact()
        assert [f.path.name for f in store.fragments] == ["frag-000002.bin"]
        store.close()
        return cells

    @pytest.mark.parametrize("rebuild", ["reopen", "fsck"])
    def test_lost_manifest_lists_only_the_live_fragments(
        self, tmp_path, rebuild
    ):
        """A rebuild without the manifest once relisted the retained
        compaction sources as live: 3 fragments and nnz 6, where the
        store had 1 and 2.  They are superseded, so they go to
        quarantine."""
        directory = tmp_path / "ds"
        cells = self._compacted_under_retention(directory)
        (directory / "manifest.json").unlink()
        (directory / "manifest.log").unlink()
        if rebuild == "fsck":
            report = fsck(directory, repair=True)
            assert {
                i.name: i.repaired for i in report.issues_of("extra")
            } == {
                "frag-000000.bin": "quarantined",
                "frag-000001.bin": "quarantined",
                "frag-000002.bin": "recovered",
            }
            store = FragmentStore(directory, (8, 8), "LINEAR")
        else:
            with pytest.warns(UserWarning, match="quarantined 2 of them"):
                store = FragmentStore(directory, (8, 8), "LINEAR")
        assert [f.path.name for f in store.fragments] == ["frag-000002.bin"]
        assert store.nnz == 2
        assert store.read_points(cells).values.tolist() == [2.0, 2.0]
        quarantine = directory / ".quarantine"
        for name in ("frag-000000.bin", "frag-000001.bin"):
            assert (quarantine / name).exists()
            reason = (quarantine / f"{name}.reason").read_text()
            assert "superseded: older than compaction output " \
                "frag-000002.bin" in reason
        store.close()
        assert fsck(directory).clean

    def test_lost_manifest_after_a_compaction_chain_keeps_the_live_set(
        self, tmp_path
    ):
        """Compact, write, migrate the compacted fragment, write, compact
        again, all under retention: after every step, a rebuild without
        the manifest lists the live fragments the store listed."""
        directory = tmp_path / "ds"
        store = FragmentStore(
            directory, (8, 8), "LINEAR",
            options=StoreOptions(retain_generations=2),
        )
        other = np.array([[1, 1]], dtype=np.uint64)
        cells = np.vstack([self.CELL, other])
        store.write(self.CELL, np.array([1.0]))
        store.write(self.CELL, np.array([2.0]))
        steps = [
            store.compact,
            lambda: store.write(other, np.array([3.0])),
            lambda: store.migrate_fragment(0, "COO"),
            lambda: store.write(self.CELL, np.array([4.0])),
            store.compact,
        ]
        for i, step in enumerate(steps):
            step()
            copy = tmp_path / f"lost-{i}"
            shutil.copytree(directory, copy)
            (copy / "manifest.json").unlink()
            (copy / "manifest.log").unlink()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                rebuilt = FragmentStore(copy, (8, 8), "LINEAR")
            assert [f.path.name for f in rebuilt.fragments] == [
                f.path.name for f in store.fragments
            ], f"after step {i}"
            want = store.read_points(cells)
            got = rebuilt.read_points(cells)
            assert got.found.tolist() == want.found.tolist()
            assert got.values.tolist() == want.values.tolist()
            rebuilt.close()
        assert [f.path.name for f in store.fragments] == ["frag-000006.bin"]

    def test_gc_after_a_repair_keeps_the_live_files(self, tmp_path):
        """The explicit rebuild reloads the store from what it wrote, so
        the retained sources stay retired and GC deletes only them."""
        directory = tmp_path / "ds"
        cells = self._compacted_under_retention(directory)
        store = FragmentStore(
            directory, (8, 8), "LINEAR",
            options=StoreOptions(retain_generations=2),
        )
        assert store.fsck(repair=True).clean
        assert store.gc(keep_generations=0) == 2
        assert [f.path.name for f in store.fragments] == ["frag-000002.bin"]
        assert store.read_points(cells).values.tolist() == [2.0, 2.0]
        assert fsck(directory).clean

    @pytest.mark.parametrize("then", ["fsck", "write, lose the manifest"])
    @pytest.mark.parametrize("crash_at", ["frag-000002.bin.tmp", "manifest.*"])
    def test_fsck_recovers_a_write_many_whole_or_not_at_all(
        self, tmp_path, crash_at, then
    ):
        """A crash inside one ``write_many`` commit: fsck once recovered
        the files that had reached the disk, so part of the batch became
        durable.  Each file names the commit's last file; without it the
        batch is uncommitted.  A store reopened without fsck skips the
        numbers the torn batch named, so its next write cannot pass for
        the batch's last file when the manifest is lost later."""
        directory = tmp_path / "ds"
        store = FragmentStore(directory, (8, 8), "LINEAR")
        other = np.array([[1, 1]], dtype=np.uint64)
        parts = [
            (self.CELL, np.array([1.0])),
            (other, np.array([2.0])),
            (self.CELL, np.array([3.0])),
        ]
        crash = CrashPlan([FaultRule(op="write", pattern=crash_at)])
        with inject(crash), pytest.raises(OSError):
            store.write_many(parts, max_workers=0)
        if then == "fsck":
            extras = fsck(directory, repair=True).issues_of("extra")
            cell = 3.0
        else:
            with pytest.warns(UserWarning, match="not in the manifest"):
                later = FragmentStore(directory, (8, 8), "LINEAR")
            later.write(self.CELL, np.array([4.0]))
            later.close()
            (directory / "manifest.json").unlink()
            (directory / "manifest.log").unlink()
            *extras, written = fsck(directory, repair=True).issues_of("extra")
            assert written.repaired == "recovered"
            cell = 4.0
        reopened = FragmentStore(directory, (8, 8), "LINEAR")
        out = reopened.read_points(np.vstack([self.CELL, other]))
        if crash_at == "manifest.*":  # every file on disk: all recovered
            assert [i.repaired for i in extras] == ["recovered"] * 3
            assert out.values.tolist() == [cell, 2.0]
        else:
            assert [(i.name, i.repaired) for i in extras] == [
                ("frag-000000.bin", "quarantined"),
                ("frag-000001.bin", "quarantined"),
            ]
            assert all(
                i.detail == "uncommitted: its commit never wrote its last "
                "file frag-000002.bin" for i in extras
            )
            if then == "fsck":
                assert reopened.fragments == ()
                assert not out.found.any()
            else:  # only the later write is live
                assert [f.path.name for f in reopened.fragments] == [
                    "frag-000003.bin",
                ]
                assert out.found.tolist() == [True, False]
                assert out.values[0] == cell
        assert fsck(directory).clean

    def test_a_later_batch_never_ends_on_a_torn_batch_number(self, tmp_path):
        """A three-part ``write_many`` killed after its first file, then a
        two-part one in a store reopened without fsck: had the second
        batch reused the torn one's numbers, its last file would carry
        the same ``commit_end`` and vouch for the torn batch's first file
        once the manifest is lost."""
        directory = tmp_path / "ds"
        store = FragmentStore(directory, (8, 8), "LINEAR")
        rows = np.arange(5, dtype=np.uint64)
        cells = np.column_stack([rows, rows])
        parts = [(cells[i:i + 1], np.array([float(i)])) for i in range(5)]
        crash = CrashPlan([FaultRule(op="write", pattern="frag-000001.bin*")])
        with inject(crash), pytest.raises(OSError):
            store.write_many(parts[:3], max_workers=0)
        with pytest.warns(UserWarning, match="not in the manifest"):
            later = FragmentStore(directory, (8, 8), "LINEAR")
        later.write_many(parts[3:], max_workers=0)
        later.close()
        (directory / "manifest.json").unlink()
        (directory / "manifest.log").unlink()
        fsck(directory, repair=True)
        out = FragmentStore(directory, (8, 8), "LINEAR").read_points(cells)
        assert out.found.tolist() == [False, False, False, True, True]

    def test_fsck_recovers_an_orphan_newer_than_every_listed(self, tmp_path):
        directory = tmp_path / "ds"
        store = self._two_writes(directory)
        crash = CrashPlan([FaultRule(op="write", pattern="manifest.*")])
        with inject(crash), pytest.raises(OSError):
            store.write(self.CELL, np.array([3.0]))
        report = fsck(directory, repair=True)
        [issue] = report.issues_of("extra")
        assert issue.repaired == "recovered"
        assert self._read(directory) == [3.0]

    def test_swapped_fragment_files_fail_their_crc(self, tmp_path):
        directory = tmp_path / "ds"
        self._two_writes(directory).close()
        a, b = directory / "frag-000000.bin", directory / "frag-000001.bin"
        blob_a, blob_b = a.read_bytes(), b.read_bytes()
        assert len(blob_a) == len(blob_b)  # both intact, same size
        a.write_bytes(blob_b)
        b.write_bytes(blob_a)
        report = fsck(directory)
        assert {i.name for i in report.issues_of("corrupt")} == {a.name, b.name}
        with pytest.raises(ChecksumError):
            FragmentStore(directory, (8, 8), "LINEAR").read_points(self.CELL)

    def test_residue_crc_of_old_manifests_reads_as_none(self, tmp_path):
        directory = tmp_path / "ds"
        self._two_writes(directory).close()
        manifest = directory / "manifest.json"
        doc = json.loads(manifest.read_text())
        for entry in doc["fragments"]:
            entry["crc"] = CRC32_RESIDUE  # what earlier versions recorded
        manifest.write_text(json.dumps(doc))
        store = FragmentStore(directory, (8, 8), "LINEAR")
        assert [f.crc for f in store.fragments] == [None, None]
        assert store.read_points(self.CELL).values.tolist() == [2.0]
        assert fsck(directory).clean


class TestRescanRobustness:
    """A rebuild from the fragment files (an open without
    ``manifest.json``, or ``store.fsck(repair=True)``) survives torn and
    temporary files."""

    def test_rebuild_quarantines_truncated_fragment(self, tmp_path):
        store, coords, values = make_store(tmp_path / "ds")
        store.write(coords, values)
        # Truncate the second fragment inside its header.
        frag = store.fragments[1].path
        frag.write_bytes(frag.read_bytes()[:6])
        (tmp_path / "ds" / "manifest.json").unlink()
        with pytest.warns(UserWarning, match="quarantined 1 of them: "
                          "frag-000001.bin .unlisted and unreadable"):
            reopened = FragmentStore(tmp_path / "ds", (32, 32), "LINEAR")
        assert len(reopened.fragments) == 1
        assert (tmp_path / "ds" / ".quarantine" / frag.name).exists()
        out = reopened.read_points(coords)
        assert out.found.all()

    def test_rescan_ignores_tmp_files(self, tmp_path):
        store, *_ = make_store(tmp_path / "ds")
        (tmp_path / "ds" / "frag-000001.bin.tmp").write_bytes(b"torn")
        store.fsck(repair=True)
        assert len(store.fragments) == 1
        assert not (tmp_path / "ds" / "frag-000001.bin.tmp").exists()

    def test_rescan_records_crc(self, tmp_path):
        store, *_ = make_store(tmp_path / "ds")
        (tmp_path / "ds" / "manifest.json").unlink()
        reopened = FragmentStore(tmp_path / "ds", (32, 32), "LINEAR")
        frag = reopened.fragments[0]
        assert frag.crc == fragment_file_crc(frag.path.read_bytes())


class TestQuarantineHelper:
    def test_collision_suffix(self, tmp_path):
        a = tmp_path / "f.bin"
        a.write_bytes(b"one")
        quarantine_file(tmp_path, a, reason="r1")
        b = tmp_path / "f.bin"
        b.write_bytes(b"two")
        target = quarantine_file(tmp_path, b, reason="r2")
        assert target.name == "f.bin.1"
        assert (tmp_path / ".quarantine" / "f.bin").read_bytes() == b"one"
        assert target.read_bytes() == b"two"
