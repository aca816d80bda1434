"""Crash-consistency: kill the commit path at every I/O op and recover.

The suite first runs a deterministic three-write workload under
:class:`~repro.testing.faults.OpRecorder` to enumerate every durability-layer
op (the injection points).  It then replays the workload once per point —
plus torn-write variants at several byte offsets — with a plan that kills
exactly that op, and asserts the invariant from docs/DURABILITY.md:

* reopening the store always succeeds and yields a *consistent prefix* of
  the committed writes (every listed fragment fully readable, in order);
* ``fsck --repair`` restores a clean manifest, recovering readable orphan
  fragments and quarantining unreadable ones — never silently dropping a
  fragment file.
"""

import warnings

import numpy as np
import pytest

from repro.storage import FragmentStore, StoreOptions, fsck
from repro.storage.durability import load_manifest
from repro.testing.faults import (
    CrashPlan,
    FaultEvent,
    FaultPlan,
    FaultRule,
    OpRecorder,
    inject,
    plan_for_crash_point,
)

SHAPE = (32, 32)
N_WRITES = 3


def part(j):
    """Write ``j``'s payload: 10 points on row ``j``, disjoint per write."""
    coords = np.column_stack(
        [np.full(10, j, dtype=np.uint64), np.arange(10, dtype=np.uint64)]
    )
    values = float(j * 100) + np.arange(10, dtype=float)
    return coords, values


def run_workload(directory):
    """The deterministic workload: open an empty store, commit 3 fragments."""
    store = FragmentStore(directory, SHAPE, "LINEAR")
    for j in range(N_WRITES):
        coords, values = part(j)
        store.write(coords, values)


def reopen(directory):
    with warnings.catch_warnings():
        # A crash between fragment rename and manifest commit leaves an
        # orphan fragment file; the open warns about it by design.
        warnings.simplefilter("ignore", UserWarning)
        return FragmentStore(directory, SHAPE, "LINEAR")


def record_injection_points(tmp_path):
    recorder = OpRecorder()
    with inject(recorder):
        run_workload(tmp_path / "record")
    return recorder.events


def assert_consistent_prefix(store):
    """Every committed fragment is intact and they form a write prefix."""
    k = len(store.fragments)
    assert k <= N_WRITES
    for j, frag in enumerate(store.fragments):
        assert frag.path.name == f"frag-{j:06d}.bin"
        coords, values = part(j)
        out = store.read_points(coords)
        assert out.found.all(), f"fragment {j} lost committed points"
        assert np.allclose(out.values, values)
    # Writes after the prefix are absent entirely.
    for j in range(k, N_WRITES):
        coords, _ = part(j)
        assert not store.read_points(coords).found.any()
    return k


def assert_nothing_silently_dropped(directory, before_repair):
    """Every fragment file present before repair is accounted for."""
    manifest_listed = {f.path.name for f in reopen(directory).fragments}
    quarantined = {
        p.name for p in (directory / ".quarantine").glob("frag-*.bin*")
        if not p.name.endswith(".reason")
    }
    for name in before_repair:
        assert name in manifest_listed or any(
            q == name or q.startswith(name + ".") for q in quarantined
        ), f"{name} vanished without manifest entry or quarantine"


def crash_and_recover(tmp_path, events, index, torn_bytes=None,
                      workload=run_workload):
    directory = tmp_path / f"crash-{index}-{torn_bytes}"
    plan = plan_for_crash_point(events, index, torn_bytes=torn_bytes)
    with inject(plan), pytest.raises(OSError):
        workload(directory)
    assert plan.fired, "the planned fault never triggered"

    store = reopen(directory)
    k = assert_consistent_prefix(store)

    frag_files = sorted(
        p.name for p in directory.glob("frag-*.bin")
    )
    report = fsck(directory, repair=True)
    assert report.repaired
    assert fsck(directory).clean
    assert_nothing_silently_dropped(directory, frag_files)

    # The repaired store is fully usable: at least the prefix survives
    # (an orphan of write k may have been recovered on top of it).
    repaired = reopen(directory)
    assert len(repaired.fragments) >= k
    for j in range(k):
        coords, values = part(j)
        out = repaired.read_points(coords)
        assert out.found.all()
        assert np.allclose(out.values, values)
    return k


class TestInjectionPointEnumeration:
    def test_recorded_op_sequence_shape(self, tmp_path):
        events = record_injection_points(tmp_path)
        # Open of an empty store checkpoints the manifest (write +
        # rename); each write commits a fragment, then appends one record
        # to the manifest log (3 ops).
        assert len(events) == 2 + 3 * N_WRITES
        assert [e.op for e in events[:2]] == ["write", "rename"]
        assert events[0].path.name == "manifest.json.tmp"
        assert events[1].path.name == "manifest.json"
        for j in range(N_WRITES):
            chunk = events[2 + 3 * j : 5 + 3 * j]
            assert [e.op for e in chunk] == ["write", "rename", "write"]
            assert chunk[0].path.name == f"frag-{j:06d}.bin.tmp"
            assert chunk[1].path.name == f"frag-{j:06d}.bin"
            assert chunk[2].path.name == "manifest.log"

    def test_fsync_ops_recorded_when_enabled(self, tmp_path):
        recorder = OpRecorder()
        with inject(recorder):
            store = FragmentStore(tmp_path / "ds", SHAPE, "LINEAR",
                                  options=StoreOptions(fsync=True))
            store.write(*part(0))
        assert any(e.op == "fsync" for e in recorder.events)


class TestCrashAtEveryPoint:
    def test_every_injection_point_recovers(self, tmp_path):
        events = record_injection_points(tmp_path)
        prefix_sizes = []
        for index in range(len(events)):
            prefix_sizes.append(crash_and_recover(tmp_path, events, index))
        # Sanity on coverage: early crashes commit nothing, the last
        # possible crash (final manifest rename) has all but one write.
        assert prefix_sizes[0] == 0
        assert max(prefix_sizes) == N_WRITES - 1
        assert sorted(set(prefix_sizes)) == list(range(N_WRITES))

    def test_torn_writes_at_byte_offsets(self, tmp_path):
        events = record_injection_points(tmp_path)
        write_indices = [
            i for i, e in enumerate(events) if e.op == "write"
        ]
        for index in write_indices:
            for torn in (0, 1, 100):
                crash_and_recover(tmp_path, events, index, torn_bytes=torn)

    def test_crash_then_continue_appending(self, tmp_path):
        """After recovery the store keeps working — fresh writes land."""
        events = record_injection_points(tmp_path)
        # Kill the manifest commit of the last write: fragment orphaned.
        directory = tmp_path / "resume"
        plan = plan_for_crash_point(events, len(events) - 1)
        with inject(plan), pytest.raises(OSError):
            run_workload(directory)
        store = reopen(directory)
        k = len(store.fragments)
        coords = np.column_stack(
            [np.full(5, 31, dtype=np.uint64),
             np.arange(5, dtype=np.uint64)]
        )
        store.write(coords, np.ones(5))
        # The new fragment must not reuse the orphan's sequence number.
        names = [f.path.name for f in store.fragments]
        assert len(names) == len(set(names)) == k + 1
        orphan = f"frag-{N_WRITES - 1:06d}.bin"
        assert orphan not in names  # still on disk
        assert (directory / orphan).exists()
        # A write committed after it, so the orphan is superseded: fsck
        # quarantines it instead of relisting it above the newer write.
        report = fsck(directory, repair=True)
        [issue] = [i for i in report.issues if i.name == orphan]
        assert issue.repaired == "quarantined"
        assert "superseded" in issue.detail
        recovered = reopen(directory)
        assert recovered.read_points(coords).found.all()
        assert not recovered.read_points(part(N_WRITES - 1)[0]).found.any()
        assert fsck(directory).clean


class TestSeededSoak:
    def test_seeded_faults_deterministic(self, tmp_path):
        from repro.testing.faults import SeededFaults

        runs = []
        for _ in range(2):
            faults = SeededFaults(seed=99, p=0.5, ops=("write", "rename"))
            with inject(faults), warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                try:
                    run_workload(tmp_path / f"det-{len(runs)}-{_}")
                except OSError:
                    pass
            runs.append([(e.op, e.path.name) for e in faults.fired])
        assert runs[0] == runs[1]
        assert runs[0]  # the seed actually fired something


class TestCompressedCrashConsistency:
    """Crash coverage for cascade-coded stores (docs/COMPRESSION.md).

    The same kill-every-op discipline as above, but the fragments carry
    compressed buffers: torn compressed payloads must fail CRC (the CRC
    covers bytes-on-disk) and be quarantined, a killed manifest commit
    must leave the compressed orphan recoverable with its codec map
    re-derived from the fragment header, and fsck must report per-codec
    bytes in both the summary and the JSON output.
    """

    @staticmethod
    def run_cascade(directory):
        from repro.storage import StoreOptions

        store = FragmentStore(
            directory, SHAPE, "LINEAR",
            options=StoreOptions(codec="cascade"),
        )
        for j in range(N_WRITES):
            store.write(*part(j))

    def record(self, tmp_path):
        recorder = OpRecorder()
        with inject(recorder):
            self.run_cascade(tmp_path / "record-cascade")
        return recorder.events

    def test_workload_actually_compresses(self, tmp_path):
        """Guard: row-major row writes give unit-stride addresses, so the
        cascade must pick a delta chain (else this class tests nothing)."""
        directory = tmp_path / "guard"
        self.run_cascade(directory)
        store = reopen(directory)
        tags = set(store.compression_stats()["by_codec"])
        assert tags - {"raw"}, tags

    def test_crash_mid_compressed_fragment_write(self, tmp_path):
        events = self.record(tmp_path)
        frag_writes = [
            i for i, e in enumerate(events)
            if e.op == "write" and e.path.name.startswith("frag-")
        ]
        assert len(frag_writes) == N_WRITES
        for index in frag_writes:
            for torn in (None, 1, 100):
                crash_and_recover(
                    tmp_path, events, index, torn_bytes=torn,
                    workload=self.run_cascade,
                )

    def test_crash_mid_manifest_commit_recovers_codecs(self, tmp_path):
        """Kill the codec-bearing manifest commit: the orphaned
        compressed fragment is recovered with its codecs map rebuilt
        from the fragment header, not lost with the manifest."""
        import json

        events = self.record(tmp_path)
        directory = tmp_path / "manifest-crash"
        plan = plan_for_crash_point(events, len(events) - 1)
        with inject(plan), pytest.raises(OSError):
            self.run_cascade(directory)
        report = fsck(directory, repair=True)
        assert [i for i in report.issues if i.repaired == "recovered"]
        manifest = json.loads((directory / "manifest.json").read_text())
        recovered = manifest["fragments"][-1]
        assert recovered["codecs"], "recovered orphan lost its codec map"
        assert set(recovered["codecs"]) - {"raw"}
        store = reopen(directory)
        assert assert_consistent_prefix(store) == N_WRITES

    def test_fsck_quarantines_torn_compressed_buffer(self, tmp_path):
        """A compressed payload corrupted *under a valid trailing CRC*
        (the torn state a partial page write can leave) is caught — by
        the manifest's CRC, or by the decode pass where the manifest
        records none — and quarantined."""
        import struct
        import zlib

        from repro.storage import unpack_header

        directory = tmp_path / "torn-payload"
        self.run_cascade(directory)
        frag = reopen(directory).fragments[0].path
        blob = bytearray(frag.read_bytes())
        header, offset = unpack_header(bytes(blob))
        chains = {b["codec"] for b in header["buffers"]}
        assert chains - {"raw"}, "fixture regressed: nothing compressed"
        # The first buffer is the delta-bit-packed addresses payload; its
        # leading byte is the pack width.  (A ``drle`` or ``for`` payload
        # leads with a stored value instead, and flipping that byte
        # would decode silently.)  Corrupt it and re-stamp the trailing
        # CRC so only the decode pass can notice.
        first = header["buffers"][0]
        assert first["codec"] == "dbp", first
        assert first["nbytes"] > 0
        blob[offset] ^= 0xFF
        body = bytes(blob[:-4])
        blob[-4:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        frag.write_bytes(bytes(blob))

        report = fsck(directory)
        assert not report.clean
        [issue] = [i for i in report.issues if i.name == frag.name]
        assert "undecodable" in issue.detail or "checksum" in issue.detail
        repaired = fsck(directory, repair=True)
        assert repaired.repaired
        assert (directory / ".quarantine" / frag.name).exists()
        assert fsck(directory).clean

    #: CRC-valid address payloads (10 uint64 addresses) that decode to a
    #: numpy ValueError or MemoryError unless the decoder checks them.
    MALFORMED = {
        # pack width 65 > 64 bits, backed by enough bytes for 9 residuals
        "dbp-width-past-dtype": (
            "dbp", bytes([65]) + bytes(8) + bytes((9 * 65 + 7) // 8),
        ),
        # one run of 2**42 residuals where the header promises 9
        "drle-run-sum": (
            "drle",
            bytes(8) + (1).to_bytes(8, "little") + bytes([1, 64])
            + b"\x01" + (1 << 42).to_bytes(8, "little"),
        ),
    }

    @pytest.mark.parametrize("defect", sorted(MALFORMED))
    def test_fsck_quarantines_malformed_packed_buffer(
        self, tmp_path, monkeypatch, defect
    ):
        """A malformed bit-packed payload under a valid CRC is reported as
        undecodable, skipped by the read side under ``on_corruption``,
        and quarantined by ``--repair``."""
        from repro.storage import StoreOptions, compression

        chain, payload = self.MALFORMED[defect]
        encode_buffer = compression.encode_buffer

        def forge(arr, codec):
            if arr.dtype == np.uint64:  # the addresses; values are floats
                return payload, chain
            return encode_buffer(arr, codec)

        directory = tmp_path / defect
        store = FragmentStore(
            directory, SHAPE, "LINEAR",
            options=StoreOptions(codec="cascade"),
        )
        store.write(*part(0))
        with monkeypatch.context() as patch:
            patch.setattr(compression, "encode_buffer", forge)
            store.write(*part(1))
        bad = store.fragments[1].path

        report = fsck(directory)
        [issue] = report.issues
        assert issue.name == bad.name
        assert f"compressed buffer ({chain}) undecodable" in issue.detail

        skipping = FragmentStore(
            directory, SHAPE, "LINEAR",
            options=StoreOptions(on_corruption="skip"),
        )
        with pytest.warns(UserWarning, match="skipped"):
            out = skipping.read_points(np.vstack([part(0)[0], part(1)[0]]))
        assert out.found.tolist() == [True] * 10 + [False] * 10
        assert skipping.corrupt_fragments == 1

        assert fsck(directory, repair=True).repaired
        assert (directory / ".quarantine" / bad.name).exists()
        assert fsck(directory).clean

    def test_fsck_json_reports_codecs(self, tmp_path):
        directory = tmp_path / "json"
        self.run_cascade(directory)
        report = fsck(directory)
        assert report.clean
        as_dict = report.as_dict()
        assert as_dict["codecs"]
        assert set(as_dict["codecs"]) - {"raw"}
        assert sum(as_dict["codecs"].values()) > 0
        assert "codecs:" in report.summary()


class TestManifestSchemaUpgrade:
    """Crash coverage for the v1 -> v2 (zone-map) manifest bump.

    The planner lazily upgrades pre-zone-map manifests on first read
    (``backfill_zone_maps``); these tests pin that the upgrade commit is
    just as crash-safe as any other manifest commit: a killed commit
    never loses data or blocks reads, and the next open retries it.
    """

    @staticmethod
    def _make_v1(directory):
        """A committed 3-write store whose manifest predates zone maps
        (and so the manifest log: it has none)."""
        import json

        run_workload(directory)
        manifest = load_manifest(directory).doc
        manifest.pop("version", None)
        for entry in manifest["fragments"]:
            entry.pop("zone", None)
        (directory / "manifest.json").write_text(json.dumps(manifest))
        (directory / "manifest.log").unlink()

    def test_backfill_commit_crash_keeps_v1_readable(self, tmp_path):
        import json

        directory = tmp_path / "ds"
        self._make_v1(directory)
        store = reopen(directory)
        # Kill the manifest tmp-write the first read's backfill performs.
        plan = FaultPlan(
            [FaultRule(op="write", pattern="manifest.json.tmp", times=1)]
        )
        with inject(plan), pytest.warns(UserWarning, match="backfill"):
            out = store.read_points(part(0)[0])
        assert plan.fired, "the backfill commit was never attempted"
        # The read itself succeeded off the in-memory maps...
        assert out.found.all()
        # ...the on-disk manifest is untouched v1 (atomic commit)...
        manifest = load_manifest(directory).doc
        assert "version" not in manifest
        assert assert_consistent_prefix(reopen(directory)) == N_WRITES
        # ...and the next open's first read retries the upgrade.
        again = reopen(directory)
        assert again.read_points(part(1)[0]).found.all()
        manifest = load_manifest(directory).doc
        assert manifest["version"] == 2
        assert all(e["zone"] for e in manifest["fragments"])

    def test_v1_store_write_crash_then_upgrade(self, tmp_path):
        """A v1 store that crashes mid-write recovers, upgrades, and the
        fsck-recovered orphan gets its zone map re-backfilled."""
        import json

        directory = tmp_path / "ds"
        self._make_v1(directory)
        store = reopen(directory)
        extra_coords, extra_values = part(N_WRITES)
        # A crash: the dead process cannot delete the orphan either.
        plan = CrashPlan(
            [FaultRule(op="rename", pattern="manifest.json", times=1)]
        )
        with inject(plan), pytest.raises(OSError):
            store.write(extra_coords, extra_values)
        # Recovery: committed prefix intact; first read upgrades to v2.
        recovered = reopen(directory)
        assert assert_consistent_prefix(recovered) == N_WRITES
        manifest = load_manifest(directory).doc
        assert manifest["version"] == 2
        assert all(e["zone"] for e in manifest["fragments"])
        # fsck recovers the orphaned 4th fragment without a zone map...
        report = fsck(directory, repair=True)
        assert [i for i in report.issues if i.repaired == "recovered"]
        manifest = load_manifest(directory).doc
        assert any(e.get("zone") is None for e in manifest["fragments"])
        # ...and the next read re-backfills exactly that entry.
        final = reopen(directory)
        assert final.read_points(extra_coords).found.all()
        manifest = load_manifest(directory).doc
        assert all(e["zone"] for e in manifest["fragments"])
