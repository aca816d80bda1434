"""Unit tests for the write-ahead log, snapshots and retention GC."""

import json
import os
import struct
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.core import ShapeError
from repro.core.boundary import Box
from repro.storage import (
    FragmentStore,
    ShardedStore,
    StoreOptions,
    fsck,
)
from repro.storage import wal as wal_module
from repro.storage.durability import load_manifest
from repro.storage.wal import (
    TailRun,
    WriteAheadLog,
    build_tail_run,
    decode_header,
    decode_record_body,
    encode_header,
    encode_record,
    list_segments,
    scan_segment,
    wal_path,
)
from repro.testing.faults import OpRecorder, inject

SHAPE = (64, 64)


@pytest.fixture
def opts():
    return StoreOptions(wal_segment_bytes=512)


def chunk(rng, n, m=64):
    coords = np.column_stack(
        [rng.integers(0, m, n, dtype=np.uint64) for _ in range(2)]
    )
    return coords, rng.standard_normal(n)


class TestFraming:
    def test_header_round_trip(self):
        data = encode_header((3, 4, 5), 7)
        header, extent, reason = decode_header(data)
        assert header == {"shape": (3, 4, 5), "epoch": 7}
        assert extent == len(data)
        assert reason == ""

    def test_short_header_is_torn_not_corrupt(self):
        data = encode_header(SHAPE, 1)
        header, extent, reason = decode_header(data[:8])
        assert header is None and reason == ""

    def test_bad_magic_is_corrupt(self):
        data = b"XXXX" + encode_header(SHAPE, 1)[4:]
        header, _, reason = decode_header(data)
        assert header is None and "magic" in reason

    def test_record_round_trip_preserves_dtype(self):
        addrs = np.array([5, 1, 9], dtype=np.uint64)
        for dtype in (np.float64, np.float32, np.int32):
            values = np.arange(3, dtype=dtype)
            rec = encode_record(addrs, values)
            (blen,) = np.frombuffer(rec[:4], dtype=np.uint32)
            body = rec[4:4 + int(blen)]
            out_a, out_v = decode_record_body(body)
            assert np.array_equal(out_a, addrs)
            assert np.array_equal(out_v, values)
            assert out_v.dtype == np.dtype(dtype).newbyteorder("<")

    @pytest.mark.parametrize("n", [0, 1, 3, 100, 1001])
    @pytest.mark.parametrize(
        "dtype", ["<f8", "<f4", "<i8", "<i4", "|u1", "|b1", ">f8"]
    )
    def test_record_bytes_match_json_framing(self, n, dtype):
        """The meta is spelled out, not encoded, and must stay byte-
        identical to the ``json.dumps`` framing every segment on disk
        was written with."""
        rng = np.random.default_rng(n)
        addrs = rng.integers(0, 1 << 40, n).astype(np.uint64)
        values = (rng.random(n) * 100).astype(dtype)
        u32 = struct.Struct("<I")
        v = values.astype(values.dtype.newbyteorder("<"))
        meta = json.dumps(
            {"n": n, "value_dtype": v.dtype.str}, sort_keys=True
        ).encode("ascii")
        meta += b" " * ((-(4 + len(meta))) % 8)
        body = u32.pack(len(meta)) + meta + addrs.tobytes() + v.tobytes()
        expected = (
            u32.pack(len(body)) + body
            + u32.pack(zlib.crc32(body) & 0xFFFFFFFF)
        )
        assert encode_record(addrs, values) == expected
        # Strided inputs frame their values, not their memory layout.
        assert encode_record(
            np.repeat(addrs, 2)[::2], np.repeat(values, 2)[::2]
        ) == expected

    def test_record_addresses_are_aligned(self):
        rec = encode_record(
            np.array([1], dtype=np.uint64), np.array([1.0])
        )
        (blen,) = np.frombuffer(rec[:4], dtype=np.uint32)
        (mlen,) = np.frombuffer(rec[4:8], dtype=np.uint32)
        assert (4 + int(mlen)) % 8 == 0


class TestWriteAheadLog:
    def test_append_replay_round_trip(self, tmp_path, rng):
        wal = WriteAheadLog(tmp_path / "wal", SHAPE, segment_bytes=10_000)
        addrs = np.arange(10, dtype=np.uint64)
        wal.append(addrs, np.arange(10, dtype=float))
        wal.append(addrs + 100, np.arange(10, dtype=float) * 2)
        assert wal.total_points == 20

        replayed = WriteAheadLog(
            tmp_path / "wal", SHAPE, segment_bytes=10_000
        )
        chunks = list(replayed.iter_chunks())
        assert len(chunks) == 2
        assert np.array_equal(chunks[0][0], addrs)
        assert np.array_equal(chunks[1][0], addrs + 100)

    def test_seals_at_segment_budget(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", SHAPE, segment_bytes=64)
        for i in range(4):
            wal.append(
                np.array([i], dtype=np.uint64), np.array([float(i)])
            )
        assert wal.segment_count >= 2
        sealed = [p for p in wal.segment_paths()
                  if p.name.endswith(".wal")]
        assert sealed

    def test_active_segment_opens_once(self, tmp_path, monkeypatch):
        opened = []

        class Counting(wal_module.AppendFile):
            def __init__(self, path, **kw):
                opened.append(Path(path).name)
                super().__init__(path, **kw)

        monkeypatch.setattr(wal_module, "AppendFile", Counting)
        wal = WriteAheadLog(tmp_path / "wal", SHAPE, segment_bytes=10_000)
        for i in range(5):
            wal.append(np.array([i], dtype=np.uint64), np.array([1.0]))
        assert opened == ["seg-000000.wal.open"]
        wal.close()
        wal.append(np.array([9], dtype=np.uint64), np.array([1.0]))
        assert opened == ["seg-000000.wal.open"] * 2  # reopened, same file
        assert wal.segment_count == 1
        wal.close()

    def test_stranded_open_segment_sealed_on_replay(self, tmp_path):
        # A crash between "fill segment" and "rename to sealed" strands a
        # full .open segment behind a newer one; replay must seal it.
        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        rec = encode_record(
            np.array([1], dtype=np.uint64), np.array([1.0])
        )
        for seq in (0, 1):
            path = wal_dir / f"seg-{seq:06d}.wal.open"
            path.write_bytes(encode_header(SHAPE, 0) + rec)

        replayed = WriteAheadLog(wal_dir, SHAPE, segment_bytes=10_000)
        assert replayed.total_points == 2
        names = sorted(p.name for p in replayed.segment_paths())
        assert names == ["seg-000000.wal", "seg-000001.wal.open"]

    def test_torn_tail_truncated_on_replay(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", SHAPE, segment_bytes=10_000)
        wal.append(np.array([1, 2], dtype=np.uint64), np.ones(2))
        wal.append(np.array([3], dtype=np.uint64), np.array([3.0]))
        path = wal.segment_paths()[0]
        data = path.read_bytes()
        path.write_bytes(data[:-5])  # tear the final record

        replayed = WriteAheadLog(
            tmp_path / "wal", SHAPE, segment_bytes=10_000
        )
        assert replayed.torn_tails == 1
        assert replayed.total_points == 2  # first record survived
        # The file was truncated back to the intact prefix.
        scan = scan_segment(replayed.segment_paths()[0])
        assert scan.status == "ok"

    def test_mid_segment_corruption_quarantined(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", SHAPE, segment_bytes=10_000)
        wal.append(np.array([1, 2], dtype=np.uint64), np.ones(2))
        wal.append(np.array([3], dtype=np.uint64), np.array([3.0]))
        path = wal.segment_paths()[0]
        data = bytearray(path.read_bytes())
        # Flip a byte inside the *first* record's body: mid-file damage.
        header, extent, _ = decode_header(bytes(data))
        data[extent + 10] ^= 0xFF
        path.write_bytes(bytes(data))

        replayed = WriteAheadLog(
            tmp_path / "wal", SHAPE, segment_bytes=10_000
        )
        assert replayed.total_points == 0
        qdir = tmp_path / "wal" / ".quarantine"
        assert any(qdir.glob("seg-*"))
        assert any(qdir.glob("*.reason"))

    def test_shape_mismatch_quarantined(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", SHAPE, segment_bytes=10_000)
        wal.append(np.array([1], dtype=np.uint64), np.array([1.0]))
        replayed = WriteAheadLog(
            tmp_path / "wal", (8, 8), segment_bytes=10_000
        )
        assert replayed.total_points == 0
        assert any((tmp_path / "wal" / ".quarantine").glob("seg-*"))

    def test_tail_run_newest_wins(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", SHAPE, segment_bytes=10_000)
        wal.append(np.array([7, 3], dtype=np.uint64),
                   np.array([1.0, 2.0]))
        wal.append(np.array([7], dtype=np.uint64), np.array([9.0]))
        tail = build_tail_run(list(wal.iter_chunks()), SHAPE)
        assert isinstance(tail, TailRun)
        assert np.array_equal(
            tail.addresses, np.array([3, 7], dtype=np.uint64)
        )
        assert np.array_equal(tail.values, np.array([2.0, 9.0]))
        assert tail.coords.shape == (2, 2)

    def test_empty_tail_is_none(self):
        assert build_tail_run([], SHAPE) is None


class TestStoreAppend:
    def test_append_read_bit_identical_to_write(self, tmp_path, rng, opts):
        c1, v1 = chunk(rng, 80)
        c2, v2 = chunk(rng, 60)
        walled = FragmentStore(tmp_path / "wal", SHAPE, "LINEAR",
                               options=opts)
        walled.write(c1, v1)
        walled.append(c2[:30], v2[:30])
        walled.append(c2[30:], v2[30:])
        synced = FragmentStore(tmp_path / "sync", SHAPE, "LINEAR")
        synced.write(c1, v1)
        synced.write(c2[:30], v2[:30])
        synced.write(c2[30:], v2[30:])

        box = Box((0, 0), SHAPE)
        a, b = walled.read_box(box), synced.read_box(box)
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.values, b.values)
        qa = walled.read_points(c2)
        qb = synced.read_points(c2)
        assert np.array_equal(qa.found, qb.found)
        assert np.array_equal(qa.values, qb.values)

    def test_append_survives_reopen(self, tmp_path, rng, opts):
        c, v = chunk(rng, 50)
        store = FragmentStore(tmp_path / "ds", SHAPE, "LINEAR",
                              options=opts)
        store.append(c, v)
        assert len(store.fragments) == 0
        reopened = FragmentStore(tmp_path / "ds", SHAPE, "LINEAR",
                                 options=opts)
        out = reopened.read_points(c)
        assert out.found.all()

    def test_pack_drains_the_log(self, tmp_path, rng, opts):
        c, v = chunk(rng, 50)
        store = FragmentStore(tmp_path / "ds", SHAPE, "LINEAR",
                              options=opts)
        store.append(c, v)
        receipt = store.pack_wal()
        assert receipt is not None
        assert store.wal_stats()["points"] == 0
        assert len(store.fragments) == 1
        assert store.read_points(c).found.all()
        # Idempotent: nothing left to pack.
        assert store.pack_wal() is None

    @pytest.mark.parametrize("fmt_name", ["LINEAR", "GCSR++"])
    def test_large_chunks_match_newest_wins_oracle(self, tmp_path, fmt_name,
                                                   packed_sort_calls):
        """Chunks of 2 048 points with duplicates inside and across them:
        packs and the compaction take the packed sort, and the store
        agrees with a newest-wins dict at every step, WAL tail included."""
        side = 256
        rng = np.random.default_rng(2048)
        store = FragmentStore(tmp_path / "ds", (side, side), fmt_name)
        oracle: dict[int, float] = {}

        def append():
            lin = rng.integers(0, side * side, 2048)
            values = rng.standard_normal(2048)
            store.append(
                np.column_stack([lin // side, lin % side]).astype(np.uint64),
                values,
            )
            oracle.update(zip(lin.tolist(), values.tolist()))

        def check():
            cells = np.arange(side * side)
            out = store.read_points(
                np.column_stack([cells // side, cells % side])
            )
            present = np.array(sorted(oracle))
            assert np.array_equal(np.flatnonzero(out.found), present)
            expected = np.array([oracle[a] for a in present.tolist()])
            assert np.array_equal(out.values, expected)
            box = store.read_box(Box((0, 0), (side, side)))
            lin = box.coords[:, 0] * side + box.coords[:, 1]
            assert np.array_equal(lin, present)
            assert np.array_equal(box.values, expected)

        for _ in range(2):
            for _ in range(3):
                append()
            store.pack_wal()
        append()  # left in the WAL tail
        check()
        store.compact()
        check()
        store.pack_wal()
        check()
        assert len(store.fragments) == 2
        assert packed_sort_calls, "no sort reached the packed kernel"

    def test_wal_overwrites_packed_fragment(self, tmp_path, rng, opts):
        c, v = chunk(rng, 40)
        store = FragmentStore(tmp_path / "ds", SHAPE, "LINEAR",
                              options=opts)
        store.write(c, v)
        store.append(c[:10], np.full(10, 42.0))
        out = store.read_points(c[:10])
        assert out.found.all()
        assert np.all(out.values == 42.0)
        box = store.read_box(Box((0, 0), SHAPE))
        # No duplicates in the merged view.
        lin = box.coords[:, 0] * 64 + box.coords[:, 1]
        assert np.unique(lin).shape[0] == lin.shape[0]

    def test_out_of_shape_rows_do_not_alias_tail(self, tmp_path):
        """A query row outside the shape is not-found in every view.

        Under ``validate=False`` row-major linearization (0, 0, 200)
        aliases (0, 1, 8) in a 192^3 store; the packed path always said
        not-found, the WAL-tail overlay used to answer 42.0.
        """
        shape = (192, 192, 192)
        cell = np.array([[0, 1, 8]], dtype=np.uint64)
        alias = np.array([[0, 0, 200], [0, 1, 8]], dtype=np.uint64)
        store = FragmentStore(tmp_path / "one", shape, "LINEAR")
        sharded = ShardedStore(tmp_path / "bands", shape, "LINEAR", n_shards=4)
        for target in (store, sharded):
            target.append(cell, np.array([42.0]))
        for state in ("tail", "packed"):
            views = {
                "store": store, "snapshot": store.snapshot(),
                "sharded": sharded, "sharded-snapshot": sharded.snapshot(),
            }
            for name, view in views.items():
                out = view.read_points(alias)
                assert out.found.tolist() == [False, True], (state, name)
                assert out.values.tolist() == [42.0], (state, name)
            store.pack_wal()
            sharded.pack_wal()

    def test_background_packer(self, tmp_path, rng):
        """There is none: appended points stay in the WAL until
        ``pack_wal`` packs them, and the store starts no thread."""
        with pytest.raises(TypeError):
            StoreOptions(wal_pack_interval=0.05)
        before = set(threading.enumerate())
        c, v = chunk(rng, 30)
        store = FragmentStore(tmp_path / "ds", SHAPE, "LINEAR")
        try:
            store.append(c, v)
            assert store.wal_stats()["points"] == 30
            assert store.fragments == ()
            assert set(threading.enumerate()) == before
            store.pack_wal()
            assert store.wal_stats()["points"] == 0
            assert len(store.fragments) == 1
        finally:
            store.close()

    def test_append_requires_linearizable_shape(self, tmp_path):
        big = (1 << 22, 1 << 22, 1 << 22)  # overflows uint64 addresses
        store = FragmentStore(tmp_path / "ds", big, "COO")
        with pytest.raises(ShapeError, match="append"):
            store.append(
                np.zeros((1, 3), dtype=np.uint64), np.ones(1)
            )

    def test_append_validation(self, tmp_path, opts):
        store = FragmentStore(tmp_path / "ds", SHAPE, "LINEAR",
                              options=opts)
        with pytest.raises(ShapeError):
            store.append(np.zeros((2, 3), dtype=np.uint64), np.zeros(2))
        with pytest.raises(ShapeError):
            store.append(np.zeros((2, 2), dtype=np.uint64), np.zeros(3))
        with pytest.raises(Exception):
            # Out-of-bounds coordinates are rejected at the validating
            # linearize, before anything lands in the log.
            store.append(
                np.full((1, 2), 64, dtype=np.uint64), np.ones(1)
            )
        assert store.wal_stats()["points"] == 0

    def test_options_validation(self):
        with pytest.raises(ValueError):
            StoreOptions(wal_segment_bytes=0)
        with pytest.raises(TypeError):  # no background packer to time
            StoreOptions(wal_pack_interval=0)
        with pytest.raises(ValueError):
            StoreOptions(retain_generations=-1)


class TestWriteAfterAppend:
    """A write is newer than the appends before it, on every write path:
    it packs the unpacked tail first, so the tail never overlays it."""

    @pytest.mark.parametrize(
        "kind", ["write", "write_many", "write_canonical", "sharded"],
    )
    def test_write_after_append_reads_the_write(self, tmp_path, kind):
        from repro.build import CanonicalCoords

        cell = np.array([[3, 4]], dtype=np.uint64)
        directory = tmp_path / "s"
        if kind == "sharded":
            store = ShardedStore(directory, SHAPE, "LINEAR", n_shards=2)
        else:
            store = FragmentStore(directory, SHAPE, "LINEAR")
        store.append(cell, np.array([1.0]))
        newer = np.array([2.0])
        if kind == "write_many":
            store.write_many([(cell, newer)])
        elif kind == "write_canonical":
            store.write_canonical(CanonicalCoords.from_coords(cell, SHAPE), newer)
        else:
            store.write(cell, newer)
        assert store.wal_stats()["points"] == 0  # packed first
        for _ in range(2):  # before and after an explicit pack
            assert store.read_points(cell).values.tolist() == [2.0]
            assert store.read_box(Box((0, 0), SHAPE)).values.tolist() == [2.0]
            store.pack_wal()
        store.close()
        if kind == "sharded":
            reopened = ShardedStore(directory, SHAPE, "LINEAR")
        else:
            reopened = FragmentStore(directory, SHAPE, "LINEAR")
        assert reopened.read_points(cell).values.tolist() == [2.0]
        reopened.close()

    def test_a_write_that_fails_to_package_packs_nothing(self, tmp_path):
        store = FragmentStore(tmp_path / "s", SHAPE, "LINEAR")
        store.append(np.array([[1, 1]], dtype=np.uint64), np.ones(1))
        with pytest.raises(ShapeError):
            store.write(np.zeros((1, 3), dtype=np.uint64), np.ones(1))
        assert store.wal_stats()["points"] == 1 and store.fragments == ()


def _open_fds_under(directory: Path) -> int:
    """Descriptors of this process open on files under ``directory``."""
    fds = Path("/proc/self/fd")
    count = 0
    for fd in fds.iterdir():
        try:
            target = os.readlink(fd)
        except OSError:  # closed while listing
            continue
        count += target.startswith(str(directory))
    return count


needs_proc_fd = pytest.mark.skipif(
    not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd"
)


class TestStoreLifecycle:
    def test_pack_drains_without_sealing(self, tmp_path, rng):
        store = FragmentStore(tmp_path / "ds", SHAPE, "LINEAR")
        store.append(*chunk(rng, 40))
        recorder = OpRecorder()
        with inject(recorder):
            store.pack_wal()
        wal_ops = [
            (e.op, e.path.name) for e in recorder.events
            if e.path.name.startswith("seg-")
        ]
        assert wal_ops == [("unlink", "seg-000000.wal.open")]
        assert store.wal_stats()["segments"] == 0
        store.append(*chunk(rng, 5))  # a fresh active segment
        assert [p.name for p in wal_path(tmp_path / "ds").iterdir()] == [
            "seg-000000.wal.open"
        ]
        store.close()

    @pytest.mark.parametrize("sharded", [False, True])
    def test_snapshot_nnz_matches_store_after_append(self, tmp_path, sharded):
        coords = np.array([[1, 2], [3, 4], [60, 61]], dtype=np.uint64)
        if sharded:
            store = ShardedStore(tmp_path / "s", SHAPE, "LINEAR", n_shards=2)
        else:
            store = FragmentStore(tmp_path / "s", SHAPE, "LINEAR")
        store.write(coords, np.ones(3))
        store.append(coords, np.full(3, 2.0))
        with store.snapshot() as snap:
            assert store.nnz == snap.nnz == 3
        store.close()

    @needs_proc_fd
    @pytest.mark.parametrize("sharded", [False, True])
    def test_close_releases_file_descriptors(self, tmp_path, rng, sharded):
        directory = tmp_path / "s"
        assert _open_fds_under(tmp_path) == 0
        if sharded:
            store = ShardedStore(directory, SHAPE, "LINEAR", n_shards=2)
        else:
            store = FragmentStore(directory, SHAPE, "LINEAR")
        store.write(*chunk(rng, 30))
        store.append(*chunk(rng, 30))  # an unpacked tail
        assert _open_fds_under(tmp_path) >= 1  # the active segments
        store.close()
        assert _open_fds_under(tmp_path) == 0
        reopened = (
            ShardedStore(directory, SHAPE, "LINEAR") if sharded
            else FragmentStore(directory, SHAPE, "LINEAR")
        )
        assert reopened.wal_stats()["points"] == 30
        reopened.close()

    @needs_proc_fd
    def test_fsck_repair_closes_the_replaced_log(self, tmp_path, rng):
        store = FragmentStore(tmp_path / "ds", SHAPE, "LINEAR")
        store.append(*chunk(rng, 10))
        assert _open_fds_under(tmp_path) == 1
        store.fsck(repair=True)  # replays the log into a new mirror
        assert _open_fds_under(tmp_path) == 0
        store.append(*chunk(rng, 10))
        assert store.wal_stats()["points"] == 20
        store.close()


class TestFsckWal:
    def test_fsck_reports_segments(self, tmp_path, rng, opts):
        c, v = chunk(rng, 50)
        store = FragmentStore(tmp_path / "ds", SHAPE, "LINEAR",
                              options=opts)
        store.append(c, v)
        report = fsck(tmp_path / "ds")
        assert report.clean
        assert report.wal_segments >= 1
        assert report.wal_bytes > 0
        assert report.as_dict()["wal_segments"] == report.wal_segments

    def test_fsck_repairs_torn_tail(self, tmp_path, rng, opts):
        c, v = chunk(rng, 50)
        store = FragmentStore(tmp_path / "ds", SHAPE, "LINEAR",
                              options=opts)
        store.append(c[:25], v[:25])
        store.append(c[25:], v[25:])
        seg = list_segments(wal_path(tmp_path / "ds"))[-1]
        seg.write_bytes(seg.read_bytes()[:-3])

        report = fsck(tmp_path / "ds")
        assert not report.clean
        assert report.issues_of("wal")
        repaired = fsck(tmp_path / "ds", repair=True)
        assert repaired.repaired
        assert fsck(tmp_path / "ds").clean

    def test_fsck_quarantines_corrupt_segment(self, tmp_path, rng, opts):
        c, v = chunk(rng, 50)
        store = FragmentStore(tmp_path / "ds", SHAPE, "LINEAR",
                              options=opts)
        store.append(c, v)
        seg = list_segments(wal_path(tmp_path / "ds"))[0]
        seg.write_bytes(b"XXXX" + seg.read_bytes()[4:])

        report = fsck(tmp_path / "ds", repair=True)
        issues = report.issues_of("wal")
        assert issues and issues[0].repaired == "quarantined"
        assert any((tmp_path / "ds" / ".quarantine").glob("seg-*"))
        assert fsck(tmp_path / "ds").clean


class TestSnapshots:
    def test_snapshot_stable_under_mutation(self, tmp_path, rng, opts):
        c1, v1 = chunk(rng, 60)
        c2, v2 = chunk(rng, 40)
        store = FragmentStore(tmp_path / "ds", SHAPE, "LINEAR",
                              options=opts)
        store.write(c1, v1)
        store.append(c2, v2)
        snap = store.snapshot()
        before = snap.read_box(Box((0, 0), SHAPE))

        # Mutate the store every way we can: append, pack, compact.
        store.append(c1[:10], np.full(10, -1.0))
        store.pack_wal()
        store.write(*chunk(rng, 30))
        store.compact()

        after = snap.read_box(Box((0, 0), SHAPE))
        assert np.array_equal(before.coords, after.coords)
        assert np.array_equal(before.values, after.values)
        # The tail overlay still answers point lookups on the snapshot,
        # even though the live store has since packed and compacted.
        assert snap.read_points(c2).found.all()
        snap.close()

    def test_snapshot_pins_block_gc(self, tmp_path, rng):
        store = FragmentStore(tmp_path / "ds", SHAPE, "LINEAR")
        store.write(*chunk(rng, 30))
        store.write(*chunk(rng, 30))
        snap = store.snapshot()
        store.compact()  # retires the two source fragments
        assert store.gc(keep_generations=0) == 0  # pinned: nothing dies
        ret = [f.path for f in snap.fragments]
        assert all(p.exists() for p in ret)
        snap.close()
        assert store.gc(keep_generations=0) == 2
        assert not any(p.exists() for p in ret)

    def test_snapshot_closed_reads_raise(self, tmp_path, rng):
        store = FragmentStore(tmp_path / "ds", SHAPE, "LINEAR")
        store.write(*chunk(rng, 10))
        snap = store.snapshot()
        snap.close()
        assert snap.closed
        with pytest.raises(ValueError):
            snap.read_box(Box((0, 0), SHAPE))
        snap.close()  # idempotent

    def test_past_generation_snapshot(self, tmp_path, rng):
        store = FragmentStore(
            tmp_path / "ds", SHAPE, "LINEAR",
            options=StoreOptions(retain_generations=4),
        )
        c1, v1 = chunk(rng, 30)
        c2, v2 = chunk(rng, 30)
        store.write(c1, v1)
        g1 = store.generation
        store.write(c2, v2)
        store.compact()

        with store.snapshot(g1) as snap:
            assert snap.generation == g1
            out = snap.read_points(c1)
            assert out.found.all()
            # Points of the second write did not exist at g1.
            assert not snap.read_points(c2).found.all()

    def test_snapshot_future_generation_rejected(self, tmp_path, rng):
        store = FragmentStore(tmp_path / "ds", SHAPE, "LINEAR")
        store.write(*chunk(rng, 10))
        with pytest.raises(ValueError, match="future"):
            store.snapshot(store.generation + 5)

    def test_snapshot_behind_gc_horizon_rejected(self, tmp_path, rng):
        store = FragmentStore(tmp_path / "ds", SHAPE, "LINEAR")
        c1, _ = chunk(rng, 20)
        store.write(c1, np.ones(20))
        g1 = store.generation
        store.write(*chunk(rng, 20))
        store.compact()  # retention 0, no pins: sources deleted now
        with pytest.raises(ValueError, match="horizon"):
            store.snapshot(g1)

    def test_retention_survives_reopen(self, tmp_path, rng):
        opts = StoreOptions(retain_generations=4)
        store = FragmentStore(tmp_path / "ds", SHAPE, "LINEAR",
                              options=opts)
        c1, v1 = chunk(rng, 30)
        store.write(c1, v1)
        g1 = store.generation
        store.write(*chunk(rng, 30))
        store.compact()

        manifest = json.loads(
            (tmp_path / "ds" / "manifest.json").read_text()
        )
        assert manifest.get("retired")

        reopened = FragmentStore(tmp_path / "ds", SHAPE, "LINEAR",
                                 options=opts)
        with reopened.snapshot(g1) as snap:
            assert snap.read_points(c1).found.all()

    def test_gc_advances_horizon(self, tmp_path, rng):
        store = FragmentStore(
            tmp_path / "ds", SHAPE, "LINEAR",
            options=StoreOptions(retain_generations=1),
        )
        store.write(*chunk(rng, 20))
        store.write(*chunk(rng, 20))
        store.compact()
        # Age the retired generation out of the window, then collect.
        store.write(*chunk(rng, 20))
        store.write(*chunk(rng, 20))
        deleted = store.gc(keep_generations=0)
        assert deleted == 2
        manifest = load_manifest(tmp_path / "ds").doc
        assert manifest.get("gc_horizon", 0) > 0
        with pytest.raises(ValueError):
            store.gc(keep_generations=-1)
