"""Crash-safe write-ahead log for append-optimized ingest.

High-rate writers cannot pay a full canonical build (linearize + sort +
dedup + format packaging + manifest commit) per ``write``.  The WAL gives
:class:`~repro.storage.store.FragmentStore` an append path with the same
durability story the fragment substrate already has, at a fraction of the
cost per chunk:

**Segments.**
    Appends go to ``<store>/wal/seg-NNNNNN.wal.open`` — the single
    *active* segment, whose file is opened once, when the segment is
    created, and stays open until it is sealed, drained or the store
    closes.  When it crosses ``StoreOptions.wal_segment_bytes`` it is
    *sealed* by an atomic rename to ``seg-NNNNNN.wal`` (the rename is the
    commit point, exactly like fragment commits) and a fresh active
    segment starts.  Sealed segments are immutable.  A pack drains every
    segment, the active one included, through one newest-wins sort
    (:func:`merge_chunks`) into a real fragment and retires them
    (manifest-then-delete).

**Records.**
    One append = one framed record::

        u32 body_len | body | u32 crc32(body)

    where ``body`` is ``u32 meta_len | meta JSON (space-padded to an
    8-byte boundary) | addresses (uint64) | values``.  The padding keeps
    the address buffer 8-byte aligned for zero-copy ``np.frombuffer``.
    There is no rename for appends — durability comes from the optional
    per-record fsync plus the framing: a crash mid-append leaves a *torn
    tail* that replay detects and truncates.  An append that *fails*
    (the process lives on) cuts its bytes back off before it raises, or,
    when that fails too, seals the segment, so a later record never
    lands behind a torn one.  With fsync on, the WAL directory is
    fsync'd after a segment is created or sealed (renamed), so the
    segment's directory entry is as durable as its records.

**Torn-tail taxonomy (the PR 2 discrimination, applied to appends).**
    Replay and fsck classify a damaged segment by *where* the damage is:

    * file shorter than the segment header → torn header write; nothing
      was ever durable, the file is removed;
    * an incomplete/over-running length prefix, or a CRC/decode failure
      on the **final** record → torn tail; the segment is truncated back
      to its longest intact prefix (``store.wal.torn_tails``);
    * a CRC/decode failure on a **middle** record, a bad magic/header
      CRC, or a header shape mismatch → not explicable by a crashed
      append; the whole segment is quarantined to ``.quarantine/`` with
      a reason sidecar, never silently dropped.

Replay keeps every decoded chunk in memory (the unpacked *tail*);
:func:`build_tail_run` collapses the chunks through the same newest-wins
merge the compactor uses, so reads that overlay the tail are bit-identical
to a synchronous ``write`` of the same points.
"""

from __future__ import annotations

import json
import os
import re
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

from ..build.merge import MergedPoints, newest_wins
from ..core.boundary import Box
from ..core.linearize import AddressIntervals, delinearize
from ..formats.base import BoxHits, box_hits_by_address
from ..obs import counter_add, gauge_set
from .durability import (
    AppendFile,
    fsync_directory,
    quarantine_file,
    read_bytes,
    remove_file,
    rename_file,
    scan_records,
    truncate_file,
)

#: Subdirectory of a store holding WAL segments.
WAL_DIR = "wal"
#: Segment file magic (header prefix).
WAL_MAGIC = b"RWAL"
#: Segment format version.
WAL_VERSION = 1
#: Suffix of sealed (immutable) segments.
SEG_SUFFIX = ".wal"
#: Suffix of the single active (appendable) segment.
OPEN_SUFFIX = ".wal.open"

_SEG_RE = re.compile(r"seg-(\d+)\.wal(\.open)?$")
_U32 = struct.Struct("<I")


def wal_path(store_dir: str | os.PathLike) -> Path:
    """The WAL directory of a store (``<store>/wal``); may not exist."""
    return Path(store_dir) / WAL_DIR


def segment_seq(path: Path) -> int:
    """The monotonic sequence number in a segment file name."""
    m = _SEG_RE.search(path.name)
    if m is None:
        raise ValueError(f"not a WAL segment name: {path.name}")
    return int(m.group(1))


def list_segments(wal_directory: str | os.PathLike) -> list[Path]:
    """All WAL segments in a directory, oldest first, active segment last.

    Sealed segments sort by sequence number; an active ``.wal.open``
    segment (there is at most one in a healthy store, but a crashed seal
    can race a new segment into existence — sequence order still holds)
    sorts after a sealed segment of the same sequence.
    """
    wal_directory = Path(wal_directory)
    if not wal_directory.is_dir():
        return []
    segs = [
        p for p in wal_directory.iterdir()
        if _SEG_RE.search(p.name) is not None
    ]
    return sorted(segs, key=lambda p: (segment_seq(p), p.name.endswith(OPEN_SUFFIX)))


# ----------------------------------------------------------------------
# Record / header framing
# ----------------------------------------------------------------------

def encode_header(shape: Sequence[int], epoch: int) -> bytes:
    """Serialize a segment header: magic, version, length, JSON, CRC."""
    meta = json.dumps(
        {"shape": [int(s) for s in shape], "epoch": int(epoch)},
        sort_keys=True,
    ).encode("utf-8")
    return b"".join([
        WAL_MAGIC,
        _U32.pack(WAL_VERSION),
        _U32.pack(len(meta)),
        meta,
        _U32.pack(zlib.crc32(meta) & 0xFFFFFFFF),
    ])


def decode_header(data: bytes) -> tuple[dict[str, Any] | None, int, str]:
    """Parse a segment header from the start of ``data``.

    Returns ``(header, extent, reason)``: a parsed header dict and the
    byte offset of the first record, or ``header=None`` with ``reason``
    explaining the failure.  ``extent=0`` with ``header=None`` and
    ``reason=""`` means the file is too short to hold a header — a torn
    header write, not corruption.
    """
    if len(data) < 12:
        return None, 0, ""
    magic = data[:4]
    (version,) = _U32.unpack_from(data, 4)
    (hlen,) = _U32.unpack_from(data, 8)
    extent = 12 + hlen + 4
    if magic != WAL_MAGIC:
        return None, 0, f"bad magic {magic!r}"
    if version != WAL_VERSION:
        return None, 0, f"unsupported WAL version {version}"
    if len(data) < extent:
        return None, 0, ""  # header never finished committing
    meta = data[12:12 + hlen]
    (crc,) = _U32.unpack_from(data, 12 + hlen)
    if zlib.crc32(meta) & 0xFFFFFFFF != crc:
        return None, 0, "header CRC mismatch"
    try:
        header = json.loads(meta.decode("utf-8"))
        header["shape"] = tuple(int(s) for s in header["shape"])
        header["epoch"] = int(header.get("epoch", 0))
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        return None, 0, f"header unparseable: {exc}"
    return header, extent, ""


def encode_record(addresses: np.ndarray, values: np.ndarray) -> bytes:
    """Frame one appended chunk as a length-prefixed, CRC-protected record
    (:func:`~repro.storage.durability.frame_record`'s framing, with the
    CRC streamed over the parts instead of a joined body)."""
    addresses = np.ascontiguousarray(addresses, dtype=np.uint64)
    values = np.ascontiguousarray(values)
    if values.dtype.byteorder not in ("=", "|", "<"):
        values = values.astype(values.dtype.newbyteorder("<"))
    # The bytes ``json.dumps(meta, sort_keys=True)`` writes, spelled out
    # (a dtype string needs no JSON escaping), then space-padded so the
    # address buffer starts on an 8-byte boundary within the body
    # (frombuffer alignment).
    meta = b'{"n": %d, "value_dtype": "%s"}' % (
        addresses.shape[0], values.dtype.str.encode("ascii"),
    )
    meta += b" " * ((-(4 + len(meta))) % 8)
    head = _U32.pack(len(meta)) + meta
    crc = zlib.crc32(values, zlib.crc32(addresses, zlib.crc32(head)))
    return b"".join([
        _U32.pack(len(head) + addresses.nbytes + values.nbytes),
        head,
        addresses,
        values,
        _U32.pack(crc & 0xFFFFFFFF),
    ])


def decode_record_body(body: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_record`'s body; raises ``ValueError``."""
    if len(body) < 4:
        raise ValueError("record body shorter than its meta length prefix")
    (mlen,) = _U32.unpack_from(body, 0)
    if 4 + mlen > len(body):
        raise ValueError("record meta overruns the body")
    meta = json.loads(body[4:4 + mlen].decode("ascii"))
    n = int(meta["n"])
    vdtype = np.dtype(meta["value_dtype"])
    astart = 4 + mlen
    vstart = astart + 8 * n
    if vstart + vdtype.itemsize * n != len(body):
        raise ValueError("record payload size mismatch")
    addresses = np.frombuffer(body, dtype=np.uint64, count=n, offset=astart)
    values = np.frombuffer(body, dtype=vdtype, count=n, offset=vstart)
    return addresses, values


# ----------------------------------------------------------------------
# Segment scan (shared by replay and fsck)
# ----------------------------------------------------------------------

@dataclass
class SegmentScan:
    """Outcome of scanning one segment file.

    ``status`` is ``"ok"`` (every byte accounted for), ``"torn"`` (the
    longest intact prefix is ``valid_bytes``; repair truncates — or
    removes the file when nothing was durable), or ``"corrupt"``
    (mid-file damage or a bad header; repair quarantines).  ``chunks``
    holds the intact records' decoded ``(addresses, values)`` pairs in
    append order regardless of status.
    """

    path: Path
    header: dict[str, Any] | None
    chunks: list[tuple[np.ndarray, np.ndarray]]
    valid_bytes: int
    status: str
    detail: str = ""

    @property
    def points(self) -> int:
        return sum(int(a.shape[0]) for a, _ in self.chunks)


def scan_segment(
    path: str | os.PathLike,
    *,
    expected_shape: tuple[int, ...] | None = None,
) -> SegmentScan:
    """Scan one segment, classifying damage per the torn-tail taxonomy.

    The records behind the header go through
    :func:`~repro.storage.durability.scan_records`, the scanner the
    manifest log shares.
    """
    path = Path(path)
    data = read_bytes(path)
    header, offset, reason = decode_header(data)
    if header is None:
        if reason:
            return SegmentScan(path, None, [], 0, "corrupt", reason)
        return SegmentScan(
            path, None, [], 0, "torn", "torn segment header"
        )
    if expected_shape is not None and header["shape"] != tuple(expected_shape):
        return SegmentScan(
            path, header, [], 0, "corrupt",
            f"segment shape {header['shape']} != store shape "
            f"{tuple(expected_shape)}",
        )
    scan = scan_records(data, offset, decode_record_body, where="segment")
    return SegmentScan(
        path, header, scan.records, scan.valid_bytes, scan.status, scan.detail
    )


# ----------------------------------------------------------------------
# The log
# ----------------------------------------------------------------------

@dataclass
class _Segment:
    """In-memory mirror of one on-disk segment.

    ``sealed`` means the segment takes no more appends.  It is set before
    the seal's rename, so a segment whose rename failed keeps its
    ``.wal.open`` name but is never appended to again by this log;
    replay truncates its torn tail and seals it once a newer segment
    follows it.
    """

    path: Path
    seq: int
    nbytes: int
    chunks: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    sealed: bool = False


class WriteAheadLog:
    """Per-store WAL: segment lifecycle + in-memory tail mirror.

    Not thread-safe on its own; the owning store serializes mutations
    under its write lock.  ``version`` increments on every mutation so
    callers can cache derived state (the merged tail run) against it.
    The active segment's file stays open between appends; :meth:`close`
    closes it (a later append reopens it).
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        shape: Sequence[int],
        *,
        segment_bytes: int = 4 << 20,
        fsync: bool = False,
        epoch: int = 0,
    ):
        self.directory = Path(directory)
        self.shape = tuple(int(s) for s in shape)
        self.segment_bytes = int(segment_bytes)
        self.fsync = bool(fsync)
        self.epoch = int(epoch)
        self.version = 0
        self.torn_tails = 0
        self._segments: list[_Segment] = []
        #: The open file of ``_segments[-1]`` while it takes appends.
        self._active: AppendFile | None = None
        if not self.directory.is_dir():
            self.directory.mkdir(parents=True)
            if self.fsync:
                fsync_directory(self.directory.parent)
        self._replay()

    # -- replay ---------------------------------------------------------

    def _replay(self) -> None:
        """Load every intact record, repairing torn tails in place."""
        for path in list_segments(self.directory):
            scan = scan_segment(path, expected_shape=self.shape)
            if scan.status == "corrupt":
                quarantine_file(
                    self.directory, path, reason=f"wal replay: {scan.detail}"
                )
                continue
            if scan.status == "torn":
                self.torn_tails += 1
                counter_add("store.wal.torn_tails")
                if scan.valid_bytes == 0:
                    # Not even the header committed; nothing durable here.
                    remove_file(path)
                    continue
                truncate_file(path, scan.valid_bytes)
            seg = _Segment(
                path=path,
                seq=segment_seq(path),
                nbytes=scan.valid_bytes,
                chunks=scan.chunks,
                sealed=not path.name.endswith(OPEN_SUFFIX),
            )
            self._segments.append(seg)
            counter_add("store.wal.records_replayed", len(scan.chunks))
        # A crashed seal can strand a full .open segment behind a newer
        # one; seal every non-final open segment so a pack sees them.
        for seg in self._segments[:-1]:
            if not seg.sealed:
                self._seal(seg)
        self.version += 1
        self._publish_bytes()

    # -- append path ----------------------------------------------------

    def append(self, addresses: np.ndarray, values: np.ndarray) -> None:
        """Durably append one chunk to the active segment.

        An append that raises leaves no trace in the log (see
        :meth:`_write`), so the appends before and after it replay.
        """
        addresses = np.ascontiguousarray(addresses, dtype=np.uint64)
        values = np.ascontiguousarray(values)
        record = encode_record(addresses, values)
        seg = self._active_segment()
        self._write(seg, record)
        seg.chunks.append((addresses, values))
        self.version += 1
        counter_add("store.wal.appends")
        self._publish_bytes()
        if seg.nbytes >= self.segment_bytes:
            self._seal(seg)

    def _active_segment(self) -> _Segment:
        """The segment appends go to; a new one when the last is sealed."""
        if self._active is not None:
            return self._segments[-1]
        if self._segments and not self._segments[-1].sealed:
            # Replayed, or its file was closed: reopen it.
            seg = self._segments[-1]
            self._active = AppendFile(seg.path, fsync=self.fsync)
            return seg
        seq = self._segments[-1].seq + 1 if self._segments else 0
        path = self.directory / f"seg-{seq:06d}{OPEN_SUFFIX}"
        self._active = AppendFile(path, fsync=self.fsync)
        seg = _Segment(path=path, seq=seq, nbytes=0)
        self._segments.append(seg)
        self._write(seg, encode_header(self.shape, self.epoch))
        if self.fsync:
            fsync_directory(self.directory)
        return seg

    def _write(self, seg: _Segment, data: bytes) -> None:
        """Append ``data`` to the active segment ``seg``, or raise with
        the segment as it was.

        A record mid-segment that fails its CRC quarantines the whole
        segment at replay, so the bytes of a failed write must not stay
        where the next record would follow them.  They are cut off
        (``seg.nbytes`` is the intact length); when that fails too, or
        the segment's header itself failed, the segment is sealed: the
        next append starts a new one, and replay reads the bytes as a
        torn final record.
        """
        try:
            self._active.write(data)
        except BaseException:
            if not (seg.nbytes and self._cut_back(seg.nbytes)):
                try:
                    self._seal(seg)
                except OSError:
                    pass  # sealed in memory; replay seals it on disk
            raise
        seg.nbytes += len(data)

    def _cut_back(self, size: int) -> bool:
        try:
            self._active.truncate(size)
        except OSError:
            return False
        return True

    def _seal(self, seg: _Segment) -> None:
        """Seal ``seg``, closing its file first when it is the active one."""
        if seg is self._segments[-1]:
            self.close()
        seg.sealed = True
        sealed = seg.path.with_name(f"seg-{seg.seq:06d}{SEG_SUFFIX}")
        rename_file(seg.path, sealed, fsync=self.fsync)
        seg.path = sealed
        counter_add("store.wal.segments_sealed")

    def close(self) -> None:
        """Close the active segment's file.  Idempotent; the log stays
        usable (the next append reopens the segment)."""
        if self._active is not None:
            self._active.close()
            self._active = None

    # -- drain ----------------------------------------------------------

    def segment_paths(self) -> list[Path]:
        return [s.path for s in self._segments]

    def drop_segments(self, paths: Sequence[Path]) -> None:
        """Retire packed segments: unlink files, forget their chunks.

        Callers must have committed the packed fragment to the manifest
        *first* — a crash between that commit and these unlinks leaves
        duplicate points that the newest-wins read merge absorbs.
        """
        doomed = {Path(p).name for p in paths}
        if self._segments and self._segments[-1].path.name in doomed:
            self.close()
        for seg in self._segments:
            if seg.path.name in doomed:
                try:
                    remove_file(seg.path)
                finally:
                    counter_add("store.wal.segments_retired")
        self._segments = [
            s for s in self._segments if s.path.name not in doomed
        ]
        self.version += 1
        self._publish_bytes()

    # -- introspection --------------------------------------------------

    def iter_chunks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Every live chunk, oldest append first (newest-wins merge order)."""
        for seg in self._segments:
            yield from seg.chunks

    @property
    def total_points(self) -> int:
        return sum(
            int(a.shape[0]) for a, _ in self.iter_chunks()
        )

    @property
    def total_bytes(self) -> int:
        return sum(s.nbytes for s in self._segments)

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    def _publish_bytes(self) -> None:
        gauge_set("store.wal.bytes", float(self.total_bytes))

    def stats(self) -> dict[str, int]:
        return {
            "segments": self.segment_count,
            "bytes": self.total_bytes,
            "points": self.total_points,
            "torn_tails_repaired": self.torn_tails,
        }


# ----------------------------------------------------------------------
# Tail merge (read overlay)
# ----------------------------------------------------------------------

@dataclass
class TailRun:
    """The WAL tail collapsed to one newest-wins sorted run.

    ``addresses`` (row-major) are ascending and unique; ``values`` is
    aligned.  Reads cut slices of it: point reads by their sorted keys,
    box reads by the box's intervals (:meth:`box_hits`).
    """

    shape: tuple[int, ...]
    addresses: np.ndarray
    values: np.ndarray
    _coords: np.ndarray | None = None

    @property
    def n(self) -> int:
        return int(self.addresses.shape[0])

    @property
    def coords(self) -> np.ndarray:
        """Tail coordinates ``(n, d)``, derived lazily from addresses."""
        if self._coords is None:
            self._coords = delinearize(
                self.addresses, self.shape, validate=False
            )
        return self._coords

    def box_hits(self, intervals: AddressIntervals, box: Box) -> BoxHits:
        """The tail's points inside ``box``: its slice within the
        envelope of the box's row-major ``intervals``, cut by them."""
        if not len(intervals):
            return BoxHits(np.empty(0, dtype=np.intp), addresses=self.addresses[:0])
        s = int(self.addresses.searchsorted(intervals.lo[0], side="left"))
        e = int(self.addresses.searchsorted(intervals.hi[-1], side="right"))
        hits = box_hits_by_address(
            self.addresses[s:e], None, self.shape, box, intervals
        )
        hits.positions += s
        return hits


def merge_chunks(
    chunks: Sequence[tuple[np.ndarray, np.ndarray]],
    shape: Sequence[int],
) -> MergedPoints | None:
    """Merge raw appended chunks into one newest-wins canonical point set.

    The chunks are concatenated oldest-first and collapsed by the
    compactor's selection (:func:`~repro.build.merge.newest_wins`): one
    stable sort, and duplicate addresses resolve to the newest append's
    latest occurrence — the exact semantics a synchronous ``write`` of
    the same points has.  ``pack_wal`` packages the result as one
    fragment; the read overlay collapses it further via
    :func:`build_tail_run`.  Returns ``None`` when no chunk holds a
    point.
    """
    chunks = [(a, v) for a, v in chunks if a.shape[0]]
    if not chunks:
        return None
    return newest_wins(
        np.concatenate([a for a, _ in chunks]),
        np.concatenate([np.asarray(v) for _, v in chunks]),
        tuple(int(s) for s in shape),
    )


def build_tail_run(
    chunks: Sequence[tuple[np.ndarray, np.ndarray]],
    shape: Sequence[int],
) -> TailRun | None:
    """Collapse raw appended chunks into one sorted newest-wins run.

    The read-overlay form of :func:`merge_chunks`: addresses come back
    ascending and unique with aligned values, so point and box reads cut
    the tail by binary search.  Returns ``None`` for an empty tail.
    """
    shape = tuple(int(s) for s in shape)
    merged = merge_chunks(chunks, shape)
    if merged is None:
        return None
    return TailRun(
        shape=shape,
        addresses=merged.canonical.sorted_addresses,
        values=merged.values[merged.canonical.sort_perm],
    )
