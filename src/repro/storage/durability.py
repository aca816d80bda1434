"""Durability subsystem: atomic commits, checksums, quarantine, and fsck.

The fragment substrate (Algorithm 3) is an append-only store on a parallel
filesystem, and filesystems fail in ways the paper's benchmark never
sees: processes die mid-write (torn files), reads fail, and bits rot at
rest.  This module implements the store's answer to each, once, at the
substrate level — every organization inherits it:

**Atomic commit protocol.**
    Fragment files and checkpoints go through :func:`write_bytes_atomic`:
    the blob is written to ``<name>.tmp``, optionally fsync'd, then renamed
    over the final path.  A crash at any byte offset leaves either the old
    file or a ``*.tmp`` orphan — never a torn committed file.  With
    ``fsync`` on, the directory is fsync'd after the rename as well: a
    rename lives in the directory, and until the directory reaches the
    disk a power loss can undo it.  Every JSON document the store commits
    (manifests and shard sidecars) is encoded by :func:`encode_manifest`.

**Manifest log.**
    A store's manifest is ``manifest.json``, a *checkpoint* of the whole
    state, plus ``manifest.log``, an append-only log of the commits made
    since: one CRC-framed record per commit holding only what it changed.
    The manifest carries a monotonically increasing ``generation`` and
    each fragment's CRC (:func:`fragment_file_crc`), so the commit point
    of a fragment is its manifest entry, not its file; a commit is one
    :class:`AppendFile` append.
    :func:`load_manifest` replays the log over the checkpoint for both the
    store and :func:`fsck`.  Both logs — this one and the WAL's segments —
    share one framing (:func:`frame_record`) and one scanner
    (:func:`scan_records`).

**Checksums.**
    Every fragment file ends with the CRC-32 of its body.  Every load
    verifies it, and compares it with the CRC the manifest records, so a
    torn or rotted file and an intact file that is not the listed
    fragment both fail.  A failed read is not retried: it raises.

**Quarantine.**
    Fragments that fail their CRC are moved to ``<store>/.quarantine/``
    rather than deleted — corruption is surfaced (``store.corrupt_fragments``
    in :mod:`repro.obs`, :func:`fsck` reports), never silently dropped.

**fsck.**
    :func:`fsck` verifies every fragment's header and CRC against the
    manifest, reports drift (missing / extra / corrupt / stale temp files),
    and with ``repair=True`` rebuilds the manifest, recovers readable
    orphan fragments, and quarantines unreadable and superseded ones
    and parts of unfinished commits.  The fragment files are
    authoritative: a store opened without ``manifest.json`` rebuilds it
    this way.

All filesystem primitives here route through a process-global *fault hook*
(:func:`set_fault_hook`) so :mod:`repro.testing.faults` can deterministically
tear writes and inject errors at every byte of the commit path.  When no
hook is installed the check is one module attribute load per *call* —
see ``benchmarks/bench_fault_overhead.py`` for the enforced <5% bound.
"""

from __future__ import annotations

import errno
import json
import math
import os
import re
import struct
import weakref
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Protocol

from ..core.errors import FragmentError, ManifestError
from ..obs import counter_add

MANIFEST_NAME = "manifest.json"
#: The append-only log of commits made since ``manifest.json``.
MANIFEST_LOG_NAME = "manifest.log"
#: The band table of the earlier sharded layout, one child store per
#: band (``docs/SHARDED_STORE.md``): only a ``ShardedStore`` opens it.
LEGACY_SHARDS_NAME = "shards.json"
QUARANTINE_DIR = ".quarantine"
TMP_SUFFIX = ".tmp"


def refuse_legacy_layout(directory: str | os.PathLike) -> None:
    """Raise :class:`ManifestError` when ``directory`` holds the legacy
    sharded layout.  Only opening it with ``ShardedStore`` converts it;
    anything else must write nothing there first, since a root manifest
    would pass for a finished conversion."""
    if (Path(directory) / LEGACY_SHARDS_NAME).exists():
        raise ManifestError(
            f"{directory} holds the legacy sharded layout "
            f"({LEGACY_SHARDS_NAME} over shard-NNNN/ stores); opening it "
            "with ShardedStore converts it into one banded store"
        )


# ----------------------------------------------------------------------
# Fault hook plumbing
# ----------------------------------------------------------------------

class FaultHook(Protocol):
    """Interface :mod:`repro.testing.faults` implements.

    ``before(op, path)`` may raise to simulate a failed syscall;
    ``torn_write(path, data)`` may return a byte count ``k`` — the write
    persists exactly ``data[:k]`` and then raises — or ``None`` to pass
    through.  Ops are ``"write"``, ``"read"``, ``"rename"``, ``"fsync"``
    (of a file, or of a directory after a rename or a file creation),
    ``"unlink"``, ``"truncate"``.
    """

    def before(self, op: str, path: Path) -> None: ...

    def torn_write(self, path: Path, data: bytes) -> int | None: ...


_fault_hook: FaultHook | None = None


def set_fault_hook(hook: FaultHook | None) -> FaultHook | None:
    """Install (or clear with ``None``) the fault hook; returns the old one."""
    global _fault_hook
    old = _fault_hook
    _fault_hook = hook
    return old


def get_fault_hook() -> FaultHook | None:
    return _fault_hook


def _injected_os_error(op: str, path: Path) -> OSError:
    return OSError(errno.EIO, f"injected fault on {op}", str(path))


# ----------------------------------------------------------------------
# Filesystem primitives (the only place the store touches the OS)
# ----------------------------------------------------------------------

def read_bytes(path: str | os.PathLike) -> bytes:
    """Read a whole file; the raw ``OSError`` propagates."""
    hook = _fault_hook
    if hook is not None:
        hook.before("read", Path(path))
    with open(path, "rb") as fh:
        return fh.read()


def encode_manifest(doc: Any) -> bytes:
    """The bytes of a JSON document the store commits.

    Compact, with no ``indent``, so CPython's C encoder writes it; the
    default ``", "`` and ``": "`` separators are kept.  Documents written
    indented by earlier versions parse to the same objects.
    """
    return json.dumps(doc).encode("utf-8")


def peek_manifest(path: str | os.PathLike) -> dict:
    """The JSON document committed at ``path``, or ``{}`` when it is
    missing or unreadable — what a store consults before it opens, to
    adopt the settings an existing directory was created with."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return {}
    return doc if isinstance(doc, dict) else {}


def fsync_directory(path: str | os.PathLike) -> None:
    """fsync a directory, making the entries renamed or created in it
    durable (fault op: ``"fsync"`` on the directory path)."""
    path = Path(path)
    hook = _fault_hook
    if hook is not None:
        hook.before("fsync", path)
    fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_bytes_atomic(
    path: str | os.PathLike, data: bytes, *, fsync: bool = False
) -> int:
    """Commit ``data`` to ``path`` via the ``*.tmp`` + rename protocol.

    A crash anywhere inside this function leaves ``path`` untouched (old
    content or absent) plus at most one ``<path>.tmp`` orphan, which
    :func:`clean_temp_files` removes on the next store open.  With
    ``fsync`` the file is fsync'd before the rename and its directory
    after it.  Returns the number of bytes committed.
    """
    path = Path(path)
    tmp = path.with_name(path.name + TMP_SUFFIX)
    hook = _fault_hook
    with open(tmp, "wb") as fh:
        if hook is not None:
            hook.before("write", tmp)
            torn = hook.torn_write(tmp, data)
            if torn is not None:
                fh.write(data[:torn])
                fh.flush()
                raise _injected_os_error("write", tmp)
        fh.write(data)
        if fsync:
            fh.flush()
            if hook is not None:
                hook.before("fsync", tmp)
            os.fsync(fh.fileno())
    if hook is not None:
        hook.before("rename", path)
    os.replace(tmp, path)
    if fsync:
        fsync_directory(path.parent)
    return len(data)


class AppendFile:
    """A file held open for appends: the WAL's active segment, and the
    store's manifest log.

    Unlike :func:`write_bytes_atomic` there is no rename commit point — a
    crash mid-append leaves a *torn tail*, which the record framing
    (:func:`frame_record`) lets :func:`scan_records` detect and replay
    truncate.  The file
    is opened once (created if absent) and every :meth:`write` goes
    straight to the descriptor, looping on short writes, so no byte waits
    in a user-space buffer once it returns.  Same fault-hook contract as
    the atomic writer: each write is one ``"write"`` op (torn writes
    persist an exact byte prefix), followed by ``"fsync"`` when ``fsync``
    is set; :meth:`truncate` is a ``"truncate"`` op.  The descriptor
    closes on :meth:`close` or, as a backstop, when the object is
    collected.
    """

    def __init__(self, path: str | os.PathLike, *, fsync: bool = False):
        self.path = Path(path)
        self.fsync = bool(fsync)
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o666
        )
        self._closer = weakref.finalize(self, os.close, self._fd)

    def write(self, data: bytes) -> int:
        """Append ``data``; returns the number of bytes written."""
        hook = _fault_hook
        if hook is not None:
            hook.before("write", self.path)
            torn = hook.torn_write(self.path, data)
            if torn is not None:
                self._write_all(memoryview(data)[:torn])
                raise _injected_os_error("write", self.path)
        self._write_all(data)
        if self.fsync:
            if hook is not None:
                hook.before("fsync", self.path)
            os.fsync(self._fd)
        return len(data)

    def _write_all(self, data) -> None:
        view = memoryview(data)
        while view:
            view = view[os.write(self._fd, view):]

    def truncate(self, size: int) -> None:
        """Cut the file back to ``size`` bytes (fault op: ``"truncate"``),
        followed by ``"fsync"`` when ``fsync`` is set."""
        hook = _fault_hook
        if hook is not None:
            hook.before("truncate", self.path)
        os.ftruncate(self._fd, size)
        if self.fsync:
            if hook is not None:
                hook.before("fsync", self.path)
            os.fsync(self._fd)

    def close(self) -> None:
        """Close the descriptor.  Idempotent."""
        self._closer()


def rename_file(
    src: str | os.PathLike, dst: str | os.PathLike, *, fsync: bool = False
) -> None:
    """Atomically rename ``src`` over ``dst`` (fault op: ``"rename"``).

    The WAL's segment-seal commit point: sealing renames
    ``seg-N.wal.open`` to ``seg-N.wal`` so replay can distinguish the one
    actively-appended segment from the sealed, immutable ones.  With
    ``fsync`` the destination's directory is fsync'd after the rename.
    """
    src = Path(src)
    dst = Path(dst)
    hook = _fault_hook
    if hook is not None:
        hook.before("rename", dst)
    os.replace(src, dst)
    if fsync:
        fsync_directory(dst.parent)


def remove_file(path: str | os.PathLike) -> None:
    """Unlink ``path`` (fault op: ``"unlink"``).

    Used for every durable *delete* transition — retiring a packed WAL
    segment, GC'ing a superseded fragment — always *after* the manifest
    commit that stops referencing the file, so a crash between the two
    leaves only recoverable duplicates.
    """
    path = Path(path)
    hook = _fault_hook
    if hook is not None:
        hook.before("unlink", path)
    path.unlink()


def truncate_file(path: str | os.PathLike, size: int) -> None:
    """Truncate ``path`` to ``size`` bytes (fault op: ``"truncate"``).

    WAL repair uses this to amputate a torn final record, restoring the
    segment to its longest intact prefix.
    """
    path = Path(path)
    hook = _fault_hook
    if hook is not None:
        hook.before("truncate", path)
    os.truncate(path, size)


def clean_temp_files(directory: str | os.PathLike) -> list[Path]:
    """Delete orphaned ``*.tmp`` files left by a crashed commit.

    Returns the paths removed.  Temp files are by construction invisible to
    readers (the commit point is the rename), so deleting them is always
    safe.
    """
    directory = Path(directory)
    removed: list[Path] = []
    for tmp in sorted(directory.glob(f"*{TMP_SUFFIX}")):
        try:
            tmp.unlink()
        except OSError:  # pragma: no cover - racing cleanup is fine
            continue
        removed.append(tmp)
    if removed:
        counter_add("store.tmp_cleaned", len(removed))
    return removed


def file_crc(data: bytes) -> int:
    """CRC-32 of a whole committed fragment file (recorded in the manifest)."""
    return zlib.crc32(data) & 0xFFFFFFFF


#: ``crc32(body || crc32(body))`` for every body: the CRC-32 residue.  It
#: is what earlier versions recorded as every intact fragment's CRC (the
#: CRC of the whole file), so a manifest entry holding it identifies no
#: fragment.
CRC32_RESIDUE = 0x2144DF1C

#: A fragment file's name; the number is its file sequence number.
FRAGMENT_NAME_RE = re.compile(r"frag-(\d+)\.bin$")


def fragment_file_crc(blob) -> int:
    """A fragment's CRC: the CRC-32 of its body, read in O(1).

    A fragment blob ends with the CRC-32 of everything before it
    (:func:`repro.storage.serialization.pack_fragment`), so the last four
    bytes are the value.  The manifest records it per fragment, and every
    load and :func:`fsck` compare a file's trailer against it: a file
    whose body does not match its own trailer is corrupt, and a file
    whose trailer is not the recorded value is another fragment.
    """
    if len(blob) < 4:
        return file_crc(blob)
    (body_crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    return body_crc


def recorded_crc(value) -> int | None:
    """The fragment CRC a manifest entry records, or ``None`` when it
    records none (absent, or :data:`CRC32_RESIDUE`, which manifests
    written before the body CRC hold for every fragment)."""
    if value is None or int(value) == CRC32_RESIDUE:
        return None
    return int(value)


def quarantine_file(
    directory: str | os.PathLike, path: str | os.PathLike, *, reason: str
) -> Path:
    """Move ``path`` into ``<directory>/.quarantine/``; returns the new path.

    The original file name is kept (suffixed ``.N`` on collision) and a
    sidecar ``<name>.reason`` records why it was quarantined, so operators
    can inspect — and potentially salvage — the bytes later.
    """
    directory = Path(directory)
    path = Path(path)
    qdir = directory / QUARANTINE_DIR
    qdir.mkdir(parents=True, exist_ok=True)
    target = qdir / path.name
    n = 0
    while target.exists():
        n += 1
        target = qdir / f"{path.name}.{n}"
    os.replace(path, target)
    try:
        target.with_name(target.name + ".reason").write_text(reason + "\n")
    except OSError:  # pragma: no cover - the move itself already succeeded
        pass
    counter_add("store.fragments_quarantined")
    return target


# ----------------------------------------------------------------------
# Record logs (the WAL's segments and the manifest log)
# ----------------------------------------------------------------------

_U32 = struct.Struct("<I")


def frame_record(body: bytes) -> bytes:
    """One log record: ``u32 len(body) | body | u32 crc32(body)``."""
    return b"".join([
        _U32.pack(len(body)), body, _U32.pack(zlib.crc32(body) & 0xFFFFFFFF)
    ])


@dataclass
class RecordScan:
    """Outcome of :func:`scan_records`.

    ``status`` is ``"ok"`` (every byte is an intact record), ``"torn"``
    (damage in the *final* record only: what a crashed append leaves;
    ``valid_bytes`` is the intact prefix to truncate back to) or
    ``"corrupt"`` (damage followed by more bytes, which no crashed append
    explains).  ``records`` holds the intact records decoded, in order,
    whatever the status.
    """

    records: list
    valid_bytes: int
    status: str
    detail: str = ""


def scan_records(
    data: bytes, offset: int, decode: Callable[[bytes], Any], *, where: str
) -> RecordScan:
    """Scan the framed records of ``data`` from ``offset``, classifying
    damage by where it is.

    ``decode`` turns an intact body into a record and raises
    ``ValueError`` / ``KeyError`` / ``TypeError`` when it cannot; such a
    record counts as damaged, like a CRC mismatch.  ``where`` names the
    file kind in the details (``"segment"``, ``"log"``).
    """
    records: list = []
    size = len(data)
    while offset < size:
        if offset + 4 > size:
            return RecordScan(
                records, offset, "torn",
                f"torn length prefix at end of {where}",
            )
        (blen,) = _U32.unpack_from(data, offset)
        extent = 8 + blen
        if offset + extent > size:
            return RecordScan(
                records, offset, "torn", f"record at {offset} overruns EOF"
            )
        body = data[offset + 4:offset + 4 + blen]
        (crc,) = _U32.unpack_from(data, offset + 4 + blen)
        reason = ""
        if zlib.crc32(body) & 0xFFFFFFFF != crc:
            reason = f"record CRC mismatch at {offset}"
        else:
            try:
                records.append(decode(body))
            except (ValueError, KeyError, TypeError) as exc:
                reason = f"record at {offset} undecodable: {exc}"
        if reason:
            if offset + extent == size:
                return RecordScan(records, offset, "torn", reason)
            return RecordScan(
                records, offset, "corrupt", f"{reason} (mid-{where})"
            )
        offset += extent
    return RecordScan(records, size, "ok")


def _decode_manifest_record(body: bytes) -> dict[str, Any]:
    record = json.loads(body)
    if not isinstance(record, dict):
        raise ValueError("manifest record is not an object")
    record["generation"] = int(record["generation"])
    return record


def apply_manifest_record(doc: dict[str, Any], record: dict[str, Any]) -> None:
    """Apply one manifest-log record to a manifest document in place.

    A record holds what its commit changed, applied in this order:
    ``replace`` (``[old name, entry]`` pairs rewritten in place, keeping
    list position — migration, re-ordering, zone backfill), ``retire``
    (names moved from the live list to ``retired``, stamped with the
    record's generation), ``drop`` (names removed from either list),
    ``add`` (entries appended to the live list), ``gc_horizon`` and
    ``bands`` (the band table's interior edges; empty: one band).
    Only a record that removes or replaces entries walks the lists.
    Raises ``KeyError`` / ``ValueError`` / ``TypeError``, leaving ``doc``
    untouched, when the record names a fragment the document does not
    hold.
    """
    generation = record["generation"]
    live = doc["fragments"]
    retired = doc.get("retired", [])
    retire = list(record.get("retire", ()))
    drop = set(record.get("drop", ()))
    gone = drop.union(retire)
    add = list(record.get("add", ()))
    horizon = record.get("gc_horizon")
    horizon = doc.get("gc_horizon") if horizon is None else int(horizon)
    if record.get("replace") or gone:
        live = list(live)
        out: dict[str, dict] = {}
        position = {e["file"]: i for i, e in enumerate(live)}
        for old, entry in record.get("replace", ()):
            i = position[old]
            out[old] = live[i]
            live[i] = entry
        if gone:
            kept = []
            for e in live:
                if e["file"] in gone:
                    out[e["file"]] = e
                else:
                    kept.append(e)
            live = kept
        if drop:
            out.update((e["file"], e) for e in retired if e["file"] in drop)
            retired = [e for e in retired if e["file"] not in drop]
        missing = gone.difference(out)
        if missing:
            raise KeyError(f"unlisted fragment(s) {sorted(missing)}")
        retired = retired + [
            {**out[name], "retired": generation} for name in retire
        ]
        doc["fragments"] = live
        if retired:
            doc["retired"] = retired
        else:
            doc.pop("retired", None)
    live.extend(add)
    if horizon:
        doc["gc_horizon"] = horizon
    bands = record.get("bands")
    if bands:
        doc["bands"] = bands
    elif bands is not None:
        doc.pop("bands", None)
    doc["generation"] = generation


@dataclass
class ManifestLoad:
    """A store's committed manifest, as :func:`load_manifest` read it.

    ``doc`` is the checkpoint with every applicable log record replayed
    on it.  ``log_status`` is ``"absent"`` (no ``manifest.log``: a store
    written before the log existed), ``"ok"``, ``"torn"`` (a damaged
    final record, cut off by truncating to ``log_bytes``) or
    ``"corrupt"`` (damage before the final record, or a record that does
    not apply; ``doc`` then holds the state up to the last record that
    did).
    """

    doc: dict[str, Any]
    checkpoint_bytes: int
    log_bytes: int = 0
    log_status: str = "absent"
    detail: str = ""
    #: Records applied on top of the checkpoint.
    applied: int = 0


def load_manifest(directory: str | os.PathLike) -> ManifestLoad:
    """Read a store's checkpoint and replay its manifest log on top.

    Records at or below the checkpoint's generation are skipped (a crash
    between a checkpoint's rename and the log truncate leaves them); every
    other record must carry the next generation.  Raises
    :class:`~repro.core.errors.ManifestError` when ``manifest.json`` is
    missing or unreadable; damage in the log is reported, not raised.
    """
    directory = Path(directory)
    path = directory / MANIFEST_NAME
    try:
        raw = path.read_bytes()
        doc = json.loads(raw)
        if not isinstance(doc.get("fragments"), list):
            raise ValueError("no fragment list")
    except (OSError, ValueError, AttributeError) as exc:
        raise ManifestError(f"corrupt manifest {path}: {exc}") from exc
    load = ManifestLoad(doc, len(raw))
    try:
        data = (directory / MANIFEST_LOG_NAME).read_bytes()
    except FileNotFoundError:
        return load
    scan = scan_records(data, 0, _decode_manifest_record, where="log")
    load.log_bytes, load.log_status, load.detail = (
        scan.valid_bytes, scan.status, scan.detail
    )
    base = int(doc.get("generation", 0))
    for record in scan.records:
        generation = record["generation"]
        if generation <= base:
            continue
        current = int(doc.get("generation", 0))
        try:
            if generation != current + 1:
                raise ValueError(
                    f"generation {generation} follows {current}"
                )
            apply_manifest_record(doc, record)
        except (KeyError, ValueError, TypeError) as exc:
            load.log_status = "corrupt"
            load.detail = f"record of generation {generation}: {exc}"
            break
        load.applied += 1
    return load


# ----------------------------------------------------------------------
# fsck
# ----------------------------------------------------------------------

@dataclass
class FsckIssue:
    """One problem found by :func:`fsck`."""

    # "missing" | "corrupt" | "extra" | "tmp" | "manifest" | "retired" | "wal"
    kind: str
    name: str
    detail: str
    repaired: str = ""  # action taken under --repair ("", "quarantined", ...)


@dataclass
class FsckReport:
    """Outcome of one :func:`fsck` pass over a store directory."""

    directory: Path
    generation: int
    checked: int
    ok: list[str] = field(default_factory=list)
    issues: list[FsckIssue] = field(default_factory=list)
    repaired: bool = False
    wal_segments: int = 0
    wal_bytes: int = 0
    #: Bytes-on-disk per stored codec chain across verified-ok fragments
    #: (live + retired), from each fragment's own header — so the codec
    #: inventory in ``repro fsck --json`` reflects what is actually
    #: decodable, not what the manifest claims.
    codecs: dict[str, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.issues

    def issues_of(self, kind: str) -> list[FsckIssue]:
        return [i for i in self.issues if i.kind == kind]

    def summary(self) -> str:
        status = "clean" if self.clean else f"{len(self.issues)} issue(s)"
        lines = [
            f"fsck {self.directory}: {status} "
            f"(generation {self.generation}, {self.checked} fragment(s) "
            f"checked, {len(self.ok)} ok)"
        ]
        if self.wal_segments:
            lines.append(
                f"  wal: {self.wal_segments} segment(s), "
                f"{self.wal_bytes} valid byte(s)"
            )
        if self.codecs:
            per_codec = ", ".join(
                f"{tag}={nbytes}B" for tag, nbytes in sorted(self.codecs.items())
            )
            lines.append(f"  codecs: {per_codec}")
        for issue in self.issues:
            action = f" [{issue.repaired}]" if issue.repaired else ""
            lines.append(
                f"  {issue.kind:<8s} {issue.name}: {issue.detail}{action}"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        return {
            "directory": str(self.directory),
            "generation": self.generation,
            "checked": self.checked,
            "clean": self.clean,
            "repaired": self.repaired,
            "wal_segments": self.wal_segments,
            "wal_bytes": self.wal_bytes,
            "codecs": dict(sorted(self.codecs.items())),
            "ok": list(self.ok),
            "issues": [
                {
                    "kind": i.kind,
                    "name": i.name,
                    "detail": i.detail,
                    "repaired": i.repaired,
                }
                for i in self.issues
            ],
        }


def _verify_fragment_file(
    path: Path, expected_crc: int | None, expected_nbytes: int | None
) -> tuple[dict[str, Any] | None, bytes, str | None]:
    """Full integrity check of one fragment file.

    Returns ``(header, data, None)`` when the file is sound, ``data``
    being the bytes read, else ``(None, b"", reason)``.  ``expected_crc``
    is the CRC the manifest records (:func:`recorded_crc`); the file's
    trailer must equal it, and its body must match the trailer.  The CRC
    covers the *compressed* bytes, so bit rot inside a compressed buffer
    is caught without decoding; compressed buffers are additionally
    decoded here so that a torn or mis-framed compressed section
    committed with a valid CRC (e.g. a fault-injected torn write that
    happened to survive framing) is still reported — and quarantined
    under ``--repair`` — instead of failing at read time.
    """
    from .serialization import unpack_fragment, unpack_header, verify_crc

    try:
        data = read_bytes(path)
    except OSError as exc:
        return None, b"", f"unreadable: {exc}"
    if expected_nbytes is not None and len(data) != expected_nbytes:
        return None, b"", (
            f"size mismatch: file has {len(data)} bytes, "
            f"manifest records {expected_nbytes}"
        )
    if expected_crc is not None:
        actual = fragment_file_crc(data)
        if actual != expected_crc:
            return None, b"", (
                f"checksum mismatch: the file's CRC is {actual:#010x}, "
                f"the manifest records {expected_crc:#010x}"
            )
    try:
        verify_crc(data)
        header, _ = unpack_header(data)
    except FragmentError as exc:
        return None, b"", str(exc)
    # Raw buffers are fully covered by the CRC + size checks above;
    # compressed chains get one decode pass to prove they invert.
    tags = {e.get("codec", "raw") for e in header.get("buffers", [])}
    tags.add(header.get("value_codec", "raw"))
    if tags - {"raw"}:
        try:
            unpack_fragment(data, check_crc=False)
        except FragmentError as exc:
            chains = ",".join(sorted(tags - {"raw"}))
            return None, b"", f"compressed buffer ({chains}) undecodable: {exc}"
    return header, data, None


def _file_seq(name: str) -> int:
    """A fragment file name's sequence number (-1 for other names)."""
    m = FRAGMENT_NAME_RE.match(name)
    return int(m.group(1)) if m else -1


def _span(mark) -> tuple[float, float]:
    """A header's ``"band"`` or ``"compacted"`` mark as an address range
    (no mark, or ``true``: the whole address space)."""
    if mark is None or mark is True:
        return (0, math.inf)
    return (int(mark[0]), int(mark[1]))


def _rebuild_rule(
    unlisted: list[tuple[Any, dict[str, Any]]],
    newest_listed: int,
    table: set[tuple[int, int]] | None = None,
) -> dict[str, str]:
    """The rebuild rule: the readable fragment files the manifest does
    not list that a rebuild must not list either, each with why.

    ``unlisted`` pairs each file's view with its header's ``extra``;
    ``newest_listed`` is the highest file number the manifest lists
    (live or retired), -1 without a manifest; ``table`` holds the
    committed band table's ``(lo, hi)`` bands (``None`` without one).  A
    file's band is its ``"band"`` mark, a compaction, split or merge
    output's range its ``"compacted"`` mark (:func:`_span`).  A file is
    superseded when

    1. its claimed sequence number is at or below ``newest_listed``: a
       committed fragment follows it (a compaction source, a replaced
       fragment, a write whose commit failed);
    2. a newer compaction output of another commit has a range that
       contains its band: the output holds every fragment of that range
       before it (a split's two halves share a commit and a range);
    3. a newer file (a higher file number) claims the same number: that
       file is a replacement, and this one its original;

    and it is uncommitted when 4. it names its commit's last file
    (``"commit_end"``) and the file claiming that number carries another
    mark, or no file claims it and no newer compaction output vouches
    for the commit (``"vouches"``: a band's rewrite that retired the last
    file of a commit whose other pieces live on names it): the commit
    never wrote it; or 5. ``table`` lacks its band: a split or merge
    whose commit never landed.  Every other file is live.  Every
    committed output supersedes, a superseded one too (a split's halves
    cover less than the band it rewrote), and rules 2 and 4 consult
    newer ones alone, so files are judged newest first.
    """
    out: dict[str, str] = {}
    rest = []  # (claimed sequence number, file number, name, extra)
    for info, extra in unlisted:
        seq, name = info.effective_seq(), info.path.name
        if seq <= newest_listed:
            out[name] = (
                f"superseded: older than listed frag-{newest_listed:06d}.bin"
            )
        else:
            rest.append((seq, _file_seq(name), name, extra))
    newest_of_seq = {seq: (name, x) for seq, _, name, x in sorted(rest)}
    # Committed outputs: seq, name, range, commit end, vouched-for ends.
    outputs: list[tuple] = []
    for seq, _, name, extra in sorted(rest, reverse=True):
        band = _span(extra.get("band"))
        end = extra.get("commit_end")
        if table is not None and "band" in extra and band not in table:
            out[name] = (
                f"uncommitted: band [{band[0]}, {band[1]}) is not in the "
                "committed band table"
            )
            continue
        if end is not None:
            holder = newest_of_seq.get(end)
            if holder is None:
                done = any(end in v for *_, v in outputs)
            else:
                done = holder[1].get("commit_end") == end
            if not done:
                out[name] = (
                    "uncommitted: its commit never wrote its last file "
                    f"frag-{end:06d}.bin"
                )
                continue
        cover = next((
            n for s, n, r, e, _ in outputs
            if s > seq and r[0] <= band[0] and band[1] <= r[1]
            and (e is None or e != end)
        ), None)
        if cover is not None:
            out[name] = f"superseded: older than compaction output {cover}"
        elif newest_of_seq[seq][0] != name:
            out[name] = f"superseded: replaced by {newest_of_seq[seq][0]}"
        if extra.get("compacted"):
            outputs.append((
                seq, name, _span(extra["compacted"]), end,
                extra.get("vouches", ()),
            ))
    return out


def _rebuilt_edges(marks: list[tuple[float, float]]) -> list[int]:
    """The band edges of a store rebuilt without its manifest, from its
    live fragments' bands: each band's low edge but the lowest, less any
    edge a live fragment's band spans.  So a band whose fragments are all
    gone merges into its neighbour, and no fragment straddles an edge."""
    lows = sorted({lo for lo, _ in marks})[1:]
    return [e for e in lows if not any(lo < e < hi for lo, hi in marks)]


def _tally_codecs(report: FsckReport, header: dict[str, Any]) -> None:
    """Fold one verified fragment's per-codec footprint into the report."""
    from .compression import codec_sizes

    on_disk, _ = codec_sizes(header)
    for tag, nbytes in on_disk.items():
        report.codecs[tag] = report.codecs.get(tag, 0) + nbytes


def fsck(
    directory: str | os.PathLike, *, repair: bool = False
) -> FsckReport:
    """Verify a fragment store directory against its manifest.

    The manifest is the checkpoint with its log replayed
    (:func:`load_manifest`), so fragments committed through the log are
    listed, never orphans.  Checks, for every manifest entry: the file
    exists, its size and CRC match the manifest, its trailing CRC-32
    verifies, and its header parses.  Also reports fragment files *not*
    in the manifest (``extra`` — e.g. a fragment written right before a
    crash that prevented the manifest update, or a superseded one whose
    deletion failed), stale ``*.tmp`` files, and a damaged manifest log
    (kind ``manifest``: a torn final record, or corruption before it).

    With ``repair=True``: temp files are deleted, unreadable fragments are
    moved to ``.quarantine/`` (never silently dropped), the log's commits
    are folded into ``manifest.json`` and the log emptied (a corrupt log
    is quarantined instead), and the manifest is rewritten atomically
    with a bumped generation.  A readable extra is recovered, as its
    header describes it, unless :func:`_rebuild_rule` quarantines it;
    recovered extras are appended in (sequence number, file name) order.
    Without a manifest every fragment file is an extra, so the rebuild
    lists exactly the fragments a newest-wins read needs, and takes a
    banded store's edges from their band marks (:func:`_rebuilt_edges`).

    When the store has a write-ahead log (a ``wal/`` subdirectory), every
    segment is scanned too: torn tails are reported (and truncated back to
    the last intact record under ``repair=True``); segments corrupt before
    their final record are quarantined under ``repair=True``.  Retired
    fragments (superseded but kept for snapshots) are verified like live
    ones; missing or corrupt retired entries are dropped from the retained
    list on repair.  A directory in the legacy sharded layout is refused
    untouched (:func:`refuse_legacy_layout`).
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ManifestError(f"not a store directory: {directory}")
    refuse_legacy_layout(directory)
    manifest_path = directory / MANIFEST_NAME

    log_path = directory / MANIFEST_LOG_NAME

    generation = 0
    entries: list[dict[str, Any]] = []
    retired_entries: list[dict[str, Any]] = []
    manifest_meta: dict[str, Any] = {}
    report = FsckReport(directory=directory, generation=0, checked=0)
    load: ManifestLoad | None = None
    if manifest_path.exists():
        try:
            load = load_manifest(directory)
            manifest = load.doc
            entries = list(manifest.get("fragments", []))
            retired_entries = list(manifest.get("retired", []))
            generation = int(manifest.get("generation", 0))
            manifest_meta = {
                k: manifest[k]
                for k in (
                    "version", "shape", "format", "relative_coords", "codec",
                    "gc_horizon", "addr_order", "bands",
                )
                if k in manifest
            }
        except (ManifestError, ValueError, TypeError) as exc:
            load = None
            report.issues.append(
                FsckIssue("manifest", MANIFEST_NAME, f"unreadable: {exc}")
            )
    else:
        report.issues.append(
            FsckIssue("manifest", MANIFEST_NAME, "missing")
        )
    if load is not None and load.log_status in ("torn", "corrupt"):
        log_issue = FsckIssue("manifest", MANIFEST_LOG_NAME, load.detail)
        if repair:
            log_issue.repaired = (
                "truncated" if load.log_status == "torn" else "quarantined"
            )
        report.issues.append(log_issue)
    report.generation = generation

    # Listed and retired entries are authoritative.  Retired fragments
    # are still readable through pinned snapshots, so they get the same
    # integrity check; a broken one only costs the retained history,
    # never live data.
    surviving: list[dict[str, Any]] = []
    surviving_retired: list[dict[str, Any]] = []
    listed_names = set()
    for retired, listed, kept in (
        (False, entries, surviving), (True, retired_entries, surviving_retired)
    ):
        for entry in listed:
            name = str(entry.get("file", "?"))
            listed_names.add(name)
            path = directory / name
            report.checked += 1
            if not path.exists():
                report.issues.append(
                    FsckIssue(
                        "retired", name, "retired in manifest, no file",
                        "dropped" if repair else "",
                    ) if retired else
                    FsckIssue("missing", name, "listed in manifest, no file")
                )
                continue
            header, _, reason = _verify_fragment_file(
                path, recorded_crc(entry.get("crc")), entry.get("nbytes")
            )
            if reason is None:
                report.ok.append(name)
                kept.append(dict(entry))
                _tally_codecs(report, header)
                continue
            issue = FsckIssue("retired" if retired else "corrupt", name, reason)
            if repair:
                quarantine_file(directory, path, reason=f"fsck: {reason}")
                issue.repaired = "quarantined"
            report.issues.append(issue)

    # Fragment files on disk the manifest does not know about: the
    # readable ones are recovered unless the rebuild rule supersedes them.
    from .fragment import FragmentInfo

    unlisted: list[tuple[FragmentInfo, dict[str, Any]]] = []
    for path in sorted(directory.glob("frag-*.bin")):
        if path.name in listed_names:
            continue
        header, data, reason = _verify_fragment_file(path, None, None)
        if reason is None:
            info = FragmentInfo.from_header(path, header, data)
            unlisted.append((info, header.get("extra") or {}))
            continue
        issue = FsckIssue(
            "extra", path.name, f"unlisted and unreadable: {reason}"
        )
        if repair:
            quarantine_file(directory, path, reason=f"fsck: {reason}")
            issue.repaired = "quarantined"
        report.issues.append(issue)
    table = None
    if manifest_meta.get("shape") and any("band" in x for _, x in unlisted):
        from ..core.linearize import address_space_size

        bounds = [
            0, *manifest_meta.get("bands", ()),
            address_space_size(
                manifest_meta["shape"],
                manifest_meta.get("addr_order") or "row_major",
            ),
        ]
        table = set(zip(bounds, bounds[1:]))
    stale = _rebuild_rule(
        unlisted, max(map(_file_seq, listed_names), default=-1), table
    )
    recovered: list[FragmentInfo] = []
    for info, _ in unlisted:
        detail = stale.get(info.path.name)
        issue = FsckIssue(
            "extra", info.path.name,
            detail or "valid fragment missing from manifest",
        )
        if repair and detail:
            quarantine_file(directory, info.path, reason=f"fsck: {detail}")
            issue.repaired = "quarantined"
        elif repair:
            recovered.append(info)
            issue.repaired = "recovered"
        report.issues.append(issue)

    for tmp in sorted(directory.glob(f"*{TMP_SUFFIX}")):
        issue = FsckIssue("tmp", tmp.name, "stale temporary file")
        if repair:
            try:
                tmp.unlink()
                issue.repaired = "deleted"
            except OSError as exc:  # pragma: no cover
                issue.detail += f" (unlink failed: {exc})"
        report.issues.append(issue)

    # WAL segments: verify framing and CRCs without replaying anything.
    # Imported locally — wal.py builds on this module's primitives.
    from .wal import list_segments, scan_segment, wal_path

    wal_dir = wal_path(directory)
    if wal_dir.is_dir():
        shape_meta = manifest_meta.get("shape")
        expected_shape = (
            tuple(int(m) for m in shape_meta) if shape_meta else None
        )
        for seg_path in list_segments(wal_dir):
            scan = scan_segment(seg_path, expected_shape=expected_shape)
            report.wal_segments += 1
            report.wal_bytes += scan.valid_bytes
            if scan.status == "ok":
                report.ok.append(seg_path.name)
                continue
            issue = FsckIssue("wal", seg_path.name, scan.detail)
            if repair:
                if scan.status == "torn":
                    if scan.valid_bytes:
                        truncate_file(seg_path, scan.valid_bytes)
                        issue.repaired = "truncated"
                    else:
                        remove_file(seg_path)
                        issue.repaired = "deleted"
                else:
                    quarantine_file(
                        directory, seg_path, reason=f"fsck: {scan.detail}"
                    )
                    issue.repaired = "quarantined"
            report.issues.append(issue)

    if repair:
        if log_path.exists():
            if load is not None and load.applied:
                # Fold the log's commits into the checkpoint first: a
                # crash from here on keeps them.
                write_bytes_atomic(
                    manifest_path, encode_manifest(load.doc), fsync=True
                )
            if load is not None and load.log_status == "corrupt":
                quarantine_file(
                    directory, log_path, reason=f"fsck: {load.detail}"
                )
            else:
                # Emptied before the rebuilt manifest lands, so no record
                # can replay onto it.
                log = AppendFile(log_path, fsync=True)
                try:
                    log.truncate(0)
                finally:
                    log.close()
        rebuilt = dict(manifest_meta)
        rebuilt["generation"] = generation + 1
        recovered.sort(key=lambda f: (f.effective_seq(), f.path.name))
        rebuilt["fragments"] = surviving + [f.to_entry() for f in recovered]
        if surviving_retired:
            rebuilt["retired"] = surviving_retired
        if load is None:
            edges = _rebuilt_edges([
                _span(x.get("band")) for info, x in unlisted
                if info.path.name not in stale
            ])
            if edges:
                rebuilt["bands"] = edges
        write_bytes_atomic(
            manifest_path, encode_manifest(rebuilt), fsync=True
        )
        report.generation = rebuilt["generation"]
        report.repaired = True
    counter_add("store.fsck_runs")
    return report
