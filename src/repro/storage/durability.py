"""Durability subsystem: atomic commits, retries, quarantine, and fsck.

The fragment substrate (Algorithm 3) is an append-only store on a parallel
filesystem, and real parallel filesystems fail in exactly three ways the
paper's benchmark never sees: processes die mid-write (torn files), the
kernel returns transient ``EIO``/``EAGAIN`` under load, and bits rot at
rest.  This module implements the store's answer to each, once, at the
substrate level — every organization inherits it:

**Atomic commit protocol.**
    All directory mutations go through :func:`write_bytes_atomic`: the blob
    is written to ``<name>.tmp``, optionally fsync'd, then renamed over the
    final path.  A crash at any byte offset leaves either the old file or a
    ``*.tmp`` orphan — never a torn committed file.  The manifest carries a
    monotonically increasing ``generation`` and a per-fragment CRC, so the
    commit point of a fragment is its manifest entry, not its file.  With
    ``fsync`` on, the directory is fsync'd after the rename as well: a
    rename lives in the directory, and until the directory reaches the
    disk a power loss can undo it.  Every JSON document the store commits
    (manifests, shard sidecars, the workload ledger) is encoded by
    :func:`encode_manifest`.

**Bounded retries.**
    :class:`RetryPolicy` wraps transient ``OSError`` s (but never checksum
    or parse failures) in bounded exponential backoff with an injectable
    sleep, so tests and simulations can run it without wall-clock delay.

**Quarantine.**
    Fragments that fail their CRC are moved to ``<store>/.quarantine/``
    rather than deleted — corruption is surfaced (``store.corrupt_fragments``
    in :mod:`repro.obs`, :func:`fsck` reports), never silently dropped.

**fsck.**
    :func:`fsck` verifies every fragment's header and CRC against the
    manifest, reports drift (missing / extra / corrupt / stale temp files),
    and with ``repair=True`` rebuilds the manifest, recovers readable
    orphan fragments, and quarantines unreadable ones.

All filesystem primitives here route through a process-global *fault hook*
(:func:`set_fault_hook`) so :mod:`repro.testing.faults` can deterministically
tear writes and inject errors at every byte of the commit path.  When no
hook is installed the check is one module attribute load per *call* —
see ``benchmarks/bench_fault_overhead.py`` for the enforced <5% bound.
"""

from __future__ import annotations

import errno
import json
import os
import struct
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Protocol

from ..core.errors import ChecksumError, FragmentError, ManifestError
from ..obs import counter_add

MANIFEST_NAME = "manifest.json"
QUARANTINE_DIR = ".quarantine"
TMP_SUFFIX = ".tmp"


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
    """Read a whole file; the raw ``OSError`` propagates (retryable)."""
    hook = _fault_hook
    if hook is not None:
        hook.before("read", Path(path))
    with open(path, "rb") as fh:
        return fh.read()


def read_view(path: str | os.PathLike):
    """Map a whole file read-only; returns a flat ``uint8`` array view.

    The zero-copy twin of :func:`read_bytes`: the returned ``np.memmap``
    aliases the page cache instead of materializing a bytes copy, and the
    unpack side slices it section by section (see
    :mod:`repro.storage.serialization`).  Same fault-hook contract as
    :func:`read_bytes` — the injection op is ``"read"``, so fault plans
    that tear reads hit the lazy path identically.  POSIX rename/unlink
    semantics keep an open mapping consistent while compaction replaces
    or deletes the file underneath it.  Empty files (not a valid mmap
    target) degrade to an empty in-memory array.
    """
    import numpy as np

    path = Path(path)
    hook = _fault_hook
    if hook is not None:
        hook.before("read", path)
    if path.stat().st_size == 0:
        return np.empty(0, dtype=np.uint8)
    return np.memmap(path, dtype=np.uint8, mode="r")


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


def append_bytes(
    path: str | os.PathLike, data: bytes, *, fsync: bool = False
) -> int:
    """Append ``data`` to ``path`` (created if absent); returns bytes written.

    The WAL's primitive: unlike :func:`write_bytes_atomic` there is no
    rename commit point — a crash mid-append leaves a *torn tail*, which
    the WAL's record framing (length prefix + body CRC) detects and
    truncates on replay.  Same fault-hook contract as the atomic writer:
    the injection ops are ``"write"`` (torn writes persist an exact byte
    prefix) and ``"fsync"``.
    """
    path = Path(path)
    hook = _fault_hook
    with open(path, "ab") as fh:
        if hook is not None:
            hook.before("write", path)
            torn = hook.torn_write(path, data)
            if torn is not None:
                fh.write(data[:torn])
                fh.flush()
                raise _injected_os_error("write", path)
        fh.write(data)
        if fsync:
            fh.flush()
            if hook is not None:
                hook.before("fsync", path)
            os.fsync(fh.fileno())
    return len(data)


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


def fragment_file_crc(blob: bytes) -> int:
    """Whole-file CRC of a *well-formed* fragment blob in O(1).

    A fragment blob ends with the CRC-32 of everything before it
    (:func:`repro.storage.serialization.pack_fragment`).  CRC-32 streams, so
    ``crc(body + tail) == crc32(tail, initial=crc(body))`` — and ``crc(body)``
    is exactly what the tail stores.  The write path uses this to record the
    manifest's whole-file CRC without re-scanning multi-megabyte blobs;
    :func:`fsck` always recomputes the full CRC independently.
    """
    if len(blob) < 4:
        return file_crc(blob)
    (body_crc,) = struct.unpack("<I", blob[-4:])
    return zlib.crc32(blob[-4:], body_crc) & 0xFFFFFFFF


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
# Retry policy
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff for transient I/O errors.

    ``attempts`` counts *total* tries (1 = no retry).  Delays follow
    ``base_delay * multiplier**i`` capped at ``max_delay``; ``sleep`` is
    injectable so tests assert the schedule without waiting on the clock.
    Corruption errors (:class:`~repro.core.errors.ChecksumError`, any
    non-I/O :class:`~repro.core.errors.FragmentError`) are never retried —
    a bad checksum does not heal on the second read.
    """

    attempts: int = 3
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 1.0
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")

    def delays(self) -> list[float]:
        """The backoff schedule between tries (``attempts - 1`` entries)."""
        return [
            min(self.max_delay, self.base_delay * self.multiplier**i)
            for i in range(self.attempts - 1)
        ]

    @staticmethod
    def is_transient(exc: BaseException) -> bool:
        """Whether ``exc`` is worth retrying (raw I/O, not corruption)."""
        from ..core.errors import FragmentIOError

        if isinstance(exc, (ChecksumError, ManifestError)):
            return False
        if isinstance(exc, FragmentIOError):
            return True
        if isinstance(exc, FragmentError):
            return False  # parse/structure failure: deterministic
        return isinstance(exc, OSError)

    def run(self, fn: Callable[[], Any], *, op: str = "io") -> Any:
        """Call ``fn`` with retries; re-raises the last error when exhausted."""
        last: BaseException | None = None
        for i, delay in enumerate([*self.delays(), None]):
            try:
                return fn()
            except Exception as exc:
                if not self.is_transient(exc) or delay is None:
                    raise
                last = exc
                counter_add("store.io_retries", op=op)
                self.sleep(delay)
        raise last  # pragma: no cover - unreachable


#: Retry disabled: a single attempt, for callers that want fail-fast.
NO_RETRY = RetryPolicy(attempts=1)


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
) -> tuple[dict[str, Any] | None, str | None]:
    """Full integrity check of one fragment file.

    Returns ``(header, None)`` when the file is sound, else
    ``(None, reason)``.  The whole-file CRC covers the *compressed*
    bytes, so bit rot inside a compressed buffer is caught without
    decoding; compressed buffers are additionally decoded here so that a
    torn or mis-framed compressed section committed with a valid CRC
    (e.g. a fault-injected torn write that happened to survive framing)
    is still reported — and quarantined under ``--repair`` — instead of
    failing at read time.
    """
    from .serialization import unpack_fragment, unpack_header, verify_crc

    try:
        data = read_bytes(path)
    except OSError as exc:
        return None, f"unreadable: {exc}"
    if expected_nbytes is not None and len(data) != expected_nbytes:
        return None, (
            f"size mismatch: file has {len(data)} bytes, "
            f"manifest records {expected_nbytes}"
        )
    if expected_crc is not None:
        actual = file_crc(data)
        if actual != expected_crc:
            return None, (
                f"file CRC mismatch: computed {actual:#010x}, "
                f"manifest records {expected_crc:#010x}"
            )
    try:
        verify_crc(data)
        header, _ = unpack_header(data)
    except FragmentError as exc:
        return None, str(exc)
    # Raw buffers are fully covered by the CRC + size checks above;
    # compressed chains get one decode pass to prove they invert.
    tags = {e.get("codec", "raw") for e in header.get("buffers", [])}
    tags.add(header.get("value_codec", "raw"))
    if tags - {"raw"}:
        try:
            unpack_fragment(data, check_crc=False)
        except FragmentError as exc:
            chains = ",".join(sorted(tags - {"raw"}))
            return None, f"compressed buffer ({chains}) undecodable: {exc}"
    return header, None


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

    Checks, for every manifest entry: the file exists, its size and
    whole-file CRC match the manifest, its trailing CRC-32 verifies, and
    its header parses.  Also reports fragment files *not* in the manifest
    (``extra`` — e.g. a fragment committed right before a crash that
    prevented the manifest update) and stale ``*.tmp`` files.

    With ``repair=True``: temp files are deleted, unreadable fragments are
    moved to ``.quarantine/`` (never silently dropped), readable extras are
    recovered into the manifest (appended in name order), and the manifest
    is rewritten atomically with a bumped generation.

    When the store has a write-ahead log (a ``wal/`` subdirectory), every
    segment is scanned too: torn tails are reported (and truncated back to
    the last intact record under ``repair=True``); segments corrupt before
    their final record are quarantined under ``repair=True``.  Retired
    fragments (superseded but kept for snapshots) are verified like live
    ones; missing or corrupt retired entries are dropped from the retained
    list on repair.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ManifestError(f"not a store directory: {directory}")
    manifest_path = directory / MANIFEST_NAME

    generation = 0
    entries: list[dict[str, Any]] = []
    retired_entries: list[dict[str, Any]] = []
    manifest_meta: dict[str, Any] = {}
    report = FsckReport(directory=directory, generation=0, checked=0)
    if manifest_path.exists():
        try:
            manifest = json.loads(manifest_path.read_text())
            entries = list(manifest.get("fragments", []))
            retired_entries = list(manifest.get("retired", []))
            generation = int(manifest.get("generation", 0))
            manifest_meta = {
                k: manifest[k]
                for k in (
                    "version", "shape", "format", "relative_coords", "codec",
                    "gc_horizon", "addr_order",
                )
                if k in manifest
            }
        except (OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
            report.issues.append(
                FsckIssue("manifest", MANIFEST_NAME, f"unreadable: {exc}")
            )
    else:
        report.issues.append(
            FsckIssue("manifest", MANIFEST_NAME, "missing")
        )
    report.generation = generation

    surviving: list[dict[str, Any]] = []
    listed_names = set()
    for entry in entries:
        name = str(entry.get("file", "?"))
        listed_names.add(name)
        path = directory / name
        report.checked += 1
        if not path.exists():
            report.issues.append(
                FsckIssue("missing", name, "listed in manifest, no file")
            )
            continue
        header, reason = _verify_fragment_file(
            path, entry.get("crc"), entry.get("nbytes")
        )
        if reason is None:
            report.ok.append(name)
            surviving.append(dict(entry))
            _tally_codecs(report, header)
        else:
            issue = FsckIssue("corrupt", name, reason)
            if repair:
                quarantine_file(directory, path, reason=f"fsck: {reason}")
                issue.repaired = "quarantined"
            report.issues.append(issue)

    # Retired fragments are still readable through pinned snapshots, so
    # they get the same integrity check; a broken one only costs the
    # retained history, never live data.
    surviving_retired: list[dict[str, Any]] = []
    for entry in retired_entries:
        name = str(entry.get("file", "?"))
        listed_names.add(name)
        path = directory / name
        report.checked += 1
        if not path.exists():
            issue = FsckIssue(
                "retired", name, "retired in manifest, no file"
            )
            if repair:
                issue.repaired = "dropped"
            report.issues.append(issue)
            continue
        header, reason = _verify_fragment_file(
            path, entry.get("crc"), entry.get("nbytes")
        )
        if reason is None:
            report.ok.append(name)
            surviving_retired.append(dict(entry))
            _tally_codecs(report, header)
        else:
            issue = FsckIssue("retired", name, reason)
            if repair:
                quarantine_file(directory, path, reason=f"fsck: {reason}")
                issue.repaired = "quarantined"
            report.issues.append(issue)

    # Fragment files on disk the manifest does not know about.
    recovered: list[dict[str, Any]] = []
    for path in sorted(directory.glob("frag-*.bin")):
        if path.name in listed_names:
            continue
        header, reason = _verify_fragment_file(path, None, None)
        if reason is None:
            issue = FsckIssue(
                "extra", path.name, "valid fragment missing from manifest"
            )
            if repair:
                from .compression import codec_sizes

                data_len = path.stat().st_size
                frag_codecs, frag_raw = codec_sizes(header)
                entry = {
                    "file": path.name,
                    "format": header["format"],
                    "shape": list(header["shape"]),
                    "nnz": int(header["nnz"]),
                    "bbox_origin": list(header.get("bbox_origin", [])),
                    "bbox_size": list(header.get("bbox_size", [])),
                    "nbytes": int(data_len),
                    "crc": file_crc(read_bytes(path)),
                    "codecs": frag_codecs,
                    "raw_nbytes": frag_raw,
                }
                # Fragment headers are self-describing about their
                # linearization order (written only when non-default),
                # so a recovered orphan keeps its ``addr_order`` tag and
                # mixed-order stores stay prunable after repair.
                addr_order = (
                    (header.get("extra") or {}).get("addr_order")
                    or (header.get("meta") or {}).get("addr_order")
                )
                if addr_order:
                    entry["addr_order"] = str(addr_order)
                recovered.append(entry)
                issue.repaired = "recovered"
        else:
            issue = FsckIssue(
                "extra", path.name, f"unlisted and unreadable: {reason}"
            )
            if repair:
                quarantine_file(directory, path, reason=f"fsck: {reason}")
                issue.repaired = "quarantined"
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
        rebuilt = dict(manifest_meta)
        rebuilt["generation"] = generation + 1
        rebuilt["fragments"] = surviving + recovered
        if surviving_retired:
            rebuilt["retired"] = surviving_retired
        write_bytes_atomic(
            manifest_path, encode_manifest(rebuilt), fsync=True
        )
        report.generation = rebuilt["generation"]
        report.repaired = True
    counter_add("store.fsck_runs")
    return report
