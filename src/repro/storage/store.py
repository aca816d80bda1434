"""Fragment store — the dataset directory of Algorithm 3.

A :class:`FragmentStore` owns a directory of immutable fragment files plus a
JSON manifest.  WRITE (:meth:`FragmentStore.write`) is Algorithm 3's WRITE:
package the coordinate buffer with the store's organization, reorganize the
value buffer by the returned ``map``, serialize, write one fragment.  READ
(:meth:`FragmentStore.read_points` / :meth:`FragmentStore.read_box`) is
Algorithm 3's READ: discover fragments whose bounding box overlaps the
query, run the organization-specific read on each, merge the per-fragment
result lists sorted by linear address.

``relative_coords=True`` stores every fragment against its own bounding box
(coordinates re-based to the box origin, the box size as the local shape).
This is the paper's block-local transform that removes LINEAR's address
overflow risk (§II-B) and is what :mod:`repro.storage.blocks` builds on.

Durability (see :mod:`repro.storage.durability` and ``docs/DURABILITY.md``):
fragments commit via the atomic ``*.tmp`` + rename protocol; a manifest
commit appends one CRC-framed record of what it changed to
``manifest.log``, behind ``manifest.json``, a checkpoint rewritten the same
atomic way when the log outgrows it.  The manifest carries a monotonic
``generation`` and each fragment's CRC, stale temp files are cleaned on
open, and the read side degrades gracefully under the ``on_corruption``
policy (``"raise"`` / ``"skip"`` / ``"quarantine"``).  Every load of a
fragment file verifies its CRC, and a failed read raises at once.  A
commit that fails leaves the store as it was: the in-memory manifest is
reloaded from disk and the files the commit wrote are deleted.

Read pipeline (see :mod:`repro.storage.readpath` and ``docs/READ_PATH.md``):
``read_points`` / ``read_box`` run Algorithm 3's READ inline, one
planned fragment after another, and ``StoreOptions.cache_bytes`` enables
a bytes-bounded LRU of decoded fragments that is invalidated on every
manifest generation change.  One store is safe under mixed concurrent
read/write/compact traffic: mutations take the store's writer lock,
reads share the reader side.

Query planning (see :mod:`repro.storage.planner` and
``docs/QUERY_PLANNER.md``): every read first builds a :class:`QueryPlan`
— interval-index bbox pruning plus zone-map linear-address pruning over
the manifest metadata — and only the plan's survivors are loaded.
``StoreOptions(planner=False)`` restores the seed's linear ``bbox`` scan
(results are byte-identical either way).
``FragmentStore.explain(query)`` returns the plan a read would use
without executing it.

Streaming ingest (see :mod:`repro.storage.wal` and
``docs/WAL_SNAPSHOTS.md``): :meth:`FragmentStore.append` skips the full
canonical build and fsyncs framed chunks into a per-store write-ahead
log; reads overlay the unpacked WAL *tail* over the packed fragments
(newest-wins, bit-identical to a synchronous ``write``), and
:meth:`FragmentStore.pack_wal` drains the log into real fragments.  A
``write`` packs a non-empty log first, so the tail never overlays a
newer write.
:meth:`FragmentStore.snapshot` pins a read-only view to a manifest
generation while writers race; superseded fragments are retained for
``StoreOptions.retain_generations`` generations (``"retired"`` manifest
list) and trimmed by :meth:`FragmentStore.gc`, which never deletes a
fragment a live snapshot pins.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..build.canonical import CanonicalCoords
from ..build.merge import SortedRun, merge_sorted_runs
from ..core.boundary import Box
from ..core.costmodel import OpCounter
from ..core.dtypes import as_index_array, fits_index_dtype
from ..core.errors import FragmentError, ManifestError, ShapeError, WorkerError
from ..core.linearize import (
    DEFAULT_ADDRESS_ORDER,
    delinearize,
    fits_addr_order,
    linearize,
    linearize_order,
    validate_addr_order,
)
from ..core.sorting import apply_map, stable_argsort
from ..core.tensor import SparseTensor
from ..formats.base import EncodedTensor, SparseFormat, meta_addr_order
from ..formats.registry import get_format, resolve_format
from ..obs import counter_add, observe, span
from ..readapi import ReadOutcome
from .durability import (
    MANIFEST_LOG_NAME as _MANIFEST_LOG,
)
from .durability import (
    MANIFEST_NAME as _MANIFEST,
)
from .durability import (
    FRAGMENT_NAME_RE,
    AppendFile,
    FsckReport,
    clean_temp_files,
    encode_manifest,
    fragment_file_crc,
    frame_record,
    fsck as _fsck,
    load_manifest,
    peek_manifest,
    quarantine_file,
    recorded_crc,
    remove_file,
    truncate_file,
    write_bytes_atomic,
)
from .fragment import (
    FragmentInfo,
    load_fragment,
    payload_encoded,
    query_fragment,
    query_fragment_box,
    read_fragment_header,
    write_fragment,
)
from .options import (
    CORRUPTION_POLICIES,
    ReadOptions,
    StoreOptions,
)
from .planner import (
    QueryKeys,
    QueryPlan,
    QueryPlanner,
    ZoneMap,
    box_envelope,
)
from .readpath import (
    FragmentCache,
    RWLock,
    map_fragments_ordered,
    merge_box_hits,
)
from .wal import TailRun, WriteAheadLog, build_tail_run, merge_chunks, wal_path

#: Manifest schema version written by this code.  Version 2 adds the
#: per-fragment ``"zone"`` entry (and the ``"version"`` key itself);
#: version-1 manifests (no ``"version"`` key) load unchanged — missing
#: zone maps are backfilled lazily on the first planned read.
MANIFEST_VERSION = 2

#: The store-level keys of ``manifest.json``.  A commit that changes one
#: checkpoints, so the checkpoint always holds the current settings.
_SETTINGS = (
    "version", "shape", "format", "relative_coords", "codec", "addr_order",
)

#: Bytes the manifest log may hold before a commit checkpoints, when the
#: checkpoint itself is smaller.
MANIFEST_LOG_FLOOR = 64 << 10


@dataclass
class WriteReceipt:
    """Result of one WRITE: the fragment plus its byte breakdown."""

    info: FragmentInfo
    index_nbytes: int
    value_nbytes: int
    file_nbytes: int
    build_seconds: float
    reorg_seconds: float
    write_seconds: float


@dataclass
class _Delta:
    """What the next manifest commit changes: its log record's content."""

    add: list[FragmentInfo] = field(default_factory=list)
    #: ``(old file name, replacement)`` pairs, rewritten in place.
    replace: list[tuple[str, FragmentInfo]] = field(default_factory=list)
    #: Names moved to the ``retired`` list, and names removed outright.
    retire: list[str] = field(default_factory=list)
    drop: list[str] = field(default_factory=list)


@dataclass
class _PackedPart:
    """One fragment out of :meth:`FragmentStore._package`, not yet written."""

    encoded: EncodedTensor
    bbox: Box | None
    extra: dict
    zone: ZoneMap | None
    build_seconds: float = 0.0
    reorg_seconds: float = 0.0


def _capture(task: Callable, item) -> tuple[object, Exception | None]:
    """``task(item)`` as a ``(result, exception)`` pair, as
    :func:`~repro.storage.readpath.map_fragments_ordered` reports it."""
    try:
        return task(item), None
    except Exception as exc:
        return None, exc


class FragmentStore:
    """A directory of fragments sharing one tensor shape and organization.

    ``format_name`` accepts either a registry name (``"LINEAR"``) or a
    :class:`~repro.formats.base.SparseFormat` instance.  All tuning is
    consolidated in one :class:`~repro.storage.options.StoreOptions`
    value passed as ``options=``.

    ``on_corruption`` controls what the read side does with a fragment that
    fails its checksum (or cannot be read): ``"raise"`` (the default)
    propagates the error, ``"skip"`` serves the query from the surviving
    fragments, ``"quarantine"`` additionally moves the bad file to
    ``<store>/.quarantine/`` and drops it from the manifest.  Skipped and
    quarantined fragments are counted in :attr:`corrupt_fragments` and
    the ``store.corrupt_fragments`` counter of :mod:`repro.obs` — degraded
    reads are observable, never silent.

    ``cache_bytes`` (default 0 = off) bounds the decoded-fragment LRU
    (:attr:`cache`, see :class:`~repro.storage.readpath.FragmentCache`)
    that serves repeated reads without touching disk; it is invalidated on
    every committed mutation.

    ``planner`` (default on) routes every read through the query planner
    (interval-index + zone-map pruning, see
    :mod:`repro.storage.planner`); ``planner=False`` restores the seed's
    linear bbox scan.  It only changes *how* fragments are selected —
    query results are identical.
    """

    def __init__(
        self,
        directory: str | Path,
        shape: Sequence[int],
        format_name: str | SparseFormat,
        *,
        options: StoreOptions | None = None,
    ):
        from .compression import validate_codec

        opts = options or StoreOptions()
        self.directory = Path(directory)
        self.shape = tuple(int(m) for m in shape)
        self.fmt = resolve_format(format_name)
        self.format_name = self.fmt.name
        self.relative_coords = bool(opts.relative_coords)
        self.fsync = bool(opts.fsync)
        # ``codec=None`` adopts the codec recorded in an existing manifest
        # (so reopening a store — and then compacting it — keeps writing
        # with the codec it was created with); fresh stores default to raw.
        persisted = peek_manifest(self.directory / _MANIFEST)
        resolved_codec = opts.codec
        if resolved_codec is None:
            resolved_codec = persisted.get("codec") or "raw"
        self.codec = validate_codec(resolved_codec)
        # The address order resolves like the codec: ``None`` adopts the
        # order persisted in an existing manifest; fresh stores default
        # to row-major — bit-identical to the pre-ALTO layout.
        if opts.addr_order is None:
            resolved_order = (
                persisted.get("addr_order") or DEFAULT_ADDRESS_ORDER
            )
        else:
            resolved_order = opts.addr_order
        validate_addr_order(resolved_order)
        if (
            resolved_order != DEFAULT_ADDRESS_ORDER
            and not fits_addr_order(shape, resolved_order)
        ):
            raise ShapeError(
                f"shape {tuple(int(m) for m in shape)} does not fit the "
                f"{resolved_order!r} address order's 64-bit budget"
            )
        #: The store's active linearization order (``"row_major"`` /
        #: ``"alto"``) — the space new fragments' zone maps and
        #: order-bearing payloads are expressed in.
        self.addr_order = resolved_order
        #: The effective (fully resolved) construction options.
        self.options = opts.replace(
            codec=self.codec,
            addr_order=opts.addr_order or self.addr_order,
        )
        self.on_corruption = opts.on_corruption
        self.use_planner = bool(opts.planner)
        self._linearizable = fits_index_dtype(self.shape)
        #: Per-store planner state (cached interval index per generation).
        self._planner = QueryPlanner()
        # One lazy zone-map backfill attempt per manifest load — corrupt
        # fragments must not be re-probed on every read.
        self._zone_backfill_done = False
        #: Decoded-fragment LRU (disabled when ``cache_bytes == 0``).
        self.cache = FragmentCache(opts.cache_bytes)
        # Reader-writer lock (reads share, mutations exclude) plus a small
        # reentrant lock guarding the fragment list + manifest commit —
        # the latter so a quarantine during a degraded read (reader side
        # held) can still commit the de-listing safely.
        self._rw = RWLock()
        self._state_lock = threading.RLock()
        #: Corrupt fragments encountered (skipped or quarantined) so far.
        self.corrupt_fragments = 0
        self._generation = 0
        # Manifest commit state (see _save_manifest): the change the next
        # commit logs, the open manifest log and its intact length, the
        # checkpoint's size and settings, the logged GC horizon, and
        # whether the next commit must checkpoint instead of appending.
        self._delta = _Delta()
        self._mlog: AppendFile | None = None
        self._mlog_bytes = 0
        self._ckpt_bytes = 0
        self._ckpt_settings: dict = {}
        self._logged_horizon = 0
        self._ckpt_due = True
        # WAL / snapshot / retention state.  The WAL itself is lazy: it
        # opens on the first append(), or here when a wal/ directory
        # already exists (crash recovery replays it before any read).
        self._wal: WriteAheadLog | None = None
        self._tail_cache: tuple[int, TailRun | None] | None = None
        self._retired: list[FragmentInfo] = []
        self._gc_horizon = 0
        self._pins: dict[int, frozenset[str]] = {}
        self._pin_counter = 0
        self.directory.mkdir(parents=True, exist_ok=True)
        clean_temp_files(self.directory)
        self._fragments: list[FragmentInfo] = []
        if self._manifest_path().exists():
            self._load_manifest()
            self._warn_on_orphans()
        else:
            self.rescan()
        self._next_seq = self._scan_next_seq()
        if self._linearizable and wal_path(self.directory).is_dir():
            with self._rw.write_locked():
                self._ensure_wal_locked()

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------

    @property
    def fragments(self) -> tuple[FragmentInfo, ...]:
        with self._state_lock:
            return tuple(self._fragments)

    @property
    def nnz(self) -> int:
        """Total stored points across fragments (duplicates counted)."""
        return sum(f.nnz for f in self.fragments)

    @property
    def total_file_nbytes(self) -> int:
        return sum(f.nbytes for f in self.fragments)

    def _manifest_path(self) -> Path:
        return self.directory / _MANIFEST

    @property
    def generation(self) -> int:
        """Manifest generation: bumped by every committed manifest write."""
        return self._generation

    def _manifest_log_path(self) -> Path:
        return self.directory / _MANIFEST_LOG

    def _load_manifest(self) -> None:
        load = load_manifest(self.directory)
        if load.log_status == "corrupt":
            raise ManifestError(
                f"corrupt manifest log {self._manifest_log_path()}: "
                f"{load.detail}"
            )
        if load.log_status == "torn":
            # A crashed append: cut it off before anything follows it.
            truncate_file(self._manifest_log_path(), load.log_bytes)
            counter_add("store.manifest.torn_tails")
        entries = load.doc
        self._generation = int(entries.get("generation", 0))
        self._fragments = [
            self._parse_fragment_entry(e) for e in entries["fragments"]
        ]
        # Superseded-but-retained fragments (snapshot time travel) plus
        # the oldest generation still reconstructable.  Both keys are
        # optional: pre-snapshot manifests simply have no history.
        self._retired = [
            self._parse_fragment_entry(e)
            for e in entries.get("retired", [])
        ]
        self._gc_horizon = int(entries.get("gc_horizon", 0))
        self._close_manifest_log()
        self._delta = _Delta()
        self._mlog_bytes = load.log_bytes
        self._ckpt_bytes = load.checkpoint_bytes
        self._ckpt_settings = {
            k: entries[k] for k in _SETTINGS if k in entries
        }
        self._logged_horizon = self._gc_horizon
        # A store written before the log existed has none: its first
        # commit checkpoints, which creates it.
        self._ckpt_due = load.log_status == "absent"
        self._zone_backfill_done = False

    def _parse_fragment_entry(self, e: dict) -> FragmentInfo:
        return FragmentInfo(
            path=self.directory / e["file"],
            format_name=e["format"],
            shape=tuple(e["shape"]),
            nnz=int(e["nnz"]),
            bbox=Box(tuple(e["bbox_origin"]), tuple(e["bbox_size"])),
            nbytes=int(e["nbytes"]),
            crc=recorded_crc(e.get("crc")),
            # Absent in version-1 manifests (and for fsck-recovered
            # entries): loads as None, backfilled lazily.
            zone=ZoneMap.from_json(e.get("zone")),
            # Pre-snapshot manifests carry no lifetime bounds: such a
            # fragment has existed "since forever" and is never retired.
            born=int(e.get("born", 0)),
            retired=int(e["retired"]) if e.get("retired") is not None else None,
            # Absent in pre-cascade manifests; backfilled on demand from
            # the fragment header (compression_stats).
            codecs=e.get("codecs"),
            raw_nbytes=e.get("raw_nbytes"),
            # Absent unless migration rewrote the fragment in place:
            # the shadowing order falls back to the file-name number.
            seq=int(e["seq"]) if e.get("seq") is not None else None,
            # Absent for every fragment written row-major (including all
            # pre-ALTO manifests): the tag is only persisted when it
            # differs from the default.
            addr_order=str(e.get("addr_order") or DEFAULT_ADDRESS_ORDER),
        )

    @staticmethod
    def _fragment_entry(f: FragmentInfo) -> dict:
        entry = {
            "file": f.path.name,
            "format": f.format_name,
            "shape": list(f.shape),
            "nnz": f.nnz,
            "bbox_origin": list(f.bbox.origin),
            "bbox_size": list(f.bbox.size),
            "nbytes": f.nbytes,
            "crc": f.crc,
            "zone": f.zone.to_json() if f.zone else None,
            "born": f.born,
        }
        if f.retired is not None:
            entry["retired"] = f.retired
        if f.codecs is not None:
            entry["codecs"] = f.codecs
            entry["raw_nbytes"] = f.raw_nbytes
        if f.seq is not None:
            entry["seq"] = f.seq
        if f.addr_order != DEFAULT_ADDRESS_ORDER:
            entry["addr_order"] = f.addr_order
        return entry

    def _settings(self) -> dict:
        """The store-level keys of ``manifest.json``, in document order."""
        settings = {
            "version": MANIFEST_VERSION,
            "shape": list(self.shape),
            "format": self.format_name,
            "relative_coords": self.relative_coords,
            "codec": self.codec,
        }
        # Persisted only when it differs: row-major manifests stay
        # byte-identical to the pre-ALTO schema.
        if self.addr_order != DEFAULT_ADDRESS_ORDER:
            settings["addr_order"] = self.addr_order
        return settings

    def _save_manifest(
        self,
        *,
        checkpoint: bool = False,
        written: Sequence[FragmentInfo] = (),
    ) -> None:
        """Commit the pending change: the one commit entry point.

        Bumps the generation, then appends one record holding only what
        the commit changed (:attr:`_delta`) to ``manifest.log`` — the
        commit point, one fsync with ``fsync`` on.  The commit is a
        *checkpoint* instead (``manifest.json`` rewritten whole, then the
        log emptied) when the caller asks for one, when a store-level
        setting changed, after a failed commit, and when the log would
        outgrow the checkpoint — which keeps a commit's cost amortized
        O(1) in the number of fragments.

        A commit that raises leaves the store as the disk holds it: the
        in-memory manifest is reloaded, so the failed change can never
        become durable with a later commit, and the fragment files in
        ``written`` that the reloaded manifest does not list are deleted.
        """
        with self._state_lock:
            self._generation += 1
            delta, self._delta = self._delta, _Delta()
            settings = self._settings()
            try:
                if (
                    checkpoint or self._ckpt_due
                    or settings != self._ckpt_settings
                ):
                    self._checkpoint_locked(settings)
                else:
                    record = frame_record(encode_manifest(
                        self._log_record(delta)
                    ))
                    if self._mlog_bytes + len(record) > max(
                        self._ckpt_bytes, MANIFEST_LOG_FLOOR
                    ):
                        self._checkpoint_locked(settings)
                    else:
                        self._append_record_locked(record)
            except BaseException:
                self._rollback_locked(written)
                raise
        # Every committed mutation (write / compact / rescan / quarantine)
        # bumps the generation, so invalidating here guarantees the cache
        # can never serve a pre-mutation decode.
        self.cache.invalidate()

    def _rollback_locked(self, written: Sequence[FragmentInfo]) -> None:
        """Return to the committed manifest after a commit raised (state
        lock held): reload it, then delete the files only the failed
        commit listed.  The next commit checkpoints, since the log may
        end in records the reload skipped."""
        if self._manifest_path().exists():
            self._load_manifest()
            listed = {f.path.name for f in self._fragments}
            listed.update(f.path.name for f in self._retired)
            self._unlink([f for f in written if f.path.name not in listed])
        self._ckpt_due = True

    def _log_record(self, delta: _Delta) -> dict:
        """The log record of one commit: only what it changed."""
        generation = self._generation
        record: dict = {"generation": generation}
        # Stamp the birth generation of fragments committed by this very
        # write: a fragment is visible at generation g iff
        # born <= g < retired.
        for f in [*delta.add, *(f for _, f in delta.replace)]:
            if f.born is None:
                f.born = generation
        if delta.add:
            record["add"] = [self._fragment_entry(f) for f in delta.add]
        if delta.replace:
            record["replace"] = [
                [old, self._fragment_entry(f)] for old, f in delta.replace
            ]
        if delta.retire:
            record["retire"] = delta.retire
        if delta.drop:
            record["drop"] = delta.drop
        if self._gc_horizon != self._logged_horizon:
            record["gc_horizon"] = self._gc_horizon
            self._logged_horizon = self._gc_horizon
        return record

    def _checkpoint_locked(self, settings: dict) -> None:
        """Rewrite ``manifest.json`` with the whole state at the current
        generation, then empty the log (state lock held).

        A crash between the rename and the truncate leaves records at or
        below the checkpoint's generation, which replay skips.  Until
        the truncate succeeds, every commit checkpoints.
        """
        generation = self._generation
        for f in self._fragments:
            if f.born is None:
                f.born = generation
        doc = {"version": settings["version"], "generation": generation}
        for key in ("shape", "format", "relative_coords", "codec"):
            doc[key] = settings[key]
        doc["fragments"] = [self._fragment_entry(f) for f in self._fragments]
        if "addr_order" in settings:
            doc["addr_order"] = settings["addr_order"]
        if self._retired:
            doc["retired"] = [self._fragment_entry(f) for f in self._retired]
        if self._gc_horizon:
            doc["gc_horizon"] = self._gc_horizon
        data = encode_manifest(doc)
        self._ckpt_due = True
        log_path = self._manifest_log_path()
        if self._mlog is None and not log_path.exists():
            # The log's one creation: before the rename, whose directory
            # fsync then makes both entries durable.
            log_path.touch()
        write_bytes_atomic(self._manifest_path(), data, fsync=self.fsync)
        self._ckpt_bytes = len(data)
        self._ckpt_settings = settings
        self._logged_horizon = self._gc_horizon
        self._truncate_log_locked()
        self._ckpt_due = False

    def _truncate_log_locked(self) -> None:
        """Empty the manifest log.  Its length is asked of the file: a
        rescan that replaces a lost checkpoint does not know it."""
        path = self._manifest_log_path()
        if path.exists() and path.stat().st_size:
            log = self._mlog or AppendFile(path, fsync=self.fsync)
            try:
                log.truncate(0)
            finally:
                if log is not self._mlog:
                    log.close()
        self._mlog_bytes = 0

    def _append_record_locked(self, record: bytes) -> None:
        """Append one commit's record.  A failed append cuts the log back
        to its intact length before raising, so the reload that follows
        (:meth:`_rollback_locked`) finds the commit absent."""
        if self._mlog is None:
            self._mlog = AppendFile(self._manifest_log_path(), fsync=self.fsync)
        log = self._mlog
        try:
            log.write(record)
        except BaseException:
            try:
                log.truncate(self._mlog_bytes)
            except OSError:
                pass
            raise
        self._mlog_bytes += len(record)

    def _close_manifest_log(self) -> None:
        if self._mlog is not None:
            self._mlog.close()
            self._mlog = None

    def _scan_next_seq(self) -> int:
        """First unused fragment sequence number (manifest ∪ disk).

        Scanning the directory too means an uncommitted fragment left by a
        crash (file renamed, manifest not yet updated) is never overwritten
        — ``repro fsck --repair`` can still recover it.
        """
        used = -1
        names = {f.path.name for f in self._fragments}
        names.update(f.path.name for f in self._retired)
        names.update(p.name for p in self.directory.glob("frag-*.bin"))
        for name in names:
            m = FRAGMENT_NAME_RE.match(name)
            if m:
                used = max(used, int(m.group(1)))
        return used + 1

    def _next_fragment_path(self) -> Path:
        path = self.directory / f"frag-{self._next_seq:06d}.bin"
        self._next_seq += 1
        return path

    def _warn_on_orphans(self) -> None:
        """Surface fragment files the manifest does not list (uncommitted)."""
        listed = {f.path.name for f in self._fragments}
        listed.update(f.path.name for f in self._retired)
        orphans = [
            p.name
            for p in sorted(self.directory.glob("frag-*.bin"))
            if p.name not in listed
        ]
        if orphans:
            counter_add("store.orphan_fragments", len(orphans))
            warnings.warn(
                f"store {self.directory} has {len(orphans)} fragment file(s) "
                f"not in the manifest (crash before commit?): {orphans}; "
                "run `repro fsck --repair` to recover or quarantine them",
                stacklevel=2,
            )

    def rescan(self) -> None:
        """Rebuild the manifest from fragment file headers on disk.

        Recovery path for a lost or damaged manifest.  Fragments are
        listed in (sequence number, file name) order: the number is the
        file name's, or, for a migration's replacement, the slot its
        header records, so newest-wins reads keep the order the lost
        manifest had.  Stale ``*.tmp`` files are ignored (and cleaned),
        and unreadable or truncated fragments are *skipped with a
        warning* instead of aborting the rebuild — one torn trailing
        fragment must not take down the whole store.  Skipped files are
        counted in ``store.rescan_skipped``; run ``repro fsck --repair``
        to quarantine them properly.
        """
        with self._rw.write_locked():
            clean_temp_files(self.directory)
            fragments: list[FragmentInfo] = []
            skipped = 0
            for path in sorted(self.directory.glob("frag-*.bin")):
                try:
                    info = read_fragment_header(path)
                except FragmentError as exc:
                    skipped += 1
                    warnings.warn(
                        f"rescan: skipping unreadable fragment "
                        f"{path.name}: {exc}",
                        stacklevel=2,
                    )
                    continue
                try:
                    info.crc = fragment_file_crc(path.read_bytes())
                except OSError:
                    info.crc = None
                fragments.append(info)
            if skipped:
                counter_add("store.rescan_skipped", skipped)
            fragments.sort(key=lambda f: (f.effective_seq(), f.path.name))
            with self._state_lock:
                self._fragments = fragments
                # Headers carry no zone maps; let the first planned read
                # backfill them.
                self._zone_backfill_done = False
                # Empty the log before the rebuilt checkpoint lands, so a
                # log written against another checkpoint never replays
                # onto this one.
                self._truncate_log_locked()
                self._save_manifest(checkpoint=True)

    # ------------------------------------------------------------------
    # WRITE (Algorithm 3)
    # ------------------------------------------------------------------

    def write(
        self,
        coords: np.ndarray,
        values: np.ndarray,
    ) -> WriteReceipt:
        """Package and persist one fragment; returns timing + size breakdown.

        The three timed phases are exactly Table III's rows: *Build* (the
        organization's BUILD), *Reorg.* (value reorganization by ``map``),
        and *Write* (serialization + file write).  Points appended before
        and not yet packed are older than this write, so they are packed
        first (:meth:`_pack_wal_locked`).
        """
        with self._rw.write_locked():
            part = self._package_coords(coords, values)
            self._pack_wal_locked()
            return self._commit_locked([part])[0]

    def write_canonical(
        self,
        canon: CanonicalCoords,
        values: np.ndarray,
        *,
        bbox: Box | None = None,
    ) -> WriteReceipt:
        """Commit one fragment from a canonical intermediate.

        ``canon`` must live in the store's global coordinate space (shape
        equal to the store shape); relative-coordinate stores re-base it
        against its bounding box before packaging, reusing the canonical
        sort where the organization allows.  ``bbox`` optionally supplies
        the (tight) bounding box so callers that already know it — the
        merge compaction path passes the union of the source fragments'
        boxes — skip re-deriving it from materialized coordinates.

        :func:`~repro.storage.convert.convert_store` and the sharded
        router write through here; it packs the WAL and runs the same
        packaging step and commit as :meth:`write`.
        """
        with self._rw.write_locked():
            part = self._package(canon, values, bbox=bbox)
            self._pack_wal_locked()
            return self._commit_locked([part])[0]

    def write_many(
        self,
        parts: list[tuple[np.ndarray, np.ndarray]],
        *,
        max_workers: int | None = None,
    ) -> list[FragmentInfo]:
        """Write many ``(coords, values)`` parts, committed by one manifest
        write.

        Each part runs :meth:`write`'s packaging step (canonical sort,
        BUILD, value reorg, zone map).  With more than one part and
        ``max_workers != 0`` the steps fan out over the shared thread
        pool (:func:`~repro.storage.readpath.map_fragments_ordered`), at
        most ``max_workers`` (default: the CPU count) at a time; NumPy
        releases the GIL in the heavy kernels.  The files are then
        written in part order, so they are byte-identical to a loop of
        :meth:`write`; an unpacked WAL tail is packed first, as
        :meth:`write` does.

        A part that fails to package raises
        :class:`~repro.core.errors.WorkerError` carrying its
        ``part_index``; nothing is written or committed.
        """
        with self._rw.write_locked():
            packed = self._package_parts(parts, max_workers)
            self._pack_wal_locked()
            return [r.info for r in self._commit_locked(packed)]

    def _package_parts(
        self,
        parts: list[tuple[np.ndarray, np.ndarray]],
        max_workers: int | None,
    ) -> list[_PackedPart]:
        def task(part):
            return self._package_coords(*part)

        if max_workers == 0 or len(parts) <= 1:
            # A generator, so the inline loop stops at the first failure.
            outcomes = (_capture(task, part) for part in parts)
        else:
            outcomes = map_fragments_ordered(
                parts, task, max_workers=max_workers or os.cpu_count()
            )
        packed = []
        for i, (item, exc) in enumerate(outcomes):
            if exc is not None:
                raise WorkerError(
                    f"packing part {i} failed: {exc}", part_index=i
                ) from exc
            packed.append(item)
        return packed

    def _package_coords(
        self, coords: np.ndarray, values: np.ndarray
    ) -> _PackedPart:
        coords = as_index_array(coords)
        values = np.asarray(values)
        if coords.ndim != 2 or coords.shape[1] != len(self.shape):
            raise ShapeError("coords must be (n, d) matching the store shape")
        if values.shape[0] != coords.shape[0]:
            raise ShapeError("values must align with coords")
        canon = CanonicalCoords.from_coords(
            coords, self.shape, addr_order=self.addr_order
        )
        return self._package(canon, values)

    def _package(
        self,
        canon: CanonicalCoords,
        values: np.ndarray,
        *,
        bbox: Box | None = None,
    ) -> _PackedPart:
        """Algorithm 3 WRITE up to the file: the one packaging step.

        Store-order canonical, bounding box, relative rebase, BUILD in
        the store's organization, value reorg by ``map``, zone map.
        Takes no store lock (see :meth:`write_many`).
        """
        values = np.asarray(values)
        if canon.shape != self.shape:
            raise ShapeError(
                f"canonical shape {canon.shape} != store shape {self.shape}"
            )
        if values.shape[0] != canon.n:
            raise ShapeError("values must align with coords")
        fmt = self.fmt
        if canon.addr_order != self.addr_order:
            # Callers that pre-built their canonical in another order
            # (a WAL pack merges row-major, convert_store feeds the
            # source store's order) re-linearize into the store's active
            # space here — the one shared sort then happens in it.
            canon = canon.with_order(self.addr_order)
        if bbox is None and canon.n:
            bbox = canon.bounding_box
        if self.relative_coords and canon.n:
            build_canon = canon.rebased(bbox.origin, bbox.size)
            build_shape: tuple[int, ...] = bbox.size
        else:
            build_canon = canon
            build_shape = self.shape

        with span("store.write", format=fmt.name) as sp:
            t0 = time.perf_counter()
            result = fmt.build_canonical(build_canon)
            t1 = time.perf_counter()
            stored_values = apply_map(values, result.perm)
            t2 = time.perf_counter()
            # Zone map from the *global* canonical sort in the store's
            # active order (relative stores build from the rebased copy,
            # so the global addresses are derived here).
            zone = None
            if fits_addr_order(self.shape, canon.addr_order):
                zone = ZoneMap.from_addresses(
                    canon.sorted_addresses, assume_sorted=True
                )
            sp.add_nnz(canon.n)
        observe("store.build.seconds", t1 - t0, format=fmt.name)
        observe("store.reorg.seconds", t2 - t1, format=fmt.name)
        extra: dict = {"relative": self.relative_coords}
        if canon.addr_order != DEFAULT_ADDRESS_ORDER:
            extra["addr_order"] = canon.addr_order
        return _PackedPart(
            encoded=EncodedTensor(
                fmt=fmt,
                shape=build_shape,
                nnz=canon.n,
                payload=result.payload,
                meta=result.meta,
                values=stored_values,
            ),
            bbox=bbox,
            extra=extra,
            zone=zone,
            build_seconds=t1 - t0,
            reorg_seconds=t2 - t1,
        )

    def _commit_locked(self, parts: list[_PackedPart]) -> list[WriteReceipt]:
        """Write packaged fragments in order, then commit them with one
        manifest write (writer lock held).

        When a file write or the commit fails, the files already written
        are deleted and nothing is committed.
        """
        receipts = self._write_parts_locked(parts)
        infos = [r.info for r in receipts]
        with self._state_lock:
            self._fragments.extend(infos)
            self._delta.add.extend(infos)
        self._save_manifest(written=infos)
        return receipts

    def _write_parts_locked(
        self, parts: list[_PackedPart]
    ) -> list[WriteReceipt]:
        """Write packaged fragments' files in order; commits nothing.  A
        failed write deletes the files written before it."""
        receipts: list[WriteReceipt] = []
        for part in parts:
            t0 = time.perf_counter()
            try:
                info = write_fragment(
                    self._next_fragment_path(),
                    part.encoded,
                    bbox=part.bbox,
                    extra=part.extra,
                    fsync=self.fsync,
                    codec=self.codec,
                )
            except BaseException:
                self._unlink([r.info for r in receipts])
                raise
            write_seconds = time.perf_counter() - t0
            info.zone = part.zone
            observe(
                "store.write_io.seconds", write_seconds,
                format=info.format_name,
            )
            receipts.append(WriteReceipt(
                info=info,
                index_nbytes=part.encoded.index_nbytes,
                value_nbytes=part.encoded.value_nbytes,
                file_nbytes=info.nbytes,
                build_seconds=part.build_seconds,
                reorg_seconds=part.reorg_seconds,
                write_seconds=write_seconds,
            ))
        return receipts

    def write_tensor(self, tensor: SparseTensor) -> WriteReceipt:
        """Convenience wrapper over :meth:`write`."""
        if tensor.shape != self.shape:
            raise ShapeError(
                f"tensor shape {tensor.shape} != store shape {self.shape}"
            )
        return self.write(tensor.coords, tensor.values)

    # ------------------------------------------------------------------
    # WAL append path (streaming ingest)
    # ------------------------------------------------------------------

    def _ensure_wal_locked(self) -> None:
        """Open (and replay) the write-ahead log; write lock must be held."""
        if self._wal is not None:
            return
        if not self._linearizable:
            raise ShapeError(
                f"shape {self.shape} overflows the linear address space; "
                "the WAL append path requires linearizable shapes"
            )
        wal_fsync = self.options.wal_fsync
        self._wal = WriteAheadLog(
            wal_path(self.directory),
            self.shape,
            segment_bytes=self.options.wal_segment_bytes,
            fsync=self.fsync if wal_fsync is None else wal_fsync,
        )
        self._tail_cache = None

    def append(self, coords: np.ndarray, values: np.ndarray) -> int:
        """Durably append points without building a fragment.

        The streaming-ingest fast path: the chunk is framed, CRC'd and
        appended to the store's write-ahead log (one sequential file
        write — no canonical sort, no format packaging, no manifest
        commit).  With ``StoreOptions.wal_fsync`` (or ``fsync``) set, an
        ``append`` that returns survives any crash: recovery-on-open
        replays the log ahead of manifest state.  Reads merge the
        unpacked tail with the packed fragments (newest-wins), so a
        query after ``append`` is bit-identical to one after ``write``
        of the same points.  Returns the number of points appended.

        Call :meth:`pack_wal` to drain the log into real fragments; the
        next :meth:`write` also packs it, ahead of its own points.
        """
        coords = as_index_array(coords)
        values = np.asarray(values)
        if coords.ndim != 2 or coords.shape[1] != len(self.shape):
            raise ShapeError("coords must be (n, d) matching the store shape")
        if values.shape[0] != coords.shape[0]:
            raise ShapeError("values must align with coords")
        if not self._linearizable:
            raise ShapeError(
                f"shape {self.shape} overflows the linear address space; "
                "append() requires linearizable shapes (use write())"
            )
        addresses = linearize(coords, self.shape)
        return self._append_addresses(addresses, values)

    def _append_addresses(
        self, addresses: np.ndarray, values: np.ndarray
    ) -> int:
        """Append pre-linearized points (the sharded router's entry)."""
        with self._rw.write_locked():
            with span("store.wal.append", format=self.format_name) as sp:
                self._ensure_wal_locked()
                self._wal.append(addresses, values)
                sp.add_nnz(int(addresses.shape[0]))
        return int(addresses.shape[0])

    def _wal_tail(self) -> TailRun | None:
        """The WAL's live points as one sorted newest-wins run.

        Cached against the WAL's version counter (every append, pack and
        replay bumps it), so repeated reads between mutations pay the
        merge once.
        """
        wal = self._wal
        if wal is None:
            return None
        with self._state_lock:
            wal = self._wal
            if wal is None:
                return None
            cached = self._tail_cache
            if cached is not None and cached[0] == wal.version:
                return cached[1]
            tail = build_tail_run(list(wal.iter_chunks()), self.shape)
            self._tail_cache = (wal.version, tail)
            return tail

    def pack_wal(self) -> WriteReceipt | None:
        """Drain the WAL into one committed fragment; retire its segments.

        Merges every logged chunk, the active segment's included, through
        the canonical intermediate (newest-wins — the packed fragment
        reads bit-identically to the tail it replaces) and commits it
        through the shared packaging step.  Commit order is
        manifest-then-delete: the fragment's manifest entry lands before
        any segment file is unlinked, so a crash in the window leaves
        duplicate points that the read merge already absorbs.  The
        writer lock keeps appends out until every segment is gone, so
        the active segment needs no seal first.  Returns ``None`` when
        the WAL holds no points.
        """
        with self._rw.write_locked():
            return self._pack_wal_locked()

    def _pack_wal_locked(self) -> WriteReceipt | None:
        """:meth:`pack_wal` under the writer lock.

        The unpacked tail overlays every fragment on reads, so every
        write calls this first: a fragment committed while the tail holds
        points would read under them.  The pack commits and deletes its
        segments before the write commits, so a crash at any point
        leaves the tail below the write.
        """
        wal = self._wal
        if wal is None or wal.total_points == 0:
            return None
        with span("store.wal.pack", format=self.format_name) as sp:
            merged = merge_chunks(list(wal.iter_chunks()), self.shape)
            [receipt] = self._commit_locked(
                [self._package(merged.canonical, merged.values)]
            )
            # The fragment is committed; from here on every crash leaves
            # only over-coverage (points both packed and still in the
            # log), which newest-wins reads absorb and the next pack
            # retires.
            wal.drop_segments(wal.segment_paths())
            with self._state_lock:
                self._tail_cache = None
            sp.add_nnz(merged.canonical.n)
        counter_add("store.wal.pack_runs")
        return receipt

    def wal_stats(self) -> dict[str, int]:
        """Live WAL footprint: segments, bytes, unpacked points."""
        with self._state_lock:
            wal = self._wal
            if wal is None:
                return {
                    "segments": 0, "bytes": 0, "points": 0,
                    "torn_tails_repaired": 0,
                }
            return wal.stats()

    def close(self) -> None:
        """Close the WAL's open segment file and fold the manifest log
        into ``manifest.json``.  Idempotent.

        Appended-but-unpacked points stay durable in the WAL; the next
        open replays them.  Stores are also context managers::

            with FragmentStore(path, shape, "LINEAR", options=opts) as s:
                s.append(coords, values)
        """
        with self._rw.write_locked():
            if self._wal is not None:
                self._wal.close()
            with self._state_lock:
                if self._mlog_bytes:
                    # Fold the log into the checkpoint.  A failure loses
                    # nothing: the log still holds every commit.
                    try:
                        self._checkpoint_locked(self._settings())
                    except OSError:
                        pass
                self._close_manifest_log()

    def __enter__(self) -> "FragmentStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Snapshots + retention GC
    # ------------------------------------------------------------------

    def snapshot(self, generation: int | None = None) -> "StoreSnapshot":
        """A read-only view pinned to one manifest generation.

        With ``generation=None`` the view captures the store's *current*
        state — committed fragments plus the unpacked WAL tail — and
        stays stable while concurrent appends, packs and compactions
        advance the store.  An explicit past ``generation`` reconstructs
        that manifest generation from the retained fragment history
        (``StoreOptions.retain_generations`` / :meth:`gc` control how
        far back that reaches; beyond the GC horizon raises
        ``ValueError``).  Past generations predate the current WAL tail,
        so only current-state snapshots carry one.

        The snapshot *pins* its fragments: :meth:`gc` will not delete
        them while it is live.  Release the pin with
        :meth:`StoreSnapshot.close` (snapshots are context managers and
        also release on garbage collection).
        """
        with self._rw.read_locked():
            with self._state_lock:
                current = self._generation
                tail = None
                if generation is None or int(generation) == current:
                    generation = current
                    tail = self._wal_tail()
                generation = int(generation)
                if generation > current:
                    raise ValueError(
                        f"generation {generation} is in the future "
                        f"(current is {current})"
                    )
                if generation < self._gc_horizon:
                    raise ValueError(
                        f"generation {generation} predates the GC horizon "
                        f"{self._gc_horizon}; retained history starts there "
                        "(raise StoreOptions.retain_generations to keep "
                        "more)"
                    )
                pool = list(self._fragments) + list(self._retired)
                frags = [
                    f for f in pool
                    if (f.born or 0) <= generation
                    and (f.retired is None or generation < f.retired)
                ]
                # The logical write sequence is monotone in commit order
                # (format migration renames a fragment's file but pins
                # its ``seq``), so it restores the newest-wins fragment
                # order the manifest had at that generation.
                frags.sort(key=lambda f: (f.effective_seq(), f.path.name))
                token = self._pin_counter
                self._pin_counter += 1
                self._pins[token] = frozenset(f.path.name for f in frags)
        counter_add("store.wal.snapshots")
        return StoreSnapshot(self, generation, frags, tail, token)

    def _release_pin(self, token: int) -> None:
        with self._state_lock:
            self._pins.pop(token, None)

    def _pinned_names(self) -> set[str]:
        """File names any live snapshot references; state lock held."""
        if not self._pins:
            return set()
        return set().union(*self._pins.values())

    def _retire_locked(
        self, frags: list[FragmentInfo]
    ) -> list[FragmentInfo]:
        """Mark superseded fragments; returns the ones to delete.

        Must run under the state lock, *before* the manifest commit that
        de-lists ``frags``: their ``retired`` generation is the one that
        commit will write.  Fragments covered by the retention window or
        pinned by a live snapshot move to the manifest's ``"retired"``
        list (deleted later by :meth:`gc`); the rest are returned for
        the caller to unlink *after* the commit (manifest-then-delete).
        """
        retire_gen = self._generation + 1
        pinned = self._pinned_names()
        doomed: list[FragmentInfo] = []
        for f in frags:
            f.retired = retire_gen
            if f.born is None:
                f.born = 0  # never committed with a birth stamp
            if self.options.retain_generations > 0 or f.path.name in pinned:
                self._retired.append(f)
                self._delta.retire.append(f.path.name)
            else:
                doomed.append(f)
                self._delta.drop.append(f.path.name)
        if doomed:
            # Generations before retire_gen reference deleted files and
            # can no longer be reconstructed.
            self._gc_horizon = max(self._gc_horizon, retire_gen)
        return doomed

    @staticmethod
    def _unlink(frags: list[FragmentInfo]) -> None:
        """Delete superseded fragment files *after* the manifest commit
        that de-listed them (manifest-then-delete: a crash before this
        only leaves unreferenced, fsck-visible files)."""
        for f in frags:
            try:
                remove_file(f.path)
            except OSError:  # pragma: no cover - already gone
                pass

    def _replace_fragment_locked(
        self,
        index: int,
        frag: FragmentInfo,
        encoded: EncodedTensor,
        *,
        extra: dict,
        zone: ZoneMap | None,
    ) -> FragmentInfo:
        """Commit a rewrite of live fragment ``index`` (same points, new
        bytes); the writer lock must be held.

        The replacement lands atomically under a fresh file name with
        ``frag``'s bounding box, and pins ``frag``'s logical ``seq`` so
        the newest-wins order (snapshots included) is untouched.  The
        manifest commit is the single switch point and ``frag`` is
        retired after it (retention rules apply), so a crash anywhere
        leaves the store reading either the old or the new fragment,
        never a mix and never a loss.  The file's header carries the
        pinned ``seq`` too, so ``fsck`` knows an unlisted replacement is
        no newer than ``frag`` and never relists it above later writes.
        """
        seq = frag.effective_seq()
        info = write_fragment(
            self._next_fragment_path(),
            encoded,
            bbox=frag.bbox,
            extra={**extra, "seq": seq},
            fsync=self.fsync,
            codec=self.codec,
        )
        info.zone = zone
        info.seq = seq
        with self._state_lock:
            self._fragments[index] = info
            self._delta.replace.append((frag.path.name, info))
            doomed = self._retire_locked([frag])
        self._save_manifest(written=[info])
        self._unlink(doomed)
        return info

    def gc(self, *, keep_generations: int | None = None) -> int:
        """Delete retired fragments older than the retention window.

        ``keep_generations`` (default: ``StoreOptions.
        retain_generations``) is how many past generations must remain
        reconstructable: a retired fragment is deleted once its
        ``retired`` generation is at least that far behind the current
        one — unless a live snapshot pins it, which always wins.  Commit
        order is manifest-then-delete (the trimmed ``"retired"`` list
        and advanced GC horizon land first), so a crash mid-GC leaves
        only unreferenced files for ``fsck`` to report.  Returns the
        number of fragment files deleted.
        """
        if keep_generations is None:
            keep_generations = self.options.retain_generations
        keep_generations = int(keep_generations)
        if keep_generations < 0:
            raise ValueError("keep_generations must be >= 0")
        with self._rw.write_locked():
            with self._state_lock:
                cutoff = self._generation - keep_generations
                pinned = self._pinned_names()
                doomed = [
                    f for f in self._retired
                    if f.retired is not None
                    and f.retired <= cutoff
                    and f.path.name not in pinned
                ]
                if not doomed:
                    return 0
                doomed_names = {f.path.name for f in doomed}
                self._retired = [
                    f for f in self._retired
                    if f.path.name not in doomed_names
                ]
                self._delta.drop.extend(f.path.name for f in doomed)
                self._gc_horizon = max(
                    self._gc_horizon,
                    max(f.retired for f in doomed),
                )
                self._save_manifest()
            self._unlink(doomed)
        counter_add("store.wal.gc_deleted", len(doomed))
        return len(doomed)

    # ------------------------------------------------------------------
    # READ (Algorithm 3)
    # ------------------------------------------------------------------

    # -- query planning -------------------------------------------------

    def _plan_read(
        self, query_box: Box, kind: str, *, keys: QueryKeys | None = None
    ) -> QueryPlan:
        """Plan one READ: snapshot the fragment list, prune, never load.

        ``keys`` carries the per-address-order query keys — the zone
        stage prunes each fragment in its own ``addr_order`` space, so
        mixed-order stores stay correct.  The returned plan's fragment
        list is materialized (corruption handling may shrink
        ``self._fragments`` while the caller iterates).
        """
        if self.use_planner and not self._zone_backfill_done:
            self.backfill_zone_maps()
        with self._state_lock:
            fragments = list(self._fragments)
            generation = self._generation
        return self._planner.plan(
            fragments,
            generation,
            query_box,
            kind=kind,
            enabled=self.use_planner,
            keys=keys,
            addr_order=self.addr_order,
        )

    def backfill_zone_maps(self) -> int:
        """Compute + persist zone maps missing from an old manifest.

        Version-1 manifests (and fsck-recovered entries) carry no zone
        maps; the first planned read lands here and derives each missing
        map from the fragment's sorted global address run, then commits
        the upgraded manifest.  Runs at most once per manifest load —
        fragments that fail to load keep ``zone=None`` (they are never
        zone-pruned) rather than being re-probed on every read.  Returns
        the number of zone maps added.
        """
        done = 0
        with self._state_lock:
            self._zone_backfill_done = True
            if not self._linearizable:
                return 0
            stale = [f for f in self._fragments if f.zone is None and f.nnz]
            for frag in stale:
                # A zone map must live in the space the fragment's tag
                # names — the planner prunes it there.
                if not fits_addr_order(self.shape, frag.addr_order):
                    continue
                try:
                    payload = load_fragment(frag.path, crc=frag.crc)
                    run = self._fragment_sorted_run(
                        frag, payload, order=frag.addr_order
                    )
                except (FragmentError, OSError):
                    continue
                frag.zone = ZoneMap.from_addresses(
                    run.addresses, assume_sorted=True
                )
                self._delta.replace.append((frag.path.name, frag))
                done += 1
            if done:
                counter_add("store.plan.zone_backfilled", done)
                try:
                    # Commit the schema upgrade (safe under a held reader:
                    # same precedent as the quarantine path).  A failed
                    # commit reloads the manifest without the maps: reads
                    # stay correct, unpruned; the next open retries.
                    self._save_manifest()
                except OSError:
                    self._zone_backfill_done = True
                    warnings.warn(
                        f"store {self.directory}: zone-map backfill could "
                        "not be persisted; reads go unpruned until the "
                        "next open",
                        stacklevel=3,
                    )
        return done

    def explain(self, query) -> QueryPlan:
        """The :class:`QueryPlan` a read of ``query`` would use — without
        executing it.

        ``query`` is either a coordinate buffer (``read_points``) or a
        :class:`Box` (``read_box``).  ``plan.summary()`` renders the
        stage-by-stage pruning; the debugging hook behind
        ``repro stats --plan``.
        """
        if isinstance(query, Box):
            keys = QueryKeys(self.shape, box=query)
            plan = self._plan_read(query, "box", keys=keys)
        else:
            keys = QueryKeys.for_points(self.shape, query)
            plan = self._plan_read(keys.bbox(), "points", keys=keys)
        plan.codec_bytes = self._aggregate_codecs(plan.fragments)
        return plan

    # -- compression accounting -----------------------------------------

    def _frag_codecs(self, frag: FragmentInfo) -> dict[str, int] | None:
        """The fragment's per-codec bytes-on-disk map, backfilled from the
        fragment header for pre-cascade manifest entries (one small read;
        cached on the info so each fragment pays it at most once)."""
        if frag.codecs is None:
            try:
                info = read_fragment_header(frag.path)
            except (FragmentError, OSError):
                return None
            frag.codecs = info.codecs
            frag.raw_nbytes = info.raw_nbytes
        return frag.codecs

    def _aggregate_codecs(self, fragments) -> dict[str, int] | None:
        totals: dict[str, int] = {}
        for frag in fragments:
            codecs = self._frag_codecs(frag)
            if codecs:
                for tag, nbytes in codecs.items():
                    totals[tag] = totals.get(tag, 0) + int(nbytes)
        return totals or None

    def compression_stats(self) -> dict:
        """Bytes-on-disk per stored codec chain across live fragments.

        Returns ``{"codec": <store option>, "fragments": n,
        "file_nbytes": total, "raw_nbytes": total-uncompressed,
        "ratio": raw/encoded, "by_codec": {tag: {"nbytes", "raw_nbytes",
        "buffers"?}}}`` — the data behind ``repro stats --compression``.
        Per-codec raw bytes are only split out when every live fragment
        records codec info (old manifests are backfilled lazily from
        fragment headers, so this is the common case).
        """
        with self._state_lock:
            fragments = list(self._fragments)
        by_codec: dict[str, int] = {}
        raw_total = 0
        encoded_total = 0
        for frag in fragments:
            codecs = self._frag_codecs(frag)
            if not codecs:
                continue
            for tag, nbytes in codecs.items():
                by_codec[tag] = by_codec.get(tag, 0) + int(nbytes)
                encoded_total += int(nbytes)
            raw_total += int(frag.raw_nbytes or 0)
        return {
            "codec": self.codec,
            "fragments": len(fragments),
            "file_nbytes": self.total_file_nbytes,
            "raw_nbytes": raw_total,
            "encoded_nbytes": encoded_total,
            "ratio": (raw_total / encoded_total) if encoded_total else 1.0,
            "by_codec": {
                tag: by_codec[tag] for tag in sorted(by_codec)
            },
        }

    # -- coordinate rebasing (relative fragments) -----------------------

    def _frag_origin(self, frag: FragmentInfo) -> np.ndarray:
        return as_index_array(list(frag.bbox.origin))

    def _to_local(self, frag: FragmentInfo, coords: np.ndarray) -> np.ndarray:
        """Global → fragment-local coordinates (relative fragments store
        against their own bounding box)."""
        return coords - self._frag_origin(frag)[np.newaxis, :]

    def _to_global(self, frag: FragmentInfo, coords: np.ndarray) -> np.ndarray:
        """Fragment-local → global coordinates — inverse of
        :meth:`_to_local`; the one rebase used by every read path and the
        planner's zone-map backfill."""
        return coords + self._frag_origin(frag)[np.newaxis, :]

    def _quarantine_fragment(self, frag: FragmentInfo, reason: str) -> None:
        """Move a corrupt fragment to ``.quarantine/`` and de-list it."""
        try:
            quarantine_file(self.directory, frag.path, reason=reason)
        except OSError:
            # The file may already be gone (e.g. manifest references a
            # missing fragment); de-listing it is still the right repair.
            pass
        with self._state_lock:
            kept = [f for f in self._fragments if f is not frag]
            if len(kept) < len(self._fragments):
                self._delta.drop.append(frag.path.name)
            self._fragments = kept
            self._save_manifest()

    def _load_payload(self, frag: FragmentInfo):
        """Load one fragment through the cache (raising).

        The decoded-fragment cache is consulted first; on a miss the file
        is read, its CRC verified against the manifest's (a failed read
        raises :class:`~repro.core.errors.FragmentIOError` at once) and
        the decoded payload inserted.  Corruption (checksum/parse
        failures) raises :class:`~repro.core.errors.FragmentError` — the
        *caller* applies the ``on_corruption`` policy.
        """
        payload = self.cache.get(frag.path.name)
        if payload is not None:
            return payload
        payload = load_fragment(frag.path, crc=frag.crc)
        self.cache.put(frag.path.name, payload)
        return payload

    def _note_corruption(
        self, frag: FragmentInfo, exc: FragmentError, *, will_raise: bool = False
    ) -> None:
        """Account one corrupt fragment and apply skip/quarantine handling."""
        self.corrupt_fragments += 1
        counter_add("store.corrupt_fragments", format=self.format_name)
        if will_raise:
            return
        if self.on_corruption == "quarantine":
            self._quarantine_fragment(frag, reason=str(exc))
            action = "quarantined"
        else:
            action = "skipped"
        warnings.warn(
            f"corrupt fragment {frag.path.name} {action}: {exc}",
            stacklevel=4,
        )

    def _load_fragment_guarded(self, frag: FragmentInfo):
        """Load one fragment under the store's corruption policy.

        Returns the payload, or ``None`` when the fragment was skipped or
        quarantined (policy ``"skip"`` / ``"quarantine"``).
        """
        try:
            return self._load_payload(frag)
        except FragmentError as exc:
            if self.on_corruption == "raise":
                self._note_corruption(frag, exc, will_raise=True)
                raise
            self._note_corruption(frag, exc)
            return None

    def _run_fragment_tasks(
        self,
        frags: list[FragmentInfo],
        task: Callable[[FragmentInfo], object],
        *,
        on_corruption: str | None = None,
    ) -> list[tuple[FragmentInfo, object]]:
        """Run one read task per fragment, inline and in plan order.

        A corrupt fragment is handled (or raises) the moment it is
        reached, before any later fragment is touched; skipped fragments
        yield ``None`` results.  ``on_corruption`` overrides the store's
        policy (snapshots raise).
        """
        policy = on_corruption or self.on_corruption
        out: list[tuple[FragmentInfo, object]] = []
        for frag in frags:
            try:
                out.append((frag, task(frag)))
            except FragmentError as exc:
                if policy == "raise":
                    self._note_corruption(frag, exc, will_raise=True)
                    raise
                self._note_corruption(frag, exc)
                out.append((frag, None))
        return out

    def read_points(
        self,
        query_coords: np.ndarray,
        *,
        options: ReadOptions | None = None,
    ) -> ReadOutcome:
        """Algorithm 3 READ for an explicit query coordinate buffer.

        Later fragments win on duplicate coordinates (overwrite semantics of
        appended fragments).  Results come back aligned with the query
        buffer; the benchmark layer separately accounts the final
        sort-by-linear-address merge.  Query rows outside the store shape
        are not-found.

        Tuning arrives as one :class:`~repro.storage.options.ReadOptions`
        value.
        """
        keys = QueryKeys.for_points(self.shape, query_coords)
        return self._read_point_keys(keys, options or ReadOptions())

    def _read_point_keys(
        self, keys: QueryKeys, ropts: ReadOptions
    ) -> ReadOutcome:
        """:meth:`read_points` over pre-built keys (the shard router's
        entry: a band arrives with its slice of the sorted keys)."""
        q = keys.points.shape[0]
        if q == 0:
            return ReadOutcome(np.zeros(0, dtype=bool), np.empty(0), 0, 0)
        with self._rw.read_locked():
            with span("store.read_points", format=self.format_name) as sp:
                plan = self._plan_read(keys.bbox(), "points", keys=keys)
                outcome = self._execute_points(
                    keys, plan, self._wal_tail(), ropts,
                    on_corruption=self.on_corruption, ops=sp.ops,
                )
                sp.add_nnz(outcome.points_matched)
        self._record_pruning(plan)
        counter_add("store.points_queried", q)
        counter_add("store.points_matched", outcome.points_matched)
        return outcome

    def _execute_points(
        self,
        keys: QueryKeys,
        plan: QueryPlan,
        tail: TailRun | None,
        ropts: ReadOptions,
        *,
        on_corruption: str,
        ops: OpCounter | None = None,
    ) -> ReadOutcome:
        """Run one planned point READ — the executor behind every store
        and snapshot point read (``docs/READ_PATH.md``).

        Each planned fragment loads as planned, then is probed with only
        the slice of the once-sorted ``keys`` inside its zone map (or
        bbox envelope); hits scatter back through the permutation in
        plan (newest-last) order and the WAL tail overlays last.  Shapes
        without keys (beyond 64 bits) fall back to a bbox mask.
        """
        query = keys.points
        q = query.shape[0]
        found = np.zeros(q, dtype=bool)
        out_values: np.ndarray | None = None
        ops = OpCounter() if ops is None else ops

        def point_task(frag: FragmentInfo):
            payload = self._load_payload(frag)
            relative = payload.extra.get("relative")
            order, zone, cut = frag.addr_order, frag.zone, None
            if zone is not None:
                cut = keys.between(order, zone.addr_min, zone.addr_max)
            elif keys.keys(order) is not None:  # planned boxes are non-empty
                cut = keys.between(
                    order, *box_envelope(frag.bbox, self.shape, order)
                )
            if cut is None:
                rows = np.flatnonzero(frag.bbox.contains_points(query))
                addresses = None
            else:
                addresses, rows = cut
                if relative:
                    rows = rows[frag.bbox.contains_points(query[rows])]
                if relative or meta_addr_order(payload.meta) != order:
                    addresses = None
            if rows.size == 0:
                return None
            sub = query[rows]
            if relative:
                sub = self._to_local(frag, sub)
            res, vals = query_fragment(
                payload, sub, faithful=ropts.faithful, counter=ops,
                addresses=addresses,
            )
            return rows, res, vals

        for _, result in self._run_fragment_tasks(
            plan.fragments, point_task, on_corruption=on_corruption,
        ):
            if result is None:
                continue
            rows, res, vals = result
            if out_values is None:
                out_values = np.zeros(q, dtype=vals.dtype)
            hit = rows[res.found]
            found[hit] = True
            out_values[hit] = vals
        # WAL tail overlay: the unpacked tail is newer than every
        # committed fragment, so its hits overwrite — exactly as if the
        # tail were one final appended fragment.  It lives in row-major
        # space whatever the active order (appends never interleave).
        cut = None
        if tail is not None and tail.n:
            cut = keys.between(
                DEFAULT_ADDRESS_ORDER, tail.addresses[0], tail.addresses[-1]
            )
        if cut is not None:
            window, rows = cut
            pos = np.searchsorted(tail.addresses, window)
            hit = tail.addresses[pos] == window
            if hit.any():
                vals = tail.values[pos[hit]]
                if out_values is None:
                    out_values = np.zeros(q, dtype=vals.dtype)
                found[rows[hit]] = True
                out_values[rows[hit]] = vals
        if out_values is None:
            out_values = np.zeros(q, dtype=float)
        return ReadOutcome(
            found=found,
            values=out_values[found],
            fragments_visited=len(plan.fragments),
            points_matched=int(found.sum()),
        )

    def _record_pruning(self, plan: QueryPlan) -> None:
        """Account one READ's pruning, stage by stage.

        ``store.fragments_pruned`` keeps its pre-planner meaning — bbox
        overlap prunes only — so dashboards built on it read unchanged;
        planner-specific prunes land exclusively in the ``store.plan.*``
        counters.
        """
        counter_add("store.fragments_visited", len(plan.fragments))
        counter_add("store.fragments_pruned", plan.pruned_bbox)
        if plan.used_index and plan.pruned_bbox:
            counter_add(
                "store.plan.fragments_pruned_index", plan.pruned_bbox
            )
        if plan.pruned_zonemap:
            counter_add(
                "store.plan.fragments_pruned_zonemap", plan.pruned_zonemap
            )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def decode_fragment(self, index: int) -> SparseTensor:
        """Reconstruct one fragment's full point set (global coordinates)."""
        frag = self.fragments[index]
        payload = load_fragment(frag.path, crc=frag.crc)
        return self._payload_to_tensor(frag, payload)

    def fragment_canonical(
        self, index: int
    ) -> tuple[CanonicalCoords, np.ndarray]:
        """One fragment's point set as ``(canonical, values)``.

        Goes payload → canonical directly (the organization's
        :meth:`~repro.formats.base.SparseFormat.extract_addresses`, no
        full-tensor decode) for linearizable shapes; the canonical is in
        the store's global space with values in canonical (ascending
        linear-address) order, newest write last within duplicate runs.
        This is the source side of
        :func:`~repro.storage.convert.convert_store`.
        """
        if not fits_index_dtype(self.shape):
            tensor = self.decode_fragment(index)
            return (
                CanonicalCoords.from_coords(tensor.coords, self.shape),
                tensor.values,
            )
        frag = self.fragments[index]
        payload = load_fragment(frag.path, crc=frag.crc)
        order = self._merge_order()
        run = self._fragment_sorted_run(frag, payload, order=order)
        canon = CanonicalCoords.from_addresses(
            run.addresses, self.shape, is_sorted=True, addr_order=order
        )
        return canon, run.values

    def _payload_to_tensor(self, frag: FragmentInfo, payload) -> SparseTensor:
        from .fragment import fragment_to_tensor

        tensor = fragment_to_tensor(payload)
        if payload.extra.get("relative"):
            coords = self._to_global(frag, tensor.coords)
            return SparseTensor(self.shape, coords, tensor.values)
        return SparseTensor(self.shape, tensor.coords, tensor.values)

    def compact(self, *, strategy: str = "merge") -> WriteReceipt:
        """Merge all fragments into one, newest-wins on duplicates.

        The fragment-array model (append-only writes, TileDB-style) trades
        write latency for read-side fragment fan-out; compaction restores
        single-fragment reads.  Old fragment files are deleted and the
        manifest rewritten atomically at the end.

        ``strategy="merge"`` (the default) extracts each fragment's points
        as a sorted linear-address run (no full-tensor decode — mixed
        per-fragment formats each use their own
        :meth:`~repro.formats.base.SparseFormat.extract_addresses`) and
        k-way merges the runs into one canonical intermediate; the rewrite
        then reuses the merge's ordering instead of re-sorting.  The
        result is bit-identical to ``strategy="decode"`` — the legacy
        decode-all-and-rebuild path, kept for differential testing and as
        the automatic fallback when the store shape is not linearizable.

        Corrupt fragments follow the store's ``on_corruption`` policy:
        ``"raise"`` aborts the compaction untouched, ``"skip"`` /
        ``"quarantine"`` compact the surviving fragments (fragment order —
        and thus newest-wins semantics — is preserved among survivors).
        """
        if strategy not in ("merge", "decode"):
            raise ValueError(
                f"strategy must be 'merge' or 'decode', got {strategy!r}"
            )
        with self._rw.write_locked():
            return self._compact_locked(strategy)

    def _compact_locked(self, strategy: str = "merge") -> WriteReceipt:
        if not self._fragments:
            raise FragmentError("nothing to compact: store has no fragments")
        if len(self._fragments) == 1:
            # Already fully compacted.  Bumping the manifest generation
            # here would needlessly invalidate the fragment cache and the
            # planner's interval-index cache.
            frag = self._fragments[0]
            counter_add("store.compact_noop", 1)
            return WriteReceipt(
                info=frag,
                index_nbytes=0,
                value_nbytes=0,
                file_nbytes=frag.nbytes,
                build_seconds=0.0,
                reorg_seconds=0.0,
                write_seconds=0.0,
            )
        if strategy == "merge" and not fits_index_dtype(self.shape):
            strategy = "decode"  # no global linear addresses to merge on
        with span("store.compact", format=self.format_name) as sp:
            n_before = len(self._fragments)
            order = self._merge_order()
            # "merge" extracts each fragment as a sorted address run;
            # "decode" (the byte-identity reference) decodes it whole.
            parts: list = []
            merged_from: list[FragmentInfo] = []
            for frag in list(self._fragments):
                payload = self._load_fragment_guarded(frag)
                if payload is None:
                    continue
                if strategy == "merge":
                    parts.append(
                        self._fragment_sorted_run(frag, payload, order=order)
                    )
                else:
                    parts.append(self._payload_to_tensor(frag, payload))
                merged_from.append(frag)
            if not parts:
                raise FragmentError(
                    "nothing to compact: no readable fragments survive"
                )
            if strategy == "merge":
                merged = merge_sorted_runs(parts, self.shape, addr_order=order)
                part = self._package(
                    merged.canonical,
                    merged.values,
                    bbox=self._union_bbox(merged_from),
                )
                nnz = merged.canonical.n
            else:
                coords = np.vstack([p.coords for p in parts])
                values = np.concatenate([p.values for p in parts])
                merged = SparseTensor(self.shape, coords, values).deduplicated(
                    keep="last"
                )
                part = self._package_coords(merged.coords, merged.values)
                nnz = merged.nnz
            # The merged fragment takes the next unused sequence number, so
            # its name cannot collide; quarantined fragments are already
            # off the list.  One commit lists it and retires the sources:
            # a checkpoint, which leaves the log empty.  A crash before it
            # leaves the merged file as an orphan.
            [receipt] = self._write_parts_locked([part])
            with self._state_lock:
                self._fragments = [receipt.info]
                doomed = self._retire_locked(merged_from)
            self._save_manifest(checkpoint=True, written=[receipt.info])
            self._unlink(doomed)
            sp.add_nnz(nnz)
        counter_add("store.fragments_compacted", n_before)
        return receipt

    def _merge_order(self) -> str:
        """The address order compaction/conversion runs merge in.

        The store's active order when the shape fits it, else row-major
        (init already rejects an unfittable explicit order, so this only
        degrades hypothetical edge cases, never a configured store)."""
        if fits_addr_order(self.shape, self.addr_order):
            return self.addr_order
        return DEFAULT_ADDRESS_ORDER

    def _fragment_sorted_run(
        self, frag: FragmentInfo, payload, *, order: str | None = None
    ) -> SortedRun:
        """One fragment's points as a global-address run sorted in
        ``order`` (default: the store's active order).

        Uses the organization's :meth:`extract_addresses` — no
        full-tensor decode.  ``positions`` are the fragment's stored
        positions, so the merge can reconstruct the exact
        concatenated-fragment order the decode path would have produced
        (newest-wins ties included).  Relative fragments translate their
        local addresses into global space; for row-major the translation
        is monotone and the run stays sorted, while interleaved orders
        re-sort after the rebase (the stable sort keeps newest-last
        within duplicate runs).
        """
        if order is None:
            order = self._merge_order()
        fmt = get_format(payload.format_name)
        values = np.asarray(payload.values)
        if not payload.extra.get("relative"):
            addresses, value_order = fmt.extract_addresses(
                payload.buffers, payload.meta, payload.shape, order=order
            )
            if value_order is None:
                positions = np.arange(addresses.shape[0], dtype=np.intp)
            else:
                positions = np.asarray(value_order, dtype=np.intp)
                values = values[positions]
            return SortedRun(
                addresses=addresses, values=values, positions=positions
            )
        # Relative fragment: extract in the local row-major space (always
        # fits — the local box is a subset of the store shape), rebase,
        # then re-linearize globally in the merge order.
        addresses, value_order = fmt.extract_addresses(
            payload.buffers, payload.meta, payload.shape,
            order=DEFAULT_ADDRESS_ORDER,
        )
        if value_order is None:
            positions = np.arange(addresses.shape[0], dtype=np.intp)
        else:
            positions = np.asarray(value_order, dtype=np.intp)
            values = values[positions]
        local = delinearize(addresses, payload.shape, validate=False)
        addresses = linearize_order(
            self._to_global(frag, local), self.shape, order, validate=False
        )
        if order != DEFAULT_ADDRESS_ORDER:
            perm = stable_argsort(addresses)
            addresses = addresses[perm]
            values = values[perm]
            positions = positions[perm]
        return SortedRun(
            addresses=addresses, values=values, positions=positions
        )

    @staticmethod
    def _union_bbox(frags: list[FragmentInfo]) -> Box | None:
        """Union of non-empty fragments' boxes — tight for a dedup merge.

        Per-fragment boxes are tight at write time and deduplication only
        removes repeated coordinates, so the union equals the tight box
        of the merged point set.
        """
        boxes = [f.bbox for f in frags if f.nnz]
        if not boxes:
            return None
        d = boxes[0].ndim
        origin = tuple(min(b.origin[i] for b in boxes) for i in range(d))
        end = tuple(max(b.end[i] for b in boxes) for i in range(d))
        return Box(origin, tuple(e - o for o, e in zip(origin, end)))

    def migrate_fragment(
        self, index: int, format_name: str | SparseFormat
    ) -> FragmentInfo | None:
        """Re-format one committed fragment in place (same points, new
        organization).

        Loads the fragment's payload and converts it through
        :meth:`~repro.formats.base.EncodedTensor.convert` (the canonical
        path: extract a sorted address run, rebuild in the target), then
        commits the replacement under a fresh file name.  The bounding
        box and zone map carry over unchanged (the point set is
        identical; they describe the data, not the layout) and the
        replacement pins the old fragment's logical ``seq``, so the
        newest-wins shadowing order — including for generation
        snapshots — is preserved.

        Crash safety follows the store's standard protocol: the new file
        lands atomically first, the manifest commit is the single switch
        point, and the old file is retired (retention rules apply) only
        after that commit.  A crash anywhere leaves the store reading
        either the old or the new format, never a mix and never a loss.

        Returns the new :class:`FragmentInfo`, or ``None`` when the
        fragment already has the target format (or was skipped by the
        corruption policy).
        """
        with self._rw.write_locked():
            return self._migrate_fragment_locked(index, format_name)

    def _migrate_fragment_locked(
        self, index: int, format_name: str | SparseFormat
    ) -> FragmentInfo | None:
        fmt = resolve_format(format_name)
        with self._state_lock:
            frag = self._fragments[index]
        if frag.format_name == fmt.name:
            counter_add("store.migrate.noop", format=fmt.name)
            return None
        payload = self._load_fragment_guarded(frag)
        if payload is None:
            return None
        with span(
            "store.migrate", src=frag.format_name, dst=fmt.name
        ) as sp:
            converted = payload_encoded(payload).convert(fmt)
            # Same point set, so the range metadata carries over.
            info = self._replace_fragment_locked(
                index, frag, converted,
                extra=dict(payload.extra), zone=frag.zone,
            )
            sp.add_nnz(converted.nnz)
            sp.add_bytes_out(info.nbytes)
        counter_add(
            "store.migrate.fragments", src=frag.format_name, dst=fmt.name
        )
        return info

    def migrate_all(
        self, format_name: str | SparseFormat
    ) -> list[FragmentInfo]:
        """Re-format every live fragment to ``format_name``.

        Each fragment migrates (and commits) independently — a crash
        mid-way leaves a mixed-format store that reads bit-identically.
        Returns the replacement infos (fragments already in the target
        format are skipped).
        """
        out: list[FragmentInfo] = []
        for i in range(len(self.fragments)):
            info = self.migrate_fragment(i, format_name)
            if info is not None:
                out.append(info)
        return out

    # ------------------------------------------------------------------
    # Address-order migration
    # ------------------------------------------------------------------

    def set_addr_order(self, addr_order: str) -> int:
        """Re-linearize the store into ``addr_order``.

        Every live fragment whose tag differs is rewritten: order-bearing
        payloads (LINEAR, COO-SORTED) are rebuilt from their points
        extracted in the new order, order-independent payloads keep their
        bytes, and the zone map is *rebuilt* in the new space either way.
        Each fragment commits independently under the standard crash
        protocol (new file → manifest switch → retire old), so a crash
        mid-way leaves a mixed-order store that reads bit-identically;
        the store-level ``addr_order`` key commits last.
        Returns the number of fragments rewritten.
        """
        validate_addr_order(addr_order)
        if (
            addr_order != DEFAULT_ADDRESS_ORDER
            and not fits_addr_order(self.shape, addr_order)
        ):
            raise ShapeError(
                f"shape {self.shape} does not fit the {addr_order!r} "
                "address order's 64-bit budget"
            )
        with self._rw.write_locked():
            return self._set_addr_order_locked(addr_order)

    def _set_addr_order_locked(self, addr_order: str) -> int:
        changed = 0
        with self._state_lock:
            count = len(self._fragments)
        for i in range(count):
            with self._state_lock:
                frag = self._fragments[i]
            if frag.addr_order == addr_order:
                continue
            if self._reorder_fragment_locked(i, addr_order) is not None:
                changed += 1
        if self.addr_order != addr_order:
            self.addr_order = addr_order
            self.options = self.options.replace(addr_order=addr_order)
            # Commit the store-level order switch (also re-tags any
            # fragment entries updated above a second time — harmless).
            self._save_manifest()
            counter_add(
                "store.addr_order.switches", order=addr_order
            )
        return changed

    def _reorder_fragment_locked(
        self, index: int, addr_order: str
    ) -> FragmentInfo | None:
        """Rewrite one fragment's tag/payload/zone into ``addr_order``.

        Commits through :meth:`_replace_fragment_locked`, as format
        migration does.
        """
        with self._state_lock:
            frag = self._fragments[index]
        payload = self._load_fragment_guarded(frag)
        if payload is None:
            return None
        with span(
            "store.addr_order.migrate",
            src=frag.addr_order, dst=addr_order,
        ) as sp:
            converted = self._relinearize(payload_encoded(payload), addr_order)
            extra = dict(payload.extra)
            if addr_order == DEFAULT_ADDRESS_ORDER:
                extra.pop("addr_order", None)
            else:
                extra["addr_order"] = addr_order
            # The zone map is rebuilt from the *old* payload's point set
            # (identical to the new one), sorted in the target space.
            zone = None
            if fits_addr_order(self.shape, addr_order):
                run = self._fragment_sorted_run(
                    frag, payload, order=addr_order
                )
                zone = ZoneMap.from_addresses(
                    run.addresses, assume_sorted=True
                )
            info = self._replace_fragment_locked(
                index, frag, converted, extra=extra, zone=zone
            )
            sp.add_nnz(converted.nnz)
            sp.add_bytes_out(info.nbytes)
        counter_add(
            "store.addr_order.fragments",
            src=frag.addr_order, dst=addr_order,
        )
        return info

    @staticmethod
    def _relinearize(
        encoded: EncodedTensor, addr_order: str
    ) -> EncodedTensor:
        """Re-express a payload in another address order.

        Order-independent payloads (COO, CSF, HiCOO, GCSR++/GCSC++) do
        not depend on the canonical sort's address space and pass through
        untouched; order-bearing ones (LINEAR, COO-SORTED) extract their
        points as a sorted run in ``addr_order`` and rebuild from it.
        """
        fmt = encoded.fmt
        if (
            fmt.payload_orders is None
            or meta_addr_order(encoded.meta) == addr_order
        ):
            return encoded
        addresses, order = fmt.extract_addresses(
            encoded.payload, encoded.meta, encoded.shape, order=addr_order
        )
        canon = CanonicalCoords.from_addresses(
            addresses, encoded.shape, is_sorted=True, addr_order=addr_order
        )
        values = encoded.values if order is None else encoded.values[order]
        return fmt.encode_canonical(canon, values)

    def fsck(self, *, repair: bool = False) -> FsckReport:
        """Verify (and with ``repair=True`` restore) store integrity.

        Delegates to :func:`repro.storage.durability.fsck`; after a repair
        the in-memory fragment list is reloaded from the rebuilt manifest.
        """
        with self._rw.write_locked():
            if repair:
                # Repair may truncate or quarantine the manifest log.
                with self._state_lock:
                    self._close_manifest_log()
            report = _fsck(self.directory, repair=repair)
            if repair:
                self._load_manifest()
                self._next_seq = self._scan_next_seq()
                self.cache.invalidate()
                # fsck may have truncated or quarantined WAL segments;
                # drop the in-memory mirror and re-replay from disk.
                with self._state_lock:
                    if self._wal is not None:
                        self._wal.close()
                    self._wal = None
                    self._tail_cache = None
                if self._linearizable and wal_path(self.directory).is_dir():
                    self._ensure_wal_locked()
        return report

    def read_box(
        self,
        box: Box,
        *,
        options: ReadOptions | None = None,
    ) -> SparseTensor:
        """Read every stored point inside ``box``, merged and sorted by
        linear address (Algorithm 3 line 12).

        Work scales with the stored points the box's address intervals
        reach, never with box volume.  Later fragments win on duplicate
        coordinates.  Shapes whose global cell count overflows uint64
        (blocked datasets) are merged in lexicographic coordinate order
        instead — same point set, overflow-safe ordering.  Box reads are
        always structural, so ``ReadOptions.faithful`` has no effect
        here.
        """
        keys = QueryKeys(self.shape, box=box)
        return merge_box_hits(
            self.shape, self._box_hits(keys, options or ReadOptions())
        )

    def _box_hits(self, keys: QueryKeys, ropts: ReadOptions) -> list:
        """:meth:`read_box` up to its merge (the band router's entry:
        every band's hits join one merge)."""
        with self._rw.read_locked():
            with span("store.read_box", format=self.format_name) as sp:
                plan = self._plan_read(keys.box, "box", keys=keys)
                parts = self._execute_box(
                    keys, plan, self._wal_tail(), ropts,
                    on_corruption=self.on_corruption,
                )
                sp.add_nnz(sum(hits.positions.size for hits, _ in parts))
        self._record_pruning(plan)
        return parts

    def _execute_box(
        self,
        keys: QueryKeys,
        plan: QueryPlan,
        tail: TailRun | None,
        ropts: ReadOptions,
        *,
        on_corruption: str,
    ) -> list:
        """Run one planned box READ up to its merge — the executor behind
        every store, snapshot and shard-band box read
        (``docs/READ_PATH.md``).

        Each planned fragment loads as planned and its organization's
        probe cuts the box's address intervals in the fragment's order,
        decomposed once (``keys.intervals``); relative fragments probe
        their local box and re-base.  Returns the ``(hits, values)``
        parts in plan (newest-last) order, the WAL tail's interval slice
        last, for :func:`~repro.storage.readpath.merge_box_hits`.
        """
        box = keys.box

        def box_task(frag: FragmentInfo):
            payload = self._load_payload(frag)
            if not payload.extra.get("relative"):
                hits = query_fragment_box(
                    payload, box, keys.intervals(frag.addr_order)
                )
            else:
                inter = box.intersection(frag.bbox)
                if inter.is_empty():
                    return None
                local = Box(
                    tuple(int(o) - int(g) for o, g in
                          zip(inter.origin, frag.bbox.origin)),
                    inter.size,
                )
                hits = query_fragment_box(payload, local)
                hits.coords = self._to_global(frag, hits.coords)
            return hits, payload.values[hits.positions]

        parts = [
            result for _, result in self._run_fragment_tasks(
                plan.fragments, box_task, on_corruption=on_corruption,
            )
            if result is not None
        ]
        # The unpacked tail is newer than every fragment: it merges last.
        if tail is not None and tail.n:
            hits = tail.box_hits(keys.intervals(DEFAULT_ADDRESS_ORDER), box)
            if hits.positions.size:
                parts.append((hits, tail.values[hits.positions]))
        return parts


class StoreSnapshot:
    """A read-only, generation-pinned view of a :class:`FragmentStore`.

    Created by :meth:`FragmentStore.snapshot`.  The fragment list (and,
    for current-state snapshots, the WAL tail) is fixed at creation:
    concurrent appends, packs, compactions and GC runs on the parent
    store never change what this view reads.  The snapshot *pins* its
    fragment files — :meth:`FragmentStore.gc` refuses to delete them
    while the pin is live.  Release the pin deterministically with
    :meth:`close` (or the context-manager form); garbage collection
    releases it as a backstop.

    Point reads run the store's executor over the pinned list, so they
    plan, prune and load exactly like store reads.  Reads share the
    parent's decoded-fragment cache but always *raise*
    on corruption — a snapshot never quarantines or de-lists anything
    (it owns no manifest).
    """

    def __init__(
        self,
        store: FragmentStore,
        generation: int,
        fragments: list[FragmentInfo],
        tail: TailRun | None,
        token: int,
    ):
        self._store = store
        #: The manifest generation this view is pinned to.
        self.generation = generation
        self._fragments = list(fragments)
        self._tail = tail
        #: The view's own interval index: pinned fragments never change,
        #: so it is built once and never evicts the store's.
        self._planner = QueryPlanner()
        self._finalizer = weakref.finalize(
            self, store._release_pin, token
        )

    @property
    def fragments(self) -> tuple[FragmentInfo, ...]:
        return tuple(self._fragments)

    @property
    def nnz(self) -> int:
        """Packed points across the pinned fragments (duplicates
        counted) — :attr:`FragmentStore.nnz` of the pinned state; the
        unpacked WAL tail is not counted."""
        return sum(f.nnz for f in self._fragments)

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def close(self) -> None:
        """Release the GC pin.  Idempotent; reads after close raise."""
        self._finalizer()

    def __enter__(self) -> "StoreSnapshot":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _check_open(self) -> None:
        if self.closed:
            raise ValueError(
                "snapshot is closed (its fragments may already be GC'd)"
            )

    def read_points(
        self,
        query_coords: np.ndarray,
        *,
        options: ReadOptions | None = None,
    ) -> ReadOutcome:
        """Point queries against the pinned view — the store's executor,
        so the same semantics and planner pruning as
        :meth:`FragmentStore.read_points`."""
        return self._read_point_keys(
            QueryKeys.for_points(self._store.shape, query_coords),
            options or ReadOptions(),
        )

    def _read_point_keys(
        self, keys: QueryKeys, ropts: ReadOptions
    ) -> ReadOutcome:
        self._check_open()
        store = self._store
        with store._rw.read_locked():
            plan = self._planner.plan(
                self._fragments, self.generation, keys.bbox(),
                kind="points", enabled=store.use_planner, keys=keys,
                addr_order=store.addr_order,
            )
            return store._execute_points(
                keys, plan, self._tail, ropts, on_corruption="raise"
            )

    def read_box(
        self,
        box: Box,
        *,
        options: ReadOptions | None = None,
    ) -> SparseTensor:
        """Box reads against the pinned view — the store's executor, so
        the same semantics and planner pruning as
        :meth:`FragmentStore.read_box`."""
        keys = QueryKeys(self._store.shape, box=box)
        return merge_box_hits(
            keys.shape, self._box_hits(keys, options or ReadOptions())
        )

    def _box_hits(self, keys: QueryKeys, ropts: ReadOptions) -> list:
        self._check_open()
        store = self._store
        with store._rw.read_locked():
            plan = self._planner.plan(
                self._fragments, self.generation, keys.box, kind="box",
                enabled=store.use_planner, keys=keys,
                addr_order=store.addr_order,
            )
            return store._execute_box(
                keys, plan, self._tail, ropts, on_corruption="raise"
            )
