"""Range-partitioned sharding over the global linear address space.

PRs 1-5 scaled the fragment store vertically — parallel reads, a
canonical build pipeline, zone-map planning — but every byte still
funnels through one manifest in one directory.  :class:`ShardedStore`
is the horizontal step (ROADMAP item 2): the global row-major address
space ``[0, cell_count(shape))`` is split into contiguous *bands*, and
each band is an independent, fully durable
:class:`~repro.storage.store.FragmentStore` directory with its own
manifest generation.  A crash-safe **parent manifest**
(``shards.json``, atomic tmp+rename, monotonic parent generation) is
the band table alone — each shard's directory, its ``[addr_lo,
addr_hi)`` band and the epoch that created it — and it is the single
commit point of every re-banding operation.  Routed writes, appends,
packs, compactions and migrations commit only in the children.

Why bands over the *linear address*?  ALTO's observation (PAPERS.md):
the linearized address is a total order over the tensor, so

* a part's canonical sort (:class:`~repro.build.canonical.
  CanonicalCoords`) splits it across bands with two ``searchsorted``
  calls — routing is O(log S) per cut, not O(n·S);
* bands are disjoint, so a coordinate lives in exactly one shard —
  reads never merge duplicates across shards, and every band's box hits
  join one row-major merge (:func:`route_box`), whatever order the bands
  were cut in;
* routing is the whole shard-level prune (:func:`band_visits`): a point
  query's sorted keys, or a box's address intervals, cut at the band
  edges with one ``searchsorted``, so a read opens only the bands it
  can touch, and each of those children's planners prunes its own
  fragments.

Maintenance scales out the same way: :meth:`ShardedStore.compact` runs
per-shard compactions on a worker pool (each child takes only its own
RWLock), and :meth:`split` / :meth:`merge` re-band a shard whose nnz
crosses the configured thresholds.  Re-banding writes the *new* shard
directories first (they are invisible orphans until committed), then
swaps the band table in one parent-manifest rename, then best-effort
deletes the old directories — a kill at any point leaves either the old
committed layout (plus orphan dirs for :func:`fsck_sharded` to sweep)
or the new one.

Crash story (``docs/SHARDED_STORE.md`` has the full matrix):

* torn parent-manifest write → old ``shards.json`` survives (atomic
  protocol); the stale ``shards.json.tmp`` is cleaned on open/fsck;
* killed split/merge → orphan shard directories, quarantined by
  ``fsck --repair``; data is intact in the still-referenced old shard;
* killed routed ``write_many`` → parts commit atomically per
  (part, shard): a killed part may be present in some of the shards it
  straddles and absent in others, but each child is internally
  consistent and every *earlier* part is fully present;
* lost/corrupt parent manifest → ``fsck --repair`` rebuilds it from the
  per-shard ``range.json`` sidecars (written once at shard creation),
  preferring the oldest epoch among overlapping candidates so a
  half-finished re-banding can never shadow the committed data.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from ..build.canonical import CanonicalCoords
from ..core.boundary import Box
from ..core.dtypes import as_index_array, cell_count, fits_index_dtype
from ..core.errors import FragmentError, ManifestError, ShapeError
from ..core.linearize import (
    DEFAULT_ADDRESS_ORDER,
    address_space_size,
    delinearize_order,
    fits_addr_order,
    linearize,
    validate_addr_order,
)
from ..core.tensor import SparseTensor
from ..formats.base import SparseFormat
from ..formats.registry import resolve_format
from ..obs import counter_add, span
from ..readapi import ReadOutcome
from .durability import (
    QUARANTINE_DIR,
    TMP_SUFFIX,
    FsckIssue,
    FsckReport,
    clean_temp_files,
    encode_manifest,
    fsck as _fsck_store,
    peek_manifest,
    write_bytes_atomic,
)
from .options import ReadOptions, StoreOptions
from .fragment import FragmentInfo
from .planner import QueryKeys, QueryPlan
from .readpath import RWLock, merge_box_hits
from .store import FragmentStore, WriteReceipt

#: Parent manifest file name.  Deliberately distinct from the child
#: stores' ``manifest.json`` so a sharded directory is self-identifying
#: (``repro fsck`` auto-detects the layout from this file).
SHARD_MANIFEST_NAME = "shards.json"

#: Per-shard sidecar recording the shard's band, written once (atomic)
#: when the directory is created — the recovery breadcrumb that lets
#: ``fsck --repair`` rebuild a lost parent manifest from its children.
SHARD_RANGE_NAME = "range.json"

SHARD_MANIFEST_VERSION = 1

_SHARD_DIR_PREFIX = "shard-"


@dataclass
class ShardEntry:
    """One row of the parent's band table.

    ``path`` is the shard directory, ``[addr_lo, addr_hi)`` the band it
    owns in the store's address order, and ``epoch`` the parent
    generation that created it (the recovery tie-breaker).  What the
    shard holds — points, fragments, zone maps — lives in its child
    store; routing needs only the band.
    """

    name: str
    path: Path  # shard directory
    addr_lo: int
    addr_hi: int
    epoch: int

    def to_json(self) -> dict:
        return {
            "dir": self.name,
            "addr_lo": int(self.addr_lo),
            "addr_hi": int(self.addr_hi),
            "epoch": int(self.epoch),
        }

    @classmethod
    def from_json(cls, parent: Path, obj: dict) -> "ShardEntry":
        """One band; the per-shard stats keys older parent manifests
        carry (``nnz``, ``bbox_*``, ``zone``) are ignored."""
        return cls(
            name=str(obj["dir"]),
            path=parent / str(obj["dir"]),
            addr_lo=int(obj["addr_lo"]),
            addr_hi=int(obj["addr_hi"]),
            epoch=int(obj.get("epoch", 0)),
        )


class ShardedStore:
    """Range-partitioned shards behind one store-shaped facade.

    ``n_shards`` cuts the address space into equal bands on first
    creation; reopening an existing sharded directory adopts the
    committed band table (``n_shards`` is ignored).  All construction
    tuning arrives as one :class:`~repro.storage.options.StoreOptions`
    and is applied to every child store; reads take the matching
    :class:`~repro.storage.options.ReadOptions`.  ``None`` settings
    (``codec``, ``addr_order``) adopt what the parent manifest recorded,
    as :class:`~repro.storage.store.FragmentStore` does with its own.

    ``split_nnz`` / ``merge_nnz`` arm automatic re-banding: after each
    routed write, any shard whose child store's nnz exceeds
    ``split_nnz`` is split at its median stored address, and any
    adjacent pair whose combined nnz falls below ``merge_nnz`` is
    merged.  Both default to off; explicit :meth:`split` /
    :meth:`merge` always work.
    """

    def __init__(
        self,
        directory: str | Path,
        shape: Sequence[int],
        format_name: str | SparseFormat,
        *,
        n_shards: int = 4,
        split_nnz: int | None = None,
        merge_nnz: int | None = None,
        options: StoreOptions | None = None,
    ):
        opts = options or StoreOptions()
        self.directory = Path(directory)
        self.shape = tuple(int(m) for m in shape)
        if not fits_index_dtype(self.shape):
            raise ShapeError(
                "ShardedStore bands the uint64 linear address space; "
                f"shape {self.shape} overflows it — use BlockedDataset"
            )
        if opts.relative_coords:
            raise ShapeError(
                "ShardedStore shards the *global* address space; "
                "relative_coords is a per-child concern it does not support"
            )
        self.fmt = resolve_format(format_name)
        self.format_name = self.fmt.name
        persisted = peek_manifest(self._manifest_path())
        # ``codec=None`` adopts the committed codec, so a reopened store
        # keeps writing (and re-recording) the codec it was created with;
        # a fresh store records ``null`` and its children default to raw.
        if opts.codec is None and persisted.get("codec"):
            opts = opts.replace(codec=persisted["codec"])
        self.options = opts
        if int(n_shards) < 1:
            raise ValueError("n_shards must be >= 1")
        self.split_nnz = None if split_nnz is None else int(split_nnz)
        self.merge_nnz = None if merge_nnz is None else int(merge_nnz)
        if self.split_nnz is not None and self.split_nnz < 2:
            raise ValueError("split_nnz must be >= 2")
        # Bands are cut in the active order's address space, fixed for
        # the store's lifetime: the band table IS a partition of that
        # space, so changing the order would invalidate every cut.
        # ``None`` adopts the committed order (row-major for new and
        # legacy stores); an explicit order is honored on creation and
        # must match the manifest on reopen.
        committed = persisted.get("addr_order") or DEFAULT_ADDRESS_ORDER
        if opts.addr_order is None:
            resolved_order = committed
        else:
            resolved_order = validate_addr_order(opts.addr_order)
            if persisted and resolved_order != committed:
                raise ManifestError(
                    f"sharded store bands are cut in {committed!r} address "
                    f"space; cannot reopen with addr_order="
                    f"{resolved_order!r} (re-banding is not supported — "
                    "create a new store and copy the data)"
                )
        if not fits_addr_order(self.shape, resolved_order):
            raise ShapeError(
                f"shape {self.shape} does not fit addr_order "
                f"{resolved_order!r}; use 'row_major' or BlockedDataset"
            )
        self.addr_order = resolved_order
        self._cells = address_space_size(self.shape, resolved_order)
        self._rw = RWLock()
        self._state_lock = threading.RLock()
        self._generation = 0
        self._entries: list[ShardEntry] = []
        self._children: dict[str, FragmentStore] = {}
        self.directory.mkdir(parents=True, exist_ok=True)
        clean_temp_files(self.directory)
        if self._manifest_path().exists():
            self._load_parent_manifest()
        elif is_sharded_dir(self.directory):
            # Shard directories without a parent manifest: never band
            # over existing data — the sidecars can resurrect the table.
            raise ManifestError(
                f"missing parent manifest {self._manifest_path()} but "
                "shard directories exist; run `repro fsck --repair` to "
                "rebuild it from the range.json sidecars"
            )
        else:
            self._create_bands(int(n_shards))

    # ------------------------------------------------------------------
    # Parent manifest
    # ------------------------------------------------------------------

    def _manifest_path(self) -> Path:
        return self.directory / SHARD_MANIFEST_NAME

    @property
    def generation(self) -> int:
        """Parent-manifest generation: bumped by creation, split, merge
        and fsck repair — the operations that commit the band table."""
        return self._generation

    @property
    def shards(self) -> tuple[ShardEntry, ...]:
        """The committed band table, ascending by ``addr_lo``."""
        with self._state_lock:
            return tuple(self._entries)

    @property
    def nnz(self) -> int:
        """Stored points across shards, counted as
        :attr:`FragmentStore.nnz` counts them: packed points, duplicates
        included, unpacked appends not."""
        return sum(self._child(i).nnz for i in range(len(self.shards)))

    @property
    def fragments(self):
        """All committed fragments, shard-major in band order."""
        out = []
        for i in range(len(self.shards)):
            out.extend(self._child(i).fragments)
        return tuple(out)

    def _load_parent_manifest(self) -> None:
        path = self._manifest_path()
        try:
            doc = json.loads(path.read_text())
            bands = doc["bands"]
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ManifestError(
                f"corrupt parent manifest {path}: {exc}; "
                "run `repro fsck --repair` to rebuild it from the shards"
            ) from exc
        if tuple(doc.get("shape", self.shape)) != self.shape:
            raise ShapeError(
                f"parent manifest shape {doc.get('shape')} != {self.shape}"
            )
        self._generation = int(doc.get("generation", 0))
        entries = [ShardEntry.from_json(self.directory, b) for b in bands]
        entries.sort(key=lambda e: e.addr_lo)
        self._validate_bands(entries)
        self._entries = entries

    def _validate_bands(self, entries: list[ShardEntry]) -> None:
        if not entries:
            raise ManifestError("parent manifest lists no shards")
        if entries[0].addr_lo != 0 or entries[-1].addr_hi != self._cells:
            raise ManifestError(
                "shard bands do not cover the address space: "
                f"[{entries[0].addr_lo}, {entries[-1].addr_hi}) != "
                f"[0, {self._cells})"
            )
        for a, b in zip(entries, entries[1:]):
            if a.addr_hi != b.addr_lo:
                raise ManifestError(
                    f"shard bands not contiguous at {a.name}/{b.name}: "
                    f"{a.addr_hi} != {b.addr_lo}"
                )

    def _save_parent_manifest(self) -> None:
        """Commit the band table — the single commit point of re-banding."""
        with self._state_lock:
            self._generation += 1
            doc = {
                "version": SHARD_MANIFEST_VERSION,
                "generation": self._generation,
                "shape": list(self.shape),
                "format": self.format_name,
                "codec": self.options.codec,
                "bands": [e.to_json() for e in self._entries],
            }
            # Written only when it differs, so row-major parent
            # manifests stay byte-identical to pre-address-order ones.
            if self.addr_order != DEFAULT_ADDRESS_ORDER:
                doc["addr_order"] = self.addr_order
            write_bytes_atomic(
                self._manifest_path(),
                encode_manifest(doc),
                fsync=self.options.fsync,
            )

    def _make_shard_dir(self, lo: int, hi: int, epoch: int) -> ShardEntry:
        """Create one shard directory + its ``range.json`` breadcrumb.

        The directory is an invisible orphan until a parent-manifest
        commit references it; the sidecar is what ``fsck --repair``
        rebuilds a lost parent from.
        """
        name = _next_shard_name(
            self.directory, [e.name for e in self._entries]
        )
        path = self.directory / name
        path.mkdir(parents=True, exist_ok=True)
        entry = ShardEntry(name, path, int(lo), int(hi), int(epoch))
        _write_range_sidecar(
            entry, self.shape, self.addr_order, fsync=self.options.fsync
        )
        return entry

    def _create_bands(self, n_shards: int) -> None:
        n_shards = int(min(n_shards, self._cells))
        cuts = [
            (self._cells * i) // n_shards for i in range(n_shards + 1)
        ]
        # Degenerate tiny shapes can produce empty bands; drop them.
        pairs = [
            (lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo
        ]
        epoch = self._generation + 1
        self._entries = [self._make_shard_dir(lo, hi, epoch)
                         for lo, hi in pairs]
        self._save_parent_manifest()

    def _child_options(self) -> StoreOptions:
        """Child-store options pinned to the parent's address order, so
        every fragment and zone map in every shard lives in the band
        space."""
        if self.options.addr_order == self.addr_order:
            return self.options
        return self.options.replace(addr_order=self.addr_order)

    def _child(self, i: int) -> FragmentStore:
        """The i-th band's child store, opened lazily and cached."""
        entry = self._entries[i]
        store = self._children.get(entry.name)
        if store is None:
            store = FragmentStore(
                entry.path, self.shape, self.format_name,
                options=self._child_options(),
            )
            self._children[entry.name] = store
        return store

    # ------------------------------------------------------------------
    # WRITE: route parts to shards via the canonical sort
    # ------------------------------------------------------------------

    def _canonical(
        self, coords: np.ndarray, values: np.ndarray
    ) -> tuple[CanonicalCoords, np.ndarray]:
        """Validate one part and sort it in the store's address order
        (outside the write lock; :meth:`_route_canonical` cuts it)."""
        coords = as_index_array(coords)
        values = np.asarray(values)
        if coords.ndim != 2 or coords.shape[1] != len(self.shape):
            raise ShapeError("coords must be (n, d) matching the store shape")
        if values.shape[0] != coords.shape[0]:
            raise ShapeError("values must align with coords")
        canon = CanonicalCoords.from_coords(
            coords, self.shape, addr_order=self.addr_order
        )
        return canon, values

    def _route_canonical(
        self, canon: CanonicalCoords, values: np.ndarray
    ) -> list[tuple[int, CanonicalCoords, np.ndarray]]:
        """Split one part across bands; returns ``(shard_i, canon, values)``.

        One ``searchsorted`` of the band cuts into the part's sorted
        address run yields the per-band segments; the stable canonical
        sort keeps duplicate coordinates in input (newest-last) order
        within each segment, so routed writes preserve the single-store
        overwrite semantics exactly.
        """
        if canon.n == 0:
            return []
        addrs = canon.sorted_addresses
        vals = values[canon.sort_perm]
        bounds = np.asarray(
            [e.addr_lo for e in self._entries[1:]], dtype=np.uint64
        )
        seg = np.searchsorted(addrs, bounds, side="left")
        starts = np.concatenate(([0], seg))
        ends = np.concatenate((seg, [addrs.shape[0]]))
        out = []
        for i, (s, e) in enumerate(zip(starts, ends)):
            if e <= s:
                continue
            sub = CanonicalCoords.from_addresses(
                addrs[s:e], self.shape, is_sorted=True,
                addr_order=canon.addr_order,
            )
            out.append((i, sub, vals[s:e]))
        return out

    def write(self, coords: np.ndarray, values: np.ndarray) -> list[WriteReceipt]:
        """Route one part across shards; one fragment per touched band.

        Each child commit is atomic on its own manifest; the parent
        manifest (the band table) is not written.  Returns the per-shard
        receipts in band order.
        """
        canon, values = self._canonical(coords, values)
        receipts: list[WriteReceipt] = []
        with self._rw.write_locked():
            with span("store.shard.write", format=self.format_name) as sp:
                for i, sub, vals in self._route_canonical(canon, values):
                    receipts.append(self._child(i).write_canonical(sub, vals))
                    counter_add("store.shard.routed_parts")
                sp.add_nnz(canon.n)
            self._rebalance_locked()
        return receipts

    def write_many(
        self, parts: list[tuple[np.ndarray, np.ndarray]]
    ) -> list[list[WriteReceipt]]:
        """Route many parts, part by part (the crash-ordering contract).

        Parts commit in order; a crash leaves a *prefix* of fully routed
        parts plus at most one part that is present in some of the
        shards it straddles — each child internally consistent (its
        manifest is its commit point).
        """
        out = []
        for coords, values in parts:
            out.append(self.write(coords, values))
        return out

    def write_tensor(self, tensor: SparseTensor) -> list[WriteReceipt]:
        if tensor.shape != self.shape:
            raise ShapeError(
                f"tensor shape {tensor.shape} != store shape {self.shape}"
            )
        return self.write(tensor.coords, tensor.values)

    # ------------------------------------------------------------------
    # WAL: routed durable appends
    # ------------------------------------------------------------------

    def append(self, coords: np.ndarray, values: np.ndarray) -> int:
        """Durably append points, routed to each band's write-ahead log.

        Each child append is an independent WAL commit — an acknowledged
        ``append`` with ``wal_fsync`` survives any crash — and the parent
        manifest is not written.  Returns the number of points appended.
        """
        canon, values = self._canonical(coords, values)
        with self._rw.write_locked():
            with span("store.shard.append", format=self.format_name) as sp:
                for i, sub, vals in self._route_canonical(canon, values):
                    # Routing happens in the store order, but the WAL
                    # address space is always row-major (the pack path
                    # converts once at fragment-build time).  Duplicate
                    # coordinates share one address in either order, so
                    # the array order — and thus newest-wins — survives
                    # the translation.
                    addrs = sub.sorted_addresses
                    if sub.addr_order != DEFAULT_ADDRESS_ORDER:
                        addrs = linearize(
                            delinearize_order(
                                addrs, self.shape, sub.addr_order,
                                validate=False,
                            ),
                            self.shape, validate=False,
                        )
                    self._child(i)._append_addresses(addrs, vals)
                    counter_add("store.shard.routed_parts")
                sp.add_nnz(canon.n)
        return int(canon.n)

    def pack_wal(self) -> list[WriteReceipt]:
        """Drain every shard's WAL into fragments (band order).

        Each child pack is atomic on that child's manifest.  Returns the
        per-shard receipts for shards that held unpacked points.
        """
        with self._rw.write_locked():
            receipts = [
                self._child(i).pack_wal() for i in range(len(self._entries))
            ]
        return [r for r in receipts if r is not None]

    def wal_stats(self) -> dict[str, int]:
        """Aggregate WAL footprint across shards."""
        totals = {
            "segments": 0, "bytes": 0, "points": 0,
            "torn_tails_repaired": 0,
        }
        with self._rw.read_locked():
            for i in range(len(self._entries)):
                for key, val in self._child(i).wal_stats().items():
                    totals[key] = totals.get(key, 0) + val
        return totals

    def compression_stats(self) -> dict:
        """Aggregate per-codec bytes-on-disk across shards (same shape as
        :meth:`FragmentStore.compression_stats`)."""
        by_codec: dict[str, int] = {}
        fragments = file_nbytes = raw_nbytes = encoded_nbytes = 0
        with self._rw.read_locked():
            for i in range(len(self._entries)):
                child = self._child(i).compression_stats()
                fragments += child["fragments"]
                file_nbytes += child["file_nbytes"]
                raw_nbytes += child["raw_nbytes"]
                encoded_nbytes += child["encoded_nbytes"]
                for tag, nbytes in child["by_codec"].items():
                    by_codec[tag] = by_codec.get(tag, 0) + nbytes
        return {
            "codec": self.options.codec or "raw",
            "fragments": fragments,
            "file_nbytes": file_nbytes,
            "raw_nbytes": raw_nbytes,
            "encoded_nbytes": encoded_nbytes,
            "ratio": (raw_nbytes / encoded_nbytes) if encoded_nbytes else 1.0,
            "by_codec": {tag: by_codec[tag] for tag in sorted(by_codec)},
        }

    # ------------------------------------------------------------------
    # READ: routing prunes whole shards, each child plans its fragments
    # ------------------------------------------------------------------

    def explain(self, query) -> QueryPlan:
        """The *shard-level* plan of a read of ``query``: the bands
        routing would visit, as :class:`ShardEntry` rows in
        ``fragments`` (a band's range is its bounding box, so the bands
        routing skips count as ``pruned_bbox``).  Each child's own
        :meth:`FragmentStore.explain` shows its fragment plan."""
        if isinstance(query, Box):
            kind, keys = "box", QueryKeys(self.shape, box=query)
        else:
            kind, keys = "points", QueryKeys.for_points(self.shape, query)
        entries = self.shards
        visits = band_visits(keys, self.addr_order, entries)
        visit = [entries[i] for i, _s, _e in visits]
        return QueryPlan(
            kind=kind,
            total_fragments=len(entries),
            fragments=visit,
            pruned_bbox=len(entries) - len(visit),
            addr_order=self.addr_order,
        )

    def read_points(
        self,
        query_coords: np.ndarray,
        *,
        options: ReadOptions | None = None,
    ) -> ReadOutcome:
        """Point reads, routed: each query point belongs to exactly one
        band, so per-shard sub-queries merge back disjointly.

        Results are bit-identical to an equivalent single
        :class:`FragmentStore` holding the same writes: routing never
        reorders fragments within a shard, and bands are disjoint so no
        cross-shard duplicate can exist.
        """
        ropts = options or ReadOptions()
        keys = QueryKeys.for_points(self.shape, query_coords)
        with self._rw.read_locked():
            with span("store.shard.read_points",
                      format=self.format_name) as sp:
                outcome = route_points(
                    keys, self.addr_order, self._entries, self._child, ropts
                )
                sp.add_nnz(outcome.points_matched)
        return outcome

    def read_box(
        self,
        box: Box,
        *,
        options: ReadOptions | None = None,
    ) -> SparseTensor:
        """Box reads fanned across the bands the box's address intervals
        meet and merged by :func:`route_box` (bands are disjoint: no
        cross-shard dedup)."""
        ropts = options or ReadOptions()
        keys = QueryKeys(self.shape, box=box)
        with self._rw.read_locked():
            with span("store.shard.read_box", format=self.format_name):
                return route_box(
                    keys, self.addr_order, self._entries, self._child, ropts
                )

    # ------------------------------------------------------------------
    # Maintenance: parallel compaction, split, merge
    # ------------------------------------------------------------------

    def compact(
        self, *, strategy: str = "merge", max_workers: int | None = None
    ) -> list[WriteReceipt]:
        """Compact every shard, per-shard and in parallel.

        Each child compaction runs under its *own* RWLock on a worker
        thread (``max_workers`` defaults to the shard count) — shards
        share no state, so per-shard compaction is embarrassingly
        parallel.  Children holding ≤1 fragment no-op without a
        generation bump (so their caches and planner state survive).
        """
        with self._rw.write_locked():
            with span("store.shard.compact", format=self.format_name):
                idxs = [
                    i for i in range(len(self._entries))
                    if len(self._child(i).fragments) >= 2
                ]
                if not idxs:
                    return []
                workers = max_workers or len(idxs)
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    futures = [
                        pool.submit(self._child(i).compact, strategy=strategy)
                        for i in idxs
                    ]
                    receipts = [f.result() for f in futures]
                counter_add("store.shard.compactions", len(receipts))
        return receipts

    def migrate_all(self, format_name: str) -> list[FragmentInfo]:
        """Re-format every fragment of every shard to ``format_name``.

        Delegates to each child's
        :meth:`~repro.storage.store.FragmentStore.migrate_all`.  Like
        :meth:`compact`, each child commits
        independently — a crash mid-sweep leaves a mixed-format store
        that reads bit-identically.
        """
        out: list[FragmentInfo] = []
        with self._rw.write_locked():
            for i in range(len(self._entries)):
                out.extend(self._child(i).migrate_all(format_name))
        return out

    def _shard_merged_run(self, i: int):
        """One shard's full content as ``(canonical, values)``.

        Packs the shard's WAL tail first, then k-way merges the
        per-fragment canonical runs exactly like merge-based compaction,
        so newest-wins duplicate order is preserved; ``None`` for an
        empty shard.
        """
        from ..build.merge import SortedRun, merge_sorted_runs

        store = self._child(i)
        store.pack_wal()
        runs = []
        for j in range(len(store.fragments)):
            canon, values = store.fragment_canonical(j)
            runs.append(SortedRun(
                addresses=canon.sorted_addresses,
                values=values,
                positions=np.arange(canon.n, dtype=np.intp),
            ))
        if not runs:
            return None
        merged = merge_sorted_runs(runs, self.shape,
                                   addr_order=self.addr_order)
        # MergedPoints.values aligns with the canonical's *input* order;
        # the split slices sorted address ranges, so gather first.
        return merged.canonical, merged.values[merged.canonical.sort_perm]

    def split(self, index: int, *, at: int | None = None) -> None:
        """Split shard ``index`` into two bands at address ``at``.

        ``at`` defaults to the median *stored* address (so both halves
        hold data); it must fall strictly inside the shard's band.  New
        shard directories are written first (orphans until committed),
        the band-table swap is one atomic parent-manifest write, and the
        old directory is deleted best-effort afterwards — a kill at any
        point leaves a consistent committed layout.
        """
        with self._rw.write_locked():
            self._split_locked(index, at=at)

    def _split_locked(self, index: int, *, at: int | None = None) -> None:
        entry = self._entries[index]
        merged = self._shard_merged_run(index)
        if at is None:
            if merged is None or merged[0].n < 2:
                raise FragmentError(
                    f"shard {entry.name} holds fewer than 2 points; "
                    "nothing to split"
                )
            addrs = merged[0].sorted_addresses
            at = int(addrs[addrs.shape[0] // 2])
            if at == int(addrs[0]):
                at += 1  # all-lower-half duplicates: cut just above
        at = int(at)
        if not (entry.addr_lo < at < entry.addr_hi):
            raise ValueError(
                f"split point {at} outside shard band "
                f"[{entry.addr_lo}, {entry.addr_hi})"
            )
        epoch = self._generation + 1
        lo_entry = self._make_shard_dir(entry.addr_lo, at, epoch)
        hi_entry = self._make_shard_dir(at, entry.addr_hi, epoch)
        if merged is not None:
            canon, values = merged
            addrs = canon.sorted_addresses
            cut = int(np.searchsorted(addrs, np.uint64(at), side="left"))
            for dest, s, e in (
                (lo_entry, 0, cut), (hi_entry, cut, addrs.shape[0])
            ):
                if e <= s:
                    continue
                sub = CanonicalCoords.from_addresses(
                    addrs[s:e], self.shape, is_sorted=True,
                    addr_order=self.addr_order,
                )
                with FragmentStore(
                    dest.path, self.shape, self.format_name,
                    options=self._child_options(),
                ) as store:
                    store.write_canonical(sub, values[s:e])
        old = self._entries[index]
        with self._state_lock:
            self._entries[index:index + 1] = [lo_entry, hi_entry]
        self._close_child(old)
        # COMMIT POINT: one atomic rename swaps the band table.
        self._save_parent_manifest()
        counter_add("store.shard.splits")
        self._remove_shard_dir(old.path)

    def merge(self, index: int) -> None:
        """Merge shard ``index`` with its right-hand neighbour.

        Same protocol as :meth:`split`: the merged directory is written
        first, the parent manifest commits the new band table
        atomically, the old directories are removed best-effort.
        """
        with self._rw.write_locked():
            self._merge_locked(index)

    def _merge_locked(self, index: int) -> None:
        if index < 0 or index + 1 >= len(self._entries):
            raise ValueError(
                f"merge needs shards {index} and {index + 1}; "
                f"store has {len(self._entries)}"
            )
        a, b = self._entries[index], self._entries[index + 1]
        epoch = self._generation + 1
        dest = self._make_shard_dir(a.addr_lo, b.addr_hi, epoch)
        with FragmentStore(
            dest.path, self.shape, self.format_name,
            options=self._child_options(),
        ) as store:
            for i in (index, index + 1):
                src = self._child(i)
                src.pack_wal()  # the unpacked tail moves with the band
                for j in range(len(src.fragments)):
                    store.write_canonical(*src.fragment_canonical(j))
        with self._state_lock:
            self._entries[index:index + 2] = [dest]
        self._close_child(a)
        self._close_child(b)
        # COMMIT POINT: one atomic rename swaps the band table.
        self._save_parent_manifest()
        counter_add("store.shard.merges")
        self._remove_shard_dir(a.path)
        self._remove_shard_dir(b.path)

    def _close_child(self, entry: ShardEntry) -> None:
        """Close and forget a band's cached child store (if opened)."""
        with self._state_lock:
            store = self._children.pop(entry.name, None)
        if store is not None:
            store.close()

    def _rebalance_locked(self) -> None:
        """Apply the configured nnz thresholds to the child stores' nnz
        (one pass, writer held)."""
        if self.split_nnz is not None:
            i = 0
            while i < len(self._entries):
                e = self._entries[i]
                if (self._child(i).nnz > self.split_nnz
                        and e.addr_hi - e.addr_lo > 1):
                    try:
                        self._split_locked(i)
                    except (FragmentError, ValueError):
                        i += 1
                    continue
                i += 1
        if self.merge_nnz is not None:
            i = 0
            while i + 1 < len(self._entries):
                combined = self._child(i).nnz + self._child(i + 1).nnz
                if combined < self.merge_nnz:
                    self._merge_locked(i)
                    continue
                i += 1

    @staticmethod
    def _remove_shard_dir(path: Path) -> None:
        """Best-effort removal of a decommissioned shard directory.

        Failure is harmless: the directory is no longer referenced by
        the committed parent manifest, and ``fsck --repair`` quarantines
        unreferenced shard directories.
        """
        import shutil

        try:
            shutil.rmtree(path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # fsck
    # ------------------------------------------------------------------

    def fsck(self, *, repair: bool = False) -> FsckReport:
        """Verify (and with ``repair=True`` restore) the whole tree.

        Delegates to :func:`fsck_sharded`.  A repair closes the opened
        children first; the parent manifest is reloaded after it and the
        children reopen on next use.
        """
        with self._rw.write_locked():
            if repair:
                # Repair may rewrite any child's files: close the children
                # (open WAL segments, manifest logs) first, reopen them
                # lazily.
                with self._state_lock:
                    children = list(self._children.values())
                    self._children.clear()
                for child in children:
                    child.close()
            report = fsck_sharded(self.directory, repair=repair)
            if repair:
                self._load_parent_manifest()
        return report

    def stats(self) -> list[dict]:
        """Per-shard summary rows (the ``repro stats --shards`` table)."""
        rows = []
        for i, e in enumerate(self.shards):
            store = self._child(i)
            rows.append({
                "shard": e.name,
                "addr_lo": e.addr_lo,
                "addr_hi": e.addr_hi,
                "nnz": store.nnz,
                "fragments": len(store.fragments),
                "nbytes": store.total_file_nbytes,
                "generation": store.generation,
            })
        return rows

    # ------------------------------------------------------------------
    # Snapshots, GC, lifecycle
    # ------------------------------------------------------------------

    def snapshot(self, generation: int | None = None) -> "ShardedSnapshot":
        """A read-only view of the current state across every shard.

        Child snapshots are taken in band order under the parent read
        lock, so the view is consistent against concurrent re-banding.
        Child manifest generations advance independently of the parent
        generation, so time-travel by *parent* generation is undefined —
        only current-state snapshots (``generation=None``) exist here;
        take per-shard snapshots directly for child-level time travel.
        """
        if generation is not None:
            raise ValueError(
                "ShardedStore snapshots are current-state only; child "
                "generations advance independently of the parent "
                "(snapshot individual shards for generation time-travel)"
            )
        children: list = []
        try:
            with self._rw.read_locked():
                entries = tuple(self._entries)
                for i in range(len(entries)):
                    children.append(self._child(i).snapshot())
        except BaseException:
            for snap in children:
                snap.close()
            raise
        counter_add("store.shard.snapshots")
        return ShardedSnapshot(
            self.shape, entries, children, addr_order=self.addr_order
        )

    def gc(self, *, keep_generations: int | None = None) -> int:
        """Run retention GC in every shard; returns total files deleted."""
        deleted = 0
        with self._rw.write_locked():
            for i in range(len(self._entries)):
                deleted += self._child(i).gc(
                    keep_generations=keep_generations
                )
        return deleted

    def close(self) -> None:
        """Close every opened child.  Idempotent."""
        with self._state_lock:
            children = list(self._children.values())
        for child in children:
            child.close()

    def __enter__(self) -> "ShardedStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class ShardedSnapshot:
    """A pinned, read-only view across one :class:`ShardedStore`.

    Composes one :class:`~repro.storage.store.StoreSnapshot` per band,
    captured together under the parent read lock.  Bands are disjoint,
    so routed point reads and band-merged box reads are bit-identical
    to the single-store snapshot semantics.  Closing
    releases every child pin; snapshots are context managers and also
    release on garbage collection.
    """

    def __init__(
        self, shape, entries, children,
        addr_order: str = DEFAULT_ADDRESS_ORDER,
    ) -> None:
        self.shape = tuple(shape)
        self._entries = tuple(entries)
        self._children = tuple(children)
        self.addr_order = addr_order

    @property
    def nnz(self) -> int:
        return sum(c.nnz for c in self._children)

    @property
    def fragments(self):
        out = []
        for child in self._children:
            out.extend(child.fragments)
        return tuple(out)

    @property
    def closed(self) -> bool:
        return any(c.closed for c in self._children)

    def close(self) -> None:
        for child in self._children:
            child.close()

    def __enter__(self) -> "ShardedSnapshot":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def read_points(
        self, query_coords: np.ndarray, *, options: ReadOptions | None = None
    ) -> ReadOutcome:
        """Routed point reads against the pinned per-band views."""
        return route_points(
            QueryKeys.for_points(self.shape, query_coords), self.addr_order,
            self._entries, self._children.__getitem__,
            options or ReadOptions(),
        )

    def read_box(
        self, box: Box, *, options: ReadOptions | None = None
    ) -> SparseTensor:
        """Box reads fanned across the pinned per-band views."""
        return route_box(
            QueryKeys(self.shape, box=box), self.addr_order, self._entries,
            self._children.__getitem__, options or ReadOptions(),
        )


def band_visits(
    keys: QueryKeys, order: str, entries: Sequence[ShardEntry]
) -> list[tuple[int, int, int]]:
    """The bands a read of ``keys`` reaches, as ``(band, s, e)`` — the
    whole shard-level prune.

    Bands partition ``order``'s address space.  A point query's sorted
    keys are cut at the band edges with one ``searchsorted``; ``[s, e)``
    is a band's slice of them, and a band with no key is not reached.  A
    box reaches the bands that meet one of its address intervals
    (``s == e == 0``): one ``searchsorted`` finds, per band, the first
    interval ending at or after the band's low edge, and the band is
    reached when that interval starts below the next band's low edge.
    """
    lows = np.asarray([e.addr_lo for e in entries], dtype=np.uint64)
    if keys.box is not None:
        iv = keys.intervals(order)
        first = iv.hi.searchsorted(lows)
        reached = first < len(iv)
        inner = np.flatnonzero(reached[:-1])
        reached[inner] = iv.lo[first[inner]] < lows[inner + 1]
        return [(int(i), 0, 0) for i in np.flatnonzero(reached)]
    sorted_keys, _perm = keys.keys(order)
    cuts = [0, *sorted_keys.searchsorted(lows[1:]), sorted_keys.shape[0]]
    return [
        (i, int(s), int(e))
        for i, (s, e) in enumerate(zip(cuts, cuts[1:]))
        if e > s
    ]


def _routed(
    keys: QueryKeys, order: str, entries: Sequence[ShardEntry]
) -> list[tuple[int, int, int]]:
    """:func:`band_visits` for a read, counted."""
    visits = band_visits(keys, order, entries)
    counter_add("store.shard.visited", len(visits))
    counter_add("store.shard.pruned", len(entries) - len(visits))
    return visits


def route_points(
    keys: QueryKeys,
    order: str,
    entries: Sequence[ShardEntry],
    child: Callable[[int], Any],
    ropts: ReadOptions,
) -> ReadOutcome:
    """Point reads over disjoint address bands — the one router behind
    :class:`ShardedStore` and :class:`ShardedSnapshot`.

    Each band :func:`band_visits` reaches has ``child(i)`` (a store or a
    pinned snapshot) read its slice of the query's sorted keys, and the
    hits scatter back to query rows through the permutation.  Bands are
    disjoint, so no merge is needed.
    """
    q = keys.points.shape[0]
    found = np.zeros(q, dtype=bool)
    out_values: np.ndarray | None = None
    visited = 0
    visits = _routed(keys, order, entries)
    perm = keys.keys(order)[1]
    for i, s, e in visits:
        outcome = child(i)._read_point_keys(keys.band(order, s, e), ropts)
        visited += outcome.fragments_visited
        idx = perm[s:e][outcome.found]
        found[idx] = True
        if outcome.values.size:
            if out_values is None:
                out_values = np.zeros(q, dtype=outcome.values.dtype)
            out_values[idx] = outcome.values
    if out_values is None:
        out_values = np.zeros(q, dtype=float)
    return ReadOutcome(
        found=found,
        values=out_values[found],
        fragments_visited=visited,
        points_matched=int(found.sum()),
    )


def route_box(
    keys: QueryKeys,
    order: str,
    entries: Sequence[ShardEntry],
    child: Callable[[int], Any],
    ropts: ReadOptions,
) -> SparseTensor:
    """Box reads over disjoint address bands — the one band merge behind
    :class:`ShardedStore` and :class:`ShardedSnapshot`.

    Each band :func:`band_visits` reaches has ``child(i)`` (a store or a
    pinned snapshot) plan and probe the box with the shared ``keys``,
    and every band's hits join one :func:`~repro.storage.readpath.
    merge_box_hits`.  Bands are disjoint, so no address repeats across
    them, and the merge orders the result by row-major address whatever
    order the bands were cut in (ALTO bands interleave in row-major
    space).
    """
    parts = []
    for i, _s, _e in _routed(keys, order, entries):
        parts.extend(child(i)._box_hits(keys, ropts))
    return merge_box_hits(keys.shape, parts)


def is_sharded_dir(directory: str | Path) -> bool:
    """Whether ``directory`` holds a sharded store (parent manifest or,
    failing that, any shard directory with a ``range.json`` breadcrumb —
    so auto-detection survives a lost parent manifest)."""
    directory = Path(directory)
    if (directory / SHARD_MANIFEST_NAME).exists():
        return True
    return any(
        (p / SHARD_RANGE_NAME).exists()
        for p in directory.glob(f"{_SHARD_DIR_PREFIX}*")
        if p.is_dir()
    )


def _read_range_sidecar(path: Path) -> dict | None:
    try:
        doc = json.loads((path / SHARD_RANGE_NAME).read_text())
        return {
            "addr_lo": int(doc["addr_lo"]),
            "addr_hi": int(doc["addr_hi"]),
            "epoch": int(doc.get("epoch", 0)),
            "shape": doc.get("shape"),
            "addr_order": doc.get("addr_order"),
        }
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
        return None


def _next_shard_name(directory: Path, taken) -> str:
    """One past the highest ``shard-NNNN`` number on disk or in
    ``taken`` (names referenced but possibly absent from disk)."""
    used = [-1]
    for name in [*(p.name for p in directory.glob(f"{_SHARD_DIR_PREFIX}*")),
                 *taken]:
        try:
            used.append(int(name[len(_SHARD_DIR_PREFIX):]))
        except ValueError:
            continue
    return f"{_SHARD_DIR_PREFIX}{max(used) + 1:04d}"


def _write_range_sidecar(
    entry: ShardEntry, shape, addr_order: str | None, *, fsync: bool = False
) -> None:
    """Commit ``entry``'s ``range.json`` breadcrumb (the store's shape and
    a non-default address order ride along for parent recovery)."""
    sidecar = {
        "addr_lo": int(entry.addr_lo),
        "addr_hi": int(entry.addr_hi),
        "epoch": int(entry.epoch),
        "shape": None if shape is None else [int(m) for m in shape],
    }
    if addr_order and addr_order != DEFAULT_ADDRESS_ORDER:
        sidecar["addr_order"] = addr_order
    write_bytes_atomic(
        entry.path / SHARD_RANGE_NAME, encode_manifest(sidecar), fsync=fsync
    )


def _flag_extra_shard(
    directory: Path, name: str, detail: str, report: FsckReport,
    *, repair: bool,
) -> None:
    """Report a shard directory the band table does not use; under
    ``repair`` move it into ``.quarantine/`` — kept, never deleted."""
    issue = FsckIssue("extra", name, detail)
    if repair:
        qdir = directory / QUARANTINE_DIR
        qdir.mkdir(parents=True, exist_ok=True)
        target = qdir / name
        n = 0
        while target.exists():
            n += 1
            target = qdir / f"{name}.{n}"
        (directory / name).rename(target)
        issue.repaired = "quarantined"
    report.issues.append(issue)


def _rebuild_parent(
    directory: Path, report: FsckReport, *, repair: bool,
    cells: int | None = None,
) -> list[dict]:
    """Reconstruct a band table from the shards' ``range.json`` sidecars.

    Greedy sweep over candidates sorted by ``(addr_lo, epoch)``: at each
    cursor position the candidate starting exactly there with the
    *lowest epoch* wins — the oldest consistent configuration, which is
    the last one a parent manifest actually committed (a half-finished
    split/merge writes its new dirs with a *newer* epoch and dies before
    the commit, so its orphans lose the tie and are quarantined).

    Coverage gaps — a creation or re-banding run killed before any data
    landed in the missing band — are filled with synthetic *empty* bands
    (their directories are materialized by the missing-dir repair pass),
    so the rebuilt table always covers ``[0, cells)`` and the store
    reopens; ``cells`` bounds the trailing fill when the shape is known.
    """
    candidates = []
    for p in sorted(directory.glob(f"{_SHARD_DIR_PREFIX}*")):
        if not p.is_dir():
            continue
        rng = _read_range_sidecar(p)
        if rng is None:
            report.issues.append(FsckIssue(
                "extra", p.name, "shard directory without range sidecar"
            ))
            continue
        candidates.append(
            (rng["addr_lo"], rng["epoch"], rng["addr_hi"], p.name)
        )
    candidates.sort()
    taken = {name for _, _, _, name in candidates}
    chosen: list[tuple[int, int, int, str]] = []
    cursor = 0

    def fill_gap(lo: int, hi: int) -> None:
        issue = FsckIssue(
            "manifest", SHARD_MANIFEST_NAME,
            f"coverage gap: [{lo}, {hi}) has no shard",
        )
        if repair:
            name = _next_shard_name(directory, taken)
            taken.add(name)
            chosen.append((lo, 0, hi, name))
            issue.repaired = "filled with empty shard"
        report.issues.append(issue)

    for lo, epoch, hi, name in candidates:
        if lo == cursor:
            chosen.append((lo, epoch, hi, name))
            cursor = hi
        elif lo < cursor:
            _flag_extra_shard(
                directory, name,
                f"orphan shard band [{lo}, {hi}) overlaps committed coverage",
                report, repair=repair,
            )
        else:
            fill_gap(cursor, lo)
            chosen.append((lo, epoch, hi, name))
            cursor = hi
    if cells is not None and cursor < cells:
        fill_gap(cursor, cells)
        cursor = cells
    return [
        ShardEntry(name, directory / name, lo, hi, epoch).to_json()
        for lo, epoch, hi, name in sorted(chosen)
    ]


def fsck_sharded(
    directory: str | Path, *, repair: bool = False
) -> FsckReport:
    """Verify a sharded store: parent manifest + every child store.

    Walks the parent's band table, runs the fragment-level
    :func:`~repro.storage.durability.fsck` inside every referenced shard
    (child issues are reported with a ``<shard>/`` prefix), flags
    unreferenced shard directories and stale parent temp files, and —
    with ``repair=True`` — quarantines orphan shard directories, repairs
    every child, recreates referenced-but-missing shard directories as
    empty shards, and rebuilds a lost or corrupt parent manifest from
    the shards' ``range.json`` sidecars.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ManifestError(f"not a store directory: {directory}")
    manifest_path = directory / SHARD_MANIFEST_NAME
    report = FsckReport(directory=directory, generation=0, checked=0)

    doc: dict | None = None
    if manifest_path.exists():
        try:
            doc = json.loads(manifest_path.read_text())
            report.generation = int(doc.get("generation", 0))
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            doc = None
            report.issues.append(FsckIssue(
                "manifest", SHARD_MANIFEST_NAME, f"unreadable: {exc}"
            ))
    else:
        report.issues.append(FsckIssue(
            "manifest", SHARD_MANIFEST_NAME, "missing"
        ))

    bands = list(doc.get("bands", [])) if doc else []
    if doc is None:
        # Lost/corrupt parent: recover the store-level metadata first —
        # from any child manifest (all children share shape/format/codec
        # with the parent), falling back to a sidecar's shape (a killed
        # *creation* leaves sidecars but no child manifests yet).
        meta = {}
        for p in sorted(directory.glob(f"{_SHARD_DIR_PREFIX}*")):
            if not p.is_dir():
                continue
            try:
                child_doc = json.loads((p / "manifest.json").read_text())
            except (OSError, json.JSONDecodeError):
                continue
            meta = {
                "shape": child_doc.get("shape"),
                "format": child_doc.get("format"),
                "codec": child_doc.get("codec"),
            }
            if child_doc.get("addr_order"):
                meta["addr_order"] = child_doc["addr_order"]
            break
        if not meta.get("shape"):
            for p in sorted(directory.glob(f"{_SHARD_DIR_PREFIX}*")):
                rng = _read_range_sidecar(p) if p.is_dir() else None
                if rng and rng.get("shape"):
                    meta["shape"] = rng["shape"]
                    if rng.get("addr_order"):
                        meta["addr_order"] = rng["addr_order"]
                    break
        elif not meta.get("addr_order"):
            # Child manifests of row-major stores omit the key; a
            # sidecar breadcrumb may still name a non-default order.
            for p in sorted(directory.glob(f"{_SHARD_DIR_PREFIX}*")):
                rng = _read_range_sidecar(p) if p.is_dir() else None
                if rng and rng.get("addr_order"):
                    meta["addr_order"] = rng["addr_order"]
                    break
        order = str(meta.get("addr_order") or DEFAULT_ADDRESS_ORDER)
        cells = (
            address_space_size(tuple(meta["shape"]), order)
            if meta.get("shape") else None
        )
        # Then reconstruct the band table from the sidecars.
        bands = _rebuild_parent(directory, report, repair=repair,
                                cells=cells)
    else:
        meta = {
            k: doc[k]
            for k in ("version", "shape", "format", "codec", "addr_order")
            if k in doc
        }

    referenced = set()
    surviving_bands = []
    for band in bands:
        name = str(band.get("dir", "?"))
        referenced.add(name)
        child_dir = directory / name
        if not child_dir.is_dir():
            issue = FsckIssue(
                "missing", name,
                "shard listed in parent manifest, no directory",
            )
            if repair:
                # Recreate the band as an empty shard: the data is gone,
                # but the band table must keep covering the address
                # space for the store to stay openable.
                child_dir.mkdir(parents=True, exist_ok=True)
                _write_range_sidecar(
                    ShardEntry(
                        name, child_dir, int(band.get("addr_lo", 0)),
                        int(band.get("addr_hi", 0)), int(band.get("epoch", 0)),
                    ),
                    meta.get("shape"), meta.get("addr_order"),
                )
                # Materialize an empty child manifest so the recreated
                # shard verifies clean (the data itself is gone).
                try:
                    FragmentStore(
                        child_dir, tuple(meta["shape"]), meta["format"],
                        options=StoreOptions(
                            codec=meta.get("codec"),
                            addr_order=meta.get("addr_order"),
                        ),
                    )
                except (KeyError, TypeError, ValueError):
                    # Store metadata unrecoverable: let the fragment-level
                    # fsck commit a bare (meta-less) empty manifest.
                    _fsck_store(child_dir, repair=True)
                issue.repaired = "recreated empty"
                surviving_bands.append(band)
            report.issues.append(issue)
            continue
        child = _fsck_store(child_dir, repair=repair)
        report.checked += child.checked
        report.wal_segments += child.wal_segments
        report.wal_bytes += child.wal_bytes
        report.ok.extend(f"{name}/{ok}" for ok in child.ok)
        for issue in child.issues:
            report.issues.append(FsckIssue(
                issue.kind, f"{name}/{issue.name}", issue.detail,
                issue.repaired,
            ))
        surviving_bands.append(band)

    # Shard directories the parent manifest does not reference (killed
    # split/merge leaves these behind when the old layout stayed
    # committed) — quarantined under repair, never silently deleted.
    if doc is not None:
        for p in sorted(directory.glob(f"{_SHARD_DIR_PREFIX}*")):
            if p.is_dir() and p.name not in referenced:
                _flag_extra_shard(
                    directory, p.name,
                    "shard directory not referenced by the parent manifest",
                    report, repair=repair,
                )

    for tmp in sorted(directory.glob(f"*{TMP_SUFFIX}")):
        issue = FsckIssue("tmp", tmp.name, "stale temporary file")
        if repair:
            try:
                tmp.unlink()
                issue.repaired = "deleted"
            except OSError as exc:  # pragma: no cover
                issue.detail += f" (unlink failed: {exc})"
        report.issues.append(issue)

    if repair:
        rebuilt = dict(meta)
        rebuilt.setdefault("version", SHARD_MANIFEST_VERSION)
        rebuilt["generation"] = report.generation + 1
        # The band keys only: older parents also carried per-shard
        # stats, which nothing reads.
        rebuilt["bands"] = [
            {k: b[k] for k in ("dir", "addr_lo", "addr_hi", "epoch") if k in b}
            for b in surviving_bands
        ]
        write_bytes_atomic(
            manifest_path, encode_manifest(rebuilt), fsync=True
        )
        report.generation = rebuilt["generation"]
        report.repaired = True
    counter_add("store.shard.fsck_runs")
    return report
