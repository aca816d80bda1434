"""Address bands: one fragment store whose manifest cuts its address
space into contiguous ``[addr_lo, addr_hi)`` ranges, ALTO's partition of
work along the linearized order (PAPERS.md).

Bands decide two things only: where new points are cut (every write,
``write_many``, ``write_canonical`` and ``pack_wal`` cuts its sorted
canonical at the edges and commits all the pieces in one manifest
commit, so no fragment spans an edge), and which fragments compact
together (per band; :meth:`ShardedStore.split` and :meth:`~ShardedStore.
merge` edit the edges and rewrite the touched bands in one commit).
Reads are the store's own: zone maps prune the bands a query misses, and
newest-wins ranks fragments by commit order.  Fragment headers record
their band (``extra["band"]``) and a rewrite its range
(``extra["compacted"]``) and the routed commits whose last file it
retired (``extra["vouches"]``), so a rebuild recovers the table
(``docs/SHARDED_STORE.md``).  A directory in the earlier layout, a
``shards.json`` band table over one child store per band, converts in
place on open, in one commit.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..build.canonical import CanonicalCoords
from ..core.boundary import Box
from ..core.dtypes import fits_index_dtype
from ..core.errors import FragmentError, ManifestError, ShapeError
from ..core.linearize import (
    DEFAULT_ADDRESS_ORDER,
    address_space_size,
    validate_addr_order,
)
from ..core.tensor import SparseTensor
from ..formats.base import SparseFormat
from ..obs import counter_add, span
from ..readapi import ReadOutcome
from .durability import (
    LEGACY_SHARDS_NAME,
    MANIFEST_LOG_NAME,
    MANIFEST_NAME,
    peek_manifest,
    remove_file,
)
from .options import ReadOptions, StoreOptions
from .readpath import map_fragments_ordered
from .store import FragmentStore, WriteReceipt, _PackedPart


@dataclass(frozen=True)
class ShardEntry:
    """One row of the band table: band ``name`` owns ``[addr_lo,
    addr_hi)`` of the store's address order."""

    name: str
    addr_lo: int
    addr_hi: int


class ShardedStore(FragmentStore):
    """A fragment store cut into address bands.

    ``n_shards`` cuts the address space into equal bands on creation; a
    reopen adopts the committed table (``n_shards`` is ignored).
    ``split_nnz`` / ``merge_nnz`` arm automatic re-banding after each
    routed write: a band holding more than ``split_nnz`` points splits at
    its median stored address, and adjacent bands holding fewer than
    ``merge_nnz`` together merge.  Both default to off; :meth:`split` and
    :meth:`merge` always work.
    """

    _BANDED = True

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
        directory = Path(directory)
        shape = tuple(int(m) for m in shape)
        if not fits_index_dtype(shape):
            raise ShapeError(
                "ShardedStore bands the uint64 linear address space; "
                f"shape {shape} overflows it — use BlockedDataset"
            )
        if opts.relative_coords:
            raise ShapeError(
                "ShardedStore bands the *global* address space; it does "
                "not support relative_coords"
            )
        if int(n_shards) < 1:
            raise ValueError("n_shards must be >= 1")
        self.split_nnz = None if split_nnz is None else int(split_nnz)
        self.merge_nnz = None if merge_nnz is None else int(merge_nnz)
        if self.split_nnz is not None and self.split_nnz < 2:
            raise ValueError("split_nnz must be >= 2")
        legacy = _read_legacy(directory)
        persisted = legacy or peek_manifest(directory / MANIFEST_NAME)
        # The edges partition one address order's space, so the order is
        # fixed for the store's life: ``None`` adopts the committed one.
        committed = persisted.get("addr_order") or DEFAULT_ADDRESS_ORDER
        if opts.addr_order is None:
            opts = opts.replace(addr_order=committed)
        elif persisted and validate_addr_order(opts.addr_order) != committed:
            raise ManifestError(
                f"{directory}'s bands are cut in {committed!r} address "
                f"space; it cannot reopen with addr_order="
                f"{opts.addr_order!r}"
            )
        if opts.codec is None and persisted.get("codec"):
            opts = opts.replace(codec=persisted["codec"])
        self._n_shards = int(n_shards)
        self._legacy = None
        if legacy and not (directory / MANIFEST_NAME).exists():
            self._legacy = _legacy_runs(directory, legacy, shape,
                                        format_name, opts)
        super().__init__(directory, shape, format_name, options=opts)
        if legacy:
            _remove_legacy(directory)

    def _create(self) -> None:
        """One checkpoint: equal-width bands, or a legacy layout's table
        with each band's merged points."""
        if self._legacy is not None:
            self._edges, runs = self._legacy
        else:
            n = min(self._n_shards, self._cells)
            self._edges = [self._cells * i // n for i in range(1, n)]
            runs = []
        parts = [p for canon, values in runs
                 for p in self._package_cut(canon, values)]
        self._fragments = [r.info for r in self._write_parts_locked(parts)]
        self._save_manifest(checkpoint=True, written=self._fragments)

    @property
    def _cells(self) -> int:
        return address_space_size(self.shape, self.addr_order)

    @property
    def shards(self) -> tuple[ShardEntry, ...]:
        """The committed band table, ascending by ``addr_lo``."""
        with self._state_lock:
            bounds = [0, *self._edges, self._cells]
        return tuple(
            ShardEntry(f"band-{i:04d}", lo, hi)
            for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
        )

    def _band_fragments(self) -> list[list]:
        """Each band's live fragments, in list (commit) order.  A
        fragment lies in the band of its lowest address."""
        with self._state_lock:
            if any(f.zone is None and f.nnz for f in self._fragments):
                self.backfill_zone_maps()
            frags = list(self._fragments)
            edges = np.asarray(self._edges, dtype=np.uint64)
        lows = np.asarray(
            [f.zone.addr_min if f.zone else 0 for f in frags], dtype=np.uint64
        )
        groups: list[list] = [[] for _ in range(edges.size + 1)]
        for f, band in zip(frags, np.searchsorted(edges, lows, side="right")):
            groups[band].append(f)
        return groups

    # ------------------------------------------------------------------
    # WRITE: one commit per routed mutation
    # ------------------------------------------------------------------

    def _package_cut(
        self,
        canon: CanonicalCoords,
        values: np.ndarray,
        *,
        bbox: Box | None = None,
    ) -> list[_PackedPart]:
        """Cut one part at the band edges with one ``searchsorted`` over
        its sorted addresses; one fragment per band it touches, marked
        with that band.  The stable canonical sort keeps duplicates in
        input (newest-last) order within each piece."""
        if canon.addr_order != self.addr_order:
            canon = canon.with_order(self.addr_order)
        addrs = canon.sorted_addresses
        vals = np.asarray(values)[canon.sort_perm]
        bounds = [0, *self._edges, self._cells]
        cuts = [0, *np.searchsorted(
            addrs, np.asarray(self._edges, dtype=np.uint64)
        ), addrs.shape[0]]
        parts = []
        for lo, hi, s, e in zip(bounds, bounds[1:], cuts, cuts[1:]):
            if e > s:
                part = self._package(CanonicalCoords.from_addresses(
                    addrs[s:e], self.shape, is_sorted=True,
                    addr_order=self.addr_order,
                ), vals[s:e])
                part.extra["band"] = [lo, hi]
                parts.append(part)
        counter_add("store.shard.routed_parts", len(parts))
        return parts

    def write(
        self, coords: np.ndarray, values: np.ndarray
    ) -> list[WriteReceipt]:
        """Write one part as one fragment per band it touches, committed
        together; the receipts in band order."""
        with self._rw.write_locked():
            parts = self._package_coords(coords, values)
            receipts = self._write_locked(parts) if parts else []
            self._rebalance_locked()
        return receipts

    def write_canonical(
        self,
        canon: CanonicalCoords,
        values: np.ndarray,
        *,
        bbox: Box | None = None,
    ) -> list[WriteReceipt]:
        """:meth:`write` of a canonical intermediate."""
        with self._rw.write_locked():
            parts = self._package_cut(canon, values)
            return self._write_locked(parts) if parts else []

    def write_many(
        self,
        parts: list[tuple[np.ndarray, np.ndarray]],
        *,
        max_workers: int | None = None,
    ) -> list[list[WriteReceipt]]:
        """Write many parts, every band piece of every part committed by
        one manifest commit; per part, its receipts in band order."""
        with self._rw.write_locked():
            packed = self._package_parts(parts, max_workers)
            flat = [piece for pieces in packed for piece in pieces]
            receipts = iter(self._write_locked(flat) if flat else [])
            self._rebalance_locked()
        return [[next(receipts) for _ in pieces] for pieces in packed]

    def pack_wal(self) -> list[WriteReceipt]:
        """Drain the WAL, one fragment per band it touches, in one
        commit; ``[]`` when the WAL holds no points."""
        with self._rw.write_locked():
            return self._pack_wal_locked()

    def read_points(
        self, query_coords: np.ndarray, *, options: ReadOptions | None = None
    ) -> ReadOutcome:
        """The store's point READ: the zone maps prune the bands the
        query misses."""
        return super().read_points(query_coords, options=options)

    def read_box(
        self, box: Box, *, options: ReadOptions | None = None
    ) -> SparseTensor:
        """The store's box READ: the zone maps prune the bands the box's
        address intervals miss."""
        return super().read_box(box, options=options)

    def set_addr_order(self, addr_order: str) -> int:
        """Rejected with more than one band: the edges are cut in the
        store's address order."""
        if self._edges:
            raise ValueError(
                f"a {len(self._edges) + 1}-band store's edges are cut in "
                f"{self.addr_order!r} address space; re-banding into "
                "another order is not supported"
            )
        return super().set_addr_order(addr_order)

    # ------------------------------------------------------------------
    # Maintenance: compaction, split, merge
    # ------------------------------------------------------------------

    def compact(
        self, *, strategy: str = "merge", max_workers: int | None = None
    ) -> list[WriteReceipt]:
        """Merge each band holding two or more fragments into one, all
        outputs committed by one checkpoint; bands are merged and packaged
        on the shared pool (at most ``max_workers`` at a time, default
        one per band).  Returns the receipts in band order, ``[]`` when no
        band needs it."""
        if strategy not in ("merge", "decode"):
            raise ValueError(
                f"strategy must be 'merge' or 'decode', got {strategy!r}"
            )
        with self._rw.write_locked():
            with span("store.shard.compact", format=self.format_name):
                bands = [
                    (entry, group) for entry, group
                    in zip(self.shards, self._band_fragments())
                    if len(group) >= 2
                ]
                if not bands:
                    return []
                parts, merged_from = [], []
                for result, exc in map_fragments_ordered(
                    bands,
                    lambda band: self._range_parts(
                        band[0].addr_lo, band[0].addr_hi, band[1],
                        strategy=strategy,
                    ),
                    max_workers=max_workers or len(bands),
                ):
                    if exc is not None:
                        raise exc
                    parts += result[0]
                    merged_from += result[1]
                receipts = self._rewrite_locked(
                    parts, merged_from, checkpoint=True,
                    group=[f for _, group in bands for f in group],
                )
        counter_add("store.shard.compactions", len(receipts))
        return receipts

    def _range_parts(self, lo, hi, group, merged=None, strategy="merge"):
        """``group``, the fragments of ``[lo, hi)``, merged newest-wins and
        cut at the current edges, each piece marked as a rewrite of the
        range; with the fragments they were merged from."""
        if not group:
            return [], []
        canon, values, _, merged_from = merged or self._merge_fragments(
            group, strategy
        )
        parts = self._package_cut(canon, values)
        for part in parts:
            part.extra["compacted"] = [lo, hi]
        return parts, merged_from

    def split(self, index: int, *, at: int | None = None) -> None:
        """Split band ``index`` at address ``at`` (default: the median of
        its packed addresses), which must fall strictly inside it.  One
        commit records the new edge and rewrites the band's points into
        its two halves; the old fragments retire, so a pinned snapshot
        keeps reading them."""
        with self._rw.write_locked():
            self._split_locked(index, at=at)

    def _split_locked(self, index: int, *, at: int | None = None) -> None:
        index = range(len(self._edges) + 1)[index]
        entry = self.shards[index]
        group = self._band_fragments()[index]
        merged = self._merge_fragments(group) if group else None
        if at is None:
            if merged is None or merged[0].n < 2:
                raise FragmentError(
                    f"{entry.name} holds fewer than 2 points; nothing to "
                    "split"
                )
            addrs = merged[0].sorted_addresses
            at = int(addrs[addrs.shape[0] // 2])
        at = int(at)
        if not entry.addr_lo < at < entry.addr_hi:
            raise ValueError(
                f"split point {at} outside band "
                f"[{entry.addr_lo}, {entry.addr_hi})"
            )
        self._reband_locked(
            [*self._edges[:index], at, *self._edges[index:]],
            entry.addr_lo, entry.addr_hi, group, merged,
        )
        counter_add("store.shard.splits")

    def merge(self, index: int) -> None:
        """Merge band ``index`` with its right-hand neighbour, in one
        commit, as :meth:`split` does."""
        with self._rw.write_locked():
            self._merge_locked(index)

    def _merge_locked(self, index: int) -> None:
        bands = self.shards
        if index < 0 or index + 1 >= len(bands):
            raise ValueError(
                f"merge needs bands {index} and {index + 1}; store has "
                f"{len(bands)}"
            )
        groups = self._band_fragments()
        self._reband_locked(
            self._edges[:index] + self._edges[index + 1:],
            bands[index].addr_lo, bands[index + 1].addr_hi,
            groups[index] + groups[index + 1],
        )
        counter_add("store.shard.merges")

    def _reband_locked(self, edges, lo, hi, group, merged=None) -> None:
        """Commit ``edges`` with ``group``, the fragments of ``[lo, hi)``,
        rewritten at them: one log record.  A failure restores the
        edges, as the failed commit's reload restores the rest."""
        old, self._edges = self._edges, edges
        try:
            parts, merged_from = self._range_parts(lo, hi, group, merged)
            self._rewrite_locked(
                parts, merged_from, group=group, checkpoint=False
            )
        except BaseException:
            self._edges = old
            raise

    def _rebalance_locked(self) -> None:
        """Apply the nnz thresholds, one pass (writer lock held)."""
        def nnz(i: int) -> int:
            return sum(f.nnz for f in self._band_fragments()[i])

        if self.split_nnz is not None:
            i = 0
            while i <= len(self._edges):
                entry = self.shards[i]
                if (nnz(i) > self.split_nnz
                        and entry.addr_hi - entry.addr_lo > 1):
                    try:
                        self._split_locked(i)
                        continue
                    except (FragmentError, ValueError):
                        pass
                i += 1
        if self.merge_nnz is not None:
            i = 0
            while i < len(self._edges):
                if nnz(i) + nnz(i + 1) < self.merge_nnz:
                    self._merge_locked(i)
                else:
                    i += 1

    def stats(self) -> list[dict]:
        """Per-band summary rows (the ``repro stats --shards`` table)."""
        return [
            {
                "shard": entry.name,
                "addr_lo": entry.addr_lo,
                "addr_hi": entry.addr_hi,
                "nnz": sum(f.nnz for f in group),
                "fragments": len(group),
                "nbytes": sum(f.nbytes for f in group),
                "generation": self.generation,
            }
            for entry, group in zip(self.shards, self._band_fragments())
        ]


# ----------------------------------------------------------------------
# The legacy layout: shards.json over one child store per band
# ----------------------------------------------------------------------

def _read_legacy(directory: Path) -> dict | None:
    """The legacy band table at ``directory``, or ``None``.  Child stores
    without it cannot be banded again: that raises."""
    path = directory / LEGACY_SHARDS_NAME
    if not path.exists():
        if not (directory / MANIFEST_NAME).exists() and any(
            p.is_dir() for p in directory.glob("shard-*")
        ):
            raise ManifestError(
                f"{directory} holds shard-NNNN/ stores of the legacy "
                f"sharded layout but no {LEGACY_SHARDS_NAME} band table"
            )
        return None
    try:
        doc = json.loads(path.read_text())
        doc["bands"] = sorted(doc["bands"], key=lambda b: int(b["addr_lo"]))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ManifestError(f"corrupt legacy band table {path}: {exc}") \
            from exc
    return doc


def _legacy_runs(directory: Path, legacy: dict, shape, format_name, opts):
    """Prepare an uncommitted conversion: delete what an earlier attempt
    wrote into the root, then pack each child's WAL and merge its
    fragments newest-wins.  Returns the interior edges and the runs."""
    for path in [*directory.glob("frag-*.bin"), directory / MANIFEST_LOG_NAME]:
        if path.exists():
            remove_file(path)
    runs = []
    child_opts = StoreOptions(addr_order=opts.addr_order)
    for band in legacy["bands"]:
        child_dir = directory / str(band["dir"])
        if not child_dir.is_dir():
            continue
        with FragmentStore(child_dir, shape, format_name,
                           options=child_opts) as child:
            child.pack_wal()
            if child.fragments:
                canon, values, _, _ = child._merge_fragments(
                    list(child.fragments)
                )
                runs.append((canon, values))
    edges = [int(b["addr_lo"]) for b in legacy["bands"][1:]]
    return edges, runs


def _remove_legacy(directory: Path) -> None:
    """Delete a converted layout's child stores, then its band table:
    ``shards.json`` goes last, so a crash leaves it to finish."""
    for child in sorted(directory.glob("shard-*")):
        for root, dirs, files in os.walk(child, topdown=False):
            for name in files:
                remove_file(Path(root) / name)
            for name in dirs:
                os.rmdir(Path(root) / name)
        os.rmdir(child)
    remove_file(directory / LEGACY_SHARDS_NAME)
