"""Consolidated store and read options.

The storage layer grew one keyword knob per change — ``relative_coords``,
``fsync``, ``codec``, ``on_corruption``, ``cache_bytes``, ``planner``
on constructors and ``faithful`` on every read — until each store
class repeated the full list.  This module consolidates the
sprawl into two frozen dataclasses:

:class:`StoreOptions`
    Construction-time tuning shared by :class:`~repro.storage.store.
    FragmentStore`, :class:`~repro.storage.blocks.BlockedDataset` and
    :class:`~repro.storage.sharded.ShardedStore`, passed as one
    ``options=`` keyword.
:class:`ReadOptions`
    Per-call tuning shared by every ``read_points`` / ``read_box``,
    likewise passed as ``options=``.

Both are immutable (safe to share across stores and threads) and
validate their fields eagerly, so a typo'd policy fails at construction
rather than on the first degraded read.  Use :func:`dataclasses.replace`
(re-exported here as each class's :meth:`replace`) to derive variants::

    opts = StoreOptions(cache_bytes=64 << 20, codec="cascade")
    store = FragmentStore(path, shape, "LINEAR", options=opts)
    uncached = opts.replace(cache_bytes=0)

``options=`` is the only way to pass these settings;
``docs/API_GUIDE.md`` §3 lists the bare keywords it replaced and the
settings since removed (``retry``, ``crc_mode``, ``wal_pack_interval``,
``parallel``, ``max_workers``, ``migrate``), which now raise
``TypeError``; ``addr_order="auto"`` raises ``ValueError``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from ..core.linearize import ADDRESS_ORDERS

#: Read-side corruption policies (``StoreOptions.on_corruption``).
CORRUPTION_POLICIES = ("raise", "skip", "quarantine")



@dataclass(frozen=True)
class StoreOptions:
    """Construction-time tuning for every store kind, in one value.

    Attributes
    ----------
    relative_coords:
        Store each fragment against its own bounding box (the paper's
        block-local transform; what :class:`~repro.storage.blocks.
        BlockedDataset` builds on).
    fsync:
        fsync fragment and manifest commits (durability over latency).
    codec:
        Fragment payload codec (``"raw"`` / ``"zlib"`` / ``"delta-zlib"``
        / ``"cascade"``).  ``"cascade"`` routes every buffer through the
        codec advisor (delta → bit-pack / run-length → optional zlib,
        cheapest chain per buffer — see ``docs/COMPRESSION.md``); the
        chain actually applied is recorded per buffer on disk, so reads
        never consult this option.  ``None`` adopts the codec recorded
        in an existing manifest and defaults to ``"raw"`` for fresh
        stores.
    on_corruption:
        Read-side policy for fragments failing their checksum:
        ``"raise"`` / ``"skip"`` / ``"quarantine"``.  Every load of a
        fragment file verifies its CRC; a failed read is not retried.
    cache_bytes:
        Decoded-fragment LRU budget in bytes (0 = cache off).
    planner:
        Route reads through the query planner (interval index + zone
        maps); ``False`` restores the seed's linear bbox scan.
    wal_segment_bytes:
        WAL segment size: the active segment is sealed (and becomes
        packable) once its file crosses this many bytes.
    wal_fsync:
        fsync every WAL append (``True``: an acknowledged ``append``
        survives any crash).  ``None`` follows ``fsync``.  Appended
        points stay in the WAL until ``store.pack_wal()`` (or a
        ``write``) packs them.
    retain_generations:
        How many superseded manifest generations of fragments compaction
        and packing keep on disk for ``store.snapshot(generation)``
        time-travel; ``0`` deletes superseded fragments immediately
        (unless a live snapshot pins them).  ``store.gc()`` trims the
        retained set back to this depth.
    addr_order:
        Linearization order of the store's address space, ``"row_major"``
        or ``"alto"``, or ``None`` (adopt the manifest's persisted order;
        ``"row_major"`` for fresh stores — bit-identical to the
        pre-ALTO layout).  ``"alto"`` interleaves the coordinate bits
        adaptively per shape so every mode stays locality-preserving
        (box reads prune fragments in all dimensions).  The order changes
        only when asked: ``store.set_addr_order``.  See
        ``docs/ADDRESS_ORDERS.md``.
    """

    relative_coords: bool = False
    fsync: bool = False
    codec: str | None = None
    on_corruption: str = "raise"
    cache_bytes: int = 0
    planner: bool = True
    wal_segment_bytes: int = 4 << 20
    wal_fsync: bool | None = None
    retain_generations: int = 0
    addr_order: str | None = None

    def __post_init__(self) -> None:
        if self.on_corruption not in CORRUPTION_POLICIES:
            raise ValueError(
                f"on_corruption must be one of {CORRUPTION_POLICIES}, "
                f"got {self.on_corruption!r}"
            )
        if int(self.cache_bytes) < 0:
            raise ValueError("cache_bytes must be >= 0")
        if int(self.wal_segment_bytes) < 1:
            raise ValueError("wal_segment_bytes must be >= 1")
        if int(self.retain_generations) < 0:
            raise ValueError("retain_generations must be >= 0")
        if (
            self.addr_order is not None
            and self.addr_order not in ADDRESS_ORDERS
        ):
            raise ValueError(
                f"addr_order must be None or one of {ADDRESS_ORDERS}, "
                f"got {self.addr_order!r}"
            )

    def replace(self, **changes: Any) -> "StoreOptions":
        """A copy with ``changes`` applied (:func:`dataclasses.replace`)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class ReadOptions:
    """Per-call tuning for ``read_points`` / ``read_box``, in one value.

    Attributes
    ----------
    faithful:
        Use the paper's faithful (reference) read kernels where the
        organization distinguishes them; box reads are always structural.
        A read runs its fragments inline, one after another, as
        Algorithm 3's READ does.
    """

    faithful: bool = False

    def replace(self, **changes: Any) -> "ReadOptions":
        """A copy with ``changes`` applied (:func:`dataclasses.replace`)."""
        return dataclasses.replace(self, **changes)

