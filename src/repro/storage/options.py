"""Consolidated store and read options.

The storage layer grew one keyword knob per PR — ``relative_coords``,
``fsync``, ``codec``, ``on_corruption``, ``retry``, ``cache_bytes``,
``planner``, ``crc_mode`` on constructors and ``faithful``,
``parallel``, ``max_workers`` on every read — and by PR 5 each store
class repeated the full list.  This module consolidates the
sprawl into two frozen dataclasses:

:class:`StoreOptions`
    Construction-time tuning shared by :class:`~repro.storage.store.
    FragmentStore`, :class:`~repro.storage.adaptive.AdaptiveStore`,
    :class:`~repro.storage.blocks.BlockedDataset` and
    :class:`~repro.storage.sharded.ShardedStore`, passed as one
    ``options=`` keyword.
:class:`ReadOptions`
    Per-call tuning shared by every ``read_points`` / ``read_box``,
    likewise passed as ``options=``.

Both are immutable (safe to share across stores and threads) and
validate their fields eagerly, so a typo'd policy fails at construction
rather than on the first degraded read.  Use :func:`dataclasses.replace`
(re-exported here as each class's :meth:`replace`) to derive variants::

    opts = StoreOptions(cache_bytes=64 << 20, crc_mode="once")
    store = FragmentStore(path, shape, "LINEAR", options=opts)
    uncached = opts.replace(cache_bytes=0)

``options=`` is the only way to pass these settings;
``docs/API_GUIDE.md`` §3 lists the bare keywords it replaced.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .durability import RetryPolicy

#: Read-side corruption policies (``StoreOptions.on_corruption``).
CORRUPTION_POLICIES = ("raise", "skip", "quarantine")

#: Whole-file CRC verification policies (``StoreOptions.crc_mode``).
#: ``"eager"`` re-hashes on every cache-miss load; ``"once"`` memoizes a
#: successful verification per (fragment, generation) and skips the
#: re-hash on later loads of the same committed bytes.
CRC_MODES = ("eager", "once")

#: Workload-adaptive format-migration policies (``StoreOptions.migrate``).
#: ``"off"`` never re-formats committed fragments; ``"compact"`` runs the
#: migration sweep after ``compact()`` / ``pack_wal()``; ``"auto"``
#: additionally sweeps opportunistically after reads.  Honored by
#: :class:`~repro.storage.adaptive.AdaptiveStore` (plain stores accept
#: the option but only migrate when asked explicitly).
MIGRATE_POLICIES = ("off", "compact", "auto")

#: Address-order settings (``StoreOptions.addr_order``).  ``"row_major"``
#: and ``"alto"`` pin the store's linearization order; ``"auto"`` starts
#: from the persisted (or row-major) order and lets the workload ledger
#: re-order box-heavy stores during ``compact()`` / ``pack_wal()``.
#: ``None`` adopts the order recorded in an existing manifest and
#: defaults to ``"row_major"`` for fresh stores.
ADDR_ORDER_SETTINGS = ("row_major", "alto", "auto")


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
        ``"raise"`` / ``"skip"`` / ``"quarantine"``.
    retry:
        :class:`~repro.storage.durability.RetryPolicy` for transient
        I/O errors (``None`` = fail fast).
    cache_bytes:
        Decoded-fragment LRU budget in bytes (0 = cache off).
    planner:
        Route reads through the query planner (interval index + zone
        maps); ``False`` restores the seed's linear bbox scan.
    crc_mode:
        Whole-file CRC policy, one of :data:`CRC_MODES`.
    wal_segment_bytes:
        WAL segment size: the active segment is sealed (and becomes
        packable) once its file crosses this many bytes.
    wal_fsync:
        fsync every WAL append (``True``: an acknowledged ``append``
        survives any crash).  ``None`` follows ``fsync``.
    wal_pack_interval:
        Seconds between background packer sweeps draining sealed WAL
        segments into fragments; ``None`` disables the thread (call
        ``store.pack_wal()`` explicitly).
    retain_generations:
        How many superseded manifest generations of fragments compaction
        and packing keep on disk for ``store.snapshot(generation)``
        time-travel; ``0`` deletes superseded fragments immediately
        (unless a live snapshot pins them).  ``store.gc()`` trims the
        retained set back to this depth.
    migrate:
        Workload-adaptive format migration, one of
        :data:`MIGRATE_POLICIES` (``"off"`` / ``"compact"`` /
        ``"auto"``).  With ``"compact"``, :class:`~repro.storage.
        adaptive.AdaptiveStore` re-scores every fragment against its
        observed workload after ``compact()`` / ``pack_wal()`` and
        re-formats the winners through the direct-conversion kernels;
        ``"auto"`` additionally sweeps opportunistically after reads.
        See ``docs/FORMAT_MIGRATION.md``.
    addr_order:
        Linearization order of the store's address space, one of
        :data:`ADDR_ORDER_SETTINGS` (``"row_major"`` / ``"alto"`` /
        ``"auto"``) or ``None`` (adopt the manifest's persisted order;
        ``"row_major"`` for fresh stores — bit-identical to the
        pre-ALTO layout).  ``"alto"`` interleaves the coordinate bits
        adaptively per shape so every mode stays locality-preserving
        (box reads prune fragments in all dimensions); ``"auto"``
        re-orders box-heavy stores from the workload ledger during
        ``compact()`` / ``pack_wal()``.  See
        ``docs/ADDRESS_ORDERS.md``.
    """

    relative_coords: bool = False
    fsync: bool = False
    codec: str | None = None
    on_corruption: str = "raise"
    retry: "RetryPolicy | None" = None
    cache_bytes: int = 0
    planner: bool = True
    crc_mode: str = "eager"
    wal_segment_bytes: int = 4 << 20
    wal_fsync: bool | None = None
    wal_pack_interval: float | None = None
    retain_generations: int = 0
    migrate: str = "off"
    addr_order: str | None = None

    def __post_init__(self) -> None:
        if self.on_corruption not in CORRUPTION_POLICIES:
            raise ValueError(
                f"on_corruption must be one of {CORRUPTION_POLICIES}, "
                f"got {self.on_corruption!r}"
            )
        if self.crc_mode not in CRC_MODES:
            raise ValueError(
                f"crc_mode must be one of {CRC_MODES}, got {self.crc_mode!r}"
            )
        if int(self.cache_bytes) < 0:
            raise ValueError("cache_bytes must be >= 0")
        if int(self.wal_segment_bytes) < 1:
            raise ValueError("wal_segment_bytes must be >= 1")
        if self.wal_pack_interval is not None and self.wal_pack_interval <= 0:
            raise ValueError("wal_pack_interval must be None or > 0")
        if int(self.retain_generations) < 0:
            raise ValueError("retain_generations must be >= 0")
        if self.migrate not in MIGRATE_POLICIES:
            raise ValueError(
                f"migrate must be one of {MIGRATE_POLICIES}, "
                f"got {self.migrate!r}"
            )
        if (
            self.addr_order is not None
            and self.addr_order not in ADDR_ORDER_SETTINGS
        ):
            raise ValueError(
                f"addr_order must be None or one of {ADDR_ORDER_SETTINGS}, "
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
    parallel:
        Per-fragment fan-out mode: ``"none"`` (inline) or ``"thread"``
        (the shared bounded read pool).
    max_workers:
        Bound on this call's fan-out (``None`` = the pool's default).
    """

    faithful: bool = False
    parallel: str = "none"
    max_workers: int | None = None

    def __post_init__(self) -> None:
        from .readpath import validate_parallel

        validate_parallel(self.parallel)

    def replace(self, **changes: Any) -> "ReadOptions":
        """A copy with ``changes`` applied (:func:`dataclasses.replace`)."""
        return dataclasses.replace(self, **changes)

