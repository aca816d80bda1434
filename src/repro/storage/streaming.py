"""Streaming ingestion: durable WAL appends packed into fragments.

Real producers (the paper's LCLS-II motivation) emit points continuously;
writing a fragment per event would drown in per-fragment overhead, while
buffering everything defers durability.  :class:`StreamingWriter` rides
the store's write-ahead log: every ``append`` is durable the moment it
returns (one sequential log write, no fragment build), and the writer
calls :meth:`~repro.storage.store.FragmentStore.pack_wal` whenever
``pack_points`` appended points await packing.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..core.dtypes import as_index_array
from ..core.errors import ShapeError
from ..obs import counter_add
from .store import FragmentStore, WriteReceipt


class StreamingWriter:
    """Durable streaming appender over a :class:`FragmentStore`.

    Usage::

        with StreamingWriter(store, pack_points=100_000) as w:
            for coords, values in event_stream:
                w.append(coords, values)
        # exit packs the tail into a fragment

    Each ``append`` lands in the store's write-ahead log before
    returning — with ``StoreOptions.wal_fsync`` set, an acknowledged
    append survives any crash, and a crash mid-stream loses nothing that
    was appended.  The writer packs the log into a real fragment every
    ``pack_points`` points and once more on clean exit.

    On an exception inside the ``with`` block the writer never commits a
    fragment: the tail stays in the log (replayed on next open), with a
    warning.

    Also works over :class:`~repro.storage.sharded.ShardedStore`, a
    :class:`FragmentStore` itself.
    """

    def __init__(
        self,
        store: FragmentStore,
        *,
        pack_points: int = 100_000,
    ):
        if pack_points <= 0:
            raise ValueError("pack_points must be positive")
        self.store = store
        self.pack_points = int(pack_points)
        self._buffered = 0
        #: Points committed to fragments (packed) so far.
        self.points_written = 0
        #: Fragment commits (packs).
        self.fragments_written = 0

    @property
    def buffered_points(self) -> int:
        """Points appended through this writer and not yet packed."""
        return self._buffered

    def append(self, coords: np.ndarray, values: np.ndarray) -> None:
        """Add points, packing when the budget is reached."""
        coords = as_index_array(coords)
        values = np.asarray(values)
        if coords.ndim != 2 or coords.shape[1] != len(self.store.shape):
            raise ShapeError("coords must be (n, d) matching the store")
        if values.shape[0] != coords.shape[0]:
            raise ShapeError("values must align with coords")
        if coords.shape[0] == 0:
            return
        self.store.append(coords, values)
        self._buffered += coords.shape[0]
        counter_add("streaming.points_appended", coords.shape[0])
        if self._buffered >= self.pack_points:
            self.flush()

    def flush(self) -> WriteReceipt | None:
        """Pack the pending points into a fragment (no-op when empty).

        Drains the store's whole WAL (including points appended outside
        this writer) via ``pack_wal``.
        """
        if self._buffered == 0:
            return None
        receipt = self.store.pack_wal()
        self.points_written += self._buffered
        self._buffered = 0
        if receipt is not None:
            self.fragments_written += 1
        counter_add("streaming.flushes")
        return receipt

    def __enter__(self) -> "StreamingWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Commit the tail only on a clean exit: committing a fragment
        # while the producer is mid-failure could freeze half an event.
        if exc_type is None:
            self.flush()
            return
        if self._buffered:
            warnings.warn(
                f"StreamingWriter exiting on {exc_type.__name__}: "
                f"{self._buffered} appended point(s) remain durable "
                "in the write-ahead log but unpacked (replayed on "
                "next open; call pack_wal() to commit them)",
                RuntimeWarning,
                stacklevel=2,
            )
            self._buffered = 0
