"""Streaming ingestion: durable WAL appends packed into fragments.

Real producers (the paper's LCLS-II motivation) emit points continuously;
writing a fragment per event would drown in per-fragment overhead, while
buffering everything defers durability.  :class:`StreamingWriter`
originally batched appends in memory and flushed a fragment per point
budget — a crash lost the whole buffer.  It now rides the store's
write-ahead log by default: every ``append`` is durable the moment it
returns (one sequential log write, no fragment build), and the writer
calls :meth:`~repro.storage.store.FragmentStore.pack_wal` whenever
``pack_points`` appended points await packing.  ``durable=False``
restores the in-memory buffering for callers that explicitly prefer
speed over crash safety.
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

    With ``durable=True`` (the default) each ``append`` lands in the
    store's write-ahead log before returning — with
    ``StoreOptions.wal_fsync`` set, an acknowledged append survives any
    crash, and a crash mid-stream loses nothing that was appended.  The
    writer packs the log into a real fragment every ``pack_points``
    points and once more on clean exit.

    With ``durable=False`` points are buffered in memory and written as
    one fragment per budget (the original behavior): cheap, but a crash
    or producer error drops the unflushed buffer.

    On an exception inside the ``with`` block the writer never commits a
    fragment: the durable tail stays in the log (replayed on next open),
    a non-durable buffer is discarded — both with a warning.

    Also works over :class:`~repro.storage.sharded.ShardedStore` in
    durable mode (it exposes the same ``append`` / ``pack_wal`` pair).
    """

    def __init__(
        self,
        store: FragmentStore,
        *,
        pack_points: int = 100_000,
        durable: bool = True,
    ):
        if pack_points <= 0:
            raise ValueError("pack_points must be positive")
        self.store = store
        self.pack_points = int(pack_points)
        self.durable = bool(durable)
        self._coords: list[np.ndarray] = []
        self._values: list[np.ndarray] = []
        self._buffered = 0
        #: Points committed to fragments (packed or flushed) so far.
        self.points_written = 0
        #: Fragment commits (packs in durable mode, flushes otherwise).
        self.fragments_written = 0

    @property
    def buffered_points(self) -> int:
        """Points not yet in a fragment: the unpacked durable tail, or
        the in-memory buffer when ``durable=False``."""
        return self._buffered

    def append(self, coords: np.ndarray, values: np.ndarray) -> None:
        """Add points, packing/flushing when the budget is reached."""
        coords = as_index_array(coords)
        values = np.asarray(values)
        if coords.ndim != 2 or coords.shape[1] != len(self.store.shape):
            raise ShapeError("coords must be (n, d) matching the store")
        if values.shape[0] != coords.shape[0]:
            raise ShapeError("values must align with coords")
        if coords.shape[0] == 0:
            return
        if self.durable:
            self.store.append(coords, values)
            self._buffered += coords.shape[0]
        else:
            self._coords.append(coords)
            self._values.append(values)
            self._buffered += coords.shape[0]
        counter_add("streaming.points_appended", coords.shape[0])
        while self._buffered >= self.pack_points:
            self.flush()

    def flush(self) -> WriteReceipt | None:
        """Commit the pending points as one fragment (no-op when empty).

        Durable mode drains the store's whole WAL (including points
        appended outside this writer) via ``pack_wal``; non-durable mode
        writes the in-memory buffer.
        """
        if self._buffered == 0:
            return None
        if self.durable:
            receipt = self.store.pack_wal()
            self.points_written += self._buffered
            self._buffered = 0
        else:
            coords = np.vstack(self._coords)
            values = np.concatenate(self._values)
            self._coords.clear()
            self._values.clear()
            self._buffered = 0
            receipt = self.store.write(coords, values)
            self.points_written += int(coords.shape[0])
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
            if self.durable:
                warnings.warn(
                    f"StreamingWriter exiting on {exc_type.__name__}: "
                    f"{self._buffered} appended point(s) remain durable "
                    "in the write-ahead log but unpacked (replayed on "
                    "next open; call pack_wal() to commit them)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self._buffered = 0
            else:
                warnings.warn(
                    f"StreamingWriter exiting on {exc_type.__name__}: "
                    f"discarding {self._buffered} buffered point(s) "
                    "(pass durable=True to make appends crash-safe)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self._coords.clear()
                self._values.clear()
                self._buffered = 0
