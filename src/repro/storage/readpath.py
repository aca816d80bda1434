"""READ pipeline pieces: decoded-fragment cache, RW lock, box merge, and
the shared thread pool.

Algorithm 3's READ is one sequential loop: load each fragment the plan
keeps, run its organization's READ, merge the results by address.  The
store runs that loop inline; this module supplies the pieces around it:

:class:`FragmentCache`
    A bytes-bounded, thread-safe LRU of *decoded* fragment payloads.  The
    sequential READ re-reads and re-decodes every overlapping fragment on
    every query; under read-heavy traffic (the ROADMAP's north star) the
    decode cost dominates, and a warm cache turns it into a dictionary
    lookup.  The cache is invalidated wholesale on every manifest
    generation change (``write`` / ``compact`` / ``fsck`` / quarantine),
    so a hit can never serve pre-compaction data.  Hits, misses,
    evictions, and resident bytes are mirrored into :mod:`repro.obs`
    (``store.cache.hits`` / ``.misses`` / ``.evictions`` /
    ``store.cache.bytes``).

:class:`RWLock`
    A reader-writer lock (concurrent readers, exclusive reentrant writers)
    that makes one store safe under mixed concurrent
    ``read_points`` / ``read_box`` / ``write`` / ``compact`` traffic: reads
    share the lock, mutations exclude reads, and a compaction can never
    delete fragment files out from under an in-flight read.

:func:`merge_box_hits`
    The merge step of a box read: every fragment's hits, the WAL tail's
    last, merged newest-wins by row-major address in one sort.

:func:`map_fragments_ordered`
    Fan a task out over the shared bounded
    :class:`~concurrent.futures.ThreadPoolExecutor` and return results in
    *input order* with per-item exceptions captured.  ``write_many``
    packages its parts this way; NumPy releases the GIL for the heavy
    build kernels, so thread-level parallelism is real parallelism there.

Fragment *selection* happens before any of this: the store builds one
:class:`~repro.storage.planner.QueryPlan` per query (spatial index +
zone-map pruning, see :mod:`repro.storage.planner` and
``docs/QUERY_PLANNER.md``).  See ``docs/READ_PATH.md`` for the full
pipeline description.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import Any, Callable, Sequence, TypeVar

import numpy as np

from ..core.dtypes import fits_index_dtype
from ..core.linearize import delinearize, linearize
from ..core.tensor import SparseTensor
from ..formats.base import BoxHits
from ..obs import counter_add, gauge_set

#: Upper bound on the shared thread pool (per process).
MAX_READ_WORKERS = min(32, 4 * (os.cpu_count() or 1))

#: Fixed per-entry bookkeeping estimate (dict slots, header, bbox tuples).
_ENTRY_OVERHEAD = 512

T = TypeVar("T")
R = TypeVar("R")

_pool_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None


def get_read_executor() -> ThreadPoolExecutor:
    """The process-wide thread pool (created lazily, bounded, shared).

    One bounded pool serves every store in the process so concurrent
    batch writes against many stores cannot multiply thread counts — the
    same discipline a server would apply to its I/O pool.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=MAX_READ_WORKERS,
                thread_name_prefix="repro-read",
            )
        return _pool


def shutdown_read_executor() -> None:
    """Tear down the shared pool (tests; safe to call when never created)."""
    global _pool
    with _pool_lock:
        pool, _pool = _pool, None
    if pool is not None:
        pool.shutdown(wait=True)


def map_fragments_ordered(
    items: Sequence[T],
    task: Callable[[T], R],
    *,
    max_workers: int | None = None,
) -> list[tuple[R | None, BaseException | None]]:
    """Run ``task`` over ``items`` on the shared pool; ordered results.

    Returns one ``(result, exception)`` pair per item, in input order —
    exceptions are captured, never raised, so the caller handles failures
    in deterministic input order (identical to the sequential loop).
    ``max_workers`` bounds *this call's* in-flight tasks
    with a sliding submission window over the shared pool; ``None`` uses
    the pool's own bound.
    """
    limit = MAX_READ_WORKERS if max_workers is None else max(1, int(max_workers))
    out: list[tuple[R | None, BaseException | None]] = [
        (None, None) for _ in items
    ]
    if not items:
        return out
    pool = get_read_executor()
    pending: dict[Any, int] = {}
    next_index = 0
    while next_index < len(items) or pending:
        while next_index < len(items) and len(pending) < limit:
            fut = pool.submit(task, items[next_index])
            pending[fut] = next_index
            next_index += 1
        done, _ = wait(list(pending), return_when=FIRST_COMPLETED)
        for fut in done:
            idx = pending.pop(fut)
            exc = fut.exception()
            if exc is not None:
                out[idx] = (None, exc)
            else:
                out[idx] = (fut.result(), None)
    return out


def merge_box_hits(
    shape: Sequence[int], parts: Sequence[tuple[BoxHits, np.ndarray]]
) -> SparseTensor:
    """Merge one box read's hits once, newest-wins by row-major address.

    ``parts`` are ``(hits, values)`` in plan (newest-last) order, the
    WAL tail last.  Coordinate hits are linearized in one call, the
    addresses stable-argsorted once, the last entry of each equal-address
    run kept and only the survivors delinearized.  The result equals
    ``deduplicated(keep="last").sorted_by_linear()`` of the concatenated
    hits.  Shapes beyond 64 bits (coordinate hits only) keep the
    lexicographic ``deduplicated(keep="last").sorted_lexicographic()``.
    """
    if not parts:
        return SparseTensor.empty(shape)
    values = np.concatenate([v for _, v in parts])
    if not fits_index_dtype(shape):
        coords = np.vstack([hits.coords for hits, _ in parts])
        merged = SparseTensor(shape, coords, values).deduplicated(keep="last")
        return merged.sorted_lexicographic()
    by_coords = [hits.coords for hits, _ in parts if hits.addresses is None]
    linearized = iter(())
    if by_coords:
        linearized = iter(np.split(
            linearize(np.vstack(by_coords), shape, validate=False),
            np.cumsum([c.shape[0] for c in by_coords])[:-1],
        ))
    addresses = np.concatenate([
        next(linearized) if hits.addresses is None else hits.addresses
        for hits, _ in parts
    ])
    # NumPy's stable sort, not stable_argsort's packed kernel, for the
    # reason match_addresses gives (ROADMAP item 2): here it is the
    # box floor of tests/bench/test_sharded.py that stops holding.
    order = np.argsort(addresses, kind="stable")
    ordered = addresses[order]
    last = np.ones(ordered.shape[0], dtype=bool)
    last[:-1] = ordered[1:] != ordered[:-1]
    return SparseTensor(
        shape, delinearize(ordered[last], shape, validate=False),
        values[order[last]],
    )


def payload_nbytes(payload) -> int:
    """Resident-size estimate of one decoded fragment payload.

    Counts the index buffers, the value buffer, and a fixed bookkeeping
    constant.  Read memos the format stashes on ``payload.runtime`` after
    caching (sorted orders etc., up to ~2x the index bytes) ride outside
    this estimate — the budget bounds *decoded data*, and the memos die
    with the entry either way.
    """
    total = _ENTRY_OVERHEAD + int(payload.values.nbytes)
    for buf in payload.buffers.values():
        total += int(buf.nbytes)
    return total


class FragmentCache:
    """Bytes-bounded LRU over decoded fragment payloads (thread-safe).

    Keys are fragment file names — unique within a store directory, and
    never reused across a store's lifetime (:meth:`FragmentStore.
    _scan_next_seq` only counts upward).  ``max_bytes=0`` disables the
    cache entirely: every lookup misses without recording metrics, so the
    default-off store pays one predicate per read.

    Invalidation is wholesale (:meth:`invalidate`) and hooked to the store
    manifest's generation counter: any committed mutation — ``write``,
    ``compact``, ``fsck``, a quarantine during a degraded read — clears
    the cache, so stale post-compaction hits are impossible.  Cumulative
    counters survive invalidation; resident bytes reset.
    """

    def __init__(self, max_bytes: int = 0):
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, tuple[Any, int]] = OrderedDict()
        self._bytes = 0
        #: Cumulative totals (mirrored into ``store.cache.*`` obs metrics).
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def enabled(self) -> bool:
        return self.max_bytes > 0

    @property
    def current_bytes(self) -> int:
        """Resident decoded bytes (always ``<= max_bytes``)."""
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str):
        """The cached payload for ``key``, or ``None`` (recorded as a miss)."""
        if not self.enabled:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                counter_add("store.cache.hits")
                return entry[0]
            self.misses += 1
        counter_add("store.cache.misses")
        return None

    def put(self, key: str, payload) -> None:
        """Insert ``payload``; evicts LRU entries to respect ``max_bytes``.

        A payload larger than the whole budget is not cached (it would
        evict everything and then be evicted by the next insert anyway).
        """
        if not self.enabled:
            return
        nbytes = payload_nbytes(payload)
        if nbytes > self.max_bytes:
            return
        evicted = 0
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            while self._bytes + nbytes > self.max_bytes and self._entries:
                _, (_, old_nbytes) = self._entries.popitem(last=False)
                self._bytes -= old_nbytes
                self.evictions += 1
                evicted += 1
            self._entries[key] = (payload, nbytes)
            self._bytes += nbytes
            resident = self._bytes
        if evicted:
            counter_add("store.cache.evictions", evicted)
        gauge_set("store.cache.bytes", resident)

    def invalidate(self) -> None:
        """Drop every entry (generation change); totals are preserved."""
        with self._lock:
            had = bool(self._entries)
            self._entries.clear()
            self._bytes = 0
            if had:
                self.invalidations += 1
        if had:
            counter_add("store.cache.invalidations")
            gauge_set("store.cache.bytes", 0)

    def stats(self) -> dict[str, int]:
        """Snapshot for reporting (``repro stats`` cache section)."""
        with self._lock:
            return {
                "enabled": int(self.enabled),
                "max_bytes": self.max_bytes,
                "bytes": self._bytes,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }


class RWLock:
    """Reader-writer lock: shared readers, exclusive *reentrant* writer.

    The writer side is reentrant (``compact`` calls ``write`` internally)
    and a thread holding the write lock may also take the read lock (a
    mutation that reads its own store).  Fairness is writer-preferring
    enough for storage use: once a writer is waiting, new readers queue
    behind it, so a compaction cannot be starved by a read storm.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer: int | None = None
        self._writer_depth = 0
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                # Write lock already held by this thread: reads are allowed.
                self._writer_depth += 1
                return
            while self._writer is not None or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth -= 1
                return
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                return
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = me
            self._writer_depth = 1

    def release_write(self) -> None:
        with self._cond:
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = None
                self._cond.notify_all()

    def read_locked(self) -> "_Held":
        return _Held(self.acquire_read, self.release_read)

    def write_locked(self) -> "_Held":
        return _Held(self.acquire_write, self.release_write)


class _Held:
    """Tiny context manager binding an acquire/release pair."""

    __slots__ = ("_acquire", "_release")

    def __init__(self, acquire: Callable[[], None], release: Callable[[], None]):
        self._acquire = acquire
        self._release = release

    def __enter__(self) -> None:
        self._acquire()

    def __exit__(self, *exc: object) -> None:
        self._release()


__all__ = [
    "FragmentCache",
    "MAX_READ_WORKERS",
    "RWLock",
    "get_read_executor",
    "map_fragments_ordered",
    "payload_nbytes",
    "shutdown_read_executor",
]
