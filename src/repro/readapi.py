"""Unified read-side API shared by encodings and stores.

Every queryable object in the library — an in-memory
:class:`~repro.formats.base.EncodedTensor`, an on-disk
:class:`~repro.storage.store.FragmentStore`, and a
:class:`~repro.storage.blocks.BlockedDataset` — answers queries through the
same two methods:

``read_points(query_coords) -> ReadOutcome``
    Point-existence queries for an explicit ``(q, d)`` coordinate buffer.
``read_box(box) -> SparseTensor``
    Structural range read: every stored point inside an axis-aligned
    :class:`~repro.core.boundary.Box`, merged and address-sorted.

Code written against :class:`Readable` works unchanged whether the data
lives in memory, in one fragment directory, or sharded over blocks.
Generation-pinned store views (:class:`~repro.storage.store.
StoreSnapshot`, :class:`~repro.storage.sharded.ShardedSnapshot` — see
``docs/WAL_SNAPSHOTS.md``) answer the same two methods, so query code
is equally agnostic to whether it reads the live store or a snapshot.

The storage-backed implementations (:class:`~repro.storage.store.
FragmentStore`, :class:`~repro.storage.blocks.BlockedDataset`,
:class:`~repro.storage.sharded.ShardedStore` and both snapshot views)
additionally share one keyword-only *tuning surface* on both methods —
a single ``options=``\\ :class:`~repro.storage.options.ReadOptions`
value (``faithful``) — so per-call read tuning is portable across every
store kind (see ``docs/READ_PATH.md`` and ``docs/API_GUIDE.md``).
In-memory encodings ignore storage tuning by construction: there is
nothing to cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core.boundary import Box
    from .core.tensor import SparseTensor

#: The keyword-only per-call tuning parameters every storage-backed
#: ``Readable`` accepts on ``read_points`` and ``read_box`` (snapshot
#: tested in ``tests/test_public_api.py``): the one
#: :class:`~repro.storage.options.ReadOptions` value.
STORE_READ_TUNING = ("options",)


@dataclass
class ReadOutcome:
    """Result of one point-query batch, aligned with the query buffer.

    Attributes
    ----------
    found:
        Boolean mask over the query buffer: does the point exist?
    values:
        Values of the found queries, in query order.
    fragments_visited:
        How many physical fragments the read touched (1 for in-memory
        encodings; overlap pruning keeps this below the fragment count).
    points_matched:
        ``int(found.sum())`` — carried so callers need not recompute.
    """

    found: np.ndarray
    values: np.ndarray
    fragments_visited: int = 1
    points_matched: int = 0


@runtime_checkable
class Readable(Protocol):
    """Structural protocol every queryable storage object implements."""

    def read_points(self, query_coords: np.ndarray) -> ReadOutcome:
        """Point queries for an explicit ``(q, d)`` coordinate buffer."""
        ...  # pragma: no cover - protocol stub

    def read_box(self, box: "Box") -> "SparseTensor":
        """All stored points inside ``box``, merged and sorted."""
        ...  # pragma: no cover - protocol stub
