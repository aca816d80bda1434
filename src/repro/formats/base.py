"""Storage-organization contract shared by all five (plus extension) formats.

A *format* is a stateless codec between the paper's input contract — an
unsorted ``(n, d)`` coordinate buffer — and a *payload*: a small dictionary
of named 1D/2D index buffers plus JSON-able metadata.  The payload is what
Algorithm 3's WRITE serializes into a fragment; the format's READ answers
point-existence queries against it.

Two read paths exist deliberately (DESIGN.md §4):

``read``
    Production path.  Fully vectorized; complexity may be *better* than the
    paper's per-point algorithm (e.g. COO membership via sort + binary
    search).  Used by the public API, examples, and correctness tests.
``read_faithful``
    The paper's algorithm, preserved asymptotically: COO/LINEAR scan all
    ``n`` stored points per query, GCSR++/GCSC++ scan one row/column
    segment, CSF descends the tree.  Charges an :class:`~repro.core.OpCounter`
    with the operation classes Table I counts.  Used by the benchmark
    harness (Figs 3/5, Tables III/IV) and the complexity-validation tests.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    ClassVar,
    Mapping,
    MutableMapping,
    Sequence,
)

import numpy as np

from ..core.costmodel import NULL_COUNTER, OpCounter
from ..core.dtypes import as_index_array
from ..core.errors import FormatError, ShapeError
from ..core.linearize import (
    DEFAULT_ADDRESS_ORDER,
    AddressIntervals,
    delinearize_order,
    linearize,
    linearize_order,
)
from ..core.sorting import apply_map, stable_argsort
from ..core.tensor import SparseTensor
from ..obs import span
from ..readapi import ReadOutcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..build.canonical import CanonicalCoords

@dataclass
class BuildResult:
    """Output of a format's BUILD.

    Attributes
    ----------
    payload:
        Named index buffers (the ``b`` of Algorithms 1/2).  All values are
        NumPy arrays; 2D is allowed (COO keeps its ``(n, d)`` buffer).
    perm:
        The paper's ``map`` vector (gather permutation applied during the
        build's sort), or ``None`` when the format preserves input order.
        ``stored[i] == original[perm[i]]``.
    meta:
        Small JSON-able metadata the READ side needs (folded 2D shape,
        CSF dimension permutation, ...).  Tensor shape and nnz are carried
        by the fragment layer, not here.
    """

    payload: dict[str, np.ndarray]
    perm: np.ndarray | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    def index_nbytes(self) -> int:
        """Total bytes of all index buffers — Fig 4's size metric (per
        fragment, excluding the value buffer, which is identical across
        formats)."""
        return int(sum(buf.nbytes for buf in self.payload.values()))


@dataclass
class ReadResult:
    """Output of a format's READ for a batch of query coordinates.

    Attributes
    ----------
    found:
        Boolean mask over the query buffer: does the point exist?
    value_positions:
        For each *found* query (in query order), the index into the stored
        (i.e. perm-reordered) value buffer holding its value.
    """

    found: np.ndarray
    value_positions: np.ndarray

    def gather_values(self, stored_values: np.ndarray) -> np.ndarray:
        """Values for the found queries, in query order."""
        return stored_values[self.value_positions]


@dataclass
class BoxHits:
    """One payload's points inside a query box (:meth:`SparseFormat.
    box_probe`): their indices into the stored value buffer, plus either
    their global row-major ``addresses`` or, from organizations that
    read boxes by coordinates, their ``coords``."""

    positions: np.ndarray
    addresses: np.ndarray | None = None
    coords: np.ndarray | None = None


class SparseFormat(abc.ABC):
    """Abstract storage organization (BUILD/READ codec)."""

    #: Registry key and display name ("COO", "LINEAR", ...).
    name: ClassVar[str] = ""

    #: Whether BUILD reorders points (and therefore returns a ``map``).
    reorders_values: ClassVar[bool] = False

    #: Address orders whose canonical input this format can adopt
    #: *order-bearingly* — the payload/meta record the order and the read
    #: side honors it.  ``None`` means the payload is order-independent:
    #: the same bytes come out whichever order the canonical was sorted
    #: in (COO's verbatim adopt, CSF/HICOO/GCSR++ trees and segment maps
    #: are rebuilt from coordinates), so any order is acceptable on input
    #: and ``extract_addresses`` can re-express in any order on output.
    payload_orders: ClassVar[tuple[str, ...] | None] = None

    #: Whether the organization needs the shape's linear addresses (to
    #: build, to probe or both), so a store shape whose cell count
    #: overflows uint64 needs ``relative_coords``.  CSF indexes by
    #: coordinate alone.
    linear_addresses: ClassVar[bool] = True

    # -- build ---------------------------------------------------------

    @abc.abstractmethod
    def build(
        self,
        coords: np.ndarray,
        shape: Sequence[int],
        *,
        counter: OpCounter = NULL_COUNTER,
    ) -> BuildResult:
        """Package an unsorted coordinate buffer into this organization."""

    def build_canonical(
        self,
        canon: "CanonicalCoords",
        *,
        counter: OpCounter = NULL_COUNTER,
    ) -> BuildResult:
        """BUILD over the shared canonical intermediate.

        Formats whose BUILD needs the linear addresses or the stable
        address sort override this to read them from the (lazily cached)
        :class:`~repro.build.canonical.CanonicalCoords` instead of
        recomputing — that is what makes ``encode_all`` pay for
        linearize + sort once across formats.  The produced payload MUST
        be bit-identical to :meth:`build` on ``canon.coords``, and the
        ``counter`` charges must be identical too: Table-III accounting
        describes the algorithm, not the cache it happened to hit.

        The default recomputes via :meth:`build` (correct for formats
        with no shared prerequisites, e.g. COO's verbatim adopt).
        """
        return self.build(canon.coords, canon.shape, counter=counter)

    def extract_addresses(
        self,
        payload: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
        shape: Sequence[int],
        *,
        order: str = "row_major",
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The payload's points as a *sorted* linear-address run.

        Returns ``(sorted_addresses, order)`` where ``order`` gathers the
        stored value buffer into address order (``values[order]`` aligns
        with ``sorted_addresses``); ``order is None`` means the payload
        is already address-sorted (identity).  Equal addresses keep
        stored order, so downstream newest-wins merges see duplicates in
        write order.  This is the payload-to-canonical direction of the
        build pipeline: merge-based compaction and payload-to-payload
        conversion consume it without materializing a
        :class:`SparseTensor`.

        ``order`` names the address space the run is expressed in
        (``"row_major"`` or ``"alto"``); the addresses are ascending in
        that space.  Order-bearing formats whose payload is already
        sorted in a *different* space fall through to this decode+sort
        default rather than their identity fast path.

        The default decodes coordinates and sorts; formats that store
        addresses (LINEAR) or an address-sorted layout (COO-SORTED,
        identity-permutation CSF) override it to skip the decode and/or
        the sort.
        """
        coords = self.decode(payload, meta, shape)
        addresses = linearize_order(coords, shape, order, validate=False)
        value_order = stable_argsort(addresses)
        return addresses[value_order], value_order

    # -- read ----------------------------------------------------------

    @abc.abstractmethod
    def read(
        self,
        payload: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
        shape: Sequence[int],
        query_coords: np.ndarray,
        *,
        memo: MutableMapping[str, Any] | None = None,
    ) -> ReadResult:
        """Vectorized production read.

        ``memo`` is an optional process-local scratch dict owned by the
        caller — the decoded-fragment cache passes the payload's
        ``runtime`` dict, :class:`EncodedTensor` its own — where the
        format may stash derived search structures (sorted orders,
        linearized address views) and reuse them on later reads of the
        same payload.  The memo's lifetime is tied to the payload's:
        buffers are immutable once decoded, so a memo entry never goes
        stale while its payload is alive.  Formats are free to ignore it;
        results must be bit-identical with and without one.
        """

    @abc.abstractmethod
    def read_faithful(
        self,
        payload: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
        shape: Sequence[int],
        query_coords: np.ndarray,
        *,
        counter: OpCounter = NULL_COUNTER,
    ) -> ReadResult:
        """The paper's per-point read algorithm with op accounting."""

    @abc.abstractmethod
    def decode(
        self,
        payload: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
        shape: Sequence[int],
    ) -> np.ndarray:
        """Reconstruct the full ``(n, d)`` coordinate buffer from a payload.

        Coordinates come back in *stored* order — aligned with the
        (perm-reordered) value buffer — so ``decode`` + the stored values
        reconstitute the tensor exactly.  This is the inverse of
        :meth:`build` up to point order.
        """

    # -- box (range) reads ------------------------------------------------

    def box_points(
        self,
        payload: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
        shape: Sequence[int],
        box,
    ) -> tuple[np.ndarray, np.ndarray]:
        """All stored points inside an axis-aligned box.

        Returns ``(coords, value_positions)`` — the coordinates of every
        stored point inside ``box`` plus their indices into the stored
        value buffer.  Unlike point reads, this never enumerates the box's
        cells, so it scales to the paper's (m/10)^d regions (millions of
        cells, few points).  The default walks the decoded coordinate
        buffer once — O(n) per fragment; CSF overrides it with subtree
        pruning that touches only matching branches.
        """
        coords = self.decode(payload, meta, shape)
        if coords.shape[0] == 0:
            return coords, np.empty(0, dtype=np.intp)
        mask = box.contains_points(coords)
        positions = np.flatnonzero(mask)
        return coords[positions], positions

    def box_probe(
        self,
        payload: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
        shape: Sequence[int],
        box,
        intervals: AddressIntervals | None = None,
    ) -> BoxHits:
        """The store executor's box read of one payload.

        ``intervals`` is the box as address intervals in the payload's
        (global) space, in the fragment's address order.  Organizations
        that can cut them directly override this and return row-major
        addresses; the default runs :meth:`box_points` and returns
        coordinates, which the executor linearizes in one batch per
        request.
        """
        coords, positions = self.box_points(payload, meta, shape, box)
        return BoxHits(positions, coords=coords)

    # -- shared helpers --------------------------------------------------

    def encode(self, tensor: SparseTensor) -> "EncodedTensor":
        """Convenience: build + reorganize values (Algorithm 3 lines 4–5)."""
        from ..build.canonical import CanonicalCoords

        canon = CanonicalCoords.from_coords(tensor.coords, tensor.shape)
        return self.encode_canonical(canon, tensor.values)

    def encode_canonical(
        self,
        canon: "CanonicalCoords",
        values: np.ndarray,
        *,
        counter: OpCounter = NULL_COUNTER,
        gather_cache: dict | None = None,
    ) -> "EncodedTensor":
        """Encode from a shared canonical intermediate (build pipeline).

        Same output as :meth:`encode`; prerequisites already cached on
        ``canon`` (addresses, sort order) are reused instead of
        recomputed.  ``counter`` receives the format's own BUILD charges.

        ``gather_cache`` (used by ``encode_all``) memoizes the value
        gather across formats that share the same permutation object —
        LINEAR, COO-SORTED, and identity-permutation CSF all reorder by
        the one cached address sort, so the gather happens once.  Entries
        keep the permutation array alive, so identity keys cannot be
        recycled.
        """
        values = np.asarray(values)
        with span("format.encode", format=self.name) as sp:
            result = self.build_canonical(canon, counter=counter)
            if gather_cache is not None and result.perm is not None:
                hit = gather_cache.get(id(result.perm))
                if hit is None:
                    out_values = apply_map(values, result.perm)
                    gather_cache[id(result.perm)] = (result.perm, out_values)
                else:
                    out_values = hit[1]
            else:
                out_values = apply_map(values, result.perm)
            sp.add_nnz(canon.n)
            sp.add_bytes_out(result.index_nbytes() + int(out_values.nbytes))
        return EncodedTensor(
            fmt=self,
            shape=canon.shape,
            nnz=canon.n,
            payload=result.payload,
            meta=result.meta,
            values=out_values,
        )

    def validate_query(
        self, query_coords: np.ndarray, shape: Sequence[int]
    ) -> np.ndarray:
        """Normalize a query coordinate buffer to ``(q, d)`` uint64."""
        q = as_index_array(query_coords)
        if q.ndim != 2 or q.shape[1] != len(shape):
            raise ShapeError(
                f"query coords must be (q, {len(shape)}); got {q.shape}"
            )
        return q

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class AddressProbeFormat(SparseFormat):
    """An organization whose point read is a probe by linear address.

    :meth:`read` linearizes the query in the payload's address order
    (:func:`meta_addr_order`) and hands it to :meth:`read_addresses`,
    which the store's point executor calls directly with the slice of
    its once-linearized, sorted query keys.
    """

    def read(self, payload, meta, shape, query_coords, *, memo=None):
        query = self.validate_query(query_coords, shape)
        addresses = linearize_order(
            query, shape, meta_addr_order(meta), validate=False
        )
        return self.read_addresses(payload, meta, shape, addresses, memo=memo)

    @abc.abstractmethod
    def read_addresses(
        self,
        payload: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
        shape: Sequence[int],
        addresses: np.ndarray,
        *,
        memo: MutableMapping[str, Any] | None = None,
    ) -> ReadResult:
        """:meth:`read` for query addresses already in the payload's
        address order (``memo`` as in :meth:`SparseFormat.read`)."""


@dataclass
class EncodedTensor:
    """A tensor packaged in one organization, with its value buffer aligned.

    This is the object a downstream user holds: it knows how to answer point
    queries and report its index footprint, independent of whether it lives
    in memory or came back from a fragment file.
    """

    fmt: SparseFormat
    shape: tuple[int, ...]
    nnz: int
    payload: dict[str, np.ndarray]
    meta: dict[str, Any]
    values: np.ndarray
    #: Process-local read memos (see :meth:`SparseFormat.read`); never
    #: serialized, never compared.
    runtime: dict[str, Any] = field(
        default_factory=dict, repr=False, compare=False
    )

    def read_points(self, query_coords: np.ndarray) -> ReadOutcome:
        """Point queries; the unified read-side API (see :mod:`repro.readapi`).

        Returns a :class:`~repro.readapi.ReadOutcome` whose ``found`` mask
        aligns with the query buffer and whose ``values`` hold the found
        queries' values in query order.
        """
        with span("format.read", format=self.fmt.name) as sp:
            res = self.fmt.read(
                self.payload, self.meta, self.shape, query_coords,
                memo=self.runtime,
            )
            values = res.gather_values(self.values)
            matched = int(res.found.sum())
            sp.add_nnz(matched)
        return ReadOutcome(
            found=res.found,
            values=values,
            fragments_visited=1,
            points_matched=matched,
        )

    def decode(self) -> SparseTensor:
        """Reconstruct the original tensor (point order may differ)."""
        with span("format.decode", format=self.fmt.name) as sp:
            coords = self.fmt.decode(self.payload, self.meta, self.shape)
            sp.add_nnz(self.nnz)
        return SparseTensor(self.shape, coords, self.values)

    def convert(self, fmt) -> "EncodedTensor":
        """Re-encode this payload in another organization.

        Every pair of organizations takes the one canonical path,
        payload -> canonical -> payload: the source format emits its
        points as a sorted linear-address run
        (:meth:`SparseFormat.extract_addresses`), the target builds from
        that :class:`~repro.build.canonical.CanonicalCoords` — no
        :class:`SparseTensor` is materialized, the sort is never repaid
        (the run is already ordered), and address-only targets (LINEAR)
        never even delinearize.  Points come back in canonical (linear
        -address) order; duplicates are preserved, resolving to the same
        newest-wins winner on read.  Shapes beyond the uint64 address
        space fall back to a decode-based conversion.
        """
        from ..build.canonical import CanonicalCoords
        from ..core.dtypes import fits_index_dtype
        from ..core.linearize import fits_addr_order
        from .registry import resolve_format

        fmt = resolve_format(fmt)
        # Preserve the source payload's address order when the target can
        # carry it (order-free targets accept any canonical order).
        addr_order = meta_addr_order(self.meta)
        if (
            fmt.payload_orders is not None
            and addr_order not in fmt.payload_orders
        ) or not fits_addr_order(self.shape, addr_order):
            addr_order = "row_major"
        with span("format.convert", format=fmt.name) as sp:
            if fits_index_dtype(self.shape):
                addresses, order = self.fmt.extract_addresses(
                    self.payload, self.meta, self.shape, order=addr_order
                )
                canon = CanonicalCoords.from_addresses(
                    addresses, self.shape, is_sorted=True,
                    addr_order=addr_order,
                )
                values = self.values if order is None else self.values[order]
            else:
                coords = self.fmt.decode(self.payload, self.meta, self.shape)
                canon = CanonicalCoords.from_coords(coords, self.shape)
                values = self.values
            sp.add_nnz(self.nnz)
        return fmt.encode_canonical(canon, values)

    def read_box(self, box) -> SparseTensor:
        """All stored points inside ``box``, sorted by linear address.

        Structural range read — never enumerates the box's cells (see
        :meth:`SparseFormat.box_points`), so arbitrarily large boxes are
        fine.  Results come back in the same merge order as the store-level
        ``read_box`` (lexicographic when the shape is not linearizable), so
        the unified read API behaves identically in memory and on disk.
        """
        from ..core.dtypes import fits_index_dtype

        with span("format.read_box", format=self.fmt.name) as sp:
            coords, positions = self.fmt.box_points(
                self.payload, self.meta, self.shape, box
            )
            sp.add_nnz(int(positions.shape[0]))
        tensor = SparseTensor(self.shape, coords, self.values[positions])
        if fits_index_dtype(self.shape):
            return tensor.sorted_by_linear()
        return tensor.sorted_lexicographic()

    def read_dense_box(self, box) -> np.ndarray:
        """Materialize a small dense window of the tensor (missing cells 0)."""
        grid = box.grid_coords()
        out_points = self.read_points(grid)
        out = np.zeros(box.n_cells, dtype=self.values.dtype)
        out[out_points.found] = out_points.values
        return out.reshape(box.size)

    @property
    def index_nbytes(self) -> int:
        return int(sum(buf.nbytes for buf in self.payload.values()))

    @property
    def value_nbytes(self) -> int:
        return int(self.values.nbytes)

    @property
    def nbytes(self) -> int:
        """Total in-memory footprint (index + values)."""
        return self.index_nbytes + self.value_nbytes


# ----------------------------------------------------------------------
# Shared read kernels
# ----------------------------------------------------------------------


def match_addresses(
    stored: np.ndarray,
    query: np.ndarray,
    *,
    memo: MutableMapping[str, Any] | None = None,
    memo_key: str = "match.order",
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized membership of ``query`` addresses among ``stored`` ones.

    Returns ``(found_mask, stored_positions)`` where ``stored_positions``
    indexes the *original* (unsorted) stored array, one entry per found
    query in query order.  Cost O((n + q) log n) — the production-path
    replacement for the paper's O(n*q) scans.

    With a ``memo`` dict (see :meth:`SparseFormat.read`) the O(n log n)
    argsort of ``stored`` is computed once per payload and reused, so
    repeated reads against a cached fragment drop to O(q log n).

    When ``stored`` contains duplicates, the match reports the *last*
    occurrence in input order — the stable sort keeps equal addresses in
    input order, and the rightmost entry of the run is the newest write.
    This is the codebase-wide duplicate rule
    (:data:`repro.build.canonical.DUPLICATE_POLICY`), matching
    :meth:`SparseTensor.deduplicated(keep="last")` and the fragment
    store's overwrite semantics.
    """
    stored = as_index_array(stored)
    query = as_index_array(query)
    if stored.size == 0 or query.size == 0:
        return (
            np.zeros(query.shape[0], dtype=bool),
            np.empty(0, dtype=np.intp),
        )
    entry = None if memo is None else memo.get(memo_key)
    if entry is None or entry[0].shape[0] != stored.shape[0]:
        # NumPy's stable sort, not stable_argsort's packed kernel: with it
        # an uncached probe of a large shuffled fragment costs no more
        # than a sharded store's fixed per-band read, and the 16-shard
        # hot-region floor of tests/bench/test_sharded.py no longer holds
        # (ROADMAP item 2).  The permutation is the same either way.
        order = np.argsort(stored, kind="stable")
        sorted_stored = stored[order]
        if memo is not None:
            memo[memo_key] = (order, sorted_stored)
    else:
        order, sorted_stored = entry
    pos = np.searchsorted(sorted_stored, query, side="right")
    found = pos > 0
    pos_idx = np.maximum(pos - 1, 0)
    found &= sorted_stored[pos_idx] == query
    return found, order[pos_idx[found]]


def scan_addresses_faithful(
    stored: np.ndarray,
    query: np.ndarray,
    counter: OpCounter,
    *,
    note: str,
) -> tuple[np.ndarray, np.ndarray]:
    """The paper's O(n * q) unsorted scan, one full pass per query point.

    Each query walks the entire stored buffer (vectorized within the pass,
    one Python-level iteration per query), exactly the COO/LINEAR read cost
    of Table I.  Duplicate addresses resolve to the last stored occurrence
    (newest write — the :data:`~repro.build.canonical.DUPLICATE_POLICY`).
    """
    stored = as_index_array(stored)
    query = as_index_array(query)
    q = query.shape[0]
    n = stored.shape[0]
    found = np.zeros(q, dtype=bool)
    positions = np.empty(q, dtype=np.intp)
    counter.charge_comparisons(n * q, note=note)
    for i in range(q):
        hits = np.flatnonzero(stored == query[i])
        if hits.size:
            found[i] = True
            positions[i] = hits[-1]
    return found, positions[found]


def scan_coords_faithful(
    stored_coords: np.ndarray,
    query_coords: np.ndarray,
    counter: OpCounter,
    *,
    note: str,
) -> tuple[np.ndarray, np.ndarray]:
    """O(n * q) coordinate-tuple scan (COO read, Table I row 1).

    Per query the first dimension is compared against all ``n`` stored
    points; surviving candidates are refined on the remaining dimensions
    (an early-mismatch-rejection scan — the same O(n) per query as a naive
    tuple walk, and what a reasonable C implementation does).
    """
    stored_coords = as_index_array(stored_coords)
    query_coords = as_index_array(query_coords)
    q = query_coords.shape[0]
    n, d = stored_coords.shape if stored_coords.ndim == 2 else (0, 0)
    found = np.zeros(q, dtype=bool)
    positions = np.empty(q, dtype=np.intp)
    counter.charge_comparisons(n * q, note=note)
    if n == 0:
        return found, positions[:0]
    first = stored_coords[:, 0]
    for i in range(q):
        cand = np.flatnonzero(first == query_coords[i, 0])
        for dim in range(1, d):
            if cand.size == 0:
                break
            cand = cand[stored_coords[cand, dim] == query_coords[i, dim]]
        if cand.size:
            found[i] = True
            positions[i] = cand[-1]
    return found, positions[found]


def box_hits_by_address(
    stored: np.ndarray,
    positions: np.ndarray | None,
    shape: Sequence[int],
    box,
    intervals: AddressIntervals,
) -> BoxHits:
    """Box hits among stored addresses in the intervals' order (any
    sequence; ``positions`` their value indices, ``None``: identity).

    The addresses inside ``intervals`` are the hits when the intervals
    are exact; coarse intervals delinearize the survivors and mask them
    with ``box``.  Row-major hits come back as addresses, others as
    coordinates.
    """
    inside = intervals.select(stored)
    stored = stored[inside]
    positions = inside if positions is None else positions[inside]
    row_major = intervals.order == DEFAULT_ADDRESS_ORDER
    if row_major and intervals.exact:
        return BoxHits(positions, addresses=stored)
    coords = delinearize_order(stored, shape, intervals.order, validate=False)
    if not intervals.exact:
        keep = np.flatnonzero(box.contains_points(coords))
        stored, positions, coords = stored[keep], positions[keep], coords[keep]
    if row_major:
        return BoxHits(positions, addresses=stored)
    return BoxHits(positions, coords=coords)


def flatten_ranges(
    starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``arange(starts[j], ends[j])`` for all j.

    Returns ``(flat_ids, owner)`` where ``owner[k]`` is the range index
    that produced ``flat_ids[k]``.
    """
    lens = (ends - starts).astype(np.int64)
    lens = np.maximum(lens, 0)
    total = int(lens.sum())
    if total == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    offsets = np.zeros(lens.shape[0], dtype=np.int64)
    np.cumsum(lens[:-1], out=offsets[1:])
    flat = np.repeat(starts.astype(np.int64) - offsets, lens)
    flat += np.arange(total, dtype=np.int64)
    owner = np.repeat(np.arange(lens.shape[0], dtype=np.int64), lens)
    return flat, owner


def require_buffers(
    payload: Mapping[str, np.ndarray], names: Sequence[str], fmt_name: str
) -> None:
    """Validate that a payload carries the buffers a format expects."""
    missing = [n for n in names if n not in payload]
    if missing:
        raise FormatError(
            f"{fmt_name} payload missing buffers {missing}; has "
            f"{sorted(payload)}"
        )


def linearize_for_format(
    coords: np.ndarray,
    shape: Sequence[int],
    counter: OpCounter,
    *,
    note: str,
    order: str = "row_major",
) -> np.ndarray:
    """Linearize (in ``order``'s space) and charge ``n * d`` transforms."""
    coords = as_index_array(coords)
    counter.charge_transforms(coords.shape[0] * max(1, coords.shape[1]), note=note)
    return linearize_order(coords, shape, order, validate=False)


def meta_addr_order(meta: Mapping[str, Any] | None) -> str:
    """Address order a payload's metadata declares (row-major default).

    Order-bearing formats (LINEAR, COO-SORTED) tag non-default orders in
    their ``meta`` under ``"addr_order"``; absence means row-major, which
    keeps every pre-existing fragment readable and byte-identical.
    """
    if not meta:
        return "row_major"
    return meta.get("addr_order", "row_major")


def empty_read(q: int) -> ReadResult:
    """A ReadResult for a query against an empty payload."""
    return ReadResult(
        found=np.zeros(q, dtype=bool), value_positions=np.empty(0, dtype=np.intp)
    )
