"""Read-side query planner: zone maps + spatial fragment index.

Algorithm 3's READ must "discover fragments overlapping the query box".
The seed implementation is a linear ``bbox.intersects`` scan over every
manifest entry followed by an unconditional load + decode of every
overlapping fragment.  This module supplies the two metadata structures
the store composes into a :class:`QueryPlan` before any fragment file is
touched:

:class:`ZoneMap`
    Per-fragment range metadata over the *global* row-major linear address
    space (ALTO's observation: the linearized address is a total order, so
    cheap range metadata over it prunes work before any decode).  A zone
    map records ``addr_min`` / ``addr_max`` plus a coarse fixed-width
    address histogram (:data:`ZONE_HIST_BUCKETS` buckets).  Point queries
    linearize once and drop every fragment whose zone map provably
    excludes all query addresses; box queries decompose once into address
    intervals and drop fragments whose zone map misses every interval it
    spans (in row-major order, the intervals' hull ``[lin(origin),
    lin(end - 1)]``: addresses are monotone in every coordinate, so it
    bounds every cell of *any* box).

:class:`FragmentIndex`
    Per-dimension sorted interval arrays over the manifest bounding boxes
    (classic searchsorted stabbing).  ``candidates(box)`` returns exactly
    the fragments ``Box.intersects`` would keep — bit-identical pruning —
    in O(d·(log F + F/8)) vectorized work instead of an O(F) Python loop.
    The index is rebuilt lazily on every manifest generation bump
    (:class:`QueryPlanner` caches one index per generation).

Both structures are *sound* (they never prune a fragment that could hold
a result) but deliberately lossy in the other direction: a fragment that
survives the plan may still contain none of the queried points.  The
format READ kernels remain the ground truth.

The WAL tail overlay needs no zone map: it is one address-sorted run,
so point reads cut its slice of the sorted query keys and box reads its
slice of the box's row-major intervals (:class:`QueryKeys`).

Planner decisions are observable (see :mod:`repro.obs`):

``store.plan.fragments_pruned_index``
    fragments dropped by the bbox interval index,
``store.plan.fragments_pruned_zonemap``
    fragments dropped by zone-map address pruning,
``store.plan.index_rebuilds``
    fragment-index rebuilds (one per generation actually queried),
``store.plan.zone_backfilled``
    zone maps lazily computed for pre-zone-map manifests,
``store.plan.crc_memo_hits``
    whole-file CRC checks skipped by ``crc_mode="once"`` memoization.

``FragmentStore.explain(query)`` returns the :class:`QueryPlan` a read
would use without executing it; ``repro stats --plan`` renders the
counters above.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..core.boundary import Box, extract_boundary
from ..core.dtypes import INDEX_DTYPE, as_index_array
from ..core.errors import ShapeError
from ..core.linearize import (
    DEFAULT_ADDRESS_ORDER,
    AddressIntervals,
    alto_box_intervals,
    fits_addr_order,
    linearize_order,
    row_major_box_intervals,
)
from ..core.sorting import stable_argsort
from ..obs import counter_add

#: Number of fixed-width buckets in a zone map's coarse address histogram.
#: 16 buckets cost ~130 bytes of JSON per fragment and already separate
#: disjoint row bands well; the histogram only ever needs to answer
#: "is this bucket provably empty?".
ZONE_HIST_BUCKETS = 16


@dataclass(frozen=True)
class ZoneMap:
    """Linear-address range metadata for one fragment.

    ``addr_min`` / ``addr_max`` are the smallest and largest *global*
    row-major addresses stored in the fragment (inclusive).  ``hist``
    counts points per fixed-width address bucket over that span; bucket
    ``i`` covers ``[addr_min + i*width, addr_min + (i+1)*width)`` with
    ``width = ceil(span / ZONE_HIST_BUCKETS)``.  Counts are informational
    (``explain`` output); pruning only consults zero vs non-zero.
    """

    addr_min: int
    addr_max: int
    hist: tuple[int, ...]

    @property
    def bucket_width(self) -> int:
        """Width of one histogram bucket in address units (Python int —
        the span of a near-full uint64 shape overflows ``np.uint64``
        arithmetic, arbitrary precision does not)."""
        span = self.addr_max - self.addr_min + 1
        return -(-span // max(1, len(self.hist)))

    @classmethod
    def from_addresses(
        cls, addresses: np.ndarray, *, assume_sorted: bool = False
    ) -> "ZoneMap | None":
        """Build a zone map from a fragment's global address vector.

        ``assume_sorted=True`` (the write path — ``CanonicalCoords``
        hands over the canonical sort) takes min/max from the ends
        instead of scanning.  Returns ``None`` for an empty vector: an
        empty fragment has no address range to prune on.
        """
        a = np.asarray(addresses)
        if a.size == 0:
            return None
        if assume_sorted:
            amin, amax = int(a[0]), int(a[-1])
        else:
            amin, amax = int(a.min()), int(a.max())
        span = amax - amin + 1
        width = -(-span // ZONE_HIST_BUCKETS)
        n_buckets = -(-span // width)
        buckets = (
            (a.astype(INDEX_DTYPE) - INDEX_DTYPE.type(amin))
            // INDEX_DTYPE.type(width)
        ).astype(np.intp)
        hist = np.bincount(buckets, minlength=n_buckets)
        return cls(amin, amax, tuple(int(c) for c in hist))

    # -- manifest (de)serialization ------------------------------------

    def to_json(self) -> dict[str, Any]:
        return {
            "addr_min": self.addr_min,
            "addr_max": self.addr_max,
            "hist": list(self.hist),
        }

    @classmethod
    def from_json(cls, obj: Any) -> "ZoneMap | None":
        """Parse a manifest ``"zone"`` entry; tolerant of ``None`` and of
        malformed entries (a damaged zone map degrades to "no pruning",
        never to a failed open)."""
        if not isinstance(obj, dict):
            return None
        try:
            return cls(
                addr_min=int(obj["addr_min"]),
                addr_max=int(obj["addr_max"]),
                hist=tuple(int(c) for c in obj.get("hist", ())),
            )
        except (KeyError, TypeError, ValueError):
            return None

    # -- pruning predicates --------------------------------------------

    def overlaps_range(self, lo: int, hi: int) -> bool:
        """Whether any stored address *may* fall in ``[lo, hi]``.

        Consults the range first, then the histogram buckets the range
        touches — a box whose address envelope straddles an empty middle
        bucket is still pruned.
        """
        lo, hi = int(lo), int(hi)
        if hi < self.addr_min or lo > self.addr_max:
            return False
        if not self.hist:
            return True
        width = self.bucket_width
        b_lo = max(0, (max(lo, self.addr_min) - self.addr_min) // width)
        b_hi = min(
            len(self.hist) - 1,
            (min(hi, self.addr_max) - self.addr_min) // width,
        )
        return any(self.hist[b_lo:b_hi + 1])

    def may_contain_any(self, sorted_addresses: np.ndarray) -> bool:
        """Whether any of the (ascending) query addresses *may* be stored.

        Clips the query vector to ``[addr_min, addr_max]`` with two
        binary searches, then tests the surviving addresses against the
        histogram's non-empty buckets.
        """
        if sorted_addresses.size == 0:
            return False
        lo = int(np.searchsorted(sorted_addresses, self.addr_min, side="left"))
        hi = int(np.searchsorted(sorted_addresses, self.addr_max, side="right"))
        return lo < hi and self.occupied(sorted_addresses[lo:hi])

    def occupied(self, window: np.ndarray) -> bool:
        """Whether any address of ``window`` — all inside ``[addr_min,
        addr_max]`` — falls in a non-empty histogram bucket."""
        if not self.hist:
            return True
        window = window.astype(INDEX_DTYPE, copy=False)
        buckets = (
            (window - INDEX_DTYPE.type(self.addr_min))
            // INDEX_DTYPE.type(self.bucket_width)
        ).astype(np.intp)
        occupancy = np.asarray(self.hist, dtype=np.int64) > 0
        return bool(occupancy[np.minimum(buckets, len(self.hist) - 1)].any())


def _zone_prune_points(
    frags: list[Any], keys: QueryKeys
) -> tuple[list[Any], bool]:
    """Zone stage of a point read: per address order, two
    ``searchsorted`` calls place every candidate's ``[addr_min,
    addr_max]`` in the sorted keys; only ranges holding a key pay the
    histogram test.  Returns the survivors and whether a zone was read."""
    keep = [True] * len(frags)
    used = False
    for order, members in _zoned_by_order(frags).items():
        pair = keys.keys(order)
        if pair is None:
            continue
        sa = pair[0]
        used = True
        zones = [frags[i].zone for i in members]
        lo = sa.searchsorted(
            np.array([z.addr_min for z in zones], dtype=INDEX_DTYPE), "left"
        )
        hi = sa.searchsorted(
            np.array([z.addr_max for z in zones], dtype=INDEX_DTYPE), "right"
        )
        for i, zone, s, e in zip(members, zones, lo.tolist(), hi.tolist()):
            keep[i] = s < e and zone.occupied(sa[s:e])
    return [f for f, k in zip(frags, keep) if k], used


def _zone_prune_box(
    frags: list[Any], keys: QueryKeys | None
) -> tuple[list[Any], bool]:
    """Zone stage of a box read, per address order.  Row-major zones are
    tested against the intervals' hull ``[lin(origin), lin(end - 1)]``.
    ALTO zones meet only the intervals their ``[addr_min, addr_max]``
    spans, located for every candidate by two ``searchsorted`` calls.
    Returns the survivors and whether a zone was read."""
    keep = [True] * len(frags)
    used = False
    for order, members in _zoned_by_order(frags).items():
        iv = None if keys is None else keys.intervals(order)
        if iv is None:
            continue
        used = True
        zones = [frags[i].zone for i in members]
        if order == DEFAULT_ADDRESS_ORDER:
            hull = (int(iv.lo[0]), int(iv.hi[-1])) if len(iv) else None
            for i, zone in zip(members, zones):
                keep[i] = hull is not None and zone.overlaps_range(*hull)
            continue
        first = iv.hi.searchsorted(
            np.array([z.addr_min for z in zones], dtype=INDEX_DTYPE), "left"
        )
        stop = iv.lo.searchsorted(
            np.array([z.addr_max for z in zones], dtype=INDEX_DTYPE), "right"
        )
        for i, zone, s, e in zip(members, zones, first.tolist(), stop.tolist()):
            keep[i] = any(
                zone.overlaps_range(lo, hi)
                for lo, hi in zip(iv.lo[s:e].tolist(), iv.hi[s:e].tolist())
            )
    return [f for f, k in zip(frags, keep) if k], used


def _zoned_by_order(frags: list[Any]) -> dict[str, list[int]]:
    """Indices of the fragments that carry a zone map, per address order."""
    by_order: dict[str, list[int]] = {}
    for i, frag in enumerate(frags):
        if getattr(frag, "zone", None) is not None:
            order = getattr(frag, "addr_order", DEFAULT_ADDRESS_ORDER)
            by_order.setdefault(order, []).append(i)
    return by_order


def box_envelope(
    box: Box, shape: Sequence[int], order: str = DEFAULT_ADDRESS_ORDER
) -> tuple[int, int] | None:
    """Inclusive ``[lin(origin), lin(end - 1)]`` of ``box`` clipped to
    ``shape`` in ``order``'s space (``None``: empty clip).  Both orders
    are monotone in every coordinate, so it holds every cell of the box."""
    origin = np.maximum(np.asarray(box.origin, dtype=np.int64), 0)
    end = np.minimum(
        np.asarray(box.end, dtype=np.int64), np.asarray(shape, dtype=np.int64)
    )
    if bool(np.any(end <= origin)):
        return None
    corners = np.array([origin, end - 1], dtype=np.uint64)
    lo, hi = linearize_order(corners, shape, order, validate=False)
    return int(lo), int(hi)


#: Interval budget of a box decomposition, per order.  ALTO's BIGMIN
#: ranges coarsen softly past it; row-major decompositions with more
#: leading-mode prefixes fall back to per-prefix sub-box envelopes.
MAX_INTERVALS = {"alto": 64, DEFAULT_ADDRESS_ORDER: 4096}


class QueryKeys:
    """Per-address-order query keys, computed lazily and memoized.

    A mixed-order store prunes each fragment in the address space its
    zone map was built over (the fragment's ``addr_order`` tag).  One
    instance serves every stage of one READ, so a single-order store
    pays exactly one linearize + sort (points) or box decomposition:

    * point queries set aside rows outside the shape (not-found
      everywhere; linearized they would alias in-shape cells), then
      linearize the rest once per order into :meth:`keys`' ``(sorted
      keys, permutation)`` pair — the zone stage, the probe slices, the
      WAL-tail overlay and the shard router all cut that one vector;
    * box queries decompose once per order into ascending address
      intervals (:meth:`intervals`) — in row-major order one interval
      per cell of the leading modes the box covers in part (:func:`repro.
      core.linearize.row_major_box_intervals`), in ALTO order
      O(address bits) BIGMIN-style ranges (:func:`repro.core.linearize.
      alto_box_ranges`).  The zone stage, every fragment probe and the
      WAL-tail slice cut those arrays.
    """

    @classmethod
    def for_points(
        cls, shape: Sequence[int], query_coords: np.ndarray
    ) -> QueryKeys:
        """Validate a ``(q, d)`` point query and wrap it."""
        query = as_index_array(query_coords)
        if query.ndim != 2 or query.shape[1] != len(shape):
            raise ShapeError("query coords must be (q, d) matching the store")
        return cls(shape, points=query)

    def __init__(
        self,
        shape: Sequence[int],
        *,
        points: np.ndarray | None = None,
        box: Box | None = None,
    ) -> None:
        self.shape = tuple(int(m) for m in shape)
        #: The ``(q, d)`` query rows (point queries only).
        self.points = points
        #: Rows inside the shape, ascending (``None``: every row).
        self.rows: np.ndarray | None = None
        if points is not None:
            inside = np.all(
                points < np.asarray(self.shape, dtype=np.uint64), axis=1
            )
            if not inside.all():
                self.rows = np.flatnonzero(inside)
        if box is not None and box.ndim != len(self.shape):
            raise ShapeError("query box must have one mode per store mode")
        #: The query box (box queries only).
        self.box = box
        self._keys: dict[str, tuple[np.ndarray, np.ndarray] | None] = {}
        self._intervals: dict[str, AddressIntervals | None] = {}

    def _inside(self) -> np.ndarray:
        return self.points if self.rows is None else self.points[self.rows]

    def bbox(self) -> Box:
        """Bounding box of the in-shape query rows (the plan's bbox key)."""
        return extract_boundary(self._inside())

    def keys(self, order: str) -> tuple[np.ndarray, np.ndarray] | None:
        """``(sorted keys, permutation)`` of the in-shape rows in
        ``order``'s space (``None`` when the shape does not fit that
        order or this is a box query)."""
        if self.points is None:
            return None
        if order not in self._keys:
            if not fits_addr_order(self.shape, order):
                self._keys[order] = None
            else:
                addrs = linearize_order(
                    self._inside(), self.shape, order, validate=False
                )
                perm = stable_argsort(addrs)
                self._keys[order] = (
                    addrs[perm], perm if self.rows is None else self.rows[perm]
                )
        return self._keys[order]

    def between(
        self, order: str, lo: int, hi: int
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """The sorted keys inside ``[lo, hi]`` and their query rows —
        two binary searches, one contiguous slice."""
        keys = self.keys(order)
        if keys is None:
            return None
        sorted_keys, perm = keys
        s = int(sorted_keys.searchsorted(INDEX_DTYPE.type(lo), side="left"))
        e = int(sorted_keys.searchsorted(INDEX_DTYPE.type(hi), side="right"))
        return sorted_keys[s:e], perm[s:e]

    def band(self, order: str, s: int, e: int) -> QueryKeys:
        """Sorted keys ``[s, e)`` as a query of their own, rows in key
        order (its results map back through ``keys(order)[1][s:e]``)."""
        sorted_keys, perm = self.keys(order)
        sub = QueryKeys(self.shape, points=self.points[perm[s:e]])
        sub._keys[order] = (sorted_keys[s:e], np.arange(e - s))
        return sub

    def intervals(self, order: str) -> AddressIntervals | None:
        """The box as ascending address intervals in ``order``'s space
        (``None`` when the shape does not fit that order or this is a
        point query; empty arrays for a box outside the shape)."""
        if self.box is None:
            return None
        if order not in self._intervals:
            iv = None
            if fits_addr_order(self.shape, order):
                decompose = (
                    alto_box_intervals if order == "alto"
                    else row_major_box_intervals
                )
                iv = decompose(
                    self.box.origin, self.box.end, self.shape,
                    max_ranges=MAX_INTERVALS[order],
                )
            self._intervals[order] = iv
        return self._intervals[order]


class FragmentIndex:
    """Searchsorted interval stabbing over the manifest bounding boxes.

    For each dimension the fragment origins and (exclusive) ends are kept
    in two sorted arrays with their argsort permutations.  A query box
    *excludes* fragment ``f`` in dimension ``j`` iff
    ``f.origin[j] >= q.end[j]`` or ``f.end[j] <= q.origin[j]`` — each a
    contiguous suffix/prefix of the sorted arrays, located by one binary
    search and cleared from a boolean survivor mask.  What remains is
    exactly the ``Box.intersects`` survivor set (empty fragment boxes are
    masked out up front, matching ``intersects`` returning ``False`` for
    them), so swapping the linear scan for the index can never change
    query results.
    """

    def __init__(self, fragments: Sequence[Any]):
        self.fragments = tuple(fragments)
        n = len(self.fragments)
        self.ndim = self.fragments[0].bbox.ndim if n else 0
        #: Fragments lacking a zone map despite holding points — the
        #: store's lazy-backfill trigger for pre-zone-map manifests.
        self.stale_zone_count = sum(
            1
            for f in self.fragments
            if f.nnz and getattr(f, "zone", None) is None
        )
        self._alive = np.ones(n, dtype=bool)
        self._starts: list[np.ndarray] = []
        self._ends: list[np.ndarray] = []
        self._start_order: list[np.ndarray] = []
        self._end_order: list[np.ndarray] = []
        for f_i, f in enumerate(self.fragments):
            if f.bbox.is_empty():
                self._alive[f_i] = False
        for j in range(self.ndim):
            starts = np.fromiter(
                (f.bbox.origin[j] for f in self.fragments),
                dtype=np.int64,
                count=n,
            )
            ends = np.fromiter(
                (f.bbox.end[j] for f in self.fragments),
                dtype=np.int64,
                count=n,
            )
            s_order = np.argsort(starts, kind="stable")
            e_order = np.argsort(ends, kind="stable")
            self._starts.append(starts[s_order])
            self._ends.append(ends[e_order])
            self._start_order.append(s_order)
            self._end_order.append(e_order)

    def __len__(self) -> int:
        return len(self.fragments)

    def candidates(self, query_box: Box) -> np.ndarray:
        """Indices (ascending) of fragments whose bbox intersects the box."""
        if not self.fragments or query_box.is_empty():
            return np.empty(0, dtype=np.intp)
        alive = self._alive.copy()
        for j in range(self.ndim):
            q_origin = int(query_box.origin[j])
            q_end = q_origin + int(query_box.size[j])
            # Fragments starting at/after the query's end cannot overlap.
            k = int(self._starts[j].searchsorted(q_end, side="left"))
            alive[self._start_order[j][k:]] = False
            # Fragments ending at/before the query's origin cannot overlap.
            k = int(self._ends[j].searchsorted(q_origin, side="right"))
            alive[self._end_order[j][:k]] = False
        return alive.nonzero()[0]


@dataclass
class QueryPlan:
    """One READ's fragment visit decision, stage by stage.

    ``fragments`` is the visit list in manifest (append) order — the
    merge relies on that order for newest-wins duplicate semantics.
    ``pruned_bbox`` counts fragments dropped because their bounding box
    misses the query box (the seed's only pruning — the pre-existing
    ``store.fragments_pruned`` counter keeps exactly this meaning);
    ``pruned_zonemap`` counts fragments additionally dropped by
    zone-map address pruning, which only exists with the planner on.
    ``codec_bytes`` maps stored codec chain tags to the bytes-on-disk
    the visit list will touch per chain (filled by
    ``FragmentStore.explain`` from the manifest's per-fragment codec
    records) — pruned fragments contribute nothing, which is exactly
    the "pruned fragments never decompress" guarantee made visible.
    """

    kind: str  # "points" | "box"
    total_fragments: int
    fragments: list[Any] = field(default_factory=list)
    pruned_bbox: int = 0
    pruned_zonemap: int = 0
    used_index: bool = False
    used_zonemaps: bool = False
    codec_bytes: dict[str, int] | None = None
    #: The store's active address order (``None`` on legacy call paths).
    addr_order: str | None = None
    #: Address intervals the query decomposed into, per order actually
    #: consulted (box queries; ``{"alto": 7, "row_major": 1}``-shaped).
    intervals: dict[str, int] | None = None

    def summary(self) -> str:
        """Human-readable plan rendering (``FragmentStore.explain``)."""
        after_bbox = self.total_fragments - self.pruned_bbox
        stage1 = "bbox-index" if self.used_index else "bbox-scan"
        lines = [
            f"plan: {self.kind} query over "
            f"{self.total_fragments} fragment(s)",
        ]
        if self.addr_order is not None:
            order_line = f"  {'order':>10s}: {self.addr_order}"
            if self.intervals:
                per_order = ", ".join(
                    f"{order}={n}"
                    for order, n in sorted(self.intervals.items())
                )
                order_line += f" (intervals: {per_order})"
            lines.append(order_line)
        lines.append(
            f"  {stage1:>10s}: {self.total_fragments} -> {after_bbox} "
            f"({self.pruned_bbox} pruned)"
        )
        if self.used_zonemaps:
            lines.append(
                f"  {'zone-map':>10s}: {after_bbox} -> "
                f"{len(self.fragments)} ({self.pruned_zonemap} pruned)"
            )
        names = ", ".join(f.path.name for f in self.fragments[:8])
        if len(self.fragments) > 8:
            names += f", ... (+{len(self.fragments) - 8} more)"
        lines.append(f"  visit: {names or '(none)'}")
        if self.codec_bytes:
            per_codec = ", ".join(
                f"{tag}={nbytes}B"
                for tag, nbytes in sorted(self.codec_bytes.items())
            )
            lines.append(f"  codecs: {per_codec}")
        return "\n".join(lines)


class QueryPlanner:
    """Per-store planner state: one cached :class:`FragmentIndex`.

    The index is derived purely from the manifest fragment list, which
    only changes under a generation bump, so caching per generation makes
    rebuilds O(mutations) rather than O(reads).  Thread-safe: concurrent
    readers share one build under an internal lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._index: FragmentIndex | None = None
        self._generation: int | None = None

    def index_for(
        self, fragments: Sequence[Any], generation: int
    ) -> FragmentIndex:
        """The interval index for ``fragments`` at ``generation``."""
        with self._lock:
            if self._index is None or self._generation != generation:
                self._index = FragmentIndex(fragments)
                self._generation = generation
                counter_add("store.plan.index_rebuilds")
            return self._index

    def plan(
        self,
        fragments: Sequence[Any],
        generation: int,
        query_box: Box,
        *,
        kind: str,
        enabled: bool = True,
        keys: QueryKeys | None = None,
        addr_order: str | None = None,
    ) -> QueryPlan:
        """Build the visit plan for one READ.

        With ``enabled=False`` this is exactly the seed's linear
        ``bbox.intersects`` scan (the plan-off reference the differential
        harness compares against).  Otherwise the interval index supplies
        the bbox survivors and, when the caller provides ``keys`` (a
        :class:`QueryKeys`), zone maps prune further: every surviving
        fragment is tested against the query keys expressed in *its own*
        address order (``frag.addr_order``), so mixed-order stores prune
        correctly — and ALTO box queries prune per contiguous interval
        instead of one giant span.  Fragments without a zone map are
        never pruned by the zone stage.  ``addr_order`` is the store's
        active order, carried into the plan for ``explain``.
        """
        total = len(fragments)
        if not enabled:
            keep = [f for f in fragments if f.bbox.intersects(query_box)]
            return QueryPlan(
                kind=kind,
                total_fragments=total,
                fragments=keep,
                pruned_bbox=total - len(keep),
                addr_order=addr_order,
            )
        index = self.index_for(fragments, generation)
        cand = [index.fragments[i] for i in index.candidates(query_box)]
        if keys is not None and keys.points is not None:
            keep, used_zone = _zone_prune_points(cand, keys)
        else:
            keep, used_zone = _zone_prune_box(cand, keys)
        intervals = None
        if keys is not None:
            counted = {
                order: len(iv)
                for order, iv in keys._intervals.items()
                if iv is not None
            }
            intervals = counted or None
        return QueryPlan(
            kind=kind,
            total_fragments=total,
            fragments=keep,
            pruned_bbox=total - len(cand),
            pruned_zonemap=len(cand) - len(keep),
            used_index=True,
            used_zonemaps=used_zone,
            addr_order=addr_order,
            intervals=intervals,
        )
