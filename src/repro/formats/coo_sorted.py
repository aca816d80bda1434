"""Sorted-COO — the trade-off variant the paper discusses but sets aside.

§II-A: "Sorting the coordinates can reduce the complexity of read to
O(max{n, q}), but it may take extra time: O(n log n) to sort before write …
there are some trade-offs to consider here."  The paper benchmarks only the
unsorted COO; we implement the sorted variant as well so the trade-off can
be measured (``benchmarks/bench_ablation_sorted_coo.py``).

Points are sorted by row-major linear address; the coordinate tuples
themselves are stored (same O(n * d) space as COO), and READ binary-searches
the address order — O(q log n) in this implementation (the paper's
O(max{n, q}) bound assumes a sorted query buffer merged against the sorted
store; we also provide that merge path for sorted queries).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ..core.costmodel import NULL_COUNTER, OpCounter
from ..core.dtypes import as_index_array
from ..core.linearize import (
    DEFAULT_ADDRESS_ORDER,
    linearize,
    linearize_order,
)
from ..core.sorting import stable_argsort
from .base import (
    AddressProbeFormat,
    BuildResult,
    ReadResult,
    empty_read,
    meta_addr_order,
    require_buffers,
)


class SortedCOOFormat(AddressProbeFormat):
    """Coordinate list sorted by row-major linear address."""

    name = "COO-SORTED"
    reorders_values = True
    payload_orders = ("row_major", "alto")

    def build(
        self,
        coords: np.ndarray,
        shape: Sequence[int],
        *,
        counter: OpCounter = NULL_COUNTER,
    ) -> BuildResult:
        coords = as_index_array(coords)
        n = coords.shape[0]
        addresses = linearize(coords, shape, validate=False)
        counter.charge_transforms(n * max(1, coords.shape[1]),
                                  note="COO-SORTED.build transform")
        counter.charge_sort(n, note="COO-SORTED.build sort")
        perm = stable_argsort(addresses)
        return BuildResult(
            payload={"coords": coords[perm]},
            perm=perm,
            meta={"sorted_by": "linear"},
        )

    def build_canonical(self, canon, *, counter=NULL_COUNTER) -> BuildResult:
        # Charges identical to build; the address sort is read from the
        # shared canonical intermediate instead of recomputed.
        counter.charge_transforms(canon.n * max(1, canon.d),
                                  note="COO-SORTED.build transform")
        counter.charge_sort(canon.n, note="COO-SORTED.build sort")
        # sort_perm derives from canon.addresses, so non-linearizable
        # shapes raise IndexOverflowError exactly as build does.  The
        # payload is the shared sorted-coordinate artifact — one gather
        # per input buffer however many formats consume it.
        perm = canon.sort_perm
        meta = {"sorted_by": "linear"}
        if canon.addr_order != DEFAULT_ADDRESS_ORDER:
            meta["addr_order"] = canon.addr_order
        return BuildResult(
            payload={"coords": canon.sorted_coords},
            perm=perm,
            meta=meta,
        )

    def extract_addresses(self, payload, meta, shape, *, order="row_major"):
        if meta_addr_order(meta) != order:
            # Sorted in a different address space: re-linearize + re-sort.
            return super().extract_addresses(payload, meta, shape, order=order)
        # Stored order is address order already: a free sorted run.
        require_buffers(payload, ["coords"], self.name)
        return (
            linearize_order(payload["coords"], shape, order, validate=False),
            None,
        )

    def decode(
        self,
        payload: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
        shape: Sequence[int],
    ) -> np.ndarray:
        require_buffers(payload, ["coords"], self.name)
        return as_index_array(payload["coords"])

    def read_addresses(self, payload, meta, shape, addresses, *, memo=None):
        require_buffers(payload, ["coords"], self.name)
        stored = payload["coords"]
        if stored.shape[0] == 0 or addresses.shape[0] == 0:
            return empty_read(addresses.shape[0])
        stored_addr = linearize_order(
            stored, shape, meta_addr_order(meta), validate=False
        )
        # side="right" - 1: the last entry of an equal-address run is the
        # newest write (stable build sort keeps input order), per the
        # central duplicate policy.
        pos = np.searchsorted(stored_addr, addresses, side="right")
        found = pos > 0
        pos_idx = np.maximum(pos - 1, 0)
        found &= stored_addr[pos_idx] == addresses
        return ReadResult(
            found=found, value_positions=pos_idx[found].astype(np.intp)
        )

    def read_faithful(
        self,
        payload: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
        shape: Sequence[int],
        query_coords: np.ndarray,
        *,
        counter: OpCounter = NULL_COUNTER,
    ) -> ReadResult:
        """Binary-search read with op accounting (O(q log n) comparisons)."""
        require_buffers(payload, ["coords"], self.name)
        query = self.validate_query(query_coords, shape)
        stored = payload["coords"]
        n, q = stored.shape[0], query.shape[0]
        if n == 0 or q == 0:
            return empty_read(q)
        counter.charge_transforms(q * len(shape), note="COO-SORTED.read transform")
        # q binary probes of a length-n sorted vector.
        counter.charge_comparisons(
            q * max(1, int(np.ceil(np.log2(n + 1)))), note="COO-SORTED.read search"
        )
        return self.read(payload, meta, shape, query)
