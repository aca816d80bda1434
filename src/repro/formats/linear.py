"""LINEAR — row-major linearized addresses (paper §II-B).

BUILD pays O(n * d) to transform every coordinate into a single linear
address; space drops to O(n) indices — a d-fold reduction over COO that the
paper identifies as the best overall balance (Table IV winner).  READ of the
unsorted variant is still an O(n * q) scan, but over scalars instead of
d-tuples.

Overflow of the linear address on extremely large tensors is the format's
stated risk; :func:`repro.core.dtypes.check_linearizable` rejects such
shapes, and :mod:`repro.storage.blocks` provides the paper's block-local
mitigation.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ..core.costmodel import NULL_COUNTER, OpCounter
from ..core.dtypes import as_index_array
from ..core.linearize import DEFAULT_ADDRESS_ORDER
from ..core.sorting import stable_argsort
from .base import (
    AddressProbeFormat,
    BuildResult,
    ReadResult,
    box_hits_by_address,
    empty_read,
    linearize_for_format,
    match_addresses,
    meta_addr_order,
    require_buffers,
    scan_addresses_faithful,
)


class LinearFormat(AddressProbeFormat):
    """Unsorted linear-address list."""

    name = "LINEAR"
    reorders_values = False
    payload_orders = ("row_major", "alto")

    def build(
        self,
        coords: np.ndarray,
        shape: Sequence[int],
        *,
        counter: OpCounter = NULL_COUNTER,
    ) -> BuildResult:
        addresses = linearize_for_format(
            coords, shape, counter, note="LINEAR.build transform"
        )
        return BuildResult(payload={"addresses": addresses}, perm=None, meta={})

    def build_canonical(self, canon, *, counter=NULL_COUNTER) -> BuildResult:
        # Same charges as build (Table I counts the transform regardless
        # of whether the pipeline cached it); the addresses come from the
        # shared canonical intermediate.  The payload adopts the
        # canonical's address order; meta records it only when it is not
        # the row-major default (legacy fragments stay byte-identical).
        counter.charge_transforms(
            canon.n * max(1, canon.d), note="LINEAR.build transform"
        )
        meta = (
            {}
            if canon.addr_order == DEFAULT_ADDRESS_ORDER
            else {"addr_order": canon.addr_order}
        )
        return BuildResult(
            payload={"addresses": canon.addresses}, perm=None, meta=meta
        )

    def extract_addresses(self, payload, meta, shape, *, order="row_major"):
        if meta_addr_order(meta) != order:
            # Stored in a different address space: delinearize + re-linearize
            # via the generic decode path.
            return super().extract_addresses(payload, meta, shape, order=order)
        # The payload *is* the address vector: no decode, no linearize.
        require_buffers(payload, ["addresses"], self.name)
        stored = payload["addresses"]
        value_order = stable_argsort(stored)
        return stored[value_order], value_order

    def read_addresses(self, payload, meta, shape, addresses, *, memo=None):
        require_buffers(payload, ["addresses"], self.name)
        stored = payload["addresses"]
        if stored.shape[0] == 0 or addresses.shape[0] == 0:
            return empty_read(addresses.shape[0])
        found, positions = match_addresses(stored, addresses, memo=memo)
        return ReadResult(found=found, value_positions=positions)

    def box_probe(self, payload, meta, shape, box, intervals=None):
        """The stored addresses against the box's intervals in the
        payload's order — no decode.  Only coarse intervals or an ALTO
        payload delinearize, and then only the survivors."""
        if intervals is None or intervals.order != meta_addr_order(meta):
            return super().box_probe(payload, meta, shape, box)
        require_buffers(payload, ["addresses"], self.name)
        return box_hits_by_address(
            as_index_array(payload["addresses"]), None, shape, box, intervals
        )

    def decode(
        self,
        payload: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
        shape: Sequence[int],
    ) -> np.ndarray:
        from ..core.linearize import delinearize_order

        require_buffers(payload, ["addresses"], self.name)
        return delinearize_order(
            payload["addresses"], shape, meta_addr_order(meta), validate=False
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
        require_buffers(payload, ["addresses"], self.name)
        query = self.validate_query(query_coords, shape)
        stored = payload["addresses"]
        if stored.shape[0] == 0 or query.shape[0] == 0:
            return empty_read(query.shape[0])
        query_addr = linearize_for_format(
            query, shape, counter, note="LINEAR.read transform",
            order=meta_addr_order(meta),
        )
        found, positions = scan_addresses_faithful(
            stored, query_addr, counter, note="LINEAR.read scan"
        )
        return ReadResult(found=found, value_positions=positions)
