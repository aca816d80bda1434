"""COO — the unsorted coordinate-list baseline (paper §II-A).

BUILD is O(1): the input *is* the organization (the coordinate buffer is
serialized as-is, no sort, no ``map``).  READ is O(n * q): with no ordering
to exploit, every query walks the whole stored buffer.  Space is O(n * d)
indices — the largest of all organizations, which is what makes COO lose its
build-time advantage once the fragment has to be written to the filesystem
(Table III discussion).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ..core.costmodel import NULL_COUNTER, OpCounter
from ..core.dtypes import as_index_array
from ..core.linearize import linearize
from .base import (
    AddressProbeFormat,
    BuildResult,
    ReadResult,
    empty_read,
    match_addresses,
    require_buffers,
    scan_coords_faithful,
)


class COOFormat(AddressProbeFormat):
    """Unsorted coordinate list."""

    name = "COO"
    reorders_values = False

    def build(
        self,
        coords: np.ndarray,
        shape: Sequence[int],
        *,
        counter: OpCounter = NULL_COUNTER,
    ) -> BuildResult:
        coords = as_index_array(coords)
        # O(1): the buffer is adopted verbatim; only the serialization layer
        # will touch the bytes.  No map vector is produced.
        return BuildResult(payload={"coords": coords}, perm=None, meta={})

    def read_addresses(self, payload, meta, shape, addresses, *, memo=None):
        require_buffers(payload, ["coords"], self.name)
        stored = payload["coords"]
        if stored.shape[0] == 0 or addresses.shape[0] == 0:
            return empty_read(addresses.shape[0])
        stored_addr = None if memo is None else memo.get("coo.addresses")
        if stored_addr is None or stored_addr.shape[0] != stored.shape[0]:
            stored_addr = linearize(stored, shape, validate=False)
            if memo is not None:
                memo["coo.addresses"] = stored_addr
        found, positions = match_addresses(stored_addr, addresses, memo=memo)
        return ReadResult(found=found, value_positions=positions)

    def decode(
        self,
        payload: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
        shape: Sequence[int],
    ) -> np.ndarray:
        require_buffers(payload, ["coords"], self.name)
        return as_index_array(payload["coords"])

    def read_faithful(
        self,
        payload: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
        shape: Sequence[int],
        query_coords: np.ndarray,
        *,
        counter: OpCounter = NULL_COUNTER,
    ) -> ReadResult:
        require_buffers(payload, ["coords"], self.name)
        query = self.validate_query(query_coords, shape)
        stored = payload["coords"]
        if stored.shape[0] == 0 or query.shape[0] == 0:
            return empty_read(query.shape[0])
        found, positions = scan_coords_faithful(
            stored, query, counter, note="COO.read scan"
        )
        return ReadResult(found=found, value_positions=positions)
