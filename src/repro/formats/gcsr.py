"""GCSR++ — Generalized Compressed Sparse Row (paper §II-C, Algorithm 1).

The d-dimensional tensor is folded into a 2D matrix whose row count is the
*smallest* dimension size and whose column count is the product of the rest
(Algorithm 1 line 6); every point is routed through its row-major linear
address (lines 8–9), stably sorted by row (line 12), and packaged with the
classic CSR kernel (line 13).  The payload is ``row_ptr`` + ``col_ind``
(line 14), giving O(n + min{m}) space — nearly LINEAR's footprint.

Note (DESIGN.md §5): the paper's Fig 1(b) values are inconsistent with its
own Algorithm 1; we implement the algorithm text, and our unit tests pin the
self-consistent encoding of the Fig 1 example tensor
(``row_ptr=[0,3,3,5]``, ``col_ind=[1,4,5,7,8]``).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ..core.costmodel import NULL_COUNTER, OpCounter
from ..core.dtypes import as_index_array
from ..core.errors import FormatError
from ..core.linearize import (
    DEFAULT_ADDRESS_ORDER,
    fold_coords_2d,
    fold_shape_2d,
    linearize,
)
from ..core.sorting import stable_argsort
from .base import (
    AddressProbeFormat,
    BuildResult,
    ReadResult,
    box_hits_by_address,
    empty_read,
    flatten_ranges,
    require_buffers,
)
from .csr2d import CSRMatrix, csr_pack, csr_query_scan, csr_query_vectorized


class GCSRFormat(AddressProbeFormat):
    """Generalized CSR over the (min-dim × rest) folding."""

    name = "GCSR++"
    reorders_values = True

    #: Which folded axis is compressed; GCSC++ overrides these.
    _min_dim_as = "rows"
    _ptr_name = "row_ptr"
    _ind_name = "col_ind"

    # ------------------------------------------------------------------

    def _fold(
        self,
        coords: np.ndarray,
        shape: Sequence[int],
        counter: OpCounter,
        note: str,
    ) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
        """Fold to 2D; returns (compressed_coord, other_coord, shape2d).

        For GCSR++ the compressed coordinate is the folded *row*
        (``addr // n_cols``); for GCSC++ it is the folded *column*.
        Charged as ONE transform per point: Table I abstracts the fold
        (Algorithm 1 lines 8–9) as a single pass — the "+ 2n" build term
        and the "+ n" read term count one transform and one packaging
        operation per point, not per dimension.
        """
        coords = as_index_array(coords)
        n, d = coords.shape
        counter.charge_transforms(n, note=note)
        coords2d, shape2d = fold_coords_2d(coords, shape, min_dim_as=self._min_dim_as)
        if self._min_dim_as == "rows":
            return coords2d[:, 0], coords2d[:, 1], shape2d
        return coords2d[:, 1], coords2d[:, 0], shape2d

    def _n_compressed(self, shape2d: tuple[int, int]) -> int:
        return shape2d[0] if self._min_dim_as == "rows" else shape2d[1]

    def _n_other(self, shape2d: tuple[int, int]) -> int:
        return shape2d[1] if self._min_dim_as == "rows" else shape2d[0]

    def _matrix_from_payload(
        self,
        payload: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
    ) -> CSRMatrix:
        require_buffers(payload, [self._ptr_name, self._ind_name], self.name)
        shape2d = tuple(int(v) for v in meta.get("shape2d", ()))
        if len(shape2d) != 2:
            raise FormatError(f"{self.name} metadata missing folded shape2d")
        return CSRMatrix(
            n_compressed=self._n_compressed(shape2d),
            n_other=self._n_other(shape2d),
            indptr=payload[self._ptr_name],
            indices=payload[self._ind_name],
        )

    # ------------------------------------------------------------------

    def build(
        self,
        coords: np.ndarray,
        shape: Sequence[int],
        *,
        counter: OpCounter = NULL_COUNTER,
    ) -> BuildResult:
        coords = as_index_array(coords)
        shape2d = fold_shape_2d(shape, min_dim_as=self._min_dim_as)
        if coords.shape[0] == 0:
            n_comp = self._n_compressed(shape2d)
            return BuildResult(
                payload={
                    self._ptr_name: np.zeros(n_comp + 1, dtype=np.uint64),
                    self._ind_name: np.empty(0, dtype=np.uint64),
                },
                perm=np.empty(0, dtype=np.intp),
                meta={"shape2d": list(shape2d)},
            )
        comp, other, shape2d = self._fold(
            coords, shape, counter, note=f"{self.name}.build fold"
        )
        return self._pack(comp, other, shape2d, counter)

    def _pack(
        self,
        comp: np.ndarray,
        other: np.ndarray,
        shape2d: tuple[int, int],
        counter: OpCounter,
    ) -> BuildResult:
        matrix, perm = csr_pack(
            comp, other, self._n_compressed(shape2d), counter=counter
        )
        return BuildResult(
            payload={
                self._ptr_name: matrix.indptr,
                self._ind_name: matrix.indices,
            },
            perm=perm,
            meta={"shape2d": list(shape2d)},
        )

    def build_canonical(self, canon, *, counter=NULL_COUNTER) -> BuildResult:
        """Fold through the cached linear addresses (Algorithm 1 lines 8–9).

        The fold preserves the global row-major address —
        ``linearize(coords2d, shape2d) == linearize(coords, shape)`` —
        so one divmod of the canonical addresses by the folded column
        count reproduces the fold bit-identically without re-linearizing
        (and without materializing the intermediate ``(n, 2)`` buffer a
        full delinearize would).  The per-row stable sort stays the
        format's own: its tie order (input order within a row) differs
        from the full address order, so it cannot be taken from the
        canonical sort.
        """
        shape2d = fold_shape_2d(canon.shape, min_dim_as=self._min_dim_as)
        if canon.n == 0:
            return self.build(canon.coords, canon.shape, counter=counter)
        counter.charge_transforms(canon.n, note=f"{self.name}.build fold")
        # The fold is defined over *row-major* addresses; an ALTO-ordered
        # canonical caches interleaved addresses, so recompute explicitly.
        if canon.addr_order == "row_major":
            addresses = canon.addresses
        else:
            addresses = linearize(canon.coords, canon.shape, validate=False)
        rows, cols = np.divmod(addresses, np.uint64(shape2d[1]))
        if self._min_dim_as == "rows":
            comp, other = rows, cols
        else:
            comp, other = cols, rows
        return self._pack(comp, other, shape2d, counter)

    def extract_addresses(self, payload, meta, shape, *, order="row_major"):
        """Global addresses straight from the CSR structure (no unfold).

        Since the fold preserves the global row-major address, it is
        recovered as ``row * n_cols + col`` over the folded 2D shape —
        no per-dimension delinearize/linearize round trip.  For GCSR++
        the structure is row-sorted, so the remaining argsort runs on
        nearly-sorted keys (timsort-fast).  Non-row-major target orders
        need the per-dimension coordinates and fall back to the generic
        decode-and-sort.
        """
        if order != "row_major":
            return super().extract_addresses(payload, meta, shape, order=order)
        matrix = self._matrix_from_payload(payload, meta)
        shape2d = tuple(int(v) for v in meta["shape2d"])
        counts = np.diff(matrix.indptr.astype(np.int64))
        compressed = np.repeat(
            np.arange(matrix.n_compressed, dtype=np.uint64), counts
        )
        n_cols = np.uint64(shape2d[1])
        if self._min_dim_as == "rows":
            addresses = compressed * n_cols + matrix.indices
        else:
            addresses = matrix.indices * n_cols + compressed
        order = stable_argsort(addresses)
        return addresses[order], order

    def box_probe(self, payload, meta, shape, box, intervals=None):
        """Each folded GCSR++ row is one contiguous row-major address
        range, so only the rows the box's intervals span are read, as
        addresses ``row * n_cols + col``, and cut by the intervals.
        GCSC++ columns are not contiguous: it keeps the decoding read."""
        if (
            intervals is None
            or intervals.order != DEFAULT_ADDRESS_ORDER
            or self._min_dim_as != "rows"
        ):
            return super().box_probe(payload, meta, shape, box)
        matrix = self._matrix_from_payload(payload, meta)
        n_cols = np.uint64(meta["shape2d"][1])
        # Rows covered by some interval: +1 where a span of rows starts,
        # -1 past where it ends, summed up.
        edges = np.zeros(matrix.n_compressed + 1, dtype=np.int64)
        np.add.at(edges, (intervals.lo // n_cols).astype(np.intp), 1)
        np.add.at(edges, (intervals.hi // n_cols + 1).astype(np.intp), -1)
        rows = np.flatnonzero(np.cumsum(edges[:-1]) > 0)
        indptr = matrix.indptr.astype(np.int64)
        positions, owner = flatten_ranges(indptr[rows], indptr[rows + 1])
        addresses = rows[owner].astype(np.uint64) * n_cols + (
            matrix.indices[positions].astype(np.uint64)
        )
        return box_hits_by_address(addresses, positions, shape, box, intervals)

    def decode(
        self,
        payload: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
        shape: Sequence[int],
    ) -> np.ndarray:
        """Expand the pointer array back to per-point 2D coordinates, then
        unfold through the shared linear address (inverse of the build's
        fold)."""
        from ..core.linearize import delinearize, linearize

        matrix = self._matrix_from_payload(payload, meta)
        shape2d = tuple(int(v) for v in meta["shape2d"])
        counts = np.diff(matrix.indptr.astype(np.int64))
        compressed = np.repeat(
            np.arange(matrix.n_compressed, dtype=np.uint64), counts
        )
        other = matrix.indices
        if self._min_dim_as == "rows":
            coords2d = np.column_stack([compressed, other])
        else:
            coords2d = np.column_stack([other, compressed])
        addresses = linearize(coords2d, shape2d, validate=False)
        return delinearize(addresses, shape, validate=False)

    def read(self, payload, meta, shape, query_coords, *, memo=None):
        # A query outside the shape raises here, as the fold always did.
        query = self.validate_query(query_coords, shape)
        return self.read_addresses(
            payload, meta, shape, linearize(query, shape), memo=memo
        )

    def read_addresses(self, payload, meta, shape, addresses, *, memo=None):
        """The fold as one divmod of the row-major query addresses by the
        folded column count (Algorithm 1 READ line 6)."""
        matrix = self._matrix_from_payload(payload, meta)
        if matrix.nnz == 0 or addresses.shape[0] == 0:
            return empty_read(addresses.shape[0])
        rows, cols = np.divmod(addresses, np.uint64(meta["shape2d"][1]))
        if self._min_dim_as == "rows":
            found, positions = csr_query_vectorized(matrix, rows, cols)
        else:
            found, positions = csr_query_vectorized(matrix, cols, rows)
        return ReadResult(found=found, value_positions=positions)

    def read_faithful(
        self,
        payload: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
        shape: Sequence[int],
        query_coords: np.ndarray,
        *,
        counter: OpCounter = NULL_COUNTER,
    ) -> ReadResult:
        query = self.validate_query(query_coords, shape)
        matrix = self._matrix_from_payload(payload, meta)
        if matrix.nnz == 0 or query.shape[0] == 0:
            return empty_read(query.shape[0])
        # Algorithm 1 READ line 6: fold the query buffer the same way.
        comp, other, _ = self._fold(
            query, shape, counter, note=f"{self.name}.read fold"
        )
        found, positions = csr_query_scan(matrix, comp, other, counter=counter)
        return ReadResult(found=found, value_positions=positions)


class GCSCFormat(GCSRFormat):
    """GCSC++ — Generalized Compressed Sparse Column (paper §II-D).

    Identical machinery with the three documented differences: the smallest
    dimension becomes the folded *column* count, points are sorted by their
    column index, and the packaging is CSC (``col_ptr`` + ``row_ind``).
    Reads scan one column segment per query.

    Because the benchmark feeds row-major-ordered buffers, the column sort
    key is scattered where GCSR++'s row key was nearly sorted — the
    mechanism behind GCSC++'s slower build in Table III.
    """

    name = "GCSC++"
    reorders_values = True

    _min_dim_as = "cols"
    _ptr_name = "col_ptr"
    _ind_name = "row_ind"
