"""Classic 2D CSR / CSC kernels (Barrett et al. [24]).

These are the packaging primitives GCSR++ and GCSC++ stand on (Algorithm 1
line 13 "Package with the CSR").  They operate on already-folded 2D
coordinates; the high-dimensional folding itself lives in
:func:`repro.core.linearize.fold_coords_2d`.

Faithful to the paper's build: points are stably sorted by the *compressed*
dimension only — the other coordinate stays in input order inside each
segment, which is why the faithful READ does a linear scan of the segment
rather than a binary search (§II-C: "The current implementation … has a time
complexity of O(q * n / min{m}) ").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.costmodel import NULL_COUNTER, OpCounter
from ..core.dtypes import INDEX_DTYPE, as_index_array
from ..core.errors import FormatError
from ..core.sorting import counts_to_pointer, stable_argsort


@dataclass
class CSRMatrix:
    """A CSR-packaged point set: ``indptr`` over rows, ``indices`` = columns.

    ``indices[indptr[r]:indptr[r+1]]`` are the column coordinates of row
    ``r``'s points, in build-input order (NOT sorted within the row).
    The same structure models CSC by swapping the roles of rows/columns.
    """

    n_compressed: int  # number of rows (CSR) or columns (CSC)
    n_other: int  # extent of the uncompressed dimension
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    def validate(self) -> None:
        """Structural invariants; raises :class:`FormatError` on violation."""
        if self.indptr.shape[0] != self.n_compressed + 1:
            raise FormatError(
                f"indptr length {self.indptr.shape[0]} != "
                f"n_compressed+1 ({self.n_compressed + 1})"
            )
        if int(self.indptr[0]) != 0:
            raise FormatError("indptr must start at 0")
        if np.any(np.diff(self.indptr.astype(np.int64)) < 0):
            raise FormatError("indptr must be non-decreasing")
        if int(self.indptr[-1]) != self.nnz:
            raise FormatError(
                f"indptr[-1]={int(self.indptr[-1])} != nnz={self.nnz}"
            )
        if self.nnz and int(self.indices.max()) >= self.n_other:
            raise FormatError("column index out of range")

    def segment(self, r: int) -> np.ndarray:
        """The uncompressed coordinates stored under compressed index ``r``."""
        lo = int(self.indptr[r])
        hi = int(self.indptr[r + 1])
        return self.indices[lo:hi]


def csr_pack(
    compressed_coord: np.ndarray,
    other_coord: np.ndarray,
    n_compressed: int,
    *,
    counter: OpCounter = NULL_COUNTER,
) -> tuple[CSRMatrix, np.ndarray]:
    """Sort by the compressed coordinate and package pointers.

    Returns ``(matrix, perm)`` where ``perm`` is the gather map of the
    stable sort (the paper's ``map``).  With at most 65 535 segments the
    key is sorted as ``uint16``, which NumPy radix-sorts in one linear
    pass whatever its order; wider keys take :func:`stable_argsort`'s
    timsort or packed kernel (see :mod:`repro.core.sorting`).
    """
    compressed_coord = as_index_array(compressed_coord)
    other_coord = as_index_array(other_coord)
    if compressed_coord.shape != other_coord.shape:
        raise FormatError("coordinate vectors must be aligned")
    n = compressed_coord.shape[0]
    counter.charge_sort(n, note="csr_pack sort")
    sort_key = compressed_coord
    if n_compressed <= np.iinfo(np.uint16).max:
        # The compressed coordinate is bounded by the folded min-dimension
        # size, which is almost always tiny; NumPy's stable argsort runs
        # radix (linear) on <=16-bit keys but comparison-based timsort on
        # wider ones.  Out-of-range inputs still raise below (the range
        # check reads the original array), and a stable sort over the
        # same key order returns the identical permutation.
        sort_key = compressed_coord.astype(np.uint16, copy=False)
    perm = stable_argsort(sort_key)
    sorted_comp = compressed_coord[perm]
    sorted_other = other_coord[perm]
    counter.charge_memory(n, note="csr_pack package")
    counts = np.bincount(
        sorted_comp.astype(np.int64), minlength=int(n_compressed)
    )
    if counts.shape[0] > n_compressed:
        raise FormatError(
            f"compressed coordinate {int(sorted_comp.max())} out of range "
            f"for {n_compressed} segments"
        )
    indptr = counts_to_pointer(counts)
    n_other = int(sorted_other.max()) + 1 if n else 0
    return (
        CSRMatrix(
            n_compressed=int(n_compressed),
            n_other=n_other,
            indptr=indptr,
            indices=sorted_other.astype(INDEX_DTYPE, copy=False),
        ),
        perm,
    )


def csr_query_scan(
    matrix: CSRMatrix,
    q_compressed: np.ndarray,
    q_other: np.ndarray,
    *,
    counter: OpCounter = NULL_COUNTER,
) -> tuple[np.ndarray, np.ndarray]:
    """Faithful segment-scan query (Algorithm 1 READ loop, lines 7–13).

    For each query, loads the segment bounds from ``indptr`` (two pointer
    lookups) and linearly scans the segment for the other coordinate.
    Average cost per query is ``nnz / n_compressed`` comparisons — the
    ``q * n / min{m}`` term of Table I.
    """
    q_compressed = as_index_array(q_compressed)
    q_other = as_index_array(q_other)
    q = q_compressed.shape[0]
    found = np.zeros(q, dtype=bool)
    positions = np.empty(q, dtype=np.intp)
    counter.charge_pointer_lookups(2 * q, note="csr_query segment bounds")
    total_scanned = 0
    indptr = matrix.indptr
    indices = matrix.indices
    for i in range(q):
        r = int(q_compressed[i])
        if r >= matrix.n_compressed:
            continue
        lo = int(indptr[r])
        hi = int(indptr[r + 1])
        total_scanned += hi - lo
        if hi == lo:
            continue
        hits = np.flatnonzero(indices[lo:hi] == q_other[i])
        if hits.size:
            found[i] = True
            # Segments keep input order, so the last hit is the newest
            # write (DUPLICATE_POLICY).
            positions[i] = lo + int(hits[-1])
    counter.charge_comparisons(total_scanned, note="csr_query segment scan")
    return found, positions[found]


def csr_query_vectorized(
    matrix: CSRMatrix,
    q_compressed: np.ndarray,
    q_other: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized batch query: one flat comparison pass over all candidate
    segment entries (same total comparisons as the scan, no Python loop).

    Builds a flattened candidate index via ``repeat``/``cumsum`` so that all
    segments are compared in a single NumPy pass, then reduces per query
    with ``maximum.reduceat`` (last match = newest write).
    """
    q_compressed = as_index_array(q_compressed)
    q_other = as_index_array(q_other)
    q = q_compressed.shape[0]
    if q == 0 or matrix.nnz == 0:
        return np.zeros(q, dtype=bool), np.empty(0, dtype=np.intp)
    in_range = q_compressed < matrix.n_compressed
    r = np.where(in_range, q_compressed, 0)
    lo = matrix.indptr[r].astype(np.int64)
    hi = matrix.indptr[r.astype(np.int64) + 1].astype(np.int64)
    lens = np.where(in_range, hi - lo, 0)
    total = int(lens.sum())
    found = np.zeros(q, dtype=bool)
    if total == 0:
        return found, np.empty(0, dtype=np.intp)
    # Flat candidate positions: for query i, positions lo[i] .. hi[i)-1.
    starts = np.zeros(q, dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    flat = np.repeat(lo - starts, lens) + np.arange(total, dtype=np.int64)
    owner_target = np.repeat(q_other, lens)
    match = matrix.indices[flat] == owner_target
    # Last matching flat offset per query segment (-1 sentinel = miss):
    # segments keep input order, so the greatest offset is the newest
    # write (DUPLICATE_POLICY).
    match_pos = np.where(match, flat, np.int64(-1))
    nonempty = lens > 0
    seg_last = np.maximum.reduceat(match_pos, starts[nonempty])
    hit = seg_last >= 0
    idx_nonempty = np.flatnonzero(nonempty)
    found[idx_nonempty[hit]] = True
    return found, seg_last[hit].astype(np.intp)


def csr_to_dense(matrix: CSRMatrix) -> np.ndarray:
    """Dense 0/1 occupancy matrix (small matrices, for tests)."""
    out = np.zeros((matrix.n_compressed, matrix.n_other), dtype=np.int64)
    for r in range(matrix.n_compressed):
        for c in matrix.segment(r):
            out[r, int(c)] += 1
    return out
