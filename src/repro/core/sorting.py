"""Stable sorting and permutation-map helpers.

Every BUILD algorithm in the paper that reorders points returns a ``map``
vector "recording the original index in sorting ``b_coor``" (Algorithm 1
line 4, Algorithm 2 line 4).  The benchmark WRITE then reorganizes the value
buffer with that map (Algorithm 3 line 5).  This module centralizes the sort
and the permutation algebra so every format treats ``map`` identically:

``map`` is the *gather* permutation: ``sorted_buffer[i] = original[map[i]]``.

Every sort is stable: equal keys keep input order, which is how the store's
newest-wins rule and the GCSR++ ``map`` resolve ties.  :func:`stable_argsort`
returns exactly ``np.argsort(keys, kind="stable")`` but picks the kernel
that computes it fastest from what it can see in the keys:

* **radix** — NumPy's own stable sort on keys of 16 bits or fewer (one
  linear pass).  ``csr_pack`` narrows the compressed coordinate of a
  GCSR++/GCSC++ build to ``uint16`` whenever it has at most 65 535
  segments, so both formats' builds take this path;
* **timsort** — NumPy's stable sort on wider keys.  It is adaptive on
  pre-sorted runs, so it stays the choice for sorted input, a few long
  runs (the compaction merge's concatenated fragments) and row-blocked
  keys with short rows (GCSR++ ``extract_addresses``);
* **packed** — for integer keys of 32 bits or more above
  :data:`PACKED_SORT_MIN` whose strided sample is not nearly sorted: each
  key's offset from the minimum is shifted above its input position in
  one ``uint64`` word (as ALTO packs a multi-part index into one word),
  the words are sorted unstably, and the positions are masked back out.
  The packed words are unique, so the unstable sort returns the stable
  permutation exactly.  It applies when the key range and the position
  fit 64 bits together.

``docs/BUILD_PIPELINE.md`` records the measurements behind the thresholds.
"""

from __future__ import annotations

import numpy as np

from .dtypes import POINTER_DTYPE, as_index_array
from .errors import ShapeError


#: Fewest keys the packed kernel is tried on.  Below it the strided
#: sample has too few pairs to tell a dozen sorted runs from shuffled
#: keys (and shuffled keys gain less: 1.6x at 1 024 keys, 3.8x at 2 048).
PACKED_SORT_MIN = 2048

#: Stride of the presortedness sample (one key in this many is read).
#: Rows shorter than the stride (row-blocked keys) read as sorted.
SAMPLE_STRIDE = 32

#: The sample is "nearly sorted" — timsort's case — when fewer than one
#: adjacent pair in this many breaks its order, ascending or descending.
#: Shuffled keys break about one pair in two.
NEARLY_SORTED_RATIO = 4


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of a 1D key vector; returns the gather permutation.

    Always equal to ``np.argsort(keys, kind="stable")``; wide integer keys
    that are not nearly sorted take the packed kernel (module docstring).
    """
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ShapeError("keys must be 1D")
    if (
        keys.shape[0] >= PACKED_SORT_MIN
        and keys.dtype.kind in "iu"
        and keys.dtype.itemsize >= 4
        and not _nearly_sorted(keys)
    ):
        perm = _packed_argsort(keys)
        if perm is not None:
            return perm
    return np.argsort(keys, kind="stable")


def _nearly_sorted(keys: np.ndarray) -> bool:
    """Whether a strided sample of ``keys`` is nearly monotone.

    Timsort takes a strictly descending run in one reversal, so a sample
    that rarely *ascends* is timsort's case as well.
    """
    later = keys[SAMPLE_STRIDE::SAMPLE_STRIDE]
    pairs = later.shape[0]
    descents = int(np.count_nonzero(later < keys[:-SAMPLE_STRIDE:SAMPLE_STRIDE]))
    return min(descents, pairs - descents) * NEARLY_SORTED_RATIO < pairs


def _packed_argsort(keys: np.ndarray) -> np.ndarray | None:
    """Stable argsort by one unstable sort of ``(key - min) << b | index``.

    ``b`` is the bit length of the largest index.  Returns ``None`` when
    the key range and the index do not fit one 64-bit word together.
    """
    n = keys.shape[0]
    index_bits = (n - 1).bit_length()
    lo = int(keys.min())
    if (int(keys.max()) - lo).bit_length() + index_bits > 64:
        return None
    packed = keys.astype(np.uint64)
    if lo:
        # Both sides wrap modulo 2**64, so the difference is exact.
        packed -= np.uint64(lo % (1 << 64))
    packed <<= np.uint64(index_bits)
    packed |= np.arange(n, dtype=np.uint64)
    packed.sort()
    packed &= np.uint64((1 << index_bits) - 1)
    return packed.view(np.int64).astype(np.intp, copy=False)


def lexsort_rows(coords: np.ndarray) -> np.ndarray:
    """Lexicographic stable argsort of ``(n, d)`` rows, dim 0 most significant.

    ``numpy.lexsort`` treats its *last* key as primary, so columns are passed
    in reverse order.
    """
    coords = as_index_array(coords)
    if coords.ndim != 2:
        raise ShapeError("coords must be (n, d)")
    if coords.shape[0] == 0:
        return np.empty(0, dtype=np.intp)
    if coords.shape[1] == 1:
        return stable_argsort(coords[:, 0])
    return np.lexsort(tuple(coords[:, i] for i in range(coords.shape[1] - 1, -1, -1)))


def invert_permutation(perm: np.ndarray) -> np.ndarray:
    """Inverse permutation: ``inv[perm[i]] = i``.

    Converts a gather map into a scatter map, i.e. answers "where did
    original point ``j`` land after the sort?"
    """
    perm = np.asarray(perm)
    if perm.ndim != 1:
        raise ShapeError("permutation must be 1D")
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.shape[0], dtype=perm.dtype)
    return inv


def is_permutation(perm: np.ndarray) -> bool:
    """Whether ``perm`` is a permutation of ``0..len-1``."""
    perm = np.asarray(perm)
    if perm.ndim != 1:
        return False
    n = perm.shape[0]
    if n == 0:
        return True
    if perm.min() < 0 or perm.max() >= n:
        return False
    seen = np.zeros(n, dtype=bool)
    seen[perm] = True
    return bool(seen.all())


def apply_map(buffer: np.ndarray, perm: np.ndarray | None) -> np.ndarray:
    """Reorganize a value buffer by a gather map (Algorithm 3 line 5).

    ``perm is None`` means the format did not reorder points (COO, LINEAR in
    unsorted mode) and the buffer is returned as-is (no copy).
    """
    if perm is None:
        return buffer
    buffer = np.asarray(buffer)
    if buffer.shape[0] != perm.shape[0]:
        raise ShapeError(
            f"map length {perm.shape[0]} != buffer length {buffer.shape[0]}"
        )
    return buffer[perm]


def counts_to_pointer(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum: per-bucket counts -> CSR-style pointer array.

    ``pointer`` has ``len(counts) + 1`` entries with ``pointer[0] == 0`` and
    ``pointer[-1] == counts.sum()``.
    """
    counts = np.asarray(counts)
    ptr = np.zeros(counts.shape[0] + 1, dtype=POINTER_DTYPE)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def segment_boundaries(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run-length structure of a sorted key vector.

    Returns ``(unique_keys, start_offsets)`` where ``start_offsets`` has one
    extra trailing entry equal to ``len(sorted_keys)`` — i.e. segment ``i``
    spans ``[start_offsets[i], start_offsets[i+1])``.
    """
    sorted_keys = np.asarray(sorted_keys)
    n = sorted_keys.shape[0]
    if n == 0:
        return sorted_keys[:0], np.zeros(1, dtype=POINTER_DTYPE)
    change = np.empty(n, dtype=bool)
    change[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    uniq = sorted_keys[starts]
    offsets = np.empty(starts.shape[0] + 1, dtype=POINTER_DTYPE)
    offsets[:-1] = starts
    offsets[-1] = n
    return uniq, offsets
