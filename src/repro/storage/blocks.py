"""Block decomposition of large sparse tensors (paper §II-B mitigation).

"A practical solution to this problem [linear-address overflow] is to break
large tensors into small blocks … Our algorithms can use local boundary of
each block to perform the transform."

:func:`partition_coords` splits a point set over a regular block grid;
:class:`BlockedDataset` stores one fragment per non-empty block with
block-local coordinates, so even a tensor whose *global* address space
overflows uint64 is stored and queried safely — each block's local address
space is small.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ..core.boundary import Box
from ..core.dtypes import INDEX_DTYPE, as_index_array, cell_count
from ..core.errors import ShapeError
from ..core.sorting import stable_argsort
from ..core.tensor import SparseTensor
from .options import ReadOptions, StoreOptions
from .store import FragmentStore, ReadOutcome


def block_grid_shape(
    shape: Sequence[int], block_shape: Sequence[int]
) -> tuple[int, ...]:
    """Number of blocks along each dimension (ceil division)."""
    if len(shape) != len(block_shape):
        raise ShapeError("shape/block_shape dimensionality mismatch")
    if any(int(b) <= 0 for b in block_shape):
        raise ShapeError("block sides must be positive")
    return tuple(-(-int(m) // int(b)) for m, b in zip(shape, block_shape))


def block_of_coords(
    coords: np.ndarray, block_shape: Sequence[int]
) -> np.ndarray:
    """Per-point block grid coordinates, ``(n, d)``."""
    coords = as_index_array(coords)
    bs = as_index_array(list(block_shape))
    return coords // bs[np.newaxis, :]


def block_box(
    grid_coord: Sequence[int], block_shape: Sequence[int], shape: Sequence[int]
) -> Box:
    """The region covered by block ``grid_coord`` (clipped to the tensor)."""
    origin = tuple(
        int(g) * int(b) for g, b in zip(grid_coord, block_shape)
    )
    size = tuple(
        min(int(b), int(m) - o)
        for b, m, o in zip(block_shape, shape, origin)
    )
    return Box(origin, size)


def partition_coords(
    coords: np.ndarray,
    values: np.ndarray,
    shape: Sequence[int],
    block_shape: Sequence[int],
) -> Iterator[tuple[Box, np.ndarray, np.ndarray]]:
    """Group points by block; yields ``(block_box, coords, values)``.

    Points are grouped with a single stable sort on a block key computed in
    arbitrary precision (the *grid* is always small even when the tensor's
    cell count overflows uint64).
    """
    coords = as_index_array(coords)
    values = np.asarray(values)
    if coords.shape[0] == 0:
        return
    grid = block_grid_shape(shape, block_shape)
    bcoords = block_of_coords(coords, block_shape)
    # Grid linearization: the grid is tiny, so uint64 is always safe here.
    if cell_count(grid) - 1 > np.iinfo(INDEX_DTYPE).max:
        raise ShapeError("block grid itself overflows uint64; enlarge blocks")
    strides = np.empty(len(grid), dtype=INDEX_DTYPE)
    acc = 1
    for i in range(len(grid) - 1, -1, -1):
        strides[i] = acc
        acc *= grid[i]
    keys = (bcoords * strides[np.newaxis, :]).sum(axis=1, dtype=INDEX_DTYPE)
    order = stable_argsort(keys)
    sorted_keys = keys[order]
    change = np.empty(sorted_keys.shape[0], dtype=bool)
    change[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], sorted_keys.shape[0])
    for s, e in zip(starts, ends):
        sel = order[s:e]
        gcoord = tuple(int(v) for v in bcoords[sel[0]])
        yield block_box(gcoord, block_shape, shape), coords[sel], values[sel]


@dataclass
class BlockWriteSummary:
    """Aggregate of a blocked write."""

    n_blocks: int
    total_points: int
    total_index_nbytes: int
    total_file_nbytes: int


class BlockedDataset:
    """A sparse tensor stored as one fragment per non-empty block.

    Every fragment uses block-local coordinates (``relative_coords=True`` in
    the underlying :class:`FragmentStore`), so each block's linear address
    space is bounded by ``prod(block_shape)`` regardless of the global
    tensor size.  Shapes whose global cell count exceeds uint64 are
    explicitly supported — that is the point of the exercise.
    """

    def __init__(
        self,
        directory: str | Path,
        shape: Sequence[int],
        block_shape: Sequence[int],
        format_name,
        *,
        options: StoreOptions | None = None,
    ):
        self.shape = tuple(int(m) for m in shape)
        self.block_shape = tuple(int(b) for b in block_shape)
        self.grid = block_grid_shape(self.shape, self.block_shape)
        # NOTE: no check_linearizable(self.shape) here — only each *block*
        # must be linearizable.
        from ..core.dtypes import check_linearizable

        check_linearizable(self.block_shape)
        # Block-local coordinates are the whole point of this class — force
        # the flag regardless of what the caller's options say.
        self.store = FragmentStore(
            directory,
            self.shape,
            format_name,
            options=(options or StoreOptions()).replace(relative_coords=True),
        )

    def write(self, coords: np.ndarray, values: np.ndarray) -> BlockWriteSummary:
        """Partition into blocks and write one fragment per block."""
        n_blocks = 0
        total_points = 0
        total_index = 0
        total_file = 0
        for box, bc, bv in partition_coords(
            coords, values, self.shape, self.block_shape
        ):
            receipt = self.store.write(bc, bv)
            n_blocks += 1
            total_points += bc.shape[0]
            total_index += receipt.index_nbytes
            total_file += receipt.file_nbytes
        return BlockWriteSummary(
            n_blocks=n_blocks,
            total_points=total_points,
            total_index_nbytes=total_index,
            total_file_nbytes=total_file,
        )

    def write_tensor(self, tensor: SparseTensor) -> BlockWriteSummary:
        if tensor.shape != self.shape:
            raise ShapeError(
                f"tensor shape {tensor.shape} != dataset shape {self.shape}"
            )
        return self.write(tensor.coords, tensor.values)

    def read_points(
        self,
        query_coords: np.ndarray,
        *,
        options: ReadOptions | None = None,
    ) -> ReadOutcome:
        """Point queries routed through per-block fragments.

        Accepts the unified :class:`~repro.readapi.Readable` tuning
        surface, one :class:`~repro.storage.options.ReadOptions` value,
        and forwards it to the underlying store, so per-call tuning
        behaves identically whether the dataset is blocked or not.
        """
        return self.store.read_points(query_coords, options=options)

    def read_box(
        self,
        box: Box,
        *,
        options: ReadOptions | None = None,
    ) -> SparseTensor:
        """Region read merged across blocks, sorted by linear address.

        Delegates to the store's structural range read (work scales with
        stored points, never the box's cell count), which falls back to a
        lexicographic merge when the *global* shape is not linearizable —
        the blocked case this class exists for.  Per-call tuning forwards
        to the store, exactly as in :meth:`read_points`.
        """
        return self.store.read_box(box, options=options)

    def explain(self, query):
        """The underlying store's :class:`~repro.storage.planner.QueryPlan`
        for ``query`` — see :meth:`FragmentStore.explain`."""
        return self.store.explain(query)

    @property
    def cache(self):
        """The underlying store's decoded-fragment cache (may be disabled)."""
        return self.store.cache
