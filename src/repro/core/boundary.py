"""Bounding boxes and boundary extraction (the paper's ``s_l``).

Both GCSR++_BUILD and CSF_BUILD start by "extracting the local boundary from
``b_coor``" (Algorithm 1 line 5, Algorithm 2 line 5); the benchmark READ
(Algorithm 3 line 4) finds "all fragments containing ``b_coor``" through
box-overlap tests.  :class:`Box` is the shared half-open axis-aligned region
abstraction used for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .dtypes import INDEX_DTYPE, as_index_array, cell_count
from .errors import ShapeError


@dataclass(frozen=True)
class Box:
    """Half-open axis-aligned box: ``origin[i] <= c_i < origin[i] + size[i]``."""

    origin: tuple[int, ...]
    size: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.origin) != len(self.size):
            raise ShapeError("origin and size dimensionality mismatch")
        if any(s < 0 for s in self.size) or any(o < 0 for o in self.origin):
            raise ShapeError("box origin/size must be non-negative")

    @property
    def ndim(self) -> int:
        return len(self.origin)

    @property
    def end(self) -> tuple[int, ...]:
        """Exclusive upper corner."""
        return tuple(o + s for o, s in zip(self.origin, self.size))

    @property
    def n_cells(self) -> int:
        return cell_count(self.size)

    def is_empty(self) -> bool:
        return any(s == 0 for s in self.size)

    def contains_point(self, coord: Sequence[int]) -> bool:
        if len(coord) != self.ndim:
            raise ShapeError("coordinate dimensionality mismatch")
        return all(
            o <= int(c) < e for o, c, e in zip(self.origin, coord, self.end)
        )

    def contains_points(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized membership mask for an ``(n, d)`` coordinate array."""
        coords = as_index_array(coords)
        if coords.ndim != 2 or coords.shape[1] != self.ndim:
            raise ShapeError("coords must be (n, d) matching the box ndim")
        lo = as_index_array(list(self.origin))
        hi = as_index_array(list(self.end))
        return np.all((coords >= lo) & (coords < hi), axis=1)

    def intersects(self, other: "Box") -> bool:
        if other.ndim != self.ndim:
            raise ShapeError("box dimensionality mismatch")
        if self.is_empty() or other.is_empty():
            return False
        return all(
            a_o < b_e and b_o < a_e
            for a_o, a_e, b_o, b_e in zip(
                self.origin, self.end, other.origin, other.end
            )
        )

    def intersection(self, other: "Box") -> "Box":
        """The overlapping region (possibly empty)."""
        if other.ndim != self.ndim:
            raise ShapeError("box dimensionality mismatch")
        lo = tuple(max(a, b) for a, b in zip(self.origin, other.origin))
        hi = tuple(min(a, b) for a, b in zip(self.end, other.end))
        size = tuple(max(0, h - l) for l, h in zip(lo, hi))
        return Box(lo, size)

    def grid_coords(self) -> np.ndarray:
        """All cell coordinates inside the box as an ``(n_cells, d)`` array.

        Used to materialize the benchmark's read query buffer: the paper
        reads a contiguous region starting at ``(m/2, ...)`` of size
        ``(m/10, ...)`` (§III), i.e. every cell of that region is queried.
        """
        if self.is_empty():
            return np.empty((0, self.ndim), dtype=INDEX_DTYPE)
        axes = [
            np.arange(o, e, dtype=INDEX_DTYPE)
            for o, e in zip(self.origin, self.end)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)

    def sample_coords(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """``k`` distinct cell coordinates sampled uniformly from the box.

        Benchmarks use this to keep the faithful O(n*q) read algorithms
        tractable at large scale (see DESIGN.md §4).
        """
        total = self.n_cells
        if total == 0:
            return np.empty((0, self.ndim), dtype=INDEX_DTYPE)
        k = min(int(k), total)
        if total <= 4 * k:
            # Small region: materialize and choose without replacement.
            grid = self.grid_coords()
            idx = rng.choice(total, size=k, replace=False)
            return grid[np.sort(idx)]
        # Large region: sample linear offsets, dedupe, top up if needed.
        chosen: set[int] = set()
        while len(chosen) < k:
            draw = rng.integers(0, total, size=k - len(chosen), dtype=np.uint64)
            chosen.update(int(v) for v in draw)
        offsets = np.array(sorted(chosen), dtype=INDEX_DTYPE)
        from .linearize import delinearize

        local = delinearize(offsets, self.size)
        return local + as_index_array(list(self.origin))[np.newaxis, :]

    def iter_corners(self) -> Iterator[tuple[int, ...]]:
        """Yield the 2^d inclusive corner coordinates (for tests/debugging)."""
        if self.is_empty():
            return
        for mask in range(1 << self.ndim):
            yield tuple(
                (self.end[i] - 1) if (mask >> i) & 1 else self.origin[i]
                for i in range(self.ndim)
            )


def extract_boundary(coords: np.ndarray) -> Box:
    """The paper's ``s_l``: the tight bounding box of a coordinate buffer.

    Returns a :class:`Box` whose origin is the per-dimension minimum and
    whose size spans through the per-dimension maximum (inclusive).
    """
    coords = as_index_array(coords)
    if coords.ndim != 2:
        raise ShapeError("coords must be (n, d)")
    if coords.shape[0] == 0:
        return Box(tuple(0 for _ in range(coords.shape[1])),
                   tuple(0 for _ in range(coords.shape[1])))
    # Column by column: min/max along the short axis of an (n, d) buffer
    # cost ~20x more than per-column reductions.
    lo = [int(coords[:, i].min()) for i in range(coords.shape[1])]
    hi = [int(coords[:, i].max()) for i in range(coords.shape[1])]
    return Box(tuple(lo), tuple(h - l + 1 for l, h in zip(lo, hi)))


def boundary_shape(coords: np.ndarray) -> tuple[int, ...]:
    """Tight shape anchored at the origin covering every coordinate.

    This is the effective tensor shape formats use when the caller does not
    provide one: ``(max_i + 1)`` per dimension.
    """
    coords = as_index_array(coords)
    if coords.ndim != 2:
        raise ShapeError("coords must be (n, d)")
    if coords.shape[0] == 0:
        return tuple(0 for _ in range(coords.shape[1]))
    return tuple(
        int(coords[:, i].max()) + 1 for i in range(coords.shape[1])
    )


def region_box(shape: Sequence[int], *, start_frac: float, size_frac: float) -> Box:
    """The paper's parameterized read region.

    §III: "we extract a contiguous region with a starting address of
    ``(m/2, ..., m/2)`` and a size of ``(m/10, ..., m/10)``" — i.e.
    ``start_frac=0.5``, ``size_frac=0.1``.  The MSP dense region uses
    ``start_frac=size_frac=1/3``.
    """
    origin = tuple(int(m * start_frac) for m in shape)
    size = []
    for m, o in zip(shape, origin):
        s = max(1, int(int(m) * size_frac))
        size.append(min(s, int(m) - o))
    return Box(origin, tuple(size))
