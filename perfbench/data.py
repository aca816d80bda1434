"""Seeded inputs and the reference oracle results are checked against.

Inputs are made here with NumPy alone, not with the library's pattern
generators, so a change to the program cannot change what it is fed.  The
three sparsity patterns follow the paper's Table II, with the densities
given there:

* TSP -- points scattered in a narrow band around the main diagonal;
* GSP -- uniformly random occupied cells;
* MSP -- a sparse random background plus a denser middle-third box
  (background 0.1 %, box 1 %: the repository's MSP thresholds 0.999 /
  0.99, which give the densities its EXPERIMENTS.md reports for MSP).

The oracle keeps the expected newest-wins state as sorted row-major
addresses with their values, independent of the store's formats, codecs
and address orders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def ravel(coords: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Row-major linear addresses (int64) of an ``(n, d)`` coordinate array."""
    return np.ravel_multi_index(
        tuple(np.asarray(coords, dtype=np.int64).T), shape
    ).astype(np.int64)


def unravel(addrs: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``(n, d)`` uint64 coordinates of row-major addresses."""
    return np.column_stack(np.unravel_index(addrs, shape)).astype(np.uint64)


def cell_count(shape: tuple[int, ...]) -> int:
    return int(np.prod(shape, dtype=np.int64))


def distinct(cells: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` sorted distinct addresses drawn uniformly from ``[0, cells)``."""
    found = np.empty(0, dtype=np.int64)
    while found.size < n:
        more = rng.integers(0, cells, size=2 * (n - found.size) + 64)
        found = np.union1d(found, more)
    return np.sort(rng.choice(found, size=n, replace=False))


def gsp(shape, density: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted distinct addresses of uniformly random cells, exactly
    ``density`` of the cells."""
    return distinct(cell_count(shape), int(cell_count(shape) * density), rng)


def msp(shape, background: float, region: float, rng) -> np.ndarray:
    """Sparse background plus a denser box at (m/3, ...) of size m/3."""
    origin = np.array([m // 3 for m in shape], dtype=np.int64)
    size = tuple(max(1, m // 3) for m in shape)
    local = gsp(size, region, rng)
    inner = np.column_stack(np.unravel_index(local, size)) + origin
    return np.union1d(gsp(shape, background, rng), ravel(inner, shape))


def tsp(shape, density: float, width: int, rng) -> np.ndarray:
    """Exactly ``density`` of the cells, drawn from those within ``width``
    cells of the main diagonal in every mode (``width`` must leave the
    band more cells than that)."""
    n = int(cell_count(shape) * density)
    found = np.empty(0, dtype=np.int64)
    while found.size < n:
        t = rng.random(2 * n)
        cols = []
        for m in shape:
            c = (t * m).astype(np.int64) + rng.integers(-width, width + 1, t.size)
            cols.append(np.clip(c, 0, m - 1))
        found = np.union1d(found, ravel(np.column_stack(cols), shape))
    return np.sort(rng.choice(found, size=n, replace=False))


def alto_key(coords: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sort key of the ALTO address order: mode ``d`` gets
    ``ceil(log2(m_d))`` bits, interleaved one bit per mode from the least
    significant bit up, last mode first, a mode dropping out once its bits
    are used up.  Used only to lay inputs out in that order."""
    coords = np.asarray(coords, dtype=np.uint64)
    bits = [max(1, int(m - 1).bit_length()) for m in shape]
    key = np.zeros(coords.shape[0], dtype=np.uint64)
    out = 0
    for level in range(max(bits)):
        for d in reversed(range(len(shape))):
            if level < bits[d]:
                bit = (coords[:, d] >> np.uint64(level)) & np.uint64(1)
                key |= bit << np.uint64(out)
                out += 1
    return key


def fig5_region(shape) -> tuple[np.ndarray, np.ndarray]:
    """``(origin, size)`` of the paper's read region (Fig 5): start
    ``m/2`` and size ``m/10`` in every mode."""
    origin = np.array([m // 2 for m in shape], dtype=np.int64)
    size = np.array([max(1, m // 10) for m in shape], dtype=np.int64)
    return origin, np.minimum(size, np.asarray(shape) - origin)


@dataclass
class Oracle:
    """The expected store contents: sorted distinct addresses + values."""

    shape: tuple[int, ...]
    addrs: np.ndarray
    values: np.ndarray

    @classmethod
    def empty(cls, shape) -> "Oracle":
        return cls(tuple(shape), np.empty(0, dtype=np.int64), np.empty(0))

    @property
    def n(self) -> int:
        return int(self.addrs.shape[0])

    def coords(self) -> np.ndarray:
        return unravel(self.addrs, self.shape)

    def copy(self) -> "Oracle":
        return Oracle(self.shape, self.addrs.copy(), self.values.copy())

    def upsert(self, addrs: np.ndarray, values: np.ndarray) -> None:
        """Apply one write batch; later entries win, also within the batch."""
        all_addrs = np.concatenate([self.addrs, addrs])[::-1]
        all_values = np.concatenate([self.values, values])[::-1]
        self.addrs, first = np.unique(all_addrs, return_index=True)
        self.values = all_values[first]

    def lookup(self, addrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(found, values of found)`` for a query batch, in query order."""
        if not self.n:
            return np.zeros(addrs.shape[0], dtype=bool), self.values[:0]
        pos = np.minimum(np.searchsorted(self.addrs, addrs), self.n - 1)
        found = self.addrs[pos] == addrs
        return found, self.values[pos[found]]

    def box(self, coords, origin, size) -> tuple[np.ndarray, np.ndarray]:
        """Points of ``coords`` (this oracle's, precomputed) inside a box,
        with their values, in row-major address order."""
        lo = np.asarray(origin, dtype=np.uint64)
        hi = lo + np.asarray(size, dtype=np.uint64)
        mask = np.all((coords >= lo) & (coords < hi), axis=1)
        return coords[mask], self.values[mask]
