"""Coordinate <-> linear-address transforms (paper §II-B).

The LINEAR organization stores, for a point with coordinates
``(c_1, ..., c_d)`` in a tensor of shape ``(m_1, ..., m_d)``, the row-major
address ``sum_i c_i * prod_{j>i} m_j``.  GCSR++/GCSC++ reuse the same
transform to fold high-dimensional tensors into 2D (Algorithm 1 lines 8–9),
and the benchmark READ merges results by linear address (Algorithm 3 line 12).

All transforms are vectorized over ``(n, d)`` coordinate arrays and guarded
against 64-bit overflow through :func:`repro.core.dtypes.check_linearizable`.
Block-local variants support the paper's mitigation for address overflow:
linearize against a block's own boundary instead of the global tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dtypes import (
    INDEX_DTYPE,
    as_index_array,
    check_linearizable,
    column_major_strides,
    row_major_strides,
)
from .errors import ShapeError


def _validate_coords(coords: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    coords = as_index_array(coords)
    if coords.ndim != 2:
        raise ShapeError(f"coords must be 2D (n, d); got ndim={coords.ndim}")
    if coords.shape[1] != len(shape):
        raise ShapeError(
            f"coords have {coords.shape[1]} dims but shape has {len(shape)}"
        )
    return coords


def _check_bounds(coords: np.ndarray, shape: Sequence[int]) -> None:
    """Raise ``ShapeError`` naming the first point outside ``shape``.

    One column at a time: a reduction along the short axis of an (n, d)
    buffer costs ~20x more than d reductions of columns.
    """
    if any(int(coords[:, i].max()) >= int(m) for i, m in enumerate(shape)):
        bounds = as_index_array(list(shape))
        bad = int(np.argmax(np.any(coords >= bounds[np.newaxis, :], axis=1)))
        raise ShapeError(
            f"coordinate {tuple(int(c) for c in coords[bad])} outside "
            f"tensor shape {tuple(int(m) for m in shape)}"
        )


def linearize(
    coords: np.ndarray,
    shape: Sequence[int],
    *,
    order: str = "row",
    validate: bool = True,
) -> np.ndarray:
    """Transform an ``(n, d)`` coordinate array into ``n`` linear addresses.

    Parameters
    ----------
    coords:
        Coordinate buffer, one point per row.
    shape:
        Tensor extent per dimension.
    order:
        ``"row"`` (paper default) or ``"col"`` for column-major.
    validate:
        When true, verify every coordinate is within ``shape``.

    Returns
    -------
    numpy.ndarray
        ``uint64`` addresses, one per point.
    """
    coords = _validate_coords(coords, shape)
    check_linearizable(shape)
    if validate and coords.size:
        _check_bounds(coords, shape)
    if order == "row":
        strides = row_major_strides(shape)
    elif order == "col":
        strides = column_major_strides(shape)
    else:
        raise ValueError(f"order must be 'row' or 'col', got {order!r}")
    # Accumulate c_i * stride_i column by column, all in uint64; overflow
    # is ruled out by check_linearizable above.
    out = np.zeros(coords.shape[0], dtype=INDEX_DTYPE)
    for i, stride in enumerate(strides):
        out += coords[:, i] * stride
    return out


def delinearize(
    addresses: np.ndarray,
    shape: Sequence[int],
    *,
    order: str = "row",
    validate: bool = True,
) -> np.ndarray:
    """Inverse of :func:`linearize`: addresses back to ``(n, d)`` coordinates.

    This is the ``reverse_transform`` of Algorithm 1 line 9 — GCSR++ uses it
    with a *different* (2D) shape than the one used to linearize, which is
    exactly how the dimensionality reduction works.
    """
    addresses = as_index_array(addresses)
    if addresses.ndim != 1:
        raise ShapeError("addresses must be a 1D vector")
    check_linearizable(shape)
    if validate and addresses.size:
        from .dtypes import cell_count

        if int(addresses.max()) >= cell_count(shape):
            raise ShapeError(
                f"address {int(addresses.max())} outside tensor of "
                f"{cell_count(shape)} cells"
            )
    d = len(shape)
    out = np.empty((addresses.shape[0], d), dtype=INDEX_DTYPE)
    if order == "row":
        dims = range(d)
        strides = row_major_strides(shape)
    elif order == "col":
        dims = range(d - 1, -1, -1)
        strides = column_major_strides(shape)
    else:
        raise ValueError(f"order must be 'row' or 'col', got {order!r}")
    # Single divmod cascade over a working copy: each np.divmod produces
    # the dimension's coordinate and the remainder for the next stride in
    # one pass, halving the arithmetic of the former //-then-% pair while
    # keeping the outputs byte-identical.
    rem = addresses.copy()
    for i in dims:
        np.divmod(rem, strides[i], out[:, i], rem)
    return out


def linearize_block_local(
    coords: np.ndarray,
    origin: Sequence[int],
    block_shape: Sequence[int],
    *,
    order: str = "row",
) -> np.ndarray:
    """Linearize ``coords`` relative to a block at ``origin``.

    The paper's mitigation for LINEAR address overflow on extremely large
    tensors: "break large tensors into small blocks … use local boundary of
    each block to perform the transform" (§II-B).
    """
    coords = as_index_array(coords)
    org = as_index_array(list(origin))
    if coords.ndim != 2 or coords.shape[1] != org.shape[0]:
        raise ShapeError("coords and origin dimensionality mismatch")
    if coords.size and np.any(coords < org[np.newaxis, :]):
        raise ShapeError("coordinate below block origin")
    local = coords - org[np.newaxis, :]
    return linearize(local, block_shape, order=order)


def delinearize_block_local(
    addresses: np.ndarray,
    origin: Sequence[int],
    block_shape: Sequence[int],
    *,
    order: str = "row",
) -> np.ndarray:
    """Inverse of :func:`linearize_block_local`."""
    local = delinearize(addresses, block_shape, order=order)
    org = as_index_array(list(origin))
    return local + org[np.newaxis, :]


# ---------------------------------------------------------------------------
# ALTO: adaptive bit-interleaved linearization (PAPERS.md — "ALTO: Adaptive
# Linearized Storage of Sparse Tensors").
#
# Each mode gets ``ceil(log2(m_d))`` address bits; bits are interleaved
# round-robin from the LSB among the modes that still have bits left, so
# every mode stays locality-preserving at once (a small step in *any*
# coordinate only perturbs low address bits).  Modes with more bits end up
# owning the contiguous high bits once the others are exhausted.  The
# per-shape interleaving is compiled once into *field segments* — runs of
# consecutive bits of one mode that map to consecutive address bits — so
# encode/decode are a handful of vectorized shift/mask gathers, never a
# per-element Python loop.
# ---------------------------------------------------------------------------

#: Store-facing address-order names.  ``"row_major"`` is the paper's
#: default linearization (bit-identical to the historical behavior);
#: ``"alto"`` is the adaptive bit-interleaved order.
ADDRESS_ORDERS = ("row_major", "alto")

#: Default order everywhere an ``addr_order`` is optional.
DEFAULT_ADDRESS_ORDER = "row_major"


def validate_addr_order(addr_order: str) -> str:
    if addr_order not in ADDRESS_ORDERS:
        raise ValueError(
            f"addr_order must be one of {ADDRESS_ORDERS}, got {addr_order!r}"
        )
    return addr_order


class _AltoSpec:
    """Compiled per-shape ALTO interleaving (cached by shape).

    Attributes
    ----------
    bits:
        ``ceil(log2(m_d))`` per mode.
    total_bits:
        Sum of ``bits`` — the width of the interleaved address.
    segments:
        ``(dim, src_shift, dst_shift, width)`` tuples: ``width``
        consecutive bits of mode ``dim`` starting at value bit
        ``src_shift`` land at address bits ``dst_shift ..``.
    masks:
        Per-mode ``uint64`` mask of the *address* bits owned by the mode
        (the public :func:`alto_masks` view of the interleaving).
    bit_dim / bit_src:
        Per address bit (LSB first): owning mode and its value-bit index
        — the bit-granular view the box decomposition walks.
    """

    __slots__ = (
        "shape", "bits", "total_bits", "segments", "masks",
        "bit_dim", "bit_src", "undecided", "_spread_tables",
    )

    def __init__(self, shape: tuple[int, ...]):
        self.shape = shape
        self.bits = tuple(
            max(int(m) - 1, 0).bit_length() for m in shape
        )
        self.total_bits = sum(self.bits)
        if self.total_bits > 64:
            raise ShapeError(
                f"tensor shape {shape} needs {self.total_bits} interleaved "
                "address bits; ALTO addresses overflow uint64. Fall back to "
                "the lexicographic (non-linearizable) path or split the "
                "tensor into blocks."
            )
        remaining = list(self.bits)
        next_src = [0] * len(shape)
        bit_dim: list[int] = []
        bit_src: list[int] = []
        # Round-robin from the LSB, last mode first (mirrors row-major's
        # "last dimension varies fastest"), dropping exhausted modes.
        while len(bit_dim) < self.total_bits:
            for dim in range(len(shape) - 1, -1, -1):
                if remaining[dim] > 0:
                    bit_dim.append(dim)
                    bit_src.append(next_src[dim])
                    next_src[dim] += 1
                    remaining[dim] -= 1
        self.bit_dim = tuple(bit_dim)
        self.bit_src = tuple(bit_src)
        segments: list[tuple[int, int, int, int]] = []
        for dst, (dim, src) in enumerate(zip(bit_dim, bit_src)):
            if (
                segments
                and segments[-1][0] == dim
                and segments[-1][1] + segments[-1][3] == src
                and segments[-1][2] + segments[-1][3] == dst
            ):
                dim0, src0, dst0, width = segments[-1]
                segments[-1] = (dim0, src0, dst0, width + 1)
            else:
                segments.append((dim, src, dst, 1))
        self.segments = tuple(segments)
        masks = np.zeros(len(shape), dtype=INDEX_DTYPE)
        for dim, _src, dst, width in segments:
            masks[dim] |= np.uint64(((1 << width) - 1) << dst)
        self.masks = masks
        # undecided[b][d]: value-space mask of mode d's bits living at
        # address bits 0..b — the per-node slack of the box-range DFS.
        undecided: list[tuple[int, ...]] = []
        acc = [0] * len(shape)
        for dim, src in zip(bit_dim, bit_src):
            acc[dim] |= 1 << src
            undecided.append(tuple(acc))
        self.undecided = tuple(undecided)
        self._spread_tables: tuple[np.ndarray, ...] | None | bool = False

    @property
    def spread_tables(self) -> tuple[np.ndarray, ...] | None:
        """Per-mode ``value -> interleaved bits`` lookup tables.

        Turns the per-segment shift/mask loop of :func:`linearize_alto`
        into one gather per mode — the encode is then as cheap as the
        row-major stride dot product.  Built lazily on first use and
        only while every mode stays within ``_SPREAD_TABLE_BITS``
        (tables are ``2**bits`` entries per mode); ``None`` means the
        caller must fall back to the segment loop.
        """
        if self._spread_tables is False:
            if max(self.bits, default=0) > _SPREAD_TABLE_BITS:
                self._spread_tables = None
            else:
                tables = []
                for d, nbits in enumerate(self.bits):
                    v = np.arange(1 << nbits, dtype=INDEX_DTYPE)
                    spread = np.zeros(v.shape[0], dtype=INDEX_DTYPE)
                    for dim, src, dst, width in self.segments:
                        if dim != d:
                            continue
                        field = (v >> np.uint64(src)) & np.uint64(
                            (1 << width) - 1
                        )
                        spread |= field << np.uint64(dst)
                    tables.append(spread)
                self._spread_tables = tuple(tables)
        return self._spread_tables


#: Spread tables cap: modes longer than 2**16 fall back to the segment
#: loop rather than materialize multi-megabyte lookup tables.
_SPREAD_TABLE_BITS = 16


_ALTO_SPECS: dict[tuple[int, ...], _AltoSpec] = {}


def _alto_spec(shape: Sequence[int]) -> _AltoSpec:
    key = tuple(int(m) for m in shape)
    spec = _ALTO_SPECS.get(key)
    if spec is None:
        spec = _ALTO_SPECS[key] = _AltoSpec(key)
    return spec


def fits_alto(shape: Sequence[int]) -> bool:
    """Whether ``shape``'s interleaved addresses fit in the index dtype.

    Stricter than :func:`~repro.core.dtypes.fits_index_dtype`: ALTO
    rounds every mode up to a power of two, so
    ``sum(ceil(log2(m_d)))`` must stay within 64 bits.
    """
    return sum(max(int(m) - 1, 0).bit_length() for m in shape) <= 64


def alto_masks(shape: Sequence[int]) -> np.ndarray:
    """Per-mode ``uint64`` masks of the address bits each mode owns.

    ORing all masks gives the full address mask
    (``2**total_bits - 1``); the masks are disjoint.
    """
    return _alto_spec(shape).masks.copy()


def alto_address_bits(shape: Sequence[int]) -> int:
    """Width of the interleaved address space for ``shape``."""
    return _alto_spec(shape).total_bits


def linearize_alto(
    coords: np.ndarray,
    shape: Sequence[int],
    *,
    validate: bool = True,
) -> np.ndarray:
    """Interleaved ALTO addresses for an ``(n, d)`` coordinate array.

    Unlike row-major addresses, ALTO addresses are *sparse*: the maximum
    address is ``2**total_bits - 1``, which can exceed
    ``cell_count(shape) - 1`` whenever a mode size is not a power of two.
    Monotone per coordinate (others held fixed), so a box's address
    envelope is still ``[lin(origin), lin(end - 1)]``.
    """
    coords = _validate_coords(coords, shape)
    spec = _alto_spec(shape)
    if validate and coords.size:
        _check_bounds(coords, shape)
    tables = spec.spread_tables
    if tables is not None:
        out = tables[0][coords[:, 0]] if tables else np.zeros(
            coords.shape[0], dtype=INDEX_DTYPE
        )
        for d in range(1, len(tables)):
            out = out | tables[d][coords[:, d]]
        return out
    out = np.zeros(coords.shape[0], dtype=INDEX_DTYPE)
    for dim, src, dst, width in spec.segments:
        field = coords[:, dim]
        if src:
            field = field >> np.uint64(src)
        field = field & np.uint64((1 << width) - 1)
        out |= field << np.uint64(dst)
    return out


def delinearize_alto(
    addresses: np.ndarray,
    shape: Sequence[int],
    *,
    validate: bool = True,
) -> np.ndarray:
    """Inverse of :func:`linearize_alto`."""
    addresses = as_index_array(addresses)
    if addresses.ndim != 1:
        raise ShapeError("addresses must be a 1D vector")
    spec = _alto_spec(shape)
    if validate and addresses.size:
        full = np.uint64((1 << spec.total_bits) - 1)
        if np.any(addresses & ~full):
            raise ShapeError(
                f"address {int(addresses.max())} has bits outside the "
                f"{spec.total_bits}-bit ALTO space of shape "
                f"{tuple(int(m) for m in shape)}"
            )
    out = np.zeros((addresses.shape[0], len(shape)), dtype=INDEX_DTYPE)
    for dim, src, dst, width in spec.segments:
        field = addresses
        if dst:
            field = field >> np.uint64(dst)
        field = field & np.uint64((1 << width) - 1)
        out[:, dim] |= field << np.uint64(src)
    return out


def address_space_size(
    shape: Sequence[int], addr_order: str = DEFAULT_ADDRESS_ORDER
) -> int:
    """Exclusive upper bound of the address space in ``addr_order``.

    ``row_major`` addresses are dense (``cell_count``); ``alto``
    addresses span the power-of-two envelope ``2**total_bits``.
    """
    validate_addr_order(addr_order)
    if addr_order == "alto":
        return 1 << _alto_spec(shape).total_bits
    from .dtypes import cell_count

    return cell_count(shape)


def fits_addr_order(shape: Sequence[int], addr_order: str) -> bool:
    """Whether ``shape`` is linearizable at all in ``addr_order``."""
    validate_addr_order(addr_order)
    if addr_order == "alto":
        return fits_alto(shape)
    from .dtypes import fits_index_dtype

    return fits_index_dtype(shape)


def linearize_order(
    coords: np.ndarray,
    shape: Sequence[int],
    addr_order: str = DEFAULT_ADDRESS_ORDER,
    *,
    validate: bool = True,
) -> np.ndarray:
    """Order-dispatched linearize (``row_major`` or ``alto``)."""
    if addr_order == "alto":
        return linearize_alto(coords, shape, validate=validate)
    validate_addr_order(addr_order)
    return linearize(coords, shape, validate=validate)


def delinearize_order(
    addresses: np.ndarray,
    shape: Sequence[int],
    addr_order: str = DEFAULT_ADDRESS_ORDER,
    *,
    validate: bool = True,
) -> np.ndarray:
    """Order-dispatched delinearize (``row_major`` or ``alto``)."""
    if addr_order == "alto":
        return delinearize_alto(addresses, shape, validate=validate)
    validate_addr_order(addr_order)
    return delinearize(addresses, shape, validate=validate)


def alto_box_ranges(
    origin: Sequence[int],
    end: Sequence[int],
    shape: Sequence[int],
    *,
    max_ranges: int = 64,
) -> list[tuple[int, int]]:
    """Decompose a half-open box into contiguous ALTO address intervals.

    BIGMIN-style DFS over the interleaved bits, MSB first: a subtree
    whose per-mode prefix interval misses the box in any mode is pruned;
    one fully contained in every mode emits its whole address span.  The
    result is an ascending list of inclusive ``(lo, hi)`` intervals
    covering exactly the box's addresses — except when the interval
    budget is hit, where the remaining subtree is emitted whole (a sound
    over-approximation: pruning with a coarsened list can only visit
    more, never miss).  A box needs O(bits) intervals per split mode, so
    ``max_ranges=64`` is rarely binding in practice.
    """
    spec = _alto_spec(shape)
    d = len(spec.shape)
    lo_box = [max(int(o), 0) for o in origin]
    hi_box = [min(int(e), int(m)) - 1 for e, m in zip(end, shape)]
    if any(h < l for l, h in zip(lo_box, hi_box)):
        return []
    if spec.total_bits == 0:
        return [(0, 0)]
    out: list[tuple[int, int]] = []

    def emit(lo: int, hi: int) -> None:
        if out and out[-1][1] + 1 == lo:
            out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))

    def rec(bit: int, prefix: int, dvals: list[int]) -> None:
        # Bits above ``bit`` are decided; the node spans addresses
        # ``[prefix, prefix + 2**(bit+1) - 1]``.
        if bit < 0:
            slack = (0,) * d
        else:
            slack = spec.undecided[bit]
        contained = True
        for dim in range(d):
            lo_d = dvals[dim]
            hi_d = dvals[dim] | slack[dim]
            if hi_d < lo_box[dim] or lo_d > hi_box[dim]:
                return
            if lo_d < lo_box[dim] or hi_d > hi_box[dim]:
                contained = False
        span_hi = prefix + ((1 << (bit + 1)) - 1 if bit >= 0 else 0)
        if contained or bit < 0 or len(out) >= max_ranges:
            emit(prefix, span_hi)
            return
        dim = spec.bit_dim[bit]
        src = spec.bit_src[bit]
        rec(bit - 1, prefix, dvals)
        dvals[dim] |= 1 << src
        rec(bit - 1, prefix | (1 << bit), dvals)
        dvals[dim] &= ~(1 << src)

    rec(spec.total_bits - 1, 0, [0] * d)
    return out


@dataclass(frozen=True)
class AddressIntervals:
    """A box as ascending, disjoint, inclusive address intervals.

    ``lo`` / ``hi`` are ``uint64`` arrays in the space of address order
    ``order``.  ``exact`` says whether the intervals hold exactly the
    box's cells; ``False`` means an interval budget coarsened them to a
    superset.
    """

    lo: np.ndarray
    hi: np.ndarray
    exact: bool
    order: str

    def __len__(self) -> int:
        return int(self.lo.shape[0])

    def select(self, addresses: np.ndarray) -> np.ndarray:
        """Positions of the ``addresses`` (in any order) inside an
        interval: an envelope compare, then one ``searchsorted`` of the
        survivors."""
        if not len(self):
            return np.empty(0, dtype=np.intp)
        inside = np.flatnonzero(
            (addresses >= self.lo[0]) & (addresses <= self.hi[-1])
        )
        if len(self) > 1 and inside.size:
            cand = addresses[inside]
            at = self.lo.searchsorted(cand, side="right") - 1
            inside = inside[cand <= self.hi[at]]
        return inside


def alto_box_intervals(
    origin: Sequence[int],
    end: Sequence[int],
    shape: Sequence[int],
    *,
    max_ranges: int = 64,
) -> AddressIntervals:
    """:func:`alto_box_ranges` as interval arrays, exact when the ranges
    cover no more addresses than the box has cells."""
    ranges = alto_box_ranges(origin, end, shape, max_ranges=max_ranges)
    cells = 1
    for o, e, m in zip(origin, end, shape):
        cells *= max(0, min(int(e), int(m)) - max(int(o), 0))
    pairs = np.array(ranges, dtype=INDEX_DTYPE).reshape(-1, 2)
    covered = sum(hi - lo + 1 for lo, hi in ranges)
    return AddressIntervals(pairs[:, 0], pairs[:, 1], covered == cells, "alto")


def row_major_box_intervals(
    origin: Sequence[int],
    end: Sequence[int],
    shape: Sequence[int],
    *,
    max_ranges: int = 4096,
) -> AddressIntervals:
    """Decompose a half-open box into ascending row-major intervals.

    The modes after the last one the box covers only in part fold into
    every interval, so the exact decomposition is one interval per cell
    of the leading modes before that one.  Past ``max_ranges`` such
    cells it stops at the deepest leading prefix within budget and
    emits each prefix's sub-box envelope ``[lin(lo, ...), lin(hi - 1,
    ...)]`` — a superset, since row-major addresses are monotone in
    every coordinate — flagged ``exact=False``.
    """
    shape = [int(m) for m in shape]
    lo = [max(int(o), 0) for o in origin]
    hi = [min(int(e), m) for e, m in zip(end, shape)]
    if any(top <= bottom for bottom, top in zip(lo, hi)):
        empty = np.empty(0, dtype=INDEX_DTYPE)
        return AddressIntervals(empty, empty, True, DEFAULT_ADDRESS_ORDER)
    partial = [
        j for j, m in enumerate(shape) if lo[j] > 0 or hi[j] < m
    ]
    depth = partial[-1] if partial else 0
    prefixes = 1
    for j in range(depth):
        prefixes *= hi[j] - lo[j]
    exact = True
    while prefixes > max(1, max_ranges):
        depth -= 1
        prefixes //= hi[depth] - lo[depth]
        exact = False
    strides = [int(s) for s in row_major_strides(shape)]
    base = np.zeros(1, dtype=INDEX_DTYPE)
    for j in range(depth):
        axis = np.arange(lo[j], hi[j], dtype=INDEX_DTYPE) * INDEX_DTYPE.type(
            strides[j]
        )
        base = (base[:, np.newaxis] + axis[np.newaxis, :]).ravel()
    first = sum(c * s for c, s in zip(lo[depth:], strides[depth:]))
    last = sum((c - 1) * s for c, s in zip(hi[depth:], strides[depth:]))
    return AddressIntervals(
        base + INDEX_DTYPE.type(first), base + INDEX_DTYPE.type(last), exact,
        DEFAULT_ADDRESS_ORDER,
    )


def fold_shape_2d(shape: Sequence[int], *, min_dim_as: str = "rows") -> tuple[int, int]:
    """The 2D target shape used by GCSR++ / GCSC++ (Algorithm 1 line 6).

    GCSR++ picks the *smallest* dimension size as the number of rows and the
    product of the remaining sizes as the number of columns; GCSC++ uses the
    smallest size as the number of columns instead (§II-D difference (1)).

    Parameters
    ----------
    shape:
        Original tensor shape.
    min_dim_as:
        ``"rows"`` (GCSR++) or ``"cols"`` (GCSC++).
    """
    if len(shape) == 0:
        raise ShapeError("cannot fold a 0-dimensional shape")
    check_linearizable(shape)
    smallest = min(int(m) for m in shape)
    if smallest == 0:
        raise ShapeError("cannot fold a shape with a zero-sized dimension")
    total = 1
    for m in shape:
        total *= int(m)
    rest = total // smallest
    if min_dim_as == "rows":
        return smallest, rest
    if min_dim_as == "cols":
        return rest, smallest
    raise ValueError(f"min_dim_as must be 'rows' or 'cols', got {min_dim_as!r}")


def fold_coords_2d(
    coords: np.ndarray,
    shape: Sequence[int],
    *,
    min_dim_as: str = "rows",
) -> tuple[np.ndarray, tuple[int, int]]:
    """Fold ``(n, d)`` coordinates into 2D via the linear address.

    Implements Algorithm 1 lines 8–9: linearize against the original shape,
    then delinearize against the folded 2D shape.  Locality in the original
    row-major order is preserved exactly, which is the paper's "locality is
    preserved very well" lesson (§IV).
    """
    shape2d = fold_shape_2d(shape, min_dim_as=min_dim_as)
    addresses = linearize(coords, shape)
    coords2d = delinearize(addresses, shape2d)
    return coords2d, shape2d
