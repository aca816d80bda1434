"""CSF — Compressed Sparse Fiber tree (paper §II-E, Algorithm 2).

One tree level per tensor dimension.  Dimensions are first sorted ascending
by size (Algorithm 2 line 6) to maximize prefix sharing near the root and
shrink the leaf fan-out; points are then lexicographically sorted and each
level ``i`` stores:

``nfibs[i]``
    number of nodes (distinct depth-``i+1`` coordinate prefixes),
``fids[i]``
    the dimension-``i`` coordinate of every node, grouped by parent and
    sorted within each parent's window,
``fptr[i]`` (``i < d-1``)
    ``nfibs[i] + 1`` offsets delimiting each node's children at level
    ``i+1``.

The paper's Fig 1(d) example (``nfibs={2,3,5}``,
``fids={{0,2},{0,1,2},{1,1,2,1,2}}``, ``fptr={{0,2,3},{0,1,3,5}}``) is
reproduced exactly by this implementation and pinned in the tests.

Space depends on prefix sharing: O(n + d) best case (one chain),
~O(2n(1 - (1/2)^d)) with half-duplication per level, O(n * d) worst case —
the variance visible in Fig 4.  Reads descend root→leaf per query,
O(q * d * log fanout) comparisons.
"""

from __future__ import annotations

from typing import Any, Mapping, MutableMapping, Sequence

import numpy as np

from ..core.costmodel import NULL_COUNTER, OpCounter
from ..core.dtypes import INDEX_DTYPE, INDEX_MAX, POINTER_DTYPE, as_index_array
from ..core.errors import FormatError
from ..core.sorting import lexsort_rows
from .base import (
    BuildResult,
    ReadResult,
    SparseFormat,
    empty_read,
    flatten_ranges,
    require_buffers,
)


def sort_dimensions(
    shape: Sequence[int], *, order: str = "ascending"
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Dimension ordering for the tree levels (Algorithm 2 line 6).

    ``"ascending"`` is the paper's choice — smallest dimension at the root
    "to maximize the opportunity for reducing duplicated coordinates".
    ``"descending"`` and ``"natural"`` exist for the ablation that
    validates that choice (``benchmarks/bench_ablation_csf_order.py``).

    Returns ``(dim_perm, sorted_shape)`` with ``sorted_shape[i] ==
    shape[dim_perm[i]]``.  Ties keep original dimension order (stable).
    """
    sizes = np.asarray([int(m) for m in shape], dtype=np.int64)
    if order == "ascending":
        dim_perm = np.argsort(sizes, kind="stable")
    elif order == "descending":
        dim_perm = np.argsort(-sizes, kind="stable")
    elif order == "natural":
        dim_perm = np.arange(len(shape))
    else:
        raise FormatError(
            f"order must be ascending/descending/natural, got {order!r}"
        )
    return dim_perm, tuple(int(sizes[p]) for p in dim_perm)


class CSFFormat(SparseFormat):
    """Compressed Sparse Fiber tree.

    ``dim_order`` controls the level ordering: the paper's default sorts
    dimension sizes ascending (root = smallest dimension).
    """

    name = "CSF"
    reorders_values = True
    linear_addresses = False

    def __init__(self, dim_order: str = "ascending"):
        if dim_order not in ("ascending", "descending", "natural"):
            raise FormatError(
                f"dim_order must be ascending/descending/natural, "
                f"got {dim_order!r}"
            )
        self.dim_order = dim_order

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------

    def build(
        self,
        coords: np.ndarray,
        shape: Sequence[int],
        *,
        counter: OpCounter = NULL_COUNTER,
    ) -> BuildResult:
        coords = as_index_array(coords)
        n, d = coords.shape
        if d != len(shape):
            raise FormatError("coords/shape dimensionality mismatch")
        dim_perm, sorted_shape = sort_dimensions(shape, order=self.dim_order)
        meta: dict[str, Any] = {
            "dim_perm": [int(p) for p in dim_perm],
            "sorted_shape": [int(m) for m in sorted_shape],
        }
        if n == 0:
            payload = {"nfibs": np.zeros(d, dtype=POINTER_DTYPE)}
            for i in range(d):
                payload[f"fids_{i}"] = np.empty(0, dtype=INDEX_DTYPE)
            for i in range(d - 1):
                payload[f"fptr_{i}"] = np.zeros(1, dtype=POINTER_DTYPE)
            return BuildResult(payload=payload, perm=np.empty(0, dtype=np.intp), meta=meta)

        pcoords = coords[:, dim_perm]
        counter.charge_sort(n, note="CSF.build lexsort")
        perm = lexsort_rows(pcoords)
        # Tree construction: one pass per dimension (the n*d term of the
        # build complexity).
        counter.charge_transforms(n * d, note="CSF.build tree")
        payload = self._assemble_tree(pcoords[perm])
        return BuildResult(payload=payload, perm=perm, meta=meta)

    def build_canonical(self, canon, *, counter=NULL_COUNTER) -> BuildResult:
        """BUILD over the canonical intermediate.

        The lexicographic point order in the (size-sorted) dimension
        permutation comes from
        :meth:`CanonicalCoords.ordering_for_dims` — for the identity
        permutation that is exactly the cached address sort, so the
        expensive lexsort disappears while the tree assembly and the
        payload stay bit-identical.  Charges match :meth:`build`.
        """
        d = canon.d
        dim_perm, sorted_shape = sort_dimensions(
            canon.shape, order=self.dim_order
        )
        if canon.n == 0:
            return self.build(canon.coords, canon.shape, counter=counter)
        meta: dict[str, Any] = {
            "dim_perm": [int(p) for p in dim_perm],
            "sorted_shape": [int(m) for m in sorted_shape],
        }
        counter.charge_sort(canon.n, note="CSF.build lexsort")
        perm = canon.ordering_for_dims(dim_perm, sorted_shape)
        counter.charge_transforms(canon.n * d, note="CSF.build tree")
        if list(dim_perm) == list(range(d)) and canon.row_major_sorted:
            # Identity permutation: the lexicographic tree input is the
            # shared sorted-coordinate artifact (one gather per buffer).
            sc = canon.sorted_coords
        else:
            sc = canon.coords[:, dim_perm][perm]
        payload = self._assemble_tree(sc)
        return BuildResult(payload=payload, perm=perm, meta=meta)

    @staticmethod
    def _assemble_tree(sc: np.ndarray) -> dict[str, np.ndarray]:
        """Package lexicographically sorted (permuted) coordinates.

        ``sc`` must be ``(n, d)`` sorted lexicographically with dimension
        0 most significant.  Uses cumulative prefix-change detection:
        ``diff_acc[k]`` is True when point k differs from point k-1 in
        any of dimensions 0..i.
        """
        n, d = sc.shape
        payload: dict[str, np.ndarray] = {}
        nfibs = np.zeros(d, dtype=POINTER_DTYPE)
        level_starts: list[np.ndarray] = []
        diff_acc = np.zeros(max(n - 1, 0), dtype=bool)
        for i in range(d):
            if i == d - 1:
                # Leaf level: one node per stored point (Algorithm 2 line 9),
                # even if coordinate tuples repeat.
                starts = np.arange(n, dtype=np.int64)
            else:
                if n > 1:
                    diff_acc |= sc[1:, i] != sc[:-1, i]
                starts = np.empty(
                    1 + int(np.count_nonzero(diff_acc)), dtype=np.int64
                )
                starts[0] = 0
                starts[1:] = 1 + np.flatnonzero(diff_acc)
            level_starts.append(starts)
            nfibs[i] = starts.shape[0]
            payload[f"fids_{i}"] = sc[starts, i].astype(INDEX_DTYPE, copy=False)
        payload["nfibs"] = nfibs
        for i in range(d - 1):
            # Children of level-i node j are the level-(i+1) nodes whose
            # first point index falls inside node j's point range; since
            # level-(i+1) starts are a superset of level-i starts, the
            # offsets come straight from a sorted merge.
            fptr = np.empty(int(nfibs[i]) + 1, dtype=POINTER_DTYPE)
            fptr[:-1] = np.searchsorted(level_starts[i + 1], level_starts[i])
            fptr[-1] = nfibs[i + 1]
            payload[f"fptr_{i}"] = fptr
        return payload

    def extract_addresses(self, payload, meta, shape, *, order="row_major"):
        """Sorted address run; free of sorting for the identity permutation.

        With the identity ``dim_perm`` the stored (decode) order is the
        natural lexicographic order, which *is* ascending *row-major*
        linear-address order — the run only needs one linearize pass.
        Other permutations (and non-row-major target orders, where
        lexicographic no longer implies address-sorted) fall back to the
        generic decode-and-sort.
        """
        d = len(shape)
        dim_perm = [int(p) for p in meta.get("dim_perm", range(d))]
        if dim_perm != list(range(d)) or order != "row_major":
            return super().extract_addresses(payload, meta, shape, order=order)
        from ..core.linearize import linearize

        coords = self.decode(payload, meta, shape)
        return linearize(coords, shape, validate=False), None

    # ------------------------------------------------------------------
    # Payload access
    # ------------------------------------------------------------------

    @staticmethod
    def _tree(
        payload: Mapping[str, np.ndarray], d: int
    ) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        require_buffers(
            payload,
            ["nfibs"]
            + [f"fids_{i}" for i in range(d)]
            + [f"fptr_{i}" for i in range(d - 1)],
            "CSF",
        )
        nfibs = payload["nfibs"]
        fids = [payload[f"fids_{i}"] for i in range(d)]
        fptr = [payload[f"fptr_{i}"] for i in range(d - 1)]
        return nfibs, fids, fptr

    @staticmethod
    def stored_elements(payload: Mapping[str, np.ndarray]) -> int:
        """Total index elements in the tree (the Fig 4 size driver)."""
        return int(sum(buf.size for buf in payload.values()))

    def validate_payload(
        self, payload: Mapping[str, np.ndarray], d: int
    ) -> None:
        """Structural invariants of the CSF tree."""
        nfibs, fids, fptr = self._tree(payload, d)
        if nfibs.shape[0] != d:
            raise FormatError("nfibs length must equal ndim")
        for i in range(d):
            if fids[i].shape[0] != int(nfibs[i]):
                raise FormatError(f"fids_{i} length != nfibs[{i}]")
        for i in range(d - 1):
            p = fptr[i].astype(np.int64)
            if p.shape[0] != int(nfibs[i]) + 1:
                raise FormatError(f"fptr_{i} must have nfibs[{i}]+1 entries")
            if p[0] != 0 or p[-1] != int(nfibs[i + 1]):
                raise FormatError(f"fptr_{i} must span level {i + 1}")
            if np.any(np.diff(p) < 0):
                raise FormatError(f"fptr_{i} must be non-decreasing")
            if i < d - 2 and np.any(np.diff(p) == 0):
                # every internal node has at least one child
                raise FormatError(f"fptr_{i} has a childless internal node")
            # fids sorted within each parent window (strictly, except leaves)
            for j in range(int(nfibs[i])):
                seg = fids[i + 1][int(p[j]) : int(p[j + 1])]
                if seg.size > 1:
                    diffs = np.diff(seg.astype(np.int64))
                    strict = i + 1 < d - 1
                    if np.any(diffs < 0) or (strict and np.any(diffs <= 0)):
                        raise FormatError(
                            f"fids_{i + 1} not sorted within parent {j}"
                        )

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------

    def decode(
        self,
        payload: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
        shape: Sequence[int],
    ) -> np.ndarray:
        """Expand the tree back to per-point coordinates.

        Walks leaf-to-root: each leaf's ancestor at level ``i`` is found by
        locating the leaf's index within ``fptr[i]``'s ranges, propagated
        upward level by level, all vectorized with ``repeat``.
        """
        d = len(shape)
        nfibs, fids, fptr = self._tree(payload, d)
        n = int(nfibs[-1]) if nfibs.shape[0] else 0
        dim_perm = list(meta.get("dim_perm", range(d)))
        out = np.empty((n, d), dtype=INDEX_DTYPE)
        if n == 0:
            return out
        # node_expansion[i] = for each point, its ancestor node id at level i.
        ancestor = np.arange(n, dtype=np.int64)  # leaf level
        out[:, dim_perm[d - 1]] = fids[d - 1]
        for i in range(d - 2, -1, -1):
            counts = np.diff(fptr[i].astype(np.int64))
            # parent id of each level-(i+1) node:
            parent_of_node = np.repeat(
                np.arange(int(nfibs[i]), dtype=np.int64), counts
            )
            ancestor = parent_of_node[ancestor]
            out[:, dim_perm[i]] = fids[i][ancestor]
        return out

    # ------------------------------------------------------------------
    # Box (range) reads: subtree pruning
    # ------------------------------------------------------------------

    def box_points(
        self,
        payload: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
        shape: Sequence[int],
        box,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Range read by descending only the subtrees overlapping ``box``.

        At every level the surviving nodes are exactly those whose
        coordinate lies in the box's interval for that (permuted)
        dimension; children are located with one composite binary search
        per level, so work scales with the number of *matching* branches,
        not with n — CSF's structural advantage for region queries.
        """
        d = len(shape)
        nfibs, fids, fptr = self._tree(payload, d)
        n = int(nfibs[-1]) if nfibs.shape[0] else 0
        dim_perm = list(meta.get("dim_perm", range(d)))
        sorted_shape = [
            int(m) for m in meta.get("sorted_shape",
                                     [shape[p] for p in dim_perm])
        ]
        if n == 0 or box.is_empty():
            return (np.empty((0, d), dtype=INDEX_DTYPE),
                    np.empty(0, dtype=np.intp))
        for i in range(1, d):
            if int(nfibs[i - 1]) * sorted_shape[i] > INDEX_MAX:
                return super().box_points(payload, meta, shape, box)
        # Clamp each level's interval to the dimension extent: fids are
        # always < sorted_shape[i], and an unclamped upper bound would
        # push the composite end key into the next parent's key space.
        lo = [
            min(int(box.origin[p]), sorted_shape[i])
            for i, p in enumerate(dim_perm)
        ]
        hi = [
            min(int(box.end[p]), sorted_shape[i])
            for i, p in enumerate(dim_perm)
        ]

        # Level 0: fids[0] is globally sorted.
        a = int(np.searchsorted(fids[0], np.uint64(lo[0]), side="left"))
        b = int(np.searchsorted(fids[0], np.uint64(hi[0]), side="left")) \
            if hi[0] <= INDEX_MAX else int(nfibs[0])
        nodes = np.arange(a, b, dtype=np.int64)
        prefix = np.empty((nodes.shape[0], d), dtype=INDEX_DTYPE)
        prefix[:, 0] = fids[0][nodes]
        for i in range(1, d):
            if nodes.shape[0] == 0:
                break
            k = np.uint64(sorted_shape[i])
            counts = np.diff(fptr[i - 1].astype(np.int64))
            parents_of_pos = np.repeat(
                np.arange(int(nfibs[i - 1]), dtype=np.uint64), counts
            )
            composite = parents_of_pos * k + fids[i].astype(np.uint64)
            pkeys = nodes.astype(np.uint64) * k
            starts = np.searchsorted(composite, pkeys + np.uint64(lo[i]))
            ends = np.searchsorted(composite, pkeys + np.uint64(hi[i]))
            children, owner = flatten_ranges(starts, ends)
            new_prefix = np.empty((children.shape[0], d), dtype=INDEX_DTYPE)
            new_prefix[:, :i] = prefix[owner, :i]
            new_prefix[:, i] = fids[i][children]
            nodes = children
            prefix = new_prefix
        if nodes.shape[0] == 0:
            return (np.empty((0, d), dtype=INDEX_DTYPE),
                    np.empty(0, dtype=np.intp))
        coords = np.empty((nodes.shape[0], d), dtype=INDEX_DTYPE)
        for i in range(d):
            coords[:, dim_perm[i]] = prefix[:, i]
        return coords, nodes.astype(np.intp)

    # ------------------------------------------------------------------
    # Read
    # ------------------------------------------------------------------

    def read(
        self,
        payload: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
        shape: Sequence[int],
        query_coords: np.ndarray,
        *,
        memo: MutableMapping[str, Any] | None = None,
    ) -> ReadResult:
        """Level-synchronous vectorized descent.

        Within each parent's window ``fids`` are sorted, and windows are laid
        out in parent order, so the composite key ``parent_index * m_i +
        fid`` is globally sorted per level — one ``searchsorted`` locates
        every active query's child node at once.  Falls back to the
        per-query descent when the composite key could overflow uint64.
        """
        query = self.validate_query(query_coords, shape)
        d = len(shape)
        q = query.shape[0]
        nfibs, fids, fptr = self._tree(payload, d)
        if q == 0 or int(nfibs[-1]) == 0:
            return empty_read(q)
        dim_perm = list(meta.get("dim_perm", range(d)))
        sorted_shape = [int(m) for m in meta.get("sorted_shape", [shape[p] for p in dim_perm])]
        qp = query[:, dim_perm]

        for i in range(d):
            if i > 0 and int(nfibs[i - 1]) * (sorted_shape[i]) > INDEX_MAX:
                return self._read_descent(
                    payload, meta, shape, query, counter=NULL_COUNTER
                )

        found = np.ones(q, dtype=bool)
        node = np.zeros(q, dtype=np.int64)  # found node index at level i-1
        active = np.arange(q, dtype=np.int64)
        for i in range(d):
            if active.size == 0:
                break
            level_fids = fids[i].astype(np.uint64, copy=False)
            if i == 0:
                composite = level_fids
                qkey = qp[active, 0]
            else:
                k = np.uint64(sorted_shape[i])
                counts = np.diff(fptr[i - 1].astype(np.int64))
                parents = np.repeat(
                    np.arange(int(nfibs[i - 1]), dtype=np.uint64), counts
                )
                composite = parents * k + level_fids
                qkey = node[active].astype(np.uint64) * k + qp[active, i]
            if i == d - 1:
                # Leaf level keeps one node per stored point, so duplicate
                # coordinate tuples appear as equal composite keys; the
                # last one is the newest write (DUPLICATE_POLICY).
                pos = np.searchsorted(composite, qkey, side="right") - 1
                pos_clip = np.maximum(pos, 0)
                hit = (pos >= 0) & (composite[pos_clip] == qkey)
            else:
                pos = np.searchsorted(composite, qkey)
                pos_clip = np.minimum(pos, composite.shape[0] - 1)
                hit = (pos < composite.shape[0]) & (composite[pos_clip] == qkey)
            found[active[~hit]] = False
            active = active[hit]
            node = np.zeros(q, dtype=np.int64) if i == 0 else node
            node[active] = pos_clip[hit]
        positions = node[found].astype(np.intp)
        return ReadResult(found=found, value_positions=positions)

    def _read_descent(
        self,
        payload: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
        shape: Sequence[int],
        query: np.ndarray,
        *,
        counter: OpCounter,
    ) -> ReadResult:
        """Per-query root-to-leaf descent (Algorithm 2 READ, lines 6–22)."""
        d = len(shape)
        q = query.shape[0]
        nfibs, fids, fptr = self._tree(payload, d)
        dim_perm = list(meta.get("dim_perm", range(d)))
        qp = query[:, dim_perm]
        found = np.zeros(q, dtype=bool)
        positions = np.empty(q, dtype=np.intp)
        comparisons = 0
        pointer_loads = 0
        for j in range(q):
            lo, hi = 0, int(nfibs[0])
            fi = -1
            ok = True
            for i in range(d):
                seg = fids[i][lo:hi]
                comparisons += max(1, int(np.ceil(np.log2(seg.shape[0] + 1))))
                if i == d - 1:
                    # Leaf duplicates: take the last (newest) occurrence.
                    pos = int(np.searchsorted(seg, qp[j, i], side="right")) - 1
                    if pos < 0 or seg[pos] != qp[j, i]:
                        ok = False
                        break
                else:
                    pos = int(np.searchsorted(seg, qp[j, i]))
                    if pos >= seg.shape[0] or seg[pos] != qp[j, i]:
                        ok = False
                        break
                fi = lo + pos
                if i < d - 1:
                    pointer_loads += 2
                    lo = int(fptr[i][fi])
                    hi = int(fptr[i][fi + 1])
            if ok:
                found[j] = True
                positions[j] = fi
        counter.charge_comparisons(comparisons, note="CSF.read descent")
        counter.charge_pointer_lookups(pointer_loads, note="CSF.read fptr")
        return ReadResult(found=found, value_positions=positions[found])

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
        if query.shape[0] == 0 or int(payload["nfibs"][-1] if "nfibs" in payload else 0) == 0:
            return empty_read(query.shape[0])
        return self._read_descent(payload, meta, shape, query, counter=counter)
