"""Merge of already-sorted fragment payloads (compaction without decode).

``FragmentStore.compact()`` used to reconstruct every fragment into a
full ``SparseTensor`` (decode + delinearize), concatenate, dedup, and
rebuild from scratch — paying the global linearize + sort the fragments
already paid at write time.  This module replaces that with a k-way
merge over per-fragment *sorted address runs*:

1. each fragment contributes ``(sorted_addresses, value_order)`` via its
   format's :meth:`SparseFormat.extract_addresses` — for LINEAR that is
   a plain argsort of the stored address buffer (no delinearize), for
   COO-SORTED/identity-CSF it is free;
2. the runs are concatenated in fragment order and stably argsorted —
   NumPy's timsort detects the pre-sorted runs, making this the galloping
   k-way merge rather than a fresh O(n log n) sort;
3. duplicate addresses resolve to the *last* occurrence in
   (fragment, stored-position) order — exactly the store's newest-wins
   overwrite rule (:data:`repro.build.canonical.DUPLICATE_POLICY`);
4. the surviving points are re-expressed in concatenation order with
   their sort permutation *derived* (not re-sorted), so the output
   fragment is bit-identical to what the legacy decode-and-rebuild
   compaction produced, while sorted target formats still skip their
   build sort.

Steps 2–4 are :func:`newest_wins`, which the WAL pack also runs, once,
over its raw appended chunks concatenated oldest-first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.sorting import invert_permutation, stable_argsort
from ..obs import counter_add
from .canonical import CanonicalCoords


@dataclass
class SortedRun:
    """One fragment's contribution to a merge.

    ``addresses`` are ascending global linear addresses; ``values`` is
    the aligned value buffer (already gathered into address order);
    ``positions`` maps each entry back to its stored position inside the
    source fragment (used to reconstruct newest-wins order across runs).
    """

    addresses: np.ndarray
    values: np.ndarray
    positions: np.ndarray


@dataclass
class MergedPoints:
    """Result of a newest-wins merge, in legacy concatenation order.

    ``canonical`` carries the merged addresses *plus* their known sort
    permutation, so a follow-up :meth:`SparseFormat.build_canonical`
    never re-sorts; ``values`` is aligned with ``canonical``'s input
    order.  The point order matches what decode-and-rebuild compaction
    produced (concatenated stored order, duplicates collapsed to the
    newest), which keeps the two strategies bit-identical.
    """

    canonical: CanonicalCoords
    values: np.ndarray


def merge_sorted_runs(
    runs: list[SortedRun],
    shape: tuple[int, ...],
    *,
    addr_order: str = "row_major",
) -> MergedPoints:
    """Newest-wins k-way merge of sorted address runs.

    Runs must be given oldest-first (fragment commit order); within a
    run, entries with equal addresses must be in stored order — both are
    what :meth:`SparseFormat.extract_addresses` yields.  ``addr_order``
    names the address space the runs are sorted in (every run must
    already be expressed in it — mixed-order sources convert before
    merging); the merged canonical inherits it.
    """
    counter_add("build.merge.runs", len(runs))
    if not runs:
        return newest_wins(
            np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float64),
            shape, addr_order=addr_order,
        )
    addresses = np.concatenate([r.addresses for r in runs])
    values = np.concatenate([r.values for r in runs])
    # Global stored position of every entry: fragment offset + position
    # inside the fragment.  Equal addresses resolve to the max position,
    # i.e. the newest fragment's latest occurrence.
    offsets = np.cumsum([0] + [r.positions.shape[0] for r in runs[:-1]])
    gpos = np.concatenate(
        [r.positions.astype(np.int64) + off
         for r, off in zip(runs, offsets)]
    )
    counter_add("build.merge.points", int(addresses.shape[0]))
    return newest_wins(
        addresses, values, shape, positions=gpos, addr_order=addr_order
    )


def newest_wins(
    addresses: np.ndarray,
    values: np.ndarray,
    shape: tuple[int, ...],
    *,
    positions: np.ndarray | None = None,
    addr_order: str = "row_major",
) -> MergedPoints:
    """Collapse points to one per address, the newest write winning.

    ``positions`` is each entry's global stored position (``None``: its
    index in ``addresses``).  Entries with equal addresses must appear in
    ascending position, which holds for concatenated sorted runs (stable
    within themselves, oldest first) and for raw appends concatenated
    oldest first.  One stable argsort groups equal addresses — timsort
    gallops through pre-sorted runs — and the last entry of each group
    survives.  The survivors come back in position order (what
    decode-and-rebuild produced: deduplicated keep-last, selection
    indices ascending) with their sort permutation *derived*, not
    re-sorted.
    """
    order = stable_argsort(addresses)
    merged = addresses[order]
    if merged.shape[0] == 0:
        return MergedPoints(
            canonical=CanonicalCoords.from_addresses(
                merged, shape, is_sorted=True, addr_order=addr_order
            ),
            values=values,
        )
    is_last = np.empty(merged.shape[0], dtype=bool)
    is_last[-1] = True
    np.not_equal(merged[1:], merged[:-1], out=is_last[:-1])
    survivors = order[is_last]
    addr_sorted = merged[is_last]
    surv_pos = survivors if positions is None else positions[survivors]
    surv_values = values[survivors]
    to_concat_order = stable_argsort(surv_pos)
    sort_perm = invert_permutation(to_concat_order).astype(np.intp)
    return MergedPoints(
        canonical=CanonicalCoords.from_addresses(
            addr_sorted[to_concat_order],
            shape,
            sort_perm=sort_perm,
            sorted_addresses=addr_sorted,
            addr_order=addr_order,
        ),
        values=surv_values[to_concat_order],
    )
