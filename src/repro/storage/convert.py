"""Store conversion: re-encode a dataset in a different organization.

Conversion is lossless and purely mechanical.  Every fragment takes the
canonical path: payload → canonical intermediate
(:meth:`~repro.storage.store.FragmentStore.fragment_canonical`, built on
the organization's ``extract_addresses``) → target payload
(:meth:`~repro.storage.store.FragmentStore.write_canonical`), one
destination fragment per source fragment, so fragment boundaries — and
therefore overwrite ordering — are preserved.  Converted fragments are
stored in canonical (ascending linear-address) order with the newest
write last within duplicate runs — the point→value mapping, including
newest-wins duplicate resolution, is unchanged.

A source with an **unpacked WAL tail** converts completely: the tail's
live points are written as the destination's final fragment (the tail is
newer than every committed fragment, so the final position preserves its
newest-wins priority).  The source itself is never mutated — its WAL
stays intact.

The advisor (:func:`repro.analysis.advisor.recommend`) can pick the
target; the conversion itself is always an explicit call.
"""

from __future__ import annotations

from pathlib import Path

from ..build.canonical import CanonicalCoords
from ..core.errors import FragmentError
from ..formats.registry import resolve_format
from .store import FragmentStore


def convert_store(
    source: FragmentStore,
    destination_dir: str | Path,
    format_name,
    *,
    codec: str | None = None,
    compact: bool = False,
) -> FragmentStore:
    """Re-encode every fragment of ``source`` into a new store.

    Parameters
    ----------
    source:
        The store to convert (unchanged — a pending WAL tail is copied
        into the destination, not drained from the source).
    destination_dir:
        Directory for the converted store; must not already hold fragments.
    format_name:
        Target organization — a registry name or a
        :class:`~repro.formats.base.SparseFormat` instance.
    codec:
        Target compression codec; defaults to the source's.
    compact:
        Also merge the converted fragments into one (newest-wins dedup).
    """
    destination_dir = Path(destination_dir)
    target = resolve_format(format_name)
    dest = FragmentStore(
        destination_dir,
        source.shape,
        target,
        options=source.options.replace(
            codec=codec if codec is not None else source.codec,
        ),
    )
    if dest.fragments:
        raise FragmentError(
            f"destination {destination_dir} already contains fragments"
        )
    for i in range(len(source.fragments)):
        canon, values = source.fragment_canonical(i)
        dest.write_canonical(canon, values)
    # An unpacked WAL tail holds live points every read of `source`
    # serves; without this the converted store would silently miss them.
    # The tail is newer than all committed fragments, so it lands last
    # (same newest-wins priority it had as an overlay).
    tail = source._wal_tail()
    if tail is not None and tail.n:
        dest.write_canonical(
            CanonicalCoords.from_addresses(
                tail.addresses, source.shape, is_sorted=True
            ),
            tail.values,
        )
    if compact and dest.fragments:
        dest.compact()
    return dest
