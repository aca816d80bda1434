"""Fragment files: one WRITE call == one immutable binary fragment.

A :class:`Fragment` is the on-disk unit of Algorithm 3: the packaged index
buffers of one organization plus the (possibly reorganized) value buffer.
Fragments are immutable once written; datasets grow by appending fragments
(exactly TileDB's fragment model, which the paper's benchmark system
mirrors).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from ..core.boundary import Box, extract_boundary
from ..core.costmodel import NULL_COUNTER, OpCounter
from ..core.errors import ChecksumError, FragmentError, FragmentIOError
from ..core.linearize import DEFAULT_ADDRESS_ORDER, AddressIntervals
from ..formats.base import (
    AddressProbeFormat,
    BoxHits,
    EncodedTensor,
    ReadResult,
)
from ..formats.registry import get_format
from ..obs import counter_add, gauge_set, get_registry, is_enabled, span
from .durability import (
    _file_seq,
    fragment_file_crc,
    read_bytes,
    recorded_crc,
    write_bytes_atomic,
)

from .compression import codec_sizes
from .planner import ZoneMap
from .serialization import (
    FragmentPayload,
    pack_fragment,
    unpack_fragment,
    unpack_header,
)


def record_fragment_written(
    format_name: str, raw_nbytes: int, file_nbytes: int
) -> None:
    """Account one committed fragment: bytes written + compression ratio.

    Called by :func:`write_fragment`, so every write path (plain, batch,
    compaction, migration) feeds the same ``fragment.*`` counters.
    """
    if not is_enabled():
        return
    counter_add("fragment.bytes_written", file_nbytes, format=format_name)
    reg = get_registry()
    raw_total = reg.counter("fragment.raw_nbytes")
    file_total = reg.counter("fragment.file_nbytes")
    raw_total.inc(raw_nbytes)
    file_total.inc(file_nbytes)
    if file_total.value:
        gauge_set(
            "fragment.compression_ratio", raw_total.value / file_total.value
        )


@dataclass
class FragmentInfo:
    """Cheap header-only view of a fragment (no index buffers decoded).

    ``crc`` is the fragment's fingerprint: the CRC-32 of its body, which
    is also the value of the file's 4-byte trailer (see
    :func:`~repro.storage.durability.fragment_file_crc`).  It is recorded
    in the store manifest at commit time, and every load and ``repro
    fsck`` compare the file's trailer against it, so a file that is
    intact but is not the fragment the manifest lists (swapped, or
    restored from elsewhere) is caught.  ``None`` when the manifest
    records no fingerprint.

    ``zone`` is the fragment's global linear-address zone map
    (:class:`~repro.storage.planner.ZoneMap`), recorded at write/compact
    time and lazily backfilled for pre-zone-map manifests.  ``None``
    means "no range metadata" — such a fragment is never pruned by the
    planner's zone stage.

    ``codecs`` maps each stored codec chain tag to that chain's bytes on
    disk within the fragment (index buffers plus the value buffer), and
    ``raw_nbytes`` is what the same payload would occupy uncompressed —
    recorded at commit time so ``repro stats --compression`` and
    ``store.explain()`` report per-codec footprints without reading any
    fragment file.  ``None`` for manifests predating the cascade layer;
    backfilled lazily from fragment headers on demand.

    ``born`` / ``retired`` bound the fragment's *generation lifetime*:
    it is visible to manifest generation ``g`` iff ``born <= g`` and
    (``retired is None`` or ``g < retired``).  ``born`` is stamped at
    the first manifest commit that lists the fragment (``None`` until
    then, and loaded as 0 from pre-snapshot manifests); ``retired`` is
    set when compaction or WAL packing supersedes it.  Retired
    fragments live in the manifest's ``"retired"`` list until
    retention/GC deletes them (see ``docs/WAL_SNAPSHOTS.md``).

    ``seq`` is the fragment's *logical* write sequence, used to order
    fragments for newest-wins reads.  ``None`` means "use the number in
    the file name"; a rewrite (format or address-order migration) takes
    a fresh file name but pins ``seq`` to the replaced fragment's slot,
    in its header's ``extra`` too, so its points keep their position in
    the shadowing order when the manifest is rebuilt from the files.
    More header marks serve that rebuild
    (:func:`~repro.storage.durability._rebuild_rule`): a compaction
    output's ``extra`` carries ``"compacted"`` (``true``, or in a banded
    store the ``[lo, hi]`` range it holds every earlier fragment of) and
    may name the commits it vouches for (``"vouches"``), a banded
    store's fragment its band (``"band"``), and each file of a
    multi-file commit names the commit's last file (``"commit_end"``).

    ``addr_order`` names the linearization order the fragment's zone map
    (and any order-bearing payload) is expressed in — ``"row_major"``
    for every fragment written before address orders existed (the tag is
    only persisted when it differs, so legacy manifests and fragment
    bytes are unchanged).  Mixed-order stores prune each fragment in its
    own space (see :class:`~repro.storage.planner.QueryKeys`).
    """

    path: Path
    format_name: str
    shape: tuple[int, ...]
    nnz: int
    bbox: Box
    nbytes: int
    crc: int | None = None
    zone: "ZoneMap | None" = None
    born: int | None = None
    retired: int | None = None
    codecs: dict[str, int] | None = None
    raw_nbytes: int | None = None
    seq: int | None = None
    addr_order: str = "row_major"

    def effective_seq(self) -> int:
        """The logical write sequence (explicit ``seq`` or the file name's)."""
        if self.seq is not None:
            return int(self.seq)
        return _file_seq(self.path.name)

    @classmethod
    def from_header(
        cls, path: Path, header: dict[str, Any], data: bytes | None = None
    ) -> "FragmentInfo":
        """The view of the fragment file at ``path`` from its header: the
        one builder behind :func:`write_fragment`, the header reader and
        fsck's recovery.  ``data``, the whole file when the caller holds
        it, gives the size and the CRC; without it the size is asked of
        the file and the CRC is unknown."""
        origin = tuple(int(v) for v in header.get("bbox_origin", []))
        size = tuple(int(v) for v in header.get("bbox_size", []))
        if not origin and header["shape"]:
            origin = tuple(0 for _ in header["shape"])
            size = tuple(int(m) for m in header["shape"])
        codecs, raw_nbytes = codec_sizes(header)
        extra = header.get("extra") or {}
        meta = header.get("meta") or {}
        addr_order = str(
            extra.get("addr_order")
            or meta.get("addr_order")
            or DEFAULT_ADDRESS_ORDER
        )
        # A rewrite's header records the slot it took over.
        seq = extra.get("seq")
        return cls(
            path=path,
            format_name=header["format"],
            shape=tuple(int(m) for m in header["shape"]),
            nnz=int(header["nnz"]),
            bbox=Box(origin, size),
            nbytes=path.stat().st_size if data is None else len(data),
            crc=None if data is None else fragment_file_crc(data),
            codecs=codecs,
            raw_nbytes=raw_nbytes,
            seq=None if seq is None else int(seq),
            addr_order=addr_order,
        )

    def to_entry(self) -> dict[str, Any]:
        """The fragment's manifest entry: the one writer of the schema."""
        entry = {
            "file": self.path.name,
            "format": self.format_name,
            "shape": list(self.shape),
            "nnz": self.nnz,
            "bbox_origin": list(self.bbox.origin),
            "bbox_size": list(self.bbox.size),
            "nbytes": self.nbytes,
            "crc": self.crc,
            "zone": self.zone.to_json() if self.zone else None,
            "born": self.born,
        }
        if self.retired is not None:
            entry["retired"] = self.retired
        if self.codecs is not None:
            entry["codecs"] = self.codecs
            entry["raw_nbytes"] = self.raw_nbytes
        if self.seq is not None:
            entry["seq"] = self.seq
        if self.addr_order != DEFAULT_ADDRESS_ORDER:
            entry["addr_order"] = self.addr_order
        return entry

    @classmethod
    def from_entry(cls, directory: Path, e: dict[str, Any]) -> "FragmentInfo":
        """Parse a manifest entry (:meth:`to_entry`) of a fragment in
        ``directory``.  Keys older manifests lack load as the defaults;
        zone maps and codec sizes are backfilled on demand."""
        return cls(
            path=directory / e["file"],
            format_name=e["format"],
            shape=tuple(e["shape"]),
            nnz=int(e["nnz"]),
            bbox=Box(tuple(e["bbox_origin"]), tuple(e["bbox_size"])),
            nbytes=int(e["nbytes"]),
            crc=recorded_crc(e.get("crc")),
            zone=ZoneMap.from_json(e.get("zone")),
            born=int(e.get("born") or 0),
            retired=int(e["retired"]) if e.get("retired") is not None else None,
            codecs=e.get("codecs"),
            raw_nbytes=e.get("raw_nbytes"),
            seq=int(e["seq"]) if e.get("seq") is not None else None,
            addr_order=str(e.get("addr_order") or DEFAULT_ADDRESS_ORDER),
        )


def write_fragment(
    path: str | os.PathLike,
    encoded: EncodedTensor,
    *,
    coords_for_bbox: np.ndarray | None = None,
    bbox: Box | None = None,
    extra: dict[str, Any] | None = None,
    fsync: bool = False,
    codec: str = "raw",
) -> FragmentInfo:
    """Serialize an encoded tensor to ``path``.

    Parameters
    ----------
    encoded:
        Output of :meth:`SparseFormat.encode` (payload + aligned values).
    coords_for_bbox:
        Original coordinate buffer, used to record the fragment's tight
        bounding box for READ-side overlap pruning.  When omitted the whole
        tensor shape is recorded as the box.
    bbox:
        Precomputed tight bounding box; takes precedence over
        ``coords_for_bbox``.  The merge-based compaction path passes the
        union of the source fragments' boxes here so the box stays tight
        without materializing any coordinate buffer.
    extra:
        Arbitrary JSON-able annotations (the block layer stores its grid
        position here).
    fsync:
        Flush to stable storage before returning — enable when measuring
        write time so the OS page cache does not hide the transfer
        (DESIGN.md §4).
    """
    path = Path(path)
    if bbox is None:
        if coords_for_bbox is not None and coords_for_bbox.shape[0] > 0:
            bbox = extract_boundary(coords_for_bbox)
        else:
            bbox = Box(tuple(0 for _ in encoded.shape), encoded.shape)
    with span("fragment.write", format=encoded.fmt.name) as sp:
        blob = pack_fragment(
            encoded.fmt.name,
            encoded.shape,
            encoded.nnz,
            encoded.meta,
            encoded.payload,
            encoded.values,
            bbox_origin=bbox.origin,
            bbox_size=bbox.size,
            extra=extra,
            codec=codec,
        )
        write_bytes_atomic(path, blob, fsync=fsync)
        sp.add_nnz(encoded.nnz)
        sp.add_bytes_out(len(blob))
    record_fragment_written(encoded.fmt.name, encoded.nbytes, len(blob))
    return FragmentInfo.from_header(path, unpack_header(blob)[0], blob)


def _read_header(path: Path) -> dict[str, Any]:
    try:
        with open(path, "rb") as fh:
            # Headers are small; 64 KiB covers any realistic JSON header.
            head = fh.read(65536)
    except OSError as exc:
        raise FragmentIOError(f"cannot read fragment {path}: {exc}") from exc
    return unpack_header(head)[0]


def read_fragment_header(path: str | os.PathLike) -> FragmentInfo:
    """Decode only the header of a fragment file."""
    path = Path(path)
    return FragmentInfo.from_header(path, _read_header(path))


def read_fragment_marks(path: str | os.PathLike) -> dict[str, Any]:
    """The ``extra`` marks of a fragment file's header, ``{}`` when it
    cannot be read (a rebuild drops such a file anyway)."""
    try:
        return _read_header(Path(path)).get("extra") or {}
    except FragmentError:
        return {}


def load_fragment(
    path: str | os.PathLike, *, crc: int | None = None
) -> FragmentPayload:
    """Load, verify and decode a whole fragment file.

    Raw I/O failures raise :class:`~repro.core.errors.FragmentIOError`;
    corruption raises :class:`~repro.core.errors.ChecksumError` or another
    :class:`~repro.core.errors.FragmentError`.  The file's trailing CRC
    is always verified against its body; ``crc``, the fingerprint the
    manifest records (:attr:`FragmentInfo.crc`), is compared against the
    trailer too, so an intact file that is not the listed fragment
    raises :class:`~repro.core.errors.ChecksumError`.
    """
    try:
        data = read_bytes(path)
    except OSError as exc:
        raise FragmentIOError(f"cannot read fragment {path}: {exc}") from exc
    counter_add("fragment.bytes_read", len(data))
    held = fragment_file_crc(data)
    if crc is not None and held != crc:
        raise ChecksumError(
            f"fragment checksum mismatch: {path} holds CRC {held:#010x}, "
            f"the manifest records {crc:#010x}"
        )
    return unpack_fragment(data)


def payload_encoded(payload: FragmentPayload) -> EncodedTensor:
    """A loaded fragment as an :class:`EncodedTensor` — the source of
    every format and address-order rewrite."""
    return EncodedTensor(
        fmt=get_format(payload.format_name),
        shape=tuple(int(m) for m in payload.shape),
        nnz=int(payload.nnz),
        payload=dict(payload.buffers),
        meta=dict(payload.meta),
        values=np.asarray(payload.values),
    )


def fragment_to_tensor(payload: FragmentPayload) -> "SparseTensor":
    """Reconstruct the fragment's full point set as a tensor.

    Uses the organization's ``decode`` (the inverse transform), so the
    coordinates come back aligned with the stored value buffer.  Fragments
    written with ``relative_coords`` come back in fragment-local space; the
    store layer re-bases them.
    """
    from ..core.tensor import SparseTensor

    # Full-tensor decodes are the expense merge-based compaction avoids;
    # counting them here lets tests assert the merge path stays decode-free.
    counter_add("store.full_tensor_decodes", format=payload.format_name)
    fmt = get_format(payload.format_name)
    coords = fmt.decode(payload.buffers, payload.meta, payload.shape)
    return SparseTensor(payload.shape, coords, np.asarray(payload.values))


def query_fragment_box(
    payload: FragmentPayload,
    box,
    intervals: AddressIntervals | None = None,
) -> BoxHits:
    """Range read of one fragment: the organization's box probe.

    ``intervals`` (the box in the fragment's space and address order)
    lets LINEAR and GCSR++ cut address ranges instead of decoding the
    payload; their hits come back as row-major addresses.  Other
    organizations return coordinates (local space for relative
    fragments — the store layer re-bases).
    """
    fmt = get_format(payload.format_name)
    return fmt.box_probe(
        payload.buffers, payload.meta, payload.shape, box, intervals
    )


def query_fragment(
    payload: FragmentPayload,
    query_coords: np.ndarray,
    *,
    faithful: bool = False,
    counter: OpCounter = NULL_COUNTER,
    addresses: np.ndarray | None = None,
) -> tuple[ReadResult, np.ndarray]:
    """Run the fragment's organization READ against ``query_coords``.

    Returns ``(ReadResult, values_of_found)`` — Algorithm 3 READ lines 7–9
    for a single fragment.  ``counter`` is charged by the faithful read path
    (the store layer passes its span's op counter, so Table-I op accounting
    and latency land in one report).  ``addresses`` may carry the same
    query rows already linearized in the payload's address order
    (:func:`~repro.formats.base.meta_addr_order`); organizations that
    probe by address then skip re-linearizing them.
    """
    fmt = get_format(payload.format_name)
    with span("format.read", format=fmt.name) as sp:
        if faithful:
            res = fmt.read_faithful(
                payload.buffers, payload.meta, payload.shape, query_coords,
                counter=counter,
            )
        elif addresses is not None and isinstance(fmt, AddressProbeFormat):
            res = fmt.read_addresses(
                payload.buffers, payload.meta, payload.shape, addresses,
                memo=payload.runtime,
            )
        else:
            res = fmt.read(
                payload.buffers, payload.meta, payload.shape, query_coords,
                memo=payload.runtime,
            )
        sp.add_nnz(int(res.found.sum()))
    return res, res.gather_values(payload.values)
