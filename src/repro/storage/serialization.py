"""Binary fragment codec.

Algorithm 3's WRITE "concatenates ``b_coor_new`` and ``b_data`` and writes
the result into a single binary fragment file".  This module defines that
on-disk encoding:

::

    +----------+---------+----------------+------------------+-----+
    | magic    | version | header length  | header (JSON)    | pad |
    | 4 bytes  | u32     | u32            | variable         |     |
    +----------+---------+----------------+------------------+-----+
    | buffer 0 bytes | pad | buffer 1 bytes | pad | ... | values   |
    +----------------+-----+----------------+-----+-----+----------+
    | crc32 of everything above (u32)                              |
    +--------------------------------------------------------------+

The JSON header carries the format name, tensor shape, nnz, bounding box,
format metadata, and a manifest of every buffer (name, dtype, shape) so the
payload can be reconstructed without importing the format first.  Buffers
are 8-byte aligned so they can be wrapped zero-copy with ``frombuffer``.

The read side accepts any C-contiguous buffer-protocol object — ``bytes``,
``memoryview``, or an ``np.memmap`` of the whole file.  Sections are
sliced through one ``memoryview``, so ``codec="raw"`` buffers decode
*zero-copy*: the payload arrays alias the input and no section is copied
(``bytes`` slicing would copy each one).

A trailing CRC-32 guards against truncation and bit rot; failure raises
:class:`~repro.core.errors.ChecksumError` (a
:class:`~repro.core.errors.FragmentError` subclass, exercised by the
fault-injection tests).
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from ..core.errors import ChecksumError, FragmentError

MAGIC = b"RPRS"
VERSION = 1
_ALIGN = 8


def _pad(n: int) -> int:
    return (-n) % _ALIGN


def _as_view(data) -> memoryview:
    """One flat byte view over ``data`` (no copy for any accepted input)."""
    if isinstance(data, memoryview):
        return data.cast("B") if data.format != "B" else data
    return memoryview(data).cast("B")


@dataclass
class FragmentPayload:
    """Decoded contents of a fragment."""

    format_name: str
    shape: tuple[int, ...]
    nnz: int
    meta: dict[str, Any]
    buffers: dict[str, np.ndarray]
    values: np.ndarray
    bbox_origin: tuple[int, ...] = ()
    bbox_size: tuple[int, ...] = ()
    extra: dict[str, Any] = field(default_factory=dict)
    #: Process-local read memos (derived search structures the format READ
    #: stashes between queries — see :meth:`SparseFormat.read`).  Never
    #: serialized; dies with the payload, so the decoded-fragment cache
    #: amortizes it exactly as long as the decode itself.
    runtime: dict[str, Any] = field(
        default_factory=dict, repr=False, compare=False
    )


def pack_fragment(
    format_name: str,
    shape: tuple[int, ...],
    nnz: int,
    meta: Mapping[str, Any],
    buffers: Mapping[str, np.ndarray],
    values: np.ndarray,
    *,
    bbox_origin: tuple[int, ...] = (),
    bbox_size: tuple[int, ...] = (),
    extra: Mapping[str, Any] | None = None,
    codec: str = "raw",
) -> bytes:
    """Serialize one fragment to bytes.

    ``codec`` selects the orthogonal compression layer applied to every
    index buffer and the value buffer (``raw`` / ``zlib`` / ``delta-zlib``
    / ``cascade``; see :mod:`repro.storage.compression`).  The stored
    per-buffer tag always records the chain *actually* applied, so decode
    never consults store options.  The paper's size comparisons
    correspond to ``raw``.
    """
    from .compression import CASCADE, ZLIB, encode_buffer, validate_codec

    validate_codec(codec)
    values = np.ascontiguousarray(values)
    encoded: list[tuple[dict[str, Any], bytes]] = []
    for name, arr in buffers.items():
        arr = np.ascontiguousarray(arr)
        blob, stored_codec = encode_buffer(arr, codec)
        encoded.append(
            (
                {
                    "name": name,
                    "dtype": arr.dtype.str,
                    "shape": list(arr.shape),
                    "codec": stored_codec,
                    "nbytes": len(blob),
                },
                blob,
            )
        )
    # Values never use the delta transform (floats): the cascade routes
    # them through its zlib-if-smaller-else-raw path; the legacy zlib
    # codecs keep their unconditional DEFLATE.
    if codec == "raw":
        value_request = "raw"
    elif codec == CASCADE:
        value_request = CASCADE
    else:
        value_request = ZLIB
    vblob, value_codec = encode_buffer(values, value_request)
    header = {
        "format": format_name,
        "shape": [int(m) for m in shape],
        "nnz": int(nnz),
        "meta": dict(meta),
        "buffers": [entry for entry, _ in encoded],
        "value_dtype": values.dtype.str,
        "value_count": int(values.shape[0]),
        "value_codec": value_codec,
        "value_nbytes": len(vblob),
        "bbox_origin": [int(v) for v in bbox_origin],
        "bbox_size": [int(v) for v in bbox_size],
        "extra": dict(extra or {}),
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    parts: list[bytes] = [
        MAGIC,
        struct.pack("<II", VERSION, len(header_bytes)),
        header_bytes,
        b"\0" * _pad(len(MAGIC) + 8 + len(header_bytes)),
    ]
    for _, blob in encoded:
        parts.append(blob)
        parts.append(b"\0" * _pad(len(blob)))
    parts.append(vblob)
    parts.append(b"\0" * _pad(len(vblob)))
    body = b"".join(parts)
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return body + struct.pack("<I", crc)


def unpack_header(data) -> tuple[dict[str, Any], int]:
    """Decode just the JSON header; returns (header, offset_past_header).

    Used by the store to test fragment/box overlap without decoding the
    index buffers.  ``data`` may be any C-contiguous buffer (``bytes``,
    ``memoryview``, mapped file).
    """
    view = _as_view(data)
    if len(view) < len(MAGIC) + 8:
        raise FragmentError("fragment truncated before header")
    if bytes(view[: len(MAGIC)]) != MAGIC:
        raise FragmentError(
            f"bad magic {bytes(view[:len(MAGIC)])!r}; not a repro fragment"
        )
    version, hlen = struct.unpack_from("<II", view, len(MAGIC))
    if version != VERSION:
        raise FragmentError(f"unsupported fragment version {version}")
    start = len(MAGIC) + 8
    if len(view) < start + hlen:
        raise FragmentError("fragment truncated inside header")
    try:
        header = json.loads(bytes(view[start : start + hlen]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FragmentError(f"corrupt fragment header: {exc}") from exc
    offset = start + hlen
    offset += _pad(offset)
    return header, offset


def verify_crc(data) -> None:
    """Check the trailing CRC-32; raises on mismatch or truncation.

    Raises :class:`~repro.core.errors.ChecksumError` (a
    :class:`~repro.core.errors.FragmentError` subclass, so existing broad
    handlers still catch it).  Accepts any C-contiguous buffer;
    ``zlib.crc32`` consumes the view without copying.
    """
    view = _as_view(data)
    if len(view) < 4:
        raise ChecksumError("fragment too small to contain a checksum")
    body, tail = view[:-4], view[-4:]
    (stored_crc,) = struct.unpack("<I", tail)
    actual = zlib.crc32(body) & 0xFFFFFFFF
    if stored_crc != actual:
        raise ChecksumError(
            f"fragment checksum mismatch: stored {stored_crc:#010x}, "
            f"computed {actual:#010x}"
        )


def unpack_fragment(data, *, check_crc: bool = True) -> FragmentPayload:
    """Deserialize a fragment produced by :func:`pack_fragment`.

    ``data`` may be ``bytes`` or any C-contiguous buffer-protocol object
    (``memoryview``, whole-file ``np.memmap``).  Buffer sections are
    sliced as sub-views, so raw-codec arrays alias ``data`` instead of
    copying — pass a mapped file and the decode is zero-copy end to end.
    The returned arrays are read-only either way (``frombuffer``
    semantics); formats treat payload buffers as immutable.
    """
    if check_crc:
        verify_crc(data)
    from .compression import decode_buffer

    view = _as_view(data)
    header, offset = unpack_header(view)
    buffers: dict[str, np.ndarray] = {}
    for entry in header["buffers"]:
        dtype = np.dtype(entry["dtype"])
        shape = tuple(int(s) for s in entry["shape"])
        count = math.prod(shape)
        codec = entry.get("codec", "raw")
        nbytes = int(entry.get("nbytes", count * dtype.itemsize))
        if offset + nbytes > len(view):
            raise FragmentError(
                f"fragment truncated inside buffer {entry['name']!r}"
            )
        try:
            arr = decode_buffer(
                view[offset : offset + nbytes], codec, dtype, count
            )
        except zlib.error as exc:
            raise FragmentError(
                f"buffer {entry['name']!r} fails to decompress: {exc}"
            ) from exc
        buffers[entry["name"]] = arr.reshape(shape)
        offset += nbytes + _pad(nbytes)
    vdtype = np.dtype(header["value_dtype"])
    vcount = int(header["value_count"])
    vcodec = header.get("value_codec", "raw")
    vbytes = int(header.get("value_nbytes", vcount * vdtype.itemsize))
    if offset + vbytes > len(view):
        raise FragmentError("fragment truncated inside value buffer")
    try:
        values = decode_buffer(
            view[offset : offset + vbytes], vcodec, vdtype, vcount
        )
    except zlib.error as exc:
        raise FragmentError(f"value buffer fails to decompress: {exc}") from exc
    return FragmentPayload(
        format_name=header["format"],
        shape=tuple(int(m) for m in header["shape"]),
        nnz=int(header["nnz"]),
        meta=dict(header["meta"]),
        buffers=buffers,
        values=values,
        bbox_origin=tuple(int(v) for v in header.get("bbox_origin", [])),
        bbox_size=tuple(int(v) for v in header.get("bbox_size", [])),
        extra=dict(header.get("extra", {})),
    )
