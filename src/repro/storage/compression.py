"""Per-buffer compression codecs for fragments.

The paper scopes compression out of the comparison but notes the common
practice (§II): "choose a basic sparse organization first and then apply
compression algorithms to further reduce data size" — as TileDB and HDF5
do.  This module supplies that orthogonal layer.

Store-facing codec *options* (what ``StoreOptions.codec`` accepts):

``raw``
    no transformation (the default everywhere, and what the paper's size
    measurements correspond to);
``zlib``
    DEFLATE over the buffer bytes;
``delta-zlib``
    for 1D unsigned-integer buffers, a delta transform before DEFLATE —
    sorted address vectors (LINEAR after sorting, pointer arrays, CSF
    level offsets) become small residuals that deflate extremely well.
    Non-eligible buffers fall back to plain ``zlib`` (the fallback is
    recorded in the stored tag, never silent);
``cascade``
    the adaptive cascade: a :func:`advise_buffer` codec advisor costs
    each buffer exactly under ``raw``, frame-of-reference bit-packing
    (``for``), delta→bit-pack (``dbp``) and delta→run-length→bit-pack
    (``drle``), picks the smallest, and appends a trailing DEFLATE
    stage when the chosen payload still deflates (``raw`` then becomes
    plain ``zlib``).  The advisor is a pure function of the buffer
    content, so encoding is deterministic.

What lands *on disk* is a self-describing **stage chain tag** stored
next to each buffer: ``+``-joined stage names applied left to right on
encode and inverted right to left on decode.  Decode is driven entirely
by the tag — never by store options — so fragments written under any
codec stay readable by any store.  Stages:

``delta``
    element-wise wraparound difference in the buffer's own dtype, first
    element kept in-band (the legacy ``delta+zlib`` spelling);
``for``
    frame of reference: the minimum is stored out of band (u64) and
    every value minus it is packed at the bit width of the buffer's
    range — arrival-order (unsorted) addresses, whose deltas span the
    whole word, still pack to the width of their range, and decode is
    one unpack plus one add;
``dbp``
    Parquet-style delta + bit-pack: the first value is stored out of
    band (u64), the remaining wraparound residuals are packed at their
    minimal bit width (little-endian bitstream);
``drle``
    delta + run-length + bit-pack: residual runs (constant-stride
    regions — dense MSP rows, regular pointer arrays) collapse to
    (value, length) pairs, each side bit-packed at its own width;
``zlib``
    DEFLATE over whatever the preceding stage produced.

Example tags: ``raw``, ``zlib``, ``delta+zlib`` (legacy), ``for``,
``for+zlib``, ``dbp``, ``dbp+zlib``, ``drle``, ``drle+zlib``.  The
bit-packing stages share one LSB-first bitstream: value ``i`` occupies
bits ``[i*w, (i+1)*w)`` of a run of little-endian 64-bit words, so
widths of 8/16/32/64 bits are plain little-endian integer arrays.
Codecs operate
buffer-by-buffer so a fragment's header stays readable without
decompressing anything, and raw-tagged buffers still decode zero-copy
from the loaded file bytes.

``store.compression.*`` counters account every encode/decode by stored
tag, so ``repro stats --compression`` can report bytes-on-disk per
codec without walking fragment headers.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..core.errors import FragmentError
from ..obs import counter_add, is_enabled

RAW = "raw"
ZLIB = "zlib"
DELTA_ZLIB = "delta-zlib"
CASCADE = "cascade"

#: Store-facing codec options (``StoreOptions.codec`` / ``repro encode
#: --codec``).  Stored per-buffer tags are stage chains — see
#: :data:`STAGES` and the module docstring.
CODECS = (RAW, ZLIB, DELTA_ZLIB, CASCADE)

#: Stage names legal inside a stored chain tag.
STAGES = ("delta", "for", "dbp", "drle", "zlib")

#: Stored next to each buffer so decode knows what actually happened
#: (delta-zlib records "zlib" when it fell back).
_DELTA_MARK = "delta+"

#: Bytes below which trailing DEFLATE is never attempted (header +
#: dictionary overhead always loses on tiny payloads).
_ZLIB_MIN_BYTES = 128
#: Trailing DEFLATE must save at least this fraction to be kept.
_ZLIB_KEEP_RATIO = 0.9
#: Byte-entropy (bits/byte) above which the payload is treated as
#: incompressible and trial DEFLATE is skipped.
_ZLIB_ENTROPY_CUTOFF = 7.5
#: Advisor sampling cap — stats are estimated over at most this many
#: elements/bytes (deterministic stride sampling).
_SAMPLE_CAP = 4096


def validate_codec(codec: str) -> str:
    if codec not in CODECS:
        raise FragmentError(
            f"unknown codec {codec!r}; available: {list(CODECS)}"
        )
    return codec


def _delta_eligible(arr: np.ndarray) -> bool:
    return arr.ndim == 1 and arr.dtype.kind == "u" and arr.size > 1


def _wraparound_deltas(arr: np.ndarray) -> np.ndarray:
    """In-dtype differences; ``deltas[0]`` is the absolute first value.

    Wrap-around subtraction is exact for unsigned ints; cumsum in the
    same dtype undoes it exactly on decode.
    """
    deltas = np.empty_like(arr)
    deltas[0] = arr[0]
    np.subtract(arr[1:], arr[:-1], out=deltas[1:])
    return deltas


# ----------------------------------------------------------------------
# bit-packing kernels (LSB-first bitstream over little-endian u64 words)
# ----------------------------------------------------------------------

#: Widths whose bitstream is a plain little-endian integer array.
_BYTE_WIDTHS = (8, 16, 32, 64)


def _bit_width(vals: np.ndarray) -> int:
    """Minimal bits per element: ``bit_length(max(vals))`` (0 if empty)."""
    if vals.size == 0:
        return 0
    return int(vals.max()).bit_length()


def _packed_nbytes(count: int, width: int) -> int:
    return (count * width + 7) // 8


def _bit_slots(count: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Word index and in-word shift (as uint64) of each value's lowest
    bit."""
    bit = np.arange(0, count * width, width, dtype=np.int64)
    return bit >> 6, (bit & 63).view(np.uint64)


def _pack_ints(vals: np.ndarray, width: int) -> bytes:
    """Pack the low ``width`` bits of each unsigned value, LSB-first.

    Value ``i`` lands at bits ``[i*width, (i+1)*width)`` of a stream of
    little-endian uint64 words, truncated to ``ceil(n*width/8)`` bytes.
    """
    n = vals.size
    if width == 0 or n == 0:
        return b""
    if width in _BYTE_WIDTHS:
        return vals.astype(f"<u{width // 8}").tobytes()
    v = vals.astype(np.uint64) & np.uint64((1 << width) - 1)
    word, shift = _bit_slots(n, width)
    # With width < 64 every word holds the lowest bit of some value:
    # word j's first one is value ceil(64*j / width).  Values never
    # overlap, so OR-reducing each word's values assembles it, and the
    # high bits a value carries past its word land in the next one.
    n_words = int(word[-1]) + 1
    starts = -(-np.arange(n_words, dtype=np.intp) * 64 // width)
    words = np.zeros(n_words + 1, dtype=np.uint64)
    words[:-1] = np.bitwise_or.reduceat(v << shift, starts)
    # ``(v >> 1) >> (63 - shift)`` is ``v >> (64 - shift)``, with every
    # shift below 64 (a shift of 0 carries nothing over).
    words[1:] |= np.bitwise_or.reduceat(
        (v >> np.uint64(1)) >> (np.uint64(63) - shift), starts
    )
    return words.astype("<u8", copy=False).view(np.uint8)[
        :_packed_nbytes(n, width)
    ].tobytes()


def _unpack_ints(data, count: int, width: int, dtype) -> np.ndarray:
    """Invert :func:`_pack_ints` back to ``count`` values of ``dtype``.

    Raises :class:`FragmentError` when ``width`` is wider than ``dtype``
    or ``data`` is shorter than the packed stream.
    """
    dtype = np.dtype(dtype)
    if width > dtype.itemsize * 8:
        raise FragmentError(
            f"bit-packed width {width} exceeds the {dtype.itemsize * 8} "
            f"bits of {dtype}"
        )
    if count == 0 or width == 0:
        return np.zeros(count, dtype=dtype)
    need = _packed_nbytes(count, width)
    if len(data) < need:
        raise FragmentError(
            f"bit-packed section truncated: {len(data)} bytes for "
            f"{count}x{width}-bit values ({need} needed)"
        )
    if width in _BYTE_WIDTHS:
        return np.frombuffer(
            data, dtype=f"<u{width // 8}", count=count
        ).astype(dtype)
    # One spare zero word past the last value's, so the two-word read
    # below never runs off the end.
    words = np.zeros(need // 8 + 2, dtype="<u8")
    words.view(np.uint8)[:need] = np.frombuffer(data, dtype=np.uint8,
                                                count=need)
    word, shift = _bit_slots(count, width)
    out = words[word] >> shift
    out |= (words[word + 1] << np.uint64(1)) << (np.uint64(63) - shift)
    out &= np.uint64((1 << width) - 1)
    return out.astype(dtype, copy=False)


def _stored_int(data, start: int, dtype: np.dtype, what: str) -> int:
    """The u64 at ``data[start:start+8]``; it must fit ``dtype``."""
    value = int.from_bytes(data[start:start + 8], "little")
    if value > np.iinfo(dtype).max:
        raise FragmentError(f"{what} {value} does not fit {dtype}")
    return value


# ----------------------------------------------------------------------
# packing stages: for (frame of reference), dbp (delta + bit-pack),
# drle (delta + RLE + bit-pack)
# ----------------------------------------------------------------------

def _for_encode(arr: np.ndarray) -> bytes:
    """``[u64 base][u8 width][packed arr - base]``, ``base = min(arr)``."""
    base = arr.min()
    offsets = arr - base
    width = _bit_width(offsets)
    head = int(base).to_bytes(8, "little") + bytes([width])
    return head + _pack_ints(offsets, width)


def _for_decode(data, dtype: np.dtype, count: int) -> np.ndarray:
    dtype = np.dtype(dtype)
    if count == 0:
        return np.zeros(0, dtype=dtype)
    if len(data) < 9:
        raise FragmentError("for buffer truncated before header")
    base = _stored_int(data, 0, dtype, "for base")
    out = _unpack_ints(data[9:], count, data[8], dtype)
    if base:
        out += dtype.type(base)
    return out


def _dbp_encode(arr: np.ndarray) -> bytes:
    """``[u8 width][u64 first][packed residuals]`` over ``arr``."""
    residuals = _wraparound_deltas(arr)[1:]
    width = _bit_width(residuals)
    head = bytes([width]) + int(arr[0]).to_bytes(8, "little")
    return head + _pack_ints(residuals, width)


def _dbp_decode(data, dtype: np.dtype, count: int) -> np.ndarray:
    dtype = np.dtype(dtype)
    if count == 0:
        return np.zeros(0, dtype=dtype)
    if len(data) < 9:
        raise FragmentError("dbp buffer truncated before header")
    first = _stored_int(data, 1, dtype, "dbp first value")
    residuals = _unpack_ints(data[9:], count - 1, data[0], dtype)
    out = np.empty(count, dtype=dtype)
    out[0] = dtype.type(first)
    np.cumsum(
        np.concatenate(([out[0]], residuals)), dtype=dtype, out=out
    )
    return out


def _residual_runs(residuals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run-length encode ``residuals`` → ``(run_values, run_lengths)``."""
    if residuals.size == 0:
        return residuals[:0], np.zeros(0, dtype=np.uint64)
    boundaries = np.flatnonzero(residuals[1:] != residuals[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [residuals.size]))
    return residuals[starts], (ends - starts).astype(np.uint64)


def _drle_encode(arr: np.ndarray) -> bytes:
    """``[u64 first][u64 n_runs][u8 vw][u8 lw][packed vals][packed lens]``."""
    residuals = _wraparound_deltas(arr)[1:]
    run_values, run_lengths = _residual_runs(residuals)
    val_width = _bit_width(run_values)
    len_width = _bit_width(run_lengths)
    head = (
        int(arr[0]).to_bytes(8, "little")
        + int(run_values.size).to_bytes(8, "little")
        + bytes([val_width, len_width])
    )
    return (
        head
        + _pack_ints(run_values, val_width)
        + _pack_ints(run_lengths, len_width)
    )


def _drle_decode(data, dtype: np.dtype, count: int) -> np.ndarray:
    dtype = np.dtype(dtype)
    if count == 0:
        return np.zeros(0, dtype=dtype)
    if len(data) < 18:
        raise FragmentError("drle buffer truncated before header")
    first = _stored_int(data, 0, dtype, "drle first value")
    n_runs = int.from_bytes(data[8:16], "little")
    if n_runs > count - 1:
        raise FragmentError(
            f"drle header claims {n_runs} runs over {count - 1} residuals"
        )
    val_width, len_width = data[16], data[17]
    off = 18
    vbytes = _packed_nbytes(n_runs, val_width)
    run_values = _unpack_ints(data[off:off + vbytes], n_runs, val_width, dtype)
    off += vbytes
    lbytes = _packed_nbytes(n_runs, len_width)
    run_lengths = _unpack_ints(
        data[off:off + lbytes], n_runs, len_width, np.uint64
    )
    # Check the total before np.repeat allocates it.  Every length is
    # below 2**64, so a uint64 running sum that wraps shows up as a
    # decrease.
    ends = np.cumsum(run_lengths)
    total = int(ends[-1]) if n_runs else 0
    if total != count - 1 or (ends[1:] < ends[:-1]).any():
        raise FragmentError(
            f"drle run lengths do not sum to the {count - 1} residuals "
            f"the header promises"
        )
    residuals = np.repeat(run_values, run_lengths.astype(np.intp))
    out = np.empty(count, dtype=dtype)
    out[0] = dtype.type(first)
    np.cumsum(
        np.concatenate(([out[0]], residuals)), dtype=dtype, out=out
    )
    return out


#: The stages that pack a 1-D unsigned array, and their inverses.
_PACKED_ENCODERS = {"for": _for_encode, "dbp": _dbp_encode,
                    "drle": _drle_encode}
_PACKED_DECODERS = {"for": _for_decode, "dbp": _dbp_decode,
                    "drle": _drle_decode}


# ----------------------------------------------------------------------
# codec advisor
# ----------------------------------------------------------------------

def _sample(arr: np.ndarray) -> np.ndarray:
    """Deterministic stride sample of at most ``_SAMPLE_CAP`` elements."""
    if arr.size <= _SAMPLE_CAP:
        return arr
    stride = arr.size // _SAMPLE_CAP
    return arr[::stride][:_SAMPLE_CAP]


def byte_entropy(data) -> float:
    """Shannon entropy (bits/byte) over a deterministic byte sample."""
    buf = np.frombuffer(data, dtype=np.uint8)
    buf = _sample(buf)
    if buf.size == 0:
        return 0.0
    counts = np.bincount(buf, minlength=256)
    probs = counts[counts > 0] / buf.size
    return float(-(probs * np.log2(probs)).sum())


def _width_histogram(residuals: np.ndarray) -> dict[int, int]:
    """Sampled histogram of residual bit widths (``{width: count}``).

    Widths are estimated in float64 — an off-by-one near 2**53 cannot
    matter: the histogram is advisory, while the width actually used by
    the encoder comes from the exact integer ``bit_length`` of the max.
    """
    s = _sample(residuals)
    if s.size == 0:
        return {}
    widths = np.zeros(s.size, dtype=np.int64)
    nz = s != 0
    if nz.any():
        widths[nz] = np.floor(
            np.log2(s[nz].astype(np.float64) + 0.5)
        ).astype(np.int64) + 1
    counts = np.bincount(widths)
    return {int(w): int(c) for w, c in enumerate(counts) if c}


@dataclass(frozen=True)
class CodecAdvice:
    """What the advisor decided for one buffer, and why.

    ``chain`` is the stored tag the cascade will write, before the
    optional trailing DEFLATE.  ``candidate_sizes`` are exact byte
    counts for each structural candidate — ``raw``, ``for``, ``dbp`` and
    ``drle`` for a 1-D unsigned buffer, ``raw`` alone otherwise — and
    the decision keys on them alone; the other stats are sampled
    (deterministically) and only explain it.

    ``range_bits`` is the bit width of ``max - min``, the width ``for``
    packs at.  ``width_bits`` / ``n_runs`` summarize the delta
    residuals ``dbp``/``drle`` pack: their bit width and the number of
    equal-residual runs.  Sorted buffers have residuals narrower than
    their range, so a delta stage wins there; an arrival-order buffer
    (the paper's unsorted LINEAR list, GCSR++ column indices) has
    residuals that wrap to the full word, so ``for`` wins; address
    orders differ too (ALTO interleaving spreads deltas across bit
    positions, row-major keeps them small and runny).  Because the
    decision keys on exact byte counts, a worse distribution can only
    ever fall back to ``raw``, never mis-pick.
    """

    chain: str
    n: int
    dtype: str
    run_fraction: float
    entropy_bits: float
    width_hist: dict[int, int] = field(default_factory=dict)
    candidate_sizes: dict[str, int] = field(default_factory=dict)
    width_bits: int = 0
    n_runs: int = 0
    range_bits: int = 0


def _maybe_deflate(payload: bytes, chain: str) -> tuple[bytes, str]:
    """Append a trailing DEFLATE stage when it actually pays for itself."""
    if len(payload) < _ZLIB_MIN_BYTES:
        return payload, chain
    if byte_entropy(payload) >= _ZLIB_ENTROPY_CUTOFF:
        return payload, chain
    z = zlib.compress(payload, 6)
    if len(z) < _ZLIB_KEEP_RATIO * len(payload):
        return z, chain + "+zlib" if chain != RAW else ZLIB
    return payload, chain


def advise_buffer(arr: np.ndarray) -> CodecAdvice:
    """Pick the cheapest cascade for ``arr`` — pure and deterministic.

    Eligible buffers (1-D unsigned, more than one element) are costed
    exactly for ``raw``, ``for`` (from the range), and ``dbp`` /
    ``drle`` (from the residual distribution); the smallest wins, ties
    by name.  Non-eligible buffers only ever choose between ``raw`` and
    plain ``zlib``.  The trailing DEFLATE decision (made later, in
    :func:`encode_cascade`) is gated on the byte-entropy estimate
    recorded here.
    """
    arr = np.ascontiguousarray(arr)
    raw_nbytes = arr.nbytes
    if not _delta_eligible(arr):
        entropy = byte_entropy(arr.tobytes()) if arr.size else 8.0
        return CodecAdvice(
            chain=RAW,
            n=arr.size,
            dtype=np.dtype(arr.dtype).str,
            run_fraction=0.0,
            entropy_bits=entropy,
            candidate_sizes={RAW: raw_nbytes},
        )
    residuals = _wraparound_deltas(arr)[1:]
    width = _bit_width(residuals)
    run_values, run_lengths = _residual_runs(residuals)
    n_runs = run_values.size
    run_fraction = 1.0 - n_runs / residuals.size
    len_width = _bit_width(run_lengths)
    range_bits = (int(arr.max()) - int(arr.min())).bit_length()
    sizes = {
        RAW: raw_nbytes,
        "for": 9 + _packed_nbytes(arr.size, range_bits),
        "dbp": 9 + _packed_nbytes(residuals.size, width),
        "drle": 18
        + _packed_nbytes(n_runs, _bit_width(run_values))
        + _packed_nbytes(n_runs, len_width),
    }
    chain = min(sizes, key=lambda k: (sizes[k], k))
    return CodecAdvice(
        chain=chain,
        n=arr.size,
        dtype=np.dtype(arr.dtype).str,
        run_fraction=run_fraction,
        entropy_bits=byte_entropy(residuals.tobytes()),
        width_hist=_width_histogram(residuals),
        candidate_sizes=sizes,
        width_bits=int(width),
        n_runs=int(n_runs),
        range_bits=range_bits,
    )


def encode_cascade(arr: np.ndarray) -> tuple[bytes, str, CodecAdvice]:
    """Advisor-driven encode: ``(payload, stored_chain, advice)``.

    Never worse than ``raw``: whatever the advisor picks, the encoded
    payload is compared against the raw bytes and ``raw`` wins ties.
    """
    arr = np.ascontiguousarray(arr)
    advice = advise_buffer(arr)
    chain = advice.chain
    payload = _PACKED_ENCODERS[chain](arr) if chain != RAW else arr.tobytes()
    if advice.entropy_bits < _ZLIB_ENTROPY_CUTOFF:
        payload, chain = _maybe_deflate(payload, chain)
    if len(payload) >= arr.nbytes and chain != RAW:
        payload, chain = arr.tobytes(), RAW
    if is_enabled():
        counter_add("store.compression.advisor_picks", 1, codec=chain)
    return payload, chain, advice


# ----------------------------------------------------------------------
# buffer encode/decode (the fragment serializer's entry points)
# ----------------------------------------------------------------------

def encode_buffer(arr: np.ndarray, codec: str) -> tuple[bytes, str]:
    """Compress one buffer; returns ``(payload_bytes, stored_codec)``.

    ``stored_codec`` is what must be recorded in the fragment header for
    :func:`decode_buffer` — always the chain that was *actually*
    applied, never the requested option (delta-zlib records plain
    ``zlib`` when it falls back; the cascade records whatever the
    advisor picked, down to ``raw``).
    """
    validate_codec(codec)
    arr = np.ascontiguousarray(arr)
    if codec == RAW:
        return arr.tobytes(), RAW
    if codec == CASCADE:
        payload, chain, _ = encode_cascade(arr)
        stored = payload, chain
    elif codec == DELTA_ZLIB and _delta_eligible(arr):
        deltas = _wraparound_deltas(arr)
        stored = zlib.compress(deltas.tobytes(), 6), _DELTA_MARK + ZLIB
    else:
        stored = zlib.compress(arr.tobytes(), 6), ZLIB
    if is_enabled():
        counter_add(
            "store.compression.encoded_bytes", len(stored[0]),
            codec=stored[1],
        )
        counter_add("store.compression.raw_bytes", arr.nbytes,
                    codec=stored[1])
    return stored


def decode_buffer(
    data, stored_codec: str, dtype: np.dtype, count: int
) -> np.ndarray:
    """Invert :func:`encode_buffer` back to a flat array of ``count``.

    Decode is driven entirely by ``stored_codec`` — a ``+``-joined stage
    chain inverted right to left.  ``data`` may be any buffer-protocol
    object; ``raw`` buffers alias it zero-copy (``frombuffer``).
    """
    dtype = np.dtype(dtype)
    if stored_codec == RAW:
        try:
            return np.frombuffer(data, dtype=dtype, count=count)
        except ValueError as exc:
            raise FragmentError(f"raw buffer truncated: {exc}") from exc
    if is_enabled():
        counter_add(
            "store.compression.decoded_bytes", len(data), codec=stored_codec
        )
    cur = memoryview(data).cast("B")  # only decoded stages yield arrays
    for stage in reversed(stored_codec.split("+")):
        if isinstance(cur, np.ndarray) and (
            stage == "zlib" or stage in _PACKED_DECODERS
        ):
            raise FragmentError(
                f"malformed codec chain {stored_codec!r}: {stage} after "
                "an array-producing stage"
            )
        if stage == "zlib":
            try:
                cur = zlib.decompress(cur)
            except zlib.error as exc:
                raise FragmentError(
                    f"codec chain {stored_codec!r}: corrupt DEFLATE "
                    f"payload: {exc}"
                ) from exc
        elif stage in _PACKED_DECODERS:
            cur = _PACKED_DECODERS[stage](cur, dtype, count)
        elif stage == "delta":
            if not isinstance(cur, np.ndarray):
                try:
                    cur = np.frombuffer(cur, dtype=dtype, count=count)
                except ValueError as exc:
                    raise FragmentError(
                        f"codec chain {stored_codec!r}: delta payload "
                        f"truncated: {exc}"
                    ) from exc
            cur = np.cumsum(cur, dtype=dtype)
        else:
            raise FragmentError(f"unknown stored codec {stored_codec!r}")
    if not isinstance(cur, np.ndarray):
        try:
            cur = np.frombuffer(cur, dtype=dtype, count=count)
        except ValueError as exc:
            raise FragmentError(
                f"codec chain {stored_codec!r} payload truncated: {exc}"
            ) from exc
    if cur.size != count:
        raise FragmentError(
            f"codec chain {stored_codec!r} produced {cur.size} elements, "
            f"header promises {count}"
        )
    return cur


def codec_sizes(header: dict) -> tuple[dict[str, int], int]:
    """Per-chain bytes-on-disk and total raw bytes from a fragment header.

    Aggregates every index buffer entry plus the value buffer; the
    source of the manifest's per-fragment ``codecs`` map and of
    ``fsck``'s codec report.
    """
    on_disk: dict[str, int] = {}
    raw_total = 0
    for entry in header.get("buffers", []):
        dtype = np.dtype(entry["dtype"])
        count = int(math.prod(entry["shape"])) if entry["shape"] else 1
        tag = entry.get("codec", RAW)
        nbytes = int(entry.get("nbytes", count * dtype.itemsize))
        on_disk[tag] = on_disk.get(tag, 0) + nbytes
        raw_total += count * dtype.itemsize
    if "value_dtype" in header:
        vdtype = np.dtype(header["value_dtype"])
        vcount = int(header.get("value_count", 0))
        vtag = header.get("value_codec", RAW)
        vbytes = int(header.get("value_nbytes", vcount * vdtype.itemsize))
        on_disk[vtag] = on_disk.get(vtag, 0) + vbytes
        raw_total += vcount * vdtype.itemsize
    return on_disk, raw_total
