"""Unit tests for the fragment compression layer.

The cascade suite (``TestCascade*``) is property-style: seeded sweeps
over dtypes and distributions, asserting bit-identical decode and
advisor determinism rather than specific payload bytes.
"""

import zlib

import numpy as np
import pytest

from repro.core.errors import FragmentError
from repro.storage import (
    FragmentStore,
    StoreOptions,
    pack_fragment,
    unpack_fragment,
)
from repro.storage.compression import (
    _PACKED_ENCODERS,
    CASCADE,
    CODECS,
    _pack_ints,
    _packed_nbytes,
    _unpack_ints,
    advise_buffer,
    codec_sizes,
    decode_buffer,
    encode_buffer,
    encode_cascade,
    validate_codec,
)

UINT_DTYPES = (np.uint8, np.uint16, np.uint32, np.uint64)


def roundtrip(arr, codec):
    """Encode + tag-driven decode; returns (decoded, stored_tag, nbytes)."""
    blob, stored = encode_buffer(arr, codec)
    back = decode_buffer(blob, stored, arr.dtype, arr.size)
    return back.reshape(arr.shape), stored, len(blob)


class TestCodecPrimitives:
    def test_validate(self):
        for codec in CODECS:
            assert validate_codec(codec) == codec
        with pytest.raises(FragmentError, match="unknown codec"):
            validate_codec("lz77")

    @pytest.mark.parametrize("codec", CODECS)
    def test_round_trip_uint64(self, codec, rng):
        arr = rng.integers(0, 1 << 40, size=500, dtype=np.uint64)
        blob, stored = encode_buffer(arr, codec)
        back = decode_buffer(blob, stored, arr.dtype, arr.size)
        assert np.array_equal(back, arr)

    @pytest.mark.parametrize("codec", CODECS)
    def test_round_trip_floats(self, codec, rng):
        arr = rng.standard_normal(300)
        blob, stored = encode_buffer(arr, codec)
        back = decode_buffer(blob, stored, arr.dtype, arr.size)
        assert np.array_equal(back, arr)

    def test_delta_shrinks_sorted_addresses(self, rng):
        # Sorted addresses with small gaps: delta-zlib should crush them.
        addr = np.cumsum(
            rng.integers(1, 5, size=4000, dtype=np.uint64)
        ).astype(np.uint64)
        raw, _ = encode_buffer(addr, "raw")
        plain, _ = encode_buffer(addr, "zlib")
        delta, stored = encode_buffer(addr, "delta-zlib")
        assert stored == "delta+zlib"
        assert len(delta) < len(plain) < len(raw)
        assert len(delta) < len(raw) // 4

    def test_delta_falls_back_for_2d(self, rng):
        arr = rng.integers(0, 100, size=(10, 3), dtype=np.uint64)
        blob, stored = encode_buffer(arr, "delta-zlib")
        assert stored == "zlib"
        back = decode_buffer(blob, stored, arr.dtype, arr.size)
        assert np.array_equal(back.reshape(arr.shape), arr)

    def test_delta_exact_on_wraparound(self):
        # Unsorted input makes negative deltas -> uint wraparound must be
        # exactly invertible.
        arr = np.array([10, 3, 2**63, 1, 0], dtype=np.uint64)
        blob, stored = encode_buffer(arr, "delta-zlib")
        back = decode_buffer(blob, stored, arr.dtype, arr.size)
        assert np.array_equal(back, arr)

    def test_unknown_stored_codec(self):
        with pytest.raises(FragmentError):
            decode_buffer(b"", "brotli", np.dtype(np.uint8), 0)


def _reference_pack(vals, width):
    """The original bit packer: one byte per bit via ``unpackbits``,
    then ``packbits`` — the bitstream every stored fragment uses."""
    if width == 0 or vals.size == 0:
        return b""
    le = np.ascontiguousarray(vals, dtype=vals.dtype.newbyteorder("<"))
    bits = np.unpackbits(
        le.view(np.uint8).reshape(vals.size, le.dtype.itemsize),
        axis=1, bitorder="little",
    )
    return np.packbits(bits[:, :width], bitorder="little").tobytes()


class TestBitPackKernels:
    """The word-shift kernels write and read the reference bitstream."""

    SIZES = (0, 1, 2, 63, 64, 65, 1000)

    @pytest.mark.parametrize("dtype", UINT_DTYPES)
    def test_pack_matches_reference(self, dtype):
        rng = np.random.default_rng(3)
        bits = np.dtype(dtype).itemsize * 8
        for n in self.SIZES:
            # full-range values: widths below the dtype's truncate
            vals = rng.integers(0, np.iinfo(dtype).max, size=n,
                                endpoint=True, dtype=dtype)
            for width in range(65):
                # past the dtype's bits the reference needs the values
                # zero-extended to reach ``width`` bits per value
                ref = vals if width <= bits else vals.astype(np.uint64)
                assert (_pack_ints(vals, width)
                        == _reference_pack(ref, width)), (n, width)

    @pytest.mark.parametrize("dtype", UINT_DTYPES)
    def test_unpack_inverts_reference(self, dtype):
        rng = np.random.default_rng(4)
        bits = np.dtype(dtype).itemsize * 8
        for n in self.SIZES:
            vals = rng.integers(0, np.iinfo(dtype).max, size=n,
                                endpoint=True, dtype=dtype)
            for width in range(bits + 1):
                low = (vals.astype(np.uint64)
                       & np.uint64((1 << width) - 1)).astype(dtype)
                back = _unpack_ints(_reference_pack(vals, width), n, width,
                                    dtype)
                assert back.dtype == np.dtype(dtype)
                assert np.array_equal(back, low), (n, width)


def _u64(value):
    return int(value).to_bytes(8, "little")


class TestMalformedPackedPayloads:
    """Every malformed bit-packed payload raises FragmentError — never a
    numpy ValueError or a MemoryError that escapes fsck's decode pass
    and the store's ``on_corruption`` policy."""

    @pytest.mark.parametrize("stage,blob,dtype,count", [
        # every width backed by enough bytes
        ("dbp", bytes([40]) + _u64(1) + bytes(_packed_nbytes(299, 40)),
         np.uint32, 300),
        # run values at 9 bits of a uint8 buffer; run lengths at 65 bits
        ("drle", _u64(0) + _u64(1) + bytes([9, 1]) + bytes(32),
         np.uint8, 5),
        ("drle", _u64(0) + _u64(1) + bytes([1, 65]) + bytes(32),
         np.uint8, 5),
        ("for", _u64(0) + bytes([17]) + bytes(_packed_nbytes(50, 17)),
         np.uint16, 50),
    ])
    def test_width_wider_than_dtype(self, stage, blob, dtype, count):
        with pytest.raises(FragmentError, match="exceeds"):
            decode_buffer(blob, stage, np.dtype(dtype), count)

    @pytest.mark.parametrize("lengths", [
        [1 << 42],                       # a 4 TiB repeat before the check
        [(1 << 63) + 5],                 # negative as an intp
        [1 << 63, 1 << 63, 9],           # wraps uint64 to exactly 9
        [2, 3],                          # plain short sum
    ])
    def test_drle_run_lengths_must_sum_to_count(self, lengths):
        n_runs = len(lengths)
        blob = (
            _u64(0) + _u64(n_runs) + bytes([1, 64])
            + _pack_ints(np.ones(n_runs, dtype=np.uint64), 1)
            + _pack_ints(np.array(lengths, dtype=np.uint64), 64)
        )
        with pytest.raises(FragmentError, match="do not sum"):
            decode_buffer(blob, "drle", np.dtype(np.uint64), 10)

    def test_drle_more_runs_than_residuals(self):
        # zero-width sections need no bytes: only the header bounds them
        blob = _u64(0) + _u64(1 << 40) + bytes([0, 0])
        with pytest.raises(FragmentError, match="runs"):
            decode_buffer(blob, "drle", np.dtype(np.uint64), 10)

    @pytest.mark.parametrize("stage,head", [
        ("for", lambda v: _u64(v) + bytes([0])),
        ("dbp", lambda v: bytes([0]) + _u64(v)),
        ("drle", lambda v: _u64(v) + _u64(0) + bytes([0, 0])),
    ])
    def test_stored_value_must_fit_dtype(self, stage, head):
        with pytest.raises(FragmentError, match="does not fit"):
            decode_buffer(head(256), stage, np.dtype(np.uint8), 1)
        back = decode_buffer(head(255), stage, np.dtype(np.uint8), 1)
        assert back.tolist() == [255]

    def test_packed_stage_after_array_stage_rejected(self):
        arr = np.array([5, 1, 3], dtype=np.uint64)
        blob = _PACKED_ENCODERS["for"](arr)
        with pytest.raises(FragmentError, match="malformed codec chain"):
            decode_buffer(blob, "dbp+for", arr.dtype, arr.size)


class TestFragmentCodecs:
    @pytest.mark.parametrize("codec", CODECS)
    def test_pack_unpack(self, codec, rng):
        buffers = {
            "addresses": np.sort(
                rng.integers(0, 10000, size=200, dtype=np.uint64)
            ),
            "coords": rng.integers(0, 50, size=(100, 2), dtype=np.uint64),
        }
        values = rng.standard_normal(100)
        blob = pack_fragment("LINEAR", (100, 100), 100, {}, buffers, values,
                             codec=codec)
        payload = unpack_fragment(blob)
        assert np.array_equal(payload.buffers["addresses"],
                              buffers["addresses"])
        assert np.array_equal(payload.buffers["coords"], buffers["coords"])
        assert np.array_equal(payload.values, values)

    def test_compressed_fragment_is_smaller(self, rng):
        addr = np.sort(rng.integers(0, 1 << 20, size=5000, dtype=np.uint64))
        values = np.ones(5000)
        raw = pack_fragment("LINEAR", (1 << 20,), 5000, {},
                            {"addresses": addr}, values, codec="raw")
        packed = pack_fragment("LINEAR", (1 << 20,), 5000, {},
                               {"addresses": addr}, values,
                               codec="delta-zlib")
        assert len(packed) < len(raw) // 3

    def test_crc_still_guards_compressed(self, rng):
        blob = bytearray(
            pack_fragment("LINEAR", (100,), 10, {},
                          {"addresses": np.arange(10, dtype=np.uint64)},
                          np.ones(10), codec="zlib")
        )
        blob[len(blob) // 2] ^= 0x10
        with pytest.raises(FragmentError):
            unpack_fragment(bytes(blob))

    def test_invalid_codec_rejected(self):
        with pytest.raises(FragmentError):
            pack_fragment("COO", (4,), 0, {}, {}, np.empty(0), codec="xz")


class TestStoreCodec:
    @pytest.mark.parametrize("codec", CODECS)
    def test_store_round_trip(self, tmp_path, tensor_3d, codec):
        store = FragmentStore(
            tmp_path / codec, tensor_3d.shape, "LINEAR",
            options=StoreOptions(codec=codec),
        )
        store.write_tensor(tensor_3d)
        out = store.read_points(tensor_3d.coords)
        assert out.found.all()
        assert np.allclose(out.values, tensor_3d.values)

    def test_store_rejects_bad_codec(self, tmp_path):
        with pytest.raises(FragmentError):
            FragmentStore(tmp_path / "x", (4, 4), "COO",
                          options=StoreOptions(codec="rar"))

    def test_compression_shrinks_clustered_fragment(self, tmp_path):
        """A banded (TSP) tensor: sorted-address deltas compress well."""
        from repro.patterns import TSPPattern

        tensor = TSPPattern((512, 512), band_width=4).generate(3)
        tensor = tensor.sorted_by_linear()
        raw_store = FragmentStore(tmp_path / "raw", tensor.shape, "LINEAR")
        zip_store = FragmentStore(
            tmp_path / "zip", tensor.shape, "LINEAR",
            options=StoreOptions(codec="delta-zlib"),
        )
        r_raw = raw_store.write_tensor(tensor)
        r_zip = zip_store.write_tensor(tensor)
        assert r_zip.file_nbytes < r_raw.file_nbytes


# ---------------------------------------------------------------------------
# Cascaded codec property/fuzz suite
# ---------------------------------------------------------------------------


def _fuzz_arrays(seed, dtype):
    """Deterministic battery of arrays covering codec edge cases."""
    rng = np.random.default_rng(seed)
    info = np.iinfo(dtype)
    hi = int(info.max)
    out = [
        np.empty(0, dtype=dtype),                      # empty
        np.array([0], dtype=dtype),                    # single element
        np.array([hi], dtype=dtype),                   # single max
        np.zeros(257, dtype=dtype),                    # constant zero run
        np.full(513, hi, dtype=dtype),                 # constant max run
        np.arange(1000, dtype=np.uint64).astype(dtype),  # unit stride
        (np.arange(500, dtype=np.uint64) * 7).astype(dtype),
        rng.integers(0, hi, size=777, endpoint=True, dtype=dtype),  # noise
        np.sort(rng.integers(0, hi, size=777, endpoint=True, dtype=dtype)),
        # adversarial near-overflow deltas: max positive and max negative
        # wraparound residuals back to back
        np.array([0, hi, 0, hi, 1, hi - 1], dtype=dtype),
        # descending (all-negative deltas -> full-width residuals)
        np.arange(300, 0, -1, dtype=np.uint64).astype(dtype),
        # sorted with one huge jump (max-bit-width residual amid small ones)
        np.concatenate([
            np.arange(100, dtype=np.uint64),
            np.arange(100, dtype=np.uint64) + hi - 200,
        ]).astype(dtype),
    ]
    return out


class TestCascadeFuzz:
    @pytest.mark.parametrize("dtype", UINT_DTYPES)
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_bit_identical_roundtrip_all_codecs(self, dtype, seed):
        for arr in _fuzz_arrays(seed, dtype):
            for codec in CODECS:
                back, stored, _ = roundtrip(arr, codec)
                assert back.dtype == arr.dtype, (codec, stored)
                assert np.array_equal(back, arr), (codec, stored, arr[:8])

    @pytest.mark.parametrize("seed", [0, 7])
    def test_cascade_never_worse_than_raw(self, seed):
        for dtype in UINT_DTYPES:
            for arr in _fuzz_arrays(seed, dtype):
                blob, chain, _advice = encode_cascade(arr)
                # The hard guarantee: cascade output never exceeds raw bytes.
                assert len(blob) <= arr.nbytes, (dtype, chain, arr[:8])

    def test_cascade_shrinks_sorted_addresses(self, rng):
        addr = np.cumsum(
            rng.integers(1, 5, size=100_000, dtype=np.uint64)
        ).astype(np.uint64)
        blob, chain, _ = encode_cascade(addr)
        assert chain.startswith(("dbp", "drle"))
        assert len(blob) * 2 < addr.nbytes

    def test_cascade_constant_stride_uses_rle(self):
        addr = np.arange(0, 500_000, 10, dtype=np.uint64)
        blob, chain, _ = encode_cascade(addr)
        assert chain.startswith("drle")
        assert len(blob) < 128  # one run collapses to a handful of bytes

    def test_cascade_random_full_width_stays_raw(self, rng):
        arr = rng.integers(0, 2**64 - 1, size=4096, endpoint=True,
                           dtype=np.uint64)
        blob, chain, _ = encode_cascade(arr)
        assert chain == "raw"
        assert len(blob) == arr.nbytes

    def test_floats_and_2d_fall_back(self, rng):
        for arr in (rng.standard_normal(64),
                    rng.integers(0, 9, size=(8, 3), dtype=np.uint64)):
            blob, stored = encode_buffer(arr, CASCADE)
            assert stored in ("raw", "zlib")
            back = decode_buffer(blob, stored, arr.dtype, arr.size)
            assert np.array_equal(back.reshape(arr.shape), arr)


class TestCodecAdvisor:
    def test_advice_is_deterministic(self, rng):
        arr = np.sort(rng.integers(0, 1 << 30, size=5000, dtype=np.uint64))
        a = advise_buffer(arr)
        b = advise_buffer(arr.copy())
        assert a == b
        blob1, chain1, _ = encode_cascade(arr)
        blob2, chain2, _ = encode_cascade(arr.copy())
        assert chain1 == chain2
        assert blob1 == blob2

    def test_candidate_sizes_are_exact(self, rng):
        arr = np.sort(rng.integers(0, 1 << 20, size=3000, dtype=np.uint64))
        for sample in (arr, rng.permutation(arr)):
            advice = advise_buffer(sample)
            assert set(advice.candidate_sizes) == {"raw", "for", "dbp",
                                                   "drle"}
            assert advice.candidate_sizes["raw"] == sample.nbytes
            for stage, encode in _PACKED_ENCODERS.items():
                assert (len(encode(sample))
                        == advice.candidate_sizes[stage]), stage
            blob, chain, _ = encode_cascade(sample)
            pre_zlib = chain.split("+zlib")[0]
            if pre_zlib in advice.candidate_sizes and "+zlib" not in chain:
                assert len(blob) == advice.candidate_sizes[pre_zlib]

    def test_arrival_order_picks_for(self, rng):
        """Shuffled addresses over a narrow range: every delta wraps to
        the full word, so the delta stages lose, but ``for`` packs each
        address at the range's width and beats DEFLATE over the raw
        bytes."""
        addr = rng.choice(1 << 20, size=9000, replace=False).astype(
            np.uint64
        ) + np.uint64(7 << 40)
        advice = advise_buffer(addr)
        assert advice.chain == "for"
        assert advice.range_bits == 20
        blob, chain, _ = encode_cascade(addr)
        assert chain == "for"
        assert len(blob) <= len(zlib.compress(addr.tobytes(), 6))
        back = decode_buffer(blob, chain, addr.dtype, addr.size)
        assert np.array_equal(back, addr)

    def test_advice_fields(self):
        arr = np.arange(0, 1000, 2, dtype=np.uint64)
        advice = advise_buffer(arr)
        assert advice.n == arr.size
        assert np.dtype(advice.dtype) == np.dtype(np.uint64)
        assert 0.9 < advice.run_fraction <= 1.0  # constant stride = one run
        assert advice.entropy_bits >= 0.0
        assert sum(advice.width_hist.values()) > 0

    def test_run_fraction_low_for_noise(self, rng):
        arr = rng.integers(0, 2**32, size=4096, dtype=np.uint64)
        advice = advise_buffer(arr)
        assert advice.run_fraction < 0.2


class TestChainTags:
    """Stored tags are self-describing: decode never consults store options."""

    @pytest.mark.parametrize("dtype", UINT_DTYPES)
    def test_known_chains_decode(self, dtype, rng):
        hi = int(np.iinfo(dtype).max)
        samples = [
            np.sort(rng.integers(0, hi, size=600, endpoint=True,
                                 dtype=dtype)),
            np.arange(0, 1200, 3, dtype=np.uint64).astype(dtype),
            rng.integers(0, hi, size=600, endpoint=True, dtype=dtype),
            # arrival order over a narrow range near the dtype's top
            (hi - rng.integers(0, 1 << 6, size=600, dtype=np.uint64)
             ).astype(dtype),
        ]
        seen = set()
        for arr in samples:
            blob, chain, _ = encode_cascade(arr)
            seen.add(chain)
            back = decode_buffer(blob, chain, arr.dtype, arr.size)
            assert np.array_equal(back, arr)
        assert "for" in seen

    def test_malformed_chain_rejected(self):
        arr = np.arange(16, dtype=np.uint64)
        blob, chain, _ = encode_cascade(arr)
        with pytest.raises(FragmentError):
            decode_buffer(blob, chain + "+bogus", arr.dtype, arr.size)

    def test_truncated_payload_rejected(self, rng):
        addr = np.sort(rng.integers(0, 1 << 30, size=2000, dtype=np.uint64))
        blob, chain, _ = encode_cascade(addr)
        assert chain != "raw"
        with pytest.raises(FragmentError):
            decode_buffer(blob[: len(blob) // 2], chain, addr.dtype,
                          addr.size)

    def test_truncated_for_header_rejected(self):
        arr = np.array([9, 3, 7, 5, 11], dtype=np.uint64)
        blob = _PACKED_ENCODERS["for"](arr)
        for cut in (0, 8):
            with pytest.raises(FragmentError, match="before header"):
                decode_buffer(blob[:cut], "for", arr.dtype, arr.size)
        with pytest.raises(FragmentError, match="truncated"):
            decode_buffer(blob[:-1], "for", arr.dtype, arr.size)

    def test_wrong_count_rejected(self, rng):
        addr = np.sort(rng.integers(0, 1 << 30, size=2000, dtype=np.uint64))
        blob, chain, _ = encode_cascade(addr)
        with pytest.raises(FragmentError):
            decode_buffer(blob, chain, addr.dtype, addr.size + 1)


class TestTagDrivenReads:
    """Satellite: stored tag wins over store options (regression for the
    silent delta-zlib fallback)."""

    def test_fallback_tag_records_truth(self, rng):
        # 2-D buffer under delta-zlib silently fell back to zlib; the tag
        # must say so.
        arr = rng.integers(0, 99, size=(64, 3), dtype=np.uint64)
        _, stored = encode_buffer(arr, "delta-zlib")
        assert stored == "zlib"

    def test_fragment_read_ignores_store_codec(self, tmp_path, rng):
        """Write fragments as cascade, reopen with codec='raw': old
        fragments must still decode via their own tags."""
        addr = np.cumsum(
            rng.integers(1, 8, size=4096, dtype=np.uint64)
        ).astype(np.uint64)
        shape = (1 << 20,)
        store = FragmentStore(
            tmp_path / "s", shape, "LINEAR",
            options=StoreOptions(codec=CASCADE),
        )
        coords = addr.reshape(-1, 1)
        vals = rng.standard_normal(addr.size)
        from repro.core.tensor import SparseTensor

        tensor = SparseTensor(coords=coords, values=vals, shape=shape)
        store.write_tensor(tensor)
        stats = store.compression_stats()
        assert any(tag.startswith(("dbp", "drle"))
                   for tag in stats["by_codec"])

        reopened = FragmentStore(
            tmp_path / "s", shape, "LINEAR",
            options=StoreOptions(codec="raw"),
        )
        out = reopened.read_points(coords)
        assert out.found.all()
        assert np.array_equal(out.values, vals)
        # New fragments under the reopened store are raw-tagged while the
        # old cascade fragments stay readable side by side.
        tensor2 = SparseTensor(
            coords=coords + 1, values=vals * 2, shape=shape
        )
        reopened.write_tensor(tensor2)
        out2 = reopened.read_points(coords + 1)
        assert np.array_equal(out2.values, vals * 2)

    def test_codec_sizes_matches_blob(self, rng):
        addr = np.sort(rng.integers(0, 1 << 20, size=2048, dtype=np.uint64))
        blob = pack_fragment(
            "LINEAR", (1 << 20,), addr.size, {}, {"addresses": addr},
            np.ones(addr.size), codec=CASCADE,
        )
        from repro.storage import unpack_header

        header, _ = unpack_header(blob)
        by_codec, raw_total = codec_sizes(header)
        assert raw_total == addr.nbytes + addr.size * 8
        assert sum(by_codec.values()) <= raw_total
