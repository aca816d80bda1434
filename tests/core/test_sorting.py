"""Unit tests for repro.core.sorting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ShapeError,
    apply_map,
    counts_to_pointer,
    invert_permutation,
    is_permutation,
    lexsort_rows,
    segment_boundaries,
    stable_argsort,
)
from repro.core import sorting
from repro.core.sorting import PACKED_SORT_MIN

WIDE_DTYPES = {
    "uint32": np.uint32,
    "uint64": np.uint64,
    "int32": np.int32,
    "int64": np.int64,
    "intp": np.intp,
}
SIZES = [0, 1, PACKED_SORT_MIN - 1, PACKED_SORT_MIN, PACKED_SORT_MIN + 1,
         25_600]


def _wide(rng, n, dtype):
    """Keys spread over the dtype, at most 2**41 wide (packable)."""
    info = np.iinfo(dtype)
    lo, hi = max(int(info.min), -(1 << 40)), min(int(info.max), 1 << 40)
    return rng.integers(lo, hi, n, endpoint=True).astype(dtype)


def _runs(rng, sizes, dtype):
    return np.concatenate(
        [np.sort(_wide(rng, int(k), dtype)) for k in sizes]
    ).astype(dtype)


def _row_blocked(rng, n, dtype, row):
    """Rows ascending, the columns of each row shuffled (GCSR++ layout)."""
    rows = -(-n // row)
    cols = rng.permuted(np.tile(np.arange(256), (rows, 1)), axis=1)
    return (np.arange(n) // row * 256 + cols[:, :row].ravel()[:n]).astype(
        dtype
    )


KEY_CLASSES = {
    "random": lambda rng, n, dt: _wide(rng, n, dt),
    "sorted": lambda rng, n, dt: np.sort(_wide(rng, n, dt)),
    "sorted_ties": lambda rng, n, dt: np.sort(
        rng.integers(0, max(1, n // 8), n)
    ).astype(dt),
    "reversed": lambda rng, n, dt: np.sort(_wide(rng, n, dt))[::-1].copy(),
    # The compaction merge's runs: one base fragment and eight packs.
    "9_runs_one_dominant": lambda rng, n, dt: _runs(
        rng, [n - 8 * (n // 40)] + [n // 40] * 8, dt
    ),
    "64_runs": lambda rng, n, dt: _runs(
        rng, np.diff(np.linspace(0, n, 65).astype(int)), dt
    ),
    "row_blocked_short": lambda rng, n, dt: _row_blocked(rng, n, dt, 12),
    "row_blocked_long": lambda rng, n, dt: _row_blocked(rng, n, dt, 200),
    "duplicate_heavy": lambda rng, n, dt: rng.integers(0, 16, n).astype(dt),
    "negative": lambda rng, n, dt: rng.integers(-(1 << 30), 0, n).astype(dt),
    "uint64_top_half": lambda rng, n, dt: (
        np.uint64(1 << 63) + rng.integers(0, 1 << 40, n).astype(np.uint64)
    ),
    "uint64_full_range": lambda rng, n, dt: rng.integers(
        0, np.iinfo(np.uint64).max, n, dtype=np.uint64, endpoint=True
    ),
}


def _applies(key_class, dtype):
    if key_class == "negative":
        return np.iinfo(dtype).min < 0
    if key_class.startswith("uint64_"):
        return dtype is np.uint64
    return True


CASES = [
    pytest.param(dt, n, kc, id=f"{dn}-{n}-{kc}")
    for dn, dt in WIDE_DTYPES.items()
    for n in SIZES
    for kc in KEY_CLASSES
    if _applies(kc, dt)
]


class TestStableArgsort:
    def test_sorts(self):
        keys = np.array([3, 1, 2], dtype=np.uint64)
        assert stable_argsort(keys).tolist() == [1, 2, 0]

    def test_stability(self):
        # Equal keys keep input order — required for the GCSR++ map vector.
        keys = np.array([1, 0, 1, 0, 1], dtype=np.uint64)
        assert stable_argsort(keys).tolist() == [1, 3, 0, 2, 4]

    def test_rejects_2d(self):
        with pytest.raises(ShapeError):
            stable_argsort(np.zeros((2, 2)))

    @pytest.mark.parametrize("dtype, n, key_class", CASES)
    def test_matches_numpy_stable(self, dtype, n, key_class):
        rng = np.random.default_rng(n)
        keys = KEY_CLASSES[key_class](rng, n, dtype)
        assert keys.dtype == dtype and keys.shape == (n,)
        perm = stable_argsort(keys)
        assert perm.dtype == np.intp
        np.testing.assert_array_equal(perm, np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize("dtype", [np.uint64, np.int64])
    def test_packed_word_limit(self, dtype):
        """Range bits + index bits of exactly 64 pack; 65 fall back."""
        rng = np.random.default_rng(3)
        n = PACKED_SORT_MIN + 1
        index_bits = (n - 1).bit_length()
        lo = -(1 << 50) if dtype is np.int64 else 1 << 10
        for range_bits, packs in ((64 - index_bits, True),
                                  (65 - index_bits, False)):
            span = (1 << range_bits) - 1
            keys = (lo + rng.integers(0, span, n, endpoint=True)).astype(dtype)
            keys[:2] = [lo + span, lo]  # pin the range exactly
            assert (int(keys.max()) - int(keys.min())).bit_length() == range_bits
            assert (sorting._packed_argsort(keys) is not None) is packs
            np.testing.assert_array_equal(
                stable_argsort(keys), np.argsort(keys, kind="stable")
            )

    @pytest.mark.parametrize(
        "dtype",
        [np.uint8, np.int8, np.uint16, np.int16, np.float32, np.float64],
    )
    def test_narrow_and_float_keys_keep_numpy(self, dtype, packed_sort_calls):
        """Radix-sorted (<=16-bit) and float keys never take the packed
        kernel and return NumPy's stable sort."""
        rng = np.random.default_rng(5)
        keys = (rng.random(25_600) * 100).astype(dtype)
        np.testing.assert_array_equal(
            stable_argsort(keys), np.argsort(keys, kind="stable")
        )
        assert packed_sort_calls == []

    @pytest.mark.parametrize("key_class, tried", [
        ("random", True),
        ("duplicate_heavy", True),
        ("row_blocked_long", True),
        # Sampled as shuffled; the kernel then declines (64 range bits).
        ("uint64_full_range", True),
        ("sorted", False),
        ("sorted_ties", False),
        ("reversed", False),
        ("9_runs_one_dominant", False),
        ("row_blocked_short", False),
    ])
    def test_kernel_selection(self, key_class, tried, packed_sort_calls):
        """Only keys at or above the cutover whose sample looks shuffled
        try the packed kernel; presorted and short-row keys stay on
        timsort."""
        rng = np.random.default_rng(11)
        for n in (PACKED_SORT_MIN - 1, PACKED_SORT_MIN, 25_600):
            stable_argsort(KEY_CLASSES[key_class](rng, n, np.uint64))
        assert packed_sort_calls == (
            [PACKED_SORT_MIN, 25_600] if tried else []
        )

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(PACKED_SORT_MIN - 2, 3 * PACKED_SORT_MIN),
        range_bits=st.integers(0, 63),
        n_runs=st.integers(1, 200),
        signed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_matches_numpy_stable(self, n, range_bits, n_runs,
                                           signed, seed):
        rng = np.random.default_rng(seed)
        hi = (1 << range_bits) - 1
        keys = rng.integers(0, hi, n, dtype=np.uint64, endpoint=True)
        cuts = np.sort(rng.integers(0, n, n_runs - 1))
        keys = np.concatenate([np.sort(p) for p in np.split(keys, cuts)])
        if signed:
            keys = (keys >> np.uint64(1)).astype(np.int64) - (hi >> 2)
        np.testing.assert_array_equal(
            stable_argsort(keys), np.argsort(keys, kind="stable")
        )


class TestLexsortRows:
    def test_dim0_most_significant(self):
        coords = np.array([[1, 0], [0, 5], [0, 2], [1, 1]], dtype=np.uint64)
        perm = lexsort_rows(coords)
        assert coords[perm].tolist() == [[0, 2], [0, 5], [1, 0], [1, 1]]

    def test_matches_linear_order(self, rng):
        from repro.core import linearize

        shape = (9, 8, 7)
        coords = np.column_stack(
            [rng.integers(0, m, size=300, dtype=np.uint64) for m in shape]
        )
        perm = lexsort_rows(coords)
        addr = linearize(coords, shape)
        assert np.array_equal(np.sort(addr), addr[perm])

    def test_single_column(self):
        coords = np.array([[3], [1], [2]], dtype=np.uint64)
        assert lexsort_rows(coords).tolist() == [1, 2, 0]

    def test_empty(self):
        assert lexsort_rows(np.empty((0, 2), dtype=np.uint64)).shape == (0,)


class TestPermutations:
    def test_invert(self, rng):
        perm = rng.permutation(40)
        inv = invert_permutation(perm)
        assert np.array_equal(perm[inv], np.arange(40))
        assert np.array_equal(inv[perm], np.arange(40))

    def test_is_permutation(self, rng):
        assert is_permutation(rng.permutation(10))
        assert is_permutation(np.array([], dtype=np.intp))
        assert not is_permutation(np.array([0, 0, 2]))
        assert not is_permutation(np.array([0, 3]))
        assert not is_permutation(np.zeros((2, 2), dtype=np.intp))

    def test_apply_map_none_is_noop(self):
        buf = np.arange(5.0)
        assert apply_map(buf, None) is buf

    def test_apply_map_gathers(self):
        buf = np.array([10.0, 20.0, 30.0])
        perm = np.array([2, 0, 1])
        assert apply_map(buf, perm).tolist() == [30.0, 10.0, 20.0]

    def test_apply_map_length_mismatch(self):
        with pytest.raises(ShapeError):
            apply_map(np.arange(3.0), np.array([0, 1]))


class TestPointersAndSegments:
    def test_counts_to_pointer(self):
        ptr = counts_to_pointer(np.array([3, 0, 2]))
        assert ptr.tolist() == [0, 3, 3, 5]

    def test_counts_to_pointer_empty(self):
        assert counts_to_pointer(np.array([], dtype=int)).tolist() == [0]

    def test_segment_boundaries(self):
        keys = np.array([2, 2, 5, 7, 7, 7], dtype=np.uint64)
        uniq, offs = segment_boundaries(keys)
        assert uniq.tolist() == [2, 5, 7]
        assert offs.tolist() == [0, 2, 3, 6]

    def test_segment_boundaries_empty(self):
        uniq, offs = segment_boundaries(np.array([], dtype=np.uint64))
        assert uniq.shape == (0,)
        assert offs.tolist() == [0]
