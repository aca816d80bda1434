"""Unit tests for GCSC++ (generalized CSC)."""

import numpy as np
import pytest

from repro.core import OpCounter, is_permutation
from repro.formats import GCSCFormat, GCSRFormat

from ..conftest import query_mix


@pytest.fixture
def fmt():
    return GCSCFormat()


class TestBuild:
    def test_folds_to_min_dim_cols(self, fmt, tensor_3d):
        result = fmt.build(tensor_3d.coords, tensor_3d.shape)
        assert result.meta["shape2d"][1] == min(tensor_3d.shape)
        n_cols = result.meta["shape2d"][1]
        assert result.payload["col_ptr"].shape == (n_cols + 1,)

    def test_map_is_permutation(self, fmt, any_tensor):
        result = fmt.build(any_tensor.coords, any_tensor.shape)
        assert is_permutation(result.perm)

    def test_space_matches_gcsr(self, fmt, tensor_4d):
        """§III-B: GCSR++ and GCSC++ yield very similar file sizes."""
        gcsr = GCSRFormat().build(tensor_4d.coords, tensor_4d.shape)
        gcsc = fmt.build(tensor_4d.coords, tensor_4d.shape)
        assert gcsc.index_nbytes() == gcsr.index_nbytes()

    def test_points_sorted_by_column(self, fmt, tensor_3d):
        result = fmt.build(tensor_3d.coords, tensor_3d.shape)
        ptr = result.payload["col_ptr"].astype(np.int64)
        assert ptr[-1] == tensor_3d.nnz
        assert np.all(np.diff(ptr) >= 0)


class TestRead:
    def test_mixed_queries(self, fmt, any_tensor, rng):
        enc = fmt.encode(any_tensor)
        queries, expected = query_mix(any_tensor, rng)
        out = enc.read_points(queries)
        found, vals = out.found, out.values
        assert np.array_equal(found, expected)
        assert np.allclose(vals[: any_tensor.nnz], any_tensor.values)

    def test_faithful_matches_production(self, fmt, tensor_4d, rng):
        enc = fmt.encode(tensor_4d)
        queries, _ = query_mix(tensor_4d, rng)
        prod = fmt.read(enc.payload, enc.meta, tensor_4d.shape, queries)
        faith = fmt.read_faithful(enc.payload, enc.meta, tensor_4d.shape, queries)
        assert np.array_equal(prod.found, faith.found)
        assert np.array_equal(prod.value_positions, faith.value_positions)

    def test_agrees_with_gcsr(self, fmt, tensor_3d, rng):
        """Same tensor, same queries: the two generalizations must agree on
        existence (they only differ in layout)."""
        queries, _ = query_mix(tensor_3d, rng)
        enc_r = GCSRFormat().encode(tensor_3d)
        enc_c = fmt.encode(tensor_3d)
        out = enc_r.read_points(queries)
        found_r, vals_r = out.found, out.values
        out = enc_c.read_points(queries)
        found_c, vals_c = out.found, out.values
        assert np.array_equal(found_r, found_c)
        assert np.allclose(vals_r, vals_c)


class TestLayoutAsymmetry:
    """The Table III mechanism: row-major input favors GCSR++'s sort."""

    def test_row_major_input_gives_presorted_gcsr_keys(self, rng):
        # Build a row-major-ordered buffer (sorted by linear address).
        shape = (8, 32, 32)
        n = 2000
        coords = np.column_stack(
            [rng.integers(0, m, size=n, dtype=np.uint64) for m in shape]
        )
        from repro.core import SparseTensor

        t = SparseTensor(shape, coords, np.ones(n)).deduplicated()
        t = t.sorted_by_linear()
        gcsr = GCSRFormat().build(t.coords, t.shape)
        # GCSR++'s stable sort of already-sorted keys is the identity.
        assert np.array_equal(gcsr.perm, np.arange(t.nnz))
        gcsc = GCSCFormat().build(t.coords, t.shape)
        # GCSC++'s column sort genuinely permutes.
        assert not np.array_equal(gcsc.perm, np.arange(t.nnz))
