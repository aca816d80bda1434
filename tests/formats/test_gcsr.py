"""Unit tests for GCSR++ (generalized CSR)."""

import numpy as np
import pytest

from repro.core import OpCounter, invert_permutation, is_permutation
from repro.core.errors import FormatError
from repro.formats import GCSRFormat

from ..conftest import query_mix


@pytest.fixture
def fmt():
    return GCSRFormat()


class TestBuild:
    def test_folds_to_min_dim_rows(self, fmt, tensor_3d):
        result = fmt.build(tensor_3d.coords, tensor_3d.shape)
        assert result.meta["shape2d"][0] == min(tensor_3d.shape)
        n_rows = result.meta["shape2d"][0]
        assert result.payload["row_ptr"].shape == (n_rows + 1,)

    def test_map_is_permutation(self, fmt, any_tensor):
        result = fmt.build(any_tensor.coords, any_tensor.shape)
        assert is_permutation(result.perm)

    def test_row_ptr_invariants(self, fmt, any_tensor):
        result = fmt.build(any_tensor.coords, any_tensor.shape)
        ptr = result.payload["row_ptr"].astype(np.int64)
        assert ptr[0] == 0
        assert ptr[-1] == any_tensor.nnz
        assert np.all(np.diff(ptr) >= 0)

    def test_space_complexity(self, fmt, tensor_4d):
        """Table I: O(n + min{m}) index elements."""
        result = fmt.build(tensor_4d.coords, tensor_4d.shape)
        elements = sum(b.size for b in result.payload.values())
        assert elements == tensor_4d.nnz + min(tensor_4d.shape) + 1

    def test_2d_tensor_is_plain_csr(self, fmt, tensor_2d):
        """§III-C: for 2D tensors GCSR++ is the classic CSR (when the first
        dimension is the smallest)."""
        result = fmt.build(tensor_2d.coords, tensor_2d.shape)
        assert tuple(result.meta["shape2d"]) == tensor_2d.shape
        # row_ptr counts points per first coordinate
        counts = np.bincount(
            tensor_2d.coords[:, 0].astype(np.int64),
            minlength=tensor_2d.shape[0],
        )
        assert np.array_equal(
            np.diff(result.payload["row_ptr"].astype(np.int64)), counts
        )

    def test_empty(self, fmt):
        result = fmt.build(np.empty((0, 3), dtype=np.uint64), (4, 5, 6))
        assert result.payload["row_ptr"].tolist() == [0] * 5
        assert result.payload["col_ind"].shape == (0,)

    def test_build_op_accounting(self, fmt, tensor_3d):
        """Table I's 2n build term: one fold transform + one packaging
        operation per point, plus the n log n sort."""
        counter = OpCounter()
        fmt.build(tensor_3d.coords, tensor_3d.shape, counter=counter)
        n = tensor_3d.nnz
        assert counter.transforms == n
        assert counter.sort_ops > 0
        assert counter.memory_ops == n


class TestRead:
    def test_mixed_queries(self, fmt, any_tensor, rng):
        enc = fmt.encode(any_tensor)
        queries, expected = query_mix(any_tensor, rng)
        out = enc.read_points(queries)
        found, vals = out.found, out.values
        assert np.array_equal(found, expected)
        assert np.allclose(vals[: any_tensor.nnz], any_tensor.values)

    def test_faithful_matches_production(self, fmt, tensor_3d, rng):
        enc = fmt.encode(tensor_3d)
        queries, _ = query_mix(tensor_3d, rng)
        prod = fmt.read(enc.payload, enc.meta, tensor_3d.shape, queries)
        faith = fmt.read_faithful(enc.payload, enc.meta, tensor_3d.shape, queries)
        assert np.array_equal(prod.found, faith.found)
        assert np.array_equal(prod.value_positions, faith.value_positions)

    def test_value_positions_respect_map(self, fmt, tensor_3d):
        result = fmt.build(tensor_3d.coords, tensor_3d.shape)
        res = fmt.read(result.payload, result.meta, tensor_3d.shape,
                       tensor_3d.coords)
        assert res.found.all()
        # stored position of original point j is inv_perm[j]
        inv = invert_permutation(result.perm)
        assert np.array_equal(res.value_positions, inv)

    def test_faithful_scan_cost_scales_with_row_occupancy(self, fmt):
        # A single dense row: each query scans that whole row.
        n = 64
        coords = np.column_stack(
            [np.zeros(n, dtype=np.uint64), np.arange(n, dtype=np.uint64)]
        )
        result = fmt.build(coords, (4, n))
        counter = OpCounter()
        fmt.read_faithful(result.payload, result.meta, (4, n),
                          coords[:4], counter=counter)
        assert counter.comparisons == 4 * n

    def test_missing_meta_raises(self, fmt, tensor_2d):
        result = fmt.build(tensor_2d.coords, tensor_2d.shape)
        with pytest.raises(FormatError, match="shape2d"):
            fmt.read(result.payload, {}, tensor_2d.shape, tensor_2d.coords[:1])
