"""Unit tests for the sorted-COO variant (paper §II-A trade-off)."""

import numpy as np
import pytest

from repro.core import OpCounter, is_permutation, linearize
from repro.formats import SortedCOOFormat

from ..conftest import query_mix


@pytest.fixture
def fmt():
    return SortedCOOFormat()


class TestBuild:
    def test_sorted_by_linear_address(self, fmt, tensor_3d):
        result = fmt.build(tensor_3d.coords, tensor_3d.shape)
        addr = linearize(result.payload["coords"], tensor_3d.shape)
        assert np.all(addr[1:] >= addr[:-1])

    def test_map_is_permutation(self, fmt, tensor_3d):
        result = fmt.build(tensor_3d.coords, tensor_3d.shape)
        assert is_permutation(result.perm)

    def test_build_charges_sort(self, fmt, tensor_2d):
        counter = OpCounter()
        fmt.build(tensor_2d.coords, tensor_2d.shape, counter=counter)
        assert counter.sort_ops > 0
        assert counter.transforms == tensor_2d.nnz * 2

    def test_same_space_as_coo(self, fmt, tensor_4d):
        result = fmt.build(tensor_4d.coords, tensor_4d.shape)
        assert result.index_nbytes() == tensor_4d.nnz * 4 * 8


class TestRead:
    def test_mixed_queries(self, fmt, any_tensor, rng):
        enc = fmt.encode(any_tensor)
        queries, expected = query_mix(any_tensor, rng)
        out = enc.read_points(queries)
        found, vals = out.found, out.values
        assert np.array_equal(found, expected)
        assert np.allclose(vals[: any_tensor.nnz], any_tensor.values)

    def test_faithful_is_logarithmic(self, fmt, tensor_3d):
        enc = fmt.encode(tensor_3d)
        counter = OpCounter()
        q = 16
        fmt.read_faithful(enc.payload, enc.meta, tensor_3d.shape,
                          tensor_3d.coords[:q], counter=counter)
        n = tensor_3d.nnz
        # O(q log n), crucially far below the unsorted O(q n).
        assert counter.comparisons <= q * int(np.ceil(np.log2(n + 1)))
        assert counter.comparisons < q * n / 4

    def test_query_past_last_address(self, fmt):
        from repro.core import SparseTensor

        t = SparseTensor.from_points((4, 4), [(0, 0)], [1.0])
        enc = fmt.encode(t)
        found = enc.read_points(np.array([[3, 3]], dtype=np.uint64)).found
        assert not found[0]
