"""Unit tests for the CSF tree format."""

import numpy as np
import pytest

from repro.core import OpCounter, SparseTensor, is_permutation
from repro.formats import CSFFormat, sort_dimensions

from ..conftest import query_mix


@pytest.fixture
def fmt():
    return CSFFormat()


class TestDimensionSorting:
    def test_ascending(self):
        perm, sorted_shape = sort_dimensions((50, 10, 30))
        assert perm.tolist() == [1, 2, 0]
        assert sorted_shape == (10, 30, 50)

    def test_stable_on_ties(self):
        perm, _ = sort_dimensions((5, 5, 5))
        assert perm.tolist() == [0, 1, 2]


class TestBuild:
    def test_structural_invariants(self, fmt, any_tensor):
        result = fmt.build(any_tensor.coords, any_tensor.shape)
        fmt.validate_payload(result.payload, any_tensor.ndim)

    def test_map_is_permutation(self, fmt, any_tensor):
        result = fmt.build(any_tensor.coords, any_tensor.shape)
        assert is_permutation(result.perm)

    def test_leaf_count_is_n(self, fmt, tensor_3d):
        result = fmt.build(tensor_3d.coords, tensor_3d.shape)
        assert int(result.payload["nfibs"][-1]) == tensor_3d.nnz

    def test_level_counts_non_decreasing(self, fmt, tensor_4d):
        result = fmt.build(tensor_4d.coords, tensor_4d.shape)
        nfibs = result.payload["nfibs"].astype(np.int64)
        assert np.all(np.diff(nfibs) >= 0)

    def test_best_case_space(self, fmt):
        """A single chain: every point shares the same prefix -> n + d
        elements at the leaves + one node per upper level (§II-E best case)."""
        n = 32
        coords = np.column_stack(
            [np.zeros(n, dtype=np.uint64),
             np.zeros(n, dtype=np.uint64),
             np.arange(n, dtype=np.uint64)]
        )
        result = fmt.build(coords, (4, 4, n))
        nfibs = result.payload["nfibs"].tolist()
        assert nfibs == [1, 1, n]

    def test_worst_case_space(self, fmt):
        """Fully divergent roots: every point has a distinct first
        coordinate -> n nodes at every level (§II-E worst case)."""
        n = 16
        coords = np.column_stack(
            [np.arange(n, dtype=np.uint64)] * 3
        )
        result = fmt.build(coords, (n, n, n))
        assert result.payload["nfibs"].tolist() == [n, n, n]

    def test_dim_reordering_used(self, fmt):
        # Largest dim first in the input; CSF must root at the smallest.
        coords = np.array([[7, 0, 1], [9, 0, 1], [3, 1, 0]], dtype=np.uint64)
        result = fmt.build(coords, (100, 2, 3))
        assert result.meta["dim_perm"] == [1, 2, 0]
        assert result.meta["sorted_shape"] == [2, 3, 100]
        # Root level indexes the size-2 dimension: at most 2 nodes.
        assert int(result.payload["nfibs"][0]) <= 2

    def test_empty(self, fmt):
        result = fmt.build(np.empty((0, 3), dtype=np.uint64), (4, 4, 4))
        assert result.payload["nfibs"].tolist() == [0, 0, 0]

    def test_build_op_accounting(self, fmt, tensor_3d):
        counter = OpCounter()
        fmt.build(tensor_3d.coords, tensor_3d.shape, counter=counter)
        assert counter.transforms == tensor_3d.nnz * 3  # tree pass
        assert counter.sort_ops > 0


class TestRead:
    def test_mixed_queries(self, fmt, any_tensor, rng):
        enc = fmt.encode(any_tensor)
        queries, expected = query_mix(any_tensor, rng)
        out = enc.read_points(queries)
        found, vals = out.found, out.values
        assert np.array_equal(found, expected)
        assert np.allclose(vals[: any_tensor.nnz], any_tensor.values)

    def test_faithful_matches_production(self, fmt, any_tensor, rng):
        enc = fmt.encode(any_tensor)
        queries, _ = query_mix(any_tensor, rng)
        prod = fmt.read(enc.payload, enc.meta, any_tensor.shape, queries)
        faith = fmt.read_faithful(enc.payload, enc.meta, any_tensor.shape,
                                  queries)
        assert np.array_equal(prod.found, faith.found)
        assert np.array_equal(prod.value_positions, faith.value_positions)

    def test_miss_at_every_level(self, fmt):
        t = SparseTensor.from_points((4, 4, 4), [(1, 1, 1)], [7.0])
        enc = fmt.encode(t)
        queries = np.array(
            [[0, 1, 1],  # miss at root
             [1, 0, 1],  # miss at level 1
             [1, 1, 0],  # miss at leaf
             [1, 1, 1]],  # hit
            dtype=np.uint64,
        )
        out = enc.read_points(queries)
        found, vals = out.found, out.values
        assert found.tolist() == [False, False, False, True]
        assert vals.tolist() == [7.0]
        res = fmt.read_faithful(enc.payload, enc.meta, t.shape, queries)
        assert res.found.tolist() == [False, False, False, True]

    def test_descent_op_accounting(self, fmt, tensor_3d):
        enc = fmt.encode(tensor_3d)
        counter = OpCounter()
        q = 10
        fmt.read_faithful(enc.payload, enc.meta, tensor_3d.shape,
                          tensor_3d.coords[:q], counter=counter)
        # d levels of binary search: comparisons bounded by q*d*log2(n+1)
        n = tensor_3d.nnz
        assert counter.comparisons <= q * 3 * np.ceil(np.log2(n + 1))
        assert counter.comparisons >= q * 3  # at least one probe per level
        assert counter.pointer_lookups == q * 2 * 2  # 2 loads per non-leaf

    def test_rectangular_shape_query_permutation(self, fmt, rng):
        # Non-uniform dims: queries must be permuted identically to build.
        shape = (40, 3, 17)
        coords = np.column_stack(
            [rng.integers(0, m, size=200, dtype=np.uint64) for m in shape]
        )
        t = SparseTensor(shape, coords, rng.standard_normal(200)).deduplicated()
        enc = fmt.encode(t)
        out = enc.read_points(t.coords)
        found, vals = out.found, out.values
        assert found.all()
        assert np.allclose(vals, t.values)

    def test_stored_elements_helper(self, fmt, tensor_3d):
        result = fmt.build(tensor_3d.coords, tensor_3d.shape)
        total = CSFFormat.stored_elements(result.payload)
        manual = sum(b.size for b in result.payload.values())
        assert total == manual
