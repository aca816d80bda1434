"""Unit tests for the HiCOO-style blocked COO extension."""

import numpy as np
import pytest

from repro.core import is_permutation
from repro.core.errors import FormatError
from repro.formats import COOFormat, HiCOOFormat

from ..conftest import query_mix


@pytest.fixture
def fmt():
    return HiCOOFormat(block_edge=16)


class TestConstruction:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(FormatError):
            HiCOOFormat(block_edge=12)

    def test_rejects_tiny_block(self):
        with pytest.raises(FormatError):
            HiCOOFormat(block_edge=1)

    def test_element_dtype_matches_edge(self):
        small = HiCOOFormat(block_edge=128)
        large = HiCOOFormat(block_edge=1024)
        coords = np.array([[0, 0]], dtype=np.uint64)
        assert small.build(coords, (256, 256)).payload["elems"].dtype == np.uint8
        assert large.build(coords, (2048, 2048)).payload["elems"].dtype == np.uint16


class TestBuild:
    def test_blocks_sorted_and_segments_align(self, fmt, tensor_3d):
        result = fmt.build(tensor_3d.coords, tensor_3d.shape)
        addrs = result.payload["block_addrs"].astype(np.int64)
        assert np.all(np.diff(addrs) > 0)  # unique, sorted
        ptr = result.payload["block_ptr"].astype(np.int64)
        assert ptr[0] == 0 and ptr[-1] == tensor_3d.nnz
        assert is_permutation(result.perm)

    def test_narrow_elements_smaller_than_coo(self, fmt, tensor_3d):
        """Clustered data: HiCOO's narrow offsets beat raw COO bytes."""
        coo = COOFormat().build(tensor_3d.coords, tensor_3d.shape)
        hic = fmt.build(tensor_3d.coords, tensor_3d.shape)
        assert hic.index_nbytes() < coo.index_nbytes()

    def test_empty(self, fmt):
        result = fmt.build(np.empty((0, 2), dtype=np.uint64), (32, 32))
        assert result.payload["block_addrs"].shape == (0,)


class TestRead:
    def test_mixed_queries(self, fmt, any_tensor, rng):
        enc = fmt.encode(any_tensor)
        queries, expected = query_mix(any_tensor, rng)
        out = enc.read_points(queries)
        found, vals = out.found, out.values
        assert np.array_equal(found, expected)
        assert np.allclose(vals[: any_tensor.nnz], any_tensor.values)

    def test_faithful_matches_production(self, fmt, tensor_2d, rng):
        enc = fmt.encode(tensor_2d)
        queries, _ = query_mix(tensor_2d, rng)
        prod = fmt.read(enc.payload, enc.meta, tensor_2d.shape, queries)
        faith = fmt.read_faithful(enc.payload, enc.meta, tensor_2d.shape,
                                  queries)
        assert np.array_equal(prod.found, faith.found)
        assert np.array_equal(prod.value_positions, faith.value_positions)

    def test_query_in_absent_block(self, fmt):
        from repro.core import SparseTensor

        t = SparseTensor.from_points((64, 64), [(0, 0)], [1.0])
        enc = fmt.encode(t)
        found = enc.read_points(np.array([[40, 40]], dtype=np.uint64)).found
        assert not found[0]
