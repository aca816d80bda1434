"""Unit tests for the LINEAR format."""

import numpy as np
import pytest

from repro.core import IndexOverflowError, OpCounter
from repro.formats import LinearFormat

from ..conftest import query_mix


@pytest.fixture
def fmt():
    return LinearFormat()


class TestBuild:
    def test_stores_row_major_addresses(self, fmt, fig1_tensor):
        result = fmt.build(fig1_tensor.coords, fig1_tensor.shape)
        assert result.payload["addresses"].tolist() == [1, 4, 5, 25, 26]

    def test_preserves_input_order(self, fmt, tensor_3d):
        result = fmt.build(tensor_3d.coords, tensor_3d.shape)
        assert result.perm is None
        assert np.array_equal(
            result.payload["addresses"], tensor_3d.linear_addresses()
        )

    def test_space_is_n_elements(self, fmt, tensor_4d):
        result = fmt.build(tensor_4d.coords, tensor_4d.shape)
        assert result.index_nbytes() == tensor_4d.nnz * 8

    def test_build_charges_n_times_d_transforms(self, fmt, tensor_4d):
        counter = OpCounter()
        fmt.build(tensor_4d.coords, tensor_4d.shape, counter=counter)
        assert counter.transforms == tensor_4d.nnz * 4

    def test_overflow_shape_rejected(self, fmt):
        with pytest.raises(IndexOverflowError):
            fmt.build(np.array([[0, 0]], dtype=np.uint64), (2**33, 2**33))


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
        faith = fmt.read_faithful(enc.payload, enc.meta, tensor_2d.shape, queries)
        assert np.array_equal(prod.found, faith.found)
        assert np.array_equal(prod.value_positions, faith.value_positions)

    def test_faithful_op_accounting(self, fmt, tensor_3d):
        enc = fmt.encode(tensor_3d)
        q = 23
        counter = OpCounter()
        fmt.read_faithful(
            enc.payload, enc.meta, tensor_3d.shape,
            tensor_3d.coords[:q], counter=counter,
        )
        assert counter.comparisons == tensor_3d.nnz * q
        assert counter.transforms == q * 3  # query linearization

    def test_duplicate_stored_addresses_last_match(self, fmt):
        # LINEAR without dedup stores both; read returns the newest
        # (last) position per the central duplicate policy
        # (repro.build.canonical.DUPLICATE_POLICY).
        coords = np.array([[1, 1], [1, 1]], dtype=np.uint64)
        result = fmt.build(coords, (4, 4))
        res = fmt.read(result.payload, result.meta, (4, 4),
                       np.array([[1, 1]], dtype=np.uint64))
        assert res.found[0]
        assert res.value_positions[0] == 1
