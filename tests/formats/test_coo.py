"""Unit tests for the COO baseline format."""

import numpy as np
import pytest

from repro.core import OpCounter
from repro.core.errors import FormatError
from repro.formats import COOFormat

from ..conftest import query_mix


@pytest.fixture
def fmt():
    return COOFormat()


class TestBuild:
    def test_adopts_buffer_verbatim(self, fmt, fig1_tensor):
        result = fmt.build(fig1_tensor.coords, fig1_tensor.shape)
        assert np.array_equal(result.payload["coords"], fig1_tensor.coords)
        assert result.perm is None

    def test_build_is_o1_no_ops_charged(self, fmt, fig1_tensor):
        counter = OpCounter()
        fmt.build(fig1_tensor.coords, fig1_tensor.shape, counter=counter)
        assert counter.total == 0

    def test_space_is_n_times_d(self, fmt, tensor_3d):
        result = fmt.build(tensor_3d.coords, tensor_3d.shape)
        assert result.index_nbytes() == tensor_3d.nnz * 3 * 8

    def test_empty(self, fmt):
        result = fmt.build(np.empty((0, 2), dtype=np.uint64), (4, 4))
        assert result.payload["coords"].shape == (0, 2)


class TestRead:
    def test_mixed_queries(self, fmt, any_tensor, rng):
        enc = fmt.encode(any_tensor)
        queries, expected = query_mix(any_tensor, rng)
        out = enc.read_points(queries)
        found, vals = out.found, out.values
        assert np.array_equal(found, expected)
        # Values of present points come back in query order.
        assert np.allclose(vals[: any_tensor.nnz], any_tensor.values)

    def test_faithful_matches_production(self, fmt, tensor_3d, rng):
        enc = fmt.encode(tensor_3d)
        queries, _ = query_mix(tensor_3d, rng)
        prod = fmt.read(enc.payload, enc.meta, tensor_3d.shape, queries)
        faith = fmt.read_faithful(enc.payload, enc.meta, tensor_3d.shape, queries)
        assert np.array_equal(prod.found, faith.found)
        assert np.array_equal(prod.value_positions, faith.value_positions)

    def test_faithful_charges_n_times_q(self, fmt, tensor_2d):
        enc = fmt.encode(tensor_2d)
        queries = tensor_2d.coords[:17]
        counter = OpCounter()
        fmt.read_faithful(
            enc.payload, enc.meta, tensor_2d.shape, queries, counter=counter
        )
        assert counter.comparisons == tensor_2d.nnz * 17

    def test_empty_query(self, fmt, tensor_2d):
        enc = fmt.encode(tensor_2d)
        res = fmt.read(
            enc.payload, enc.meta, tensor_2d.shape,
            np.empty((0, 2), dtype=np.uint64),
        )
        assert res.found.shape == (0,)

    def test_query_against_empty_payload(self, fmt):
        result = fmt.build(np.empty((0, 2), dtype=np.uint64), (4, 4))
        res = fmt.read(
            result.payload, result.meta, (4, 4),
            np.array([[1, 1]], dtype=np.uint64),
        )
        assert not res.found[0]

    def test_missing_buffer_raises(self, fmt):
        with pytest.raises(FormatError, match="missing"):
            fmt.read({}, {}, (4, 4), np.array([[0, 0]], dtype=np.uint64))
