"""Property-based round-trip tests: every format must return exactly what
was stored, for arbitrary shapes and point sets.

This is the core correctness invariant of the whole library: for any
deduplicated coordinate buffer, BUILD followed by READ finds every stored
point with its value, and finds nothing else.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SparseTensor, linearize
from repro.formats import available_formats, get_format


@st.composite
def sparse_tensors(draw, max_dim=4, max_side=24, max_points=60):
    """Arbitrary small sparse tensors with unique points."""
    d = draw(st.integers(min_value=1, max_value=max_dim))
    shape = tuple(
        draw(st.integers(min_value=1, max_value=max_side)) for _ in range(d)
    )
    total = int(np.prod(shape))
    n = draw(st.integers(min_value=0, max_value=min(max_points, total)))
    addresses = draw(
        st.lists(
            st.integers(min_value=0, max_value=total - 1),
            min_size=n, max_size=n, unique=True,
        )
    )
    values = draw(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
            min_size=n, max_size=n,
        )
    )
    from repro.core import delinearize

    coords = delinearize(np.array(addresses, dtype=np.uint64), shape)
    return SparseTensor(shape, coords, np.array(values, dtype=np.float64))


@st.composite
def tensors_with_queries(draw):
    tensor = draw(sparse_tensors())
    total = int(np.prod(tensor.shape))
    q = draw(st.integers(min_value=0, max_value=40))
    q_addresses = draw(
        st.lists(st.integers(min_value=0, max_value=total - 1),
                 min_size=q, max_size=q)
    )
    from repro.core import delinearize

    queries = delinearize(np.array(q_addresses, dtype=np.uint64), tensor.shape)
    return tensor, queries


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(sparse_tensors())
    def test_all_stored_points_found_every_format(self, tensor):
        for name in available_formats():
            enc = get_format(name).encode(tensor)
            out = enc.read_points(tensor.coords)
            found, values = out.found, out.values
            assert found.all(), name
            assert np.array_equal(values, tensor.values), name

    @settings(max_examples=40, deadline=None)
    @given(tensors_with_queries())
    def test_found_mask_matches_ground_truth(self, tensor_and_queries):
        tensor, queries = tensor_and_queries
        stored = set(
            linearize(tensor.coords, tensor.shape).tolist()
        )
        q_addr = linearize(queries, tensor.shape)
        expected = np.array([int(a) in stored for a in q_addr], dtype=bool)
        for name in available_formats():
            enc = get_format(name).encode(tensor)
            found = enc.read_points(queries).found
            assert np.array_equal(found, expected), name

    @settings(max_examples=25, deadline=None)
    @given(tensors_with_queries())
    def test_faithful_read_agrees_with_production(self, tensor_and_queries):
        tensor, queries = tensor_and_queries
        for name in available_formats():
            fmt = get_format(name)
            enc = fmt.encode(tensor)
            prod = fmt.read(enc.payload, enc.meta, tensor.shape, queries)
            faith = fmt.read_faithful(enc.payload, enc.meta, tensor.shape,
                                      queries)
            assert np.array_equal(prod.found, faith.found), name
            assert np.array_equal(
                prod.value_positions, faith.value_positions
            ), name

    @settings(max_examples=30, deadline=None)
    @given(sparse_tensors())
    def test_map_vector_is_permutation_when_present(self, tensor):
        from repro.core import is_permutation

        for name in available_formats():
            fmt = get_format(name)
            result = fmt.build(tensor.coords, tensor.shape)
            if fmt.reorders_values:
                assert result.perm is not None, name
                assert is_permutation(result.perm), name
                assert result.perm.shape[0] == tensor.nnz, name
            else:
                assert result.perm is None, name
