"""Unified read-side API: one protocol across encodings and stores,
and str|SparseFormat constructor arguments."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BlockedDataset,
    Box,
    FragmentStore,
    Readable,
    ReadOutcome,
    SparseTensor,
    get_format,
)


@pytest.fixture
def tensor(rng) -> SparseTensor:
    coords = np.column_stack([
        rng.integers(0, 32, size=400, dtype=np.uint64) for _ in range(3)
    ])
    return SparseTensor((32, 32, 32), coords, rng.random(400)).deduplicated()


@pytest.fixture
def queries(tensor, rng) -> np.ndarray:
    misses = np.column_stack([
        rng.integers(0, 32, size=50, dtype=np.uint64) for _ in range(3)
    ])
    return np.vstack([tensor.coords[:50], misses])


def _readables(tmp_path, tensor):
    """One instance of every queryable storage object, same content."""
    enc = get_format("LINEAR").encode(tensor)
    store = FragmentStore(tmp_path / "store", tensor.shape, "LINEAR")
    store.write_tensor(tensor)
    blocked = BlockedDataset(tmp_path / "blk", tensor.shape, (8, 8, 8), "LINEAR")
    blocked.write_tensor(tensor)
    return {"encoded": enc, "store": store, "blocked": blocked}


class TestUnifiedProtocol:
    def test_all_implement_readable(self, tmp_path, tensor):
        for name, obj in _readables(tmp_path, tensor).items():
            assert isinstance(obj, Readable), name

    def test_read_points_agrees_everywhere(self, tmp_path, tensor, queries):
        expected = None
        for name, obj in _readables(tmp_path, tensor).items():
            out = obj.read_points(queries)
            assert isinstance(out, ReadOutcome), name
            assert out.found.shape == (queries.shape[0],)
            assert out.values.shape == (int(out.found.sum()),)
            assert out.points_matched == int(out.found.sum())
            assert out.fragments_visited >= 1
            if expected is None:
                expected = out
            else:
                np.testing.assert_array_equal(out.found, expected.found, name)
                np.testing.assert_allclose(out.values, expected.values, err_msg=name)
        assert expected.found[:50].all()
        # The second half of the queries are (mostly) misses; at least the
        # protocol must agree on them, which the loop above asserted.

    def test_read_box_agrees_everywhere(self, tmp_path, tensor):
        box = Box((4, 4, 4), (12, 12, 12))
        expected = tensor.select_box(box).sorted_by_linear()
        for name, obj in _readables(tmp_path, tensor).items():
            got = obj.read_box(box)
            assert isinstance(got, SparseTensor), name
            np.testing.assert_array_equal(got.coords, expected.coords, name)
            np.testing.assert_allclose(got.values, expected.values, err_msg=name)

    def test_blocked_read_box_is_structural_for_huge_boxes(self, tmp_path):
        # A box with ~2^30 cells: cell enumeration would never finish
        # instantly; the structural path scales with stored points.
        shape = (2**15, 2**15)
        ds = BlockedDataset(tmp_path / "big", shape, (1024, 1024), "LINEAR")
        coords = np.array([[5, 5], [20000, 20000]], dtype=np.uint64)
        ds.write(coords, np.array([1.0, 2.0]))
        got = ds.read_box(Box((0, 0), shape))
        np.testing.assert_array_equal(
            got.coords, np.array([[5, 5], [20000, 20000]], dtype=np.uint64)
        )
        np.testing.assert_allclose(got.values, [1.0, 2.0])


class TestFormatArguments:
    def test_stores_accept_format_instances(self, tmp_path, tensor):
        fmt = get_format("CSF")
        store = FragmentStore(tmp_path / "s", tensor.shape, fmt)
        assert store.format_name == "CSF"
        store.write_tensor(tensor)
        assert store.read_points(tensor.coords[:5]).found.all()

        blocked = BlockedDataset(
            tmp_path / "b", tensor.shape, (8, 8, 8), get_format("COO")
        )
        assert blocked.store.format_name == "COO"

    def test_convert_store_accepts_instance(self, tmp_path, tensor):
        from repro import convert_store

        src = FragmentStore(tmp_path / "src", tensor.shape, "LINEAR")
        src.write_tensor(tensor)
        dest = convert_store(src, tmp_path / "dst", get_format("CSF"))
        assert dest.format_name == "CSF"
        assert dest.read_points(tensor.coords[:5]).found.all()

    def test_bad_format_argument_raises(self, tmp_path):
        from repro.core.errors import FormatError

        with pytest.raises(FormatError):
            FragmentStore(tmp_path / "s", (4, 4), 123)

    def test_tuning_parameters_are_keyword_only(self, tmp_path):
        with pytest.raises(TypeError):
            FragmentStore(tmp_path / "s", (4, 4), "LINEAR", True)
        from repro import StreamingWriter

        store = FragmentStore(tmp_path / "ok", (4, 4), "LINEAR")
        with pytest.raises(TypeError):
            StreamingWriter(store, 100)
