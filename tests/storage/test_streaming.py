"""Unit tests for the streaming writer."""

import numpy as np
import pytest

from repro.core import ShapeError
from repro.storage import FragmentStore
from repro.storage.streaming import StreamingWriter


@pytest.fixture
def store(tmp_path):
    return FragmentStore(tmp_path / "ds", (64, 64), "LINEAR")


def chunk(rng, n):
    coords = np.column_stack(
        [rng.integers(0, 64, n, dtype=np.uint64) for _ in range(2)]
    )
    return coords, rng.standard_normal(n)


class TestStreamingWriter:
    def test_appends_are_durable_immediately(self, store, rng):
        coords, values = chunk(rng, 42)
        w = StreamingWriter(store, pack_points=1000)
        w.append(coords, values)
        # No fragment yet, but the points are already readable (WAL tail)
        # and survive a reopen without any flush.
        assert w.fragments_written == 0
        assert store.read_points(coords).found.all()
        reopened = FragmentStore(store.directory, (64, 64), "LINEAR")
        assert reopened.read_points(coords).found.all()

    def test_packs_at_budget(self, store, rng):
        w = StreamingWriter(store, pack_points=100)
        for _ in range(5):
            w.append(*chunk(rng, 30))
        # 150 points crossed the budget once -> one packed fragment.
        assert w.fragments_written == 1
        assert w.buffered_points == 150 - w.points_written

    def test_context_manager_packs_tail(self, store, rng):
        coords, values = chunk(rng, 42)
        with StreamingWriter(store, pack_points=1000) as w:
            w.append(coords, values)
            assert w.fragments_written == 0
        assert w.fragments_written == 1
        assert store.wal_stats()["points"] == 0
        out = store.read_points(coords)
        assert out.found.all()

    def test_everything_readable_after_close(self, store, rng):
        all_coords = []
        with StreamingWriter(store, pack_points=64) as w:
            for _ in range(10):
                c, v = chunk(rng, 25)
                all_coords.append(c)
                w.append(c, v)
        assert w.points_written == 250
        assert w.buffered_points == 0
        out = store.read_points(np.vstack(all_coords))
        assert out.found.all()

    def test_error_never_commits_a_fragment(self, store, rng):
        coords, values = chunk(rng, 10)
        with pytest.raises(RuntimeError):
            with pytest.warns(RuntimeWarning, match="unpacked"):
                with StreamingWriter(store, pack_points=1000) as w:
                    w.append(coords, values)
                    raise RuntimeError("producer died")
        assert w.fragments_written == 0
        assert len(store.fragments) == 0
        # The appended points survive in the WAL anyway.
        assert store.read_points(coords).found.all()

    def test_in_memory_mode_removed(self, store):
        # Every append goes through the write-ahead log.
        with pytest.raises(TypeError):
            StreamingWriter(store, durable=False)

    def test_empty_append_is_noop(self, store):
        w = StreamingWriter(store)
        w.append(np.empty((0, 2), dtype=np.uint64), np.empty(0))
        assert w.buffered_points == 0
        assert w.flush() is None

    def test_oversized_single_append(self, store, rng):
        w = StreamingWriter(store, pack_points=50)
        w.append(*chunk(rng, 500))
        assert w.fragments_written >= 1
        assert w.buffered_points == 0

    def test_validation(self, store, rng):
        w = StreamingWriter(store)
        with pytest.raises(ShapeError):
            w.append(np.zeros((2, 3), dtype=np.uint64), np.zeros(2))
        with pytest.raises(ShapeError):
            w.append(np.zeros((2, 2), dtype=np.uint64), np.zeros(3))
        with pytest.raises(ValueError):
            StreamingWriter(store, pack_points=0)
