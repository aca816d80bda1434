"""Unit tests for write_many: a batch of writes through write's own path."""

import numpy as np
import pytest

from repro.core import ShapeError, WorkerError
from repro.storage import FragmentStore, StoreOptions
from repro.storage.serialization import unpack_header


def unmarked(path):
    """A fragment file as a loop of ``write`` writes it: the header
    without the ``commit_end`` marker each file of a multi-file commit
    carries, and the payload bytes after it (the trailing CRC covers the
    header, so it is left out)."""
    blob = path.read_bytes()
    header, offset = unpack_header(blob)
    header["extra"].pop("commit_end", None)
    return header, blob[offset:-4]


def split_parts(tensor, k):
    """Split a tensor's points into k round-robin parts."""
    parts = []
    for i in range(k):
        sel = slice(i, None, k)
        parts.append((tensor.coords[sel], tensor.values[sel]))
    return parts


SHAPE = (20, 30, 40)

#: One store per kind write_many must reproduce; each is built twice,
#: once for a loop of ``write`` and once for ``write_many``.
STORE_KINDS = {
    "row_major": lambda d: FragmentStore(d, SHAPE, "GCSR++"),
    "alto": lambda d: FragmentStore(
        d, SHAPE, "LINEAR", options=StoreOptions(addr_order="alto")
    ),
    "relative": lambda d: FragmentStore(
        d, SHAPE, "CSF", options=StoreOptions(relative_coords=True)
    ),
    "cascade": lambda d: FragmentStore(
        d, SHAPE, "LINEAR", options=StoreOptions(codec="cascade")
    ),
}


def mixed_parts():
    """A dense block, scattered points (duplicates likely), and a shifted
    partial block."""
    rng = np.random.default_rng(0)
    block = np.indices((6, 6, 6)).reshape(3, -1).T.astype(np.uint64)
    scattered = np.column_stack([
        rng.integers(0, m, 300, dtype=np.uint64) for m in SHAPE
    ])
    shifted = block[:40] + np.uint64(10)
    return [
        (coords, rng.random(coords.shape[0]))
        for coords in (block, scattered, shifted)
    ]


class TestWriteMany:
    def test_equivalent_to_sequential(self, tmp_path, tensor_3d):
        parts = split_parts(tensor_3d, 3)
        seq_store = FragmentStore(tmp_path / "seq", tensor_3d.shape, "CSF")
        for c, v in parts:
            seq_store.write(c, v)
        par_store = FragmentStore(tmp_path / "par", tensor_3d.shape, "CSF")
        infos = par_store.write_many(parts, max_workers=2)
        assert len(infos) == 3
        assert par_store.nnz == seq_store.nnz
        out = par_store.read_points(tensor_3d.coords)
        assert out.found.all()
        assert np.allclose(out.values, tensor_3d.values)

    def test_fragment_files_identical_to_sequential(self, tmp_path,
                                                    tensor_2d):
        parts = split_parts(tensor_2d, 2)
        seq = FragmentStore(tmp_path / "a", tensor_2d.shape, "GCSR++")
        for c, v in parts:
            seq.write(c, v)
        par = FragmentStore(tmp_path / "b", tensor_2d.shape, "GCSR++")
        par.write_many(parts, max_workers=2)
        for i in range(2):
            a = unmarked(tmp_path / "a" / f"frag-{i:06d}.bin")
            b = unmarked(tmp_path / "b" / f"frag-{i:06d}.bin")
            assert a == b

    @pytest.mark.parametrize("max_workers", [0, 2])
    @pytest.mark.parametrize("kind", sorted(STORE_KINDS))
    def test_matches_write_loop(self, tmp_path, kind, max_workers):
        parts = mixed_parts()
        loop = STORE_KINDS[kind](tmp_path / "loop")
        for c, v in parts:
            loop.write(c, v)
        batch = STORE_KINDS[kind](tmp_path / "batch")
        infos = batch.write_many(parts, max_workers=max_workers)
        assert list(batch.fragments) == infos
        assert len(infos) == len(loop.fragments) == len(parts)
        for a, b in zip(loop.fragments, infos):
            assert a.path.name == b.path.name
            assert unmarked(a.path) == unmarked(b.path)
            assert b.format_name == a.format_name
            assert b.addr_order == a.addr_order == batch.addr_order
            assert b.zone.to_json() == a.zone.to_json()
            assert (b.bbox, b.codecs) == (a.bbox, a.codecs)
        reopened = STORE_KINDS[kind](tmp_path / "batch")
        for c, v in parts:
            out = reopened.read_points(c)
            assert out.found.all()

    def test_with_codec_and_relative(self, tmp_path, tensor_3d):
        store = FragmentStore(
            tmp_path / "ds", tensor_3d.shape, "LINEAR",
            options=StoreOptions(relative_coords=True, codec="delta-zlib"),
        )
        store.write_many(split_parts(tensor_3d, 3), max_workers=2)
        out = store.read_points(tensor_3d.coords)
        assert out.found.all()

    def test_manifest_persisted(self, tmp_path, tensor_2d):
        store = FragmentStore(tmp_path / "ds", tensor_2d.shape, "COO")
        store.write_many(split_parts(tensor_2d, 2), max_workers=0)
        reloaded = FragmentStore(tmp_path / "ds", tensor_2d.shape, "COO")
        assert len(reloaded.fragments) == 2

    def test_one_manifest_commit(self, tmp_path, tensor_3d):
        store = FragmentStore(tmp_path / "ds", tensor_3d.shape, "LINEAR")
        before = store.generation
        store.write_many(split_parts(tensor_3d, 4), max_workers=2)
        assert store.generation == before + 1

    def test_inline_and_pooled_agree(self, tmp_path, tensor_3d):
        parts = split_parts(tensor_3d, 4)
        blobs = {}
        for workers in (0, 2):
            store = FragmentStore(
                tmp_path / str(workers), tensor_3d.shape, "LINEAR"
            )
            store.write_many(parts, max_workers=workers)
            blobs[workers] = [f.path.read_bytes() for f in store.fragments]
        assert len(blobs[0]) == 4
        assert blobs[0] == blobs[2]  # deterministic, order-preserving

    def test_single_part_runs_inline(self, tmp_path, tensor_2d,
                                     monkeypatch):
        import repro.storage.store as store_mod

        def no_pool(*args, **kwargs):
            raise AssertionError("packaged on the pool")

        monkeypatch.setattr(store_mod, "map_fragments_ordered", no_pool)
        store = FragmentStore(tmp_path / "ds", tensor_2d.shape, "CSF")
        store.write_many([(tensor_2d.coords, tensor_2d.values)])
        store.write_many(split_parts(tensor_2d, 3), max_workers=0)
        assert len(store.fragments) == 4

    def test_relative_mode(self, tmp_path):
        store = FragmentStore(
            tmp_path / "ds", (1024, 1024), "LINEAR",
            options=StoreOptions(relative_coords=True),
        )
        coords = np.array([[100, 100], [110, 120]], dtype=np.uint64)
        infos = store.write_many(
            [(coords, np.array([1.0, 2.0])), (coords + 1, np.ones(2))],
            max_workers=2,
        )
        assert infos[0].bbox.origin == (100, 100)
        assert infos[0].shape == (11, 21)  # stored against its own box
        assert infos[1].bbox.origin == (101, 101)

    def test_misaligned_rejected(self, tmp_path):
        store = FragmentStore(tmp_path / "ds", (4, 4), "COO")
        with pytest.raises(WorkerError) as ei:
            store.write_many(
                [(np.zeros((2, 2), dtype=np.uint64), np.zeros(3))]
            )
        assert ei.value.part_index == 0
        assert isinstance(ei.value.__cause__, ShapeError)

    def test_concurrent_parts_lose_no_update(self, tmp_path):
        """Pool threads share the metrics registry; with more workers
        than cores and a short switch interval, no part's record may be
        lost."""
        import sys

        from repro import obs

        rng = np.random.default_rng(3)
        parts = [
            (np.column_stack([
                rng.integers(0, m, 200, dtype=np.uint64) for m in SHAPE
            ]), rng.random(200))
            for _ in range(24)
        ]
        store = FragmentStore(tmp_path / "ds", SHAPE, "LINEAR")
        was_enabled, interval = obs.is_enabled(), sys.getswitchinterval()
        obs.enable()
        obs.reset()
        sys.setswitchinterval(1e-6)
        try:
            infos = store.write_many(parts, max_workers=8)
        finally:
            sys.setswitchinterval(interval)
            if not was_enabled:
                obs.disable()
        assert len(infos) == 24
        calls = sum(
            c["value"] for c in obs.snapshot()["counters"]
            if c["name"] == "store.write.calls"
        )
        assert calls == 24

    def test_executor_keyword_rejected(self, tmp_path, tensor_2d):
        store = FragmentStore(tmp_path / "ds", tensor_2d.shape, "COO")
        with pytest.raises(TypeError):
            store.write_many(split_parts(tensor_2d, 2), executor="thread")
        assert len(store.fragments) == 0


class TestWorkerErrorPropagation:
    """A failing part surfaces as WorkerError naming the part index, on
    the pool and inline, and a partial batch commits nothing."""

    def bad_parts(self, tensor):
        parts = split_parts(tensor, 3)
        c, v = parts[1]
        parts[1] = (c, v[:-1])  # misaligned: fails inside packaging
        return parts

    @pytest.mark.parametrize("max_workers", [2, 0])  # pool, inline
    def test_worker_error_carries_part_index(self, tmp_path, tensor_3d,
                                             max_workers):
        store = FragmentStore(tmp_path / "ds", tensor_3d.shape, "LINEAR")
        with pytest.raises(WorkerError) as ei:
            store.write_many(
                self.bad_parts(tensor_3d), max_workers=max_workers
            )
        assert ei.value.part_index == 1
        assert "part 1" in str(ei.value)
        assert isinstance(ei.value.__cause__, ShapeError)

    def test_write_many_commits_nothing_on_failure(self, tmp_path,
                                                   tensor_3d):
        store = FragmentStore(tmp_path / "ds", tensor_3d.shape, "LINEAR")
        with pytest.raises(WorkerError):
            store.write_many(self.bad_parts(tensor_3d), max_workers=2)
        assert len(store.fragments) == 0
        assert not list((tmp_path / "ds").glob("frag-*.bin"))
        # The store still works after the failed batch.
        store.write_many(split_parts(tensor_3d, 3), max_workers=0)
        assert len(store.fragments) == 3
