"""Unit tests for parallel fragment packaging and write_many."""

import numpy as np
import pytest

from repro.core import Box, ShapeError
from repro.storage import FragmentStore, StoreOptions
from repro.storage.parallel import pack_part, pack_parts_parallel


def split_parts(tensor, k):
    """Split a tensor's points into k round-robin parts."""
    parts = []
    for i in range(k):
        sel = slice(i, None, k)
        parts.append((tensor.coords[sel], tensor.values[sel]))
    return parts


class TestPackPart:
    def test_blob_is_valid_fragment(self, tensor_3d):
        from repro.storage import unpack_fragment

        item = pack_part(tensor_3d.shape, "GCSR++", "raw", False,
                         tensor_3d.coords, tensor_3d.values)
        payload = unpack_fragment(item.blob)
        assert payload.format_name == "GCSR++"
        assert payload.nnz == tensor_3d.nnz
        assert item.index_nbytes > 0

    def test_relative_mode(self):
        coords = np.array([[100, 100], [110, 120]], dtype=np.uint64)
        item = pack_part((1024, 1024), "LINEAR", "raw", True,
                         coords, np.array([1.0, 2.0]))
        assert item.bbox_origin == (100, 100)

    def test_misaligned_rejected(self):
        with pytest.raises(ShapeError):
            pack_part((4, 4), "COO", "raw", False,
                      np.zeros((2, 2), dtype=np.uint64), np.zeros(3))


class TestPackParallel:
    def test_inline_and_pooled_agree(self, tensor_3d):
        parts = split_parts(tensor_3d, 4)
        inline = pack_parts_parallel(
            tensor_3d.shape, "LINEAR", parts, max_workers=0
        )
        pooled = pack_parts_parallel(
            tensor_3d.shape, "LINEAR", parts, max_workers=2
        )
        assert len(inline) == len(pooled) == 4
        for a, b in zip(inline, pooled):
            assert a.blob == b.blob  # deterministic, order-preserving

    def test_single_part_runs_inline(self, tensor_2d):
        out = pack_parts_parallel(
            tensor_2d.shape, "CSF",
            [(tensor_2d.coords, tensor_2d.values)],
        )
        assert len(out) == 1


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
            a = (tmp_path / "a" / f"frag-{i:06d}.bin").read_bytes()
            b = (tmp_path / "b" / f"frag-{i:06d}.bin").read_bytes()
            assert a == b

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


class TestWorkerErrorPropagation:
    """A failing part surfaces as WorkerError naming the part index, for
    every executor, and a partial batch commits nothing."""

    def bad_parts(self, tensor):
        parts = split_parts(tensor, 3)
        c, v = parts[1]
        parts[1] = (c, v[:-1])  # misaligned: fails inside pack_part
        return parts

    @pytest.mark.parametrize("executor,max_workers", [
        ("process", 2),
        ("thread", 2),
        ("process", 0),  # inline path
    ])
    def test_worker_error_carries_part_index(self, tensor_3d, executor,
                                             max_workers):
        from repro.core import WorkerError

        with pytest.raises(WorkerError) as ei:
            pack_parts_parallel(
                tensor_3d.shape, "LINEAR", self.bad_parts(tensor_3d),
                max_workers=max_workers, executor=executor,
            )
        assert ei.value.part_index == 1
        assert "part 1" in str(ei.value)

    def test_write_many_commits_nothing_on_failure(self, tmp_path,
                                                   tensor_3d):
        from repro.core import WorkerError

        store = FragmentStore(tmp_path / "ds", tensor_3d.shape, "LINEAR")
        with pytest.raises(WorkerError):
            store.write_many(self.bad_parts(tensor_3d), max_workers=2,
                             executor="thread")
        assert len(store.fragments) == 0
        assert not list((tmp_path / "ds").glob("frag-*.bin"))
        # The store still works after the failed batch.
        store.write_many(split_parts(tensor_3d, 3), max_workers=0)
        assert len(store.fragments) == 3
