"""Unit tests for the fragment store (Algorithm 3 semantics)."""

import numpy as np
import pytest

from repro.core import Box, ShapeError, SparseTensor
from repro.storage import FragmentStore, ReadOptions, StoreOptions


@pytest.fixture
def store(tmp_path, tensor_3d):
    s = FragmentStore(tmp_path / "ds", tensor_3d.shape, "LINEAR")
    s.write_tensor(tensor_3d)
    return s


class TestWrite:
    def test_receipt_phases_and_sizes(self, tmp_path, tensor_3d):
        s = FragmentStore(tmp_path / "ds", tensor_3d.shape, "GCSR++")
        r = s.write_tensor(tensor_3d)
        assert r.build_seconds >= 0
        assert r.index_nbytes > 0
        assert r.value_nbytes == tensor_3d.nnz * 8
        assert r.file_nbytes > r.index_nbytes + r.value_nbytes  # + header/crc

    def test_fragments_accumulate(self, store, tensor_3d):
        store.write_tensor(tensor_3d)
        assert len(store.fragments) == 2
        assert store.nnz == 2 * tensor_3d.nnz

    def test_shape_mismatch(self, store):
        with pytest.raises(ShapeError):
            store.write_tensor(SparseTensor.empty((9, 9, 9)))

    def test_coords_values_misaligned(self, store):
        with pytest.raises(ShapeError):
            store.write(np.zeros((2, 3), dtype=np.uint64), np.zeros(3))


class TestManifest:
    def test_reload_from_manifest(self, tmp_path, tensor_3d):
        path = tmp_path / "ds"
        s1 = FragmentStore(path, tensor_3d.shape, "CSF")
        s1.write_tensor(tensor_3d)
        s2 = FragmentStore(path, tensor_3d.shape, "CSF")
        assert len(s2.fragments) == 1
        assert s2.fragments[0].nnz == tensor_3d.nnz

    def test_rescan_recovers_lost_manifest(self, tmp_path, tensor_3d):
        path = tmp_path / "ds"
        s1 = FragmentStore(path, tensor_3d.shape, "COO")
        s1.write_tensor(tensor_3d)
        (path / "manifest.json").unlink()
        s2 = FragmentStore(path, tensor_3d.shape, "COO")
        assert len(s2.fragments) == 1


class TestRead:
    def test_read_points_all_present(self, store, tensor_3d):
        out = store.read_points(tensor_3d.coords)
        assert out.found.all()
        assert np.allclose(out.values, tensor_3d.values)
        assert out.fragments_visited == 1

    def test_read_points_absent(self, store, tensor_3d):
        # A coordinate outside the bounding box is pruned without touching
        # the fragment.
        far = np.array([[19, 29, 39]], dtype=np.uint64)
        if store.fragments[0].bbox.contains_point((19, 29, 39)):
            pytest.skip("random tensor happened to cover the corner")
        out = store.read_points(far)
        assert not out.found.any()

    def test_read_box_merged_sorted(self, store, tensor_3d):
        box = Box((5, 5, 5), (10, 12, 14))
        got = store.read_box(box)
        want = tensor_3d.select_box(box).sorted_by_linear()
        assert got.same_points(want)
        addr = got.linear_addresses()
        assert np.all(addr[1:] >= addr[:-1])

    def test_read_box_whole_tensor(self, store, tensor_3d):
        """Box reads are structural: a box covering the whole tensor costs
        O(n), not O(cells), and returns everything."""
        got = store.read_box(Box((0, 0, 0), tensor_3d.shape))
        assert got.same_points(tensor_3d)

    def test_later_fragment_wins_on_duplicates(self, tmp_path):
        shape = (8, 8)
        s = FragmentStore(tmp_path / "ds", shape, "LINEAR")
        s.write(np.array([[1, 1]], dtype=np.uint64), np.array([1.0]))
        s.write(np.array([[1, 1]], dtype=np.uint64), np.array([2.0]))
        out = s.read_points(np.array([[1, 1]], dtype=np.uint64))
        assert out.found[0]
        assert out.values[0] == 2.0
        assert out.fragments_visited == 2

    def test_multi_fragment_merge(self, tmp_path, rng):
        shape = (32, 32)
        s = FragmentStore(tmp_path / "ds", shape, "GCSC++")
        # Two spatially disjoint fragments.
        left = np.column_stack(
            [rng.integers(0, 16, 40, dtype=np.uint64),
             rng.integers(0, 32, 40, dtype=np.uint64)]
        )
        right = left.copy()
        right[:, 0] += 16
        s.write(left, np.ones(40))
        s.write(right, 2 * np.ones(40))
        out = s.read_points(np.vstack([left, right]))
        assert out.found.all()
        # Box overlapping only the right half visits one fragment.
        probe = s.read_points(np.array([[20, 5]], dtype=np.uint64))
        assert probe.fragments_visited == 1

    def test_faithful_flag(self, store, tensor_3d):
        out = store.read_points(
            tensor_3d.coords[:20], options=ReadOptions(faithful=True)
        )
        assert out.found.all()

    def test_empty_query(self, store):
        out = store.read_points(np.empty((0, 3), dtype=np.uint64))
        assert out.found.shape == (0,)
        assert out.fragments_visited == 0


class TestRelativeCoords:
    def test_round_trip(self, tmp_path, tensor_3d):
        s = FragmentStore(
            tmp_path / "ds", tensor_3d.shape, "LINEAR",
            options=StoreOptions(relative_coords=True),
        )
        s.write_tensor(tensor_3d)
        out = s.read_points(tensor_3d.coords)
        assert out.found.all()
        assert np.allclose(out.values, tensor_3d.values)

    def test_relative_fragments_are_smaller_for_offset_clusters(self, tmp_path):
        # A cluster far from the origin: relative GCSR++ pointers are tiny.
        shape = (4096, 4096)
        coords = np.array(
            [[4000 + i, 4000 + j] for i in range(6) for j in range(6)],
            dtype=np.uint64,
        )
        values = np.ones(36)
        abs_store = FragmentStore(tmp_path / "abs", shape, "GCSR++")
        rel_store = FragmentStore(
            tmp_path / "rel", shape, "GCSR++",
            options=StoreOptions(relative_coords=True),
        )
        r_abs = abs_store.write(coords, values)
        r_rel = rel_store.write(coords, values)
        assert r_rel.index_nbytes < r_abs.index_nbytes
        out = rel_store.read_points(coords)
        assert out.found.all()


WIDE = (1 << 40, 1 << 40)  # 2^80 cells: no uint64 linear address


class TestWideShapes:
    """A shape whose cell count overflows uint64 is rejected up front by
    every organization that needs linear addresses; CSF stores it."""

    @pytest.mark.parametrize("fmt", [
        "COO", "COO-SORTED", "LINEAR", "GCSR++", "GCSC++", "HICOO",
    ])
    def test_linear_organizations_reject_at_construction(self, tmp_path, fmt):
        with pytest.raises(ShapeError, match="BlockedDataset"):
            FragmentStore(tmp_path / "ds", WIDE, fmt)
        assert not (tmp_path / "ds").exists()
        # Block-local coordinates fit: BlockedDataset's stores open.
        FragmentStore(tmp_path / "rel", WIDE, fmt,
                      options=StoreOptions(relative_coords=True))

    def test_csf_stores_it(self, tmp_path):
        from repro.storage import convert_store

        coords = np.array([[0, 1 << 39], [(1 << 40) - 1, 3]], dtype=np.uint64)
        s = FragmentStore(tmp_path / "ds", WIDE, "CSF")
        s.write(coords, np.array([1.0, 2.0]))
        assert s.read_points(coords).values.tolist() == [1.0, 2.0]
        for migrate in (lambda: s.migrate_fragment(0, "LINEAR"),
                        lambda: s.migrate_all("COO"),
                        lambda: convert_store(s, tmp_path / "out", "GCSR++")):
            with pytest.raises(ShapeError, match="BlockedDataset"):
                migrate()
        assert s.fragments[0].format_name == "CSF"
        assert not (tmp_path / "out").exists()


class TestRescanRobustness:
    """A rebuild from the fragment files (an open without
    ``manifest.json``, or ``store.fsck(repair=True)``) must survive
    torn/partial files (durability satellite)."""

    def seeded_store(self, tmp_path, tensor_3d):
        store = FragmentStore(tmp_path / "ds", tensor_3d.shape, "LINEAR")
        half = tensor_3d.nnz // 2
        store.write(tensor_3d.coords[:half], tensor_3d.values[:half])
        store.write(tensor_3d.coords[half:], tensor_3d.values[half:])
        return store

    def test_rescan_skips_tmp_files(self, tmp_path, tensor_3d):
        store = self.seeded_store(tmp_path, tensor_3d)
        (tmp_path / "ds" / "frag-000007.bin.tmp").write_bytes(b"\0" * 64)
        store.fsck(repair=True)
        assert len(store.fragments) == 2
        assert not (tmp_path / "ds" / "frag-000007.bin.tmp").exists()

    def test_rebuild_warns_and_quarantines_truncated_fragment(
        self, tmp_path, tensor_3d
    ):
        import warnings as _warnings

        store = self.seeded_store(tmp_path, tensor_3d)
        torn = store.fragments[1].path
        torn.write_bytes(torn.read_bytes()[:5])  # inside the magic/header
        store.close()
        (tmp_path / "ds" / "manifest.json").unlink()
        with pytest.warns(UserWarning, match=f"quarantined 1 .*{torn.name}"):
            rebuilt = FragmentStore(tmp_path / "ds", tensor_3d.shape, "LINEAR")
        assert len(rebuilt.fragments) == 1
        assert (tmp_path / "ds" / ".quarantine" / torn.name).exists()
        half = tensor_3d.nnz // 2
        out = rebuilt.read_points(tensor_3d.coords[:half])
        assert out.found.all()
        # The rebuilt manifest loads cleanly, and the torn file is gone
        # from the directory, so no orphan is left to warn about.
        with _warnings.catch_warnings():
            _warnings.simplefilter("error", UserWarning)
            reloaded = FragmentStore(
                tmp_path / "ds", tensor_3d.shape, "LINEAR"
            )
        assert len(reloaded.fragments) == 1
