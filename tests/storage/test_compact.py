"""Unit tests for fragment decode and store compaction."""

import json

import numpy as np
import pytest

from repro import obs
from repro.core import SparseTensor
from repro.core.errors import FragmentError
from repro.formats import available_formats
from repro.storage import AdaptiveStore, FragmentStore, StoreOptions


def counter_total(name: str) -> int:
    """Sum an obs counter across all label sets (0 when absent)."""
    return sum(
        c["value"] for c in obs.snapshot()["counters"] if c["name"] == name
    )


@pytest.fixture
def metered():
    was_enabled = obs.is_enabled()
    obs.enable()
    obs.reset()
    yield counter_total
    obs.reset()
    if not was_enabled:
        obs.disable()


def write_chunks(store, rng, n_chunks=3, n=80):
    """Write several overlapping chunks; returns the newest-wins overlay."""
    written = []
    for _ in range(n_chunks):
        coords = np.column_stack(
            [rng.integers(0, m, size=n, dtype=np.uint64)
             for m in store.shape]
        )
        chunk = SparseTensor(
            store.shape, coords, rng.standard_normal(n)
        ).deduplicated()
        store.write(chunk.coords, chunk.values)
        written.append(chunk)
    return SparseTensor(
        store.shape,
        np.vstack([t.coords for t in written]),
        np.concatenate([t.values for t in written]),
    ).deduplicated(keep="last")


def assert_strategies_bit_identical(tmp_path, fmt_name, relative, shape, n):
    """Merge and decode-and-rebuild compaction of four overlapping chunks
    of ``n`` shuffled points write byte-identical fragment files."""
    stores = {}
    for strategy in ("merge", "decode"):
        store = FragmentStore(
            tmp_path / strategy, shape, fmt_name,
            options=StoreOptions(relative_coords=relative),
        )
        chunk_rng = np.random.default_rng(99)
        write_chunks(store, chunk_rng, n_chunks=4, n=n)
        written = sum(f.nnz for f in store.fragments)
        store.compact(strategy=strategy)
        stores[strategy] = store
    merge_frag = stores["merge"].fragments[0]
    decode_frag = stores["decode"].fragments[0]
    assert merge_frag.nnz < written  # cross-chunk duplicates collapsed
    assert merge_frag.bbox == decode_frag.bbox
    assert merge_frag.nnz == decode_frag.nnz
    assert merge_frag.path.read_bytes() == decode_frag.path.read_bytes()


class TestDecodeFragment:
    @pytest.mark.parametrize("fmt_name", available_formats())
    def test_round_trip(self, tmp_path, tensor_3d, fmt_name):
        store = FragmentStore(tmp_path / "ds", tensor_3d.shape, fmt_name)
        store.write_tensor(tensor_3d)
        back = store.decode_fragment(0)
        assert back.same_points(tensor_3d)

    def test_relative_fragment_rebased(self, tmp_path):
        shape = (1000, 1000)
        coords = np.array([[900, 900], [905, 910]], dtype=np.uint64)
        store = FragmentStore(tmp_path / "ds", shape, "LINEAR",
                              options=StoreOptions(relative_coords=True))
        store.write(coords, np.array([1.0, 2.0]))
        back = store.decode_fragment(0)
        assert back.same_points(SparseTensor(shape, coords,
                                             np.array([1.0, 2.0])))


class TestCompact:
    def test_merges_to_single_fragment(self, tmp_path, tensor_3d):
        store = FragmentStore(tmp_path / "ds", tensor_3d.shape, "CSF")
        half = tensor_3d.nnz // 2
        store.write(tensor_3d.coords[:half], tensor_3d.values[:half])
        store.write(tensor_3d.coords[half:], tensor_3d.values[half:])
        assert len(store.fragments) == 2
        store.compact()
        assert len(store.fragments) == 1
        out = store.read_points(tensor_3d.coords)
        assert out.found.all()
        assert np.allclose(out.values, tensor_3d.values)

    def test_newest_wins_on_overlap(self, tmp_path):
        store = FragmentStore(tmp_path / "ds", (8, 8), "LINEAR")
        store.write(np.array([[1, 1], [2, 2]], dtype=np.uint64),
                    np.array([1.0, 2.0]))
        store.write(np.array([[1, 1]], dtype=np.uint64), np.array([9.0]))
        store.compact()
        assert store.nnz == 2  # duplicate collapsed
        out = store.read_points(np.array([[1, 1]], dtype=np.uint64))
        assert out.values[0] == 9.0

    def test_old_files_deleted(self, tmp_path, tensor_2d):
        store = FragmentStore(tmp_path / "ds", tensor_2d.shape, "COO")
        store.write_tensor(tensor_2d)
        store.write_tensor(tensor_2d)
        store.compact()
        frag_files = list((tmp_path / "ds").glob("frag-*.bin"))
        assert len(frag_files) == 1

    def test_survives_reload(self, tmp_path, tensor_2d):
        store = FragmentStore(tmp_path / "ds", tensor_2d.shape, "GCSC++")
        store.write_tensor(tensor_2d)
        store.write_tensor(tensor_2d)
        store.compact()
        reloaded = FragmentStore(tmp_path / "ds", tensor_2d.shape, "GCSC++")
        assert len(reloaded.fragments) == 1
        out = reloaded.read_points(tensor_2d.coords)
        assert out.found.all()

    def test_empty_store_rejected(self, tmp_path):
        store = FragmentStore(tmp_path / "ds", (4, 4), "COO")
        with pytest.raises(FragmentError, match="nothing to compact"):
            store.compact()

    def test_compact_with_relative_coords(self, tmp_path):
        shape = (512, 512)
        store = FragmentStore(tmp_path / "ds", shape, "LINEAR",
                              options=StoreOptions(relative_coords=True))
        a = np.array([[10, 10], [20, 20]], dtype=np.uint64)
        b = np.array([[400, 400]], dtype=np.uint64)
        store.write(a, np.array([1.0, 2.0]))
        store.write(b, np.array([3.0]))
        store.compact()
        out = store.read_points(np.vstack([a, b]))
        assert out.found.all()
        assert sorted(out.values.tolist()) == [1.0, 2.0, 3.0]

    def test_unknown_strategy_rejected(self, tmp_path):
        store = FragmentStore(tmp_path / "ds", (4, 4), "COO")
        store.write(np.array([[1, 1]], dtype=np.uint64), np.array([1.0]))
        with pytest.raises(ValueError, match="strategy"):
            store.compact(strategy="vacuum")


class TestMergeCompaction:
    """The merge strategy vs the legacy decode-and-rebuild strategy."""

    @pytest.mark.parametrize("fmt_name", available_formats())
    @pytest.mark.parametrize("relative", [False, True])
    def test_bit_identical_to_decode_rebuild(self, tmp_path, rng,
                                             fmt_name, relative):
        """Both strategies must produce byte-identical fragment files."""
        assert_strategies_bit_identical(
            tmp_path, fmt_name, relative, (17, 9, 11), n=120
        )

    @pytest.mark.parametrize("fmt_name", available_formats())
    @pytest.mark.parametrize("relative", [False, True])
    def test_bit_identical_above_packed_sort_cutover(
        self, tmp_path, fmt_name, relative, packed_sort_calls
    ):
        """The same at a size where the merge's survivor re-sort and the
        decode strategy's canonical sort take the packed kernel."""
        assert_strategies_bit_identical(
            tmp_path, fmt_name, relative, (64, 64, 64), n=3000
        )
        assert packed_sort_calls, "no sort reached the packed kernel"

    def test_merge_performs_zero_full_decodes(self, tmp_path, rng, metered):
        """Acceptance criterion: merge compaction never reconstructs a
        full tensor from any fragment."""
        store = FragmentStore(tmp_path / "ds", (20, 20, 20), "LINEAR")
        overlay = write_chunks(store, rng, n_chunks=4)
        obs.reset()
        store.compact(strategy="merge")
        assert counter_total("store.full_tensor_decodes") == 0
        assert counter_total("build.merge.runs") == 4
        out = store.read_points(overlay.coords)
        assert out.found.all()
        np.testing.assert_array_equal(out.values, overlay.values)

    def test_decode_strategy_does_decode(self, tmp_path, rng, metered):
        store = FragmentStore(tmp_path / "ds", (20, 20, 20), "CSF")
        write_chunks(store, rng, n_chunks=3)
        obs.reset()
        store.compact(strategy="decode")
        assert counter_total("store.full_tensor_decodes") == 3

    def test_merge_is_default_strategy(self, tmp_path, rng, metered):
        store = FragmentStore(tmp_path / "ds", (20, 20, 20), "GCSR++")
        write_chunks(store, rng, n_chunks=3)
        obs.reset()
        store.compact()
        assert counter_total("store.full_tensor_decodes") == 0
        assert counter_total("build.merge.runs") == 3


class TestCodecPreservedOnCompact:
    """Regression: compact() used to silently rewrite with the default
    codec when a store was reopened without repeating ``codec=``."""

    def test_reopen_adopts_manifest_codec(self, tmp_path, tensor_2d):
        store = FragmentStore(tmp_path / "ds", tensor_2d.shape, "LINEAR",
                              options=StoreOptions(codec="zlib"))
        store.write_tensor(tensor_2d)
        reopened = FragmentStore(tmp_path / "ds", tensor_2d.shape, "LINEAR")
        assert reopened.codec == "zlib"

    @pytest.mark.parametrize("strategy", ["merge", "decode"])
    def test_compact_after_reopen_keeps_codec(self, tmp_path, tensor_2d,
                                              strategy):
        store = FragmentStore(tmp_path / "ds", tensor_2d.shape, "LINEAR",
                              options=StoreOptions(codec="zlib"))
        half = tensor_2d.nnz // 2
        store.write(tensor_2d.coords[:half], tensor_2d.values[:half])
        store.write(tensor_2d.coords[half:], tensor_2d.values[half:])
        reopened = FragmentStore(tmp_path / "ds", tensor_2d.shape, "LINEAR")
        reopened.compact(strategy=strategy)
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        assert manifest["codec"] == "zlib"
        assert reopened.codec == "zlib"
        out = reopened.read_points(tensor_2d.coords)
        assert out.found.all()
        np.testing.assert_array_equal(out.values, tensor_2d.values)

    def test_mixed_format_adaptive_store_compacts(self, tmp_path, rng,
                                                  metered):
        """An adaptive store whose fragments use different formats must
        merge-compact without decoding and re-pick the format."""
        shape = (30, 30, 30)
        store = AdaptiveStore(tmp_path / "ds", shape,
                              options=StoreOptions(codec="zlib"))
        overlay = write_chunks(store, rng, n_chunks=4, n=200)
        formats_before = {f.format_name for f in store.fragments}
        obs.reset()
        store.compact(strategy="merge")
        assert counter_total("store.full_tensor_decodes") == 0
        assert len(store.fragments) == 1
        assert store.codec == "zlib"
        assert store.fragments[0].format_name in (
            formats_before | set(available_formats())
        )
        out = store.read_points(overlay.coords)
        assert out.found.all()
        np.testing.assert_array_equal(out.values, overlay.values)
