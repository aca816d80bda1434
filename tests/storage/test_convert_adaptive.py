"""Unit tests for store conversion (``convert_store``)."""

import numpy as np
import pytest

from repro.core.errors import FragmentError
from repro.storage import FragmentStore
from repro.storage.convert import convert_store


class TestConvertStore:
    def test_round_trip_content(self, tmp_path, tensor_3d):
        src = FragmentStore(tmp_path / "src", tensor_3d.shape, "COO")
        half = tensor_3d.nnz // 2
        src.write(tensor_3d.coords[:half], tensor_3d.values[:half])
        src.write(tensor_3d.coords[half:], tensor_3d.values[half:])
        dest = convert_store(src, tmp_path / "dst", "CSF")
        assert len(dest.fragments) == 2
        assert all(f.format_name == "CSF" for f in dest.fragments)
        out = dest.read_points(tensor_3d.coords)
        assert out.found.all()
        assert np.allclose(out.values, tensor_3d.values)

    def test_source_untouched(self, tmp_path, tensor_2d):
        src = FragmentStore(tmp_path / "src", tensor_2d.shape, "LINEAR")
        src.write_tensor(tensor_2d)
        before = src.fragments[0].path.read_bytes()
        convert_store(src, tmp_path / "dst", "GCSR++")
        assert src.fragments[0].path.read_bytes() == before

    def test_compact_option(self, tmp_path, tensor_2d):
        src = FragmentStore(tmp_path / "src", tensor_2d.shape, "COO")
        src.write_tensor(tensor_2d)
        src.write_tensor(tensor_2d)  # duplicate content
        dest = convert_store(src, tmp_path / "dst", "LINEAR", compact=True)
        assert len(dest.fragments) == 1
        assert dest.nnz == tensor_2d.nnz  # dedup applied

    def test_codec_override(self, tmp_path, tensor_2d):
        src = FragmentStore(tmp_path / "src", tensor_2d.shape, "COO")
        src.write_tensor(tensor_2d)
        dest = convert_store(src, tmp_path / "dst", "LINEAR",
                             codec="delta-zlib")
        assert dest.codec == "delta-zlib"
        out = dest.read_points(tensor_2d.coords)
        assert out.found.all()

    def test_nonempty_destination_rejected(self, tmp_path, tensor_2d):
        src = FragmentStore(tmp_path / "src", tensor_2d.shape, "COO")
        src.write_tensor(tensor_2d)
        dest_dir = tmp_path / "dst"
        convert_store(src, dest_dir, "LINEAR")
        with pytest.raises(FragmentError, match="already contains"):
            convert_store(src, dest_dir, "CSF")

    def test_conversion_can_shrink(self, tmp_path, tensor_4d):
        """COO -> LINEAR drops the index footprint ~d-fold."""
        src = FragmentStore(tmp_path / "src", tensor_4d.shape, "COO")
        src.write_tensor(tensor_4d)
        dest = convert_store(src, tmp_path / "dst", "LINEAR")
        assert dest.total_file_nbytes < src.total_file_nbytes
