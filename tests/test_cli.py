"""End-to-end tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main


class TestFormats:
    def test_lists_all(self, capsys):
        assert main(["formats"]) == 0
        out = capsys.readouterr().out
        for name in ("COO", "LINEAR", "GCSR++", "GCSC++", "CSF", "HICOO"):
            assert name in out

    def test_paper_only(self, capsys):
        main(["formats", "--paper-only"])
        out = capsys.readouterr().out
        assert "HICOO" not in out


class TestGenerateEncodeInfo:
    def test_pipeline(self, tmp_path, capsys):
        npz = tmp_path / "data.npz"
        store = tmp_path / "store"
        assert main(["generate", "GSP", "32", "32", "-o", str(npz),
                     "--seed", "1"]) == 0
        assert npz.exists()
        assert main(["encode", str(npz), str(store), "-f", "CSF"]) == 0
        assert (store / "frag-000000.bin").exists()
        assert main(["info", str(store)]) == 0
        out = capsys.readouterr().out
        assert "frag-000000.bin" in out
        assert "CSF" in out

    def test_banded_store_opens_from_its_manifest(self, tmp_path, capsys):
        """``encode --shards`` writes one banded store; ``info``,
        ``stats --shards`` and ``fsck`` open it from its manifest."""
        npz = tmp_path / "data.npz"
        store = tmp_path / "store"
        main(["generate", "GSP", "32", "32", "-o", str(npz), "--seed", "1"])
        assert main(["encode", str(npz), str(store), "--shards", "4"]) == 0
        assert main(["info", str(store)]) == 0
        assert main(["stats", "--store", str(store), "--shards"]) == 0
        out = capsys.readouterr().out
        assert "band-0003" in out and "address band" in out
        assert main(["fsck", str(store)]) == 0

    def test_generated_npz_is_loadable(self, tmp_path):
        npz = tmp_path / "d.npz"
        main(["generate", "TSP", "64", "64", "-o", str(npz)])
        with np.load(npz) as data:
            assert data["coords"].shape[1] == 2
            assert data["coords"].shape[0] == data["values"].shape[0]

    def test_encode_with_codec(self, tmp_path, capsys):
        npz = tmp_path / "d.npz"
        main(["generate", "MSP", "64", "64", "-o", str(npz)])
        assert main(["encode", str(npz), str(tmp_path / "s"),
                     "--codec", "delta-zlib"]) == 0


class TestAdvise:
    def test_recommends(self, tmp_path, capsys):
        npz = tmp_path / "d.npz"
        main(["generate", "GSP", "48", "48", "48", "-o", str(npz)])
        assert main(["advise", str(npz), "-w", "analytical"]) == 0
        out = capsys.readouterr().out
        assert "recommendation:" in out
        assert "COO" in out  # full ranking shown

    def test_workload_choices_enforced(self):
        with pytest.raises(SystemExit):
            main(["advise", "x.npz", "-w", "chaotic"])


class TestRemovedCommands:
    """The migration loop's commands are gone; argparse rejects them."""

    def test_migrate_is_an_argparse_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["migrate", str(tmp_path), "--to", "COO"])
        assert exc.value.code == 2

    def test_stats_migration_is_an_argparse_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--migration"])
        assert exc.value.code == 2


class TestExperiment:
    def test_runs_table2(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        assert main(["experiment", "table2", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig9"])


class TestFsck:
    def encoded_store(self, tmp_path):
        npz = tmp_path / "d.npz"
        store = tmp_path / "store"
        main(["generate", "GSP", "32", "32", "-o", str(npz), "--seed", "2"])
        main(["encode", str(npz), str(store)])
        return store

    def test_clean_store_exits_zero(self, tmp_path, capsys):
        store = self.encoded_store(tmp_path)
        capsys.readouterr()  # drain generate/encode output
        assert main(["fsck", str(store)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_corrupt_store_exits_nonzero(self, tmp_path, capsys):
        store = self.encoded_store(tmp_path)
        frag = store / "frag-000000.bin"
        blob = bytearray(frag.read_bytes())
        blob[-10] ^= 0xFF
        frag.write_bytes(bytes(blob))
        assert main(["fsck", str(store)]) == 1
        out = capsys.readouterr().out
        assert "corrupt" in out
        assert "frag-000000.bin" in out

    def test_repair_quarantines_and_exits_zero(self, tmp_path, capsys):
        store = self.encoded_store(tmp_path)
        frag = store / "frag-000000.bin"
        blob = bytearray(frag.read_bytes())
        blob[-10] ^= 0xFF
        frag.write_bytes(bytes(blob))
        assert main(["fsck", str(store), "--repair"]) == 0
        assert "quarantined" in capsys.readouterr().out
        assert (store / ".quarantine" / "frag-000000.bin").exists()
        # A second pass is clean.
        assert main(["fsck", str(store)]) == 0

    def test_json_output_parses(self, tmp_path, capsys):
        import json

        store = self.encoded_store(tmp_path)
        capsys.readouterr()  # drain generate/encode output
        assert main(["fsck", str(store), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["checked"] >= 1
