"""Ablation A9 — the orthogonal compression layer (paper §II practice).

"Common practice … is to choose a basic sparse organization first and then
apply compression algorithms to further reduce data size."  This bench
measures fragment bytes per codec per organization on the clustered 3D TSP
dataset, where delta-encoded sorted addresses deflate dramatically — and
checks that codec choice never changes query results.
"""

import numpy as np
import pytest

from repro.bench import render_table
from repro.storage import CODECS, FragmentStore, StoreOptions

from conftest import emit_report

FORMATS = ("COO", "LINEAR", "GCSR++", "CSF")


@pytest.fixture(scope="module")
def tensor(datasets):
    # Sorted input maximizes delta coherence for LINEAR's address vector.
    return datasets[(3, "TSP")].sorted_by_linear()


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("fmt_name", ("LINEAR", "CSF"))
def test_write_with_codec(benchmark, tmp_path_factory, tensor, fmt_name,
                          codec):
    def run():
        root = tmp_path_factory.mktemp("codec")
        store = FragmentStore(root, tensor.shape, fmt_name,
                              options=StoreOptions(codec=codec))
        return store.write_tensor(tensor)

    receipt = benchmark.pedantic(run, rounds=2, iterations=1)
    benchmark.extra_info["file_bytes"] = receipt.file_nbytes


def test_report_compression(benchmark, tmp_path_factory, tensor):
    def run():
        rows = []
        queries = tensor.coords[:64]
        for fmt_name in FORMATS:
            sizes = {}
            for codec in CODECS:
                root = tmp_path_factory.mktemp("rep")
                store = FragmentStore(root, tensor.shape, fmt_name,
                                      options=StoreOptions(codec=codec))
                receipt = store.write_tensor(tensor)
                sizes[codec] = receipt.file_nbytes
                out = store.read_points(queries)
                assert out.found.all()
                assert np.allclose(out.values, tensor.values[:64])
            rows.append(
                [fmt_name, sizes["raw"], sizes["zlib"], sizes["delta-zlib"],
                 round(sizes["raw"] / sizes["delta-zlib"], 2)]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = render_table(
        ["format", "raw B", "zlib B", "delta-zlib B", "raw/delta ratio"],
        rows,
        title="Ablation A9: fragment compression codecs (3D TSP, sorted input)",
    )
    emit_report("ablation_compression", text)
    by_fmt = {r[0]: r for r in rows}
    # Compression always helps; delta-zlib wins for address-style payloads.
    for fmt_name in FORMATS:
        assert by_fmt[fmt_name][3] < by_fmt[fmt_name][1]
    assert by_fmt["LINEAR"][3] <= by_fmt["LINEAR"][2]
