"""Microbench: cascaded codec bytes-on-disk vs read time, per pattern.

The cascade's claim is about the address buffers: canonically sorted
linear addresses delta down to a few bits per point, so a
``codec="cascade"`` store should put dramatically fewer bytes on disk
than ``raw`` while reads stay bit-identical and close in time.  The
interesting axis is the input distribution, so this bench sweeps the
paper's three patterns:

* **TSP** — banded/clustered occupancy: tiny deltas, the cascade's
  best case (the asserted floor lives here);
* **GSP** — uniform random occupancy: larger, noisier deltas;
* **MSP** — mixed background + dense region.

Each tensor is ingested twice.  **Canonically sorted**
(``sorted_by_linear``): for every pattern x codec cell we record bytes
on disk and a timed point-read pass, giving the size-vs-read-time
Pareto.  **In arrival order** (the rows shuffled) — how the paper's
LINEAR format keeps its addresses, and how a store's LINEAR and GCSR++
``col_ind`` buffers arrive: every delta then wraps to the full word, so
the delta stages lose and the cascade packs each address at the width
of the buffer's range (``for``); the arrival cells record, per codec,
the address buffer's stored chain, its bytes, and the time to decode it
(best of ``DECODE_REPEATS``).  The PR-facing claim, asserted standalone and
in the tier-1 smoke (``tests/bench/test_compression_cascade.py``): on
sorted TSP addresses the cascade puts at least ``MIN_SIZE_REDUCTION``x
fewer address-buffer bytes on disk than raw (the per-buffer sizes come
straight from the fragment header; the whole-fragment ratio is also
reported but is values-dominated — incompressible random floats cap it
at 2x by construction).  The mechanism is bit-width, not timing, so
the floor is jitter-free and identical in the smoke.

Runs standalone (``python benchmarks/bench_compression_cascade.py``)
and in the tier-1 suite at smoke sizes.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.patterns import GSPPattern, MSPPattern, TSPPattern
from repro.storage import FragmentStore, StoreOptions, unpack_header
from repro.storage.compression import decode_buffer

#: The PR-facing claim: encoded bytes on sorted TSP addresses.
MIN_SIZE_REDUCTION = 2.0
#: Same floor in the smoke — bit-width is deterministic, unlike timing.
MIN_SIZE_REDUCTION_SMOKE = 2.0

CODECS = ("raw", "zlib", "cascade")
#: Decodes timed per arrival-order cell; the cell keeps the fastest.
DECODE_REPEATS = 50


def make_patterns(side: int, seed: int = 0):
    """(name, canonically sorted tensor) for the paper's three patterns."""
    shape = (side, side)
    gens = [
        TSPPattern(shape, band_width=4),
        GSPPattern(shape, threshold=0.99),
        MSPPattern(shape),
    ]
    return [(g.name, g.generate(seed).sorted_by_linear()) for g in gens]


def _address_buffer(store) -> tuple[dict, bytes]:
    """The header entry and stored bytes of a LINEAR fragment's
    ``addresses`` buffer (its first and only index buffer)."""
    data = store.fragments[0].path.read_bytes()
    header, offset = unpack_header(data)
    entry = header["buffers"][0]
    assert entry["name"] == "addresses", entry
    return entry, data[offset:offset + entry["nbytes"]]


def _arrival_cells(tmp: Path, name: str, tensor) -> dict:
    """Per codec: the arrival-order address buffer's chain, bytes and
    best-of-``DECODE_REPEATS`` decode time."""
    order = np.random.default_rng(2).permutation(tensor.nnz)
    arrival = type(tensor)(
        coords=tensor.coords[order], values=tensor.values[order],
        shape=tensor.shape,
    )
    cells = {}
    for codec in CODECS:
        store = FragmentStore(
            tmp / f"arrival-{name}-{codec}", tensor.shape, "LINEAR",
            options=StoreOptions(codec=codec),
        )
        store.write_tensor(arrival)
        entry, blob = _address_buffer(store)
        dtype, count = np.dtype(entry["dtype"]), entry["shape"][0]
        times = []
        for _ in range(DECODE_REPEATS):
            t0 = time.perf_counter()
            decode_buffer(blob, entry["codec"], dtype, count)
            times.append(time.perf_counter() - t0)
        cells[f"{name}/{codec}"] = {
            "chain": entry["codec"],
            "addr_nbytes": int(entry["nbytes"]),
            "decode_us": min(times) * 1e6,
        }
    return cells


def bench_compression(
    side: int = 1024,
    n_queries: int = 20_000,
) -> dict:
    """Sweep pattern x codec; returns per-cell bytes + read times.

    Headline ``size_reduction`` is the TSP address buffer's raw bytes
    over its cascade-encoded bytes; ``total_reduction`` is the whole-
    fragment ratio.  ``read_penalty`` (cascade point-read time over
    raw's) completes the Pareto — informational, no floor, since
    decode cost is dwarfed by fewer bytes off disk on any real PFS.
    ``arrival_cells`` hold the arrival-order address buffers;
    ``arrival_zlib_over_cascade`` is the smallest, over the patterns,
    of their ``zlib`` bytes over their ``cascade`` bytes.
    """
    tmp = Path(tempfile.mkdtemp(prefix="bench-compression-"))
    was_enabled = obs.is_enabled()
    try:
        obs.disable()
        cells = {}
        arrival = {}
        for name, tensor in make_patterns(side):
            arrival.update(_arrival_cells(tmp, name, tensor))
            rng = np.random.default_rng(1)
            sample = tensor.coords[
                rng.choice(tensor.nnz, size=min(n_queries, tensor.nnz),
                           replace=False)
            ]
            baseline = None
            for codec in CODECS:
                store = FragmentStore(
                    tmp / f"{name}-{codec}", tensor.shape, "LINEAR",
                    options=StoreOptions(codec=codec),
                )
                store.write_tensor(tensor)
                stats = store.compression_stats()
                t0 = time.perf_counter()
                out = store.read_points(sample)
                read_time = time.perf_counter() - t0
                assert out.found.all()
                if baseline is None:
                    baseline = out.values
                else:  # reads must be bit-identical across codecs
                    assert np.array_equal(out.values, baseline)
                cells[f"{name}/{codec}"] = {
                    "encoded_nbytes": stats["encoded_nbytes"],
                    "raw_nbytes": stats["raw_nbytes"],
                    "file_nbytes": stats["file_nbytes"],
                    "addr_nbytes": int(_address_buffer(store)[0]["nbytes"]),
                    "read_time": read_time,
                    "by_codec": stats["by_codec"],
                }
        tsp_raw = cells["TSP/raw"]
        tsp_cascade = cells["TSP/cascade"]
        return {
            "size_reduction": (
                tsp_raw["addr_nbytes"] / tsp_cascade["addr_nbytes"]
            ),
            "total_reduction": (
                tsp_raw["encoded_nbytes"] / tsp_cascade["encoded_nbytes"]
            ),
            "read_penalty": (
                tsp_cascade["read_time"] / max(tsp_raw["read_time"], 1e-9)
            ),
            "arrival_zlib_over_cascade": min(
                arrival[f"{name}/zlib"]["addr_nbytes"]
                / arrival[f"{name}/cascade"]["addr_nbytes"]
                for name in ("TSP", "GSP", "MSP")
            ),
            "side": side,
            "cells": cells,
            "arrival_cells": arrival,
        }
    finally:
        if was_enabled:
            obs.enable()
        shutil.rmtree(tmp, ignore_errors=True)


def assert_reduction_ok(metrics: dict, floor: float) -> None:
    reduction = metrics["size_reduction"]
    assert reduction >= floor, (
        f"cascade address buffer only {reduction:.2f}x smaller than raw "
        f"on sorted TSP at side={metrics['side']} (floor {floor}x)"
    )


def main() -> None:
    result = bench_compression()
    print(f"pattern x codec at side={result['side']} "
          "(canonically sorted ingest):")
    for key, cell in result["cells"].items():
        print(f"  {key:14s} {cell['encoded_nbytes']:>12,} B encoded"
              f"  (addresses {cell['addr_nbytes']:>10,} B)"
              f"  read {cell['read_time'] * 1e3:7.1f} ms")
    print(f"TSP address reduction: {result['size_reduction']:.1f}x, "
          f"whole fragment {result['total_reduction']:.2f}x "
          f"(read penalty {result['read_penalty']:.2f}x)")
    print("address buffer in arrival order (shuffled ingest):")
    for key, cell in result["arrival_cells"].items():
        print(f"  {key:14s} {cell['chain']:>10s} "
              f"{cell['addr_nbytes']:>10,} B  "
              f"decode {cell['decode_us']:8.1f} us")
    print(f"arrival order: zlib / cascade address bytes >= "
          f"{result['arrival_zlib_over_cascade']:.2f}x")
    assert_reduction_ok(result, MIN_SIZE_REDUCTION)
    print("OK")


if __name__ == "__main__":
    main()
