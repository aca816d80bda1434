#!/usr/bin/env python3
"""Streaming ingest into an adaptive store, then compaction.

Puts three of the library's storage-layer features together in the shape of
a real acquisition pipeline:

1. :class:`~repro.storage.streaming.StreamingWriter` batches a producer's
   appends into fragments,
2. :class:`~repro.storage.adaptive.AdaptiveStore` picks each fragment's
   organization from its measured sparsity (the paper's §VI future work),
3. :meth:`~repro.storage.store.FragmentStore.compact` folds the fragment
   backlog into one for fast steady-state reads, and
4. :func:`~repro.storage.convert.convert_store` migrates the whole dataset
   to a different organization after the fact.

Run:  python examples/streaming_adaptive_ingest.py
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro import Box
from repro.analysis import BALANCED
from repro.patterns import GSPPattern, TSPPattern
from repro.storage import AdaptiveStore, StreamingWriter, convert_store

SHAPE = (128, 128, 128)


def event_stream(rng):
    """Alternate clustered bursts (banded) and diffuse background events."""
    for burst in range(6):
        if burst % 2 == 0:
            tensor = TSPPattern(SHAPE, band_width=1).generate(rng)
        else:
            tensor = GSPPattern(SHAPE, threshold=0.999).generate(rng)
        # The producer emits in small chunks, as a DAQ would.
        for lo in range(0, tensor.nnz, 500):
            yield tensor.coords[lo : lo + 500], tensor.values[lo : lo + 500]


def main() -> None:
    rng = np.random.default_rng(99)
    root = Path(tempfile.mkdtemp(prefix="ingest-"))
    try:
        store = AdaptiveStore(root / "live", SHAPE, workload=BALANCED)
        with StreamingWriter(store, pack_points=20_000) as writer:
            for coords, values in event_stream(rng):
                writer.append(coords, values)
        print(f"ingested {writer.points_written:,} points as "
              f"{writer.fragments_written} fragments")
        print(f"organizations chosen per fragment: "
              f"{store.format_histogram()}")

        probe = Box((32, 32, 32), (16, 16, 16))
        before = store.read_box(probe)
        print(f"region probe before compaction: {before.nnz} points from "
              f"{len(store.fragments)} fragments")

        store.compact()
        after = store.read_box(probe)
        assert after.same_points(before)
        print(f"after compaction: 1 fragment "
              f"({store.total_file_nbytes / 1024:.0f} KiB), "
              "identical probe results")

        archived = convert_store(
            store, root / "archive", "LINEAR", codec="delta-zlib"
        )
        print(f"archived copy (LINEAR + delta-zlib): "
              f"{archived.total_file_nbytes / 1024:.0f} KiB "
              f"({archived.total_file_nbytes / store.total_file_nbytes:.0%} "
              "of the live store)")
        check = archived.read_box(probe)
        assert check.same_points(before)
        print("archive verified against the live store.")
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()
