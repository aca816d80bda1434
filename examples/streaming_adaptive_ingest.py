#!/usr/bin/env python3
"""Streaming ingest in an organization the advisor picked, then compaction.

Puts the library's storage-layer features together in the shape of a real
acquisition pipeline:

1. :func:`~repro.patterns.stats.characterize` measures the first burst's
   sparsity and :func:`~repro.analysis.advisor.recommend` ranks the
   organizations for it (the paper's Table IV scoring; §VI leaves the
   automatic choice to future work, so here it is one explicit call),
2. :class:`~repro.storage.streaming.StreamingWriter` batches the
   producer's appends into fragments of a plain
   :class:`~repro.storage.store.FragmentStore` in that organization,
3. :meth:`~repro.storage.store.FragmentStore.compact` folds the fragment
   backlog into one for fast steady-state reads, and
4. :func:`~repro.storage.convert.convert_store` re-encodes the whole
   dataset in a different organization after the fact.

Run:  python examples/streaming_adaptive_ingest.py
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro import Box
from repro.analysis import BALANCED, recommend
from repro.patterns import GSPPattern, TSPPattern, characterize
from repro.storage import FragmentStore, StreamingWriter, convert_store

SHAPE = (128, 128, 128)


def bursts(rng):
    """Alternate clustered bursts (banded) and diffuse background events."""
    for burst in range(6):
        if burst % 2 == 0:
            yield TSPPattern(SHAPE, band_width=1).generate(rng)
        else:
            yield GSPPattern(SHAPE, threshold=0.999).generate(rng)


def chunks(tensor):
    """The producer emits in small chunks, as a DAQ would."""
    for lo in range(0, tensor.nnz, 500):
        yield tensor.coords[lo : lo + 500], tensor.values[lo : lo + 500]


def main() -> None:
    rng = np.random.default_rng(99)
    root = Path(tempfile.mkdtemp(prefix="ingest-"))
    try:
        stream = bursts(rng)
        first = next(stream)
        rec = recommend(characterize(first), BALANCED)
        print(f"first burst: {first.nnz:,} points; advisor ranking "
              f"{' < '.join(rec.order())}")

        store = FragmentStore(root / "live", SHAPE, rec.best)
        with StreamingWriter(store, pack_points=20_000) as writer:
            for tensor in (first, *stream):
                for coords, values in chunks(tensor):
                    writer.append(coords, values)
        print(f"ingested {writer.points_written:,} points as "
              f"{writer.fragments_written} {store.format_name} fragments")

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
