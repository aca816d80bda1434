"""Microbench: fault-injection machinery overhead on the write path.

Every filesystem primitive in ``repro.storage.durability`` consults a
process-global fault hook so the crash-consistency suite can kill commits
at exact byte offsets.  That check must be free in production: with no hook
installed it is one module attribute load per *call* (never per point), and
even with a pass-through hook installed the cost stays fixed per call.

This bench times a multi-fragment ingest through the durable write path
(:class:`FragmentStore.write`) with a pass-through recording hook installed
vs with no hook, and asserts the ratio stays under 5% — the same
enabled/disabled A/B the obs-overhead bench uses.  An A/B on the identical
code path is the only stable way to bound the machinery's cost: comparing
against a non-atomic baseline instead measures kernel writeback scheduling
(whichever variant writes when the dirty-page limit trips absorbs tens of
milliseconds of throttling), which is why the seed-path comparison below is
*reported* but not asserted.

Runs standalone (`python benchmarks/bench_fault_overhead.py`) and as part
of the tier-1 suite via `tests/bench/test_fault_overhead.py` (assert-only).
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import SparseTensor, obs
from repro.core.boundary import extract_boundary
from repro.formats.registry import get_format
from repro.storage import FragmentStore, pack_fragment
from repro.testing.faults import OpRecorder, inject

#: Allowed hooked/unhooked ratio (the PR-facing claim is < 5%).
MAX_OVERHEAD_RATIO = 1.05
#: Absolute slack absorbing scheduler jitter on fast machines (seconds).
ABS_SLACK_SECONDS = 0.01

SHAPE = (1 << 12, 1 << 12)


def make_parts(n_writes: int, points: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(n_writes):
        coords = np.column_stack([
            rng.integers(0, s, size=points, dtype=np.uint64) for s in SHAPE
        ])
        parts.append((coords, rng.random(points)))
    return parts


def durable_ingest(directory: Path, parts) -> None:
    """The production write path: atomic commits, manifest CRC + generation."""
    store = FragmentStore(directory, SHAPE, "LINEAR")
    for coords, values in parts:
        store.write(coords, values)


def hooked_ingest(directory: Path, parts) -> None:
    """The same ingest with a pass-through fault hook observing every op."""
    with inject(OpRecorder()):
        durable_ingest(directory, parts)


def baseline_ingest(directory: Path, parts) -> None:
    """The seed's write path: pack, write directly, dump a plain manifest.

    Kept for the *reported* protocol-cost ratio (atomic commit + manifest
    CRC vs the pre-durability store).  Not asserted: unsynced buffered
    writes make the comparison hostage to dirty-page writeback timing.
    """
    directory.mkdir(parents=True, exist_ok=True)
    fmt = get_format("LINEAR")
    entries = []
    for i, (coords, values) in enumerate(parts):
        encoded = fmt.encode(SparseTensor(SHAPE, coords, values))
        bbox = extract_boundary(coords)
        blob = pack_fragment(
            fmt.name, SHAPE, encoded.nnz, encoded.meta, encoded.payload,
            encoded.values, bbox_origin=bbox.origin, bbox_size=bbox.size,
        )
        path = directory / f"frag-{i:06d}.bin"
        path.write_bytes(blob)
        entries.append({
            "file": path.name,
            "format": "LINEAR",
            "shape": list(SHAPE),
            "nnz": encoded.nnz,
            "bbox_origin": list(bbox.origin),
            "bbox_size": list(bbox.size),
            "nbytes": len(blob),
        })
        (directory / "manifest.json").write_text(
            json.dumps({"fragments": entries}, indent=1)
        )


def _time_once(fn, parts) -> float:
    tmp = Path(tempfile.mkdtemp(prefix="bench-fault-"))
    try:
        t0 = time.perf_counter()
        fn(tmp / "ds", parts)
        return time.perf_counter() - t0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def bench_fault_overhead(
    n_writes: int = 8, points: int = 50_000, repeats: int = 3
) -> dict[str, float]:
    """Measure the hooked vs unhooked durable write path, interleaved.

    Returns ``{"unhooked": s, "hooked": s, "ratio": hooked/unhooked,
    "baseline": s, "protocol_ratio": unhooked/baseline}``.  The two timed
    variants alternate within every repeat so background writeback state
    hits both equally; best-of drops repeats that caught a stall.  obs is
    disabled for the measurement (its overhead is bounded by its own bench)
    and restored afterwards.
    """
    parts = make_parts(n_writes, points)
    was_enabled = obs.is_enabled()
    unhooked = hooked = baseline = float("inf")
    try:
        obs.disable()
        _time_once(durable_ingest, parts)  # warm caches
        _time_once(hooked_ingest, parts)
        for _ in range(repeats):
            unhooked = min(unhooked, _time_once(durable_ingest, parts))
            hooked = min(hooked, _time_once(hooked_ingest, parts))
            baseline = min(baseline, _time_once(baseline_ingest, parts))
    finally:
        if was_enabled:
            obs.enable()
        else:
            obs.disable()
    return {
        "unhooked": unhooked,
        "hooked": hooked,
        "ratio": hooked / unhooked if unhooked else 1.0,
        "baseline": baseline,
        "protocol_ratio": unhooked / baseline if baseline else 1.0,
    }


def assert_overhead_ok(result: dict[str, float]) -> None:
    limit = result["unhooked"] * MAX_OVERHEAD_RATIO + ABS_SLACK_SECONDS
    assert result["hooked"] <= limit, (
        f"fault-hook overhead too high: hooked={result['hooked']:.4f}s "
        f"unhooked={result['unhooked']:.4f}s "
        f"(ratio {result['ratio']:.3f}, limit {MAX_OVERHEAD_RATIO})"
    )


def test_fault_overhead_under_5_percent():
    """Collected when pytest is pointed at benchmarks/ explicitly."""
    assert_overhead_ok(bench_fault_overhead())


if __name__ == "__main__":
    r = bench_fault_overhead()
    print(f"8 x 50k-point LINEAR writes: "
          f"unhooked={r['unhooked'] * 1e3:.1f} ms "
          f"hooked={r['hooked'] * 1e3:.1f} ms ratio={r['ratio']:.4f}")
    print(f"(info) atomic protocol vs seed write path: "
          f"baseline={r['baseline'] * 1e3:.1f} ms "
          f"ratio={r['protocol_ratio']:.4f} — not asserted, see docstring")
    assert_overhead_ok(r)
    print(f"OK (< {(MAX_OVERHEAD_RATIO - 1) * 100:.0f}% hook overhead)")
