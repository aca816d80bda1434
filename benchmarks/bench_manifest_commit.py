"""Microbench: what one manifest commit costs as a store grows.

Algorithm 3's WRITE commits one fragment.  The commit appends one
CRC-framed record, holding only that fragment's entry, to
``manifest.log``; ``manifest.json`` is a checkpoint rewritten only when
the log outgrows it, so a commit costs amortized O(1) in the number of
fragments.  (When each commit re-encoded and replaced the whole
manifest, a write at N = 1 000 took 6–12x one at N < 100.)

One store takes ``n_fragments`` writes of ``points`` uniform points each
(LINEAR, raw codec, no fsync).  Measured:

* the CPU time (``time.process_time``) of each write; the medians over
  the first and the last ``window`` writes, and their ratio;
* the same ratio measured in pairs: after the build, ``window`` writes
  alternate between a second store of ``window`` fragments and the full
  one, and the figure is the median of the pairs' ratios, so a slow
  stretch of the machine slows both sides of a pair alike;
* that paired ratio for the manifest commit alone
  (``FragmentStore._save_manifest``) — the claim, at most
  ``MAX_COST_RATIO`` at 1 000 fragments.  A write also creates its
  fragment file, and on some filesystems that creation alone costs more
  in a directory of 1 000 files than in one of 100, from one run to the
  next; the commit ratio leaves that cost out, the write ratio keeps it;
* the bytes each write appended to the log (writes that checkpointed
  instead are left out); the mean over the first and the last window,
  and their ratio — deterministic for a seed, at most
  ``MAX_RECORD_GROWTH``, asserted by the tier-1 smoke
  (``tests/bench/test_manifest_commit.py``);
* the time to reopen the full store, replaying its log (best of
  ``reopens``).

Runs standalone (``python benchmarks/bench_manifest_commit.py``).
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.storage import FragmentStore

#: The claim: the manifest commit's CPU at the full store over that at
#: ``window`` fragments, measured in pairs.
MAX_COST_RATIO = 1.5
#: A record's bytes may drift with digit counts, not with the store.
MAX_RECORD_GROWTH = 1.05

SHAPE = (1 << 12, 1 << 12)
LOG_NAME = "manifest.log"


def _log_bytes(directory: Path) -> int:
    path = directory / LOG_NAME
    return path.stat().st_size if path.exists() else 0


def _clock_commits(store: FragmentStore) -> list[float]:
    """The CPU time of each of ``store``'s manifest commits, appended to
    the returned list as they happen."""
    times: list[float] = []
    commit = store._save_manifest

    def timed(*args, **kwargs):
        t0 = time.process_time()
        try:
            return commit(*args, **kwargs)
        finally:
            times.append(time.process_time() - t0)

    store._save_manifest = timed
    return times


def _timed_write(store, rng, points: int) -> float:
    cells = rng.choice(SHAPE[0] * SHAPE[1], size=points, replace=False)
    coords = np.column_stack(np.unravel_index(cells, SHAPE)).astype(np.uint64)
    values = rng.random(points)
    t0 = time.process_time()
    store.write(coords, values)
    return time.process_time() - t0


def bench_manifest_commit(
    n_fragments: int = 1_000,
    window: int = 100,
    points: int = 10,
    reopens: int = 5,
    seed: int = 0,
) -> dict:
    tmp = Path(tempfile.mkdtemp(prefix="bench-manifest-commit-"))
    was_enabled = obs.is_enabled()
    try:
        obs.disable()
        rng = np.random.default_rng(seed)
        directory = tmp / "ds"
        store = FragmentStore(directory, SHAPE, "LINEAR")
        cpu: list[float] = []
        appended: list[int | None] = []
        for _ in range(n_fragments):
            before = _log_bytes(directory)
            cpu.append(_timed_write(store, rng, points))
            after = _log_bytes(directory)
            appended.append(after - before if after > before else None)
        small = FragmentStore(tmp / "small", SHAPE, "LINEAR")
        for _ in range(window):
            _timed_write(small, rng, points)
        commits = {"small": _clock_commits(small), "full": _clock_commits(store)}
        writes: dict[str, list[float]] = {"small": [], "full": []}
        for _ in range(window):
            writes["small"].append(_timed_write(small, rng, points))
            writes["full"].append(_timed_write(store, rng, points))
        reopen = []
        for _ in range(reopens):
            t0 = time.perf_counter()
            FragmentStore(directory, SHAPE, "LINEAR")
            reopen.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            obs.enable()
        shutil.rmtree(tmp, ignore_errors=True)

    def record_mean(part):
        sizes = [n for n in part if n is not None]
        return statistics.fmean(sizes) if sizes else None

    first_cpu = statistics.median(cpu[:window])
    last_cpu = statistics.median(cpu[-window:])
    first_bytes = record_mean(appended[:window])
    last_bytes = record_mean(appended[-window:])
    return {
        "n_fragments": n_fragments,
        "window": window,
        "first_write_cpu_ms": first_cpu * 1e3,
        "last_write_cpu_ms": last_cpu * 1e3,
        "cost_ratio": last_cpu / first_cpu,
        "paired_cost_ratio": _paired_ratio(writes),
        "small_commit_cpu_ms": statistics.median(commits["small"]) * 1e3,
        "full_commit_cpu_ms": statistics.median(commits["full"]) * 1e3,
        "paired_commit_ratio": _paired_ratio(commits),
        "first_record_bytes": first_bytes,
        "last_record_bytes": last_bytes,
        "record_growth": (
            last_bytes / first_bytes if first_bytes and last_bytes else None
        ),
        "checkpoints": sum(n is None for n in appended),
        "reopen_ms": min(reopen) * 1e3,
    }


def _paired_ratio(times: dict[str, list[float]]) -> float:
    """The median over pairs of the full store's time over the small's."""
    return statistics.median(
        full / small for full, small in zip(times["full"], times["small"])
    )


def assert_records_flat(result: dict) -> None:
    growth = result["record_growth"]
    assert growth is not None and growth <= MAX_RECORD_GROWTH, (
        f"log records grew {growth}x from the first to the last "
        f"{result['window']} writes (limit {MAX_RECORD_GROWTH}x)"
    )


def assert_cost_flat(result: dict, limit: float = MAX_COST_RATIO) -> None:
    assert result["paired_commit_ratio"] <= limit, (
        f"manifest commit CPU at {result['n_fragments']} fragments is "
        f"{result['paired_commit_ratio']:.2f}x that at {result['window']} "
        f"(limit {limit}x)"
    )


def main() -> None:
    result = bench_manifest_commit()
    for key, value in result.items():
        shown = f"{value:.3f}" if isinstance(value, float) else value
        print(f"{key:>20s}: {shown}")
    assert_records_flat(result)
    assert_cost_flat(result)
    print(f"OK: manifest commit CPU at {result['n_fragments']} fragments is "
          f"{result['paired_commit_ratio']:.2f}x that at {result['window']} "
          f"(limit {MAX_COST_RATIO}x)")


if __name__ == "__main__":
    main()
