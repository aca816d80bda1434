#!/usr/bin/env python
"""Benchmark trajectory recorder: run the tier-1 bench smokes, log numbers.

Runs the repository's assertable microbenchmarks in-process (the same
code paths the tier-1 smokes exercise, at their standalone sizes) and
appends one JSON record per benchmark to
``benchmarks/reports/BENCH_<name>.json`` — a growing array of
``{date, commit, metrics...}`` entries, so performance over the commit
history is a dataset rather than folklore.

Currently recorded:

* ``read_planner`` (``benchmarks/bench_planner.py``) — plan-on/off
  point/box times and the headline speedups;
* ``parallel_read`` (``benchmarks/bench_parallel_read.py``) — cold vs
  warm-cache read times (the cache alone; both read inline);
* ``sharded_store`` (``benchmarks/bench_sharded.py``) — hot-region
  reads and parallel compaction across shard counts;
* ``wal_ingest`` (``benchmarks/bench_wal_ingest.py``) — small-chunk
  ingest via WAL append + pack vs synchronous per-chunk writes;
* ``compression`` (``benchmarks/bench_compression_cascade.py``) —
  cascaded codec bytes-on-disk vs read time across TSP/GSP/MSP
  patterns; headline is the sorted-TSP address-buffer reduction.
* ``format_migration`` (``benchmarks/bench_migration.py``) — direct
  payload→payload conversion kernels vs the canonical path across every
  registered pair (headline: the minimum speedup over the hot pairs),
  plus the adaptive workload-shift loop.
* ``alto_linearization`` (``benchmarks/bench_alto.py``, recorded as
  ``BENCH_alto.json``) — skewed box workloads on sorted-run stores
  under ``addr_order="alto"`` vs row-major: fragment-prune ratio,
  end-to-end box-read speedup (headline), and the point/ingest
  guardrail ratios.
* ``manifest_commit`` (``benchmarks/bench_manifest_commit.py``) —
  per-write and per-commit CPU at 100 and 1 000 fragments (headline:
  the commit's paired ratio, a ceiling rather than a floor), the bytes a
  write appends to the manifest log, and the reopen time.

The speedup floors are asserted exactly as in the standalone runs, so a
CI invocation fails loudly on a real regression — wire it as a
non-blocking job (``continue-on-error``) to keep timing jitter from
gating merges while still recording every data point.

Usage::

    python tools/bench_report.py [--out-dir benchmarks/reports] [--smoke]

``--smoke`` runs the laxer tier-1 floors/sizes (for constrained CI
runners); the default is the standalone configuration.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load_bench(name: str):
    path = REPO / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(*args: str) -> str:
    return subprocess.check_output(["git", *args], cwd=REPO, text=True).strip()


def git_commit() -> str:
    """HEAD's short hash, suffixed ``-dirty`` when tracked files differ
    from it (a record taken on uncommitted changes is not HEAD's)."""
    try:
        commit = _git("rev-parse", "--short", "HEAD")
        changed = _git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return f"{commit}-dirty" if changed else commit


def append_record(out_dir: Path, name: str, metrics: dict) -> Path:
    """Append one trajectory record to ``BENCH_<name>.json``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    records = []
    if path.exists():
        try:
            records = json.loads(path.read_text())
        except ValueError:
            # Never let a damaged report file block recording; start over
            # but keep the damaged content aside for inspection.
            path.rename(path.with_suffix(".json.corrupt"))
    records.append({
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "commit": git_commit(),
        **{k: round(v, 6) if isinstance(v, float) else v
           for k, v in metrics.items()},
    })
    path.write_text(json.dumps(records, indent=1) + "\n")
    return path


def run_read_planner(smoke: bool) -> dict:
    bench = load_bench("bench_planner")
    if smoke:
        result = bench.bench_planner(n_fragments=256, points=128, repeats=3)
        floor = bench.MIN_SPEEDUP_SMOKE
    else:
        result = bench.bench_planner()
        floor = bench.MIN_SPEEDUP
    bench.assert_speedup_ok(result, floor)
    return {**result, "floor": floor}


def run_parallel_read(smoke: bool) -> dict:
    bench = load_bench("bench_parallel_read")
    if smoke:
        result = bench.bench_parallel_read(
            n_fragments=16, points=8_000, repeats=3
        )
        floor = bench.MIN_SPEEDUP_SMOKE
    else:
        result = bench.bench_parallel_read()
        floor = bench.MIN_SPEEDUP
    bench.assert_speedup_ok(result, floor)
    return {**result, "floor": floor}


def run_sharded_store(smoke: bool) -> dict:
    bench = load_bench("bench_sharded")
    if smoke:
        reads = bench.bench_sharded_reads(
            n_parts=6, points=8_000, n_queries=1_000, repeats=3,
            shard_counts=(16,),
        )
        floor = bench.MIN_READ_SPEEDUP_SMOKE
        compact = bench.bench_parallel_compaction(
            n_shards=4, n_parts=6, points=8_000
        )
    else:
        reads = bench.bench_sharded_reads()
        floor = bench.MIN_READ_SPEEDUP
        compact = bench.bench_parallel_compaction()
    bench.assert_read_speedup_ok(reads, floor)
    bench.assert_compact_speedup_ok(compact, bench.MIN_COMPACT_SPEEDUP)
    return {**reads, **compact, "floor": floor}


def run_wal_ingest(smoke: bool) -> dict:
    bench = load_bench("bench_wal_ingest")
    if smoke:
        result = bench.bench_wal_ingest(
            n_points=40_000, n_chunks=400, n_queries=500
        )
        floor = bench.MIN_INGEST_SPEEDUP_SMOKE
    else:
        result = bench.bench_wal_ingest()
        floor = bench.MIN_INGEST_SPEEDUP
    bench.assert_speedup_ok(result, floor)
    return {**result, "floor": floor}


def run_compression(smoke: bool) -> dict:
    bench = load_bench("bench_compression_cascade")
    if smoke:
        result = bench.bench_compression(side=256, n_queries=2_000)
        floor = bench.MIN_SIZE_REDUCTION_SMOKE
    else:
        result = bench.bench_compression()
        floor = bench.MIN_SIZE_REDUCTION
    bench.assert_reduction_ok(result, floor)
    return {**result, "floor": floor}


def run_format_migration(smoke: bool) -> dict:
    bench = load_bench("bench_migration")
    if smoke:
        result = bench.bench_direct_kernels(
            n_points=150_000, shape=(256, 256, 256), reps=5
        )
        floor = bench.MIN_SPEEDUP_SMOKE
        shift = bench.bench_adaptive_shift(
            n_points=30_000, shape=(64, 64, 64)
        )
    else:
        result = bench.bench_direct_kernels()
        floor = bench.MIN_SPEEDUP
        shift = bench.bench_adaptive_shift()
    bench.assert_speedup_ok(result, floor)
    bench.assert_adaptive_ok(shift)
    return {
        **result,
        "adaptive_migrated": shift["migrated"],
        "adaptive_sweep_seconds": shift["sweep_seconds"],
        "floor": floor,
    }


def run_alto_linearization(smoke: bool) -> dict:
    bench = load_bench("bench_alto")
    if smoke:
        result = bench.bench_alto(
            n_fragments=128, points_per_fragment=300, repeats=2,
            shapes=("3d",),
        )
        floor = bench.MIN_BOX_SPEEDUP_SMOKE
        side = bench.MAX_SIDE_REGRESSION_SMOKE
    else:
        result = bench.bench_alto()
        floor = bench.MIN_BOX_SPEEDUP
        side = bench.MAX_SIDE_REGRESSION
    bench.assert_alto_ok(result, min_speedup=floor, max_side=side)
    return {**result, "floor": floor}


def run_manifest_commit(smoke: bool) -> dict:
    bench = load_bench("bench_manifest_commit")
    if smoke:
        result = bench.bench_manifest_commit(n_fragments=300, window=30)
    else:
        result = bench.bench_manifest_commit()
    bench.assert_records_flat(result)
    bench.assert_cost_flat(result)
    return {**result, "ceiling": bench.MAX_COST_RATIO}


BENCHES = {
    "read_planner": run_read_planner,
    "parallel_read": run_parallel_read,
    "sharded_store": run_sharded_store,
    "wal_ingest": run_wal_ingest,
    "compression": run_compression,
    "format_migration": run_format_migration,
    "alto_linearization": run_alto_linearization,
    "manifest_commit": run_manifest_commit,
}

#: Report-file overrides: ``BENCH_<record name>.json`` when the bench's
#: registry key is longer than its established report name.
RECORD_NAMES = {"alto_linearization": "alto"}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out-dir", type=Path, default=REPO / "benchmarks" / "reports"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tier-1 smoke sizes/floors (for constrained CI runners)",
    )
    parser.add_argument(
        "--only", choices=sorted(BENCHES), default=None,
        help="run a single benchmark instead of all of them",
    )
    args = parser.parse_args(argv)

    failed = False
    for name, runner in BENCHES.items():
        if args.only and name != args.only:
            continue
        try:
            metrics = runner(args.smoke)
        except AssertionError as exc:
            print(f"{name}: REGRESSION — {exc}", file=sys.stderr)
            failed = True
            continue
        path = append_record(args.out_dir, RECORD_NAMES.get(name, name),
                             metrics)
        headline = next(
            metrics[k] for k in
            ("point_speedup", "ingest_speedup", "speedup",
             "size_reduction", "box_speedup", "paired_commit_ratio")
            if k in metrics
        )
        try:
            shown = path.relative_to(REPO)
        except ValueError:  # --out-dir outside the repo
            shown = path
        bound = (f"floor {metrics['floor']}x" if "floor" in metrics
                 else f"ceiling {metrics['ceiling']}x")
        print(f"{name}: {headline:.2f}x ({bound}) -> {shown}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
