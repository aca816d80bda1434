"""Command-line interface.

``python -m repro <command>``:

``formats``
    List the registered organizations with their Table I complexities.
``generate``
    Generate a synthetic pattern dataset and save it as ``.npz``.
``encode``
    Write a ``.npz`` dataset into a fragment store directory.
``info``
    Inspect a fragment store (fragments, sizes, bounding boxes).
``advise``
    Characterize a dataset and recommend an organization for a workload.
``experiment``
    Regenerate a paper table/figure (same ids as
    ``python -m repro.bench.experiments``).
``stats``
    Exercise the observability layer (``repro.obs``) with a write + read
    round-trip — against an existing store or a synthetic demo — and print
    every recorded counter, gauge, and latency histogram, plus a
    decoded-fragment cache section (``--cache-bytes`` sets the budget,
    ``--build`` adds a unified-build-pipeline section showing the
    canonical-intermediate counters, ``--shards`` adds the
    band table of a ``ShardedStore``, and ``--wal``
    exercises the durable append path and prints the write-ahead-log
    section — ``store.wal.*`` counters plus the live log footprint).
``fsck``
    Verify a store: every fragment's header and CRC checked against the
    manifest, drift reported (missing/extra/corrupt/stale temp files),
    write-ahead-log segments scanned (count and valid bytes reported);
    ``--repair`` rebuilds the manifest, recovers readable uncommitted
    fragments, quarantines unreadable ones, and truncates torn WAL
    tails back to the last intact record.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np


def _load_dataset(path: str):
    from .io import load_dataset

    return load_dataset(path)


def cmd_formats(args: argparse.Namespace) -> int:
    from .analysis.complexity import build_ops, read_ops
    from .bench.report import render_table
    from .formats.registry import PAPER_FORMATS, available_formats

    rows = []
    n, q, shape = 1_000_000, 1000, (128, 128, 128, 128)
    for name in available_formats(include_extensions=not args.paper_only):
        tag = "paper" if name in PAPER_FORMATS else "extension"
        try:
            b = f"{build_ops(name, n, shape):,}"
            r = f"{read_ops(name, n, q, shape):,}"
        except Exception:
            b = r = "-"
        rows.append([name, tag, b, r])
    print(render_table(
        ["format", "kind", "build ops (n=1e6,d=4)", "read ops (q=1e3)"],
        rows,
        title="Registered sparse tensor organizations",
        formatters={2: str, 3: str},
    ))
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    from .patterns.suite import make_pattern

    shape = tuple(int(s) for s in args.shape)
    gen = make_pattern(args.pattern, shape)
    tensor = gen.generate(np.random.default_rng(args.seed))
    np.savez_compressed(
        args.output,
        shape=np.asarray(tensor.shape, dtype=np.int64),
        coords=tensor.coords,
        values=tensor.values,
    )
    print(f"{args.pattern} tensor {shape}: nnz={tensor.nnz:,} "
          f"density={tensor.density:.3%} -> {args.output}")
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    from .storage.options import StoreOptions
    from .storage.sharded import ShardedStore
    from .storage.store import FragmentStore

    tensor = _load_dataset(args.dataset)
    options = StoreOptions(codec=args.codec)
    if args.shards:
        store = ShardedStore(
            args.store, tensor.shape, args.format,
            n_shards=args.shards, options=options,
        )
        receipts = store.write_tensor(tensor)
        print(f"wrote {len(receipts)} band fragments across "
              f"{len(store.shards)} bands: "
              f"file={sum(r.file_nbytes for r in receipts):,} B "
              f"(build {sum(r.build_seconds for r in receipts) * 1000:.1f} ms)")
        return 0
    store = FragmentStore(args.store, tensor.shape, args.format,
                          options=options)
    receipt = store.write_tensor(tensor)
    print(f"wrote fragment {receipt.info.path.name}: "
          f"index={receipt.index_nbytes:,} B values={receipt.value_nbytes:,} B "
          f"file={receipt.file_nbytes:,} B "
          f"(build {receipt.build_seconds * 1000:.1f} ms)")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    from .bench.report import format_bytes, render_table

    if _legacy_layout(args.store):
        return 1
    store = _open_store(args.store)
    rows = [
        [f.path.name, f.format_name, f.nnz,
         str(f.bbox.origin), str(f.bbox.size), format_bytes(f.nbytes)]
        for f in store.fragments
    ]
    print(render_table(
        ["fragment", "format", "nnz", "bbox origin", "bbox size", "size"],
        rows,
        title=(f"store {args.store}: shape={tuple(store.shape)} "
               f"{len(store.fragments)} fragments, {store.nnz:,} points, "
               f"{format_bytes(store.total_file_nbytes)}"),
        formatters={3: str, 4: str, 5: str},
    ))
    return 0


def cmd_advise(args: argparse.Namespace) -> int:
    from .analysis.advisor import ANALYTICAL, ARCHIVAL, BALANCED, recommend
    from .patterns.stats import characterize

    tensor = _load_dataset(args.dataset)
    stats = characterize(tensor)
    workload = {"balanced": BALANCED, "archival": ARCHIVAL,
                "analytical": ANALYTICAL}[args.workload]
    rec = recommend(stats, workload)
    print(f"dataset: shape={stats.shape} nnz={stats.nnz:,} "
          f"density={stats.density:.3%} "
          f"csf-sharing={stats.csf_sharing_ratio:.2f}")
    print(f"workload: {args.workload}")
    for i, p in enumerate(rec.ranked, 1):
        print(f"  {i}. {p.format_name:<10s} combined={p.combined:.3f}")
    print(f"recommendation: {rec.best}")
    return 0


def _render_cache_section(cache) -> str:
    """The ``repro stats`` cache section (decoded-fragment LRU totals)."""
    from .bench.report import format_bytes

    stats = cache.stats()
    lookups = stats["hits"] + stats["misses"]
    hit_rate = stats["hits"] / lookups if lookups else 0.0
    lines = ["fragment cache (decoded-payload LRU)"]
    if not stats["enabled"]:
        lines.append("  disabled (cache_bytes=0; pass --cache-bytes to enable)")
        return "\n".join(lines)
    lines.append(
        f"  budget    {format_bytes(stats['max_bytes'])}  "
        f"resident {format_bytes(stats['bytes'])} "
        f"in {stats['entries']} entries"
    )
    lines.append(
        f"  lookups   {lookups}  hits {stats['hits']}  "
        f"misses {stats['misses']}  hit-rate {hit_rate:.1%}"
    )
    lines.append(
        f"  evictions {stats['evictions']}  "
        f"invalidations {stats['invalidations']}"
    )
    return "\n".join(lines)


def _render_plan_section(
    explain_summary: str | None = None,
    addr_order: str | None = None,
) -> str:
    """The ``repro stats --plan`` section: read-side planner counters."""
    from . import obs

    counters = {
        c["name"]: c["value"] for c in obs.snapshot()["counters"]
    }
    lines = ["query planner (spatial index + zone maps)"]
    if addr_order:
        lines.append(f"  address order: {addr_order}")
    lines.append(
        f"  visited   {counters.get('store.fragments_visited', 0)}  "
        f"pruned-bbox {counters.get('store.fragments_pruned', 0)}  "
        f"pruned-index "
        f"{counters.get('store.plan.fragments_pruned_index', 0)}  "
        f"pruned-zonemap "
        f"{counters.get('store.plan.fragments_pruned_zonemap', 0)}"
    )
    lines.append(
        f"  index rebuilds "
        f"{counters.get('store.plan.index_rebuilds', 0)}  "
        f"zone backfills {counters.get('store.plan.zone_backfilled', 0)}"
    )
    if explain_summary:
        lines.append("  example plan (first fragment's bbox):")
        lines.extend("    " + ln for ln in explain_summary.splitlines())
    return "\n".join(lines)


def _render_build_section() -> str:
    """The ``repro stats --build`` section: canonical-pipeline counters."""
    from . import obs

    counters = {
        c["name"]: c["value"]
        for c in obs.snapshot()["counters"]
        if c["name"].startswith("build.")
    }
    lines = ["build pipeline (canonical coordinate intermediate)"]
    if not counters:
        lines.append("  no build.* activity recorded")
        return "\n".join(lines)
    lines.append(
        f"  linearize passes {counters.get('build.canonical.linearize', 0)}  "
        f"address sorts {counters.get('build.canonical.sorts', 0)}  "
        f"reuses {counters.get('build.canonical.reuse', 0)}"
    )
    lines.append(
        f"  delinearize passes "
        f"{counters.get('build.canonical.delinearize', 0)}  "
        f"dedup-run scans {counters.get('build.canonical.dedup_runs', 0)}"
    )
    lines.append(
        f"  encode_all calls {counters.get('build.encode_all.calls', 0)}  "
        f"merged runs {counters.get('build.merge.runs', 0)}  "
        f"merged points {counters.get('build.merge.points', 0)}"
    )
    return "\n".join(lines)


def _render_wal_section(store) -> str:
    """The ``repro stats --wal`` section: durable append-path counters."""
    from . import obs
    from .bench.report import format_bytes

    counters = {
        c["name"]: c["value"] for c in obs.snapshot()["counters"]
    }
    ws = store.wal_stats()
    lines = ["write-ahead log (durable append path)"]
    lines.append(
        f"  live      {ws['segments']} segment(s)  "
        f"{format_bytes(ws['bytes'])}  "
        f"{ws['points']} unpacked point(s)"
    )
    lines.append(
        f"  appends   {counters.get('store.wal.appends', 0)}  "
        f"records replayed "
        f"{counters.get('store.wal.records_replayed', 0)}  "
        f"torn tails {counters.get('store.wal.torn_tails', 0)}"
    )
    lines.append(
        f"  segments  sealed "
        f"{counters.get('store.wal.segments_sealed', 0)}  "
        f"retired {counters.get('store.wal.segments_retired', 0)}"
    )
    lines.append(
        f"  pack runs {counters.get('store.wal.pack_runs', 0)}  "
        f"snapshots {counters.get('store.wal.snapshots', 0)}  "
        f"gc deleted {counters.get('store.wal.gc_deleted', 0)}"
    )
    return "\n".join(lines)


def _render_compression_section(store) -> str:
    """The ``repro stats --compression`` section: bytes-on-disk per codec."""
    from . import obs
    from .bench.report import format_bytes

    cs = store.compression_stats()
    counters = {
        (c["name"], c["labels"].get("codec")): c["value"]
        for c in obs.snapshot()["counters"]
        if c["name"].startswith("store.compression.")
    }
    lines = [f"compression (codec option: {cs['codec']})"]
    lines.append(
        f"  fragments {cs['fragments']}  files "
        f"{format_bytes(cs['file_nbytes'])}  payload "
        f"{format_bytes(cs['encoded_nbytes'])} on disk for "
        f"{format_bytes(cs['raw_nbytes'])} raw  "
        f"(ratio {cs['ratio']:.2f}x)"
    )
    if cs["by_codec"]:
        per_codec = "  ".join(
            f"{tag}={format_bytes(nbytes)}"
            for tag, nbytes in cs["by_codec"].items()
        )
        lines.append(f"  by codec  {per_codec}")
    picks = {
        labels: val for (name, labels), val in counters.items()
        if name == "store.compression.advisor_picks"
    }
    if picks:
        pick_str = "  ".join(
            f"{tag}={int(val)}" for tag, val in sorted(picks.items())
        )
        lines.append(f"  advisor picks (this process)  {pick_str}")
    decoded = sum(
        val for (name, _), val in counters.items()
        if name == "store.compression.decoded_bytes"
    )
    if decoded:
        lines.append(f"  compressed bytes decoded  {format_bytes(decoded)}")
    return "\n".join(lines)


def _render_shards_section(store) -> str:
    """The ``repro stats --shards`` section: the band table, per band."""
    from .bench.report import format_bytes, render_table

    rows = [
        [r["shard"], f"[{r['addr_lo']}, {r['addr_hi']})", r["nnz"],
         r["fragments"], format_bytes(r["nbytes"]), r["generation"]]
        for r in store.stats()
    ]
    return render_table(
        ["band", "address band", "nnz", "fragments", "bytes", "gen"],
        rows,
        title=(f"bands (generation {store.generation}, "
               f"{store.nnz:,} points)"),
        formatters={2: str, 3: str, 4: str, 5: str},
    )


def _legacy_layout(directory: str) -> bool:
    """Whether ``directory`` holds the legacy sharded layout, which only
    a ``ShardedStore`` opens (converting it); says so on stderr."""
    from .core.errors import ManifestError
    from .storage.durability import refuse_legacy_layout

    try:
        refuse_legacy_layout(directory)
    except ManifestError as exc:
        print(exc, file=sys.stderr)
        return True
    return False


def _open_store(directory: str, options=None):
    """Open a store from its ``manifest.json``: a banded manifest opens
    as a ``ShardedStore``."""
    import json

    from .storage.sharded import ShardedStore
    from .storage.store import FragmentStore

    manifest = json.loads((Path(directory) / "manifest.json").read_text())
    cls = ShardedStore if manifest.get("bands") else FragmentStore
    return cls(directory, manifest["shape"], manifest["format"],
               options=options)


def cmd_stats(args: argparse.Namespace) -> int:
    import json
    import tempfile

    from . import obs
    from .core.boundary import Box
    from .storage.options import StoreOptions
    from .storage.sharded import ShardedStore
    from .storage.store import FragmentStore

    obs.enable()
    obs.reset()
    rng = np.random.default_rng(args.seed)
    store_options = StoreOptions(cache_bytes=args.cache_bytes)
    if args.compression and not args.store:
        # The demo store writes through the adaptive cascade so the
        # compression section has per-codec data to show.
        store_options = store_options.replace(codec="cascade")
    cache = None
    plan_summary = None
    plan_addr_order = None
    shard_table = None
    wal_section = None
    compression_section = None
    compression_stats = None

    if args.store:
        if _legacy_layout(args.store):
            return 1
        store = _open_store(args.store, store_options)
        cache = store.cache
        if not store.fragments:
            print(f"store {args.store} has no fragments", file=sys.stderr)
            return 1
        # Sample query points from each fragment's bounding box so reads
        # exercise the real pruning and per-format read paths.
        per_frag = max(1, args.points // len(store.fragments))
        queries = np.vstack([
            np.asarray(f.bbox.origin, dtype=np.uint64)[np.newaxis, :]
            + rng.integers(
                0, np.maximum(1, np.asarray(f.bbox.size, dtype=np.int64)),
                size=(per_frag, len(store.shape)),
            ).astype(np.uint64)
            for f in store.fragments
        ])
        # Two rounds: the second demonstrates warm-cache hits.
        for _ in range(2):
            store.read_points(queries)
            store.read_box(store.fragments[0].bbox)
        if args.plan:
            plan_summary = store.explain(store.fragments[0].bbox).summary()
            plan_addr_order = getattr(store, "addr_order", None)
        if args.shards:
            if not isinstance(store, ShardedStore):
                print(f"store {args.store} is not sharded "
                      "(--shards needs a ShardedStore directory)",
                      file=sys.stderr)
                return 1
            shard_table = _render_shards_section(store)
        if args.wal:
            # Read-only against an existing store: report the live log
            # footprint and whatever replay recorded on open.
            wal_section = _render_wal_section(store)
        if args.compression:
            compression_section = _render_compression_section(store)
            compression_stats = store.compression_stats()
        title = f"repro observability — store {args.store}"
    else:
        # Self-contained demo: two disjoint fragments, so the read shows
        # bbox overlap pruning alongside byte and latency metrics.  With
        # --shards the demo store is a 4-band ShardedStore instead, so
        # the band table and store.shard.* counters have data.
        shape = (64, 64, 64)
        n = max(16, args.points)
        with tempfile.TemporaryDirectory() as tmp:
            if args.shards:
                store = ShardedStore(
                    tmp, shape, args.format, n_shards=4,
                    options=store_options,
                )
            else:
                store = FragmentStore(
                    tmp, shape, args.format, options=store_options
                )
            low = rng.integers(0, 32, size=(n, 3)).astype(np.uint64)
            high = rng.integers(32, 64, size=(n, 3)).astype(np.uint64)
            store.write(low, rng.random(n))
            store.write(high, rng.random(n))
            for _ in range(2):
                store.read_points(low[: max(1, n // 2)])
                store.read_box(Box((0, 0, 0), (16, 16, 16)))
            if args.wal:
                # Exercise the whole durable lifecycle so every
                # store.wal.* counter has data: append -> read (tail
                # merge) -> snapshot -> pack -> gc.
                extra = rng.integers(0, 64, size=(n, 3)).astype(np.uint64)
                store.append(extra, rng.random(n))
                store.read_points(extra[: max(1, n // 2)])
                with store.snapshot():
                    store.pack_wal()
                store.gc()
                wal_section = _render_wal_section(store)
            cache = store.cache
            if args.plan:
                plan_summary = store.explain(
                    Box((0, 0, 0), (16, 16, 16))
                ).summary()
                plan_addr_order = getattr(store, "addr_order", None)
            if args.shards:
                shard_table = _render_shards_section(store)
            if args.compression:
                compression_section = _render_compression_section(store)
                compression_stats = store.compression_stats()
        kind = "4-band" if args.shards else "2-fragment"
        title = (f"repro observability — demo round-trip "
                 f"({args.format}, {kind}, {n} points per write)")

    if args.build:
        # Exercise the shared-intermediate write pipeline so the
        # build.canonical.* counters show up: one encode_all over the
        # paper formats plus one merge-based compaction.
        from .build import encode_all
        from .core.tensor import SparseTensor

        bshape = (32, 32, 32)
        nb = max(16, args.points)
        bcoords = rng.integers(0, 32, size=(nb, 3)).astype(np.uint64)
        tensor = SparseTensor(
            bshape, bcoords, rng.random(nb)
        ).deduplicated(keep="last")
        encode_all(tensor)
        with tempfile.TemporaryDirectory() as tmp:
            bstore = FragmentStore(tmp, bshape, "LINEAR")
            half = max(1, tensor.nnz // 2)
            bstore.write(tensor.coords[:half], tensor.values[:half])
            bstore.write(tensor.coords[half:], tensor.values[half:])
            bstore.compact(strategy="merge")

    if args.json:
        payload = json.loads(obs.to_json())
        if cache is not None:
            payload["cache"] = cache.stats()
        if compression_stats is not None:
            payload["compression"] = compression_stats
        print(json.dumps(payload, indent=1))
    else:
        print(obs.render_table(title=title))
        if cache is not None:
            print()
            print(_render_cache_section(cache))
        if shard_table is not None:
            print()
            print(shard_table)
        if wal_section is not None:
            print()
            print(wal_section)
        if compression_section is not None:
            print()
            print(compression_section)
        if args.plan:
            print()
            print(_render_plan_section(plan_summary, plan_addr_order))
        if args.build:
            print()
            print(_render_build_section())
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    import json

    from .storage.durability import fsck

    if _legacy_layout(args.store):
        return 1
    report = fsck(args.store, repair=args.repair)
    if args.json:
        print(json.dumps(report.as_dict(), indent=1))
    else:
        print(report.summary())
    if report.clean or report.repaired:
        return 0
    return 1


def cmd_experiment(args: argparse.Namespace) -> int:
    from .bench.experiments import ExperimentConfig, run_experiment

    config = ExperimentConfig(scale=args.scale, verbose=args.verbose)
    print(run_experiment(args.experiment, config))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sparse tensor storage organizations "
                    "(reproduction of Dong/Wu/Byna, IPPS 2024)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("formats", help="list organizations + complexities")
    p.add_argument("--paper-only", action="store_true")
    p.set_defaults(func=cmd_formats)

    p = sub.add_parser("generate", help="generate a synthetic dataset")
    p.add_argument("pattern", choices=["TSP", "GSP", "MSP"])
    p.add_argument("shape", nargs="+", help="dimension sizes")
    p.add_argument("-o", "--output", required=True, help="output .npz")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("encode", help="write a dataset into a store")
    p.add_argument("dataset", help="input dataset (.npz/.mtx/.tns)")
    p.add_argument("store", help="fragment store directory")
    p.add_argument("-f", "--format", default="LINEAR")
    p.add_argument("--codec", default="raw",
                   choices=["raw", "zlib", "delta-zlib", "cascade"])
    p.add_argument("--shards", type=int, default=0, metavar="N",
                   help="write into a range-partitioned ShardedStore "
                        "with N bands instead of a flat FragmentStore")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("info", help="inspect a fragment store")
    p.add_argument("store")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("advise", help="recommend an organization")
    p.add_argument("dataset", help="input dataset (.npz/.mtx/.tns)")
    p.add_argument("-w", "--workload", default="balanced",
                   choices=["balanced", "archival", "analytical"])
    p.set_defaults(func=cmd_advise)

    p = sub.add_parser("stats", help="observability metrics round-trip")
    p.add_argument("--store", default=None,
                   help="existing store directory to exercise "
                        "(default: synthetic demo store)")
    p.add_argument("-f", "--format", default="LINEAR",
                   help="organization for the demo store")
    p.add_argument("--points", type=int, default=2000,
                   help="points per fragment / total queries")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cache-bytes", type=int, default=0,
                   help="decoded-fragment cache budget in bytes "
                        "(0 = cache off; reads run twice so a warm "
                        "second round shows up as hits)")
    p.add_argument("--plan", action="store_true",
                   help="also print the read-side query-planner section "
                        "(store.plan.* counters + an example explain())")
    p.add_argument("--build", action="store_true",
                   help="also exercise the unified build pipeline "
                        "(encode_all + merge compaction) and print the "
                        "build.canonical.* counter section")
    p.add_argument("--shards", action="store_true",
                   help="also print the band table; with --store the "
                        "directory must be a ShardedStore, without it the "
                        "demo store is built with 4 bands")
    p.add_argument("--compression", action="store_true",
                   help="report bytes-on-disk per codec chain (and, for "
                        "the demo store, write through the cascade)")
    p.add_argument("--wal", action="store_true",
                   help="also print the write-ahead-log section "
                        "(store.wal.* counters + live log footprint); "
                        "the demo store exercises the full durable "
                        "lifecycle: append, tail read, snapshot, pack, gc")
    p.add_argument("--json", action="store_true",
                   help="emit the metrics snapshot as JSON")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("fsck", help="verify/repair a store")
    p.add_argument("store", help="store directory")
    p.add_argument("--repair", action="store_true",
                   help="rebuild the manifest; recover readable orphans, "
                        "quarantine unreadable fragments")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON")
    p.set_defaults(func=cmd_fsck)

    p = sub.add_parser("experiment", help="regenerate a paper artifact")
    p.add_argument("experiment",
                   choices=["table1", "table2", "table3", "table4",
                            "fig2", "fig3", "fig4", "fig5", "claims"])
    p.add_argument("scale", nargs="?", default=None,
                   choices=["tiny", "default", "paper"])
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
