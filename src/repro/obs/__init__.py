"""Observability layer: always-on metrics for the production hot paths.

The paper's contribution is *measurement* (Table I op counts, Fig 3/4/5
trajectories), but benchmarks only see what the harness times.  This
subsystem gives the production paths — format encode/read, fragment
write/read/compact, overlap pruning, batch writes — first-class
counters, gauges, and latency histograms.

Quick tour::

    from repro import obs

    with obs.span("my.operation", format="LINEAR") as sp:
        sp.add_nnz(n)                 # annotate work done
        sp.ops.charge_comparisons(k)  # Table-I-style op accounting

    obs.snapshot()          # JSON-able dict of every metric
    print(obs.render_table())
    obs.to_json()           # export
    obs.reset()             # fresh state
    obs.disable()           # near-zero overhead; also REPRO_OBS=0

The registry is thread-safe (worker threads record concurrently) and
process-global: :func:`get_registry` returns the instance everything
records into.

The durability layer (:mod:`repro.storage.durability`) reports through
this registry too: ``store.corrupt_fragments`` (CRC failures seen by
reads), ``store.fragments_quarantined``, ``store.tmp_cleaned`` (stale temp
files removed at open), ``store.orphan_fragments`` (uncommitted fragments
detected at open), ``store.rescan_skipped``, and ``store.fsck_runs``.

The read pipeline (:mod:`repro.storage.readpath`) records the
decoded-fragment cache: ``store.cache.hits`` / ``store.cache.misses`` /
``store.cache.evictions`` / ``store.cache.invalidations`` counters plus
the ``store.cache.bytes`` gauge (resident decoded bytes, bounded by the
store's ``cache_bytes``).  ``repro stats --store DIR --cache-bytes N``
prints a dedicated cache section from the same totals.

The read-side query planner (:mod:`repro.storage.planner`) records under
``store.plan.*``: ``store.plan.fragments_pruned_index`` (fragments the
spatial interval index excluded before bbox tests ran),
``store.plan.fragments_pruned_zonemap`` (fragments whose zone map proved
no query address can be present), ``store.plan.index_rebuilds`` (interval
index rebuilt after a manifest generation bump),
and ``store.plan.zone_backfilled`` (pre-v2 manifest entries given zone
maps lazily).  The bbox-level
``store.fragments_pruned`` counter keeps its pre-planner meaning — only
bounding-box rejections — so existing dashboards stay comparable.
``repro stats --store DIR --plan`` prints a planner section from these.

The write-ahead log (:mod:`repro.storage.wal`) records under
``store.wal.*``: ``store.wal.appends`` (durable records written),
``store.wal.records_replayed`` (records recovered at open),
``store.wal.segments_sealed`` / ``store.wal.segments_retired``
(segment lifecycle), ``store.wal.torn_tails`` (torn final records
truncated during replay), ``store.wal.pack_runs``,
``store.wal.snapshots``, ``store.wal.gc_deleted`` (retired fragment
files removed by :meth:`~repro.storage.store.FragmentStore.gc`), and
the ``store.wal.bytes`` gauge (live log footprint).  ``repro stats
--wal`` prints a WAL section from these plus ``store.wal_stats()``.

Explicit format migration (:meth:`~repro.storage.store.FragmentStore.
migrate_fragment`) records ``store.migrate.fragments`` (fragments
re-formatted in place, labelled ``src``/``dst``) and
``store.migrate.noop`` (migrations skipped because the fragment already
had the target format).
"""

from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter_add,
    disable,
    enable,
    enabled_from_env,
    gauge_set,
    get_registry,
    is_enabled,
    observe,
    render_table,
    reset,
    snapshot,
    to_json,
)
from .spans import NULL_SPAN, Span, span

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "counter_add",
    "disable",
    "enable",
    "enabled_from_env",
    "gauge_set",
    "get_registry",
    "is_enabled",
    "observe",
    "render_table",
    "reset",
    "snapshot",
    "span",
    "to_json",
]
