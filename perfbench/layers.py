"""Per-layer attribution for the traced run (``--trace 1``).

The end-to-end figures come from untraced runs.  A traced run wraps, from
this file, the entry points of each layer of the storage engine -- the
program's source is unchanged -- and charges every wrapped call its *self
time*: its duration less that of the wrapped calls made inside it.  The
layer times of a request therefore add up to its time inside the store
(``request_ms`` less the benchmark's own call overhead).  Counts come from
the program's metrics registry (:mod:`repro.obs`).  Every figure is per
request of the timed loop.

==============  ============================================================
layer           what it is charged with
==============  ============================================================
store           the store's read code outside every layer below: query
                masks against fragment boxes, merging and deduplicating
                per-fragment results, the WAL-tail overlay, locks,
                workload-ledger updates; snapshot reads
append          the store's ``append`` outside the WAL layer: validation,
                tail bookkeeping
pack            the store's ``pack_wal`` outside the layers it calls
compact         the store's ``compact`` outside the layers it calls
shard           ShardedStore routing a request to its bands
plan            the query planner (interval index and zone maps)
fragment_io     reading a fragment file and parsing its header
crc             checksum verification of fragment bytes
decompress      decoding compressed fragment buffers
probe           an organization's point or box read on one fragment
wal_tail        collapsing unpacked WAL chunks into the read overlay
wal_append      framing and writing WAL records
run_merge       newest-wins k-way merge of sorted runs (tail, pack,
                compaction)
build           an organization's BUILD of a fragment payload
compress        encoding fragment buffers with the store's codec
fragment_write  serializing a fragment and committing its file
manifest        committing the store manifest
==============  ============================================================

What each should move, and where (every workload reports one end-to-end
latency, ``p50_ms``): store, shard, plan, probe, ``fragments_visited`` and
``fragments_pruned`` move it on point_lookup and box_scan; fragment_io,
crc, decompress and ``bytes_read_kib`` on box_scan above all, where every
request loads several fragments; append, wal_append, pack, compact,
run_merge, build, compress, fragment_write and manifest on ingest_mixed,
where each request is a whole epoch of appends, packs and a compaction.
The write layers also move ``setup_s`` everywhere.

An entry point that no longer exists is skipped: its layer reads 0 and its
time falls to the layer that called it.  A function is replaced in every
loaded ``repro`` module that holds it, so a call that moves between
modules is still caught.  The accounting assumes one thread, which holds
for every workload here (no read fan-out, no background packer).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: Layer -> the entry points charged to it, as ``"module:qualified.name"``.
LAYERS: dict[str, tuple[str, ...]] = {
    "store": (
        "repro.storage.store:FragmentStore.read_points",
        "repro.storage.store:FragmentStore.read_box",
        "repro.storage.store:StoreSnapshot.read_points",
        "repro.storage.store:StoreSnapshot.read_box",
    ),
    "append": ("repro.storage.store:FragmentStore.append",),
    "pack": ("repro.storage.store:FragmentStore.pack_wal",),
    "compact": ("repro.storage.store:FragmentStore.compact",),
    "shard": (
        "repro.storage.sharded:ShardedStore.read_points",
        "repro.storage.sharded:ShardedStore.read_box",
    ),
    "plan": ("repro.storage.planner:QueryPlanner.plan",),
    "fragment_io": ("repro.storage.fragment:load_fragment",),
    "crc": ("repro.storage.serialization:verify_crc",),
    "decompress": ("repro.storage.compression:decode_buffer",),
    "probe": (
        "repro.storage.fragment:query_fragment",
        "repro.storage.fragment:query_fragment_box",
    ),
    "wal_tail": ("repro.storage.wal:build_tail_run",),
    "wal_append": ("repro.storage.wal:WriteAheadLog.append",),
    "run_merge": ("repro.build.merge:merge_sorted_runs",),
    "build": (),  # every organization's BUILD, found by Tracer.install
    "compress": ("repro.storage.compression:encode_buffer",),
    "fragment_write": ("repro.storage.fragment:write_fragment",),
    "manifest": ("repro.storage.store:FragmentStore._save_manifest",),
}

#: Program counters summed over their labels around the timed loop.
COUNTERS = (
    "store.fragments_visited",
    "store.fragments_pruned",
    "store.plan.fragments_pruned_zonemap",
    "fragment.bytes_read",
)


def _build_methods() -> list[tuple[type, str]]:
    """``build`` / ``build_canonical`` on every class an organization
    inherits them from."""
    from repro.formats.registry import available_formats, get_format

    found: list[tuple[type, str]] = []
    for fmt in available_formats():
        for klass in type(get_format(fmt)).__mro__:
            for name in ("build", "build_canonical"):
                if callable(vars(klass).get(name)) and (klass, name) not in found:
                    found.append((klass, name))
    return found


def _repro_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Tracer:
    """Self-time accounting over the wrapped entry points."""

    def __init__(self) -> None:
        self.seconds = dict.fromkeys(LAYERS, 0.0)
        self._open: list[float] = []  # per open call: time of wrapped callees
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, specs in LAYERS.items():
            for spec in specs:
                self._wrap(layer, spec)
        for klass, name in _build_methods():
            self._replace(klass, name, self._timed("build", vars(klass)[name]))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _wrap(self, layer: str, spec: str) -> None:
        module_name, _, qualname = spec.partition(":")
        *path, name = qualname.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in path:
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            return
        original = vars(owner).get(name)
        if not callable(original):
            return
        timed = self._timed(layer, original)
        if path:  # a method: replace it on its class
            self._replace(owner, name, timed)
            return
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, timed)

    def _replace(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _timed(self, layer: str, original):
        open_calls, seconds = self._open, self.seconds

        @functools.wraps(original)
        def timed(*args, **kwargs):
            open_calls.append(0.0)
            t0 = time.process_time()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.process_time() - t0
                seconds[layer] += elapsed - open_calls.pop()
                if open_calls:
                    open_calls[-1] += elapsed

        return timed


def counter_totals() -> dict[str, float]:
    """Current totals of :data:`COUNTERS`, summed over labels."""
    from repro import obs

    totals = dict.fromkeys(COUNTERS, 0)
    for counter in obs.snapshot()["counters"]:
        if counter["name"] in totals:
            totals[counter["name"]] += counter["value"]
    return totals


def layer_metrics(
    tracer: Tracer,
    before: dict[str, float],
    after: dict[str, float],
    requests: int,
    request_seconds: float,
) -> dict[str, tuple[float, str]]:
    """Per-request layer self times and counts of the timed loop."""
    n = max(requests, 1)
    delta = {name: after[name] - before[name] for name in COUNTERS}
    metrics = {"request_ms": (request_seconds * 1e3 / n, "ms")}
    for layer, seconds in tracer.seconds.items():
        metrics[f"{layer}_ms"] = (seconds * 1e3 / n, "ms")
    pruned = (
        delta["store.fragments_pruned"]
        + delta["store.plan.fragments_pruned_zonemap"]
    )
    metrics["fragments_visited"] = (delta["store.fragments_visited"] / n, "count")
    metrics["fragments_pruned"] = (pruned / n, "count")
    metrics["bytes_read_kib"] = (delta["fragment.bytes_read"] / 1024 / n, "KiB")
    return metrics
