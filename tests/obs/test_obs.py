"""Observability layer: metrics primitives, spans, state, thread safety."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.core.costmodel import NULL_COUNTER


@pytest.fixture(autouse=True)
def clean_obs():
    """Each test runs against a fresh, enabled global registry."""
    was_enabled = obs.is_enabled()
    obs.enable()
    obs.reset()
    yield
    obs.reset()
    if was_enabled:
        obs.enable()
    else:
        obs.disable()


class TestMetrics:
    def test_counter_accumulates(self):
        reg = obs.get_registry()
        c = reg.counter("x.bytes", format="COO")
        c.inc()
        c.inc(41)
        assert c.value == 42
        # Same name+labels -> same instance; different labels -> distinct.
        assert reg.counter("x.bytes", format="COO") is c
        assert reg.counter("x.bytes", format="CSF") is not c

    def test_gauge_last_write_wins(self):
        g = obs.get_registry().gauge("util")
        g.set(0.25)
        g.set(0.75)
        assert g.value == 0.75

    def test_histogram_buckets_and_stats(self):
        h = obs.get_registry().histogram("lat", buckets=(0.001, 0.1, 1.0))
        for v in (0.0005, 0.05, 0.5, 5.0):
            h.observe(v)
        d = h.as_dict()
        assert d["count"] == 4
        assert d["bucket_counts"] == [1, 1, 1, 1]
        assert d["min"] == 0.0005 and d["max"] == 5.0
        assert h.mean == pytest.approx(sum((0.0005, 0.05, 0.5, 5.0)) / 4)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            obs.get_registry().histogram("bad", buckets=(1.0, 0.1))

    def test_snapshot_reset_json(self):
        obs.counter_add("a.count", 3)
        obs.gauge_set("a.gauge", 1.5)
        obs.observe("a.lat", 0.01)
        snap = obs.snapshot()
        assert snap["counters"][0]["value"] == 3
        assert snap["gauges"][0]["value"] == 1.5
        assert snap["histograms"][0]["count"] == 1
        # JSON export round-trips.
        assert json.loads(obs.to_json()) == snap
        obs.reset()
        assert obs.snapshot() == {
            "counters": [], "gauges": [], "histograms": [],
        }

    def test_render_table_lists_metrics(self):
        obs.counter_add("bytes.written", 1024, format="LINEAR")
        obs.observe("read.seconds", 0.002, format="LINEAR")
        table = obs.render_table(title="t")
        assert "bytes.written" in table
        assert "format=LINEAR" in table
        assert "1,024" in table


class TestSpans:
    def test_span_records_everything(self):
        with obs.span("op", format="CSF") as sp:
            sp.add_bytes_in(10)
            sp.add_bytes_out(20)
            sp.add_nnz(7)
            sp.ops.charge_comparisons(100)
        reg = obs.get_registry()
        assert reg.counter("op.calls", format="CSF").value == 1
        assert reg.counter("op.bytes_in", format="CSF").value == 10
        assert reg.counter("op.bytes_out", format="CSF").value == 20
        assert reg.counter("op.nnz", format="CSF").value == 7
        assert reg.counter("op.ops.comparisons", format="CSF").value == 100
        h = reg.histogram("op.seconds", format="CSF")
        assert h.count == 1 and h.sum > 0

    def test_span_without_annotations_skips_optional_counters(self):
        with obs.span("bare"):
            pass
        snap = obs.snapshot()
        names = {c["name"] for c in snap["counters"]}
        assert names == {"bare.calls"}

    def test_disabled_span_is_null_and_records_nothing(self):
        obs.disable()
        sp = obs.span("off", format="COO")
        assert sp is obs.NULL_SPAN
        with sp as s:
            s.add_nnz(5)
            assert s.ops is NULL_COUNTER
        obs.enable()
        assert obs.snapshot() == {
            "counters": [], "gauges": [], "histograms": [],
        }

    def test_disabled_helpers_noop(self):
        obs.disable()
        obs.counter_add("c", 1)
        obs.gauge_set("g", 1.0)
        obs.observe("h", 1.0)
        obs.enable()
        assert obs.snapshot()["counters"] == []

    def test_env_parsing(self):
        assert obs.enabled_from_env({}) is True
        assert obs.enabled_from_env({"REPRO_OBS": "1"}) is True
        for off in ("0", "false", "OFF"):
            assert obs.enabled_from_env({"REPRO_OBS": off}) is False


class TestThreadSafety:
    def test_concurrent_counter_and_histogram(self):
        reg = obs.get_registry()
        n_threads, n_iter = 8, 5000

        def work(i: int) -> None:
            for _ in range(n_iter):
                reg.counter("t.count").inc()
                reg.histogram("t.lat").observe(1e-4)
                # get-or-create races on a per-thread label too
                reg.counter("t.mine", thread=i).inc()

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("t.count").value == n_threads * n_iter
        assert reg.histogram("t.lat").count == n_threads * n_iter
        for i in range(n_threads):
            assert reg.counter("t.mine", thread=i).value == n_iter

    def test_write_many_records_what_write_records(self, tmp_path):
        """Pool threads record into the shared registry: write_many leaves
        the counts a loop of write leaves, part for part.  The one
        difference is the ``commit_end`` marker in each batch file's
        header, and the byte counters grow by exactly its bytes."""
        from repro import FragmentStore
        from repro.storage.serialization import unpack_header

        rng = np.random.default_rng(7)
        shape = (64, 64)
        parts = []
        for _ in range(8):
            coords = np.column_stack([
                rng.integers(0, 64, size=200, dtype=np.uint64)
                for _ in range(2)
            ])
            parts.append((coords, rng.random(200)))

        def recorded(name, write):
            obs.reset()
            write(FragmentStore(tmp_path / name, shape, "LINEAR"))
            snap = obs.snapshot()
            key = lambda m: (m["name"], json.dumps(m["labels"], sort_keys=True))
            return (
                {key(c): c["value"] for c in snap["counters"]},
                {key(h): h["count"] for h in snap["histograms"]},
            )

        def header_nbytes(name):
            return [
                unpack_header(path.read_bytes())[1]
                for path in sorted((tmp_path / name).glob("frag-*.bin"))
            ]

        loop = recorded("loop", lambda s: [s.write(c, v) for c, v in parts])
        batch = recorded("batch", lambda s: s.write_many(parts, max_workers=4))
        inline = recorded(
            "inline", lambda s: s.write_many(parts, max_workers=0)
        )
        assert batch == inline
        marker = sum(header_nbytes("batch")) - sum(header_nbytes("loop"))
        assert 0 < marker <= 24 * len(parts)
        for key in (
            ("fragment.bytes_written", '{"format": "LINEAR"}'),
            ("fragment.file_nbytes", "{}"),
            ("fragment.write.bytes_out", '{"format": "LINEAR"}'),
        ):
            assert batch[0].pop(key) - loop[0].pop(key) == marker
        assert batch == loop
        counters, histograms = batch
        assert counters[("store.write.calls", '{"format": "LINEAR"}')] == 8
        for phase in ("build", "reorg", "write_io"):
            name = f"store.{phase}.seconds"
            assert histograms[(name, '{"format": "LINEAR"}')] == 8


class TestInstrumentation:
    """End-to-end: the production paths feed the registry."""

    def test_store_roundtrip_populates_metrics(self, tmp_path):
        from repro import Box, FragmentStore

        rng = np.random.default_rng(3)
        store = FragmentStore(tmp_path / "s", (64, 64, 64), "LINEAR")
        low = rng.integers(0, 32, size=(500, 3)).astype(np.uint64)
        high = rng.integers(32, 64, size=(500, 3)).astype(np.uint64)
        store.write(low, rng.random(500))
        store.write(high, rng.random(500))
        store.read_points(low[:100])
        store.read_box(Box((0, 0, 0), (16, 16, 16)))
        reg = obs.get_registry()
        assert reg.counter("fragment.bytes_written", format="LINEAR").value > 0
        assert reg.counter("store.fragments_pruned").value >= 2
        assert reg.counter("store.fragments_visited").value >= 2
        assert reg.histogram("format.read.seconds", format="LINEAR").count >= 1
        assert reg.gauge("fragment.compression_ratio").value > 0

    def test_faithful_read_ops_reach_registry(self, tmp_path):
        from repro import FragmentStore, ReadOptions

        store = FragmentStore(tmp_path / "s", (16, 16), "COO")
        coords = np.array([[1, 2], [3, 4], [5, 6]], dtype=np.uint64)
        store.write(coords, np.ones(3))
        store.read_points(coords, options=ReadOptions(faithful=True))
        reg = obs.get_registry()
        ops = reg.counter(
            "store.read_points.ops.comparisons", format="COO"
        ).value
        assert ops > 0  # Table-I op accounting shares the span report path

    def test_migration_counted(self, tmp_path):
        from repro import FragmentStore

        store = FragmentStore(tmp_path / "m", (32, 32), "LINEAR")
        coords = np.array([[1, 2], [3, 4]], dtype=np.uint64)
        store.write(coords, np.ones(2))
        assert store.migrate_fragment(0, "LINEAR") is None
        store.migrate_fragment(0, "CSF")
        reg = obs.get_registry()
        assert reg.counter("store.migrate.noop", format="LINEAR").value == 1
        assert reg.counter(
            "store.migrate.fragments", src="LINEAR", dst="CSF"
        ).value == 1
