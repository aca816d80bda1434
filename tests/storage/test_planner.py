"""Read-side query planner: zone maps, spatial index, plan execution."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core.boundary import Box
from repro.core.errors import ShapeError
from repro.storage import (
    ZONE_HIST_BUCKETS,
    FragmentIndex,
    FragmentStore,
    QueryPlan,
    StoreOptions,
    ZoneMap,
)
from repro.storage.durability import load_manifest
from repro.storage.sharded import ShardedStore


@pytest.fixture(autouse=True)
def clean_obs():
    was_enabled = obs.is_enabled()
    obs.enable()
    obs.reset()
    yield
    obs.reset()
    if was_enabled:
        obs.enable()
    else:
        obs.disable()


def _counter(name: str) -> int:
    return sum(
        c["value"] for c in obs.snapshot()["counters"] if c["name"] == name
    )


def _band_store(tmp_path, *, n_fragments=8, points=64, seed=0, options=None):
    """Disjoint-row-band LINEAR store; returns (store, per-band coords)."""
    shape = (n_fragments * 16, 64)
    rng = np.random.default_rng(seed)
    store = FragmentStore(tmp_path / "ds", shape, "LINEAR", options=options)
    bands = []
    for i in range(n_fragments):
        rows = rng.integers(i * 16, (i + 1) * 16, size=points,
                            dtype=np.uint64)
        cols = rng.integers(0, 64, size=points, dtype=np.uint64)
        coords = np.column_stack([rows, cols])
        store.write(coords, rng.random(points))
        bands.append(coords)
    return store, bands


class TestZoneMap:
    def test_empty_addresses_yield_no_zone(self):
        assert ZoneMap.from_addresses(np.empty(0, dtype=np.uint64)) is None

    def test_single_address(self):
        zm = ZoneMap.from_addresses(np.array([42], dtype=np.uint64))
        assert zm.addr_min == zm.addr_max == 42
        assert sum(zm.hist) == 1
        assert zm.may_contain_any(np.array([42], dtype=np.uint64))
        assert not zm.may_contain_any(np.array([41, 43], dtype=np.uint64))

    def test_sorted_and_unsorted_agree(self):
        a = np.array([9, 3, 77, 3, 50], dtype=np.uint64)
        zm = ZoneMap.from_addresses(a)
        zs = ZoneMap.from_addresses(np.sort(a), assume_sorted=True)
        assert zm == zs
        assert sum(zm.hist) == a.size

    def test_json_round_trip(self):
        zm = ZoneMap.from_addresses(np.arange(100, dtype=np.uint64))
        assert ZoneMap.from_json(zm.to_json()) == zm
        assert json.loads(json.dumps(zm.to_json())) == zm.to_json()

    @pytest.mark.parametrize("bad", [
        None, "garbage", 7, [], {"addr_min": 0},
        {"addr_min": "x", "addr_max": 3, "hist": []},
        {"addr_min": 0, "addr_max": 3, "hist": ["x"]},
    ])
    def test_from_json_tolerates_malformed(self, bad):
        assert ZoneMap.from_json(bad) is None

    def test_overlaps_range(self):
        # Points clustered at both ends; the middle buckets are empty.
        a = np.concatenate([
            np.arange(0, 10, dtype=np.uint64),
            np.arange(1590, 1600, dtype=np.uint64),
        ])
        zm = ZoneMap.from_addresses(a)
        assert zm.overlaps_range(0, 5)
        assert zm.overlaps_range(1595, 10_000)
        assert not zm.overlaps_range(1700, 1800)  # beyond addr_max
        assert not zm.overlaps_range(700, 800)    # empty middle bucket
        width = zm.bucket_width
        assert width == -(-1600 // ZONE_HIST_BUCKETS)

    def test_may_contain_any_clips_to_range(self):
        zm = ZoneMap.from_addresses(np.arange(100, 200, dtype=np.uint64))
        assert not zm.may_contain_any(np.empty(0, dtype=np.uint64))
        assert not zm.may_contain_any(np.array([0, 99], dtype=np.uint64))
        assert not zm.may_contain_any(np.array([201, 500], dtype=np.uint64))
        assert zm.may_contain_any(np.array([0, 150, 500], dtype=np.uint64))

    def test_huge_addresses_do_not_overflow(self):
        # Near the top of the uint64 address space: span math must run in
        # arbitrary precision, bucketing in uint64.
        top = np.iinfo(np.uint64).max
        a = np.array([0, top - 1, top], dtype=np.uint64)
        zm = ZoneMap.from_addresses(a)
        assert zm.addr_min == 0 and zm.addr_max == int(top)
        assert zm.bucket_width > 0
        assert zm.may_contain_any(np.array([top - 1], dtype=np.uint64))
        assert zm.overlaps_range(top - 2, top)
        rt = ZoneMap.from_json(zm.to_json())
        assert rt == zm


@dataclass
class _Frag:
    bbox: Box
    nnz: int = 1
    zone: ZoneMap | None = None


class TestFragmentIndex:
    def test_matches_linear_intersects_scan(self):
        rng = np.random.default_rng(1)
        frags = []
        for _ in range(64):
            origin = rng.integers(0, 96, size=3)
            size = rng.integers(0, 16, size=3)  # includes empty boxes
            frags.append(_Frag(Box(tuple(origin), tuple(size))))
        index = FragmentIndex(frags)
        for _ in range(64):
            origin = rng.integers(0, 96, size=3)
            size = rng.integers(0, 32, size=3)
            q = Box(tuple(origin), tuple(size))
            expected = [
                i for i, f in enumerate(frags) if f.bbox.intersects(q)
            ]
            assert index.candidates(q).tolist() == expected

    def test_empty_inputs(self):
        assert len(FragmentIndex([])) == 0
        assert FragmentIndex([]).candidates(Box((0,), (4,))).size == 0
        index = FragmentIndex([_Frag(Box((0, 0), (4, 4)))])
        assert index.candidates(Box((0, 0), (0, 4))).size == 0

    def test_stale_zone_count(self):
        zm = ZoneMap.from_addresses(np.arange(4, dtype=np.uint64))
        frags = [
            _Frag(Box((0,), (4,)), nnz=4, zone=None),    # stale
            _Frag(Box((4,), (4,)), nnz=4, zone=zm),      # has zone
            _Frag(Box((0,), (8,)), nnz=0, zone=None),    # empty: not stale
        ]
        assert FragmentIndex(frags).stale_zone_count == 1


class TestStorePlanning:
    def test_scattered_points_prune_by_zone(self, tmp_path):
        store, bands = _band_store(tmp_path)
        queries = np.vstack([bands[0][:8], bands[7][:8]])
        plan = store.explain(queries)
        # The batch bbox spans every band, so bbox pruning gets nothing;
        # zone maps cut the visit list to the two touched bands.
        assert plan.kind == "points"
        assert plan.total_fragments == 8
        assert plan.pruned_bbox == 0
        assert plan.used_index and plan.used_zonemaps
        assert len(plan.fragments) == 2
        assert plan.pruned_zonemap == 6
        out = store.read_points(queries)
        assert out.found.all()
        assert out.fragments_visited == 2

    def test_plan_on_off_results_identical(self, tmp_path):
        store_on, bands = _band_store(tmp_path)
        store_off = FragmentStore(
            tmp_path / "ds", store_on.shape, "LINEAR",
            options=StoreOptions(planner=False),
        )
        queries = np.vstack([b[:4] for b in bands])
        a = store_on.read_points(queries)
        b = store_off.read_points(queries)
        np.testing.assert_array_equal(a.found, b.found)
        np.testing.assert_array_equal(a.values, b.values)
        box = Box((8, 0), (24, 64))
        ta = store_on.read_box(box)
        tb = store_off.read_box(box)
        np.testing.assert_array_equal(ta.coords, tb.coords)
        np.testing.assert_array_equal(ta.values, tb.values)

    def test_box_plan_uses_index(self, tmp_path):
        store, _ = _band_store(tmp_path)
        plan = store.explain(Box((0, 0), (16, 64)))
        assert plan.kind == "box"
        assert plan.used_index
        assert len(plan.fragments) == 1
        assert "bbox-index" in plan.summary()

    def test_explain_empty_and_invalid_queries(self, tmp_path):
        store, _ = _band_store(tmp_path, n_fragments=2)
        plan = store.explain(np.empty((0, 2), dtype=np.uint64))
        assert isinstance(plan, QueryPlan)
        assert plan.fragments == [] and plan.total_fragments == 2
        with pytest.raises(ShapeError):
            store.explain(np.zeros((3, 5), dtype=np.uint64))

    def test_box_with_wrong_ndim_rejected(self, tmp_path):
        """A box whose mode count differs from the store's raises, as a
        point query of the wrong width does — never cut down or padded."""
        store, bands = _band_store(tmp_path, n_fragments=2)
        store.append(bands[0][:4], np.ones(4))  # a WAL tail to overlay
        sharded = ShardedStore(
            tmp_path / "sharded", store.shape, "LINEAR", n_shards=2
        )
        sharded.write(np.vstack(bands), np.ones(128))
        views = [store, store.snapshot(), sharded, sharded.snapshot()]
        for box in (Box((0, 0, 0), (4, 4, 4)), Box((0,), (4,))):
            for view in views:
                with pytest.raises(ShapeError):
                    view.read_box(box)
            for planned in (store, sharded):
                with pytest.raises(ShapeError):
                    planned.explain(box)
        for view in views[1::2]:
            view.close()

    def test_plan_off_explain_is_seed_scan(self, tmp_path):
        store, bands = _band_store(
            tmp_path, n_fragments=4, options=StoreOptions(planner=False)
        )
        plan = store.explain(np.vstack([bands[0][:4], bands[3][:4]]))
        assert not plan.used_index and not plan.used_zonemaps
        assert plan.pruned_zonemap == 0
        # Spanning batch bbox -> the seed scan keeps every fragment.
        assert len(plan.fragments) == 4
        assert "bbox-scan" in plan.summary()

    def test_index_rebuilds_once_per_generation(self, tmp_path):
        store, bands = _band_store(tmp_path, n_fragments=4)
        store.read_points(bands[0][:4])
        store.read_points(bands[1][:4])
        assert _counter("store.plan.index_rebuilds") == 1
        store.write(bands[0][:4], np.ones(4))  # generation bump
        store.read_points(bands[0][:4])
        assert _counter("store.plan.index_rebuilds") == 2

    def test_snapshot_reads_keep_the_store_index(self, tmp_path):
        """A snapshot plans with its own pinned index, so alternating
        store and snapshot reads rebuild nothing after the first of each
        — even once the store has moved past the snapshot's generation."""
        store, bands = _band_store(tmp_path, n_fragments=4)
        snap = store.snapshot()
        store.write(bands[2][:4], np.ones(4))  # store moves on
        for view in (store, snap):
            view.read_points(bands[0][:4])
        rebuilds = _counter("store.plan.index_rebuilds")
        assert rebuilds == 2
        for _ in range(3):
            for view in (store, snap):
                out = view.read_points(bands[1][:4])
                assert out.found.all()
                assert out.fragments_visited == 1
        assert _counter("store.plan.index_rebuilds") == rebuilds
        snap.close()

    def test_pruning_counters_split(self, tmp_path):
        store, bands = _band_store(tmp_path, n_fragments=4)
        # One band's points: bbox stage prunes the other 3 bands; the
        # zone stage has nothing left to prune.
        store.read_points(bands[2][:8])
        assert _counter("store.fragments_pruned") == 3
        assert _counter("store.plan.fragments_pruned_index") == 3
        assert _counter("store.plan.fragments_pruned_zonemap") == 0
        # Scattered batch: bbox prunes nothing, zones prune 2 of 4.
        store.read_points(np.vstack([bands[0][:8], bands[3][:8]]))
        # Unchanged: store.fragments_pruned counts bbox prunes only.
        assert _counter("store.fragments_pruned") == 3
        assert _counter("store.plan.fragments_pruned_zonemap") == 2

    def test_invalid_crc_mode_rejected(self, tmp_path):
        """``crc_mode`` is gone: every load verifies the CRC."""
        with pytest.raises(TypeError):
            StoreOptions(crc_mode="once")


class TestBackfill:
    def _strip_zones(self, directory: Path) -> None:
        """Rewrite the manifest as a pre-planner (v1) store would have:
        one ``manifest.json`` without zone maps, and no manifest log."""
        manifest = load_manifest(directory).doc
        manifest.pop("version", None)
        for entry in manifest["fragments"]:
            entry.pop("zone", None)
        (directory / "manifest.json").write_text(json.dumps(manifest))
        (directory / "manifest.log").unlink()

    def test_v1_manifest_backfilled_and_persisted(self, tmp_path):
        store, bands = _band_store(tmp_path, n_fragments=4)
        self._strip_zones(store.directory)
        reopened = FragmentStore(tmp_path / "ds", store.shape, "LINEAR")
        assert all(f.zone is None for f in reopened.fragments)
        out = reopened.read_points(bands[1][:8])
        assert out.found.all()
        assert all(f.zone is not None for f in reopened.fragments)
        assert _counter("store.plan.zone_backfilled") == 4
        # Persisted: a third open sees v2 zones without re-backfilling.
        manifest = load_manifest(store.directory).doc
        assert manifest["version"] == 2
        assert all(e["zone"] for e in manifest["fragments"])
        third = FragmentStore(tmp_path / "ds", store.shape, "LINEAR")
        assert all(f.zone is not None for f in third.fragments)

    def test_backfill_runs_once_per_load(self, tmp_path):
        store, bands = _band_store(tmp_path, n_fragments=2)
        self._strip_zones(store.directory)
        reopened = FragmentStore(tmp_path / "ds", store.shape, "LINEAR")
        assert reopened.backfill_zone_maps() == 2
        assert reopened.backfill_zone_maps() == 0  # idempotent
        reopened.read_points(bands[0][:4])
        assert _counter("store.plan.zone_backfilled") == 2

    def test_plan_off_store_leaves_v1_manifest_alone(self, tmp_path):
        store, bands = _band_store(tmp_path, n_fragments=2)
        self._strip_zones(store.directory)
        off = FragmentStore(
            tmp_path / "ds", store.shape, "LINEAR",
            options=StoreOptions(planner=False),
        )
        assert off.read_points(bands[0][:4]).found.all()
        manifest = json.loads(
            (store.directory / "manifest.json").read_text()
        )
        assert "version" not in manifest  # no surprise schema upgrade


class TestCrcMemoAndLazy:
    def test_eager_mode_never_memoizes(self, tmp_path, monkeypatch):
        """Every load verifies the CRC, repeat loads of one fragment too."""
        from repro.storage import serialization

        checked = []
        real = serialization.verify_crc

        def spy(data):
            checked.append(len(data))
            real(data)

        monkeypatch.setattr(serialization, "verify_crc", spy)
        store, bands = _band_store(tmp_path, n_fragments=2)
        store.read_points(bands[0][:8])
        store.read_points(bands[0][:8])
        assert len(checked) == 2  # one planned fragment, loaded twice
