"""StoreOptions / ReadOptions: validation and acceptance by every store."""

import dataclasses

import numpy as np
import pytest

from repro import (
    BlockedDataset,
    FragmentStore,
    ReadOptions,
    ShardedStore,
    StoreOptions,
)

SHAPE = (16, 16, 16)


def make_coords(rng, n=64):
    return rng.integers(0, 16, size=(n, 3)).astype(np.uint64)


class TestStoreOptions:
    def test_defaults(self):
        opts = StoreOptions()
        assert opts.relative_coords is False
        assert opts.fsync is False
        assert opts.codec is None
        assert opts.on_corruption == "raise"
        assert opts.cache_bytes == 0
        assert opts.planner is True
        assert len(dataclasses.fields(StoreOptions)) == 10

    def test_removed_fields_rejected(self):
        for removed in (
            {"lazy_load": True}, {"retry": None}, {"crc_mode": "once"},
            {"wal_pack_interval": 0.05}, {"migrate": "off"},
        ):
            with pytest.raises(TypeError):
                StoreOptions(**removed)

    def test_auto_addr_order_rejected(self):
        # The order changes only through set_addr_order.
        with pytest.raises(ValueError, match="'row_major', 'alto'"):
            StoreOptions(addr_order="auto")
        for order in (None, "row_major", "alto"):
            assert StoreOptions(addr_order=order).addr_order == order

    def test_frozen(self):
        opts = StoreOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.fsync = True

    def test_replace(self):
        opts = StoreOptions().replace(fsync=True, cache_bytes=4096)
        assert opts.fsync is True
        assert opts.cache_bytes == 4096
        assert opts.codec is None  # untouched fields keep defaults

    def test_validation(self):
        with pytest.raises(ValueError):
            StoreOptions(on_corruption="explode")
        with pytest.raises(ValueError):
            StoreOptions(cache_bytes=-1)

    def test_bad_codec_rejected_by_store(self, tmp_path):
        with pytest.raises(Exception):
            FragmentStore(tmp_path / "s", SHAPE, "COO",
                          options=StoreOptions(codec="no-such-codec"))


class TestReadOptions:
    def test_defaults(self):
        ropts = ReadOptions()
        assert ropts.faithful is False
        assert [f.name for f in dataclasses.fields(ReadOptions)] == [
            "faithful"
        ]

    def test_removed_fields_rejected(self):
        # Every load verifies its CRC, and every read runs inline.
        for removed in (
            {"check_crc": False}, {"parallel": "none"}, {"max_workers": 2},
        ):
            with pytest.raises(TypeError):
                ReadOptions(**removed)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ReadOptions().faithful = True

    def test_validation(self):
        # No fan-out mode is left to validate: the field is unknown.
        with pytest.raises(TypeError):
            ReadOptions(parallel="fibers")


class TestStoresAcceptOptions:
    def test_fragment_store(self, tmp_path):
        rng = np.random.default_rng(0)
        store = FragmentStore(
            tmp_path / "s", SHAPE, "LINEAR",
            options=StoreOptions(cache_bytes=1 << 20, planner=False),
        )
        assert store.options.cache_bytes == 1 << 20
        assert store.use_planner is False
        coords = make_coords(rng)
        store.write(coords, np.ones(len(coords)))
        out = store.read_points(coords[:8], options=ReadOptions(faithful=True))
        assert out.found.all()

    def test_store_options_codec_adoption(self, tmp_path):
        store = FragmentStore(tmp_path / "s", SHAPE, "COO",
                              options=StoreOptions(codec="zlib"))
        assert store.codec == "zlib"
        assert store.options.codec == "zlib"
        # codec=None on reopen adopts the manifest codec.
        reopened = FragmentStore(tmp_path / "s", SHAPE, "COO")
        assert reopened.codec == "zlib"

    def test_blocked_dataset(self, tmp_path):
        ds = BlockedDataset(tmp_path / "b", SHAPE, (8, 8, 8), "COO",
                            options=StoreOptions(cache_bytes=1024))
        assert ds.store.cache.max_bytes == 1024
        # BlockedDataset always stores relative coords regardless of options.
        assert ds.store.relative_coords is True

    def test_sharded_store(self, tmp_path):
        store = ShardedStore(tmp_path / "sh", SHAPE, "LINEAR", n_shards=2,
                             options=StoreOptions(cache_bytes=1 << 20))
        assert store.options.cache_bytes == 1 << 20

    def test_sharded_rejects_relative_coords(self, tmp_path):
        with pytest.raises(Exception):
            ShardedStore(tmp_path / "sh", SHAPE, "LINEAR",
                         options=StoreOptions(relative_coords=True))
