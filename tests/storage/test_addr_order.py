"""Store-level behavior of the persisted address order.

The serialization/compat side is pinned by the differential suite
(``tests/property/test_differential.py::TestAddressOrderDifferential``)
and the crash suite; this file covers the lifecycle contracts:
option resolution and adoption on reopen, the ``set_addr_order``
migration, plan explainability, the codec-advisor diagnostics, and the sharded store's
order-pinned banding.
"""

import numpy as np
import pytest

from repro.core.boundary import Box
from repro.core.errors import ManifestError, ShapeError
from repro.core.tensor import SparseTensor
from repro.storage import FragmentStore, StoreOptions
from repro.storage.compression import advise_buffer
from repro.storage.sharded import ShardedStore
from repro.testing import oracle_read_box

SHAPE = (32, 16, 8)


def sample(n=200, seed=0):
    rng = np.random.default_rng(seed)
    coords = np.column_stack(
        [rng.integers(0, m, size=n) for m in SHAPE]
    ).astype(np.uint64)
    return coords, rng.standard_normal(n)


class TestOptionResolution:
    def test_unknown_order_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            FragmentStore(
                tmp_path / "ds", SHAPE, "LINEAR",
                options=StoreOptions(addr_order="hilbert"),
            )

    def test_fresh_store_defaults_to_row_major(self, tmp_path):
        store = FragmentStore(tmp_path / "ds", SHAPE, "LINEAR")
        assert store.addr_order == "row_major"

    def test_reopen_adopts_committed_order(self, tmp_path):
        coords, values = sample()
        store = FragmentStore(
            tmp_path / "ds", SHAPE, "COO-SORTED",
            options=StoreOptions(addr_order="alto"),
        )
        store.write(coords, values)
        reopened = FragmentStore(tmp_path / "ds", SHAPE, "COO-SORTED")
        assert reopened.addr_order == "alto"

    def test_overflowing_shape_rejected_for_alto(self, tmp_path):
        wide = (1 << 22, 1 << 22, 1 << 22)  # 66 interleaved bits
        with pytest.raises(ShapeError):
            FragmentStore(
                tmp_path / "ds", wide, "CSF",
                options=StoreOptions(addr_order="alto"),
            )
        # ...but stays fine under the row-major default (CSF needs no
        # linear address; the other organizations reject the shape).
        FragmentStore(tmp_path / "ok", wide, "CSF")


class TestSetAddrOrder:
    def test_round_trip_migration(self, tmp_path):
        coords, values = sample(seed=1)
        store = FragmentStore(tmp_path / "ds", SHAPE, "COO-SORTED")
        for chunk in np.array_split(np.arange(coords.shape[0]), 3):
            store.write(coords[chunk], values[chunk])
        before = store.read_points(coords)

        changed = store.set_addr_order("alto")
        assert changed == len(store.fragments) == 3
        assert all(f.addr_order == "alto" for f in store.fragments)
        manifest = (tmp_path / "ds" / "manifest.json").read_text()
        assert '"addr_order": "alto"' in manifest
        out = store.read_points(coords)
        np.testing.assert_array_equal(out.found, before.found)
        np.testing.assert_array_equal(out.values, before.values)

        # Migrating back retires every trace of the non-default order.
        assert store.set_addr_order("row_major") == 3
        manifest = (tmp_path / "ds" / "manifest.json").read_text()
        assert "addr_order" not in manifest
        out = store.read_points(coords)
        np.testing.assert_array_equal(out.values, before.values)

    def test_idempotent(self, tmp_path):
        coords, values = sample(seed=2)
        store = FragmentStore(tmp_path / "ds", SHAPE, "LINEAR")
        store.write(coords, values)
        assert store.set_addr_order("row_major") == 0


class TestExplain:
    def test_summary_reports_order_and_intervals(self, tmp_path):
        coords, values = sample(seed=4)
        store = FragmentStore(
            tmp_path / "ds", SHAPE, "COO-SORTED",
            options=StoreOptions(addr_order="alto"),
        )
        store.write(coords, values)
        plan = store.explain(Box((0, 0, 0), (8, 8, 8)))
        text = plan.summary()
        assert "order: alto" in text
        assert "intervals: alto=" in text
        point_plan = store.explain(coords[:4])
        assert "order: alto" in point_plan.summary()

    def test_row_major_summary(self, tmp_path):
        coords, values = sample(seed=5)
        store = FragmentStore(tmp_path / "ds", SHAPE, "COO-SORTED")
        store.write(coords, values)
        text = store.explain(Box((0, 0, 0), (8, 8, 8))).summary()
        assert "order: row_major" in text
        # Mode 2 is covered whole and folds into each interval; mode 1 is
        # covered in part, so each of the box's 8 mode-0 cells is one.
        assert "intervals: row_major=8" in text


class TestCodecAdvisorDiagnostics:
    def test_advice_carries_residual_diagnostics(self):
        # Sorted row-major addresses: near-constant deltas — dbp/drle
        # territory; the advice must expose the residual width and run
        # count it costed, so ALTO-vs-row-major codec choices are
        # explainable.
        arr = np.arange(0, 4096, 4, dtype=np.uint64)
        advice = advise_buffer(arr)
        assert advice.width_bits >= 0
        assert advice.n_runs >= 1
        assert advice.chain  # some cascade was chosen
        assert advice.candidate_sizes  # the byte counts it keyed on

    def test_alto_addresses_still_compress(self):
        from repro.core.linearize import linearize_alto

        rng = np.random.default_rng(6)
        coords = np.column_stack(
            [rng.integers(0, m, size=512) for m in (64, 64, 64)]
        ).astype(np.uint64)
        addrs = np.sort(linearize_alto(coords, (64, 64, 64)))
        advice = advise_buffer(addrs)
        # Interleaved residuals are wider than row-major ones, but the
        # advisor still quantifies them rather than bailing out.
        assert advice.width_bits > 0
        assert advice.n_runs > 0


class TestShardedOrder:
    def test_children_pinned_and_bands_in_order_space(self, tmp_path):
        coords, values = sample(n=400, seed=7)
        store = ShardedStore(
            tmp_path / "sh", SHAPE, "COO-SORTED", n_shards=4,
            options=StoreOptions(addr_order="alto"),
        )
        store.write(coords, values)
        assert store.addr_order == "alto"
        from repro.core.linearize import address_space_size

        assert store._cells == address_space_size(SHAPE, "alto")
        assert store.shards[-1].addr_hi == store._cells
        assert len(store.fragments) == len(store.shards)
        for frag in store.fragments:
            assert frag.addr_order == "alto"
        out = store.read_points(coords)
        assert out.found.all()
        # Four ALTO bands of a 64^3 shape split on the top bits of modes
        # 0 and 1, so band order is not row-major order: box reads of the
        # store and of its snapshot must still come back address-sorted.
        shape = (64, 64, 64)
        rng = np.random.default_rng(7)
        cells = rng.integers(0, 64, size=(20_000, 3)).astype(np.uint64)
        cell_values = rng.standard_normal(20_000)
        banded = ShardedStore(
            tmp_path / "banded", shape, "LINEAR", n_shards=4,
            options=StoreOptions(addr_order="alto"),
        )
        banded.write(cells, cell_values)
        tensor = SparseTensor(shape, cells, cell_values).deduplicated(
            keep="last"
        )
        box = Box((10, 10, 10), (40, 40, 40))
        want = oracle_read_box(tensor, box)
        snap = banded.snapshot()
        for view in (banded, snap):
            got = view.read_box(box)
            np.testing.assert_array_equal(got.coords, want.coords)
            np.testing.assert_array_equal(got.values, want.values)
        snap.close()

    def test_conflicting_reopen_rejected(self, tmp_path):
        store = ShardedStore(
            tmp_path / "sh", SHAPE, "LINEAR", n_shards=2,
            options=StoreOptions(addr_order="alto"),
        )
        coords, values = sample(n=50, seed=8)
        store.write(coords, values)
        with pytest.raises(ManifestError):
            ShardedStore(
                tmp_path / "sh", SHAPE, "LINEAR", n_shards=2,
                options=StoreOptions(addr_order="row_major"),
            )
        # Adoption (no explicit order) is always allowed.
        adopted = ShardedStore(tmp_path / "sh", SHAPE, "LINEAR", n_shards=2)
        assert adopted.addr_order == "alto"
        assert adopted.read_points(coords).found.all()
