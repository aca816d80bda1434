"""Format migration: one conversion path, explicit store rewrites.

Every conversion runs through :meth:`~repro.formats.base.EncodedTensor.
convert`'s canonical path (extract_addresses → CanonicalCoords →
build).  :class:`TestConvertRoundTrip` checks it over every ordered pair
of registered organizations; :class:`TestMigrationDifferential` checks
that every explicit store-level migration reads **bit-identically**
before and after — across codecs, planner settings, and store kinds
(including :class:`~repro.storage.sharded.ShardedStore`).
"""

import itertools
import json

import numpy as np
import pytest

from repro.build.canonical import CanonicalCoords
from repro.core import Box, SparseTensor
from repro.formats import available_formats
from repro.formats.base import meta_addr_order
from repro.formats.registry import get_format
from repro.storage import (
    FragmentStore,
    ShardedStore,
    StoreOptions,
    convert_store,
    fsck,
)

SHAPE_3D = (48, 64, 96)
SHAPE_2D = (96, 128)

#: Mixed extents, so CSF's dimension permutation is not the identity.
ROUND_TRIP_SHAPE = (40, 96, 64)

PAIRS = list(itertools.product(available_formats(), repeat=2))


def make_tensor(shape, n, seed=7) -> SparseTensor:
    """``n`` unique random points over ``shape``, canonical order."""
    rng = np.random.default_rng(seed)
    total = int(np.prod(shape))
    addr = np.sort(rng.choice(total, size=n, replace=False)).astype(np.uint64)
    coords = np.stack(np.unravel_index(addr, shape), axis=1).astype(np.uint64)
    return SparseTensor(shape, coords, rng.standard_normal(n))


def round_trip_source(kind: str) -> SparseTensor:
    """The input of one round trip: ``many`` (duplicates included, the
    later write newest), ``single``, ``empty``, or ``alto`` (``many``
    encoded in ALTO order)."""
    if kind == "empty":
        return SparseTensor.empty(ROUND_TRIP_SHAPE)
    if kind == "single":
        return SparseTensor(
            ROUND_TRIP_SHAPE, np.array([[3, 90, 17]], dtype=np.uint64),
            np.array([2.5]),
        )
    rng = np.random.default_rng(7)
    coords = np.column_stack([
        rng.integers(0, m, 600, dtype=np.uint64) for m in ROUND_TRIP_SHAPE
    ])
    coords = np.vstack([coords, coords[:150]])
    return SparseTensor(ROUND_TRIP_SHAPE, coords, rng.standard_normal(750))


def lex_sorted(tensor: SparseTensor) -> tuple[np.ndarray, np.ndarray]:
    order = np.lexsort(tensor.coords.T[::-1])
    return tensor.coords[order], tensor.values[order]


class TestConvertRoundTrip:
    """``EncodedTensor.convert`` over every ordered pair of organizations."""

    @pytest.mark.parametrize("kind", ["many", "single", "empty", "alto"])
    @pytest.mark.parametrize("pair", PAIRS, ids=lambda p: f"{p[0]}->{p[1]}")
    def test_decodes_to_newest_wins(self, pair, kind):
        src_name, dst_name = pair
        tensor = round_trip_source(kind)
        order = "alto" if kind == "alto" else "row_major"
        src_fmt = get_format(src_name)
        enc = src_fmt.encode_canonical(
            CanonicalCoords.from_coords(
                tensor.coords, tensor.shape, addr_order=order
            ),
            tensor.values,
        )
        out = enc.convert(dst_name)
        assert out.fmt.name == dst_name
        assert out.nnz == tensor.nnz  # duplicates are kept, not dropped
        if out.fmt.payload_orders is not None and (
            src_fmt.payload_orders is not None
        ):
            # An order-bearing source's order carries over.
            assert meta_addr_order(out.meta) == order
        want = tensor.deduplicated(keep="last")
        got = out.decode().deduplicated(keep="last")
        want_coords, want_values = lex_sorted(want)
        got_coords, got_values = lex_sorted(got)
        assert np.array_equal(got_coords, want_coords)
        assert np.array_equal(got_values, want_values)
        if want.nnz:
            read = out.read_points(want.coords)
            assert read.found.all()
            assert np.array_equal(read.values, want.values)


class TestMigrationDifferential:
    """Stores read bit-identically before and after a migration."""

    @pytest.mark.parametrize("codec", ["raw", "cascade"])
    @pytest.mark.parametrize("planner", [True, False], ids=["plan", "noplan"])
    def test_store_migration_reads_bit_identical(
        self, tmp_path, codec, planner
    ):
        tensor = make_tensor(SHAPE_3D, 3000)
        opts = StoreOptions(codec=codec, planner=planner)
        store = FragmentStore(tmp_path, SHAPE_3D, "COO-SORTED", options=opts)
        half = tensor.nnz // 2
        store.write(tensor.coords[:half], tensor.values[:half])
        store.write(tensor.coords[half:], tensor.values[half:])

        box = Box((8, 8, 8), (40, 48, 72))
        before_pts = store.read_points(tensor.coords)
        before_box = store.read_box(box)

        for target in ("LINEAR", "GCSR++", "GCSC++", "CSF", "COO-SORTED"):
            migrated = store.migrate_all(target)
            assert migrated, f"nothing migrated to {target}"
            assert all(f.format_name == target for f in store.fragments)
            after_pts = store.read_points(tensor.coords)
            assert after_pts.found.all()
            assert np.array_equal(before_pts.values, after_pts.values)
            after_box = store.read_box(box)
            assert np.array_equal(before_box.coords, after_box.coords)
            assert np.array_equal(before_box.values, after_box.values)

        # The final state survives a reopen under the same options.
        reopened = FragmentStore(
            tmp_path, SHAPE_3D, "COO-SORTED", options=opts
        )
        again = reopened.read_points(tensor.coords)
        assert again.found.all()
        assert np.array_equal(before_pts.values, again.values)

    def test_migration_preserves_newest_wins(self, tmp_path):
        """Overlapping fragments keep their overwrite order through
        migration — the replacement fragment stays in its slot."""
        shape = (32, 32)
        store = FragmentStore(tmp_path, shape, "COO-SORTED")
        coords = np.array([[1, 1], [2, 2], [3, 3]], dtype=np.uint64)
        store.write(coords, np.array([10.0, 20.0, 30.0]))
        store.write(coords[:2], np.array([11.0, 22.0]))  # overwrites
        before = store.read_points(coords)
        assert np.array_equal(before.values, [11.0, 22.0, 30.0])
        store.migrate_fragment(0, "GCSR++")  # migrate the *older* fragment
        after = store.read_points(coords)
        assert np.array_equal(after.values, [11.0, 22.0, 30.0])
        reopened = FragmentStore(tmp_path, shape, "COO-SORTED")
        assert np.array_equal(
            reopened.read_points(coords).values, [11.0, 22.0, 30.0]
        )

    def test_migrate_noop_when_already_target(self, tmp_path):
        tensor = make_tensor(SHAPE_2D, 500)
        store = FragmentStore(tmp_path, SHAPE_2D, "LINEAR")
        store.write_tensor(tensor)
        frag_before = store.fragments[0]
        assert store.migrate_fragment(0, "LINEAR") is None
        assert store.fragments[0] is frag_before

    def test_sharded_store_migration(self, tmp_path):
        tensor = make_tensor(SHAPE_3D, 2400, seed=11)
        store = ShardedStore(tmp_path, SHAPE_3D, "COO-SORTED", n_shards=4)
        store.write(tensor.coords, tensor.values)
        before = store.read_points(tensor.coords)
        assert before.found.all()
        infos = store.migrate_all("GCSR++")
        assert infos and all(f.format_name == "GCSR++" for f in infos)
        after = store.read_points(tensor.coords)
        assert np.array_equal(before.values, after.values)
        reopened = ShardedStore(
            tmp_path, SHAPE_3D, "COO-SORTED", n_shards=4
        )
        again = reopened.read_points(tensor.coords)
        assert again.found.all()
        assert np.array_equal(before.values, again.values)
        assert all(
            f.format_name == "GCSR++" for f in reopened.fragments
        )

    def test_snapshot_pinned_generation_survives_migration(self, tmp_path):
        tensor = make_tensor(SHAPE_2D, 800)
        store = FragmentStore(
            tmp_path, SHAPE_2D, "COO-SORTED",
            options=StoreOptions(retain_generations=2),
        )
        store.write_tensor(tensor)
        snap = store.snapshot()
        store.migrate_fragment(0, "LINEAR")
        out = snap.read_points(tensor.coords)
        assert out.found.all()
        assert np.array_equal(out.values, tensor.values)


class TestConvertStoreWalTail:
    """Satellite: ``convert_store`` must not drop an unpacked WAL tail."""

    def test_pending_tail_reaches_destination(self, tmp_path):
        shape = (64, 64)
        store = FragmentStore(
            tmp_path / "src", shape, "LINEAR",
            options=StoreOptions(wal_segment_bytes=1 << 20),
        )
        base = make_tensor(shape, 400, seed=1)
        store.write_tensor(base)
        tail_coords = np.array([[60, 60], [61, 61], [62, 62]], dtype=np.uint64)
        tail_values = np.array([7.0, 8.0, 9.0])
        store.append(tail_coords, tail_values)
        assert store._wal_tail() is not None and store._wal_tail().n == 3

        dest = convert_store(store, tmp_path / "dst", "GCSR++")
        out = dest.read_points(tail_coords)
        assert out.found.all(), "WAL-tail points missing from conversion"
        assert np.array_equal(out.values, tail_values)
        src_all = store.read_box(Box((0, 0), shape))
        dst_all = dest.read_box(Box((0, 0), shape))
        assert np.array_equal(src_all.coords, dst_all.coords)
        assert np.array_equal(src_all.values, dst_all.values)
        # Source untouched: tail still pending there.
        assert store._wal_tail() is not None and store._wal_tail().n == 3

    def test_tail_overwrite_priority_preserved(self, tmp_path):
        shape = (16, 16)
        store = FragmentStore(tmp_path / "src", shape, "COO-SORTED")
        coords = np.array([[2, 2], [3, 3]], dtype=np.uint64)
        store.write(coords, np.array([1.0, 2.0]))
        store.append(coords[:1], np.array([99.0]))  # tail overwrites (2,2)
        dest = convert_store(store, tmp_path / "dst", "LINEAR")
        out = dest.read_points(coords)
        assert np.array_equal(out.values, [99.0, 2.0])


class TestParentDirectories:
    """Directories written before the migration loop was removed — a
    ``workload.json`` ledger beside the manifest, fragments in several
    organizations, retained generations — open as plain stores."""

    def test_opens_unchanged(self, tmp_path):
        directory = tmp_path / "ds"
        opts = StoreOptions(retain_generations=1)
        tensor = make_tensor(SHAPE_3D, 1500, seed=5)
        store = FragmentStore(directory, SHAPE_3D, "LINEAR", options=opts)
        for part in np.array_split(np.arange(tensor.nnz), 3):
            store.write(tensor.coords[part], tensor.values[part])
        store.write(tensor.coords[:40], tensor.values[:40] + 1.0)
        store.migrate_fragment(1, "CSF")
        store.migrate_fragment(2, "GCSR++")
        assert {f.format_name for f in store.fragments} == {
            "LINEAR", "CSF", "GCSR++",
        }
        assert store._retired  # the migrated-away fragments are retained
        box = Box((4, 8, 16), (30, 40, 60))
        before_pts = store.read_points(tensor.coords)
        before_box = store.read_box(box)
        store.close()
        # The v1 ledger schema, as the migration loop saved it.
        ledger = {"version": 1, "fragments": {
            f.path.name: {
                "point_reads": 12, "box_reads": 3, "points_queried": 600,
                "points_matched": 240, "load_seconds": 0.0125, "writes": 1,
            } for f in store.fragments
        }}
        ledger_path = directory / "workload.json"
        ledger_path.write_text(json.dumps(ledger, indent=1))
        ledger_bytes = ledger_path.read_bytes()

        reopened = FragmentStore(directory, SHAPE_3D, "LINEAR", options=opts)
        assert type(reopened) is FragmentStore
        after_pts = reopened.read_points(tensor.coords)
        assert np.array_equal(after_pts.found, before_pts.found)
        assert np.array_equal(after_pts.values, before_pts.values)
        after_box = reopened.read_box(box)
        assert np.array_equal(after_box.coords, before_box.coords)
        assert np.array_equal(after_box.values, before_box.values)
        report = fsck(directory)
        assert report.clean, report.summary()
        reopened.compact()
        reopened.close()
        assert fsck(directory).clean
        # Never read, never rewritten, never removed.
        assert ledger_path.read_bytes() == ledger_bytes
