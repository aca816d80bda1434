"""The workloads: what the stores hold and which requests run against them.

Every workload is a closed loop with one client: the next request is sent
when the previous one has returned.  All inputs, the request sequence
included, are drawn from the seed before anything is timed, so two
commits run with one seed see identical requests.  Stores keep the
program's default options (no fsync, no fragment cache) unless a workload
names one, so every read loads its fragments from the page cache as the
paper's READ (Algorithm 3) does.

Where each request shape comes from:

point_lookup
    The paper's Fig 5 read: batches of 1024 distinct cells (the
    repository's default-scale query sample) drawn from the region at
    (m/2, ...) of size (m/10, ...), against a 3D MSP dataset at the
    repository's default scale (192^3, Table II pattern) held seven ways
    and taken in turn: a FragmentStore in each of the paper's five
    organizations, a 4-shard ShardedStore (LINEAR) and a snapshot of the
    LINEAR store.
box_scan
    Range reads over three stores, taken in turn.  A 2D TSP store
    (2048^2, Table II density 1.67 %, GCSR++, cascade codec) and a 4D GSP
    store (64^4, Table II density 0.90 %, LINEAR, cascade codec) get the
    Fig 5 region box, size m/10 per mode, with its start moved along the
    main diagonal (Fig 5's own start, m/2, is one such point).  A 3D store
    in the ALTO address order gets the skewed boxes and layout of
    ``benchmarks/bench_alto.py``: shape 1024 x 256 x 64, 256 fragments of
    600 uniform points loaded as consecutive runs of the ALTO order, boxes
    1/4 of the leading mode by 1/16 of each late mode (at least 4 cells)
    at uniform origins.
ingest_mixed
    The ingest of ``benchmarks/bench_wal_ingest.py``: uniform cells of a
    2^16 x 2^16 LINEAR store appended through the WAL in chunks of 100
    points, then packed.  One request is one epoch on a fresh copy of the
    same compacted base store: 8 pack cycles of 8 chunks, one query batch
    of 1024 cells (half appended this epoch, half uniform) before the last
    pack, and a compaction at the end.  Every request therefore includes
    appends, WAL-tail reads, packs and a compaction, and the store does
    not grow with the speed of the machine.

Free choices, backed by no source: the layering of the row-major stores
(16 address-range fragments, then 2 fragments of scattered updates, then
an unpacked WAL tail of 2 appends), the codecs named above, the base
store of ingest_mixed (25 600 points), its 8 chunks per pack and 8 packs
per compaction, and the read batch inside an epoch.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from data import (
    Oracle, alto_key, cell_count, distinct, fig5_region, gsp, msp, tsp,
    unravel,
)

from repro.core.boundary import Box
from repro.storage import FragmentStore, ShardedStore, StoreOptions


@dataclass
class Request:
    """One timed call and the check of what it returned."""

    call: Callable[[], object]
    check: Callable[[object], bool]


def dir_bytes(path: Path) -> int:
    """Bytes of every file under ``path``: fragments, manifests, WAL."""
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def points_check(found: np.ndarray, values: np.ndarray) -> Callable:
    """Check a ``read_points`` outcome against the oracle's answer."""

    def check(out) -> bool:
        return bool(
            np.array_equal(out.found, found)
            and np.array_equal(out.values, values)
        )

    return check


def box_check(coords: np.ndarray, values: np.ndarray) -> Callable:
    """Check a ``read_box`` outcome against the oracle's answer."""

    def check(out) -> bool:
        return bool(
            np.array_equal(out.coords, coords)
            and np.array_equal(out.values, values)
        )

    return check


def region_sample(shape, origin, size, n: int, rng) -> np.ndarray:
    """Row-major addresses of ``n`` distinct cells of a box."""
    local = distinct(cell_count(size), n, rng)
    cells = np.column_stack(np.unravel_index(local, tuple(size))) + origin
    return np.ravel_multi_index(tuple(cells.T), shape).astype(np.int64)


@dataclass
class Layout:
    """A store's contents as the write batches that produce them."""

    oracle: Oracle
    writes: list = field(default_factory=list)  # one fragment each
    appends: list = field(default_factory=list)  # left unpacked in the WAL

    @classmethod
    def layered(cls, shape, addrs: np.ndarray, rng) -> "Layout":
        """``addrs`` as 16 address-range fragments; then 2 fragments that
        each overwrite 5 % of the stored keys; then 2 WAL appends of 256
        overwrites and 256 random cells each."""
        layout = cls(Oracle.empty(shape))
        for part in np.array_split(addrs, 16):
            layout.add(layout.writes, part, rng)
        for _ in range(2):
            stored = layout.oracle.addrs
            picked = rng.choice(stored, size=stored.size // 20, replace=False)
            layout.add(layout.writes, picked, rng)
        for _ in range(2):
            layout.add(layout.appends, np.concatenate([
                rng.choice(layout.oracle.addrs, size=256, replace=False),
                rng.integers(0, cell_count(shape), size=256),
            ]), rng)
        return layout

    @classmethod
    def alto_runs(cls, shape, addrs: np.ndarray, runs: int, rng) -> "Layout":
        """``addrs`` as ``runs`` fragments, each a consecutive run of the
        ALTO address order (the bulk load of ``bench_alto.py``)."""
        layout = cls(Oracle.empty(shape))
        ordered = addrs[np.argsort(alto_key(unravel(addrs, shape), shape))]
        for part in np.array_split(ordered, runs):
            layout.add(layout.writes, part, rng)
        return layout

    def add(self, batches: list, addrs: np.ndarray, rng) -> np.ndarray:
        """Queue one batch of distinct keys, shuffled, with fresh values."""
        addrs = rng.permutation(np.unique(addrs))
        values = rng.standard_normal(addrs.shape[0])
        batches.append((unravel(addrs, self.oracle.shape), values))
        self.oracle.upsert(addrs, values)
        return addrs

    def fill(self, store):
        """Replay the batches into ``store``; returns it."""
        for coords, values in self.writes:
            store.write(coords, values)
        for coords, values in self.appends:
            store.append(coords, values)
        return store


class Workload:
    """Inputs are drawn in ``__init__``; :meth:`setup` builds the stores
    under ``root`` (the timed set-up); :meth:`request` returns request
    ``i`` of the fixed sequence."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.root = Path()
        self.stores: list = []

    def setup(self, root: Path) -> None:
        raise NotImplementedError

    def request(self, i: int) -> Request:
        raise NotImplementedError

    def bytes_per_point(self) -> float:
        raise NotImplementedError

    def close(self) -> None:
        for store in reversed(self.stores):
            store.close()
        self.stores = []


class PointLookup(Workload):
    SHAPE = (192, 192, 192)
    FORMATS = ("COO", "LINEAR", "GCSR++", "GCSC++", "CSF")
    BATCH = 1024
    BATCHES = 64

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        addrs = msp(self.SHAPE, 0.001, 0.01, self.rng)
        self.layout = Layout.layered(self.SHAPE, addrs, self.rng)
        oracle = self.layout.oracle
        origin, size = fig5_region(self.SHAPE)
        self.batches = []
        for _ in range(self.BATCHES):
            query = self.rng.permutation(
                region_sample(self.SHAPE, origin, size, self.BATCH, self.rng)
            )
            self.batches.append(
                (unravel(query, self.SHAPE), *oracle.lookup(query))
            )

    def setup(self, root: Path) -> None:
        self.root = root
        for fmt in self.FORMATS:
            store = FragmentStore(root / fmt, self.SHAPE, fmt)
            self.stores.append(self.layout.fill(store))
        sharded = ShardedStore(root / "sharded", self.SHAPE, "LINEAR", n_shards=4)
        self.stores.append(self.layout.fill(sharded))
        linear = self.stores[self.FORMATS.index("LINEAR")]
        self.stores.append(linear.snapshot())

    def request(self, i: int) -> Request:
        view = self.stores[i % len(self.stores)]
        coords, found, values = self.batches[
            i // len(self.stores) % self.BATCHES
        ]
        return Request(
            lambda: view.read_points(coords), points_check(found, values)
        )

    def bytes_per_point(self) -> float:
        on_disk = len(self.FORMATS) + 1  # the snapshot adds no files
        return dir_bytes(self.root) / (on_disk * self.layout.oracle.n)


class BoxScan(Workload):
    CASCADE = StoreOptions(codec="cascade")
    ALTO = StoreOptions(addr_order="alto")
    #: store name -> (shape, organization, options, its layout from the seed,
    #: how its boxes are drawn)
    STORES = {
        "tsp2d": (
            (2048, 2048), "GCSR++", CASCADE,
            lambda s, rng: Layout.layered(s, tsp(s, 0.0167, 24, rng), rng),
            "diagonal",
        ),
        "alto3d": (
            (1024, 256, 64), "COO-SORTED", ALTO,
            lambda s, rng: Layout.alto_runs(
                s, distinct(cell_count(s), 256 * 600, rng), 256, rng
            ),
            "skewed",
        ),
        "gsp4d": (
            (64, 64, 64, 64), "LINEAR", CASCADE,
            lambda s, rng: Layout.layered(s, gsp(s, 0.009, rng), rng),
            "diagonal",
        ),
    }
    BOXES = 128

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.layouts: list[Layout] = []
        self.boxes: list[list] = []
        for shape, _fmt, _options, layout_of, kind in self.STORES.values():
            layout = layout_of(shape, self.rng)
            coords = layout.oracle.coords()
            draw = self._diagonal if kind == "diagonal" else self._skewed
            self.layouts.append(layout)
            self.boxes.append([
                self._box(layout.oracle, coords, *draw(np.array(shape)))
                for _ in range(self.BOXES)
            ])

    def _diagonal(self, shape: np.ndarray):
        """The Fig 5 region box, its start moved along the diagonal."""
        _origin, size = fig5_region(shape)
        start = self.rng.integers(0, int(np.min(shape - size)) + 1)
        return np.full(shape.size, start, dtype=np.int64), size

    def _skewed(self, shape: np.ndarray):
        """A ``bench_alto.py`` box: 1/4 of the leading mode, 1/16 of each
        late mode, at least 4 cells, at a uniform origin."""
        size = np.maximum(4, shape // np.array([4] + [16] * (shape.size - 1)))
        return self.rng.integers(0, shape - size + 1), size

    @staticmethod
    def _box(oracle: Oracle, coords: np.ndarray, origin, size):
        """The box with the points it must return."""
        box = Box(tuple(int(v) for v in origin), tuple(int(v) for v in size))
        return (box, *oracle.box(coords, origin, size))

    def setup(self, root: Path) -> None:
        self.root = root
        for layout, (name, (shape, fmt, options, _layout, _kind)) in zip(
            self.layouts, self.STORES.items()
        ):
            store = FragmentStore(root / name, shape, fmt, options=options)
            self.stores.append(layout.fill(store))

    def request(self, i: int) -> Request:
        k = i % len(self.stores)
        store = self.stores[k]
        box, coords, values = self.boxes[k][i // len(self.stores) % self.BOXES]
        return Request(lambda: store.read_box(box), box_check(coords, values))

    def bytes_per_point(self) -> float:
        live = sum(layout.oracle.n for layout in self.layouts)
        return dir_bytes(self.root) / live


class IngestMixed(Workload):
    SHAPE = (1 << 16, 1 << 16)
    FORMAT = "LINEAR"
    BASE = 25_600
    CHUNK = 100
    CHUNKS_PER_PACK = 8
    PACKS = 8  # per epoch, which then compacts
    READS = 1024
    SCRIPTS = 4  # distinct epochs; request e replays script e % SCRIPTS

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.base = Layout(Oracle.empty(self.SHAPE))
        for part in np.array_split(
            distinct(cell_count(self.SHAPE), self.BASE, self.rng), 4
        ):
            self.base.add(self.base.writes, part, self.rng)
        self.scripts = [self._script() for _ in range(self.SCRIPTS)]
        self.space: list[float] = []

    def _script(self):
        """One epoch: its chunks, the query batch with its expected answer,
        and the live point count at its end."""
        rng = self.rng
        epoch = Layout(self.base.oracle.copy())
        written = []
        for _ in range(self.PACKS * self.CHUNKS_PER_PACK):
            chunk = rng.integers(0, cell_count(self.SHAPE), size=self.CHUNK)
            written.append(epoch.add(epoch.appends, chunk, rng))
        half = self.READS // 2
        query = rng.permutation(np.concatenate([
            rng.choice(np.concatenate(written), size=half, replace=False),
            rng.integers(0, cell_count(self.SHAPE), size=self.READS - half),
        ]))
        answer = epoch.oracle.lookup(query)
        return epoch.appends, unravel(query, self.SHAPE), answer, epoch.oracle.n

    def setup(self, root: Path) -> None:
        self.root = root
        base = FragmentStore(root / "base", self.SHAPE, self.FORMAT)
        self.base.fill(base).compact()
        base.close()

    def _fresh_epoch(self) -> FragmentStore:
        """Reopen a fresh copy of the compacted base store (not timed)."""
        self.close()
        epoch = self.root / "epoch"
        shutil.rmtree(epoch, ignore_errors=True)
        shutil.copytree(self.root / "base", epoch)
        self.stores = [FragmentStore(epoch, self.SHAPE, self.FORMAT)]
        return self.stores[0]

    def request(self, i: int) -> Request:
        chunks, query, (found, values), final_n = self.scripts[i % self.SCRIPTS]
        store = self._fresh_epoch()
        per_pack = self.CHUNKS_PER_PACK

        def call():
            for start in range(0, len(chunks), per_pack):
                for coords, chunk_values in chunks[start:start + per_pack]:
                    store.append(coords, chunk_values)
                if start + per_pack == len(chunks):
                    out = store.read_points(query)
                store.pack_wal()
            store.compact()
            return out

        verify = points_check(found, values)

        def check(out) -> bool:
            # compacted with the WAL drained: the epoch's footprint
            self.space.append(dir_bytes(self.root / "epoch") / final_n)
            return verify(out) and len(store.fragments) == 1

        return Request(call, check)

    def bytes_per_point(self) -> float:
        if self.space:
            return float(np.median(self.space))
        return dir_bytes(self.root / "base") / self.base.oracle.n


WORKLOADS = {
    "point_lookup": PointLookup,
    "box_scan": BoxScan,
    "ingest_mixed": IngestMixed,
}
