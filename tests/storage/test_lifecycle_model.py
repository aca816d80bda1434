"""Model-based lifecycle test: every public store mutation against a
newest-wins dict oracle, with crashes and lost manifests.

A hypothesis ``RuleBasedStateMachine`` drives one store through writes,
``write_many``, WAL appends and packs, compactions, format and
address-order migrations (``FragmentStore``), band splits and merges
(``ShardedStore``), snapshots, GC, reopens, a lost manifest, and a crash
at the k-th durable op of a mutation.  After every step:

* ``read_points`` over every cell and ``read_box`` over the whole shape
  equal the oracle (Algorithm 3's READ: the newest write of a cell wins);
* each open snapshot equals the oracle at its pin;
* the store's ``nnz`` equals that of a snapshot taken now.

A rebuild without the manifest must list the live fragments the store
listed before it; a crash, repaired by ``fsck --repair``, must leave the
state just before or just after the interrupted op.  After ``close()``
no thread the store started is alive and no descriptor stays open under
its directory.

The stores: {``FragmentStore``, 2-band ``ShardedStore``} x {raw,
cascade} x {row-major, ALTO} on an (8, 6) shape, plus one
``FragmentStore`` on a shape over 64 bits (no WAL, migration or
address-order rules: they need linear addresses).
"""

from __future__ import annotations

import errno
import gc
import shutil
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core import Box, FragmentError
from repro.core.dtypes import fits_index_dtype
from repro.storage import FragmentStore, ShardedStore, StoreOptions, fsck
from repro.testing.faults import DURABLE_OPS, CrashPlan, FaultEvent, inject

from .test_wal import _open_fds_under, needs_proc_fd

#: Organizations a ``migrate_fragment`` step converts to.
MIGRATE_TO = ("COO", "CSF", "GCSR++", "LINEAR")


@dataclass(frozen=True)
class Config:
    """One store the machine drives."""

    sharded: bool
    codec: str = "raw"
    addr_order: str = "row_major"
    shape: tuple[int, ...] = (8, 6)
    fmt: str = "LINEAR"

    @property
    def linear(self) -> bool:
        return fits_index_dtype(self.shape)

    def __str__(self) -> str:
        kind = "sharded" if self.sharded else "fragment"
        wide = "" if self.linear else "-wide"
        return f"{kind}-{self.codec}-{self.addr_order}{wide}"


CONFIGS = [
    Config(sharded, codec, order)
    for sharded in (False, True)
    for codec in ("raw", "cascade")
    for order in ("row_major", "alto")
] + [Config(False, shape=(1 << 40, 1 << 40), fmt="CSF")]


def _cells(config: Config) -> np.ndarray:
    """The cells the machine writes and reads: all of a small shape, or
    ten spread over a shape too wide to enumerate."""
    if config.linear:
        grid = np.indices(config.shape).reshape(len(config.shape), -1)
        return grid.T.astype(np.uint64)
    top = config.shape[0] - 1
    return np.array(
        [[0, 0], [0, top], [top, 0], [top, top], [1, 2], [2, 1],
         [1 << 39, 5], [7, 1 << 38], [1 << 39, 1 << 39], [top, 3]],
        dtype=np.uint64,
    )


class CrashAt(CrashPlan):
    """A crash at the ``k``-th durable op (from 0) of what runs under it:
    that op fails, and every durable op after it, as a killed process's
    would."""

    def __init__(self, k: int):
        super().__init__()
        self.left = k

    def before(self, op: str, path: Path) -> None:
        if op in DURABLE_OPS and not self.fired:
            if self.left == 0:
                self.fired.append(FaultEvent(op, path))
                raise OSError(errno.EIO, f"injected crash on {op}", str(path))
            self.left -= 1
        super().before(op, path)


class StoreLifecycle(RuleBasedStateMachine):
    def __init__(self, config: Config, root: Path):
        super().__init__()
        self.config = config
        self.directory = Path(tempfile.mkdtemp(dir=root)) / "store"
        self.cells = _cells(config)
        self.index_of = {
            tuple(c): i for i, c in enumerate(self.cells.tolist())
        }
        #: Cell index -> value: the newest write of each cell.
        self.oracle: dict[int, float] = {}
        #: Open snapshots, each with the oracle at its pin.
        self.snapshots: list[tuple[object, dict[int, float]]] = []
        self.last_value = 0.0
        #: Whether fsck recovered a crashed compaction's output above its
        #: sources.
        self.overcovered = False
        self.threads = set(threading.enumerate())
        self.store = None

    # -- the store -------------------------------------------------------

    @initialize(retain=st.sampled_from([0, 2]))
    def open_store(self, retain):
        self.options = StoreOptions(
            codec=self.config.codec,
            addr_order=self.config.addr_order,
            retain_generations=retain,
        )
        self.store = self._open()

    def _open(self):
        c = self.config
        if c.sharded:
            return ShardedStore(
                self.directory, c.shape, c.fmt, n_shards=2,
                options=self.options,
            )
        return FragmentStore(
            self.directory, c.shape, c.fmt, options=self.options
        )

    def _close(self):
        self._close_snapshots()
        self.store.close()
        self.store = None
        assert _open_fds_under(self.directory) == 0
        # write_many packages on the process-wide pool, which outlives
        # every store.
        started = [
            t for t in threading.enumerate()
            if t not in self.threads and not t.name.startswith("repro-read")
        ]
        assert not started, f"threads alive after close(): {started}"

    def _close_snapshots(self):
        for snap, _ in self.snapshots:
            snap.close()
        self.snapshots = []

    def teardown(self):
        self._close_snapshots()
        if self.store is not None:
            self.store.close()
        shutil.rmtree(self.directory.parent, ignore_errors=True)

    # -- reads -------------------------------------------------------------

    def _read_points(self, reader=None) -> dict[int, float]:
        out = (reader or self.store).read_points(self.cells)
        found = np.flatnonzero(out.found).tolist()
        return dict(zip(found, out.values.tolist()))

    def _read_box(self) -> dict[int, float]:
        whole = Box((0,) * len(self.config.shape), self.config.shape)
        box = self.store.read_box(whole)
        keys = [self.index_of[tuple(c)] for c in box.coords.tolist()]
        assert len(set(keys)) == len(keys), "a cell read twice"
        return dict(zip(keys, box.values.tolist()))

    def _live_names(self) -> list[str]:
        return [
            str(f.path.relative_to(self.directory))
            for f in self.store.fragments
        ]

    # -- mutations ---------------------------------------------------------

    def _mutations(self) -> list[str]:
        names = ["write", "write_many", "compact", "gc"]
        if self.config.linear:
            names += ["append", "pack_wal"]
        if self.config.sharded:
            names += ["split"] + (["merge"] if len(self.store.shards) > 1 else [])
        elif self.config.linear:
            names += ["set_addr_order"] + (
                ["migrate"] if self.store.fragments else []
            )
        return names

    def _draw_points(self, data):
        idx = data.draw(st.lists(
            st.integers(0, len(self.cells) - 1),
            min_size=1, max_size=4, unique=True,
        ))
        values = self.last_value + 1 + np.arange(len(idx), dtype=float)
        self.last_value += len(idx)
        return self.cells[idx], values, dict(zip(idx, values.tolist()))

    def _mutation(self, name, data):
        """``(run, updates)``: a call that applies mutation ``name`` with
        drawn arguments, and what each of its parts changes in the
        oracle, in order."""
        store = self.store
        if name in ("write", "append"):
            coords, values, update = self._draw_points(data)
            call = getattr(store, name)
            return (lambda: call(coords, values)), [update]
        if name == "write_many":
            parts, updates = [], []
            for _ in range(data.draw(st.integers(1, 3))):
                coords, values, update = self._draw_points(data)
                parts.append((coords, values))
                updates.append(update)
            return (lambda: store.write_many(parts)), updates
        if name == "compact":
            if self.config.sharded:
                # One worker, so a crash counts the bands' durable ops in
                # one order.
                return (lambda: store.compact(max_workers=1)), []
            if not store.fragments:
                return (lambda: None), []
            return store.compact, []
        if name == "pack_wal":
            return store.pack_wal, []
        if name == "gc":
            keep = data.draw(st.sampled_from([None, 0]))
            return (lambda: store.gc(keep_generations=keep)), []
        if name == "migrate":
            i = data.draw(st.integers(0, len(store.fragments) - 1))
            fmt = data.draw(st.sampled_from(MIGRATE_TO))
            return (lambda: store.migrate_fragment(i, fmt)), []
        if name == "set_addr_order":
            order = data.draw(st.sampled_from(["row_major", "alto"]))
            return (lambda: store.set_addr_order(order)), []
        if name == "split":
            i = data.draw(st.integers(0, len(store.shards) - 1))

            def split():
                try:
                    store.split(i)
                except (FragmentError, ValueError):
                    pass  # a band of fewer than 2 points does not split
            return split, []
        assert name == "merge"
        i = data.draw(st.integers(0, len(store.shards) - 2))
        return (lambda: store.merge(i)), []

    def _apply(self, name, data):
        run, updates = self._mutation(name, data)
        run()
        for update in updates:
            self.oracle.update(update)
        if name == "compact":
            self.overcovered = False

    @rule(data=st.data())
    def write(self, data):
        self._apply("write", data)

    @rule(data=st.data())
    def write_many(self, data):
        self._apply("write_many", data)

    @precondition(lambda self: self.config.linear)
    @rule(data=st.data())
    def append(self, data):
        self._apply("append", data)

    @precondition(lambda self: self.config.linear)
    @rule(data=st.data())
    def pack_wal(self, data):
        self._apply("pack_wal", data)

    @rule(data=st.data())
    def compact(self, data):
        self._apply("compact", data)

    @precondition(
        lambda self: not self.config.sharded and self.config.linear
        and self.store.fragments
    )
    @rule(data=st.data())
    def migrate_fragment(self, data):
        self._apply("migrate", data)

    @precondition(lambda self: not self.config.sharded and self.config.linear)
    @rule(data=st.data())
    def set_addr_order(self, data):
        self._apply("set_addr_order", data)

    @precondition(lambda self: self.config.sharded)
    @rule(data=st.data())
    def split(self, data):
        self._apply("split", data)

    @precondition(
        lambda self: self.config.sharded and len(self.store.shards) > 1
    )
    @rule(data=st.data())
    def merge(self, data):
        self._apply("merge", data)

    @rule(data=st.data())
    def retention_gc(self, data):
        self._apply("gc", data)

    # -- snapshots, reopen, lost manifests, crashes ------------------------

    @precondition(lambda self: len(self.snapshots) < 3)
    @rule()
    def open_snapshot(self):
        self.snapshots.append((self.store.snapshot(), dict(self.oracle)))

    @precondition(lambda self: self.snapshots)
    @rule(data=st.data())
    def close_snapshot(self, data):
        i = data.draw(st.integers(0, len(self.snapshots) - 1))
        snap, _ = self.snapshots.pop(i)
        snap.close()

    @rule()
    def close_and_reopen(self):
        self._close()
        self.store = self._open()

    @rule()
    def lose_the_manifest(self):
        """Delete ``manifest.json`` and ``manifest.log`` and reopen: the
        rebuild from the fragment files lists what the store listed."""
        before = self._live_names()
        self._close()
        for name in ("manifest.json", "manifest.log"):
            (self.directory / name).unlink(missing_ok=True)
        self.store = self._open()
        after = self._live_names()
        if self.overcovered:
            # fsck does not roll a crashed compaction forward: its output
            # stays listed above its sources, which a rebuild supersedes.
            assert set(after) <= set(before)
            self.overcovered = False
        else:
            assert after == before

    @rule(data=st.data(), k=st.integers(0, 8))
    def crash(self, data, k):
        """Kill the k-th durable op of a mutation, abandon the store
        without ``close()``, repair and reopen: the state is the one just
        before the op or just after it."""
        self._close_snapshots()
        name = data.draw(st.sampled_from(self._mutations()))
        run, updates = self._mutation(name, data)
        states = [dict(self.oracle)]  # after each prefix of the parts
        for update in updates:
            states.append({**states[-1], **update})
        plan = CrashAt(k)
        with inject(plan):
            try:
                run()
            except OSError:
                assert plan.fired, "an OSError with no fault injected"
        del run
        self.store = None
        gc.collect()  # the abandoned store's descriptors
        report = fsck(self.directory, repair=True)
        if name == "compact" and any(
            i.repaired == "recovered" for i in report.issues
        ):
            self.overcovered = True
        self.store = self._open()
        state = self._read_points()
        assert state in (states[0], states[-1]), (
            f"{name} crashed at durable op {k}"
        )
        self.oracle = state

    # -- invariants --------------------------------------------------------

    @invariant()
    def reads_equal_the_oracle(self):
        if self.store is None:
            return
        assert self._read_points() == self.oracle
        assert self._read_box() == self.oracle
        for snap, pinned in self.snapshots:
            assert self._read_points(snap) == pinned
        with self.store.snapshot() as snap:
            assert self.store.nnz == snap.nnz


def _run(config: Config, root: Path, profile: settings) -> None:
    run_state_machine_as_test(
        lambda: StoreLifecycle(config, root), settings=profile
    )


TIER1 = settings(
    max_examples=15,
    stateful_step_count=25,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=list(HealthCheck),
)
LONG = settings(TIER1, max_examples=150, stateful_step_count=40)


# Orphans after a crash, and a rebuild's quarantine, warn by design.
lifecycle = pytest.mark.filterwarnings("ignore::UserWarning")


@lifecycle
@needs_proc_fd
@pytest.mark.parametrize("config", CONFIGS, ids=str)
def test_store_lifecycle(config, tmp_path):
    _run(config, tmp_path, TIER1)


@pytest.mark.slow
@lifecycle
@needs_proc_fd
@pytest.mark.parametrize("config", CONFIGS, ids=str)
def test_store_lifecycle_long(config, tmp_path):
    _run(config, tmp_path, LONG)
