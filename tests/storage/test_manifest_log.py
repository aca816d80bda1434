"""The manifest log: ``manifest.json`` is a checkpoint, ``manifest.log``
holds one CRC-framed record per commit made since.

The seeded sequences below run the store's mutations on a small store,
copy the directory at every commit that appended a record, and then
truncate each copy's log at the record's start, inside it (a torn
append) and leave it whole.  Each reopen must hold exactly the state
committed at that generation (live and retired lists in order, ``born``
/ ``retired``, ``gc_horizon``), read like a newest-wins dict oracle, and
pass ``fsck``.
"""

import json
import shutil
import warnings

import numpy as np
import pytest

from repro.storage import FragmentStore, StoreOptions, fsck
from repro.storage import store as store_module
from repro.storage.durability import (
    MANIFEST_LOG_NAME,
    MANIFEST_NAME,
    apply_manifest_record,
    frame_record,
    load_manifest,
    scan_records,
)
from repro.testing.faults import FaultPlan, FaultRule, OpRecorder, inject

SHAPE = (16, 16)
CELLS = np.array(
    [(i, j) for i in range(SHAPE[0]) for j in range(SHAPE[1])],
    dtype=np.uint64,
)


def reopen(directory, **options):
    with warnings.catch_warnings():
        # Uncommitted fragment files are warned about by design.
        warnings.simplefilter("ignore", UserWarning)
        return FragmentStore(
            directory, SHAPE, "LINEAR", options=StoreOptions(**options)
        )


def state_of(store):
    """The manifest state a store holds: what a reopen must restore."""

    def entries(frags):
        return [(f.path.name, f.born, f.retired) for f in frags]

    return {
        "generation": store.generation,
        "live": entries(store.fragments),
        "retired": entries(store._retired),
        "gc_horizon": store._gc_horizon,
    }


def assert_reads(store, oracle):
    out = store.read_points(CELLS)
    for k, cell in enumerate(map(tuple, CELLS.tolist())):
        assert bool(out.found[k]) == (cell in oracle), cell
    want = [oracle[c] for c in map(tuple, CELLS[out.found].tolist())]
    np.testing.assert_array_equal(out.values, want)


def log_size(directory):
    path = directory / MANIFEST_LOG_NAME
    return path.stat().st_size if path.exists() else 0


class Workload:
    """Random mutations of one store, with a copy of its directory at
    every commit that appended a log record.

    The oracle is newest-wins with the store's layering: fragments in
    commit order, then the unpacked WAL tail over all of them (a pack
    commits the tail as the newest fragment).  A write packs the tail
    first, so it lands above it; that pack is its own commit.
    """

    FORMATS = ("LINEAR", "COO-SORTED", "GCSR++")

    def __init__(self, root, seed, *, retain):
        self.rng = np.random.default_rng(seed)
        self.root = root
        self.store = reopen(root / "store", retain_generations=retain)
        self.packed: dict = {}
        self.tail: dict = {}
        self.snapshots: list = []
        self.cases: list = []
        self.pre = None
        spied = self.store._save_manifest

        def spy(*args, **kwargs):
            before = log_size(self.store.directory)
            spied(*args, **kwargs)
            after = log_size(self.store.directory)
            post = state_of(self.store)
            self.last = None
            if after > before:  # a record; a checkpoint empties the log
                copy = root / f"commit-{len(self.cases)}"
                shutil.copytree(self.store.directory, copy)
                self.last = {
                    "at_commit": copy, "start": before, "end": after,
                    "pre": self.pre, "post": post,
                }
                self.cases.append(self.last)
            # A step's next commit starts from this one; the reads are
            # the step's until it ends (a write's pack changes none).
            self.pre = (post, self.pre[1])

        self.store._save_manifest = spy

    def points(self, most=6):
        n = int(self.rng.integers(1, most + 1))
        lin = self.rng.choice(SHAPE[0] * SHAPE[1], size=n, replace=False)
        coords = np.column_stack(np.unravel_index(lin, SHAPE))
        return coords.astype(np.uint64), self.rng.random(n)

    @staticmethod
    def upsert(layer, coords, values):
        layer.update(zip(map(tuple, coords.tolist()), values.tolist()))

    @property
    def oracle(self):
        return {**self.packed, **self.tail}

    def step(self):
        store = self.store
        op = self.rng.choice([
            "write", "write", "write", "write_many", "append", "append",
            "pack", "compact", "migrate", "gc", "snapshot", "release",
        ])
        self.pre = (state_of(store), self.oracle)
        self.last = None
        n_cases = len(self.cases)
        commits = 1
        if op in ("write", "write_many") and self.tail:
            # The write packs the tail first, in a commit of its own.
            commits = 2
            self.packed.update(self.tail)
            self.tail.clear()
        if op == "write":
            coords, values = self.points()
            store.write(coords, values)
            self.upsert(self.packed, coords, values)
        elif op == "write_many":
            parts = [self.points() for _ in range(3)]
            store.write_many(parts, max_workers=0)
            for part in parts:
                self.upsert(self.packed, *part)
        elif op == "append":
            coords, values = self.points()
            store.append(coords, values)
            self.upsert(self.tail, coords, values)
        elif op == "pack":
            store.pack_wal()
            self.packed.update(self.tail)
            self.tail.clear()
        elif op == "compact" and len(store.fragments) > 1:
            store.compact()
        elif op == "migrate" and store.fragments:
            index = int(self.rng.integers(len(store.fragments)))
            store.migrate_fragment(index, str(self.rng.choice(self.FORMATS)))
        elif op == "gc":
            store.gc(keep_generations=int(self.rng.integers(0, 3)))
        elif op == "snapshot":
            self.snapshots.append(store.snapshot())
        elif op == "release" and self.snapshots:
            self.snapshots.pop(int(self.rng.integers(len(self.snapshots)))).close()
        # One commit per mutation (two for a write that packs first), so
        # the op's end is its last commit's state.
        assert len(self.cases) - n_cases <= commits
        if self.last is not None:  # the step's last commit was a record
            case = self.last
            case["oracle"] = self.oracle
            after_op = self.root / f"after-{n_cases}"
            shutil.copytree(store.directory, after_op)
            case["after_op"] = after_op


def check_case(case, root, k):
    pre_state, pre_oracle = case["pre"]
    length = case["end"] - case["start"]
    for name, cut in (("start", 0), ("torn", length // 2)):
        directory = root / f"cut-{k}-{name}"
        shutil.copytree(case["at_commit"], directory)
        log = directory / MANIFEST_LOG_NAME
        log.write_bytes(log.read_bytes()[:case["start"] + cut])
        store = reopen(directory)
        assert state_of(store) == pre_state
        assert log_size(directory) == case["start"]  # torn tail cut
        assert_reads(store, pre_oracle)
        # Only the uncommitted op's own files are unlisted.
        assert {i.kind for i in fsck(directory).issues} <= {"extra"}
    if "after_op" not in case:  # a write's pack, not the step's end
        return
    store = reopen(case["after_op"])
    assert state_of(store) == case["post"]
    assert_reads(store, case["oracle"])
    assert fsck(case["after_op"]).clean


class TestReplayAtEveryRecord:
    @pytest.mark.parametrize("seed, floor, retain", [
        (1, 0, 0), (2, 0, 2), (3, 0, 1), (4, None, 2),
    ])
    def test_every_record_reopens_to_its_generation(
        self, tmp_path, monkeypatch, seed, floor, retain
    ):
        if floor is not None:
            # Checkpoint whenever the log outgrows the checkpoint, so the
            # sequence crosses many of them.
            monkeypatch.setattr(store_module, "MANIFEST_LOG_FLOOR", floor)
        work = Workload(tmp_path, seed, retain=retain)
        checkpoints = 0
        for _ in range(60):
            had = log_size(work.store.directory)
            work.step()
            checkpoints += log_size(work.store.directory) < had
        assert checkpoints >= 3
        assert len(work.cases) >= 12
        for k, case in enumerate(work.cases):
            check_case(case, tmp_path, k)

        final = state_of(work.store)
        for snap in work.snapshots:
            snap.close()
        work.store.close()
        directory = work.store.directory
        assert log_size(directory) == 0
        committed = json.loads((directory / MANIFEST_NAME).read_text())
        assert committed == load_manifest(directory).doc
        reopened = reopen(directory)
        assert state_of(reopened) == final
        assert_reads(reopened, work.oracle)
        assert fsck(directory).clean


class TestRecords:
    def test_a_write_logs_only_its_own_entry(self, tmp_path):
        store = reopen(tmp_path / "ds")
        store.write(*Workload(tmp_path, 0, retain=0).points())
        data = (tmp_path / "ds" / MANIFEST_LOG_NAME).read_bytes()
        scan = scan_records(data, 0, json.loads, where="log")
        assert scan.status == "ok" and len(scan.records) == 1
        [record] = scan.records
        assert set(record) == {"generation", "add"}
        assert record["generation"] == store.generation
        assert [e["file"] for e in record["add"]] == ["frag-000000.bin"]

    def test_scanner_classifies_damage_by_position(self):
        data = b"".join(frame_record(b'{"generation": %d}' % g)
                        for g in range(3))
        whole = scan_records(data, 0, json.loads, where="log")
        assert whole.status == "ok" and len(whole.records) == 3
        torn = scan_records(data[:-3], 0, json.loads, where="log")
        assert torn.status == "torn" and len(torn.records) == 2
        flipped = bytearray(data)
        flipped[6] ^= 0xFF  # inside the first record's body
        mid = scan_records(bytes(flipped), 0, json.loads, where="log")
        assert mid.status == "corrupt" and "mid-log" in mid.detail

    def test_replay_rejects_a_record_naming_an_unlisted_fragment(self):
        doc = {"generation": 1, "fragments": [{"file": "a"}]}
        with pytest.raises(KeyError):
            apply_manifest_record(doc, {"generation": 2, "retire": ["b"]})
        assert doc == {"generation": 1, "fragments": [{"file": "a"}]}

    def test_corrupt_log_refuses_to_open_and_fsck_repairs(self, tmp_path):
        store = reopen(tmp_path / "ds")
        for j in range(3):
            store.write(np.array([[j, j]], dtype=np.uint64), np.ones(1))
        log = tmp_path / "ds" / MANIFEST_LOG_NAME
        blob = bytearray(log.read_bytes())
        blob[8] ^= 0xFF  # the first record, two more follow it
        log.write_bytes(bytes(blob))
        with pytest.raises(Exception, match="corrupt manifest log"):
            reopen(tmp_path / "ds")
        report = fsck(tmp_path / "ds", repair=True)
        assert [i for i in report.issues
                if i.name == MANIFEST_LOG_NAME and i.repaired == "quarantined"]
        assert fsck(tmp_path / "ds").clean
        repaired = reopen(tmp_path / "ds")
        # The records past the damage committed files fsck recovers.
        assert [f.path.name for f in repaired.fragments] == [
            f"frag-{j:06d}.bin" for j in range(3)
        ]


class TestCheckpoints:
    def test_a_durable_commit_is_one_append_and_one_fsync(self, tmp_path):
        store = reopen(tmp_path / "ds", fsync=True)
        recorder = OpRecorder()
        with inject(recorder):
            store.write(np.array([[1, 2]], dtype=np.uint64), np.ones(1))
        ops = [(e.op, e.path.name) for e in recorder.events
               if e.path.name.startswith("manifest")]
        assert ops == [("write", MANIFEST_LOG_NAME), ("fsync", MANIFEST_LOG_NAME)]

    @pytest.mark.parametrize("strategy", ["merge", "decode"])
    def test_compact_commits_once(self, tmp_path, strategy):
        store = reopen(tmp_path / "ds")
        for j in range(3):
            store.write(np.array([[j, 1], [j, 2]], dtype=np.uint64),
                        np.full(2, float(j)))
        generation = store.generation
        recorder = OpRecorder()
        with inject(recorder):
            store.compact(strategy=strategy)
        commits = [e for e in recorder.events
                   if (e.op, e.path.name) in {("rename", MANIFEST_NAME),
                                              ("write", MANIFEST_LOG_NAME)}]
        assert [(e.op, e.path.name) for e in commits] == [
            ("rename", MANIFEST_NAME)
        ]
        assert store.generation == generation + 1
        assert log_size(tmp_path / "ds") == 0
        [merged] = store.fragments
        assert merged.born == store.generation

    def test_settings_change_checkpoints(self, tmp_path):
        store = reopen(tmp_path / "ds")
        store.write(np.array([[1, 2]], dtype=np.uint64), np.ones(1))
        store.close()
        recoded = reopen(tmp_path / "ds", codec="cascade")
        recoded.write(np.array([[3, 4]], dtype=np.uint64), np.ones(1))
        doc = json.loads((tmp_path / "ds" / MANIFEST_NAME).read_text())
        assert doc["codec"] == "cascade" and len(doc["fragments"]) == 2

    def test_crash_between_checkpoint_rename_and_truncate(self, tmp_path):
        store = reopen(tmp_path / "ds")
        for j in range(3):
            store.write(np.array([[j, j]], dtype=np.uint64), np.full(1, j))
        stale = log_size(tmp_path / "ds")
        plan = FaultPlan([FaultRule(op="truncate", pattern=MANIFEST_LOG_NAME)])
        with inject(plan), pytest.raises(OSError):
            store.compact()
        assert plan.fired and log_size(tmp_path / "ds") == stale
        recovered = reopen(tmp_path / "ds")
        assert state_of(recovered) == state_of(store)
        # The sources the compaction would have deleted are strays.
        assert {i.kind for i in fsck(tmp_path / "ds").issues} == {"extra"}
        # The live store's next commit checkpoints, emptying the log.
        store.write(np.array([[9, 9]], dtype=np.uint64), np.ones(1))
        assert log_size(tmp_path / "ds") == 0
        assert state_of(reopen(tmp_path / "ds")) == state_of(store)

    def test_failed_append_is_cut_back_then_checkpointed(self, tmp_path):
        store = reopen(tmp_path / "ds")
        store.write(np.array([[0, 0]], dtype=np.uint64), np.ones(1))
        intact = log_size(tmp_path / "ds")
        committed = state_of(store)
        failed = np.array([[1, 1]], dtype=np.uint64)
        torn = FaultRule(op="write", pattern=MANIFEST_LOG_NAME, torn_bytes=37)
        with inject(FaultPlan([torn])), pytest.raises(OSError):
            store.write(failed, np.ones(1))
        assert log_size(tmp_path / "ds") == intact
        # The failed commit is undone: the store holds the committed
        # manifest again and the fragment it wrote is gone, so no later
        # commit can make it durable.
        assert state_of(store) == committed
        assert sorted(p.name for p in (tmp_path / "ds").glob("frag-*")) == [
            "frag-000000.bin"
        ]
        # The next commit checkpoints rather than log after the cut.
        store.write(np.array([[2, 2]], dtype=np.uint64), np.ones(1))
        assert log_size(tmp_path / "ds") == 0
        assert state_of(reopen(tmp_path / "ds")) == state_of(store)
        for view in (store, reopen(tmp_path / "ds")):
            assert not view.read_points(failed).found.any()
        assert fsck(tmp_path / "ds").clean


class TestFailedCommits:
    """A commit that raised is undone: no later commit makes it durable."""

    CELL = np.array([[3, 4]], dtype=np.uint64)

    @pytest.mark.parametrize("fault", [
        FaultRule(op="write", pattern=MANIFEST_LOG_NAME),
        FaultRule(op="rename", pattern=MANIFEST_NAME),
    ], ids=["append", "checkpoint"])
    def test_a_failed_commit_never_becomes_durable(self, tmp_path, fault):
        directory = tmp_path / "ds"
        store = reopen(directory)
        store.write(self.CELL, np.array([1.0]))
        store.write(np.array([[0, 0]], dtype=np.uint64), np.ones(1))
        if fault.op == "rename":
            store._ckpt_due = True  # make the next commit a checkpoint
        with inject(FaultPlan([fault])), pytest.raises(OSError):
            store.write(self.CELL, np.array([2.0]))
        assert store.read_points(self.CELL).values.tolist() == [1.0]
        store.write(np.array([[1, 1]], dtype=np.uint64), np.ones(1))
        store.close()
        assert reopen(directory).read_points(self.CELL).values.tolist() == [1.0]
        assert fsck(directory).clean

    def test_a_failed_compaction_keeps_its_sources(self, tmp_path):
        directory = tmp_path / "ds"
        store = reopen(directory)
        store.write(self.CELL, np.array([1.0]))
        store.write(self.CELL, np.array([2.0]))
        live = state_of(store)
        fault = FaultRule(op="rename", pattern=MANIFEST_NAME)
        with inject(FaultPlan([fault])), pytest.raises(OSError):
            store.compact()
        assert state_of(store) == live
        assert sorted(p.name for p in directory.glob("frag-*")) == [
            "frag-000000.bin", "frag-000001.bin",
        ]
        store.write(np.array([[1, 1]], dtype=np.uint64), np.ones(1))
        assert reopen(directory).read_points(self.CELL).values.tolist() == [2.0]
        assert fsck(directory).clean


class TestStaleLogs:
    def _store_with_log(self, directory):
        store = reopen(directory)
        for j in range(3):
            store.write(np.array([[j, j]], dtype=np.uint64), np.full(1, j))
        assert log_size(directory) > 0
        return store

    def test_rescan_empties_the_log_before_its_checkpoint(self, tmp_path):
        directory = tmp_path / "ds"
        self._store_with_log(directory)
        (directory / MANIFEST_NAME).unlink()  # lost: open rescans
        recorder = OpRecorder()
        with inject(recorder):
            rebuilt = reopen(directory)
        ops = [(e.op, e.path.name) for e in recorder.events]
        assert ops.index(("truncate", MANIFEST_LOG_NAME)) < ops.index(
            ("rename", MANIFEST_NAME)
        )
        assert log_size(directory) == 0
        names = [f.path.name for f in rebuilt.fragments]
        assert names == [f"frag-{j:06d}.bin" for j in range(3)]
        assert state_of(reopen(directory)) == state_of(rebuilt)

    def test_fsck_repair_of_a_lost_checkpoint_drops_the_log(self, tmp_path):
        directory = tmp_path / "ds"
        self._store_with_log(directory)
        (directory / MANIFEST_NAME).write_text("{not json")
        report = fsck(directory, repair=True)
        assert report.repaired
        assert log_size(directory) == 0
        repaired = reopen(directory)
        names = [f.path.name for f in repaired.fragments]
        assert names == [f"frag-{j:06d}.bin" for j in range(3)]
        assert fsck(directory).clean

    def test_fsck_sees_logged_fragments_as_listed(self, tmp_path):
        directory = tmp_path / "ds"
        store = self._store_with_log(directory)
        report = fsck(directory)
        assert report.clean and report.checked == 3
        fsck(directory, repair=True)
        assert log_size(directory) == 0
        names = [f.path.name for f in reopen(directory).fragments]
        assert names == [f.path.name for f in store.fragments]


class TestPreLogStores:
    def test_a_store_without_a_log_opens_and_commits(self, tmp_path):
        directory = tmp_path / "ds"
        store = reopen(directory)
        store.write(np.array([[1, 1]], dtype=np.uint64), np.ones(1))
        store.close()
        (directory / MANIFEST_LOG_NAME).unlink()  # as written before it
        before = (directory / MANIFEST_NAME).read_bytes()
        old = reopen(directory)
        assert old.read_points(np.array([[1, 1]])).found.all()
        assert (directory / MANIFEST_NAME).read_bytes() == before
        assert not (directory / MANIFEST_LOG_NAME).exists()
        recorder = OpRecorder()
        with inject(recorder):
            old.write(np.array([[2, 2]], dtype=np.uint64), np.full(1, 2.0))
        # Its first commit rewrites manifest.json, as before, and
        # creates the log the next commits append to.
        assert ("rename", MANIFEST_NAME) in [
            (e.op, e.path.name) for e in recorder.events
        ]
        assert log_size(directory) == 0
        old.write(np.array([[3, 3]], dtype=np.uint64), np.full(1, 3.0))
        assert log_size(directory) > 0
        assert state_of(reopen(directory)) == state_of(old)


def test_both_logs_share_one_framing():
    """A WAL record is ``frame_record`` of its body, so one scanner reads
    the WAL's segments and the manifest log."""
    from repro.storage.wal import decode_record_body, encode_record

    record = encode_record(np.arange(3, dtype=np.uint64), np.ones(3))
    assert record == frame_record(record[4:-4])
    scan = scan_records(record, 0, decode_record_body, where="segment")
    assert scan.status == "ok"
    np.testing.assert_array_equal(scan.records[0][0], np.arange(3))
