"""Per-fragment workload ledger (the observe half of adaptive migration).

The advisor's Table IV scoring needs a workload — how often a fragment
is read, point vs box mix, how selective the queries are, how long
decodes take.  At write time :class:`~repro.storage.adaptive.
AdaptiveStore` guesses from a user-supplied
:class:`~repro.analysis.advisor.Workload`; this module records what
actually happened so the migration policy
(:mod:`repro.storage.migrate`) can revisit the guess online.

:class:`FragmentWorkload`
    One fragment's observed counters — plain data, JSON-friendly.
:class:`WorkloadLedger`
    Thread-safe map ``fragment file name → FragmentWorkload``.  Stores
    update it on the read path (outside their fragment locks) and
    persist it beside the manifest as ``workload.json`` at ``compact``,
    ``migrate`` and ``close`` — **never** per read or per ``pack_wal``,
    so losing the observations since the last of those in a crash is
    acceptable by design (the ledger is advisory, not data).  Policies
    read the in-memory ledger, which always holds every observation.

The on-disk schema is one JSON object::

    {"version": 1,
     "fragments": {"frag-000001.bin": {"point_reads": 12, ...}, ...}}

Unknown keys are ignored on load (forward compatibility) and entries
for files no longer in the manifest are pruned at save time.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

#: On-disk schema version for ``workload.json``.
LEDGER_VERSION = 1

#: Counter fields persisted per fragment, in schema order.
_FIELDS = (
    "point_reads",
    "box_reads",
    "points_queried",
    "points_matched",
    "load_seconds",
    "writes",
)


@dataclass
class FragmentWorkload:
    """Observed access counters for one fragment.

    Attributes
    ----------
    point_reads / box_reads:
        How many ``read_points`` / ``read_box`` calls visited the
        fragment (post-planner: pruned fragments are *not* counted —
        the ledger measures work done, not queries issued).
    points_queried / points_matched:
        Point-query volume and hits against this fragment (point reads
        only); their ratio is the observed selectivity.  A query point
        counts as queried when it is probed against the fragment: its
        address falls in the fragment's zone-map range (for
        relative-coordinate fragments, also inside its bounding box).
        Every point the fragment can match is probed; unlike a bbox-hit
        count, the range may take in points outside the box and leave
        out in-box points it rules out.
    load_seconds:
        Cumulative wall-clock spent loading + decoding the fragment on
        cache misses.
    writes:
        Times the fragment's contents were (re)written — 1 for a normal
        fragment, bumped when a merge/migration produces it.
    """

    point_reads: int = 0
    box_reads: int = 0
    points_queried: int = 0
    points_matched: int = 0
    load_seconds: float = 0.0
    writes: int = 0

    @property
    def reads(self) -> int:
        """Total read operations that visited the fragment."""
        return self.point_reads + self.box_reads

    @property
    def selectivity(self) -> float:
        """Observed hit rate of point queries (0 when never point-read)."""
        if self.points_queried <= 0:
            return 0.0
        return self.points_matched / self.points_queried

    def merge(self, other: "FragmentWorkload") -> "FragmentWorkload":
        """Counter-wise sum (used when fragments are merged/migrated)."""
        return FragmentWorkload(
            point_reads=self.point_reads + other.point_reads,
            box_reads=self.box_reads + other.box_reads,
            points_queried=self.points_queried + other.points_queried,
            points_matched=self.points_matched + other.points_matched,
            load_seconds=self.load_seconds + other.load_seconds,
            writes=self.writes + other.writes,
        )

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _FIELDS}

    @classmethod
    def from_dict(cls, data: dict) -> "FragmentWorkload":
        kwargs = {}
        for name in _FIELDS:
            if name in data:
                cast = float if name == "load_seconds" else int
                kwargs[name] = cast(data[name])
        return cls(**kwargs)


class WorkloadLedger:
    """Thread-safe per-fragment workload accounting.

    Keys are fragment **file names** (``frag-000123.bin``) — stable
    across store reopens, unique within a store directory, and cheap to
    derive on the read path.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[str, FragmentWorkload] = {}
        self._dirty = False

    # -- recording ------------------------------------------------------

    def _entry(self, name: str) -> FragmentWorkload:
        entry = self._entries.get(name)
        if entry is None:
            entry = self._entries[name] = FragmentWorkload()
        return entry

    def record_point_read(
        self, name: str, *, queried: int, matched: int
    ) -> None:
        with self._lock:
            entry = self._entry(name)
            entry.point_reads += 1
            entry.points_queried += int(queried)
            entry.points_matched += int(matched)
            self._dirty = True

    def record_box_read(self, name: str, *, matched: int) -> None:
        # ``matched`` is accepted for symmetry but deliberately not
        # folded into ``points_matched`` — selectivity measures *point*
        # queries, and box hits would push it past 100%.
        with self._lock:
            self._entry(name).box_reads += 1
            self._dirty = True

    def record_load(self, name: str, seconds: float) -> None:
        with self._lock:
            self._entry(name).load_seconds += float(seconds)
            self._dirty = True

    def record_write(self, name: str) -> None:
        with self._lock:
            self._entry(name).writes += 1
            self._dirty = True

    def merge_into(self, old_names: Iterable[str], new_name: str) -> None:
        """Fold several fragments' history into their merged successor.

        Compaction replaces N fragments with one holding the union of
        their points; the successor inherits the summed observations so
        the migration policy keeps seeing the data's true access history.
        """
        with self._lock:
            merged = self._entries.get(new_name, FragmentWorkload())
            for name in old_names:
                old = self._entries.pop(name, None)
                if old is not None:
                    merged = merged.merge(old)
            self._entries[new_name] = merged
            self._dirty = True

    def carry_over(self, old_name: str, new_name: str) -> None:
        """Transfer (merge) history when a fragment is rewritten in place.

        Migration replaces ``frag-A`` with ``frag-B`` holding the same
        points; the observed workload describes the *data*, so it moves
        with it.  The write counter is bumped to record the rewrite.
        """
        with self._lock:
            old = self._entries.pop(old_name, None) or FragmentWorkload()
            merged = self._entries.get(new_name, FragmentWorkload()).merge(old)
            merged.writes += 1
            self._entries[new_name] = merged
            self._dirty = True

    # -- queries --------------------------------------------------------

    def get(self, name: str) -> FragmentWorkload | None:
        with self._lock:
            entry = self._entries.get(name)
            return dataclasses.replace(entry) if entry is not None else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        with self._lock:
            return iter(sorted(self._entries))

    def snapshot(self) -> dict[str, FragmentWorkload]:
        """A point-in-time copy of every entry."""
        with self._lock:
            return {
                name: dataclasses.replace(entry)
                for name, entry in self._entries.items()
            }

    @property
    def dirty(self) -> bool:
        """Unsaved observations since the last :meth:`save`/:meth:`load`."""
        with self._lock:
            return self._dirty

    # -- persistence ----------------------------------------------------

    def prune(self, keep: Iterable[str]) -> None:
        """Drop entries whose fragment left the manifest."""
        keep_set = set(keep)
        with self._lock:
            gone = [n for n in self._entries if n not in keep_set]
            for name in gone:
                del self._entries[name]
            if gone:
                self._dirty = True

    def to_json_bytes(self) -> bytes:
        # Imported here: repro.storage imports repro.obs, and with it
        # this module.
        from ..storage.durability import encode_manifest

        with self._lock:
            doc = {
                "version": LEDGER_VERSION,
                "fragments": {
                    name: entry.to_dict()
                    for name, entry in sorted(self._entries.items())
                },
            }
        return encode_manifest(doc)

    def save(self, path: Path, *, fsync: bool = False) -> None:
        """Atomically persist the ledger (write-temp + rename)."""
        blob = self.to_json_bytes()
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(blob)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
        with self._lock:
            self._dirty = False

    @classmethod
    def load(cls, path: Path) -> "WorkloadLedger":
        """Load a ledger; damaged or absent files yield an empty one.

        The ledger is advisory — a corrupt ``workload.json`` must never
        block opening the store, it just resets the observations.
        """
        ledger = cls()
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError):
            return ledger
        fragments = doc.get("fragments")
        if not isinstance(fragments, dict):
            return ledger
        for name, data in fragments.items():
            if isinstance(data, dict):
                try:
                    ledger._entries[str(name)] = FragmentWorkload.from_dict(
                        data
                    )
                except (TypeError, ValueError):
                    continue
        return ledger
