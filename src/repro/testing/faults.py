"""Deterministic fault injection for the storage durability layer.

Every filesystem primitive in :mod:`repro.storage.durability` consults a
process-global *fault hook* before touching the OS.  This module provides
these hook implementations:

:class:`FaultPlan`
    A list of :class:`FaultRule` s matched in order against each I/O op.
    Rules fire a bounded number of times, can skip the first *N* matches,
    and either raise an injected ``OSError(EIO)`` or (for writes) tear the
    write at an exact byte offset.  Fully deterministic — the same program
    against the same plan fails at the same byte.

:class:`CrashPlan`
    A :class:`FaultPlan` after whose first fault every durable op fails:
    the process is dead, so its own failure handling cannot reach the
    disk.

:class:`OpRecorder`
    Fails nothing; records every ``(op, path)`` the durability layer
    performs.  The crash-consistency suite first records a fault-free run
    to *enumerate* the injection points, then replays the workload once per
    point with a plan that kills exactly that op — a :class:`CrashPlan`,
    which then fails every later durable op, as a dead process would.

:class:`SeededFaults`
    Seeded intermittent failures: each matching op fails with probability
    ``p`` drawn from ``random.Random(seed)`` — deterministic across runs,
    chaotic within one.  For soak-testing the retry policy.

Use :func:`inject` as a context manager; it installs the hook and always
restores the previous one::

    with inject(FaultPlan([FaultRule(op="write", pattern="manifest.log")])):
        store.write(coords, values)   # raises OSError at the manifest commit
"""

from __future__ import annotations

import errno
import fnmatch
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from ..storage import durability

#: Ops the durability layer announces, in the vocabulary rules match on.
OPS = ("write", "read", "rename", "fsync", "unlink", "truncate")
#: The ops that change what is on disk.
DURABLE_OPS = ("write", "rename", "fsync", "unlink", "truncate")


@dataclass
class FaultEvent:
    """One injected (or recorded) I/O event."""

    op: str
    path: Path
    torn_at: int | None = None  # byte offset for torn writes
    #: Whether ``path`` named a directory (a directory fsync).
    directory: bool = False

    def __str__(self) -> str:  # pragma: no cover - debug aid
        tear = f" torn@{self.torn_at}" if self.torn_at is not None else ""
        return f"{self.op}({self.path.name}){tear}"


@dataclass
class FaultRule:
    """One deterministic failure to inject.

    Parameters
    ----------
    op:
        Which primitive to fail (``"write"``, ``"read"``, ``"rename"``,
        ``"fsync"``, ``"unlink"``, ``"truncate"``) or ``"*"`` for any.
    pattern:
        ``fnmatch`` pattern against the file *name* (not the full path).
    torn_bytes:
        For ``op="write"`` only: persist exactly this many bytes of the
        blob, then raise — a torn write.  ``None`` fails the op outright.
    after:
        Skip the first ``after`` matching ops before firing.
    times:
        Fire at most this many times (``None`` = every match forever).
    errno_code:
        The ``errno`` of the injected :class:`OSError` (default ``EIO``).
    """

    op: str = "*"
    pattern: str = "*"
    torn_bytes: int | None = None
    after: int = 0
    times: int | None = 1
    errno_code: int = errno.EIO
    _seen: int = field(default=0, repr=False)
    _fired: int = field(default=0, repr=False)

    def matches(self, op: str, path: Path) -> bool:
        if self.op != "*" and self.op != op:
            return False
        return fnmatch.fnmatch(path.name, self.pattern)

    def should_fire(self) -> bool:
        """Advance this rule's match counter; True when it should fail now."""
        if self.times is not None and self._fired >= self.times:
            return False
        self._seen += 1
        if self._seen <= self.after:
            return False
        self._fired += 1
        return True

    def make_error(self, op: str, path: Path) -> OSError:
        return OSError(
            self.errno_code, f"injected fault on {op} (rule {self.pattern!r})",
            str(path),
        )


class FaultPlan:
    """An ordered set of :class:`FaultRule` s acting as a durability hook."""

    def __init__(self, rules: list[FaultRule] | None = None):
        self.rules = list(rules or [])
        #: Every fault actually injected, in order.
        self.fired: list[FaultEvent] = []

    # -- durability.FaultHook interface --------------------------------

    def before(self, op: str, path: Path) -> None:
        # Torn-write rules fire from torn_write(), not here — otherwise one
        # write op would advance the same rule's counters twice.
        for rule in self.rules:
            if (
                rule.torn_bytes is None
                and rule.matches(op, path)
                and rule.should_fire()
            ):
                self.fired.append(FaultEvent(op, path))
                raise rule.make_error(op, path)

    def torn_write(self, path: Path, data: bytes) -> int | None:
        for rule in self.rules:
            if (
                rule.op == "write"
                and rule.torn_bytes is not None
                and rule.matches("write", path)
                and rule.should_fire()
            ):
                torn = min(rule.torn_bytes, len(data))
                self.fired.append(FaultEvent("write", path, torn_at=torn))
                return torn
        return None


class CrashPlan(FaultPlan):
    """A :class:`FaultPlan` that models a crash: once a rule has fired the
    process is dead, so every later durable op fails as well.

    A plain :class:`FaultPlan` fails one op and lets the program handle
    the error (cut back a torn append, seal a segment) — the in-process
    failure model.  Here that handling cannot reach the disk either, so
    the reopen sees what a killed process leaves.
    """

    def before(self, op: str, path: Path) -> None:
        if self.fired and op in DURABLE_OPS:
            raise OSError(
                errno.EIO, f"injected fault on {op} (process crashed)",
                str(path),
            )
        super().before(op, path)


class OpRecorder:
    """A hook that fails nothing and logs every durability-layer op.

    ``events`` after a run is the complete, ordered list of injection
    points; drive :func:`plan_for_crash_point` with an index into it to
    re-run the workload crashing at exactly that op.
    """

    def __init__(self) -> None:
        self.events: list[FaultEvent] = []

    def before(self, op: str, path: Path) -> None:
        self.events.append(
            FaultEvent(op, path, directory=op == "fsync" and path.is_dir())
        )

    def torn_write(self, path: Path, data: bytes) -> int | None:
        return None


def plan_for_crash_point(
    events: list[FaultEvent], index: int, *, torn_bytes: int | None = None
) -> CrashPlan:
    """A plan that kills the ``index``-th recorded op of a replayed run,
    and with it the process: every durable op after it fails too
    (:class:`CrashPlan`).

    The replay must perform the same op sequence as the recorded run (the
    workload is deterministic; that is the point).  A file op is found
    again by its file name; a directory fsync by its rank among the ops of
    its kind, since the replay usually runs in a directory of another
    name.  ``torn_bytes`` applies only when the target op is a write,
    turning the failure into a torn write at that byte offset instead of
    an outright error.
    """
    target = events[index]
    pattern = "*" if target.directory else target.path.name
    preceding = sum(
        1 for e in events[:index]
        if e.op == target.op and fnmatch.fnmatch(e.path.name, pattern)
    )
    return CrashPlan([
        FaultRule(
            op=target.op,
            pattern=pattern,
            after=preceding,
            times=1,
            torn_bytes=torn_bytes if target.op == "write" else None,
        )
    ])


class SeededFaults:
    """Intermittent failures from a seeded RNG (deterministic per seed)."""

    def __init__(
        self,
        seed: int,
        p: float,
        *,
        ops: tuple[str, ...] = ("read",),
        pattern: str = "*",
    ):
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be a probability")
        self.rng = random.Random(seed)
        self.p = p
        self.ops = tuple(ops)
        self.pattern = pattern
        self.fired: list[FaultEvent] = []

    def before(self, op: str, path: Path) -> None:
        if op not in self.ops or not fnmatch.fnmatch(path.name, self.pattern):
            return
        if self.rng.random() < self.p:
            self.fired.append(FaultEvent(op, path))
            raise OSError(
                errno.EIO, f"injected intermittent fault on {op}", str(path)
            )

    def torn_write(self, path: Path, data: bytes) -> int | None:
        return None


@contextmanager
def inject(hook) -> Iterator:
    """Install ``hook`` as the process fault hook for the ``with`` body."""
    old = durability.set_fault_hook(hook)
    try:
        yield hook
    finally:
        durability.set_fault_hook(old)
