"""Operation counting used to validate the paper's Table I empirically.

Measured wall-clock on a Python/NumPy substrate has different constant
factors than the paper's C++ testbed, so the *exact* complexity claims are
checked at the level of abstract operation counts instead: every BUILD/READ
implementation can be handed an :class:`OpCounter` and charges it for the
operations Table I's closed forms count — coordinate transforms, sort key
comparisons, index probes, and pointer lookups.

Tests in ``tests/analysis`` assert the measured counts match the Table I
formulas (see :mod:`repro.analysis.complexity` for the closed forms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class OpCounter:
    """Mutable tally of abstract operations charged by format algorithms.

    Attributes
    ----------
    transforms:
        Per-point, per-dimension coordinate arithmetic (linearization,
        delinearization, folding).  LINEAR build charges ``n * d`` here.
    comparisons:
        Key/coordinate equality or ordering probes during reads — the
        dominant term of every read complexity in Table I.
    sort_ops:
        Comparison budget attributed to sorting, charged as
        ``ceil(n * log2(n))`` per sort of ``n`` keys (0 or 1 keys are free).
    pointer_lookups:
        Structure-navigation loads (``row_ptr``/``fptr`` dereferences).
    memory_ops:
        Element moves: buffer packaging, value reorganization, gathers.
    """

    transforms: int = 0
    comparisons: int = 0
    sort_ops: int = 0
    pointer_lookups: int = 0
    memory_ops: int = 0
    phase_log: list[tuple[str, str, int]] = field(default_factory=list)

    def charge_transforms(self, count: int, *, note: str = "") -> None:
        self.transforms += int(count)
        if note:
            self.phase_log.append((note, "transforms", int(count)))

    def charge_comparisons(self, count: int, *, note: str = "") -> None:
        self.comparisons += int(count)
        if note:
            self.phase_log.append((note, "comparisons", int(count)))

    def charge_sort(self, n_keys: int, *, note: str = "") -> None:
        n = int(n_keys)
        cost = 0 if n <= 1 else math.ceil(n * math.log2(n))
        self.sort_ops += cost
        if note:
            self.phase_log.append((note, "sort_ops", cost))

    def charge_pointer_lookups(self, count: int, *, note: str = "") -> None:
        self.pointer_lookups += int(count)
        if note:
            self.phase_log.append((note, "pointer_lookups", int(count)))

    def charge_memory(self, count: int, *, note: str = "") -> None:
        self.memory_ops += int(count)
        if note:
            self.phase_log.append((note, "memory_ops", int(count)))

    @property
    def total(self) -> int:
        """Grand total across all operation classes."""
        return (
            self.transforms
            + self.comparisons
            + self.sort_ops
            + self.pointer_lookups
            + self.memory_ops
        )

    def snapshot(self) -> dict[str, int]:
        """Immutable view of the current tallies (phase log excluded)."""
        return {
            "transforms": self.transforms,
            "comparisons": self.comparisons,
            "sort_ops": self.sort_ops,
            "pointer_lookups": self.pointer_lookups,
            "memory_ops": self.memory_ops,
            "total": self.total,
        }

    def reset(self) -> None:
        self.transforms = 0
        self.comparisons = 0
        self.sort_ops = 0
        self.pointer_lookups = 0
        self.memory_ops = 0
        self.phase_log.clear()


class NullCounter(OpCounter):
    """Counter that discards all charges (used when accounting is off).

    Keeping the same interface lets format code charge unconditionally
    without ``if counter is not None`` branches on hot paths that are already
    vectorized (the charge itself is O(1) per phase, not per element).
    """

    def charge_transforms(self, count: int, *, note: str = "") -> None:  # noqa: D102
        pass

    def charge_comparisons(self, count: int, *, note: str = "") -> None:  # noqa: D102
        pass

    def charge_sort(self, n_keys: int, *, note: str = "") -> None:  # noqa: D102
        pass

    def charge_pointer_lookups(self, count: int, *, note: str = "") -> None:  # noqa: D102
        pass

    def charge_memory(self, count: int, *, note: str = "") -> None:  # noqa: D102
        pass


#: Shared do-nothing counter instance.
NULL_COUNTER = NullCounter()
