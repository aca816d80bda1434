"""Test-support utilities shipped with the library.

:mod:`repro.testing.faults` is the deterministic fault-injection harness
for the storage durability layer (torn writes, injected ``EIO``, seeded
intermittent failures).  :mod:`repro.testing.generators` provides seeded
random tensors, query mixes, and brute-force oracles for differential and
stress testing.  Both live in the package — not the test tree — so
downstream users can run the same crash-consistency and differential
drills against their own deployments.
"""

from .faults import (
    CrashPlan,
    FaultEvent,
    FaultPlan,
    FaultRule,
    OpRecorder,
    SeededFaults,
    inject,
)
from .generators import (
    VALUE_DTYPES,
    oracle_read_box,
    oracle_read_points,
    random_box,
    random_queries,
    random_shape,
    random_sparse_tensor,
)

__all__ = [
    "CrashPlan",
    "FaultEvent",
    "FaultPlan",
    "FaultRule",
    "OpRecorder",
    "SeededFaults",
    "VALUE_DTYPES",
    "inject",
    "oracle_read_box",
    "oracle_read_points",
    "random_box",
    "random_queries",
    "random_shape",
    "random_sparse_tensor",
]
