"""End-to-end benchmark of the sparse-tensor fragment store.

Run from the root of a checkout::

    python3 perfbench/run.py --workload point_lookup --seed 1 --seconds 20 --trace 0

The program under test is imported from the checkout's ``src/`` (pure
Python, nothing to build).  A run draws every input from ``--seed``,
builds the workload's stores at least ``SETUP_MIN`` times (and more, up
to ``SETUP_MAX``, until ``SETUP_SECONDS`` of set-up time are measured),
sends ``WARMUP_REQUESTS`` untimed requests, then sends requests in a closed loop
for ``--seconds`` seconds and checks every response against an oracle.
``workloads.py`` describes the workloads.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": 4210, "failed": 0,
     "metrics": {"p50_ms": {"value": 1.93, "unit": "ms"}, ...}}

With ``--trace 0`` the metrics are end to end:

``p50_ms``
    Median request latency in the run's quietest stretch: the timed loop
    is cut into rounds of ``ROUND_SECONDS`` (and at least
    ``ROUND_REQUESTS`` requests), and the figure is the lowest of the
    rounds' median latencies.  ``attempted`` counts every request.
``bytes_per_point``
    Bytes on disk per live point: fragments, manifests and WAL.
``setup_s``
    The shortest of the times to build the workload's stores from its
    inputs.

Why the best round and the best set-up: on a shared 2-vCPU virtual
machine the speed of even a fixed pure-Python loop moved by up to 50 %
between stretches of one to twenty seconds, with the process on the CPU
throughout, and each virtual CPU had its slow stretches at its own times.
Rounds and set-ups therefore alternate between the allowed CPUs.  A
slowdown of the program slows every round alike and shows in full; a
busy neighbour slows only the rounds it overlaps.  (Tail
percentiles and mean throughput follow the neighbours, so they are not
reported.)

With ``--trace 1`` they are the per-layer breakdown of ``layers.py``.
Files go to ``.perfbench_work/`` in the checkout and are removed before
exit.  Without the program's source (``src/repro``) the run exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_MIN = 3
SETUP_MAX = 31
SETUP_SECONDS = 2.0
WARMUP_REQUESTS = 32
ROUND_SECONDS = 0.5
ROUND_REQUESTS = 16

#: Requests and set-ups are timed in CPU time of this process: on a shared
#: machine, time the scheduler gives to other work is not the program's.
#: Every workload is single-threaded and reads from the page cache, so on
#: an idle machine this equals the wall time.
clock = time.process_time

#: The CPUs this process may run on.  Set-ups and rounds take them in
#: turn (see :func:`pin`).
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pin(k: int) -> None:
    """Move this process to CPU ``k`` modulo the allowed ones.  On a
    virtual machine each virtual CPU is slowed by its own neighbours at
    its own times, so spreading rounds over them lets the best round come
    from a quiet one."""
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})


def unpin() -> None:
    if len(CPUS) > 1:
        os.sched_setaffinity(0, set(CPUS))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the sparse-tensor fragment store."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


@dataclass
class Tally:
    rounds: list[list[float]] = field(default_factory=lambda: [[]])
    failed: int = 0
    wrong: int = 0

    @property
    def latencies(self) -> list[float]:
        return [t for round_ in self.rounds for t in round_]


def drive(
    workload, first: int, tally: Tally, *, count: int = 0, seconds: float = 0.0
) -> int:
    """Send requests ``first``, ``first + 1``, ... one at a time -- ``count``
    of them, or as many as ``seconds`` allow -- timing each call and
    checking its result outside the timed span; latencies go to rounds of
    ``ROUND_SECONDS``.  Returns the next index."""
    now = time.perf_counter()
    deadline, round_end = now + seconds, now + ROUND_SECONDS
    i = first
    while True:
        request = workload.request(i)
        i += 1
        t0 = clock()
        try:
            out = request.call()
        except Exception:
            tally.failed += 1
            if tally.failed == 1:
                traceback.print_exc()
        else:
            tally.rounds[-1].append(clock() - t0)
            tally.wrong += not request.check(out)
        now = time.perf_counter()
        if now >= round_end and len(tally.rounds[-1]) >= ROUND_REQUESTS:
            tally.rounds.append([])
            pin(len(tally.rounds))
            round_end = now + ROUND_SECONDS
        done = i - first >= count if count else now >= deadline
        if done:
            if len(tally.rounds) > 1 and len(tally.rounds[-1]) < ROUND_REQUESTS:
                tally.rounds[-2].extend(tally.rounds.pop())
            return i


def run(args: argparse.Namespace, work: Path) -> dict:
    from layers import Tracer, counter_totals, layer_metrics
    from workloads import WORKLOADS

    from repro import obs

    obs.enable()  # the program's default; the traced counters read it
    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    setup: list[float] = []
    warm, tally = Tally(), Tally()
    try:
        for k in range(SETUP_MAX):
            if k >= SETUP_MIN and sum(setup) >= SETUP_SECONDS:
                break
            if k:
                workload.close()
                shutil.rmtree(work / f"setup-{k - 1}")
            pin(k)
            t0 = clock()
            workload.setup(work / f"setup-{k}")
            setup.append(clock() - t0)
        first = drive(workload, 0, warm, count=WARMUP_REQUESTS)
        if tracer:
            tracer.install()
        before = counter_totals()
        try:
            pin(0)
            drive(workload, first, tally, seconds=args.seconds)
        finally:
            unpin()
            if tracer:
                tracer.uninstall()
        after = counter_totals()
        space = workload.bytes_per_point()
    finally:
        workload.close()

    lat = tally.latencies
    if tracer:
        metrics = layer_metrics(tracer, before, after, len(lat), sum(lat))
    else:
        medians = [statistics.median(r) for r in tally.rounds if r]
        metrics = {
            "p50_ms": (min(medians) * 1e3 if lat else 0.0, "ms"),
            "bytes_per_point": (space, "B"),
            "setup_s": (min(setup), "s"),
        }
    errors = warm.failed + warm.wrong + tally.failed + tally.wrong
    return {
        "correct": bool(lat) and errors == 0,
        "attempted": len(lat) + tally.failed,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {source / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # still in use by a concurrent run
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
