#!/usr/bin/env python
"""Paired A/B run of one perfbench workload over two checkouts.

On a shared virtual machine the speed of a fixed loop drifts by tens of
percent between stretches of seconds, so two separate benchmark runs
only resolve large effects.  This tool loads the programs of two
checkouts side by side in one process and sends them the same requests
in pairs, alternating which side goes first, so both halves of a pair
see the same machine::

    python tools/ab_pair.py PARENT_CHECKOUT CHANGE_CHECKOUT \\
        --workload ingest_mixed --seed 7 --pairs 200

Each side builds its stores with its own copy of ``perfbench/`` and its
own ``src/repro``, sends the same warm-up requests, then request ``i`` of
the workload's fixed sequence goes to both sides in pair ``i``.  Every
request is timed with perfbench's clock (``run.clock``, CPU time of the
process) and checked by the workload's own oracle.  Nothing under
``perfbench/`` is changed.

The last stdout line is one JSON object: per side the median and
quartiles of the request latency in ms and the failed/wrong counts, then
``ratio_median`` (the median over pairs of B's latency over A's) and
``b_wins`` (pairs in which B was faster).

The two programs share one interpreter, so each side's modules (the
``repro`` package and perfbench's ``run``, ``workloads``, ``layers``
and ``data``) are swapped into ``sys.modules`` while it runs; imports
made inside functions therefore resolve to that side's program.  The
modules present before the run are restored afterwards.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import statistics
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

#: Top-level module names that belong to one side's program.
OWNED = ("repro", "run", "workloads", "layers", "data")
WARMUP_REQUESTS = 32


def _owned(name: str) -> bool:
    return name.partition(".")[0] in OWNED


def _take_owned() -> dict:
    """Remove every owned module from ``sys.modules``; return them."""
    taken = {n: m for n, m in sys.modules.items() if _owned(n)}
    for name in taken:
        del sys.modules[name]
    return taken


class Side:
    """One checkout's program and its workload."""

    def __init__(self, checkout: Path, workload: str, seed: int, work: Path):
        self.checkout = checkout.resolve()
        self.modules: dict = {}
        self.failed = self.wrong = 0
        saved = list(sys.path)
        sys.path[:0] = [
            str(self.checkout / "src"), str(self.checkout / "perfbench")
        ]
        try:
            with self.active():
                run = importlib.import_module("run")
                workloads = importlib.import_module("workloads")
                source = Path(importlib.import_module("repro").__file__)
                if self.checkout not in source.resolve().parents:
                    raise RuntimeError(f"{source} is not under {checkout}")
                self.clock = run.clock
                self.workload = workloads.WORKLOADS[workload](seed)
                self.workload.setup(work)
        finally:
            sys.path[:] = saved

    @contextmanager
    def active(self):
        """This side's modules in ``sys.modules`` for the ``with`` body."""
        _take_owned()
        sys.modules.update(self.modules)
        try:
            yield
        finally:
            self.modules = _take_owned()

    def send(self, i: int) -> float | None:
        """Send request ``i``; its latency in seconds, or ``None`` when
        its call raised.  A wrong result is counted, and still timed."""
        with self.active():
            request = self.workload.request(i)
            t0 = self.clock()
            try:
                out = request.call()
            except Exception:
                self.failed += 1
                return None
            elapsed = self.clock() - t0
            self.wrong += not request.check(out)
        return elapsed

    def close(self) -> None:
        with self.active():
            self.workload.close()

    def summary(self, latencies: list[float]) -> dict:
        lat = [t * 1e3 for t in latencies]
        q1, q2, q3 = statistics.quantiles(lat, n=4) if len(lat) > 1 else lat * 3
        return {
            "checkout": str(self.checkout),
            "p50_ms": q2, "q1_ms": q1, "q3_ms": q3,
            "failed": self.failed, "wrong": self.wrong,
        }


def ab_pair(
    a: Path, b: Path, workload: str, seed: int, pairs: int,
    *, warmup: int = WARMUP_REQUESTS,
) -> dict:
    """Run ``pairs`` paired requests on checkouts ``a`` and ``b``."""
    original = _take_owned()
    work = Path(tempfile.mkdtemp(prefix="ab_pair-"))
    sides: list[Side] = []
    try:
        for name, checkout in (("a", a), ("b", b)):
            sides.append(Side(Path(checkout), workload, seed, work / name))
        for i in range(warmup):
            for side in sides:
                side.send(i)
        for side in sides:
            side.failed = side.wrong = 0
        paired = []  # (a, b) latencies of the pairs where both answered
        for k in range(pairs):
            order = (0, 1) if k % 2 == 0 else (1, 0)
            times = [None, None]
            for j in order:
                times[j] = sides[j].send(warmup + k)
            if None not in times:
                paired.append(tuple(times))
        ratios = [tb / ta for ta, tb in paired if ta > 0]
        return {
            "workload": workload,
            "seed": seed,
            "pairs": len(paired),
            "a": sides[0].summary([ta for ta, _ in paired]),
            "b": sides[1].summary([tb for _, tb in paired]),
            "ratio_median": statistics.median(ratios) if ratios else None,
            "b_wins": sum(tb < ta for ta, tb in paired),
        }
    finally:
        for side in sides:
            side.close()
        _take_owned()
        sys.modules.update(original)
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", type=Path, help="checkout A (the baseline)")
    parser.add_argument("b", type=Path, help="checkout B (the change)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--warmup", type=int, default=WARMUP_REQUESTS)
    args = parser.parse_args(argv)
    result = ab_pair(
        args.a, args.b, args.workload, args.seed, args.pairs,
        warmup=args.warmup,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
