"""Smoke of ``tools/ab_pair.py``: an A/A run of this checkout.

Both sides load this checkout's program side by side in one process and
answer a handful of ``ingest_mixed`` requests; the tool must check every
answer with the workload's oracle and report both sides' quartiles, the
median per-pair ratio and the win count.  Run as a subprocess, as from
the command line, so the swapped module tables never touch the suite's
own imports.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
TOOL = REPO / "tools" / "ab_pair.py"
PAIRS = 4


def test_ab_pair_a_a_smoke():
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(REPO), str(REPO),
         "--workload", "ingest_mixed", "--seed", "1",
         "--pairs", str(PAIRS), "--warmup", "1"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["workload"] == "ingest_mixed" and result["seed"] == 1
    assert result["pairs"] == PAIRS
    for side in ("a", "b"):
        stats = result[side]
        assert Path(stats["checkout"]) == REPO
        assert stats["failed"] == 0 and stats["wrong"] == 0
        assert 0 < stats["q1_ms"] <= stats["p50_ms"] <= stats["q3_ms"]
    assert result["ratio_median"] > 0
    assert 0 <= result["b_wins"] <= PAIRS
