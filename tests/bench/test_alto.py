"""Tier-1 smoke for the ALTO linearization benchmark.

Runs ``benchmarks/bench_alto.py`` at reduced size with the laxer smoke
floors: the skewed box workload must still show a >= 2x fragment-prune
ratio and a >= ``MIN_BOX_SPEEDUP_SMOKE`` end-to-end box-read speedup
over row-major, while point reads and ingest stay within the smoke
guardrail.  The full-size floors (``MIN_PRUNE_RATIO`` /
``MIN_BOX_SPEEDUP`` / ``MAX_SIDE_REGRESSION``) are asserted by the
standalone run and ``tools/bench_report.py``.
"""

import importlib.util
from pathlib import Path

_BENCH = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_alto.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_alto", _BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_alto_box_speedup_smoke():
    bench = _load_bench()
    result = bench.bench_alto(
        n_fragments=128, points_per_fragment=300, repeats=7,
        shapes=("3d",),
    )
    bench.assert_alto_ok(
        result,
        min_prune=bench.MIN_PRUNE_RATIO,
        min_speedup=bench.MIN_BOX_SPEEDUP_SMOKE,
        max_side=bench.MAX_SIDE_REGRESSION_SMOKE,
    )
