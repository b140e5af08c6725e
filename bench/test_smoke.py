"""Smoke test of the benchmark: every workload with a tiny load, both modes.

Run from the repository root with ``python3 -m pytest bench``.  Checks the
result line against BENCHMARK.json: exact keys, every metric named there
printed with its unit, and a non-zero exit without a result when the
package source is absent.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
        assert trace or got["value"] > 0, m["name"]


def test_fails_without_package_source():
    bare = BENCH / "out" / "tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for src in BENCH.glob("*.py"):
        shutil.copy(src, bare / "bench")
    try:
        proc = _run(bare, "decompose-lib", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
