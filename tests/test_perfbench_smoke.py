"""The benchmark harness end to end: one short traced verify run.

The harness's contract is its last line of standard output, one JSON
object; a run that exits 0 with a malformed last line is a broken
benchmark, so that line is parsed here as the harness's consumers do.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_traced_verify_run():
    pytest.importorskip("scipy")  # perfbench's correctness checks use it
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["correct"] is True
    assert "operators.apply_s.grid.moment_hit_ratio" in record["metrics"]
