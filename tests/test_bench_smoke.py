"""The benchmark's smoke size end to end: every output of each workload
(compute on a clean and on a dirty corpus, the tracker, the point queries)
is checked against the oracle inside the run."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["annual", "tracker", "wide-dirty", "point-queries"])
def test_benchmark_smoke_run_is_correct(workload):
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--size", "smoke", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
