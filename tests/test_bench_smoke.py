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


def _smoke_run(workload: str, trace: str) -> dict:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--size", "smoke", "--seed", "1", "--seconds", "1", "--trace", trace]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", ["annual", "tracker", "wide-dirty", "point-queries"])
def test_benchmark_smoke_run_is_correct(workload):
    _smoke_run(workload, "0")


# The traced passes of these three workloads are the benchmark's readers of
# a view's links: the compute and tracker branches of trace_cli, and
# trace_queries.
@pytest.mark.parametrize("workload", ["annual", "tracker", "point-queries"])
def test_traced_benchmark_smoke_run_is_correct(workload):
    result = _smoke_run(workload, "1")
    assert result["metrics"]["index.snapshot_links"]["value"] > 0
