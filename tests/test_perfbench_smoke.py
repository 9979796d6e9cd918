"""Fast runs of the benchmark harness, so that it cannot rot unnoticed.

Runs each workload for half a second, untraced; the records go to the
git-ignored .perfbench-out/ in the checkout.  The oracle-mc run also checks
that the oracle's estimates are identical with HETSTAB_THREADS=1 and 2.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["classify-large", "rsp-sweep", "oracle-mc"])
def test_smoke_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
