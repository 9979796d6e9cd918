"""Fast runs of the benchmark harness, so that it cannot rot unnoticed.

Runs each workload for half a second, untraced; the records go to the
git-ignored .perfbench-out/ in the checkout.  The oracle-mc run also checks
that the oracle's estimates are identical with HETSTAB_THREADS=1 and 2.
The untraced runs never reach the traced replay, so a separate check pins
every package name that the harness calls.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hetstab
import hetstab.cli

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


def test_every_name_the_harness_calls_resolves():
    # tracing.api resolves "layer.name" through hetstab.__all__, and
    # "cli.main" by import; workloads.py calls hs.<name> and tracing.py
    # catches hetstab.<name> exceptions
    tracing = (ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8")
    workloads = (ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8")
    traced = set(re.findall(r'\b(?:api|tr\.call)\(\s*"(\w+\.\w+)"', tracing))
    assert {"cli.main", "stability.classify", "oracle.estimate_sigma_mc"} <= traced
    direct = set(re.findall(r"\bhs\.(\w+)", workloads))
    direct |= set(re.findall(r"\bhetstab\.([A-Za-z]\w*)", tracing)) - {"cli"}
    assert {"classify", "IndeterminateError", "SpectralError"} <= direct
    assert callable(hetstab.cli.main)
    missing = [n for n in traced if n != "cli.main" and n.split(".", 1)[1] not in hetstab.__all__]
    missing += [n for n in direct if n not in hetstab.__all__]
    assert sorted(missing) == []
    assert [n for n in hetstab.__all__ if not hasattr(hetstab, n)] == []
