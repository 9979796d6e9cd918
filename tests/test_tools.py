"""Smoke runs of the in-process A/B tools, so that they cannot rot.

Each script is run for two rounds against this checkout on both sides; it
must load both, time every case (or the ones its filter names) and print one
row for each; tools/ab_lone.py must find the two sides' rsp-sweep CSVs
equal, and tools/ab_oracle.py the two sides' results.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_ab_lone(*flags: str) -> list[str]:
    """The case names of a two-round tools/ab_lone.py run of this checkout on
    both sides, after checking its header and every row."""
    proc = subprocess.run(
        [sys.executable, "tools/ab_lone.py", str(ROOT), str(ROOT), "--rounds", "2", *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["case", "reps", "parent", "ms", "change", "ms", "ratio", "IQR", "won"]
    for row in rows:
        reps, parent, change, ratio, iqr, won = row[16:].split()
        assert int(reps) >= 1 and float(parent) > 0.0 and float(change) > 0.0
        assert float(ratio) > 0.0 and won.endswith("/2")
    return [row[:16].strip() for row in rows]


def test_ab_lone_runs_against_its_own_checkout():
    assert _run_ab_lone() == ["rsp(-0.5, 0.2)", "rsp(0.5, 0.2)", "seed-3 m=8", "seed-3 m=32",
                              "rsp-sweep 61", "rsp-sweep 9"]


def test_ab_lone_times_whole_populations():
    assert _run_ab_lone("--population") == [
        "rsp(-0.5, 0.2)", "rsp(0.5, 0.2)", "seed-3 m=8 all", "seed-3 m=32 all", "rsp-sweep 61",
        "rsp-sweep 9"]


def _run_ab_oracle(*flags: str) -> list[str]:
    """The case names of a two-round tools/ab_oracle.py smoke run of this
    checkout on both sides, after checking its header and every row."""
    proc = subprocess.run(
        [sys.executable, "tools/ab_oracle.py", str(ROOT), str(ROOT), "--rounds", "2",
         "--samples", "2000", *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    verdict, header, *rows = proc.stdout.splitlines()
    assert verdict == "results identical in every case"
    assert header.split() == ["case", "parent", "s", "change", "s", "ratio", "IQR", "won"]
    for row in rows:
        parent, change, ratio, iqr, won = row[20:].split()
        assert float(parent) > 0.0 and float(change) > 0.0
        assert float(ratio) > 0.0 and won.endswith("/2")
    return [row[:20].strip() for row in rows]


def test_ab_oracle_runs_against_its_own_checkout():
    assert _run_ab_oracle() == ["fplus -1,1,1", "fplus -0.25,1,0", "fplus 0.7,-0.3,0",
                                "sigma rsp", "sigma scaled", "in_delta_basin"]


def test_ab_oracle_times_only_the_cases_asked_for():
    assert _run_ab_oracle("--cases", "in_delta_basin,fplus -1") == ["fplus -1,1,1",
                                                                   "in_delta_basin"]


def test_ab_oracle_rejects_a_filter_that_names_no_case():
    proc = subprocess.run(
        [sys.executable, "tools/ab_oracle.py", str(ROOT), str(ROOT), "--cases", "nothing"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2 and "--cases nothing names no case" in proc.stderr


def test_ab_oracle_stops_when_the_two_sides_disagree(tmp_path):
    # a CHANGE checkout whose in_delta_basin inverts every verdict
    change = tmp_path / "src" / "hetstab"
    shutil.copytree(ROOT / "src" / "hetstab", change,
                    ignore=shutil.ignore_patterns("__pycache__"))
    oracle = change / "oracle.py"
    text = oracle.read_text()
    assert text.count("    return bool(\n") == 1
    oracle.write_text(text.replace("    return bool(\n", "    return not bool(\n"))
    proc = subprocess.run(
        [sys.executable, "tools/ab_oracle.py", str(ROOT), str(tmp_path), "--rounds", "1",
         "--samples", "2000", "--cases", "sigma rsp,in_delta_basin"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1 and proc.stdout == "results differ: in_delta_basin\n"
