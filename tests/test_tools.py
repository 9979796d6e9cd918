"""Smoke runs of the tools, so that they cannot rot.

tools/ab.py is run for two rounds against this checkout on both sides; it
must load both, find their results identical, time every case (or the ones
its filter names) and print one row for each.  A CHANGE copy that gives a
different result in one case must stop it with exit code 1, naming that case.
It must time one thread per side, whatever HETSTAB_THREADS the shell sets.
tools/lines.py must count a fixture module's lines as stated, and the source
lines of this package as wc -l does; the package's code lines must stay
within the cap of ROADMAP item 7.
"""

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _ab(change: Path, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "tools/ab.py", str(ROOT), str(change), "--samples", "2000", *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def _case_names(*flags: str) -> list[str]:
    """The case names of a two-round smoke run of this checkout on both
    sides, after checking its verdict line, its header and every row."""
    proc = _ab(ROOT, "--rounds", "2", *flags)
    assert proc.returncode == 0, proc.stderr
    verdict, header, *rows = proc.stdout.splitlines()
    assert verdict == "results identical in every case"
    assert header.split() == ["case", "reps", "parent", "ms", "change", "ms", "ratio", "IQR", "won"]
    names = []
    for row in rows:
        name, reps, parent, change, ratio, iqr, won = row.rsplit(maxsplit=6)
        assert int(reps) >= 1 and float(parent) > 0.0 and float(change) > 0.0
        assert float(ratio) > 0.0 and won.endswith("/2")
        names.append(name.strip())
    return names


def _change_copy(tmp_path: Path, module: str, old: str, new: str) -> Path:
    """A CHANGE checkout under tmp_path: this checkout's package with the one
    occurrence of old in module replaced by new."""
    package = tmp_path / "src" / "hetstab"
    shutil.copytree(ROOT / "src" / "hetstab", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    text = (package / module).read_text()
    assert text.count(old) == 1
    (package / module).write_text(text.replace(old, new))
    return tmp_path


def test_ab_runs_every_case_against_its_own_checkout():
    assert _case_names() == [
        "rsp(-0.5, 0.2)", "rsp(0.5, 0.2)", "seed-3 m=8", "seed-3 m=32", "seed-3 m=8 all",
        "seed-3 m=32 all", "rsp-sweep 61", "rsp-sweep 9", "fplus -1,1,1", "fplus -0.25,1,0",
        "fplus 0.7,-0.3,0", "sigma rsp", "sigma scaled", "in_delta_basin",
        "overflow in_delta_basin", "outside in_delta_basin"]


def test_ab_selects_the_whole_populations_by_name():
    assert _case_names("--cases", "seed-3 m=8 all,seed-3 m=32 all") == [
        "seed-3 m=8 all", "seed-3 m=32 all"]


def test_ab_times_only_the_cases_asked_for():
    assert _case_names("--cases", "in_delta_basin,fplus -1") == ["fplus -1,1,1", "in_delta_basin"]


def test_ab_rejects_a_filter_that_names_no_case():
    proc = _ab(ROOT, "--cases", "nothing")
    assert proc.returncode == 2 and "--cases nothing names no case" in proc.stderr


def test_ab_stops_when_in_delta_basin_differs(tmp_path):
    # a CHANGE checkout whose in_delta_basin inverts every verdict
    change = _change_copy(tmp_path, "oracle.py", "    return bool(\n", "    return not bool(\n")
    proc = _ab(change, "--rounds", "1", "--cases", "sigma rsp,in_delta_basin")
    assert proc.returncode == 1 and proc.stdout == "results differ: in_delta_basin\n"


def test_ab_stops_when_a_classify_report_differs(tmp_path):
    # a CHANGE checkout whose default tolerance, and so every report's tol, differs;
    # the sweep's CSV does not show tol, so it must still read identical
    change = _change_copy(tmp_path, "spectral.py", "DEFAULT_TOL = 1e-9\n", "DEFAULT_TOL = 1e-10\n")
    proc = _ab(change, "--rounds", "1", "--cases", "rsp(-0.5,rsp-sweep 9")
    assert proc.returncode == 1 and proc.stdout == "results differ: rsp(-0.5, 0.2)\n"


def test_ab_times_one_thread_whatever_the_shell_sets(monkeypatch, capsys):
    # a shell that exports HETSTAB_THREADS=2 must not A/B a threaded checkout
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    seen = []
    real = ab._sample
    monkeypatch.setattr(ab, "_sample",
                        lambda *args: seen.append(os.environ["HETSTAB_THREADS"]) or real(*args))
    monkeypatch.setenv("HETSTAB_THREADS", "2")
    argv = [str(ROOT), str(ROOT), "--samples", "2000", "--rounds", "1", "--cases", "in_delta_basin"]
    assert ab.main(argv) == 0
    assert capsys.readouterr().out.startswith("results identical in every case\n")
    assert seen and set(seen) == {"1"}


LINES_FIXTURE = '''"""A module docstring
of two lines."""

import math   # a comment after code is code


def f(x):
    """One docstring line."""
    # a comment alone
    text = """a string that is
    not a docstring"""
    return math.sqrt(x), text


class C:
    """A class docstring,

    with a blank line inside."""

    def g(self):
        \'\'\'Single-quoted.\'\'\'
        return 1
'''


def _lines(package: Path) -> dict[str, tuple[int, int]]:
    """tools/lines.py's rows for package: name -> (source, code)."""
    proc = subprocess.run([sys.executable, "tools/lines.py", str(package)], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["module", "source", "code"]
    return {name: (int(source), int(code)) for name, source, code in map(str.split, rows)}


def test_lines_counts_no_docstring_blank_or_comment_line(tmp_path):
    (tmp_path / "fixture.py").write_text(LINES_FIXTURE)
    (tmp_path / "empty.py").write_text("")
    rows = _lines(tmp_path)
    # code: the import, def f, the two lines of text = ..., the return,
    # class C, def g and its return
    assert rows["fixture.py"] == (LINES_FIXTURE.count("\n"), 8)
    assert rows["empty.py"] == (0, 0)
    assert rows["total"] == (LINES_FIXTURE.count("\n"), 8)


def test_lines_totals_the_package_as_wc_does():
    rows = _lines(ROOT / "src" / "hetstab")
    sources = sorted((ROOT / "src" / "hetstab").glob("*.py"))
    assert sorted(rows) == sorted([p.name for p in sources] + ["total"])
    assert rows["total"][0] == sum(p.read_bytes().count(b"\n") for p in sources)
    assert rows["total"][1] == sum(code for name, (_, code) in rows.items() if name != "total")


CODE_LINE_CAP = 1614 + 250   # ROADMAP item 7: the re-anchor's code lines plus item 2's budget


def test_package_code_lines_stay_within_the_cap():
    assert _lines(ROOT / "src" / "hetstab")["total"][1] <= CODE_LINE_CAP
