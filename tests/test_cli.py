import argparse
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import hetstab
from hetstab import EstimatorConfig, RspParams, rsp_compare, rsp_cycle_spec, save_cycle
from hetstab.cli import SWEEP_CYCLES, _parse_ladder, build_parser, main
import hetstab.cli
import hetstab.stability
import hetstab.transition
from hetstab.spectral import DEFAULT_TOL, _eigen_decompose_many
from hetstab.stability import _sigma_rows
from test_cli_golden import GOLDEN


@pytest.fixture
def rsp_json(tmp_path):
    path = tmp_path / "rsp.json"
    save_cycle(rsp_cycle_spec(RspParams(-0.5, 0.2)), str(path))
    return str(path)


def test_analyze_reports_eas(rsp_json, capsys, tmp_path):
    out_json = tmp_path / "report.json"
    assert main(["analyze", rsp_json, "--json", str(out_json)]) == 0
    out = capsys.readouterr().out
    assert "e.a.s." in out
    assert "0.2666666666666667" in out
    payload = json.loads(out_json.read_text())
    assert payload["report"]["classification"] == "essentially_asymptotically_stable"
    assert payload["version"]
    assert payload["config"]["tol"] == 1e-9


def test_analyze_bad_permutation_exits_one(tmp_path, capsys):
    doc = {
        "nodes": [{"contracting": 1.0, "expanding": 1.0, "transverse": [-0.5]}],
        "connections": [{"permutation": [0, 0]}],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 1
    assert "permutation" in capsys.readouterr().err


@pytest.mark.parametrize("node", [
    {"contracting": 1.0, "expanding": 1.0, "transverse": [float("nan")]},
    {"contracting": float("inf"), "expanding": 1.0, "transverse": [-0.5]},
    {"contracting": 1e300, "expanding": 1e-300, "transverse": [-0.5]},
])
def test_analyze_non_finite_input_exits_one(node, tmp_path, capsys):
    doc = {"nodes": [node, node], "connections": [{"permutation": [0, 1]}] * 2}
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: node 0")


@pytest.mark.parametrize("node", [
    {"contracting": 1e200, "expanding": 1.0, "transverse": [-0.5]},
    {"contracting": 1.0, "expanding": 1e-200, "transverse": [-1e-10]},
])
def test_analyze_overflowing_products_exit_one(node, tmp_path, capsys):
    doc = {"nodes": [node] * 3, "connections": [{"permutation": [0, 1]}] * 3}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: cyclic product")


def test_analyze_reads_a_dominant_eigenvalue_on_the_tolerance_once(tmp_path, capsys):
    # the dominant eigenvalue of both full returns is 1 + tol within an ulp,
    # where reading the dominant-pair conditions at each node apart failed
    # them at node 0 and made a bare ValueError (exit 1)
    doc = {"nodes": [{"contracting": 1.0040389878001477, "expanding": 1.1773165954313938,
                      "transverse": [0.4969715412003095]},
                     {"contracting": 1.3599325844137506, "expanding": 1.6203612943819066,
                      "transverse": [-1.3421056117901689]}],
           "connections": [{"permutation": [0, 1]}, {"permutation": [1, 0]}]}
    path = tmp_path / "tolerance.json"
    path.write_text(json.dumps(doc))
    cycle = hetstab.validate_cycle(hetstab.cycle_from_dict(doc))
    top = max(abs(np.linalg.eigvals(hetstab.full_return_matrix(cycle, 1))))
    assert abs(top - (1.0 + DEFAULT_TOL)) <= 2 * math.ulp(1.0)
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[2:] == ["  0  1.368981919141451  M_(0,0) row 1",
                       "  1 0.1599574110132477  M_(0,1) row 1",
                       "classification: essentially_asymptotically_stable (e.a.s.)"]


def test_analyze_indeterminate_exits_two(tmp_path, capsys):
    path = tmp_path / "boundary.json"
    save_cycle(rsp_cycle_spec(RspParams(0.4, -0.4)), str(path))
    assert main(["analyze", str(path)]) == 2
    assert "indeterminate" in capsys.readouterr().err


def test_analyze_indeterminate_message(tmp_path, capsys):
    path = tmp_path / "boundary.json"
    save_cycle(rsp_cycle_spec(RspParams(0.5, -0.5)), str(path))
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == (
        "indeterminate: indeterminate at node 0: all eigenvalue moduli within 1e-09 of 1: "
        "array([ 1.     +0.j        , -0.90625+0.42274216j, -0.90625-0.42274216j])\n")


def test_findex_with_leading_dash_alpha(capsys):
    assert main(["findex", "--alpha", "-1,1,1"]) == 0
    out = capsys.readouterr().out
    assert "F+      = 1.0" in out
    assert "F-      = 0.0" in out
    assert "F^index = 1.0" in out


def test_findex_infinite_values_serialized(capsys):
    assert main(["findex", "--alpha", "1,2,3"]) == 0
    out = capsys.readouterr().out
    assert "F+      = +inf" in out
    assert "F^index = +inf" in out


def test_rsp_subcommand(capsys):
    assert main(["rsp", "--eps-x", "-0.5", "--eps-y", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "consistent: True" in out
    assert "e.a.s." in out


def test_rsp_takes_exponent_negatives(tmp_path, capsys):
    # argparse reads '-5e-1' as a flag: the CLI glues it onto --eps-x
    outputs, report = [], tmp_path / "report.json"
    for eps_x in ("-0.5", "-5e-1"):
        assert main(["rsp", "--eps-x", eps_x, "--eps-y", "0.2", "--json", str(report)]) == 0
        outputs.append((capsys.readouterr().out, report.read_bytes()))
    assert outputs[0] == outputs[1]
    assert main(["rsp", "--eps-x", "-0.5", "--eps-y", "-1e-3"]) == 0
    assert "eps_x=-0.5 eps_y=-0.001" in capsys.readouterr().out


def test_rsp_consistency_does_not_depend_on_tol(capsys):
    # --tol is the spectral tolerance; pipeline and closed form differ by
    # about 1e-16 here, within rsp.AGREEMENT at any tol
    assert main(["rsp", "--eps-x", "-0.3", "--eps-y", "0.1", "--tol", "0"]) == 0
    assert "consistent: True" in capsys.readouterr().out


def test_a_report_value_that_is_not_finite_is_an_error(tmp_path):
    # only IndexReport.to_dict turns infinities into strings; any other one
    # stops the write before the file is touched, not with invalid JSON
    report = tmp_path / "report.json"
    args = argparse.Namespace(json=str(report), tol=0.0, func=None)
    hetstab.cli._write_report(args, value=1.5)
    written = report.read_bytes()
    assert json.loads(written)["value"] == 1.5
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="not JSON compliant"):
            hetstab.cli._write_report(args, value=value)
        assert report.read_bytes() == written


def test_rsp_sweep_csv(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    assert main(["rsp-sweep", "--grid", "3", "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "eps_x,eps_y,sigma0,sigma1,classification"
    assert len(lines) == 1 + 9
    assert any("-inf" in line for line in lines[1:])
    assert any("essentially_asymptotically_stable" in line for line in lines[1:])


GRID_61 = ["rsp-sweep", "--grid", "61", "--out"]
STACKS_61 = math.ceil(61 / (SWEEP_CYCLES // 61))    # whole rows per stack, within the budget


def test_rsp_sweep_grid_61_bytes(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    assert main(GRID_61 + [str(out_csv)]) == 0
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == (
        "66181d4388fec4424f6c134135bf835ade9910ee2186d9903dee2f34e0b8e518")


def test_rsp_sweep_makes_at_most_two_stacked_decompositions_per_row(tmp_path, monkeypatch,
                                                                    capsys):
    calls = []

    def counting(matrices, tol):
        calls.append(len(matrices))
        return _eigen_decompose_many(matrices, tol)

    monkeypatch.setattr(hetstab.stability, "_eigen_decompose_many", counting)
    assert main(GRID_61 + [str(tmp_path / "sweep.csv")]) == 0
    assert len(calls) == STACKS_61            # one stacked call per stack of rows
    assert sum(calls) <= 61 * 61 * 2          # each full return at most once


def test_rsp_sweep_checks_each_row_once(tmp_path, monkeypatch, capsys):
    # _sigma_rows checks each stack of rows with one isfinite pass: the
    # matrix rule never runs on each of the 7442 matrices
    calls = []
    entries = hetstab.transition._entries
    monkeypatch.setattr(hetstab.transition, "_entries", lambda M: calls.append(1) or entries(M))
    assert main(GRID_61 + [str(tmp_path / "sweep.csv")]) == 0
    assert calls == []


def test_rsp_sweep_makes_no_svd(tmp_path, monkeypatch, capsys):
    # the det bound clears every eigenvector basis of the grid; a defective
    # matrix still reaches the SVD rule
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    assert main(GRID_61 + [str(tmp_path / "sweep.csv")]) == 0
    assert calls == []
    with pytest.raises(hetstab.DefectiveMatrix):
        hetstab.eigen_decompose([[2.0, 1.0], [0.0, 2.0]])
    assert calls == [1]


@pytest.mark.parametrize("budget, sizes", [(81, [81]), (80, [72, 9]), (20, [18] * 4 + [9]),
                                           (5, [9] * 9)])
def test_rsp_sweep_stacks_whole_rows_within_the_budget(tmp_path, monkeypatch, capsys, budget,
                                                       sizes):
    # a budget below one row still gives each row a stack of its own
    calls = []

    def counting(stack, tol):
        calls.append(len(stack))
        return _sigma_rows(stack, tol)

    monkeypatch.setattr(hetstab.cli, "SWEEP_CYCLES", budget)
    monkeypatch.setattr(hetstab.cli, "_sigma_rows", counting)
    out_csv = tmp_path / "sweep.csv"
    assert main(["rsp-sweep", "--grid", "9", "--out", str(out_csv)]) == 0
    assert calls == sizes
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == GOLDEN["rsp-sweep"][1]


def test_rsp_sweep_formats_no_error_message(tmp_path, capsys):
    # the 61 cycles on eps_x + eps_y = 0 are indeterminate, and the CSV says
    # only that: none of their messages, each an eigenvalue array, is formatted
    reprs = []
    with np.printoptions(override_repr=lambda a: reprs.append(a.shape) or "array"):
        assert repr(np.zeros(2)) == "array"
        assert main(GRID_61 + [str(tmp_path / "sweep.csv")]) == 0
    assert reprs == [(2,)]
    assert (tmp_path / "sweep.csv").read_text().count("indeterminate") == 61


def test_rsp_sweep_builds_no_report(tmp_path, monkeypatch, capsys):
    # the sweep reads sigma rows and verdicts from the batch results; only
    # classify's reader builds IndexReport and IndexProvenance
    built = []
    for kind in (hetstab.IndexReport, hetstab.IndexProvenance):
        monkeypatch.setattr(kind, "__init__", lambda self, *args, init=kind.__init__, kind=kind,
                            **kwargs: built.append(kind) or init(self, *args, **kwargs))
    assert main(GRID_61 + [str(tmp_path / "sweep.csv")]) == 0
    assert built == []
    hetstab.classify(hetstab.rsp_matrices(RspParams(-0.5, 0.2)))
    assert set(built) == {hetstab.IndexReport, hetstab.IndexProvenance}


def test_rsp_sweep_memory_stays_small(tmp_path, capsys):
    # stacks of at most SWEEP_CYCLES cycles: a batch of the whole grid peaks near 12 MB
    tracemalloc.start()
    try:
        assert main(GRID_61 + [str(tmp_path / "sweep.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_oracle_sigma_csv_and_determinism(rsp_json, tmp_path, capsys):
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    args = ["oracle", "sigma", rsp_json, "--node", "0",
            "--eps", "1e-15:1e-18:3", "--samples", "500", "--seed", "9"]
    assert main(args + ["--csv", str(csv_a)]) == 0
    assert main(args + ["--csv", str(csv_b)]) == 0
    assert csv_a.read_bytes() == csv_b.read_bytes()     # byte-identical reruns
    header = csv_a.read_text().splitlines()[0]
    assert header == "level,epsilon,sigma_hat_frac,stderr"


def test_oracle_sigma_delta_outside_unit_interval_exits_one(rsp_json, capsys):
    assert main(["oracle", "sigma", rsp_json, "--delta", "2", "--samples", "10"]) == 1
    assert "delta" in capsys.readouterr().err


def test_oracle_fplus(capsys):
    assert main(["oracle", "fplus", "--alpha", "-1,1,1",
                 "--levels", "1e-1:1e-3:6", "--samples", "20000", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "fplus_hat" in out


def test_missing_file_exits_one(capsys):
    assert main(["analyze", "/no/such/file.json"]) == 1


def test_usage_error_exits_one(capsys):
    assert main(["findex"]) == 1               # --alpha is required
    assert main(["no-such-command"]) == 1


def _subcommands(parser, path=()):
    """Every (path, parser) pair below parser, itself included."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _subcommands(sub, path + (name,))


def test_cli_defaults_are_read_from_their_owners():
    parsers = dict(_subcommands(build_parser()))
    tols = {path: p.get_default("tol") for path, p in parsers.items()
            if any(a.dest == "tol" for a in p._actions)}
    assert tols == {("analyze",): DEFAULT_TOL, ("rsp",): DEFAULT_TOL, ("rsp-sweep",): DEFAULT_TOL}
    assert inspect.signature(rsp_compare).parameters["tol"].default == DEFAULT_TOL

    sigma, plan = parsers[("oracle", "sigma")], EstimatorConfig()
    assert tuple(sigma.get_default("eps")) == plan.epsilon_ladder
    for flag, field in [("delta", "delta"), ("samples", "samples_per_level"),
                        ("turns", "max_full_turns"), ("seed", "seed")]:
        assert sigma.get_default(flag) == getattr(plan, field), flag
    assert parsers[("oracle", "fplus")].get_default("seed") == plan.seed


def test_decade_ladder_matches_the_default_ladder():
    assert _parse_ladder("1e-3:1e-7:5") == list(EstimatorConfig().epsilon_ladder)


@pytest.mark.parametrize("top", [1, 2, 7, 15, 100])
def test_decade_ladders_are_exact_powers_of_ten(top):
    decades = 300 - top
    assert _parse_ladder(f"1e-{top}:1e-300:{decades + 1}") == [
        float(f"1e-{k}") for k in range(top, 301)]
    assert _parse_ladder(f"1e-{top}:1e-300:1") == [float(f"1e-{top}")]


def test_ladder_keeps_its_ends_and_spacing():
    ladder = _parse_ladder("3e-1:7e-9:9")
    assert (ladder[0], ladder[-1], len(ladder)) == (3e-1, 7e-9, 9)
    steps = [math.log10(a / b) for a, b in zip(ladder, ladder[1:])]
    assert max(steps) - min(steps) < 1e-12


def test_explicit_decade_ladder_writes_the_default_bytes(rsp_json, tmp_path, capsys):
    common = ["oracle", "sigma", rsp_json, "--samples", "2000", "--turns", "20"]
    explicit, default = tmp_path / "explicit.csv", tmp_path / "default.csv"
    assert main(common + ["--eps", "1e-3:1e-7:5", "--csv", str(explicit)]) == 0
    assert main(common + ["--csv", str(default)]) == 0
    assert explicit.read_bytes() == default.read_bytes()
    assert b"\n2,1e-05," in default.read_bytes()


def test_python_dash_m_runs_the_cli(capsys):
    src = os.path.dirname(os.path.dirname(hetstab.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["findex", "--alpha", "-1,2,3"]
    run = subprocess.run([sys.executable, "-m", "hetstab", *argv], env=env, capture_output=True,
                         text=True, check=True)
    assert main(argv) == 0
    assert run.stdout == capsys.readouterr().out
