"""Golden CLI bytes: the SHA-256 of stdout and of every written file.

Each case runs cli.main in process inside tmp_path with relative paths, so
the bytes do not depend on where the suite runs.  A change that keeps the
numbers and the output format keeps every digest; one that means to change
the output must update the digest it changes and say why.
"""

import dataclasses
import hashlib

import pytest

from hetstab import ConnectionSpec, RspParams, rsp_cycle_spec, save_cycle
from hetstab.cli import main

CASES = {
    "analyze": (
        ["analyze", "c.json", "-v", "--json", "report.json"], ["report.json"]),
    "rsp": (
        ["rsp", "--eps-x", "-0.5", "--eps-y", "0.2", "--json", "rsp.json"], ["rsp.json"]),
    "rsp-sweep": (
        ["rsp-sweep", "--grid", "9", "--out", "sweep.csv"], ["sweep.csv"]),
    "findex": (
        ["findex", "--alpha", "-1,0.5,0.25"], []),
    "oracle-sigma": (
        ["oracle", "sigma", "scaled.json", "--eps", "1e-15:1e-18:4", "--samples", "500",
         "--turns", "40", "--seed", "3", "--csv", "sigma.csv"], ["sigma.csv"]),
    "oracle-fplus": (
        ["oracle", "fplus", "--alpha", "-1,1,1", "--levels", "1e-1:1e-3:4",
         "--samples", "20000", "--seed", "1"], []),
}

GOLDEN = {
    "analyze": [
        "e1d98d1c8663649df2b0e2f658ed4fe9c63f0cee16f6590eff82d55ec69671ca",
        "5475961f7c5539a30a1099204e37fda76d3433ac327175ca765c7d4b4b1a0d5e",
    ],
    "findex": [
        "cdfeaad91222b5c4d044c90622604f3fdb64733532ad353ecf05a239537749e6",
    ],
    "oracle-fplus": [
        "a17907a11eef8db4864bc87cf8c4d9f8ca152a806cb623bd292ef3c600195cfb",
    ],
    "oracle-sigma": [
        "17cf4a1c72650da72de5f54848965641c77b177a4e5f0db32c5cfb1ceb628cfe",
        "4c7f6bf559efa7bc8fb19c1e0fcca3ae7b1d088eaad9ff5c584d2460666a694d",
    ],
    "rsp": [
        "d7c9a2644ff6749874900679bc85bb5411929b0a43ada8a9773d4f435cd66bed",
        "bd8b45a93a08e0a21df5af57500408cef0c0c167e865aedc63e3e46547d6bfb9",
    ],
    "rsp-sweep": [
        "7b36ef0830c50b957aa8290616db6ade1733b4e16532dd3f8827247b9e8e7de5",
        "3d8c926f932283582ab314679a0da33c4f51f98abe9d7d5570bb002476fd09ed",
    ],
}


def _write_cycles():
    """c.json: the RSP cycle at (-0.5, 0.2); scaled.json: the same cycle with
    non-default scalings and v0, so that the oracle's log offsets are not zero."""
    spec = rsp_cycle_spec(RspParams(-0.5, 0.2))
    save_cycle(spec, "c.json")
    conn = ConnectionSpec((1, 2, 0), scalings=(2.0, 0.5, 1.5), contraction_offset=0.3)
    save_cycle(dataclasses.replace(spec, connections=(conn, conn)), "scaled.json")


def _digests(name, tmp_path, monkeypatch, capsys):
    argv, files = CASES[name]
    monkeypatch.chdir(tmp_path)
    _write_cycles()
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out.encode()
    return [hashlib.sha256(out).hexdigest()] + [
        hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in files]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes_match_golden(name, tmp_path, monkeypatch, capsys):
    assert _digests(name, tmp_path, monkeypatch, capsys) == GOLDEN[name]
