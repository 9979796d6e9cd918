"""Golden analytic outcomes: the SHA-256 of the canonical form of every report
and error on fixed-seed populations.

Each case runs classify or sigma, one cycle at a time, on a population
drawn from the conftest generators, or on the RSP grid that
`rsp-sweep --grid 61` covers (the session's rsp_grid_outcomes).  A report
is its verdict and, for every j, float.hex of sigma_j, the provenance source
and float.hex of every component of the provenance vector; an error is its
type, message and .node.  A change that keeps every number, provenance,
verdict and error keeps every digest; one that means to change an outcome
must update the digest it changes and say why.
"""

import hashlib

import numpy as np
import pytest

from conftest import attracting_cycle, classify_outcome, random_cycle
from hetstab import sigma


def _canonical(result) -> str:
    if isinstance(result, Exception):
        return f"{type(result).__name__}|{result}|{getattr(result, 'node', None)}"
    if isinstance(result, float):
        return result.hex()
    parts = [result.classification.value]
    for value, provenance in zip(result.sigma, result.provenance):
        alpha = provenance.alpha or ()
        parts += [value.hex(), provenance.source, ",".join(a.hex() for a in alpha)]
    return "|".join(parts)


def _sigmas(cycle) -> list:
    out = []
    for j in range(cycle.m):
        try:
            out.append(sigma(cycle, j))
        except Exception as exc:   # every error sigma raises is pinned
            out.append(exc)
    return out


def _mixed():
    rng = np.random.default_rng(81)
    cycles = [random_cycle(rng, max_m=12, sign="mixed") for _ in range(600)]
    return cycles + [random_cycle(rng, max_m=32, sign="mixed") for _ in range(40)]


def _attracting():
    rng = np.random.default_rng(82)
    return [attracting_cycle(rng, 32) for _ in range(24)]


def _negative():
    rng = np.random.default_rng(83)
    return [random_cycle(rng, max_m=8, sign="negative") for _ in range(200)]


def _classified(cycles) -> list:
    return [classify_outcome(cycle) for cycle in cycles]


# each case reads the pytest request, for the session's classified RSP grid
CASES = {
    "classify-mixed": lambda request: _classified(_mixed()),
    "classify-attracting-32": lambda request: _classified(_attracting()),
    "classify-negative": lambda request: _classified(_negative()),
    "classify-rsp-grid-61": lambda request: request.getfixturevalue("rsp_grid_outcomes"),
    "sigma-mixed": lambda request: [s for cycle in _mixed()[::8] for s in _sigmas(cycle)],
    "sigma-attracting-32": lambda request: [s for cycle in _attracting()[:4]
                                            for s in _sigmas(cycle)],
}

GOLDEN = {
    "classify-attracting-32": "d26a40fbc0c1120dd2333ee5cb729243f80500d4b13518cfcfa3ff1352aec227",
    "classify-mixed": "d231f1c698bd126fd83305c1736e43c932b94007e9b7513507a8a6c0bf47bd6b",
    "classify-negative": "2d9b307bdba6dd6dbf66938af57718065ba78b235aedcfef8a16bfa7cffd5b8e",
    "classify-rsp-grid-61": "03fd66b9949f4f82319a1b1006afcfd79b5e6ef04190cf216de2fa9d548b6931",
    "sigma-attracting-32": "bf86288e13b63d61f07ece370445cadad5e5dc3c99d799384945fded577bf9dd",
    "sigma-mixed": "29bad8acc7279373002456ba0dafe599a61fb2c1a66d97b311b2bafc0b481c37",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outcomes_match_golden(name, request):
    lines = "\n".join(_canonical(r) for r in CASES[name](request))
    assert hashlib.sha256(lines.encode()).hexdigest() == GOLDEN[name]
