"""Seeded workload inputs, built from numpy and the seed only.

Nothing here imports hetstab: the inputs are plain data (cycle-spec JSON
documents, argument lists, configuration numbers), so the package under test
never filters or shapes what it is given.  `digest` hashes the canonical JSON
form, which lets two runs prove they saw identical inputs.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

N_TRANSVERSE = 3                 # N = 4
CLASSIFY_M = (8, 32)
CLASSIFY_COUNTS = {8: 96, 32: 24}
RANDOM_SHARE = 0.25              # unconstrained draws; the rest attract
POSITIVE_SHARE = 0.3             # attracting nodes given one positive transverse

RSP_GRIDS = (9, 61)              # the CLI default grid, and a large one
RSP_SMALL_PER_ROUND = 8          # default-grid sweeps per large sweep

ORACLE_RSP = (-0.5, 0.2)         # acceptance criterion 6
ORACLE_NODE = 0
ORACLE_DELTA = 1e-2
ORACLE_EPS_EXP = tuple(range(15, 23))
ORACLE_SAMPLES = 40_000
ORACLE_TURNS = 200
FPLUS_ALPHA = (-0.25, 1.0, 0.0)  # acceptance criterion 5, F+ = 3
FPLUS_SAMPLES = 10**6
# The acceptance criteria's own seeds.  The criteria's tolerances hold there;
# across seeds F+ is unbiased (mean 2.997, sd 0.038 over 30 seeds), so a
# seed drawn per run misses the 0.1 tolerance about 1 time in 100 by
# sampling error alone, which would count as a failed operation.
SIGMA_SEED = 20260806            # criterion 6
FPLUS_SEED = 20260805            # criterion 5
BASIN_BATCH = 40_000
IN_BASIN_POINTS = 100


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _attracting_node(rng: np.random.Generator, positive: bool) -> dict:
    t = -rng.uniform(0.2, 1.2, N_TRANSVERSE)
    if positive:
        t[rng.integers(N_TRANSVERSE)] = rng.uniform(0.05, 0.3)
    return {"contracting": float(rng.uniform(1.1, 1.8)),
            "expanding": float(rng.uniform(0.8, 1.2)),
            "transverse": [float(x) for x in t]}


def _random_node(rng: np.random.Generator) -> dict:
    return {"contracting": float(rng.uniform(0.6, 1.8)),
            "expanding": float(rng.uniform(0.6, 1.8)),
            "transverse": [float(x) for x in rng.uniform(-1.2, 1.2, N_TRANSVERSE)]}


def _cycle_doc(rng: np.random.Generator, m: int, attracting: bool) -> dict:
    # a fixed number of positive nodes fixes L, and so the work per cycle,
    # within the attracting family; the timing medians then do not hinge on
    # how many long cycles one seed happens to draw
    positive = set(rng.choice(m, round(POSITIVE_SHARE * m), replace=False).tolist())
    nodes, conns = [], []
    for j in range(m):
        nodes.append(_attracting_node(rng, j in positive) if attracting else _random_node(rng))
        conn = {"permutation": [int(i) for i in rng.permutation(N_TRANSVERSE + 1)]}
        if not attracting:
            conn["scalings"] = [float(s) for s in rng.uniform(0.5, 2.0, N_TRANSVERSE + 1)]
            conn["v0"] = float(rng.uniform(0.5, 2.0))
        conns.append(conn)
    return {"nodes": nodes, "connections": conns}


def classify_population(seed: int) -> list[dict]:
    """Cycle documents for classify-large, interleaved m=8 and m=32.

    Each entry is {"m", "family", "rotate", "doc"}; rotate is the cyclic
    shift used by the rotation check.
    """
    rng = np.random.default_rng((seed, 1))
    by_m = {}
    for m in CLASSIFY_M:
        count = CLASSIFY_COUNTS[m]
        families = rng.permutation(count) >= round(RANDOM_SHARE * count)
        entries = []
        for attracting in families:
            attracting = bool(attracting)
            entries.append({"m": m, "family": "attracting" if attracting else "random",
                            "rotate": int(rng.integers(1, m)),
                            "doc": _cycle_doc(rng, m, attracting)})
        by_m[m] = entries
    # interleave so every stretch of the timed loop sees both sizes
    small, large = by_m[8], by_m[32]
    step = len(small) // len(large)
    out = []
    for i, big in enumerate(large):
        out.extend(small[i * step:(i + 1) * step])
        out.append(big)
    out.extend(small[len(large) * step:])
    return out


def rsp_sweep_argvs() -> list[list[str]]:
    """One round of CLI argument lists, without --out (the harness appends a
    scratch path): the default-grid sweep RSP_SMALL_PER_ROUND times, so that
    both sizes get enough samples in a run, then the large one."""
    small, large = (["rsp-sweep", "--grid", str(g)] for g in RSP_GRIDS)
    return [small] * RSP_SMALL_PER_ROUND + [large]


def oracle_plan() -> dict:
    ladder = np.exp(np.concatenate([np.linspace(-2.0, -4.0, 100, endpoint=False),
                                    np.linspace(-4.0, -10.0, 31)]))
    return {
        "rsp": list(ORACLE_RSP),
        "node": ORACLE_NODE,
        "sigma_config": {"delta": ORACLE_DELTA,
                         "epsilon_ladder": [10.0 ** -k for k in ORACLE_EPS_EXP],
                         "samples_per_level": ORACLE_SAMPLES,
                         "max_full_turns": ORACLE_TURNS,
                         "seed": SIGMA_SEED},
        "fplus": {"alpha": list(FPLUS_ALPHA), "epsilon_ladder": [float(e) for e in ladder],
                  "samples": FPLUS_SAMPLES, "seed": FPLUS_SEED},
    }


def basin_batch(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A 3x3 matrix with a real dominant eigenvalue > 1, positive w_max and a
    mixed-sign v_max, plus a batch of strictly negative points, so that both
    basin outcomes occur."""
    rng = np.random.default_rng((seed, 3))
    while True:
        P = rng.standard_normal((3, 3))
        P[:, 0] = rng.uniform(0.2, 1.0, 3)
        if np.linalg.cond(P) > 50.0:
            continue
        v = np.linalg.inv(P)[0]
        if v.min() < 0.0 < v.max():
            break
    D = np.diag([rng.uniform(1.3, 2.2), *rng.uniform(-0.9, 0.9, 2)])
    M = P @ D @ np.linalg.inv(P)
    y = -rng.uniform(0.05, 1.0, (BASIN_BATCH, 3))
    return M, y


def in_basin_points(seed: int) -> np.ndarray:
    """Points of the first criterion-6 eps-cube, for single-point basin calls."""
    rng = np.random.default_rng((seed, 4))
    eps = 10.0 ** -ORACLE_EPS_EXP[0]
    return eps * (1.0 - rng.random((IN_BASIN_POINTS, 3)))
