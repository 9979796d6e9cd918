"""Interleaved in-process A/B of the Monte-Carlo oracle between two checkouts.

    OPENBLAS_NUM_THREADS=1 python tools/ab_oracle.py PARENT CHANGE [--rounds 10]
        [--samples 1000000] [--alpha=-0.25,1,0 ...] [--cases sigma,in_delta_basin]

PARENT and CHANGE are repository checkouts, as for tools/ab_lone.py, whose
_load imports each one's src/hetstab under its own module name into this
one process.  The configurations are read from PARENT's perfbench/inputs.py:

* estimate_fplus_mc on the criterion-5 ladder (131 levels) and seed, at
  each of the criterion-5 alphas (-1, 1, 1), (-0.25, 1, 0) and (0.7, -0.3, 0),
  or at the alphas given with --alpha;
* estimate_sigma_mc at the criterion-6 configuration, RSP (-0.5, 0.2), as
  raw matrices (sigma rsp) and as a validated cycle with connection
  constants, scalings (2, 0.5, 1.5) and offset 0.3 on both connections, so
  with non-zero log offsets (sigma scaled);
* in_delta_basin at that configuration, once at each of the 100 points of
  in_basin_points (the first criterion-6 eps-cube, at perfbench seed 1),
  timed as one call: the single-point calls of perfbench's
  oracle.in_delta_basin.ms.

--samples sets the F+ samples per level (10^6 in criterion 5) and scales
the sigma samples per level (40000) by the same factor, so a smoke run
takes seconds.  A call that ends in InsufficientResolution, as small
samples can, is timed all the same: every level is drawn and counted
before the fit.  --cases keeps only the cases whose name starts with one of
its comma-separated prefixes (fplus, sigma, in_delta_basin).
HETSTAB_THREADS is 1 unless set.

A warm-up call of every case on both sides comes first, and its results are
compared: every level fraction and sigma_hat or fplus_hat, each
in_delta_basin verdict, or the InsufficientResolution message.  The script
prints whether they are identical, and stops with exit code 1 when a case
differs.  Then each round times one call of every case on both sides, the
side that goes first alternating by round, with the garbage collector off.
For each case the script prints both sides' median time per call, the
median and interquartile range of the per-round ratio CHANGE / PARENT, and
the rounds in which CHANGE was faster.  The times are wall time in this
process, with no calibration task between them.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from pathlib import Path

import numpy as np

from ab_lone import _load

CRITERION_5_ALPHAS = ((-1.0, 1.0, 1.0), (-0.25, 1.0, 0.0), (0.7, -0.3, 0.0))
SIGMA_SAMPLES = 40_000
IN_BASIN_SEED = 1
SCALED_CONNECTION = {"permutation": (1, 2, 0), "scalings": (2.0, 0.5, 1.5),
                     "contraction_offset": 0.3}


def _alpha(text: str) -> tuple[float, ...]:
    return tuple(float(c) for c in text.split(","))


def _cases(hs, plan: dict, points: np.ndarray, alphas, samples: int) -> dict[str, object]:
    """Name -> a no-argument call of the package hs, one per case."""
    fp = plan["fplus"]
    cases = {f"fplus {','.join(f'{c:g}' for c in alpha)}":
             (lambda alpha=alpha: hs.estimate_fplus_mc(alpha, fp["epsilon_ladder"], samples,
                                                       fp["seed"]))
             for alpha in alphas}
    sigma_samples = max(1, round(SIGMA_SAMPLES * samples / fp["samples"]))
    config = hs.EstimatorConfig(**dict(plan["sigma_config"], samples_per_level=sigma_samples))
    mats = hs.rsp_matrices(hs.RspParams(*plan["rsp"]))
    cases["sigma rsp"] = lambda: hs.estimate_sigma_mc(mats, plan["node"], config)
    conn = hs.ConnectionSpec(**SCALED_CONNECTION)
    scaled = hs.validate_cycle(hs.CycleSpec(
        nodes=hs.rsp_cycle_spec(hs.RspParams(*plan["rsp"])).nodes, connections=(conn, conn)))
    cases["sigma scaled"] = lambda: hs.estimate_sigma_mc(scaled, plan["node"], config)
    cases["in_delta_basin"] = lambda: [hs.in_delta_basin(mats, plan["node"], x, config)
                                       for x in points]
    return cases


def _sample(call, insufficient: type) -> tuple[float, str]:
    """The time in seconds of one call, and its result as text: the level
    fractions and the estimate, the in_delta_basin verdicts, or the
    InsufficientResolution it raised."""
    gc.disable()
    try:
        start = time.perf_counter()
        try:
            result = call()
        except insufficient as exc:
            result = exc
        seconds = time.perf_counter() - start
    finally:
        gc.enable()
    if hasattr(result, "levels"):
        result = ([lev.sigma_frac for lev in result.levels],
                  getattr(result, "sigma_hat", getattr(result, "fplus_hat", None)))
    return seconds, repr(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout timed as the reference")
    parser.add_argument("change", type=Path, help="checkout timed against it")
    parser.add_argument("--rounds", type=int, default=10, help="interleaved rounds (default 10)")
    parser.add_argument("--samples", type=int, default=10**6,
                        help="F+ samples per level; scales the sigma samples too (default 10^6)")
    parser.add_argument("--alpha", type=_alpha, action="append",
                        help="an F+ alpha, comma-separated; repeat for more "
                             "(default: the three criterion-5 alphas)")
    parser.add_argument("--cases", type=lambda text: text.split(","),
                        help="comma-separated prefixes of the case names to time (default: all)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.samples < 1:
        parser.error("--samples must be at least 1")
    os.environ.setdefault("HETSTAB_THREADS", "1")

    sides = [_load(args.parent / "src" / "hetstab", "hetstab_parent"),
             _load(args.change / "src" / "hetstab", "hetstab_change")]
    inputs = _load(args.parent / "perfbench" / "inputs.py", "ab_oracle_inputs")
    plan, points = inputs.oracle_plan(), inputs.in_basin_points(IN_BASIN_SEED)
    alphas = args.alpha or CRITERION_5_ALPHAS
    cases = [_cases(hs, plan, points, alphas, args.samples) for hs in sides]
    if args.cases:
        names = [name for name in cases[0] if name.startswith(tuple(args.cases))]
        if not names:
            parser.error(f"--cases {','.join(args.cases)} names no case")
        cases = [{name: side[name] for name in names} for side in cases]
    insufficient = [hs.InsufficientResolution for hs in sides]
    differ = [name for name in cases[0]   # warm both sides up
              if len({_sample(side[name], exc)[1] for side, exc in zip(cases, insufficient)}) > 1]
    if differ:
        print(f"results differ: {', '.join(differ)}")
        return 1
    print("results identical in every case")

    times = {name: [[], []] for name in cases[0]}
    for r in range(args.rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for name in times:
            for s in order:
                times[name][s].append(_sample(cases[s][name], insufficient[s])[0])

    print(f"{'case':<20}{'parent s':>10}{'change s':>10}{'ratio':>8}{'IQR':>16}{'won':>8}")
    for name, (parent, change) in times.items():
        ratio = np.array(change) / np.array(parent)
        q1, q3 = np.percentile(ratio, [25, 75])
        won = int((ratio < 1.0).sum())
        print(f"{name:<20}{np.median(parent):>10.4f}{np.median(change):>10.4f}"
              f"{np.median(ratio):>8.3f}{f'{q1:.3f}-{q3:.3f}':>16}{f'{won}/{args.rounds}':>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
