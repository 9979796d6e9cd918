"""Interleaved in-process A/B of the analytic path and the Monte-Carlo oracle
between two checkouts.

    OPENBLAS_NUM_THREADS=1 python tools/ab.py PARENT CHANGE [--rounds 20]
        [--samples 1000000] [--alpha=-0.25,1,0 ...] [--cases rsp,sigma]

PARENT and CHANGE are repository checkouts, for example a `git archive` of
the parent commit and the working tree.  Each one's src/hetstab is imported
under its own module name into this one process, so both sides share the
interpreter, the numpy build and the heap state.  The cases are read from
PARENT's perfbench/inputs.py, which is loaded, not edited:

* classify of RSP (-0.5, 0.2), attracting, and RSP (0.5, 0.2), not an
  attractor, as matrix lists; of the first m = 8 and m = 32 cycle of the
  seed-3 classify-large population (seed-3 m=8, seed-3 m=32); and of every
  cycle of that m in turn (seed-3 m=8 all, seed-3 m=32 all);
* rsp-sweep --grid 61 and --grid 9 through each side's cli.main;
* estimate_fplus_mc on the criterion-5 ladder and seed at each criterion-5
  alpha, or at the alphas given with --alpha;
* estimate_sigma_mc at the criterion-6 configuration, RSP (-0.5, 0.2), as raw
  matrices (sigma rsp) and as a validated cycle with scalings (2, 0.5, 1.5)
  and offset 0.3, so with non-zero log offsets (sigma scaled);
* in_delta_basin at each of the 100 points of the first criterion-6
  eps-cube (in_basin_points at perfbench seed 1), timed as one call; and
  at the same points on two one-map cycles diag(1e300) + B, whose
  coordinate 0 reaches -inf (x = 0) within two steps (overflow
  in_delta_basin).  Every point is in the basin of the first and escapes
  from the second, in both after steps whose matmul meets 0 * -inf; and at
  the same points times 2e13 on RSP (-0.5, 0.2) (outside in_delta_basin),
  so most of them have a coordinate at or beyond delta = 1e-2 and start
  outside the tube.

--samples sets the F+ samples per level (10^6 in criterion 5) and scales the
sigma samples per level (40000) by the same factor.  --cases keeps the cases
whose name starts with one of its comma-separated prefixes.  A call that
ends in IndeterminateError or InsufficientResolution is timed all the same.
HETSTAB_THREADS is set to 1, whatever the shell exports, for a checkout
that still runs its ladder levels in a thread pool when the variable is
above 1; this package reads no environment variable.

A warm-up call of every case on both sides comes first, and its results are
compared: a classify report or error (a list of them for a population), a
sweep's CSV bytes, an estimate's level fractions and sigma_hat or fplus_hat,
or the in_delta_basin verdicts.  The script prints `results identical in
every case`, or `results differ: <cases>` and stops with exit code 1.  Then
each round times every case on both sides, the side that goes first
alternating by round.  A sample is the mean time of reps back-to-back calls
with the garbage collector off, reps sized to about 5 ms of the parent's
work (at least one call).  For each case the script prints reps, both
sides' median time per call, the median and interquartile range of the
per-round ratio CHANGE / PARENT, and the rounds in which CHANGE was faster.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

CRITERION_5_ALPHAS = ((-1.0, 1.0, 1.0), (-0.25, 1.0, 0.0), (0.7, -0.3, 0.0))
SIGMA_SAMPLES = 40_000
IN_BASIN_SEED = 1
SCALED_CONNECTION = {"permutation": (1, 2, 0), "scalings": (2.0, 0.5, 1.5),
                     "contraction_offset": 0.3}
OVERFLOW_BLOCKS = (((0.5, 1.0), (1.5, 0.2)), ((0.95, 0.0), (0.0, 0.95)))   # the B of diag(1e300) + B


def _load(path: Path, name: str):
    """The module at path (a file, or a package directory) imported as name."""
    init = path / "__init__.py" if path.is_dir() else path
    locations = [str(path)] if path.is_dir() else None
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=locations)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _cases(hs, inputs, alphas, samples: int, out: Path) -> dict[str, object]:
    """Name -> a no-argument call of the package hs that returns its result,
    one per case; the sweeps write their CSVs under out."""
    cli = importlib.import_module(f"{hs.__name__}.cli")

    def attempt(fn, *args):
        try:
            return fn(*args)
        except (hs.IndeterminateError, hs.InsufficientResolution) as exc:
            return exc

    def sweep(argv: list[str]) -> Path:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise SystemExit(f"{' '.join(argv)} failed")
        return Path(argv[-1])

    cases = {}
    for x, y in ((-0.5, 0.2), (0.5, 0.2)):
        cycle = list(hs.rsp_matrices(hs.RspParams(x, y)))
        cases[f"rsp({x}, {y})"] = lambda cycle=cycle: attempt(hs.classify, cycle)
    population = {m: [hs.validate_cycle(hs.cycle_from_dict(e["doc"]))
                      for e in inputs.classify_population(3) if e["m"] == m] for m in (8, 32)}
    for m, cycles in population.items():
        cases[f"seed-3 m={m}"] = lambda cycle=cycles[0]: attempt(hs.classify, cycle)
    for m, cycles in population.items():
        cases[f"seed-3 m={m} all"] = lambda cycles=cycles: [attempt(hs.classify, c)
                                                            for c in cycles]
    for grid in ("61", "9"):
        argv = ["rsp-sweep", "--grid", grid, "--out", str(out / f"grid-{grid}.csv")]
        cases[f"rsp-sweep {grid}"] = lambda argv=argv: sweep(argv)

    plan = inputs.oracle_plan()
    fp = plan["fplus"]
    for alpha in alphas:
        cases[f"fplus {','.join(f'{c:g}' for c in alpha)}"] = (
            lambda alpha=alpha: attempt(hs.estimate_fplus_mc, alpha, fp["epsilon_ladder"],
                                        samples, fp["seed"]))
    sigma_samples = max(1, round(SIGMA_SAMPLES * samples / fp["samples"]))
    config = hs.EstimatorConfig(**dict(plan["sigma_config"], samples_per_level=sigma_samples))
    mats = hs.rsp_matrices(hs.RspParams(*plan["rsp"]))
    cases["sigma rsp"] = lambda: attempt(hs.estimate_sigma_mc, mats, plan["node"], config)
    conn = hs.ConnectionSpec(**SCALED_CONNECTION)
    scaled = hs.validate_cycle(hs.CycleSpec(
        nodes=hs.rsp_cycle_spec(hs.RspParams(*plan["rsp"])).nodes, connections=(conn, conn)))
    cases["sigma scaled"] = lambda: attempt(hs.estimate_sigma_mc, scaled, plan["node"], config)
    points = inputs.in_basin_points(IN_BASIN_SEED)
    cases["in_delta_basin"] = lambda: [hs.in_delta_basin(mats, plan["node"], x, config)
                                       for x in points]
    overflow = [np.zeros((3, 3)) for _ in OVERFLOW_BLOCKS]
    for M, block in zip(overflow, OVERFLOW_BLOCKS):
        M[0, 0], M[1:, 1:] = 1e300, block
    cases["overflow in_delta_basin"] = lambda: [hs.in_delta_basin([M], 0, x, config)
                                                for M in overflow for x in points]
    cases["outside in_delta_basin"] = lambda: [
        hs.in_delta_basin(mats, plan["node"], x * 2e13, config) for x in points]
    return cases


def _comparable(result):
    """What the result check compares of a case's result: a sweep's CSV
    bytes, an estimate's level fractions and estimate, each member of a list,
    or the repr of anything else (a report, a verdict or an error)."""
    if isinstance(result, list):
        return [_comparable(r) for r in result]
    if isinstance(result, Path):
        return result.read_bytes()
    if hasattr(result, "levels"):
        return ([lev.sigma_frac for lev in result.levels],
                getattr(result, "sigma_hat", getattr(result, "fplus_hat", None)))
    return repr(result)


def _sample(call, reps: int) -> tuple[float, object]:
    """The mean time in seconds of reps back-to-back calls of call, with the
    garbage collector off, and the last call's result."""
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(reps):
            result = call()
        return (time.perf_counter() - start) / reps, result
    finally:
        gc.enable()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout timed as the reference")
    parser.add_argument("change", type=Path, help="checkout timed against it")
    parser.add_argument("--rounds", type=int, default=20, help="interleaved rounds (default 20)")
    parser.add_argument("--samples", type=int, default=10**6,
                        help="F+ samples per level; scales the sigma samples too (default 10^6)")
    parser.add_argument("--alpha", type=lambda text: tuple(float(c) for c in text.split(",")),
                        action="append", help="an F+ alpha, comma-separated; repeat for more "
                                              "(default: the three criterion-5 alphas)")
    parser.add_argument("--cases", type=lambda text: tuple(text.split(",")),
                        help="comma-separated prefixes of the case names to time (default: all)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.samples < 1:
        parser.error("--samples must be at least 1")
    os.environ["HETSTAB_THREADS"] = "1"

    sides = [_load(args.parent / "src" / "hetstab", "hetstab_parent"),
             _load(args.change / "src" / "hetstab", "hetstab_change")]
    inputs = _load(args.parent / "perfbench" / "inputs.py", "ab_inputs")
    with tempfile.TemporaryDirectory() as tmp:
        cases = []
        for hs, out in zip(sides, (Path(tmp) / "parent", Path(tmp) / "change")):
            out.mkdir()
            cases.append(_cases(hs, inputs, args.alpha or CRITERION_5_ALPHAS, args.samples, out))
        names = [name for name in cases[0] if name.startswith(args.cases or "")]
        if not names:
            parser.error(f"--cases {','.join(args.cases)} names no case")
        differ = [name for name in names   # warm both sides up
                  if _comparable(_sample(cases[0][name], 1)[1])
                  != _comparable(_sample(cases[1][name], 1)[1])]
        if differ:
            print(f"results differ: {', '.join(differ)}")
            return 1
        print("results identical in every case")
        reps = {name: max(1, round(5e-3 / _sample(cases[0][name], 1)[0]))   # about 5 ms
                for name in names}

        times = {name: ([], []) for name in names}
        for r in range(args.rounds):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for name in names:
                for s in order:
                    times[name][s].append(_sample(cases[s][name], reps[name])[0])

    width = max(map(len, names)) + 4
    print(f"{'case':<{width}}{'reps':>6}{'parent ms':>12}{'change ms':>12}"
          f"{'ratio':>8}{'IQR':>16}{'won':>9}")
    for name, (parent, change) in times.items():
        ratio = np.array(change) / np.array(parent)
        q1, q3 = np.percentile(ratio, [25, 75])
        won = int((ratio < 1.0).sum())
        print(f"{name:<{width}}{reps[name]:>6}{np.median(parent) * 1e3:>12.4f}"
              f"{np.median(change) * 1e3:>12.4f}{np.median(ratio):>8.3f}"
              f"{f'{q1:.3f}-{q3:.3f}':>16}{f'{won}/{args.rounds}':>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
