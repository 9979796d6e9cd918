"""Interleaved in-process A/B of lone classify calls and rsp-sweep runs
between two checkouts.

    OPENBLAS_NUM_THREADS=1 python tools/ab_lone.py PARENT CHANGE [--rounds 60]
        [--population]

PARENT and CHANGE are repository checkouts, for example a `git archive`
of the parent commit and the working tree.  Each one's src/hetstab is
imported under its own module name into this one process, so both sides
share the interpreter, the numpy build and the heap state.  The cases are
read from PARENT's perfbench/inputs.py, which is loaded, not edited:

* RSP (-0.5, 0.2), an attracting cycle, and RSP (0.5, 0.2), not an
  attractor, as explicit matrix lists;
* the first m = 8 and the first m = 32 cycle of the seed-3 classify-large
  population, as validated cycles, or with --population every cycle of
  that m in the population, classified one after another (a cycle whose
  classify raises IndeterminateError is timed all the same);
* rsp-sweep --grid 61 and --grid 9 through each side's cli.main, each side
  writing its own CSV; the script stops with exit code 1 if the two sides'
  CSV bytes differ.

Each round times every case on both sides, the side that goes first
alternating by round.  A sample is the mean time of a fixed number of
back-to-back calls (about 5 ms of work, at least one call, with the garbage
collector off), so a lone call of a fraction of a millisecond is not lost
in timer noise.  For each case the script prints both sides' median time
per call, the median and interquartile range of the per-round ratio
CHANGE / PARENT, and the rounds in which CHANGE was faster.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import sys
import tempfile
import time
from pathlib import Path

import numpy as np


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


def _classify_all(hs, cycles) -> None:
    """classify of each cycle in turn, an indeterminate one included."""
    for cycle in cycles:
        try:
            hs.classify(cycle)
        except hs.IndeterminateError:
            pass


def _cases(hs, inputs, population: bool, out: Path) -> dict[str, object]:
    """Name -> a no-argument call of the package hs, one per case; the
    sweeps write their CSVs under out."""
    entries = inputs.classify_population(3)
    cases = {}
    for x, y in ((-0.5, 0.2), (0.5, 0.2)):
        cycle = list(hs.rsp_matrices(hs.RspParams(x, y)))
        cases[f"rsp({x}, {y})"] = lambda cycle=cycle: hs.classify(cycle)
    for m in (8, 32):
        cycles = [hs.validate_cycle(hs.cycle_from_dict(e["doc"])) for e in entries if e["m"] == m]
        if population:
            cases[f"seed-3 m={m} all"] = lambda cycles=cycles: _classify_all(hs, cycles)
        else:
            cases[f"seed-3 m={m}"] = lambda cycle=cycles[0]: hs.classify(cycle)
    cli = importlib.import_module(f"{hs.__name__}.cli")
    for grid in ("61", "9"):
        argv = ["rsp-sweep", "--grid", grid, "--out", str(out / f"grid-{grid}.csv")]
        cases[f"rsp-sweep {grid}"] = lambda argv=argv: _quiet(cli.main, argv)
    return cases


def _quiet(main, argv: list[str]) -> None:
    """main(argv) with its standard output discarded; SystemExit unless it returns 0."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} returned {code}")


def _sample(call, reps: int) -> float:
    """The mean time in seconds of reps back-to-back calls of call."""
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(reps):
            call()
        return (time.perf_counter() - start) / reps
    finally:
        gc.enable()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout timed as the reference")
    parser.add_argument("change", type=Path, help="checkout timed against it")
    parser.add_argument("--rounds", type=int, default=60, help="interleaved rounds (default 60)")
    parser.add_argument("--population", action="store_true",
                        help="time the whole seed-3 m = 8 and m = 32 populations")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    sides = [_load(args.parent / "src" / "hetstab", "hetstab_parent"),
             _load(args.change / "src" / "hetstab", "hetstab_change")]
    inputs = _load(args.parent / "perfbench" / "inputs.py", "ab_lone_inputs")
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / "parent", Path(tmp) / "change"]
        for out in outs:
            out.mkdir()
        cases = [_cases(hs, inputs, args.population, out) for hs, out in zip(sides, outs)]
        reps = {}
        for name in cases[0]:
            # warm both sides up, and size a sample at about 5 ms of the parent's work
            for side in cases:
                _sample(side[name], 3)
            reps[name] = max(1, round(5e-3 / _sample(cases[0][name], 5)))
        for csv in sorted(p.name for p in outs[0].iterdir()):
            if (outs[0] / csv).read_bytes() != (outs[1] / csv).read_bytes():
                print(f"rsp-sweep {csv}: the CSV bytes of the two sides differ", file=sys.stderr)
                return 1

        times = {name: [[], []] for name in reps}
        for r in range(args.rounds):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for name in reps:
                for s in order:
                    times[name][s].append(_sample(cases[s][name], reps[name]))

    print(f"{'case':<16}{'reps':>6}{'parent ms':>12}{'change ms':>12}"
          f"{'ratio':>8}{'IQR':>16}{'won':>9}")
    for name, (parent, change) in times.items():
        ratio = np.array(change) / np.array(parent)
        q1, q3 = np.percentile(ratio, [25, 75])
        won = int((ratio < 1.0).sum())
        print(f"{name:<16}{reps[name]:>6}{np.median(parent) * 1e3:>12.4f}"
              f"{np.median(change) * 1e3:>12.4f}{np.median(ratio):>8.3f}"
              f"{f'{q1:.3f}-{q3:.3f}':>16}{f'{won}/{args.rounds}':>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
