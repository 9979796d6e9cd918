"""Interleaved in-process A/B of lone classify calls between two checkouts.

    OPENBLAS_NUM_THREADS=1 python tools/ab_lone.py PARENT CHANGE [--rounds 60]

PARENT and CHANGE are repository checkouts, for example a `git archive`
of the parent commit and the working tree.  Each one's src/hetstab is
imported under its own module name into this one process, so both sides
share the interpreter, the numpy build and the heap state.  The cases are
read from PARENT's perfbench/inputs.py, which is loaded, not edited:

* RSP (-0.5, 0.2), an attracting cycle, and RSP (0.5, 0.2), not an
  attractor, as explicit matrix lists;
* the first m = 8 and the first m = 32 cycle of the seed-3 classify-large
  population, as validated cycles.

Each round times every case on both sides, the side that goes first
alternating by round.  A sample is the mean time of a fixed number of
back-to-back calls (about 5 ms of work, with the garbage collector off), so
a lone call of a fraction of a millisecond is not lost in timer noise.
For each case the script prints both sides' median time per call, the
median and interquartile range of the per-round ratio CHANGE / PARENT, and
the rounds in which CHANGE was faster.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import sys
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


def _cases(hs, inputs) -> dict[str, object]:
    """The four lone-classify inputs, built with the package hs."""
    population = inputs.classify_population(3)
    first = {m: next(e["doc"] for e in population if e["m"] == m) for m in (8, 32)}
    cases = {f"rsp({x}, {y})": list(hs.rsp_matrices(hs.RspParams(x, y)))
             for x, y in ((-0.5, 0.2), (0.5, 0.2))}
    for m, doc in first.items():
        cases[f"seed-3 m={m}"] = hs.validate_cycle(hs.cycle_from_dict(doc))
    return cases


def _sample(classify, cycle, reps: int) -> float:
    """The mean time in seconds of reps back-to-back classify(cycle) calls."""
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(reps):
            classify(cycle)
        return (time.perf_counter() - start) / reps
    finally:
        gc.enable()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout timed as the reference")
    parser.add_argument("change", type=Path, help="checkout timed against it")
    parser.add_argument("--rounds", type=int, default=60, help="interleaved rounds (default 60)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    sides = [_load(args.parent / "src" / "hetstab", "hetstab_parent"),
             _load(args.change / "src" / "hetstab", "hetstab_change")]
    inputs = _load(args.parent / "perfbench" / "inputs.py", "ab_lone_inputs")
    cases = [_cases(hs, inputs) for hs in sides]
    reps = {}
    for name, cycle in cases[0].items():
        # warm both sides up, and size a sample at about 5 ms of the parent's work
        for hs, side in zip(sides, cases):
            _sample(hs.classify, side[name], 3)
        reps[name] = max(1, round(5e-3 / _sample(sides[0].classify, cycle, 5)))

    times = {name: [[], []] for name in reps}
    for r in range(args.rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for name in reps:
            for s in order:
                times[name][s].append(_sample(sides[s].classify, cases[s][name], reps[name]))

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
