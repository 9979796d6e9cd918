"""Command-line front door.

Subcommands: analyze, findex, rsp, rsp-sweep, oracle sigma, oracle fplus.
Exit codes: 0 success, 1 input/validation error, 2 indeterminate spectral
result.  Infinite values are serialized as the strings "+inf"/"-inf" in JSON
and CSV, and machine-readable outputs are byte-identical for identical
inputs and flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import __version__
from .cycle import load_cycle, validate_cycle
from .findex import f_index, f_minus, f_plus, inf_str
from .oracle import (EstimatorConfig, InsufficientResolution, _log_ladder, estimate_fplus_mc,
                     estimate_sigma_mc)
from .rsp import RspParams, _rsp_stack, rsp_compare, rsp_matrices
from .spectral import DEFAULT_TOL
from .stability import IndeterminateError, _sigma_rows, _verdicts, classify


SWEEP_CYCLES = 256   # cycles per _sigma_rows stack of rsp-sweep


class _Parser(argparse.ArgumentParser):
    # usage problems are input problems: keep exit code 2 reserved for
    # indeterminate spectral results
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(x) -> str:
    x = inf_str(x)
    return repr(x) if isinstance(x, float) else str(x)


def _write_report(args: argparse.Namespace, **fields) -> None:
    """Write the version, every flag and fields as JSON to args.json.  Only
    IndexReport.to_dict writes infinities (as strings); any other value that
    is not finite is a ValueError, raised before the file is opened."""
    config = {k: v for k, v in vars(args).items() if k != "func"}
    text = json.dumps({"version": __version__, "config": config, **fields},
                      indent=2, sort_keys=True, allow_nan=False)
    with open(args.json, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _csv_block(matrix) -> str:
    """Rows of a matrix as comma-separated lines of exact float reprs."""
    return "\n".join(",".join(repr(float(v)) for v in row) for row in matrix)


def _parse_csv_floats(text: str) -> list[float]:
    """--alpha: comma-separated floats; an empty token is an error, not skipped."""
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from exc


def _parse_ladder(text: str) -> list[float]:
    """The ladder 'start:end:count', e.g. 1e-3:1e-7:5 (oracle._log_ladder)."""
    try:
        start_s, end_s, count_s = text.split(":")
        start, end, count = float(start_s), float(end_s), int(count_s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected start:end:count, got {text!r}") from exc
    if not (0 < end < start < math.inf and count >= 1):   # NaN fails too
        raise argparse.ArgumentTypeError("ladder needs 0 < end < start < inf and count >= 1")
    return _log_ladder(start, end, count)


def _grid(text: str) -> int:
    """--grid: a whole number of points per axis, at least 1."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"grid must be an integer >= 1, got {text!r}")
    return int(text)


def _glue_signed_values(argv: list[str]) -> list[str]:
    """Let '--alpha -1,1,1' and '--eps-x -5e-1' parse: glue the value of
    --alpha, --eps-x and --eps-y onto its flag, as argparse takes a value
    that starts with '-' for a flag unless it is a plain negative number."""
    out, rest = [], iter(argv)
    for tok in rest:
        value = next(rest, None) if tok in ("--alpha", "--eps-x", "--eps-y") else None
        out.append(tok if value is None else f"{tok}={value}")
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_analyze(args) -> int:
    spec = load_cycle(args.cycle)
    cycle = validate_cycle(spec)
    report = classify(cycle, tol=args.tol)
    print(f"cycle: m={cycle.m} nodes, N={cycle.dimension}")
    if args.verbose:
        from .transition import basic_matrix, negative_entry_indices
        for j in range(cycle.m):
            print(f"M_{j}:")
            print(_csv_block(basic_matrix(cycle, j)))
        print(f"negative-entry nodes: {negative_entry_indices(cycle)}")
    print(f"{'j':>3} {'sigma_j':>18}  source")
    for j, (s, prov) in enumerate(zip(report.sigma, report.provenance)):
        print(f"{j:>3} {_fmt(s):>18}  {prov.source}")
    print(f"classification: {report.classification.value} ({report.classification.short})")
    if args.json:
        _write_report(args, report=report.to_dict())
    return 0


def _cmd_findex(args) -> int:
    print(f"F+      = {_fmt(f_plus(args.alpha))}")
    print(f"F-      = {_fmt(f_minus(args.alpha))}")
    print(f"F^index = {_fmt(f_index(args.alpha))}")
    return 0


def _cmd_rsp(args) -> int:
    params = RspParams(args.eps_x, args.eps_y)
    comparison = rsp_compare(params, tol=args.tol)
    m0, m1 = rsp_matrices(params)
    print(f"eps_x={params.eps_x} eps_y={params.eps_y}")
    print("M_0:")
    print(_csv_block(m0))
    print("M_1:")
    print(_csv_block(m1))
    for j, s in enumerate(comparison.report.sigma):
        print(f"sigma_{j} (pipeline)    = {_fmt(s)}")
    if comparison.closed_form is not None:
        for j, s in enumerate(comparison.closed_form):
            print(f"sigma_{j} (closed form) = {_fmt(s)}")
    print(f"classification: {comparison.report.classification.value} "
          f"({comparison.report.classification.short})")
    print(f"pipeline/closed-form consistent: {comparison.consistent}")
    if args.json:
        _write_report(args, report=comparison.report.to_dict(), consistent=comparison.consistent,
                      closed_form=list(comparison.closed_form) if comparison.closed_form else None)
    return 0 if comparison.consistent else 1


def _cmd_rsp_sweep(args) -> int:
    grid = np.linspace(-1.0, 1.0, args.grid + 2)[1:-1]  # interior points only
    text = [repr(x) for x in grid.tolist()]   # each grid value formatted once
    # one _sigma_rows stack per run of whole eps_x rows: as many rows as fit
    # in SWEEP_CYCLES cycles, or one row when a row alone is longer, so a
    # sweep makes few calls and no stack grows with the number of rows
    step = max(1, SWEEP_CYCLES // len(grid))
    rows = []
    for i in range(0, len(grid), step):
        stack = _rsp_stack(grid[i:i + step, None], grid[None, :]).reshape(-1, 2, 3, 3)
        sigma, errors = _sigma_rows(stack, args.tol)
        cells = ((tx, ty) for tx in text[i:i + step] for ty in text)
        for (tx, ty), (s0, s1), verdict, error in zip(cells, sigma.tolist(), _verdicts(sigma),
                                                      errors):
            if error is None:
                label = verdict.value
            elif isinstance(error, IndeterminateError):
                label = "indeterminate"      # its sigma row is NaN
            else:
                raise error
            rows.append((tx, ty, _fmt(s0), _fmt(s1), label))
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eps_x", "eps_y", "sigma0", "sigma1", "classification"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_oracle_sigma(args) -> int:
    spec = load_cycle(args.cycle)
    cycle = validate_cycle(spec)
    config = EstimatorConfig(
        delta=args.delta,
        epsilon_ladder=tuple(args.eps),
        samples_per_level=args.samples,
        max_full_turns=args.turns,
        seed=args.seed,
    )
    estimate = estimate_sigma_mc(cycle, args.node, config)
    print(f"{'level':>5} {'epsilon':>12} {'sigma_hat_frac':>15} {'stderr':>10}")
    for li, lev in enumerate(estimate.levels):
        print(f"{li:>5} {lev.epsilon:>12.4e} {lev.sigma_frac:>15.6f} {lev.stderr:>10.2e}")
    print(f"sigma_minus = {_fmt(estimate.sigma_minus)}")
    print(f"sigma_plus  = {_fmt(estimate.sigma_plus)}")
    print(f"sigma_hat   = {_fmt(estimate.sigma_hat)}")
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["level", "epsilon", "sigma_hat_frac", "stderr"])
            for li, lev in enumerate(estimate.levels):
                writer.writerow([li, repr(lev.epsilon), repr(lev.sigma_frac), repr(lev.stderr)])
    return 0


def _cmd_oracle_fplus(args) -> int:
    estimate = estimate_fplus_mc(args.alpha, args.levels, args.samples, args.seed)
    print(f"{'level':>5} {'epsilon':>12} {'inside_frac':>12} {'stderr':>10}")
    for li, lev in enumerate(estimate.levels):
        print(f"{li:>5} {lev.epsilon:>12.4e} {lev.sigma_frac:>12.6f} {lev.stderr:>10.2e}")
    print(f"fplus_hat = {_fmt(estimate.fplus_hat)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hetstab",
                     description="Stability indices for quasi-simple heteroclinic cycles")
    parser.add_argument("--version", action="version", version=f"hetstab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a cycle from a JSON spec")
    p.add_argument("cycle", help="path to cycle-spec JSON document")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--json", default=None, help="write a JSON report here")
    p.add_argument("--verbose", "-v", action="store_true",
                   help="also print the basic transition matrices")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("findex", help="evaluate F+, F-, F^index for one direction")
    p.add_argument("--alpha", type=_parse_csv_floats, required=True,
                   help="comma-separated components")
    p.set_defaults(func=_cmd_findex)

    p = sub.add_parser("rsp", help="Rock-Scissors-Paper cycle at one parameter point")
    p.add_argument("--eps-x", type=float, required=True, dest="eps_x")
    p.add_argument("--eps-y", type=float, required=True, dest="eps_y")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_rsp)

    p = sub.add_parser("rsp-sweep", help="sweep the RSP parameter square to CSV")
    p.add_argument("--grid", type=_grid, default=9, help="points per axis inside (-1,1)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rsp_sweep)

    oracle = sub.add_parser("oracle", help="Monte-Carlo estimators")
    osub = oracle.add_subparsers(dest="oracle_command", required=True)

    plan = EstimatorConfig()
    p = osub.add_parser("sigma", help="estimate a stability index by sampling")
    p.add_argument("cycle")
    p.add_argument("--node", type=int, default=0)
    p.add_argument("--delta", type=float, default=plan.delta)
    p.add_argument("--eps", type=_parse_ladder, default=plan.epsilon_ladder,
                   help="epsilon ladder start:end:count")
    p.add_argument("--samples", type=int, default=plan.samples_per_level)
    p.add_argument("--turns", type=int, default=plan.max_full_turns)
    p.add_argument("--seed", type=int, default=plan.seed)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_oracle_sigma)

    p = osub.add_parser("fplus", help="estimate the escape exponent of one slice")
    p.add_argument("--alpha", type=_parse_csv_floats, required=True)
    p.add_argument("--levels", type=_parse_ladder, default=_parse_ladder("1e-1:1e-4:7"))
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=plan.seed)
    p.set_defaults(func=_cmd_oracle_fplus)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_signed_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, IndexError, OSError, InsufficientResolution) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IndeterminateError as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
