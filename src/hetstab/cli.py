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
from .oracle import EstimatorConfig, InsufficientResolution, estimate_fplus_mc, estimate_sigma_mc
from .rsp import RspParams, rsp_compare, rsp_matrices
from .stability import IndeterminateError, classify


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


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return inf_str(obj)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_ready(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_csv_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from exc


def _parse_ladder(text: str) -> list[float]:
    """Geometric ladder 'start:end:count', e.g. 1e-3:1e-7:5."""
    try:
        start_s, end_s, count_s = text.split(":")
        start, end, count = float(start_s), float(end_s), int(count_s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected start:end:count, got {text!r}") from exc
    if start <= 0 or end <= 0 or count < 1 or end >= start:
        raise argparse.ArgumentTypeError("ladder needs 0 < end < start and count >= 1")
    if count == 1:
        return [start]
    return list(np.geomspace(start, end, count))


def _glue_signed_values(argv: list[str]) -> list[str]:
    """Let '--alpha -1,1,1' parse: glue a leading-dash value onto its flag."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--alpha",) and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _config_dict(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _report_header(args) -> dict:
    return {"version": __version__, "config": _config_dict(args)}


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
            print(basic_matrix(cycle, j).to_csv_block())
        print(f"negative-entry nodes: {negative_entry_indices(cycle)}")
    print(f"{'j':>3} {'sigma_j':>18}  source")
    for j, (s, prov) in enumerate(zip(report.sigma, report.provenance)):
        print(f"{j:>3} {_fmt(s):>18}  {prov.source}")
    print(f"classification: {report.classification.value} ({report.classification.short})")
    if args.json:
        payload = _report_header(args)
        payload["report"] = report.to_dict()
        _write_json(args.json, payload)
    return 0


def _cmd_findex(args) -> int:
    alpha = _parse_csv_floats(args.alpha)
    print(f"F+      = {_fmt(f_plus(alpha))}")
    print(f"F-      = {_fmt(f_minus(alpha))}")
    print(f"F^index = {_fmt(f_index(alpha))}")
    return 0


def _cmd_rsp(args) -> int:
    params = RspParams(args.eps_x, args.eps_y)
    comparison = rsp_compare(params, tol=args.tol)
    m0, m1 = rsp_matrices(params)
    print(f"eps_x={params.eps_x} eps_y={params.eps_y}")
    print("M_0:")
    print(m0.to_csv_block())
    print("M_1:")
    print(m1.to_csv_block())
    for j, s in enumerate(comparison.report.sigma):
        print(f"sigma_{j} (pipeline)    = {_fmt(s)}")
    if comparison.closed_form is not None:
        for j, s in enumerate(comparison.closed_form):
            print(f"sigma_{j} (closed form) = {_fmt(s)}")
    print(f"classification: {comparison.report.classification.value} "
          f"({comparison.report.classification.short})")
    print(f"pipeline/closed-form consistent: {comparison.consistent}")
    if args.json:
        payload = _report_header(args)
        payload["report"] = comparison.report.to_dict()
        payload["closed_form"] = list(comparison.closed_form) if comparison.closed_form else None
        payload["consistent"] = comparison.consistent
        _write_json(args.json, payload)
    return 0 if comparison.consistent else 1


def _cmd_rsp_sweep(args) -> int:
    grid = np.linspace(-1.0, 1.0, args.grid + 2)[1:-1]  # interior points only
    rows = []
    for ex in grid:
        for ey in grid:
            params = RspParams(float(ex), float(ey))
            try:
                report = classify(rsp_matrices(params), tol=args.tol)
                s0, s1 = report.sigma
                label = report.classification.value
            except IndeterminateError:
                s0 = s1 = math.nan
                label = "indeterminate"
            rows.append((float(ex), float(ey), s0, s1, label))
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eps_x", "eps_y", "sigma0", "sigma1", "classification"])
        for ex, ey, s0, s1, label in rows:
            writer.writerow([repr(ex), repr(ey), _fmt(s0), _fmt(s1), label])
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
    alpha = _parse_csv_floats(args.alpha)
    estimate = estimate_fplus_mc(alpha, args.levels, args.samples, args.seed)
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
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--json", default=None, help="write a JSON report here")
    p.add_argument("--verbose", "-v", action="store_true",
                   help="also print the basic transition matrices")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("findex", help="evaluate F+, F-, F^index for one direction")
    p.add_argument("--alpha", required=True, help="comma-separated components")
    p.set_defaults(func=_cmd_findex)

    p = sub.add_parser("rsp", help="Rock-Scissors-Paper cycle at one parameter point")
    p.add_argument("--eps-x", type=float, required=True, dest="eps_x")
    p.add_argument("--eps-y", type=float, required=True, dest="eps_y")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_rsp)

    p = sub.add_parser("rsp-sweep", help="sweep the RSP parameter square to CSV")
    p.add_argument("--grid", type=int, default=9, help="points per axis inside (-1,1)")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rsp_sweep)

    oracle = sub.add_parser("oracle", help="Monte-Carlo estimators")
    osub = oracle.add_subparsers(dest="oracle_command", required=True)

    p = osub.add_parser("sigma", help="estimate a stability index by sampling")
    p.add_argument("cycle")
    p.add_argument("--node", type=int, default=0)
    p.add_argument("--delta", type=float, default=1e-2)
    p.add_argument("--eps", type=_parse_ladder, default=_parse_ladder("1e-3:1e-7:5"),
                   help="epsilon ladder start:end:count")
    p.add_argument("--samples", type=int, default=4000)
    p.add_argument("--turns", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_oracle_sigma)

    p = osub.add_parser("fplus", help="estimate the escape exponent of one slice")
    p.add_argument("--alpha", required=True)
    p.add_argument("--levels", type=_parse_ladder, default=_parse_ladder("1e-1:1e-4:7"))
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
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
