"""hetstab benchmark: run one workload and print one JSON result line.

    python3 perfbench/run.py --workload classify-large --seed 1 --seconds 20 --trace 0

Workloads (see README.md): classify-large, rsp-sweep, oracle-mc.

--trace 0 runs the workload untraced for --seconds and reports the
end-to-end metrics; --trace 1 replays the inputs through each module's
public functions with spans on and reports the per-layer metrics.  Either
way the last line of stdout is {"correct", "attempted", "failed",
"metrics"}; the lines before it are a readable report, and the full record
(metadata, input digests, exact-repeat guards, spans) goes to
.perfbench-out/ in the checkout.  Run from the repository root; the package
is imported from src/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 5

# one BLAS thread everywhere: the oracle's own pool is the only parallelism
# measured, and set before numpy is first imported
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "HETSTAB_THREADS": "1"}


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("classify-large", "rsp-sweep", "oracle-mc"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(wall, calibrated) set-up times from fresh interpreters, one per repeat."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        wall, cal = proc.stdout.split()
        times.append((float(wall), float(cal)))
    return times


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hetstab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def metadata(args, np, hetstab) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "hetstab": hetstab.__version__,
        "blas_env": {k: os.environ.get(k) for k in PINNED_ENV if k != "HETSTAB_THREADS"},
        "HETSTAB_THREADS": os.environ.get("HETSTAB_THREADS"),
        "git_sha": git_sha(), "source_digest": source_digest(),
        "machine": platform.machine(),
    }


def _fmt(value) -> str:
    return "absent" if value is None else f"{value:.6g}"


def main() -> int:
    args = parse_args()
    if not (SRC / "hetstab" / "__init__.py").is_file():
        print(f"error: no hetstab package under {SRC.name}/; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))

    import numpy as np
    import hetstab

    import inputs
    import workloads

    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        raw = workloads.raw_inputs(args.workload, args.seed)
        meta = metadata(args, np, hetstab)
        meta["input_digest"] = inputs.digest(raw)
        if args.trace:
            record, line = run_traced(args, scratch)
        else:
            record, line = run_untraced(args, raw, scratch, workloads)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record["meta"] = meta
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, separators=(",", ":"), default=str) + "\n")
    print(f"meta {json.dumps(meta, sort_keys=True)}")
    print(f"record {out.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


def run_untraced(args, raw, scratch: Path, workloads) -> tuple[dict, dict]:
    setup = measure_setup(args.workload, args.seed)
    prep = workloads.prepare(args.workload, raw)
    result = workloads.run(args.workload, raw, prep, args.seconds, scratch)

    setup_wall = statistics.median(wall for wall, _ in setup)
    setup_s = statistics.median(cal for _, cal in setup)
    failed_frac = result.failed / result.attempted
    named = {"setup_s": (setup_wall, "s", f"calibrated {setup_s:.6g}, "
                                         f"median of {len(setup)} fresh interpreters"),
             "failed_frac": (failed_frac, "frac",
                             f"{result.failed}/{result.attempted}, "
                             f"{result.indeterminate} indeterminate apart"),
             **result.named}
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace=0")
    for name, (value, unit, note) in named.items():
        print(f"  {name:<28} {_fmt(value):>12} {unit:<4} {note}")
    print(f"guards {json.dumps(result.guards, sort_keys=True)}")
    for reason in result.failures:
        print(f"failure {reason}")

    metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
    metrics.update({k: {"value": v, "unit": u} for k, (v, u) in result.gated.items()})
    line = {"correct": result.failed == 0, "attempted": result.attempted,
            "failed": result.failed, "metrics": metrics}
    record = {"named_metrics": named, "setup_samples_s": setup, "guards": result.guards,
              "indeterminate": result.indeterminate, "failures": result.failures,
              "timing": result.timing, "result": line}
    return record, line


def run_traced(args, scratch: Path) -> tuple[dict, dict]:
    import tracing

    out = tracing.run(args.workload, args.seed, scratch)
    print(f"{args.workload} seed={args.seed} trace=1 "
          f"(untraced replay {out['wall_s']['untraced']:.3f} s, "
          f"traced {out['wall_s']['traced']:.3f} s)")
    for name, (value, unit) in out["metrics"].items():
        print(f"  {name:<46} {_fmt(value):>12} {unit}")
    if out["missing"]:
        print(f"missing public functions: {', '.join(out['missing'])}")
    for reason in out["failures"]:
        print(f"failure {reason}")

    metrics = {}
    for name, (value, unit) in out["metrics"].items():
        metrics[name] = ({"value": value, "unit": unit} if value is not None
                         else {"value": None, "unit": unit, "absent": True})
    line = {"correct": out["failed"] == 0, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}
    record = {"result": line, "missing": out["missing"], "failures": out["failures"],
              "wall_s": out["wall_s"], "spans": out["spans"]}
    return record, line


if __name__ == "__main__":
    sys.exit(main())
