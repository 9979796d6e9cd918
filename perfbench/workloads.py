"""End-to-end workloads: set-up, the timed closed loop, and output checks.

Each workload is one caller in one process running its operations round
robin until the time is up (a closed loop).  Only the package call sits in
the timed region; observing a result and every correctness check happen
outside it.  `IndeterminateError` is a documented outcome: it is counted
apart and never as a failure.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import hashlib
import io
import math
import os
import resource
import signal
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hetstab as hs
import hetstab.cli

import inputs

WORKLOADS = ("classify-large", "rsp-sweep", "oracle-mc")
FAILED = "failed"
INDETERMINATE = "indeterminate"


# ---------------------------------------------------------------------------
# Set-up: generated inputs -> validated hetstab objects
# ---------------------------------------------------------------------------


def raw_inputs(workload: str, seed: int):
    if workload == "classify-large":
        return inputs.classify_population(seed)
    if workload == "rsp-sweep":
        return inputs.rsp_sweep_argvs()
    return inputs.oracle_plan()


def prepare(workload: str, raw):
    """The set-up step that `setup_s` times, after the import."""
    if workload == "classify-large":
        return [hs.validate_cycle(hs.cycle_from_dict(entry["doc"])) for entry in raw]
    if workload == "rsp-sweep":
        # builds the CLI's argument parser once, as any first invocation does
        with contextlib.redirect_stdout(io.StringIO()):
            hetstab.cli.main(["--version"])
        return raw
    return {
        "matrices": hs.rsp_matrices(hs.RspParams(*raw["rsp"])),
        "config": hs.EstimatorConfig(**{k: tuple(v) if isinstance(v, list) else v
                                        for k, v in raw["sigma_config"].items()}),
    }


# ---------------------------------------------------------------------------
# Timing helpers
# ---------------------------------------------------------------------------


REF_INTERVAL = 0.1     # s between reference samples (each takes 5-15 ms)
REF_WINDOW = 0.25      # s: reference samples this near a call scale it
REF_NOMINAL = 0.010    # s: the reference time that calibrated figures assume


class Calibrator:
    """A fixed reference task sampled throughout the timed loop.

    On a shared machine the speed of the same code drifts by tens of
    percent over seconds and between runs.  Scaling each call by reference
    samples taken around it removes the machine's drift and keeps the
    package's own speed.  The reference never calls hetstab, and it has the
    character of the workload it calibrates, because the drift hits
    interpreter-bound code and array-bound code differently:

    * "calls": chains of 4x4 products, eig, cond and inv with Python-level
      bookkeeping, like classify;
    * "arrays": a pass of product, row max and compaction over a 40k x 3
      array (in cache, like the sigma estimator) and a log1p over a
      300k x 3 one (out of a 2 MB L2, like F+ sampling).

    While running, a SIGALRM interval timer takes a sample every
    REF_INTERVAL seconds, also in the middle of a call that lasts seconds;
    the time the samples took is subtracted from the call they interrupted.
    A calibrated time is the wall time the call would take on a machine that
    runs the reference in REF_NOMINAL seconds.
    """

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        if kind == "calls":
            self.task = self._calls
            self.small = rng.standard_normal((4, 4))
        else:
            self.task = self._arrays
            self.batch = rng.standard_normal((40_000, 3)) - 3.0
            self.step = rng.standard_normal((3, 3)) * 0.3 + np.eye(3) * 0.6
            self.big = rng.random((300_000, 3))
        self.mids: list[float] = []
        self.times: list[float] = []
        for _ in range(3):
            self._sample()

    def _calls(self) -> None:
        rows = []
        for _ in range(160):
            prod = np.eye(4)
            for _ in range(8):
                prod = self.small @ prod
            _, basis = np.linalg.eig(prod)
            np.linalg.cond(basis)
            np.linalg.inv(basis)
            rows.append([float(x) for x in prod[0]])

    def _arrays(self) -> None:
        eta = self.batch @ self.step.T + 0.01
        mx = eta.max(axis=1)
        keep = ~((mx > 1e9) | np.isnan(mx))
        np.arange(len(eta))[keep], eta[keep]
        np.log1p(-self.big)

    def _sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        self.task()
        dt = time.perf_counter() - t0
        self.mids.append(t0 + dt / 2)
        self.times.append(dt)

    @contextlib.contextmanager
    def sampling(self):
        """Take a sample every REF_INTERVAL seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL, REF_INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def inside(self, t0: float, t1: float) -> float:
        """Seconds of sampling that ran within [t0, t1]."""
        lo = bisect.bisect_left(self.mids, t0)
        hi = bisect.bisect_right(self.mids, t1)
        return sum(self.times[lo:hi])

    def scale(self, t0: float, t1: float) -> float:
        """REF_NOMINAL over the mean reference time near [t0, t1].

        The mean, not the median: a call's time sums the machine's speed
        over the whole call, slow stretches included, and so does the mean
        of the samples taken during it.
        """
        lo = bisect.bisect_left(self.mids, t0 - REF_WINDOW)
        hi = bisect.bisect_right(self.mids, t1 + REF_WINDOW)
        return REF_NOMINAL / statistics.fmean(self.times[lo:hi] or self.times)


@dataclass
class Record:
    index: int          # which call of the round robin
    start: float        # perf_counter at the call
    seconds: float      # wall time, less any reference sampling inside it
    calibrated: float   # seconds scaled by the reference (see Calibrator)
    outcome: object     # observation, INDETERMINATE, or (FAILED, reason)


def timed_loop(calls, seconds: float, observe, reference: str) -> tuple[list[Record], dict]:
    """Run calls round robin until `seconds` have passed and each ran once.

    observe(index, result) runs outside the timed region and turns a result
    into the value kept for the checks; reference names the Calibrator task.
    Also returns the reference samples, for the record.
    """
    cal = Calibrator(reference)
    spans = []
    with cal.sampling():
        deadline = time.perf_counter() + seconds
        i = 0
        while i < len(calls) or time.perf_counter() < deadline:
            k = i % len(calls)
            t0 = time.perf_counter()
            try:
                result = calls[k]()
                error = None
            except hs.IndeterminateError:
                error = INDETERMINATE
            except Exception as exc:  # any other exception is a failed operation
                error = (FAILED, f"{type(exc).__name__}: {exc}")
            t1 = time.perf_counter()
            spans.append((k, t0, t1, error if error is not None else observe(k, result)))
            i += 1
    records = []
    for k, t0, t1, outcome in spans:
        own = t1 - t0 - cal.inside(t0, t1)
        records.append(Record(k, t0, own, own * cal.scale(t0, t1), outcome))
    return records, {"reference": reference, "mid": cal.mids, "seconds": cal.times}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile); None when there are too few samples."""
    n = len(samples)
    if n < 11:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    indeterminate: int = 0
    failures: list = field(default_factory=list)
    gated: dict = field(default_factory=dict)      # name -> (value, unit)
    named: dict = field(default_factory=dict)      # descriptive name -> (value, unit, note)
    guards: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)     # calls and reference samples

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)


def _timing(records: list[Record], reference: dict) -> dict:
    return {"calls": [[r.index, r.start, r.seconds] for r in records], **reference}


def _settle(records: list[Record], result: Result, check) -> dict:
    """Count outcomes; every repeat of a call must match its first outcome,
    and check(index, outcome) vets each call's first outcome once."""
    first: dict[int, object] = {}
    for rec in records:
        result.attempted += 1
        if isinstance(rec.outcome, tuple) and rec.outcome and rec.outcome[0] == FAILED:
            result.fail(f"call {rec.index}: {rec.outcome[1]}")
            continue
        if rec.outcome == INDETERMINATE:
            result.indeterminate += 1
        ref = first.setdefault(rec.index, rec.outcome)
        if rec.outcome != ref:
            result.fail(f"call {rec.index}: result differs between repeats")
    bad = {k for k, outcome in first.items() if not check(k, outcome)}
    for rec in records:
        if rec.index in bad and rec.outcome == first[rec.index]:
            result.fail(f"call {rec.index}: failed its correctness check")
    return first


def _summarise(result: Result, records: list[Record], rss: float, throughput: tuple,
               ops: list[tuple]) -> None:
    """Fill the readable (descriptive names, wall time) and the gated (calibrated)
    metrics.  throughput is (name, work units per call index): the work of
    one pass over the inputs over the time of that pass, each call at its
    median time, so one stalled call does not set it.  ops lists (name, call
    indices, scale, unit) for the small op, then the large op."""
    name, units = throughput
    by_index: dict[int, list[Record]] = {}
    for r in records:
        by_index.setdefault(r.index, []).append(r)
    work = sum(units[k] for k in by_index)
    wall = work / sum(statistics.median(r.seconds for r in rs) for rs in by_index.values())
    cal = work / sum(statistics.median(r.calibrated for r in rs) for rs in by_index.values())
    result.named[name] = (wall, "1/s", f"calibrated {cal:.6g}, calls={len(records)}")
    p50 = []
    for op, indices, scale, unit in ops:
        sel = [r for r in records if r.index in indices]
        value = statistics.median(r.seconds for r in sel) * scale
        p50.append(statistics.median(r.calibrated for r in sel) * 1e3)
        result.named[op] = (value, unit, f"calibrated {p50[-1] * scale / 1e3:.6g}, n={len(sel)}")
    result.named["peak_rss_mb"] = (rss, "MB", "")
    result.gated = {
        "throughput_cal_per_s": (cal, "1/s"),
        "small_op_cal_ms_p50": (p50[0], "ms"),
        "large_op_cal_ms_p50": (p50[1], "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


# ---------------------------------------------------------------------------
# classify-large
# ---------------------------------------------------------------------------


def _same_sigma(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= 1e-9 * max(1.0, abs(a))


def _check_cycle(cycle, entry: dict, outcome) -> bool:
    """Verdict follows from sigma; rotating the matrices rotates sigma."""
    mats = hs.as_basic_matrices(cycle)
    r = entry["rotate"]
    try:
        rotated = hs.classify(mats[r:] + mats[:r])
    except hs.IndeterminateError:
        return outcome == INDETERMINATE
    if outcome == INDETERMINATE:
        return False
    sigma, verdict = outcome
    if hs.classification_from_sigmas(sigma).value != verdict:
        return False
    m = len(sigma)
    return all(_same_sigma(rotated.sigma[j], sigma[(j + r) % m]) for j in range(m))


def run_classify(pop: list[dict], cycles: list, seconds: float) -> Result:
    calls = [lambda c=c: hs.classify(c) for c in cycles]
    reports: dict[int, object] = {}

    def observe(k, report):
        reports[k] = report
        return tuple(report.sigma), report.classification.value

    records, reference = timed_loop(calls, seconds, observe, "calls")
    rss = peak_rss_mb()
    result = Result(timing=_timing(records, reference))
    first = _settle(records, result, lambda k, o: _check_cycle(cycles[k], pop[k], o))

    by_m = {m: {k for k, entry in enumerate(pop) if entry["m"] == m} for m in inputs.CLASSIFY_M}
    _summarise(result, records, rss, ("classify_cycles_per_s", [1] * len(pop)),
               [(f"classify_m{m}_ms_p50", by_m[m], 1e3, "ms") for m in inputs.CLASSIFY_M])
    for m in inputs.CLASSIFY_M:
        times = [r.seconds for r in records if r.index in by_m[m]]
        t = tail(times)
        result.named[f"classify_m{m}_ms_tail"] = (
            (t[0] * 1e3, "ms", f"p{t[1]:.1f}, n={len(times)}") if t
            else (None, "ms", f"fewer than 11 samples (n={len(times)})"))

    # exact-repeat guards: a faster run that moved cycles into the early-out
    # or the indeterminate path changes these
    n = inputs.N_TRANSVERSE + 1
    guards = {}
    for m in inputs.CLASSIFY_M:
        verdicts, L_total, full, early, K_total = Counter(), 0, 0, 0, 0
        for k, outcome in first.items():
            if pop[k]["m"] != m:
                continue
            L = sum(any(t > 0 for t in node["transverse"]) for node in pop[k]["doc"]["nodes"])
            L_total += L
            if outcome == INDETERMINATE:
                verdicts[INDETERMINATE] += 1
                continue
            verdicts[outcome[1]] += 1
            for prov in reports[k].provenance:
                if prov.alpha is None:
                    early += 1
                else:
                    full += 1
                    K_total += 1 + L * n
        guards[f"m{m}"] = {"cycles": sum(verdicts.values()), "verdicts": dict(sorted(verdicts.items())),
                           "L_total": L_total, "sigma_full_path": full,
                           "sigma_early_out": early, "K_total": K_total}
    result.guards = guards
    return result


# ---------------------------------------------------------------------------
# rsp-sweep
# ---------------------------------------------------------------------------


def run_cli(argv: list[str]) -> int:
    """hetstab.cli.main in-process, with its stdout kept off ours."""
    with contextlib.redirect_stdout(io.StringIO()):
        return hetstab.cli.main(argv)


def check_sweep_csv(text: str) -> tuple[bool, Counter]:
    """Attracting rows match the closed form and are e.a.s.; the others are
    not attractors.  Indeterminate rows are counted apart."""
    labels = Counter()
    ok = True
    for row in csv.DictReader(io.StringIO(text)):
        ex, ey, label = float(row["eps_x"]), float(row["eps_y"]), row["classification"]
        labels[label] += 1
        if label == INDETERMINATE:
            continue
        if ex + ey < 0.0:
            closed = hs.rsp_closed_form(hs.RspParams(ex, ey))
            ok &= label == "essentially_asymptotically_stable" and all(
                abs(float(row[f"sigma{i}"]) - closed[i]) <= 1e-9 for i in range(2))
        elif ex + ey > 0.0:
            ok &= label == "not_attractor"
    return ok, labels


def run_rsp(argvs: list[list[str]], scratch: Path, seconds: float) -> Result:
    outs = [scratch / f"sweep-{k}.csv" for k in range(len(argvs))]
    calls = [lambda a=argv + ["--out", str(out)]: run_cli(a) for argv, out in zip(argvs, outs)]
    texts: dict[int, str] = {}

    def observe(k, rc):
        data = outs[k].read_bytes()
        texts[k] = data.decode()
        return rc, hashlib.sha256(data).hexdigest()[:16]

    records, reference = timed_loop(calls, seconds, observe, "calls")
    rss = peak_rss_mb()
    result = Result(timing=_timing(records, reference))
    guards = {}

    def check(k, outcome):
        ok, labels = check_sweep_csv(texts[k])
        first = guards.setdefault(f"grid{argvs[k][2]}", {"rows": dict(sorted(labels.items())),
                                                       "csv_sha": outcome[1]})
        return outcome[0] == 0 and ok and outcome[1] == first["csv_sha"]

    _settle(records, result, check)
    by_grid: dict[str, set[int]] = {}
    for k, argv in enumerate(argvs):
        by_grid.setdefault(argv[2], set()).add(k)
    _summarise(result, records, rss,
               ("rsp_sweep_points_per_s", [int(argv[2]) ** 2 for argv in argvs]),
               [(f"rsp_sweep_grid{grid}_ms_p50", ks, 1e3, "ms") for grid, ks in by_grid.items()])
    result.guards = guards
    return result


# ---------------------------------------------------------------------------
# oracle-mc
# ---------------------------------------------------------------------------


def sigma_call(prep: dict, raw: dict):
    return hs.estimate_sigma_mc(prep["matrices"], raw["node"], prep["config"])


def fplus_call(raw: dict):
    fp = raw["fplus"]
    return hs.estimate_fplus_mc(fp["alpha"], fp["epsilon_ladder"], fp["samples"], fp["seed"])


@contextlib.contextmanager
def oracle_threads(n: int):
    old = os.environ.get("HETSTAB_THREADS")
    os.environ["HETSTAB_THREADS"] = str(n)
    try:
        yield
    finally:
        if old is None:
            del os.environ["HETSTAB_THREADS"]
        else:
            os.environ["HETSTAB_THREADS"] = old


def run_oracle(raw: dict, prep: dict, seconds: float) -> Result:
    sigma_target = hs.rsp_closed_form(hs.RspParams(*raw["rsp"]))[raw["node"]]
    fplus_target = hs.f_plus(raw["fplus"]["alpha"])
    calls = [lambda: sigma_call(prep, raw), lambda: fplus_call(raw)]
    estimates: dict[int, object] = {}

    def observe(k, est):
        estimates[k] = est
        return est.sigma_hat if k == 0 else est.fplus_hat

    with oracle_threads(1):
        records, reference = timed_loop(calls, seconds, observe, "arrays")
    rss = peak_rss_mb()
    result = Result(timing=_timing(records, reference))

    def check(k, value):
        if not isinstance(value, float):
            return False
        if k == 0:
            return abs(value - sigma_target) <= 0.15 * sigma_target
        return abs(value - fplus_target) <= 0.1

    _settle(records, result, check)

    # the thread pool must not change the answer (bit-identical levels)
    result.attempted += 1
    try:
        with oracle_threads(2):
            threaded = sigma_call(prep, raw)
        if 0 in estimates and threaded != estimates[0]:
            result.fail("estimate_sigma_mc differs between HETSTAB_THREADS=1 and 2")
    except Exception as exc:  # a failure of the check, not of the harness
        result.fail(f"HETSTAB_THREADS=2: {type(exc).__name__}: {exc}")

    _summarise(result, records, rss, ("oracle_estimates_per_s", [1, 1]),
               [("oracle_fplus_s", {1}, 1.0, "s"), ("oracle_sigma_s", {0}, 1.0, "s")])
    result.guards = {
        "sigma_hat": estimates[0].sigma_hat if 0 in estimates else None,
        "fplus_hat": estimates[1].fplus_hat if 1 in estimates else None,
        "sigma_target": sigma_target,
        "fplus_target": fplus_target,
    }
    return result


def run(workload: str, raw, prep, seconds: float, scratch: Path) -> Result:
    if workload == "classify-large":
        return run_classify(raw, prep, seconds)
    if workload == "rsp-sweep":
        return run_rsp(prep, scratch, seconds)
    return run_oracle(raw, prep, seconds)
