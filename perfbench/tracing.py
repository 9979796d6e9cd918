"""Traced replay: workload inputs through each module's public functions.

The package carries no tracing of its own, so the replay calls each layer
itself, one public function at a time, in the order `classify` works, and
records a span around every call: (id, parent, request, name, start, end,
error).  Spans of one replayed cycle, grid point or oracle call share a
request id.  Spans stay in memory and are written out at the end.

Only names in `hetstab.__all__` and `hetstab.cli.main` are called.  A name
that has gone missing raises `MissingApi`; the blocks that need it are
skipped and every metric that depends on it is reported absent.

A traced run replays the inputs of every workload, so it can report every
per-layer metric.  A metric comes from the replay of the workload being run
when that replay reaches the function, otherwise from the first other
workload that does (in `workloads.WORKLOADS` order).  The running workload's
replay is also run once untraced first, which gives the tracing overhead.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import itertools
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import hetstab

import inputs
import workloads

REPLAY_CYCLES = 40      # first 40 of the classify-large population: 32 m=8, 8 m=32
SWEEP_REPEATS = 15
VERDICTS = ("asymptotically_stable", "essentially_asymptotically_stable",
            "fragmentarily_asymptotically_stable_only", "not_attractor", "marginal",
            "indeterminate")


class MissingApi(LookupError):
    """A public function the replay needs is gone from hetstab."""


def api(name: str):
    """The public function behind a "layer.function" name."""
    layer, fname = name.split(".", 1)
    if layer == "cli":
        fn = getattr(importlib.import_module("hetstab.cli"), fname, None)
    else:
        fn = getattr(hetstab, fname, None) if fname in hetstab.__all__ else None
    if fn is None:
        raise MissingApi(name)
    return fn


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        stack = tracer.stack
        sid = next(tracer.ids)
        parent = stack[-1][0] if stack else -1
        request = stack[0][0] if stack else sid
        self.rec = [sid, parent, request, name, 0.0, 0.0, None]

    def __enter__(self):
        self.tracer.stack.append(self.rec)
        self.rec[4] = time.perf_counter()
        return self

    def __exit__(self, etype, exc, tb):
        self.rec[5] = time.perf_counter()
        self.tracer.stack.pop()
        if etype is not None:
            self.rec[6] = etype.__name__
        self.tracer.spans.append(self.rec)
        return False


class Tracer:
    """Span and count recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.ids = itertools.count()
        self.counts: dict[str, list] = defaultdict(list)
        self.missing: set[str] = set()
        self.requests = 0
        self.failed = 0
        self.failures: list[str] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else contextlib.nullcontext()

    def call(self, name: str, *args, label: str | None = None, **kwargs):
        fn = api(name)
        with self.span(label or name):
            return fn(*args, **kwargs)

    def count(self, name: str, value) -> None:
        if self.enabled:
            self.counts[name].append(value)

    @contextlib.contextmanager
    def request(self, name: str):
        """One replayed unit of work; a missing function, an indeterminate
        result or an unexpected exception ends the unit without ending the
        replay, and only the last counts as a failure."""
        self.requests += 1
        try:
            with self.span(name):
                yield
        except MissingApi as exc:
            self.missing.add(str(exc))
        except hetstab.IndeterminateError:
            pass  # a documented outcome
        except Exception as exc:  # recorded as a failed operation
            self.fail(f"{name}: {type(exc).__name__}: {exc}")

    @contextlib.contextmanager
    def optional(self):
        """A step whose missing functions leave the rest of the unit running."""
        try:
            yield
        except MissingApi as exc:
            self.missing.add(str(exc))

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)


# ---------------------------------------------------------------------------
# Replays
# ---------------------------------------------------------------------------


def _chain(tr: Tracer, doc: dict, source=None) -> None:
    """One cycle through cycle -> transition -> spectral -> findex -> stability.

    source is what the workload hands to classify: the validated cycle by
    default, or an explicit matrix list (RSP).  Each step runs on its own,
    so a missing function blanks only the metrics that need it.
    """
    with tr.optional():
        cycle = tr.call("cycle.validate_cycle", tr.call("cycle.cycle_from_dict", doc))
        source = cycle if source is None else source
    if source is None:
        return
    mats = tr.call("transition.as_basic_matrices", source)
    m = len(mats)
    negative = []
    with tr.optional():
        negative = tr.call("transition.negative_entry_indices", mats)
        tr.count("L", len(negative))
    with tr.optional():
        with tr.span("transition.full_returns_per_cycle"):
            fulls = [tr.call("transition.full_return_matrix", mats, j) for j in range(m)]
        for full in fulls:
            try:
                tr.call("spectral.eigen_decompose", full)
            except hetstab.SpectralError:
                pass
    with tr.optional():
        for q in negative:
            for j in range(m):
                tr.call("transition.partial_turn_matrix", mats, q, j)
    minima = {}
    with tr.optional():
        for j in range(m):
            try:
                alphas = tr.call("stability.collect_alpha_vectors", mats, j)
            except (ValueError, hetstab.IndeterminateError):
                continue  # documented: dichotomy, failed conditions or degeneracy
            tr.count("K", len(alphas))
            minima[j] = min(tr.call("findex.f_index", a) for a in alphas)
    with tr.optional():
        try:
            report = tr.call("stability.classify", source)
        except hetstab.IndeterminateError:
            tr.count("verdict", "indeterminate")
            return
        tr.count("verdict", report.classification.value)
        first = tr.call("stability.sigma", mats, 0)
        # the minimum over the K vectors is sigma_j only on the full path; an
        # early out (failed checkpoint conditions) sets every sigma_j to -inf
        full_path = [j for j in minima if report.provenance[j].alpha is not None]
        ok = (api("stability.classification_from_sigmas")(report.sigma) == report.classification
              and workloads._same_sigma(first, report.sigma[0])
              and all(workloads._same_sigma(minima[j], report.sigma[j]) for j in full_path))
        if not ok:
            tr.fail("classify disagrees with sigma / f_index minima")


def replay_classify(tr: Tracer, seed: int, scratch: Path) -> None:
    for entry in inputs.classify_population(seed)[:REPLAY_CYCLES]:
        with tr.request("replay.cycle"):
            _chain(tr, entry["doc"])


def _sweep(tr: Tracer, argv: list[str], out: Path) -> list[tuple[float, float]]:
    """One CLI sweep; returns its grid points as written."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = tr.call("cli.main", argv + ["--out", str(out)], label="cli.rsp_sweep")
    if rc != 0:
        tr.fail(f"{' '.join(argv)} exited {rc}")
        return []
    with open(out, newline="", encoding="utf-8") as fh:
        return [(float(r["eps_x"]), float(r["eps_y"])) for r in csv.DictReader(fh)]


def replay_rsp(tr: Tracer, seed: int, scratch: Path) -> None:
    """The default-grid sweep: per-layer calls are the same at any grid size,
    and the large grid is what the untraced run times."""
    small = inputs.rsp_sweep_argvs()[0]
    # the CLI's cost over the classify calls it makes: small sweeps
    # interleaved with the same calls made directly, repeated, because one
    # long sweep against one long loop is lost in machine noise
    for _ in range(SWEEP_REPEATS):
        points = []
        with tr.request("replay.sweep.small"):
            points = _sweep(tr, small, scratch / "trace-small.csv")
        with tr.request("replay.sweep.library"):
            for ex, ey in points:
                mats = tr.call("rsp.rsp_matrices", api("rsp.RspParams")(ex, ey))
                try:
                    tr.call("stability.classify", mats, label="stability.classify.sweep")
                except hetstab.IndeterminateError:
                    pass
    for ex, ey in points:
        with tr.request("replay.cycle"):
            params = api("rsp.RspParams")(ex, ey)
            doc = api("cycle.cycle_to_dict")(api("rsp.rsp_cycle_spec")(params))
            _chain(tr, doc, source=api("rsp.rsp_matrices")(params))
            if not tr.call("rsp.rsp_compare", params).consistent:
                tr.fail(f"rsp_compare inconsistent at ({ex}, {ey})")


def replay_oracle(tr: Tracer, seed: int, scratch: Path) -> None:
    plan = inputs.oracle_plan()
    node, fp = plan["node"], plan["fplus"]
    params = api("rsp.RspParams")(*plan["rsp"])
    mats = api("rsp.rsp_matrices")(params)
    config = api("oracle.EstimatorConfig")(**{k: tuple(v) if isinstance(v, list) else v
                                              for k, v in plan["sigma_config"].items()})
    with tr.request("replay.cycle"):
        _chain(tr, api("cycle.cycle_to_dict")(api("rsp.rsp_cycle_spec")(params)), source=mats)
    target = api("rsp.rsp_closed_form")(params)[node]
    single = None
    with tr.request("replay.sigma"), workloads.oracle_threads(1):
        single = tr.call("oracle.estimate_sigma_mc", mats, node, config)
        if abs(single.sigma_hat - target) > 0.15 * target:
            tr.fail(f"sigma_hat {single.sigma_hat} not within 15% of {target}")
    with tr.request("replay.sigma"), workloads.oracle_threads(2):
        threaded = tr.call("oracle.estimate_sigma_mc", mats, node, config,
                           label="oracle.estimate_sigma_mc.threads2")
        if single is not None and threaded != single:
            tr.fail("estimate_sigma_mc differs between HETSTAB_THREADS=1 and 2")
    with tr.request("replay.fplus"), workloads.oracle_threads(1):
        est = tr.call("oracle.estimate_fplus_mc", fp["alpha"], fp["epsilon_ladder"],
                      fp["samples"], fp["seed"])
        if abs(est.fplus_hat - api("findex.f_plus")(fp["alpha"])) > 0.1:
            tr.fail(f"fplus_hat {est.fplus_hat} not within 0.1 of F+")
    with tr.request("replay.basin"):
        M, y = inputs.basin_batch(seed)
        member = tr.call("oracle.matrix_basin_membership", M, y)
        v = tr.call("spectral.vmax_row", M)
        tr.count("basin_disagree", float(np.mean(member != (y @ v < 0.0))))
    for x in inputs.in_basin_points(seed):
        with tr.request("replay.in_basin"):
            tr.call("oracle.in_delta_basin", mats, node, x, config)


REPLAYS = {"classify-large": replay_classify, "rsp-sweep": replay_rsp,
           "oracle-mc": replay_oracle}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


class _View:
    """Span durations by name, optionally only inside requests of one kind."""

    def __init__(self, tr: Tracer):
        self.tr = tr
        self.kind = {s[0]: s[3] for s in tr.spans if s[0] == s[2]}
        self.by_name: dict[str, list] = defaultdict(list)
        for s in tr.spans:
            if s[6] != "MissingApi":
                self.by_name[s[3]].append(s)

    def durations(self, name: str, request: str | None = None) -> list[float]:
        return [s[5] - s[4] for s in self.by_name.get(name, ())
                if request is None or self.kind.get(s[2]) == request]

    def median(self, name: str, scale: float):
        d = self.durations(name)
        return statistics.median(d) * scale if d else None


def _mean(values):
    return sum(values) / len(values) if values else None


def _redundancy(view: _View):
    """classify time over the layer calls one pass needs, summed over cycles."""
    need_names = ("transition.as_basic_matrices", "transition.full_return_matrix",
                  "spectral.eigen_decompose", "findex.f_index")
    per_request = defaultdict(lambda: [0.0, 0.0])
    for s in view.by_name.get("stability.classify", ()):
        if view.kind.get(s[2]) == "replay.cycle":
            per_request[s[2]][0] += s[5] - s[4]
    for name in need_names:
        for s in view.by_name.get(name, ()):
            if s[2] in per_request:
                per_request[s[2]][1] += s[5] - s[4]
    num = sum(v[0] for v in per_request.values())
    den = sum(v[1] for v in per_request.values())
    return num / den if den > 0 else None


def _sweep_overhead(view: _View):
    """1 - (classify time of one small sweep's points) / (its CLI wall),
    each the median over the repeats."""
    walls = view.durations("cli.rsp_sweep", request="replay.sweep.small")
    inner = defaultdict(float)
    for s in view.by_name.get("stability.classify.sweep", ()):
        inner[s[2]] += s[5] - s[4]
    if not walls or not inner:
        return None
    return 1.0 - statistics.median(inner.values()) / statistics.median(walls)


def _eigen_failed(view: _View):
    spans = view.by_name.get("spectral.eigen_decompose", ())
    return sum(s[6] is not None for s in spans) / len(spans) if spans else None


def _ratio(a, b):
    return a / b if a is not None and b else None


def layer_metrics(tr: Tracer) -> dict[str, tuple]:
    """name -> (value or None, unit) for one replay."""
    v = _View(tr)
    sigma_s = v.median("oracle.estimate_sigma_mc", 1.0)
    sigma2_s = v.median("oracle.estimate_sigma_mc.threads2", 1.0)
    fplus_s = v.median("oracle.estimate_fplus_mc", 1.0)
    plan = inputs.oracle_plan()["fplus"]
    fplus_bytes = len(plan["epsilon_ladder"]) * plan["samples"] * len(plan["alpha"]) * 8
    verdicts = Counter(tr.counts.get("verdict", ()))
    has_verdicts = "verdict" in tr.counts
    out = {
        "cycle.cycle_from_dict.us": (v.median("cycle.cycle_from_dict", 1e6), "us"),
        "cycle.validate_cycle.us": (v.median("cycle.validate_cycle", 1e6), "us"),
        "transition.as_basic_matrices.us": (v.median("transition.as_basic_matrices", 1e6), "us"),
        "transition.full_return_matrix.us": (v.median("transition.full_return_matrix", 1e6), "us"),
        "transition.full_returns_per_cycle.ms": (
            v.median("transition.full_returns_per_cycle", 1e3)
            if v.durations("transition.full_return_matrix") else None, "ms"),
        "transition.partial_turn_matrix.us": (v.median("transition.partial_turn_matrix", 1e6), "us"),
        "transition.negative_entry_nodes": (_mean(tr.counts.get("L", ())), "count"),
        "spectral.eigen_decompose.us": (v.median("spectral.eigen_decompose", 1e6), "us"),
        "spectral.eigen_decompose.failed_frac": (_eigen_failed(v), "frac"),
        "findex.f_index.us": (v.median("findex.f_index", 1e6), "us"),
        "findex.alpha_vectors_per_sigma": (_mean(tr.counts.get("K", ())), "count"),
        "stability.collect_alpha_vectors.ms": (v.median("stability.collect_alpha_vectors", 1e3), "ms"),
        "stability.sigma.ms": (v.median("stability.sigma", 1e3), "ms"),
        "stability.classify.ms": (v.median("stability.classify", 1e3), "ms"),
        "stability.redundancy_x": (_redundancy(v), "x"),
    }
    for name in VERDICTS:
        out[f"stability.verdict.{name}"] = (verdicts[name] if has_verdicts else None, "count")
    out.update({
        "oracle.estimate_sigma_mc.s": (sigma_s, "s"),
        "oracle.estimate_sigma_mc.threads2_s": (sigma2_s, "s"),
        "oracle.threads2_speedup": (_ratio(sigma_s, sigma2_s), "x"),
        "oracle.matrix_basin_membership.ms": (v.median("oracle.matrix_basin_membership", 1e3), "ms"),
        "oracle.matrix_basin_membership.disagree_frac": (
            _mean(tr.counts.get("basin_disagree", ())), "frac"),
        "oracle.in_delta_basin.ms": (v.median("oracle.in_delta_basin", 1e3), "ms"),
        "oracle.estimate_fplus_mc.s": (fplus_s, "s"),
        "oracle.fplus.sample_gb_per_s_computed": (_ratio(fplus_bytes / 1e9, fplus_s), "GB/s"),
        "rsp.rsp_compare.ms": (v.median("rsp.rsp_compare", 1e3), "ms"),
        "cli.rsp_sweep.overhead_frac": (_sweep_overhead(v), "frac"),
    })
    return out


def _wall(replay, seed: int, scratch: Path, enabled: bool) -> tuple[Tracer, float]:
    tr = Tracer(enabled)
    t0 = time.perf_counter()
    try:
        replay(tr, seed, scratch)
    except MissingApi as exc:
        tr.missing.add(str(exc))
    return tr, time.perf_counter() - t0


def run(workload: str, seed: int, scratch: Path) -> dict:
    """Replay every workload; returns metrics, failures and the spans."""
    others = [w for w in workloads.WORKLOADS if w != workload]
    traced = {w: _wall(REPLAYS[w], seed, scratch, True) for w in others}
    _, plain_s = _wall(REPLAYS[workload], seed, scratch, False)
    traced[workload] = _wall(REPLAYS[workload], seed, scratch, True)
    own, traced_s = traced[workload]

    per_replay = {w: layer_metrics(tr) for w, (tr, _) in traced.items()}
    metrics = {}
    for name, (_, unit) in per_replay[workload].items():
        value = None
        for w in [workload] + others:
            value = per_replay[w][name][0]
            if value is not None:
                break
        metrics[name] = (value, unit)
    metrics["trace.overhead_frac"] = ((traced_s - plain_s) / plain_s, "frac")
    metrics["trace.spans"] = (len(own.spans), "count")

    failures = [f"{w}: {f}" for w, (tr, _) in traced.items() for f in tr.failures]
    return {
        "metrics": metrics,
        "attempted": sum(tr.requests for tr, _ in traced.values()),
        "failed": sum(tr.failed for tr, _ in traced.values()),
        "failures": failures[:20],
        "missing": sorted(set().union(*(tr.missing for tr, _ in traced.values()))),
        "wall_s": {"untraced": plain_s, "traced": traced_s},
        "spans": {w: {"fields": ["id", "parent", "request", "name", "start", "end", "error"],
                      "spans": sorted(tr.spans),
                      "counts": dict(tr.counts)}
                  for w, (tr, _) in traced.items()},
    }
