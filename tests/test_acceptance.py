"""Acceptance suite: one pass/fail line per criterion, fixed seeds throughout."""

import math
import time

import numpy as np

from conftest import assert_multisets_close, random_cycle
from hetstab import (
    Classification,
    EstimatorConfig,
    RspParams,
    classify,
    estimate_fplus_mc,
    estimate_sigma_mc,
    f_index,
    f_index_n3,
    full_return_matrix,
    matrix_basin_membership,
    partial_turn_matrix,
    rsp_closed_form,
    rsp_matrices,
    sigma,
    validate_cycle,
    vmax_row,
)
from hetstab.cycle import ConnectionSpec, CycleSpec, NodeSpec
from conftest import dominant_pair_matrix

GRID = (-0.8, -0.4, 0.0, 0.4, 0.8)


def _line(num: int, desc: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _random_alpha(rng, size) -> list[float]:
    comps = []
    for _ in range(size):
        kind = rng.integers(0, 10)
        if kind == 0:
            comps.append(0.0)
        elif kind == 1:
            comps.append(float(rng.integers(-3, 4)))
        else:
            comps.append(float(rng.standard_normal() * 10.0 ** rng.integers(-3, 4)))
    if all(c == 0.0 for c in comps):
        comps[0] = 1.0
    return comps


def test_criterion_1_rsp_closed_form_reproduction():
    t0 = time.perf_counter()
    worst = 0.0
    points = 0
    for ex in GRID:
        for ey in GRID:
            if not ex + ey < 0:
                continue
            points += 1
            report = classify(rsp_matrices(RspParams(ex, ey)), tol=1e-9)
            closed = rsp_closed_form(RspParams(ex, ey))
            worst = max(worst, abs(report.sigma[0] - closed[0]),
                        abs(report.sigma[1] - closed[1]))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0 and points == 10
    _line(1, f"RSP closed-form reproduction on {points} grid points "
             f"(worst |diff| = {worst:.2e}, {elapsed:.2f}s)", ok)


def test_criterion_2_rsp_iff_boundary():
    ok = True
    for ex in GRID:
        for ey in GRID:
            if ex + ey > 0:
                report = classify(rsp_matrices(RspParams(ex, ey)))
                ok &= report.classification is Classification.NOT_ATTRACTOR
            elif ex + ey < 0:
                report = classify(rsp_matrices(RspParams(ex, ey)))
                ok &= report.classification is Classification.ESSENTIALLY_ASYMPTOTICALLY_STABLE
    _line(2, "classification flips NotAttractor <-> e.a.s. exactly at eps_x + eps_y = 0", ok)


def test_criterion_3_findex_closed_form_equivalence():
    rng = np.random.default_rng(20260803)
    t0 = time.perf_counter()
    ok = True
    for _ in range(10_000):
        a = _random_alpha(rng, 3)
        ok &= f_index(a) == f_index_n3(*a)
    elapsed = time.perf_counter() - t0
    _line(3, f"f_index == f_index_n3 branch-exact on 10,000 vectors ({elapsed:.2f}s)",
          ok and elapsed < 1.0)


def test_criterion_4_findex_symmetry_suite():
    rng = np.random.default_rng(20260804)
    ok = True
    for _ in range(10_000):
        size = int(rng.integers(2, 7))
        a = _random_alpha(rng, size)
        base = f_index(a)
        # positive-scale invariance (exact for exactly-representable scalings)
        scale = 2.0 ** int(rng.integers(-30, 31))
        ok &= f_index([scale * c for c in a]) == base
        # antisymmetry, infinities included
        ok &= f_index([-c for c in a]) == -base
        # permutation invariance
        perm = rng.permutation(size)
        ok &= f_index([a[i] for i in perm]) == base
    _line(4, "scale/antisymmetry/permutation invariance exact on 10,000 vectors", ok)


def test_criterion_5_monte_carlo_fplus_slopes():
    ladder = np.exp(np.concatenate([np.linspace(-2.0, -4.0, 100, endpoint=False),
                                    np.linspace(-4.0, -10.0, 31)]))
    targets = [((-1.0, 1.0, 1.0), 1.0), ((-0.25, 1.0, 0.0), 3.0), ((0.7, -0.3, 0.0), 4.0 / 3.0)]
    t0 = time.perf_counter()
    errs = []
    for alpha, want in targets:
        est = estimate_fplus_mc(alpha, ladder, 10**6, seed=20260805)
        errs.append(abs(est.fplus_hat - want))
    elapsed = time.perf_counter() - t0
    ok = max(errs) <= 0.1 and elapsed < 60.0
    _line(5, "MC F+ slopes within +-0.1 of {1, 3, 4/3} "
             f"(errs = {[f'{e:.3f}' for e in errs]}, {elapsed:.0f}s)", ok)


def test_criterion_6_monte_carlo_sigma_vs_closed_form():
    params = RspParams(-0.5, 0.2)
    target = rsp_closed_form(params)[0]          # 0.2666...
    config = EstimatorConfig(
        delta=1e-2,
        epsilon_ladder=tuple(10.0 ** -k for k in range(15, 23)),
        samples_per_level=40_000,
        max_full_turns=200,
        seed=20260806,
    )
    t0 = time.perf_counter()
    est = estimate_sigma_mc(rsp_matrices(params), 0, config)
    elapsed = time.perf_counter() - t0
    rel = abs(est.sigma_hat - target) / target
    ok = rel <= 0.15 and elapsed < 300.0
    _line(6, f"MC sigma_0 = {est.sigma_hat:.4f} vs closed form {target:.4f} "
             f"({100 * rel:.1f}% off, {elapsed:.0f}s)", ok)


def test_criterion_7_similarity_and_commutation():
    rng = np.random.default_rng(20260807)
    ok = True
    for _ in range(100):
        cycle = random_cycle(rng, max_m=5, max_nt=3)
        base = np.linalg.eigvals(full_return_matrix(cycle, 0))
        for j in range(cycle.m):
            ev = np.linalg.eigvals(full_return_matrix(cycle, j))
            try:
                assert_multisets_close(ev, base, tol=1e-9)
            except AssertionError:
                ok = False
            for l in range(cycle.m):
                lhs = partial_turn_matrix(cycle, l, j) @ full_return_matrix(cycle, j)
                rhs = full_return_matrix(cycle, (l + 1) % cycle.m) @ \
                    partial_turn_matrix(cycle, l, j)
                ok &= bool(np.max(np.abs(lhs - rhs)) <= 1e-9)
    _line(7, "eigen multisets j-independent and partial/full turns commute "
             "on 100 random cycles (1e-9)", ok)


def test_criterion_8_nonnegative_dichotomy():
    ok = True
    for product, want_sigma, want_class in (
        (2.0, math.inf, Classification.ASYMPTOTICALLY_STABLE),
        (0.8, -math.inf, Classification.NOT_ATTRACTOR),
    ):
        n0 = NodeSpec(contracting=product, expanding=1.0, transverse=(-0.5,))
        n1 = NodeSpec(contracting=1.0, expanding=1.0, transverse=(-0.3,))
        conn = ConnectionSpec(permutation=(0, 1))
        cycle = validate_cycle(CycleSpec(nodes=(n0, n1), connections=(conn, conn)))
        report = classify(cycle)
        ok &= report.classification is want_class
        ok &= all(s == want_sigma for s in report.sigma)
        ok &= all(sigma(cycle, j) == want_sigma for j in range(cycle.m))
    _line(8, "all-non-negative cycles with lambda_max in {2, 0.8} classify as "
             "a.s. (+inf) / not-attractor (-inf) at every j", ok)


def test_criterion_9_basin_membership_oracle_agreement():
    rng = np.random.default_rng(20260809)
    ok = True
    details = []
    for _ in range(10):
        M, _, _ = dominant_pair_matrix(rng)
        n = M.shape[0]
        v = vmax_row(M)
        ys = -rng.uniform(0.01, 2.0, (10_000, n))
        brute = matrix_basin_membership(M, ys)
        analytic = ys @ v < 0.0
        disagree = brute != analytic
        rate = float(disagree.mean())
        ok &= rate <= 0.01
        if disagree.any():
            margins = np.abs(ys[disagree] @ v) / np.abs(ys[disagree]).max(axis=1)
            ok &= float(margins.max()) < 1e-6
        details.append(rate)
    _line(9, f"brute-force divergence vs v_max predicate: disagreement rates "
             f"{[f'{r:.4f}' for r in details]}", ok)
