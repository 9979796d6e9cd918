import dataclasses
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import attracting_cycle, dominant_pair_matrix, random_cycle
from hetstab import oracle
from hetstab import (
    ConnectionSpec,
    CycleSpec,
    EstimatorConfig,
    IndeterminateError,
    InsufficientResolution,
    NodeSpec,
    ProductOverflow,
    RspParams,
    ValidatedCycle,
    ZeroVectorError,
    as_basic_matrices,
    classify,
    estimate_fplus_mc,
    estimate_sigma_mc,
    full_return_matrix,
    in_delta_basin,
    matrix_basin_membership,
    rsp_cycle_spec,
    rsp_matrices,
    validate_cycle,
    vmax_row,
)

CFG_SMALL = EstimatorConfig(epsilon_ladder=(1e-4,), samples_per_level=10)
CONE_DIM_CAP = oracle.CONE_MAX_DIM


def stable_cycle():
    n0 = NodeSpec(contracting=2.0, expanding=1.0, transverse=(-0.5,))
    n1 = NodeSpec(contracting=1.0, expanding=1.0, transverse=(-0.5,))
    conn = ConnectionSpec(permutation=(0, 1))
    return validate_cycle(CycleSpec(nodes=(n0, n1), connections=(conn, conn)))


def unstable_cycle():
    n0 = NodeSpec(contracting=0.8, expanding=1.0, transverse=(-0.5,))
    n1 = NodeSpec(contracting=1.0, expanding=1.0, transverse=(-0.5,))
    conn = ConnectionSpec(permutation=(0, 1))
    return validate_cycle(CycleSpec(nodes=(n0, n1), connections=(conn, conn)))


# ---------------------------------------------------------------------------
# Log-coordinate maps eta -> M_j eta + F_j: oracle._gmaps
# ---------------------------------------------------------------------------


def _log_image(cycle, j, x):
    """ln of the image of the point x under map j, built by oracle._gmaps."""
    maps = oracle._gmaps(cycle, j)
    col = maps.cols[0]
    return maps.mats[0] @ np.log(x) + (0.0 if col is None else col[:, 0])


def test_identity_map_fixes_points():
    x = (0.3, 0.7)
    assert np.exp(_log_image([np.eye(2)], 0, x)) == pytest.approx(x)


def test_power_map_hand_exponentiation():
    # a raw matrix is the map x -> (x_1^2, x_1 x_2), with no constants
    out = np.exp(_log_image([[[2.0, 0.0], [1.0, 1.0]]], 0, (0.1, 0.2)))
    assert out == pytest.approx([0.01, 0.02])


def test_rsp_map_in_log_coordinates():
    img = _log_image(rsp_matrices(RspParams(0.0, 0.0)), 0, (math.exp(-1),) * 3)
    assert img == pytest.approx([-1.5, -0.5, -1.0])


def test_consts_multiply_image():
    # with c = e = 1 and t = 0 the map is x -> A (v0 a_1 x_1, a_2 x_2), and
    # the permutation (1, 0) swaps the two scaled coordinates
    nd = NodeSpec(contracting=1.0, expanding=1.0, transverse=(0.0,))
    conn = ConnectionSpec(permutation=(1, 0), scalings=(2.0, 4.0), contraction_offset=1.5)
    cycle = validate_cycle(CycleSpec(nodes=(nd, nd), connections=(conn, conn)))
    assert np.exp(_log_image(cycle, 0, (0.5, 0.5))) == pytest.approx([2.0, 1.5])


# ---------------------------------------------------------------------------
# in_delta_basin
# ---------------------------------------------------------------------------


def test_deep_point_inside_attracting_cycle():
    delta = CFG_SMALL.delta
    assert in_delta_basin(stable_cycle(), 0, (delta * 1e-6, delta * 1e-6), CFG_SMALL)


def test_excited_transverse_direction_escapes():
    mats = rsp_matrices(RspParams(0.3, 0.3))
    assert not in_delta_basin(mats, 0, (1e-4, 8e-3, 1e-4), CFG_SMALL)


def test_near_connection_point_with_tiny_transverse_coordinates():
    # exercises the log-coordinate underflow guard: coordinates at 1e-300
    # remain representable; the expanding coordinate must sit far below the
    # transverse ones for the orbit to stay in the basin cone
    mats = rsp_matrices(RspParams(-0.5, 0.2))
    assert in_delta_basin(mats, 0, (1e-250, 1e-300, 1e-300), CFG_SMALL)
    # same transverse smallness but a too-large expanding coordinate is
    # ejected along the positive transverse direction
    assert not in_delta_basin(mats, 0, (1e-4, 1e-300, 1e-300), CFG_SMALL)


def test_point_outside_delta_tube_is_rejected_immediately():
    assert not in_delta_basin(stable_cycle(), 0, (0.5, 0.5), CFG_SMALL)


# ---------------------------------------------------------------------------
# estimate_sigma_mc
# ---------------------------------------------------------------------------


def test_config_invariants():
    with pytest.raises(ValueError):
        EstimatorConfig(epsilon_ladder=(1e-4, 1e-3))       # not decreasing
    with pytest.raises(ValueError):
        EstimatorConfig(delta=1e-5, epsilon_ladder=(1e-4,))  # level >= delta
    with pytest.raises(ValueError):
        EstimatorConfig(epsilon_ladder=())
    for delta in (0.0, -1e-2, 1.0, 2.0, math.nan):
        with pytest.raises(ValueError, match="delta"):
            EstimatorConfig(delta=delta)


def test_full_measure_basin_saturates_to_plus_inf():
    cfg = EstimatorConfig(epsilon_ladder=(1e-4, 1e-5), samples_per_level=200, seed=3)
    est = estimate_sigma_mc(stable_cycle(), 0, cfg)
    assert [lev.sigma_frac for lev in est.levels] == [1.0, 1.0]
    assert est.sigma_hat == math.inf and est.sigma_minus == 0.0


def test_empty_basin_saturates_to_minus_inf():
    cfg = EstimatorConfig(epsilon_ladder=(1e-4, 1e-5), samples_per_level=200, seed=3)
    est = estimate_sigma_mc(unstable_cycle(), 0, cfg)
    assert [lev.sigma_frac for lev in est.levels] == [0.0, 0.0]
    assert est.sigma_hat == -math.inf and est.sigma_plus == 0.0


def test_rsp_estimate_brackets_closed_form():
    mats = rsp_matrices(RspParams(-0.5, 0.2))
    cfg = EstimatorConfig(delta=1e-2,
                          epsilon_ladder=tuple(10.0 ** -k for k in range(15, 21)),
                          samples_per_level=8000, max_full_turns=200, seed=99)
    est = estimate_sigma_mc(mats, 0, cfg)
    assert 0.20 < est.sigma_hat < 0.35          # closed form is 0.2667
    assert est.fit_plus is not None and est.fit_plus.n_points >= 4
    for lev in est.levels:
        assert 0.0 <= lev.sigma_frac <= 1.0


def test_estimates_are_deterministic_and_seed_sensitive():
    mats = rsp_matrices(RspParams(-0.5, 0.2))
    cfg = EstimatorConfig(epsilon_ladder=(1e-15, 1e-16), samples_per_level=500, seed=42)
    a = estimate_sigma_mc(mats, 0, cfg)
    b = estimate_sigma_mc(mats, 0, cfg)
    assert a == b                                # bit-identical
    cfg2 = EstimatorConfig(epsilon_ladder=(1e-15, 1e-16), samples_per_level=500, seed=43)
    c = estimate_sigma_mc(mats, 0, cfg2)
    assert any(x.sigma_frac != y.sigma_frac for x, y in zip(a.levels, c.levels))


def test_insufficient_resolution_with_single_interior_level():
    mats = rsp_matrices(RspParams(-0.5, 0.2))
    cfg = EstimatorConfig(epsilon_ladder=(1e-6,), samples_per_level=400, seed=1)
    with pytest.raises(InsufficientResolution, match=" on the basin side; "):
        estimate_sigma_mc(mats, 0, cfg)


@pytest.mark.parametrize("estimate", [
    lambda: estimate_sigma_mc(rsp_matrices(RspParams(-0.5, 0.2)), 0, EstimatorConfig(
        epsilon_ladder=(1e-20, 1e-21, 1e-22), samples_per_level=400, seed=1)),
    lambda: estimate_fplus_mc((-1.0, 1.0, 1.0), (1e-1, 1e-2, 1e-3), 400, seed=1),
], ids=["sigma", "fplus"])
def test_insufficient_resolution_names_the_complement_side(estimate):
    # one owner decides the fit for both estimators: F+ is the complement side
    with pytest.raises(InsufficientResolution,
                       match="^fewer than two usable ladder levels on the complement side; "):
        estimate()


def test_constants_do_not_move_the_estimate():
    params = RspParams(-0.5, 0.2)
    plain = validate_cycle(rsp_cycle_spec(params))
    spec = rsp_cycle_spec(params)
    scaled = validate_cycle(CycleSpec(
        nodes=spec.nodes,
        connections=tuple(
            ConnectionSpec(permutation=c.permutation,
                           scalings=(0.5, 2.0, 1.3), contraction_offset=1.7)
            for c in spec.connections),
    ))
    cfg = EstimatorConfig(delta=1e-2,
                          epsilon_ladder=tuple(10.0 ** -k for k in range(15, 20)),
                          samples_per_level=6000, seed=11)
    est_plain = estimate_sigma_mc(plain, 0, cfg)
    est_scaled = estimate_sigma_mc(scaled, 0, cfg)
    assert est_scaled.sigma_hat == pytest.approx(est_plain.sigma_hat, abs=0.08)


# ---------------------------------------------------------------------------
# estimate_fplus_mc
# ---------------------------------------------------------------------------


def test_fplus_case_two_slope():
    ladder = np.geomspace(math.exp(-2), math.exp(-8), 13)
    est = estimate_fplus_mc((-1.0, 1.0, 1.0), ladder, 100_000, seed=5)
    assert est.fplus_hat == pytest.approx(1.0, abs=0.05)


def test_fplus_saturations():
    ladder = np.geomspace(1e-1, 1e-3, 5)
    full = estimate_fplus_mc((1.0, 1.0, 1.0), ladder, 2000, seed=5)
    assert full.fplus_hat == math.inf            # alpha >= 0: never leaves the slice
    empty = estimate_fplus_mc((-1.0, -1.0, -1.0), ladder, 2000, seed=5)
    assert empty.fplus_hat == 0.0                # never inside: exponent exactly 0


def test_fplus_rejects_bad_inputs():
    with pytest.raises(ZeroVectorError):
        estimate_fplus_mc((0.0, 0.0), (1e-1, 1e-2), 100, seed=0)
    with pytest.raises(ValueError):
        estimate_fplus_mc((1.0, -1.0), (1e-2, 1e-1), 100, seed=0)


def test_fplus_deterministic():
    ladder = np.geomspace(1e-1, 1e-4, 7)
    a = estimate_fplus_mc((-1.0, 1.0, 1.0), ladder, 20_000, seed=3)
    b = estimate_fplus_mc((-1.0, 1.0, 1.0), ladder, 20_000, seed=3)
    assert a == b
    assert a.fplus_hat == pytest.approx(1.0, abs=0.1)


# ---------------------------------------------------------------------------
# matrix_basin_membership
# ---------------------------------------------------------------------------


def test_doubling_and_halving():
    assert matrix_basin_membership(2.0 * np.eye(2), (-1.0, -1.0)) is True
    assert matrix_basin_membership(0.5 * np.eye(2), (-1.0, -1.0)) is False


def test_identity_is_indeterminate():
    with pytest.raises(IndeterminateError):
        matrix_basin_membership(np.eye(2), (-1.0, -1.0))


def test_requires_strictly_negative_start():
    with pytest.raises(ValueError):
        matrix_basin_membership(2.0 * np.eye(2), (-1.0, 0.0))


@pytest.mark.parametrize("M,y", [
    (2.0 * np.eye(2), (-1e300, -1e300)),
    (np.diag([1e200, 1e200]), (-1e200, -1e200)),
    (2.0 * np.eye(2), (-1.0, -0.75)),
    (np.diag([2.0, 4.0]), (-1.0, -3.0)),
    (np.array([[0.5, -1.2], [0.3, 0.9]]), (-2.0, -1.0)),
    (np.array([[1.2, -0.9], [-0.9, 1.2]]), (-1.0, -0.3)),
])
def test_membership_verdict_is_scale_free(M, y):
    # the map is linear, so y and 2**k y have one verdict, also where the
    # orbit or the blow-up walls of a large y leave double range
    y = np.asarray(y)
    e = int(np.frexp(y)[1].max())                  # max|y| < 2**e
    verdicts = {matrix_basin_membership(M, np.ldexp(y, k))
                for k in (-900 - e, -40, 0, 512 - e, 1023 - e)}
    assert len(verdicts) == 1


def test_batch_matches_scalar():
    rng = np.random.default_rng(17)
    M, _, _ = dominant_pair_matrix(rng, n=3)
    ys = -rng.uniform(0.01, 2.0, (50, 3))
    batch = matrix_basin_membership(M, ys)
    for y, expected in zip(ys, batch):
        assert matrix_basin_membership(M, y) == expected


def test_agreement_with_vmax_predicate():
    rng = np.random.default_rng(71)
    M, _, _ = dominant_pair_matrix(rng, n=3)
    v = vmax_row(M)
    ys = -rng.uniform(0.01, 2.0, (2000, 3))
    brute = matrix_basin_membership(M, ys)
    analytic = ys @ v < 0.0
    disagree = brute != analytic
    assert disagree.mean() < 0.01
    if disagree.any():
        margins = np.abs(ys[disagree] @ v) / np.abs(ys[disagree]).max(axis=1)
        assert margins.max() < 1e-6


# ---------------------------------------------------------------------------
# Coordinate-major layout: exact agreement with row-major reference loops
# ---------------------------------------------------------------------------


def _row_major_basin_mask(mats, offs, j, eta0, delta, max_full_turns):
    """Reference basin test that keeps one point per row of an (n, N) array."""
    m = len(mats)
    ln_delta = math.log(delta)
    n_samples = eta0.shape[0]
    result = np.zeros(n_samples, dtype=bool)
    idx = np.arange(n_samples)
    keep = eta0.max(axis=1) < ln_delta
    idx, eta = idx[keep], eta0[keep]
    if idx.size == 0:
        return result
    q3 = (3 * max_full_turns) // 4
    q3_max = np.full(n_samples, np.inf)
    for turn in range(max_full_turns):
        for step in range(m):
            l = (j + step) % m
            eta = eta @ mats[l].T + offs[l]
            mx = eta.max(axis=1)
            deep = mx <= oracle.DEEP_LOG
            if deep.any():
                result[idx[deep]] = True
            escaped = (mx >= ln_delta) | np.isnan(mx)
            keep = ~(deep | escaped)
            if not keep.all():
                idx, eta, mx = idx[keep], eta[keep], mx[keep]
            if idx.size == 0:
                return result
        if turn == q3:
            q3_max[idx] = mx
    result[idx[mx < q3_max[idx]]] = True
    return result


def _row_major_membership(M, batch, max_iterations=400, blowup_factor=1e9):
    """Reference brute-force divergence test over the rows of a batch."""
    scale = np.abs(batch).max(axis=1)
    neg_wall, pos_wall = -blowup_factor * scale, blowup_factor * scale
    n = batch.shape[0]
    result = np.zeros(n, dtype=bool)
    idx = np.arange(n)
    cur = batch
    q3 = (3 * max_iterations) // 4
    q3_max = np.full(n, np.nan)
    for it in range(max_iterations):
        cur = cur @ M.T
        mx = cur.max(axis=1)
        finite = np.isfinite(cur).all(axis=1)
        diverged = (mx <= neg_wall[idx]) & finite
        blown = ((mx >= pos_wall[idx]) & finite) | ~finite
        result[idx[diverged]] = True
        keep = ~(diverged | blown)
        idx, cur, mx = idx[keep], cur[keep], mx[keep]
        if idx.size == 0:
            break
        if it == q3:
            q3_max[idx] = mx
    if idx.size:
        ref = q3_max[idx]
        falling = mx < ref - np.abs(ref) * 1e-12
        rising = mx > ref + np.abs(ref) * 1e-12
        assert not (~(falling | rising) | np.isnan(ref)).any()
        result[idx[falling]] = True
    return result


def _out_of_place_log_cube(rng, eps, n, dim):
    """Reference sampler: ln(eps) + log1p(-U) with fresh temporaries."""
    return math.log(eps) + np.log1p(-rng.random((n, dim)))


def _reference_maps(cycle):
    """Basic matrices, and every log offset computed from the spec:
    F_j = A_j (ln v0 + ln a_1, ln a_2, ..., ln a_N), zero for raw matrices."""
    mats = as_basic_matrices(cycle)
    if not isinstance(cycle, ValidatedCycle):
        return mats, [np.zeros(len(M)) for M in mats]
    offs = []
    for conn in cycle.connections:
        ln_v0, *ln_a = np.log([conn.contraction_offset, *conn.scalings])
        f = [ln_v0 + ln_a[0], *ln_a[1:]]
        offs.append(np.array([f[p] for p in conn.permutation]))
    return mats, offs


def _reference_level_fracs(cycle, j, cfg):
    """Per-level basin fractions from one out-of-place draw per level and the
    row-major loop."""
    mats, offs = _reference_maps(cycle)
    fracs = []
    for li, eps in enumerate(cfg.epsilon_ladder):
        eta0 = _out_of_place_log_cube(np.random.default_rng((cfg.seed, li)), eps,
                                      cfg.samples_per_level, mats[0].shape[0])
        mask = _row_major_basin_mask(mats, offs, j, eta0, cfg.delta, cfg.max_full_turns)
        fracs.append(float(mask.mean()))
    return fracs


def _reference_fplus_fracs(alpha, ladder, samples, seed):
    return [float((_out_of_place_log_cube(np.random.default_rng((seed, li)), eps, samples,
                                          len(alpha)) @ alpha < 0.0).mean())
            for li, eps in enumerate(ladder)]


def _reference_fplus_chain(alpha, ladder, samples, seed):
    """Per-level fractions of the certificate's chain, drawn out of place: in
    each tested column i in turn, one Binomial(rest, 1 - t_i) count of rows
    failing it and one rng.random((n_i, N)) draw of them, with u_j = t_j U in
    each earlier tested column and E_i = -log1p(-t_i) - log1p(-U); the rows
    left are certified inside.  A level with no certificate is
    _reference_fplus_fracs."""
    scaled = np.ldexp(alpha, -np.frexp(np.abs(alpha).max())[1]).tolist()
    fracs = []
    for li, eps in enumerate(ladder):
        rng, cert = np.random.default_rng((seed, li)), oracle._certificate(scaled, eps)
        if cert is None:
            inside = np.count_nonzero(
                _out_of_place_log_cube(rng, eps, samples, len(alpha)) @ alpha < 0.0)
        else:
            cols, ts = cert
            inside = rest = samples
            for i, (col, t) in enumerate(zip(cols, ts)):
                failed = rng.binomial(rest, 1.0 - t)
                rest -= failed
                u = rng.random((failed, len(alpha)))
                u[:, cols[:i]] = u[:, cols[:i]] * ts[:i]
                eta = math.log(eps) + np.log1p(-u)
                eta[:, col] += math.log1p(-t)
                inside += np.count_nonzero(eta @ alpha < 0.0) - failed
        fracs.append(inside / samples)
    return fracs


def _reference_sigma_chain(cycle, j, cfg):
    """Per-level basin fractions of the cube's chain, drawn out of place: the
    cube of oracle._box from the cycle's cone, split as _reference_fplus_chain
    splits a certificate's box, with every drawn row of a level masked by
    the row-major loop and the rest counted inside.  A level with no cube is
    _reference_level_fracs."""
    mats, offs = _reference_maps(cycle)
    maps = oracle._gmaps(cycle, j)
    cubes = oracle._box(maps, oracle._cone(maps, cfg.delta, cfg.max_full_turns), cfg.delta,
                        cfg.epsilon_ladder)
    n, dim = cfg.samples_per_level, mats[0].shape[0]
    fracs = []
    for li, (eps, cube) in enumerate(zip(cfg.epsilon_ladder, cubes)):
        rng = np.random.default_rng((cfg.seed, li))
        if cube is None:
            rest, eta0 = 0, _out_of_place_log_cube(rng, eps, n, dim)
        else:
            cols, ts = cube
            rest, drawn = n, [np.empty((0, dim))]
            for i, (col, t) in enumerate(zip(cols, ts)):
                failed = rng.binomial(rest, 1.0 - t)
                rest -= failed
                u = rng.random((failed, dim))
                u[:, cols[:i]] = u[:, cols[:i]] * ts[:i]
                drawn.append(math.log(eps) + np.log1p(-u))
                drawn[-1][:, col] += math.log1p(-t)
            eta0 = np.concatenate(drawn)
        mask = _row_major_basin_mask(mats, offs, j, eta0, cfg.delta, cfg.max_full_turns)
        fracs.append((rest + int(mask.sum())) / n)
    return fracs


def _assert_same_law(fracs, drawn, n):
    """Each level within 5 binomial standard deviations of the fraction of
    an independent draw of every row, at their mean fraction."""
    for frac, other in zip(fracs, drawn):
        p = (frac + other) / 2.0
        assert abs(frac - other) <= 5.0 * math.sqrt(p * (1.0 - p) / n), (frac, other)


def _assert_masks_match(cycle, j, eps_levels, n, delta, turns, seed):
    mats, offs = _reference_maps(cycle)
    maps = oracle._gmaps(cycle, j)
    outcomes = set()
    for li, eps in enumerate(eps_levels):
        eta0 = _out_of_place_log_cube(np.random.default_rng((seed, li)), eps, n, mats[0].shape[0])
        expected = _row_major_basin_mask(mats, offs, j, eta0, delta, turns)
        got = oracle._basin_mask(maps, eta0.copy(), delta, turns)
        assert np.array_equal(got, expected), (j, eps)
        outcomes.update(expected.tolist())
    return outcomes


def test_gmaps_checks_a_raw_list_once(monkeypatch):
    from hetstab import transition

    raw = rsp_matrices(RspParams(-0.5, 0.2))
    spec = rsp_cycle_spec(RspParams(-0.5, 0.2))
    conn = ConnectionSpec((1, 2, 0), scalings=(2.0, 0.5, 1.5), contraction_offset=0.3)
    scaled = validate_cycle(CycleSpec(nodes=spec.nodes, connections=(conn, conn)))
    expected = {id(c): _reference_maps(c) for c in (raw, scaled)}
    calls = []
    real = transition.as_basic_matrices

    def counting(cycle):
        calls.append(cycle)
        return real(cycle)

    monkeypatch.setattr(transition, "as_basic_matrices", counting)
    monkeypatch.setattr(oracle, "as_basic_matrices", counting)
    for cycle in (raw, scaled):
        calls.clear()
        maps = oracle._gmaps(cycle, 0)
        assert len(calls) == 1
        want_mats, want_offs = expected[id(cycle)]
        assert all(np.array_equal(a, b) for a, b in zip(maps.mats, want_mats))
        assert len(maps.cols) == len(want_offs)
        assert all(np.array_equal(np.zeros(len(f)) if c is None else c[:, 0], f)
                   for c, f in zip(maps.cols, want_offs))


@pytest.mark.parametrize("family", ["mixed", "scaled-rsp"])
def test_maps_hold_the_turn_from_j_in_turn_order(family):
    # the one full return of a call is the package's M^(j), bit for bit, and
    # map s is that of node (j + s) mod m; a pass from j that overflows is
    # rejected naming j
    rng = np.random.default_rng(12)
    cycle = random_cycle(rng, max_m=5, sign="mixed") if family == "mixed" else _scaled_rsp_cycle(rng)
    mats, offs = _reference_maps(cycle)
    m = len(mats)
    assert m >= 2
    for j in range(m):
        maps = oracle._gmaps(cycle, j)
        assert maps.turn.tobytes() == full_return_matrix(cycle, j).tobytes()
        order = [(j + s) % m for s in range(m)]
        assert all(M.tobytes() == mats[l].tobytes() for M, l in zip(maps.mats, order))
        assert [None if c is None else c[:, 0].tolist() for c in maps.cols] == [
            offs[l].tolist() if offs[l].any() else None for l in order]
        assert maps.norms == [(np.abs(mats[l]).sum(axis=1).max(), np.abs(offs[l]).max())
                              for l in order]
        with pytest.raises(ProductOverflow, match=f"^cyclic product from node {j} is not finite"):
            oracle._gmaps([M * 1e200 for M in mats], j)


@pytest.mark.parametrize("j", [0, 1])
def test_basin_mask_matches_row_major_reference_on_rsp(j):
    mats = rsp_matrices(RspParams(-0.5, 0.2))
    outcomes = _assert_masks_match(mats, j, (1e-3, 1e-8, 1e-15, 1e-18, 1e-21),
                                   n=3000, delta=1e-2, turns=200, seed=j)
    assert outcomes == {True, False}


def test_basin_mask_matches_row_major_reference_on_random_cycles():
    # draws whose analytic index is -inf empty the basin at once; keep 20
    # with a non-empty basin so that the orbit loop does real work
    rng = np.random.default_rng(2024)
    outcomes, kept = set(), 0
    while kept < 20:
        cycle = random_cycle(rng, max_m=4, sign="mixed")
        j = int(rng.integers(cycle.m))
        try:
            if classify(cycle).sigma[j] == -math.inf:
                continue
        except IndeterminateError:
            continue
        outcomes |= _assert_masks_match(cycle, j, (1e-4, 1e-12, 1e-40), n=400,
                                        delta=1e-2, turns=60, seed=kept)
        kept += 1
    assert outcomes == {True, False}


# Whole-block tests: each step first settles the tube and the dive for the
# whole block (one max, and a carried bound on ||eta||_inf), and takes the
# column maxima only when that cannot decide; the masks must not move.


def test_a_deep_coordinate_under_a_shallow_max_goes_to_the_column_test():
    # coordinate 0 passes DEEP_LOG within 9 steps and keeps falling, so the
    # bound re-measures past -DEEP_LOG at every step while no column max
    # comes near it; coordinates 1 and 2 decide by trend or by escape
    M = np.diag([10.0, 1.0, 1.0])
    F = np.array([0.0, -0.01, 0.01])
    eta0 = np.array([[-5.0, -6.0, -20.0],    # max falls: in the basin
                     [-5.0, -20.0, -6.0],    # max rises inside the tube
                     [-5.0, -20.0, -4.8],    # max leaves the tube at step 20
                     [-12.0, -9.0, -30.0]])
    expected = _row_major_basin_mask([M], [F], 0, eta0, 1e-2, 100)
    assert expected.tolist() == [True, False, False, True]
    assert np.array_equal(oracle._basin_mask(oracle._maps([M], [F], 0), eta0, 1e-2, 100), expected)


def test_offsets_carry_the_dive_bound():
    # the first step measures the bound; then one offset takes every
    # coordinate to about -1e9 and the next brings it back.  A column dives
    # exactly when each coordinate starts at or below -10, and with M = I
    # only ||F|| lifts the carried bound far enough to notice it
    mats = [np.eye(3)] * 3
    offs = [np.zeros(3), np.full(3, -1e9 + 10.0), np.full(3, 1e9)]
    eta0 = np.random.default_rng(3).uniform(-12.0, -9.0, (400, 3))
    expected = _row_major_basin_mask(mats, offs, 0, eta0, 1e-2, 20)
    assert np.array_equal(expected, (eta0 <= -10.0).all(axis=1))
    assert set(expected.tolist()) == {True, False}
    assert np.array_equal(oracle._basin_mask(oracle._maps(mats, offs, 0), eta0, 1e-2, 20), expected)


def test_a_max_on_ln_delta_has_left_the_tube():
    # the first map puts the max exactly on ln(delta) and the second takes it
    # back inside, where it falls: only the tube's strict < says escaped
    ln_delta = math.log(1e-2)
    start = ln_delta - 1.0
    assert start + 1.0 == ln_delta
    mats = [np.eye(2)] * 2
    offs = [np.array([1.0, 0.0]), np.array([-1.01, -0.01])]
    eta0 = np.array([[start, -9.0], [start - 0.5, -9.0]])
    expected = _row_major_basin_mask(mats, offs, 0, eta0, 1e-2, 20)
    assert expected.tolist() == [False, True]
    assert np.array_equal(oracle._basin_mask(oracle._maps(mats, offs, 0), eta0, 1e-2, 20), expected)


@pytest.mark.parametrize("turns", [5, 6, 7, 12, 30])
def test_orbits_undecided_at_the_budget_end_match(turns):
    # a short budget leaves most orbits to the trend verdict, which reads the
    # column maxima of turn q3 and of the last turn
    mats = rsp_matrices(RspParams(-0.5, 0.2))
    outcomes = _assert_masks_match(mats, 0, (1e-3, 1e-9, 1e-15), n=2000,
                                   delta=1e-2, turns=turns, seed=turns)
    assert outcomes == {True, False}


def _scaled_rsp_cycle(rng):
    """An RSP cycle at random (eps_x, eps_y) with random connection constants,
    so that both the basin's cusp and non-zero offsets occur."""
    spec = rsp_cycle_spec(RspParams(*rng.uniform(-0.9, 0.9, 2).tolist()))
    return validate_cycle(CycleSpec(nodes=spec.nodes, connections=tuple(
        ConnectionSpec(permutation=c.permutation,
                       scalings=tuple(rng.uniform(0.5, 2.0, 3).tolist()),
                       contraction_offset=float(rng.uniform(0.5, 2.0)))
        for c in spec.connections)))


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), level=st.integers(3, 60), turns=st.integers(4, 40),
       family=st.sampled_from(["rsp", "any", "mixed", "negative"]))
def test_basin_mask_matches_row_major_reference_property(seed, level, turns, family):
    rng = np.random.default_rng(seed)
    cycle = (_scaled_rsp_cycle(rng) if family == "rsp"
             else random_cycle(rng, max_m=3, sign=family))
    j = int(rng.integers(cycle.m))
    _assert_masks_match(cycle, j, (10.0 ** -level,), n=200, delta=1e-2, turns=turns,
                        seed=seed)


def _careful_basin_member(mats, j, eta, delta, max_full_turns, offs=None):
    """Reference basin test for one point, in Python floats: a term whose
    matrix entry is 0 is dropped, as x^0 = 1, so a coordinate that has
    overflowed to -inf (x = 0) adds nothing where the map ignores it.
    offs, one offset vector per map in node order, is added to the row
    sums (zero by default)."""
    m, ln_delta = len(mats), math.log(delta)
    eta = [float(e) for e in eta]
    offs = [np.zeros(len(eta))] * m if offs is None else offs
    if max(eta) >= ln_delta:
        return False
    q3, q3_max = (3 * max_full_turns) // 4, None
    for turn in range(max_full_turns):
        for step in range(m):
            l = (j + step) % m
            eta = [sum(float(a) * e for a, e in zip(row, eta) if a != 0.0) + float(f)
                   for row, f in zip(mats[l], offs[l])]
            mx = max(eta) if not any(map(math.isnan, eta)) else math.nan
            if not oracle.DEEP_LOG < mx < ln_delta:
                return mx <= oracle.DEEP_LOG
        if turn == q3:
            q3_max = mx
    return mx < q3_max


@pytest.fixture
def resteps(monkeypatch):
    """A list that gets, per oracle._log_step call, the number of columns
    it steps again and whether it adds an offset."""
    calls = []
    real = oracle._log_step

    def counting(M, eta, col):
        calls.append((eta.shape[1], col is not None))
        return real(M, eta, col)

    monkeypatch.setattr(oracle, "_log_step", counting)
    return calls


def _assert_overflowing_masks_match(rng, lists, offsets=None):
    # near-diagonal maps with entries up to 1e300 drive some log coordinates
    # to -inf within a few steps; the matmul then meets 0 * -inf
    for _ in range(lists):
        n, m = int(rng.integers(2, 4)), int(rng.integers(1, 3))
        mats = []
        for _ in range(m):
            M = np.diag(rng.choice([1e300, 1e200, 2.0, 1.0, 0.5, 1.5], n))
            M[rng.integers(n), rng.integers(n)] += rng.choice([0.5, -0.3, 1e100])
            mats.append(M)
        offs = ([np.zeros(n)] * m if offsets is None
                else [rng.choice(offsets, n) for _ in range(m)])
        eta0 = np.log(rng.uniform(1e-6, 1e-3, (10, n)))
        got = oracle._basin_mask(oracle._maps(mats, offs, 0), eta0, 1e-2, 30)
        assert got.tolist() == [_careful_basin_member(mats, 0, e, 1e-2, 30, offs)
                                for e in eta0]


def test_basin_mask_matches_careful_stepping_when_coordinates_overflow(resteps):
    _assert_overflowing_masks_match(np.random.default_rng(61), 20)
    assert len(resteps) > 20


def test_basin_mask_matches_careful_stepping_with_offsets(resteps):
    # the same family with offsets, so that a step again adds its offset
    _assert_overflowing_masks_match(np.random.default_rng(62), 40, (0.0, 0.25, -0.5))
    assert sum(offset for _, offset in resteps) > 20


@pytest.mark.parametrize("cycle,j,x", [
    (stable_cycle(), 0, (1e-8, 1e-8)),
    (rsp_matrices(RspParams(0.3, 0.3)), 0, (1e-4, 8e-3, 1e-4)),
    (rsp_matrices(RspParams(-0.5, 0.2)), 0, (1e-250, 1e-300, 1e-300)),
    (rsp_matrices(RspParams(-0.5, 0.2)), 0, (1e-4, 1e-300, 1e-300)),
    (stable_cycle(), 0, (0.5, 0.5)),
])
def test_single_point_basin_matches_row_major_reference(cycle, j, x):
    mats, offs = _reference_maps(cycle)
    expected = _row_major_basin_mask(mats, offs, j, np.log(np.asarray(x))[None, :],
                                     CFG_SMALL.delta, CFG_SMALL.max_full_turns)[0]
    assert in_delta_basin(cycle, j, x, CFG_SMALL) == expected


def test_membership_batch_matches_row_major_reference():
    rng = np.random.default_rng(5)
    while True:
        M, _, _ = dominant_pair_matrix(rng, n=3)
        v = vmax_row(M)
        if v.min() < 0.0 < v.max():
            break
    ys = -rng.uniform(0.05, 1.0, (3000, 3))
    expected = _row_major_membership(M, ys)
    assert set(expected.tolist()) == {True, False}
    assert np.array_equal(matrix_basin_membership(M, ys), expected)


def test_fplus_levels_match_out_of_place_reference():
    # one, two and three negative components share the certificate's bound,
    # and with none every row is certified
    ladder = np.geomspace(1e-1, 1e-4, 9)
    for alpha in ((-1.0, 1.0, 1.0), (-0.5, -0.5, 2.0), (-1.0, -1.0, -1.0, 4.0), (1.0, 0.5, 0.0)):
        alpha = np.array(alpha)
        est = estimate_fplus_mc(alpha, ladder, 50_000, seed=8)
        assert [lev.sigma_frac for lev in est.levels] == _reference_fplus_chain(
            alpha, ladder, 50_000, 8), alpha


def test_sigma_levels_match_row_major_reference():
    # every level has a cube; drawing every row instead keeps the law
    mats = rsp_matrices(RspParams(-0.5, 0.2))
    cfg = EstimatorConfig(epsilon_ladder=(1e-15, 1e-17, 1e-19), samples_per_level=2000, seed=4)
    fracs = [lev.sigma_frac for lev in estimate_sigma_mc(mats, 0, cfg).levels]
    assert fracs == _reference_sigma_chain(mats, 0, cfg)
    _assert_same_law(fracs, _reference_level_fracs(mats, 0, cfg), 2000)


# ---------------------------------------------------------------------------
# Basin certificate: oracle._cone proves a dive early, and no mask moves
# ---------------------------------------------------------------------------

CRITERION_6 = EstimatorConfig(delta=1e-2, epsilon_ladder=tuple(10.0 ** -k for k in range(15, 23)),
                              samples_per_level=40_000, max_full_turns=200, seed=20260806)


@pytest.fixture
def certified(monkeypatch):
    """A list that gets the number of columns each oracle._in_cone call certifies."""
    counts = []
    real = oracle._in_cone

    def counting(*args):
        inside = real(*args)
        counts.append(int(inside.sum()))
        return inside

    monkeypatch.setattr(oracle, "_in_cone", counting)
    return counts


def test_cone_decides_the_criterion_6_basin_with_every_mask_exact(certified):
    mats = rsp_matrices(RspParams(-0.5, 0.2))
    cfg = CRITERION_6
    maps = oracle._maps(mats, [np.zeros(3)] * 2, 0)
    cone = oracle._cone(maps, cfg.delta, cfg.max_full_turns)
    assert cone is not None
    basin = 0
    for li, eps in enumerate(cfg.epsilon_ladder):
        eta0 = _out_of_place_log_cube(np.random.default_rng((cfg.seed, li)), eps,
                                      cfg.samples_per_level, 3)
        expected = _row_major_basin_mask(mats, [np.zeros(3)] * 2, 0, eta0, cfg.delta,
                                         cfg.max_full_turns)
        got = oracle._basin_mask(maps, eta0.copy(), cfg.delta, cfg.max_full_turns, cone)
        assert np.array_equal(got, expected), eps
        basin += int(expected.sum())
    assert sum(certified) >= 0.95 * basin > 0


def _cone_masks_match(cycle, j, eps, n, turns, seed):
    """Whether the mask with the cycle's cone (if any) equals the row-major
    reference; True when there is no cone, where the loop is unchanged."""
    maps = oracle._gmaps(cycle, j)
    cone = oracle._cone(maps, 1e-2, turns)
    ref_mats, ref_offs = _reference_maps(cycle)
    eta0 = _out_of_place_log_cube(np.random.default_rng(seed), eps, n, len(maps.turn))
    expected = _row_major_basin_mask(ref_mats, ref_offs, j, eta0, 1e-2, turns)
    return np.array_equal(oracle._basin_mask(maps, eta0.copy(), 1e-2, turns, cone), expected)


def test_the_box_keeps_deep_orbits_off_the_direction_out(certified):
    # y <- M y with a positive dominant eigenvector and a mixed-sign left one:
    # a deep start whose dominant component points out of the orthant
    # escapes, and only the ratio box tells it from a basin orbit
    rng = np.random.default_rng(5)
    while True:
        M, _, _ = dominant_pair_matrix(rng, n=3)
        v = vmax_row(M)
        if v.min() < 0.0 < v.max():
            break
    maps = oracle._maps([M], [np.zeros(3)], 0)
    cone = oracle._cone(maps, 1e-2, 200)
    eta0 = -np.random.default_rng(1).uniform(5.0, 300.0, (3000, 3))
    expected = _row_major_basin_mask([M], [np.zeros(3)], 0, eta0, 1e-2, 200)
    got = oracle._basin_mask(maps, eta0.copy(), 1e-2, 200, cone)
    assert np.array_equal(got, expected) and sum(certified) > 0
    no_box = dataclasses.replace(cone, lo=np.zeros((2, 1)), hi=np.full((2, 1), np.inf))
    assert not np.array_equal(oracle._basin_mask(maps, eta0.copy(), 1e-2, 200, no_box), expected)


def test_the_depth_floor_keeps_orbits_that_leave_the_tube_mid_turn_out(certified):
    # at RSP (0.15, -0.42) the cone's partial images come close to 0, so a
    # shallow column inside the box can still leave the tube mid-turn
    mats, offs = rsp_matrices(RspParams(0.15, -0.42)), [np.zeros(3)] * 2
    maps = oracle._maps(mats, offs, 0)
    cone = oracle._cone(maps, 1e-2, 200)
    eta0 = _out_of_place_log_cube(np.random.default_rng(0), 1e-4, 2000, 3)
    expected = _row_major_basin_mask(mats, offs, 0, eta0, 1e-2, 200)
    got = oracle._basin_mask(maps, eta0.copy(), 1e-2, 200, cone)
    assert np.array_equal(got, expected) and sum(certified) > 0
    shallow = dataclasses.replace(cone, least=1.0)
    assert not np.array_equal(oracle._basin_mask(maps, eta0.copy(), 1e-2, 200, shallow), expected)


def test_cone_certifies_with_non_zero_offsets(certified):
    # the offsets are a perturbation of the cone, not a reason to skip it
    spec = rsp_cycle_spec(RspParams(-0.5, 0.2))
    conn = ConnectionSpec((1, 2, 0), scalings=(2.0, 0.5, 1.5), contraction_offset=0.3)
    cycle = validate_cycle(CycleSpec(nodes=spec.nodes, connections=(conn, conn)))
    assert _cone_masks_match(cycle, 0, 1e-15, 3000, 200, seed=3)
    assert sum(certified) > 1000


def test_cone_masks_match_row_major_reference_property(certified):
    # scaled RSP cycles carry non-zero offsets; attracting cycles dive fast
    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), level=st.integers(3, 40),
           turns=st.integers(60, 200), family=st.sampled_from(["rsp", "attracting"]))
    def masks_match(seed, level, turns, family):
        rng = np.random.default_rng(seed)
        cycle = (_scaled_rsp_cycle(rng) if family == "rsp"
                 else attracting_cycle(rng, m=int(rng.integers(1, 4))))
        j = int(rng.integers(cycle.m))
        assert _cone_masks_match(cycle, j, 10.0 ** -level, 200, turns, seed)

    masks_match()
    assert sum(certified) > 0


def test_cone_keeps_the_reference_levels(certified):
    # every criterion-6 level has a cube, and the cone decides drawn rows
    mats = rsp_matrices(RspParams(-0.5, 0.2))
    cfg = EstimatorConfig(epsilon_ladder=CRITERION_6.epsilon_ladder, samples_per_level=3000,
                          seed=5)
    fracs = [lev.sigma_frac for lev in estimate_sigma_mc(mats, 0, cfg).levels]
    assert fracs == _reference_sigma_chain(mats, 0, cfg)
    assert sum(certified) > 0
    _assert_same_law(fracs, _reference_level_fracs(mats, 0, cfg), 3000)


def test_a_level_with_no_cube_draws_every_row(monkeypatch):
    # the RSP cone gives no cube at the shallow levels, and there is no cone
    # at a budget of 40 turns, that of the oracle-sigma golden CLI case: such
    # a level is the draw of every row, bit for bit
    monkeypatch.setattr(oracle, "_side", lambda levels, complement: (0.0, None))
    mats = rsp_matrices(RspParams(-0.5, 0.2))
    for turns, has_cube in ((200, [False, False, True]), (40, [False] * 3)):
        cfg = EstimatorConfig(epsilon_ladder=(1e-6, 1e-10, 1e-15), samples_per_level=3000,
                              max_full_turns=turns, seed=11)
        maps = oracle._gmaps(mats, 0)
        cubes = oracle._box(maps, oracle._cone(maps, cfg.delta, turns), cfg.delta,
                            cfg.epsilon_ladder)
        assert [cube is not None for cube in cubes] == has_cube
        fracs = [lev.sigma_frac for lev in estimate_sigma_mc(mats, 0, cfg).levels]
        expected = _reference_level_fracs(mats, 0, cfg)
        assert [f for f, cube in zip(fracs, has_cube) if not cube] == [
            f for f, cube in zip(expected, has_cube) if not cube]
        assert fracs == _reference_sigma_chain(mats, 0, cfg)


def _box_cases():
    """(maps, ladder) from node 0 with a cube at some level: RSP with no
    offsets and with offsets at the criterion-6 levels, the RSP point of the
    depth-floor test, where a cube without the cone's ratio requirements
    would hold rows that leave the tube, and three attracting draws with a
    cone, at levels where the cube is a part of the eps-cube and where it
    is all of it; and the RSP maps scaled up whose cubes come from the
    turns before _box's rounding-budget stop (STOP_CASES)."""
    spec = rsp_cycle_spec(RspParams(-0.5, 0.2))
    conn = ConnectionSpec((1, 2, 0), scalings=(2.0, 0.5, 1.5), contraction_offset=0.3)
    cases = {"rsp": (oracle._gmaps(rsp_matrices(RspParams(-0.5, 0.2)), 0),
                     CRITERION_6.epsilon_ladder),
             "scaled": (oracle._gmaps(validate_cycle(CycleSpec(nodes=spec.nodes,
                                                               connections=(conn, conn))), 0),
                        CRITERION_6.epsilon_ladder),
             "floor": (oracle._gmaps(rsp_matrices(RspParams(0.15, -0.42)), 0),
                       (1e-5, 1e-6, 1e-8, 1e-10, 1e-15))}
    for seed in (1, 2, 5):
        rng = np.random.default_rng(seed)
        cycle = attracting_cycle(rng, m=int(rng.integers(1, 4)))
        cases[f"attracting-{seed}"] = (oracle._gmaps(cycle, 0), (1e-3, 1e-4, 1e-6, 1e-15))
    for name, (params, scale) in STOP_CASES.items():
        mats = [M * scale for M in rsp_matrices(RspParams(*params))]
        cases[f"stop-{name}"] = (oracle._gmaps(mats, 0), (1e-4, 1e-8, 1e-12, 1e-16))
    return cases


@pytest.mark.parametrize("case", ["rsp", "scaled", "floor", "attracting-1", "attracting-2",
                                  "attracting-5", "stop-rsp-x3", "stop-floor-x2"])
def test_rows_at_the_box_edge_are_in_the_basin(case):
    # every corner of each level's cube, with uniforms 0 or the largest below
    # t (1 - 2^-53 where the cube is all of the eps-cube), and 2000 random
    # rows inside it: the per-column loop, with no cone, puts each in the basin
    maps, ladder = _box_cases()[case]
    cubes = oracle._box(maps, oracle._cone(maps, 1e-2, 200), 1e-2, ladder)
    n, rng, kinds = len(maps.turn), np.random.default_rng(0), set()
    for eps, cube in zip(ladder, cubes):
        if cube is None:
            continue
        cols, ts = cube
        kinds.add(bool(cols))
        edge = math.nextafter(ts[0] if cols else 1.0, 0.0)
        u = np.concatenate([list(itertools.product([0.0, edge], repeat=n)),
                            np.minimum(rng.random((2000, n)) * edge, edge)])
        eta0 = oracle._sample_log_cube(u, eps)
        assert oracle._basin_mask(maps, eta0, 1e-2, 200).all(), eps
    assert True in kinds and (not case.startswith("attracting") or kinds == {True, False})


STOP_CASES = {"rsp-x3": ((-0.5, 0.2), 3.0), "floor-x2": ((0.15, -0.42), 2.0)}


@pytest.mark.parametrize("case", sorted(STOP_CASES))
def test_the_box_stops_at_its_rounding_budget(case, monkeypatch):
    # RSP maps scaled up: c = K A gamma mu passes 2^-20 at a turn end while
    # the widths still grow, so _box stops there before BOX_TURNS; every
    # cube comes from the turns before, as with a BOX_TURNS of that many,
    # and the estimate's levels are the reference chain's bit for bit
    params, scale = STOP_CASES[case]
    mats = [M * scale for M in rsp_matrices(RspParams(*params))]
    cfg = EstimatorConfig(epsilon_ladder=(1e-4, 1e-8, 1e-12, 1e-16), samples_per_level=3000,
                          seed=5)
    maps = oracle._gmaps(mats, 0)
    cone = oracle._cone(maps, cfg.delta, cfg.max_full_turns)
    steps, widths = [], []
    with pytest.MonkeyPatch.context() as mp:
        orbits, real_widths = oracle._orbits, oracle._widths
        mp.setattr(oracle, "_orbits", lambda *args: (
            steps.append(step[0]) or step for step in orbits(*args)))
        mp.setattr(oracle, "_widths", lambda *args: widths.append(1) or real_widths(*args))
        cubes = oracle._box(maps, cone, cfg.delta, cfg.epsilon_ladder)
    turns = len(widths)
    assert steps[-1] == (turns + 1) * len(mats) and turns + 1 < oracle.BOX_TURNS
    assert all(cube is not None and cube[0] for cube in cubes)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "BOX_TURNS", turns)
        assert oracle._box(maps, cone, cfg.delta, cfg.epsilon_ladder) == cubes
    monkeypatch.setattr(oracle, "_side", lambda levels, complement: (0.0, None))
    fracs = [lev.sigma_frac for lev in estimate_sigma_mc(mats, 0, cfg).levels]
    assert fracs == _reference_sigma_chain(mats, 0, cfg) and min(fracs) < 1.0


def test_cone_is_built_once_per_estimate_and_never_for_one_point(monkeypatch):
    calls = []
    real = oracle._cone
    monkeypatch.setattr(oracle, "_cone", lambda *args: calls.append(args) or real(*args))
    mats = rsp_matrices(RspParams(-0.5, 0.2))
    cfg = EstimatorConfig(epsilon_ladder=(1e-15, 1e-16, 1e-17), samples_per_level=400, seed=7)
    estimate_sigma_mc(mats, 0, cfg)
    assert len(calls) == 1
    calls.clear()
    assert in_delta_basin(mats, 0, (1e-15, 1e-15, 1e-15), cfg)
    assert calls == []


def _cone_cases():
    """Maps from node 0 that have a cone at 200 turns: RSP with no offsets,
    the same with offsets, and the RSP point of the depth-floor test."""
    zero = [np.zeros(3)] * 2
    spec = rsp_cycle_spec(RspParams(-0.5, 0.2))
    conn = ConnectionSpec((1, 2, 0), scalings=(2.0, 0.5, 1.5), contraction_offset=0.3)
    return {"rsp": oracle._maps(rsp_matrices(RspParams(-0.5, 0.2)), zero, 0),
            "scaled": oracle._gmaps(validate_cycle(CycleSpec(nodes=spec.nodes,
                                                             connections=(conn, conn))), 0),
            "floor": oracle._maps(rsp_matrices(RspParams(0.15, -0.42)), zero, 0)}


@pytest.mark.parametrize("case", ["rsp", "scaled", "floor"])
def test_the_cone_depth_of_each_turn_is_that_of_a_whole_table(case):
    # the table max(least, deep / g^n (1 + 2^-30)), n = (turns - 1 - t) // k,
    # inf where it reaches deep, taken over every turn at once; its numpy pow
    # may differ from the per-turn float pow in the last bits, far inside the
    # 2^-30 that rounds each depth up
    cone = oracle._cone(_cone_cases()[case], 1e-2, 200)
    steps_left = (200 - 1 - np.arange(200)) // cone.k
    need = np.maximum(cone.least, cone.deep / cone.g ** steps_left * (1.0 + 2.0**-30))
    table = np.where(need < cone.deep, need, math.inf)
    depth = np.array([cone.depth(t) for t in range(200)])
    assert np.array_equal(np.isinf(depth), np.isinf(table))
    assert np.allclose(depth, table, rtol=2.0**-50, atol=0.0)
    assert depth[0] == cone.least and (depth[np.isfinite(depth)] > cone.least).any()


def test_a_cone_for_a_budget_of_10_to_the_15_turns_holds_no_table():
    maps = _cone_cases()["rsp"]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        cone = oracle._cone(maps, 1e-2, 10**15)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cone is not None and elapsed < 2.0 and peak < 2**20
    assert cone.depth(0) == cone.least and cone.depth(10**15 - 1) == math.inf


@pytest.mark.parametrize("mats,turns", [
    ([np.array([[1.0, -2.0], [0.0, 3.0]])], 200),   # the power iteration leaves the orthant
    ([np.diag([0.9, 0.8])], 200),                   # negative direction, but orbits shrink
    ([np.eye(CONE_DIM_CAP + 1) + 1.0], 200),        # 2^N vertex rays, above the cap
    (rsp_matrices(RspParams(-0.5, 0.2)), 4),        # too few turns for the dive
], ids=["direction", "no-pair", "vertex-cap", "short-budget"])
def test_no_cone_where_it_cannot_be_verified(mats, turns):
    offs = [np.zeros(len(M)) for M in mats]
    maps = oracle._maps(mats, offs, 0)
    assert oracle._cone(maps, 1e-2, turns) is None
    rng = np.random.default_rng(turns)
    eta0 = np.log(rng.uniform(1e-12, 1e-4, (300, len(mats[0]))))
    assert np.array_equal(oracle._basin_mask(maps, eta0.copy(), 1e-2, turns),
                          _row_major_basin_mask(mats, offs, 0, eta0, 1e-2, turns))


def test_a_cone_exists_at_the_vertex_cap_and_at_a_long_budget():
    # the counterparts of the vertex-cap and short-budget cases above
    cap = oracle._maps([np.eye(CONE_DIM_CAP) + 1.0], [np.zeros(CONE_DIM_CAP)], 0)
    assert oracle._cone(cap, 1e-2, 200) is not None
    rsp = oracle._maps(rsp_matrices(RspParams(-0.5, 0.2)), [np.zeros(3)] * 2, 0)
    assert oracle._cone(rsp, 1e-2, 200) is not None


# Block bookkeeping: a column decided by the per-column test stays in its
# slot as a copy of a live column, indexed to a trash slot, and a block is
# compacted only at a cone drop or once more than half of it is dead.


@pytest.fixture
def compactions(monkeypatch):
    """A list that gets, per oracle._compact call, the batch indices of the
    columns it removes (the batch size for a dead slot)."""
    calls = []
    real = oracle._compact

    def counting(keep, idx, eta):
        calls.append(idx[~keep])
        return real(keep, idx, eta)

    monkeypatch.setattr(oracle, "_compact", counting)
    return calls


def test_a_criterion_6_estimate_compacts_at_most_60_times(compactions):
    # 3 blocks of the rows outside the cubes, shared by the levels: the early
    # escapes stay as dead slots, and only the cone drops compact; each
    # block's first is at turn 2, and turn 3's certifies every live column
    # (3 today)
    estimate_sigma_mc(rsp_matrices(RspParams(-0.5, 0.2)), 0, CRITERION_6)
    assert 0 < len(compactions) <= 60


def test_in_delta_basin_follows_only_points_that_start_inside_the_tube(monkeypatch):
    # points of an eps-cube wider than delta among deeper ones, and one an
    # ulp below delta = 1e-3 whose log is ln(delta): a point with max(ln x)
    # >= ln(delta) is outside with no _basin_mask call, and every other point
    # gets the row-major reference's verdict
    mats, offs = rsp_matrices(RspParams(-0.5, 0.2)), [np.zeros(3)] * 2
    cfg = EstimatorConfig(delta=1e-3, epsilon_ladder=(1e-4,))
    rng = np.random.default_rng(9)
    x = np.exp(np.concatenate([_out_of_place_log_cube(rng, eps, 60, 3) for eps in (1.5e-3, 1e-15)]))
    x = np.concatenate([x, [[math.nextafter(cfg.delta, 0.0), 1e-9, 1e-9]]])
    eta0 = np.log(x)
    outside = eta0.max(axis=1) >= math.log(cfg.delta)
    assert 0 < outside.sum() < len(x) and outside[-1]
    expected = _row_major_basin_mask(mats, offs, 0, eta0, cfg.delta, cfg.max_full_turns)
    assert set(expected[~outside].tolist()) == {True, False}
    calls = []
    real = oracle._basin_mask
    monkeypatch.setattr(oracle, "_basin_mask", lambda *args: calls.append(args) or real(*args))
    for point, out, want in zip(x, outside, expected):
        calls.clear()
        assert in_delta_basin(mats, 0, point, cfg) is bool(want)
        assert len(calls) == (not out)


def test_escapes_and_dives_in_the_step_of_a_cone_drop(compactions):
    # shallow columns escape at the last step of turns 0-2 and deep ones
    # dive there, in the blocks where the cone certifies others at those
    # turns' ends: the drop compacts the dead slots with the certified
    mats, offs = rsp_matrices(RspParams(-0.5, 0.2)), [np.zeros(3)] * 2
    cone = oracle._cone(oracle._maps(mats, offs, 0), 1e-2, 200)
    rng = np.random.default_rng(0)
    eta0 = -np.exp(np.concatenate([rng.uniform(math.log(4.7), math.log(1e4), (1000, 3)),
                                   rng.uniform(math.log(1e6), math.log(2e9), (1000, 3))]))
    expected = _row_major_basin_mask(mats, offs, 0, eta0, 1e-2, 200)
    got = oracle._basin_mask(oracle._maps(mats, offs, 0), eta0.copy(), 1e-2, 200, cone)
    assert np.array_equal(got, expected) and set(expected.tolist()) == {True, False}
    n = len(eta0)
    assert sum((removed == n).any() and (removed < n).any() for removed in compactions) >= 2


def test_a_nan_step_of_a_column_whose_copy_is_dead(resteps):
    # columns 0 and 2 overflow to -inf at step 1 and their matmul turns NaN
    # from step 2 on; column 1 escapes at step 1, so its slot carries a copy
    # of column 0 that turns NaN too.  Only the two live columns are stepped
    # again, at every step, and the dead copy is overwritten each time
    M = np.diag([1e300, 2.0])
    eta0 = np.array([[-5.0, -6.0], [-1e-301, -6.0], [-6.0, -7.0]])
    got = oracle._basin_mask(oracle._maps([M], [np.zeros(2)], 0), eta0, 1e-2, 40)
    assert got.tolist() == [_careful_basin_member([M], 0, e, 1e-2, 40) for e in eta0]
    assert got.tolist() == [True, False, True]
    assert len(resteps) > 20 and all(columns == 2 for columns, _ in resteps)


def test_a_no_cone_block_that_drains_past_half_dead(compactions):
    # with no cone, a block compacts only at a turn end where more than half
    # of it is dead, and then removes dead slots alone
    mats, offs = rsp_matrices(RspParams(-0.5, 0.2)), [np.zeros(3)] * 2
    eta0 = _out_of_place_log_cube(np.random.default_rng(4), 1e-4, 3000, 3)
    expected = _row_major_basin_mask(mats, offs, 0, eta0, 1e-2, 200)
    assert 0 < expected.sum() < len(eta0) / 2
    got = oracle._basin_mask(oracle._maps(mats, offs, 0), eta0.copy(), 1e-2, 200)
    assert np.array_equal(got, expected)
    assert compactions and all((removed == len(eta0)).all() for removed in compactions)


# ---------------------------------------------------------------------------
# Streaming in blocks: exact at every block boundary, memory bounded by the block
# ---------------------------------------------------------------------------

BLOCK_EDGES = (1, oracle.BLOCK - 1, oracle.BLOCK, oracle.BLOCK + 1, 5 * oracle.BLOCK // 2)


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_log_cube_blocks_continue_one_draw(n):
    # a level with no box draws its rows in blocks of the shared buffer that
    # continue one draw: their concatenation is the out-of-place log cube
    blocks = []

    def test(eta):
        blocks.append(eta.copy())
        return np.ones(len(eta), dtype=bool)

    (level,) = oracle._levels((1e-5,), n, 6, 3, [None], test)
    assert level.sigma_frac == 1.0 and len(blocks) == -(-n // oracle.BLOCK)
    expected = _out_of_place_log_cube(np.random.default_rng((6, 0)), 1e-5, n, 3)
    assert np.array_equal(np.concatenate(blocks), expected)


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_sigma_levels_exact_at_block_boundaries(n):
    # a single sample fits no slope unless every level saturates, so n = 1
    # runs on a cycle whose basin is the whole cube
    cycle = stable_cycle() if n == 1 else rsp_matrices(RspParams(-0.5, 0.2))
    cfg = EstimatorConfig(epsilon_ladder=(1e-12, 1e-16, 1e-20), samples_per_level=n,
                          max_full_turns=40, seed=4)
    expected = _reference_level_fracs(cycle, 0, cfg)
    assert [lev.sigma_frac for lev in estimate_sigma_mc(cycle, 0, cfg).levels] == expected


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_fplus_levels_exact_at_block_boundaries(n):
    # as above: with one sample only a slice that holds the whole cube fits.
    # At eps = 0.9 about 90% of the rows fail the tested column, so from
    # n = BLOCK + 1 on they are drawn in more than one block
    alpha = np.array([1.0, 1.0, 1.0]) if n == 1 else np.array([-1.0, 1.0, 1.0])
    ladder = np.geomspace(0.9, 1e-4, 9)
    est = estimate_fplus_mc(alpha, ladder, n, seed=12)
    assert [lev.sigma_frac for lev in est.levels] == _reference_fplus_chain(alpha, ladder, n, 12)


SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 99, 20260805, 20260806)


def _assert_streams_of_default_rng(seed, count):
    """Every level's generator of oracle._streams has the PCG64 state of
    np.random.default_rng((seed, li)), and draws as it."""
    got = [(rng.bit_generator.state, rng.random()) for rng in oracle._streams(seed, count)]
    assert got == [(np.random.PCG64(np.random.SeedSequence((seed, li))).state,
                    np.random.default_rng((seed, li)).random()) for li in range(count)]


@pytest.mark.parametrize("count", (1, 8, 131))
@pytest.mark.parametrize("seed", SEEDS)
def test_every_level_draws_the_stream_of_default_rng(seed, count):
    # seeds of one, two, three and five 32-bit words: 2^130 + 99 with the
    # level index is 6 words of entropy, beyond SeedSequence's pool of 4
    _assert_streams_of_default_rng(seed, count)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**200 - 1), count=st.integers(1, 40))
def test_every_level_draws_the_stream_of_default_rng_property(seed, count):
    _assert_streams_of_default_rng(seed, count)


def _other_levels(estimate, ladder, k, eps):
    """The level fractions of estimate(ladder) and of estimate(ladder with
    level k at eps), at every level but k."""
    other = (*ladder[:k], eps, *ladder[k + 1:])
    return [[lev.sigma_frac for li, lev in enumerate(estimate(lad).levels) if li != k]
            for lad in (ladder, other)]


# F+ at alpha (-1, 1, 1): level 0 has no certificate and draws every row,
# and about 90% of level 1's rows fail its tested column, so with BLOCK +
# 5000 samples both straddle a flush of the shared buffer
INDEPENDENCE_FPLUS = ((1.0 - 1e-10, 0.9, 0.5, 1e-2), (1.0 - 1e-9, 0.8, 0.3, 1e-3))


@pytest.mark.parametrize("k", range(4))
def test_fplus_levels_do_not_move_when_another_level_does(k, monkeypatch):
    monkeypatch.setattr(oracle, "_side", lambda levels, complement: (0.0, None))
    ladder, changed = INDEPENDENCE_FPLUS
    samples = oracle.BLOCK + 5000
    certs = [oracle._certificate([-0.5, 0.5, 0.5], eps) for eps in (*ladder, changed[k])]
    assert [cert is None for cert in certs] == [True, False, False, False, k == 0]
    assert certs[1][1][0] < 0.15
    before, after = _other_levels(lambda lad: estimate_fplus_mc((-1.0, 1.0, 1.0), lad, samples, 4),
                                  ladder, k, changed[k])
    assert before == after and len(set(before)) == 3


# sigma on RSP (-0.5, 0.2): level 0 has no cube and draws all its rows, and
# the others draw a part of theirs, so rows of several levels share a block
INDEPENDENCE_SIGMA = ((1e-12, 1e-15, 1e-18, 1e-20), (1e-11, 1e-16, 1e-19, 1e-21))


@pytest.mark.parametrize("k", range(4))
def test_sigma_levels_do_not_move_when_another_level_does(k, monkeypatch):
    monkeypatch.setattr(oracle, "_side", lambda levels, complement: (0.0, None))
    mats = rsp_matrices(RspParams(-0.5, 0.2))
    ladder, changed = INDEPENDENCE_SIGMA
    cfg = EstimatorConfig(epsilon_ladder=ladder, samples_per_level=oracle.BLOCK + 5000, seed=7)
    maps = oracle._gmaps(mats, 0)
    cone = oracle._cone(maps, cfg.delta, cfg.max_full_turns)
    for lad in (ladder, changed):
        cubes = oracle._box(maps, cone, cfg.delta, lad)
        assert cubes[0] is None and all(cube is not None and cube[0] for cube in cubes[1:])
    before, after = _other_levels(
        lambda lad: estimate_sigma_mc(mats, 0, dataclasses.replace(cfg, epsilon_ladder=lad)),
        ladder, k, changed[k])
    assert before == after and before != [1.0] * 3


class _SpyRng:
    """A level's generator that records the level of each random and
    binomial call in calls and otherwise draws as that generator."""
    calls = []

    def __init__(self, li, rng):
        self.li, self.rng = li, rng

    def random(self, *args, **kwargs):
        self.calls.append(("random", self.li))
        return self.rng.random(*args, **kwargs)

    def binomial(self, *args, **kwargs):
        self.calls.append(("binomial", self.li))
        return self.rng.binomial(*args, **kwargs)


def _spy_streams(monkeypatch, spy):
    """Wrap every level's generator of oracle._streams in spy(li, rng)."""
    real = oracle._streams
    monkeypatch.setattr(oracle, "_streams", lambda seed, count: (
        spy(li, rng) for li, rng in enumerate(real(seed, count))))


def test_fplus_levels_with_no_tested_column_draw_nothing(monkeypatch):
    # a level whose certificate tests no column counts every row inside
    # without a draw, and every other level draws its own stream as before
    ladder = np.geomspace(0.5, 1e-3, 8)
    alphas = [np.array(alpha) for alpha in ((1.0, 0.5, 0.0), (-0.05, 1.0, 0.0))]
    expected = [_reference_fplus_chain(alpha, ladder, 20_000, 3) for alpha in alphas]
    _spy_streams(monkeypatch, _SpyRng)
    monkeypatch.setattr(_SpyRng, "calls", [])
    untested_counts = []
    for alpha, fracs in zip(alphas, expected):
        _SpyRng.calls.clear()
        est = estimate_fplus_mc(alpha, ladder, 20_000, seed=3)
        assert [lev.sigma_frac for lev in est.levels] == fracs
        scaled = np.ldexp(alpha, -np.frexp(np.abs(alpha).max())[1]).tolist()
        untested = {li for li, eps in enumerate(ladder)
                    if oracle._certificate(scaled, eps) == ([], [])}
        assert {li for _, li in _SpyRng.calls} == set(range(len(ladder))) - untested
        untested_counts.append(len(untested))
    assert untested_counts[0] == len(ladder) and 0 < untested_counts[1] < len(ladder)


def test_a_row_at_the_last_uniform_in_its_failing_column_stays_finite(monkeypatch):
    # U = 1 - 2^-53 in the column a row fails, where t is within 2^-52 of 1:
    # t + (1 - t) U would round to 1 there and give eta = -inf
    eps = math.exp(-38.0)
    cols, ts = oracle._certificate([-0.5, 0.5, 0.5], eps)
    assert cols == [0] and ts[0] + (1.0 - ts[0]) * (1.0 - 2.0**-53) == 1.0
    etas = []

    class LastUniform(_SpyRng):
        def random(self, out):
            out.fill(1.0 - 2.0**-53)
            return out

        def binomial(self, n, p):
            return n                          # every row fails the column

    def log_cube(block, eps, transform=oracle._sample_log_cube):
        etas.append(transform(block, eps))
        return etas[-1]

    _spy_streams(monkeypatch, LastUniform)
    monkeypatch.setattr(oracle, "_sample_log_cube", log_cube)
    monkeypatch.setattr(oracle, "_side", lambda levels, complement: (0.0, None))
    estimate_fplus_mc((-1.0, 1.0, 1.0), (eps,), 10, seed=0)
    assert len(etas) == 1 and np.isfinite(etas[0]).all()
    assert etas[0][0, 0] == pytest.approx(math.log(eps) - 53 * math.log(2.0) + math.log1p(-ts[0]))


@st.composite
def _fplus_alphas(draw):
    """alpha with N = 2..5 components, k = 0..N of them negative and a sum
    S > 0, = 0 or < 0.  The components are integers times powers of two, so
    a balanced draw (the positives' sum cut into the k negatives) sums to
    exactly 0; some components may sit up to 2^-900 below the others, tiny
    after the oracle's power-of-two scaling but still normal."""
    n = draw(st.integers(2, 5))
    k = draw(st.integers(0, n))
    pos = draw(st.lists(st.integers(0, 2**20), min_size=n - k, max_size=n - k))
    if 0 < k < n and sum(pos) >= k and draw(st.booleans()):
        # k = 1 draws no cut, and sum(pos) = 1 allows no cut either
        cuts = sorted(draw(st.lists(st.integers(1, max(1, sum(pos) - 1)), min_size=k - 1,
                                    max_size=k - 1, unique=True)))
        neg = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, sum(pos)])]
    else:
        neg = draw(st.lists(st.integers(1, 2**20), min_size=k, max_size=k))
    ints = pos + [-m for m in neg]
    assume(any(ints))
    shifts = draw(st.lists(st.one_of(st.just(0), st.integers(40, 900)), min_size=n, max_size=n))
    scale = draw(st.integers(-30, 30))
    return np.array([math.ldexp(m, scale - t) for m, t in zip(ints, shifts)])


_LADDERS = st.lists(
    st.one_of(st.floats(1.0 - 1e-3, 1.0, exclude_max=True), st.floats(1e-300, 1e-3)),
    min_size=1, max_size=4, unique=True,
).map(lambda levels: sorted(levels, reverse=True))


@settings(deadline=None, max_examples=60)
@given(alpha=_fplus_alphas(), ladder=_LADDERS, n=st.sampled_from(BLOCK_EDGES),
       seed=st.integers(0, 2**32 - 1))
def test_fplus_levels_match_out_of_place_reference_property(alpha, ladder, n, seed):
    # certified and log-tested rows together count as the log test on every
    # row; every level is compared, whether or not the levels fit a slope
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_side", lambda levels, complement: (0.0, None))
        est = estimate_fplus_mc(alpha, ladder, n, seed)
    assert [lev.sigma_frac for lev in est.levels] == _reference_fplus_chain(alpha, ladder, n, seed)


CRITERION_5_LADDER = np.exp(np.concatenate([np.linspace(-2.0, -4.0, 100, endpoint=False),
                                            np.linspace(-4.0, -10.0, 31)]))


# 1 - f(eps) for E_i iid Exp(1): P(a . (ln eps - E) >= 0) in closed form
CRITERION_5_LAWS = {
    (-1.0, 1.0, 1.0): lambda eps: eps / 4.0,
    (-0.25, 1.0, 0.0): lambda eps: 0.2 * eps**3,
    (0.7, -0.3, 0.0): lambda eps: 0.3 * eps ** (4.0 / 3.0),
}


@pytest.mark.parametrize("alpha", sorted(CRITERION_5_LAWS))
def test_criterion_5_levels_follow_the_exact_law(alpha):
    # every level of the criterion-5 estimate at its acceptance seed: the
    # count outside within 5 binomial standard deviations of the exact one
    # where at least 10 are expected, and the levels with fewer, pooled,
    # within 5 Poisson standard deviations
    q = CRITERION_5_LAWS[alpha]
    est = estimate_fplus_mc(alpha, CRITERION_5_LADDER, 10**6, seed=20260805)
    pooled_seen = pooled_expected = 0.0
    for lev in est.levels:
        seen = lev.samples - round(lev.sigma_frac * lev.samples)
        p = q(lev.epsilon)
        expected = lev.samples * p
        if expected >= 10.0:
            assert abs(seen - expected) <= 5.0 * math.sqrt(expected * (1.0 - p)), lev
        else:
            pooled_seen += seen
            pooled_expected += expected
    assert abs(pooled_seen - pooled_expected) <= 5.0 * math.sqrt(pooled_expected)


@pytest.mark.parametrize("alpha", [
    (-1.0, 1.0, 1.0), (-0.25, 1.0, 0.0), (0.7, -0.3, 0.0),    # criterion 5
    (-0.125, -0.125, 1.0), (-0.1, -0.1, -0.1, 1.0),           # k = 2 and 3 share the bound
])
def test_rows_at_the_certificate_edge_pass_the_log_test(alpha):
    # the largest certified uniform in every tested column, and 0 or
    # 1 - 2^-53 in the others, at every level of the criterion-5 ladder.
    # The log test must count each such row inside, over the rows together
    # and one row at a time, and the row must lie half a margin inside the
    # slice, far beyond the test's rounding: without the margin the rows of
    # the shallow levels sit within about 1e-15 of 0
    a = np.array(alpha)
    scaled = np.ldexp(a, -np.frexp(np.abs(a).max())[1])
    for eps in CRITERION_5_LADDER:
        ln_eps = math.log(eps)
        margin = 2.0**-30 * np.abs(scaled).sum() * (37.0 + abs(ln_eps))
        cols, ts = oracle._certificate(scaled.tolist(), eps)
        assert cols == np.flatnonzero(a < 0.0).tolist()
        others = [i for i in range(a.size) if i not in cols]
        rows = np.empty((2 ** len(others), a.size))
        rows[:, cols] = np.nextafter(ts, 0.0)
        rows[:, others] = list(itertools.product([0.0, 1.0 - 2.0**-53], repeat=len(others)))
        log_rows = np.log1p(-rows) + ln_eps
        assert (log_rows @ a < 0.0).all(), eps
        assert all(row @ a < 0.0 for row in log_rows), eps
        assert (log_rows @ scaled < -margin / 2).all(), eps


@pytest.mark.parametrize("alpha, ladder", [
    ((1.0, -1.0, 0.5, -0.5), CRITERION_5_LADDER),          # S = 0
    ((-1.0, 0.5, 0.25), CRITERION_5_LADDER),               # S < 0
    ((-1.0, 1.0, 1.0), (1.0 - 1e-12, 1.0 - 1e-8)),          # eps near 1
])
def test_no_certificate_where_the_bound_is_not_positive(alpha, ladder, monkeypatch):
    # and such a level draws and log-tests every row, as one draw
    for eps in ladder:
        assert oracle._certificate(list(alpha), eps) is None
    monkeypatch.setattr(oracle, "_side", lambda levels, complement: (0.0, None))
    est = estimate_fplus_mc(alpha, ladder, 2000, seed=9)
    assert [lev.sigma_frac for lev in est.levels] == _reference_fplus_fracs(
        np.array(alpha), ladder, 2000, 9)


def test_a_slice_with_no_negative_component_is_certified_whole():
    assert oracle._certificate([0.5, 0.25, 0.0], 0.9) == ([], [])


def test_a_tiny_negative_component_is_not_tested():
    cols, ts = oracle._certificate([0.5, -2.0**-40, -0.25], 1e-3)
    assert cols == [2] and 0.5 < ts[0] < 1.0


def test_estimator_memory_does_not_grow_with_samples():
    # one (samples, 3) batch would be 24 MB for F+ and 4.8 MB per copy for
    # sigma; at 40 turns sigma has no cube and draws every row, at 200 it
    # draws about 166,000 rows outside the cubes of its two levels
    cfg = EstimatorConfig(epsilon_ladder=(1e-12, 1e-16), samples_per_level=200_000,
                          max_full_turns=40, seed=2)
    cubed = dataclasses.replace(cfg, epsilon_ladder=(1e-15, 1e-16), max_full_turns=200)
    tracemalloc.start()
    try:
        estimate_fplus_mc((-1.0, 1.0, 1.0), (1e-1, 1e-2, 1e-3), 10**6, seed=2)
        peaks = [tracemalloc.get_traced_memory()[1]]
        for config in (cfg, cubed):
            tracemalloc.reset_peak()
            estimate_sigma_mc(rsp_matrices(RspParams(-0.5, 0.2)), 0, config)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(peaks) < 4 * 2**20
