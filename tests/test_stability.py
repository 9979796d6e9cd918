import importlib.util
import itertools
import math
import pickle
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hetstab.stability
from conftest import (NONCONVERGENT, attracting_cycle, classify_outcome, dominant_pair_matrix,
                      random_cycle, rsp_grid, sigma_over_turns)
from hetstab import (
    Classification,
    ConnectionSpec,
    CycleSpec,
    DefectiveMatrix,
    IndeterminateError,
    IndexProvenance,
    NodeSpec,
    ProductOverflow,
    RspParams,
    SpectralError,
    as_basic_matrices,
    classification_from_sigmas,
    classify,
    collect_alpha_vectors,
    cycle_from_dict,
    eigen_decompose,
    f_index,
    full_return_matrix,
    negative_entry_indices,
    partial_turn_matrix,
    rsp_matrices,
    sigma,
    validate_cycle,
    vmax_row,
    ZeroVectorError,
)
from hetstab.spectral import DEFAULT_TOL, _eigen_decompose_many, _no_dominant

INF = math.inf


def two_node_nonnegative(product):
    """All-non-negative two-node cycle whose full return has lambda_max=product."""
    n0 = NodeSpec(contracting=product, expanding=1.0, transverse=(-0.5,))
    n1 = NodeSpec(contracting=1.0, expanding=1.0, transverse=(-0.5,))
    conn = ConnectionSpec(permutation=(0, 1))
    return validate_cycle(CycleSpec(nodes=(n0, n1), connections=(conn, conn)))


def test_nonnegative_dichotomy_expanding():
    report = classify(two_node_nonnegative(2.0))
    assert report.sigma == (INF, INF)
    assert report.classification is Classification.ASYMPTOTICALLY_STABLE
    assert sigma(two_node_nonnegative(2.0), 1) == INF


def test_nonnegative_dichotomy_contracting():
    report = classify(two_node_nonnegative(0.8))
    assert report.sigma == (-INF, -INF)
    assert report.classification is Classification.NOT_ATTRACTOR


# One-node non-negative cycles whose full return is defective (a Jordan
# block at 0.5 or 0.3) but has one admissible dominant eigenvalue: the
# dichotomy reads the eigenvalues alone, so each keeps its +-inf.
DEFECTIVE_NONNEGATIVE = [
    (np.array([[2.0, 0.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]]), INF),
    (np.array([[0.9, 0.0, 0.0], [0.0, 0.3, 1.0], [0.0, 0.0, 0.3]]), -INF),
]


@pytest.mark.parametrize("matrix,value", DEFECTIVE_NONNEGATIVE)
def test_nonnegative_dichotomy_keeps_a_defective_full_return(matrix, value):
    with pytest.raises(DefectiveMatrix):
        eigen_decompose(matrix)
    report = classify([matrix])
    assert report.sigma == (value,)
    assert report.classification is (Classification.ASYMPTOTICALLY_STABLE if value > 0
                                     else Classification.NOT_ATTRACTOR)
    assert sigma([matrix], 0) == value


@pytest.mark.parametrize("node", [
    NodeSpec(contracting=1e200, expanding=1.0, transverse=(-0.5,)),
    NodeSpec(contracting=1.0, expanding=1e-200, transverse=(-1e-10,)),
    NodeSpec(contracting=1e200, expanding=1.0, transverse=(0.5,)),
])
def test_overflowing_cyclic_products_are_rejected(node):
    # every ratio is finite, so validation passes; the products are not
    conn = ConnectionSpec(permutation=(0, 1))
    cycle = validate_cycle(CycleSpec(nodes=(node,) * 3, connections=(conn,) * 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ProductOverflow):
            classify(cycle)


def test_overflowing_raw_matrices_are_rejected():
    mixed = np.array([[1e200, 0.0], [-1.0, 1.0]])
    for mats in ([mixed, mixed], [np.abs(mixed), np.abs(mixed)]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ProductOverflow):
                classify(mats)
            with pytest.raises(ProductOverflow):
                full_return_matrix(mats, 1)


def test_nonnegative_dichotomy_uniform_over_j():
    rng = np.random.default_rng(3)
    for _ in range(20):
        cycle = random_cycle(rng, sign="negative")
        try:
            report = classify(cycle)
        except IndeterminateError:
            continue
        assert len(set(report.sigma)) == 1
        assert report.sigma[0] in (INF, -INF)


def test_collect_alpha_vectors_rsp():
    mats = rsp_matrices(RspParams(-0.5, 0.2))
    m0 = mats[0]
    full0 = full_return_matrix(mats, 0)
    vectors = collect_alpha_vectors(mats, 0)
    assert len(vectors) == 1 + 2 * 3          # v_max plus rows of M_(0,0) and M_(1,0)
    assert np.allclose(vectors[0], vmax_row(full0))
    for s in range(3):
        assert np.array_equal(vectors[1 + s], m0[s])
        assert np.array_equal(vectors[4 + s], full0[s])


def test_collect_alpha_vectors_single_node():
    # one-node cycle injected as a matrix with negative entries and a valid
    # dominant pair: vectors are v_max plus the rows of the matrix itself
    rng = np.random.default_rng(8)
    M, _, _ = dominant_pair_matrix(rng, n=3)
    assert M.min() < 0
    vectors = collect_alpha_vectors([M], 0)
    assert len(vectors) == 4
    for s in range(3):
        assert np.array_equal(vectors[1 + s], M[s])


def test_collect_alpha_vectors_requires_negative_entries():
    with pytest.raises(ValueError):
        collect_alpha_vectors(two_node_nonnegative(2.0), 0)


def test_collect_alpha_vectors_raises_where_a_checkpoint_fails():
    # M_0 is the one negative-entry matrix, so node 1 is the checkpoint: its
    # lambda_max is 1.7186, but w_max has mixed signs (iii), so every
    # sigma_j is -inf and no minimum of indices sets it; the vectors of
    # sigma_0 alone have the minimum -0.136
    mats = [np.array([[2.1988, 0], [-1.136, 1]]), np.array([[0.4981, 1], [0.8805, 0]]),
            np.array([[1.496, 1], [1.2365, 0]])]
    summary = eigen_decompose(full_return_matrix(mats, 1))
    assert summary.lambda_max.real == pytest.approx(1.7186, abs=1e-4)
    assert summary.condition_ii and not summary.condition_iii
    assert classify(mats).sigma == (-INF,) * 3
    for j in range(3):
        with pytest.raises(ValueError, match="^dominant-pair conditions fail; sigma_j is -inf"):
            collect_alpha_vectors(mats, j)


def test_collect_alpha_vectors_raises_on_a_zero_row_as_sigma_does():
    # the matrices of test_underflowed_zero_row_raises_as_the_exhaustive_loop_does:
    # the first row of M_(2,1) underflows to zero
    mats = [np.array([[1e200, 2e200], [1e200, 1e200]]),
            np.array([[1e-200, 2e-200], [3e-200, 1e-200]]),
            np.array([[1e-200, 1e-200], [1.0, -0.1]])]
    with pytest.raises(ZeroVectorError):
        sigma(mats, 1)
    with pytest.raises(ZeroVectorError):
        collect_alpha_vectors(mats, 1)
    assert min(f_index(v) for v in collect_alpha_vectors(mats, 0)) == sigma(mats, 0) == INF


def test_sigma_rsp_closed_form_value():
    mats = rsp_matrices(RspParams(-0.5, 0.2))
    assert sigma(mats, 0) == pytest.approx(0.8 * 0.8 / (2 * 1.2), abs=1e-12)
    assert sigma(mats, 0) == pytest.approx(min(3.0, 0.64 / 2.4), abs=1e-12)


def test_classify_rsp_regions():
    eas = classify(rsp_matrices(RspParams(-0.5, 0.2)))
    assert eas.classification is Classification.ESSENTIALLY_ASYMPTOTICALLY_STABLE
    assert all(s > 0 for s in eas.sigma)
    bad = classify(rsp_matrices(RspParams(0.1, 0.05)))
    assert bad.classification is Classification.NOT_ATTRACTOR
    assert bad.sigma == (-INF, -INF)


def test_indeterminate_on_degenerate_boundary():
    # eps_x + eps_y = 0 puts every eigenvalue modulus at 1
    with pytest.raises(IndeterminateError):
        classify(rsp_matrices(RspParams(0.4, -0.4)))


def _errors():
    """An error of each exception class that hetstab exports, by name, and
    IndeterminateError with each kind of cause."""
    tie = _no_dominant(np.array([2.0, -2.0, 0.5]), np.array([True, True, False]), DEFAULT_TOL)
    unit = _no_dominant(np.array([1.0, 1j, -1j]), np.zeros(3, bool), DEFAULT_TOL)
    classes = [getattr(hetstab, n) for n in hetstab.__all__]
    out = {c.__name__: c("text") for c in classes
           if isinstance(c, type) and issubclass(c, Exception) and c is not IndeterminateError}
    out.update({"NoAdmissibleDominant-tie": tie, "NoAdmissibleDominant-unit": unit,
                "IndeterminateError": IndeterminateError(3, tie),
                "IndeterminateError-unit": IndeterminateError(0, unit),
                "IndeterminateError-oracle": IndeterminateError(node=-1, cause=RuntimeError("x"))})
    return out


@pytest.mark.parametrize("name", sorted(_errors()))
def test_every_error_survives_a_pickle_round_trip(name):
    error = _errors()[name]
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error) and str(back) == str(error)
    for attr in ("node", "cause"):
        assert hasattr(back, attr) == hasattr(error, attr)
    if isinstance(error, IndeterminateError):
        assert back.node == error.node and back.__cause__ is back.cause
        assert type(back.cause) is type(error.cause) and str(back.cause) == str(error.cause)


def test_classification_rules():
    C = Classification
    assert classification_from_sigmas([INF, INF]) is C.ASYMPTOTICALLY_STABLE
    assert classification_from_sigmas([0.3, INF]) is C.ESSENTIALLY_ASYMPTOTICALLY_STABLE
    assert classification_from_sigmas([0.3, -0.2]) is C.FRAGMENTARILY_ASYMPTOTICALLY_STABLE_ONLY
    assert classification_from_sigmas([0.3, -INF]) is C.NOT_ATTRACTOR
    assert classification_from_sigmas([0.0, 0.4]) is C.MARGINAL
    assert classification_from_sigmas([-INF, 0.0]) is C.NOT_ATTRACTOR   # -inf wins
    assert classification_from_sigmas([INF, -0.1]) is C.FRAGMENTARILY_ASYMPTOTICALLY_STABLE_ONLY


def classification_by_loops(sigmas) -> Classification:
    """classification_from_sigmas as generator loops in Python, its
    reference."""
    sigmas = list(sigmas)
    if any(s == -math.inf for s in sigmas):
        return Classification.NOT_ATTRACTOR
    if any(s == 0.0 for s in sigmas):
        return Classification.MARGINAL
    if all(s == math.inf for s in sigmas):
        return Classification.ASYMPTOTICALLY_STABLE
    if all(s > 0.0 for s in sigmas):
        return Classification.ESSENTIALLY_ASYMPTOTICALLY_STABLE
    return Classification.FRAGMENTARILY_ASYMPTOTICALLY_STABLE_ONLY


def test_classification_equals_the_loops_on_every_short_tuple():
    values = [INF, -INF, 0.0, -0.0, 1.0, -1.0, math.nan, 5e-324, -5e-324]
    tuples = [t for n in (1, 2, 3) for t in itertools.product(values, repeat=n)]
    assert len(tuples) == 819
    for t in tuples:
        # the array rule gives every row a verdict, the public view rejects NaN
        assert hetstab.stability._verdicts(np.array([t]))[0] is classification_by_loops(t), t
        if any(map(math.isnan, t)):
            with pytest.raises(ValueError, match="free of NaN"):
                classification_from_sigmas(t)
        else:
            assert classification_from_sigmas(t) is classification_by_loops(t), t
    for n in (1, 2, 3):
        # and each row of a stack its own: every tuple of length n at once
        stack = [t for t in tuples if len(t) == n]
        assert len(stack) == 9 ** n
        verdicts = hetstab.stability._verdicts(np.array(stack))
        assert verdicts == [classification_by_loops(t) for t in stack]


def test_report_consistency_invariant():
    report = classify(rsp_matrices(RspParams(-0.2, -0.2)))
    assert report.classification is classification_from_sigmas(report.sigma)
    assert len(report.provenance) == len(report.sigma) == 2
    assert all(p.alpha is not None for p in report.provenance)
    for s, p in zip(report.sigma, report.provenance):
        assert f_index(p.alpha) == s


def test_node_rescaling_leaves_sigma_invariant():
    rng = np.random.default_rng(29)
    count = 0
    for _ in range(40):
        cycle = random_cycle(rng, max_m=3)
        try:
            base = [sigma(cycle, j) for j in range(cycle.m)]
        except IndeterminateError:
            continue
        kappa = float(rng.uniform(0.3, 3.0))
        nodes = list(cycle.nodes)
        n0 = nodes[0]
        nodes[0] = NodeSpec(contracting=kappa * n0.contracting,
                            expanding=kappa * n0.expanding,
                            transverse=tuple(kappa * t for t in n0.transverse))
        scaled = validate_cycle(CycleSpec(nodes=tuple(nodes), connections=cycle.connections))
        for j in range(cycle.m):
            got = sigma(scaled, j)
            if math.isinf(base[j]):
                assert got == base[j]
            else:
                assert got == pytest.approx(base[j], rel=1e-9, abs=1e-9)
        count += 1
    assert count >= 10


def _clear_of_the_boundaries(summary, tol: float, margin: float) -> bool:
    """Whether a decomposition's readings lie farther than margin, relative,
    from the tolerance boundaries of conditions (i)-(iii): |lambda_max| from
    1 + tol, a complex lambda_max's imaginary part from tol |lambda_max|,
    and each component of w_max (largest magnitude 1) from 0."""
    size = abs(summary.lambda_max)
    return (abs(size - (1.0 + tol)) > margin * (1.0 + tol)
            and (summary.lambda_max.imag == 0.0
                 or abs(abs(summary.lambda_max.imag) - tol * size) > margin * size)
            and np.abs(summary.w_max).min() > margin)


def test_checkpoint_reduction_matches_checking_everywhere():
    # in exact arithmetic the full returns are similar and the sign of w_max
    # propagates through the non-negative factors, so the dominant-pair
    # conditions hold at the post-negative checkpoints exactly when they
    # hold at every node.  Rounding can split a reading that lies on a
    # tolerance boundary, which
    # test_a_dominant_eigenvalue_on_the_tolerance_is_read_once_per_cycle
    # pins, so only draws whose every reading is clear of the boundaries
    # are compared
    rng = np.random.default_rng(53)
    compared = 0
    for _ in range(60):
        cycle = random_cycle(rng, max_m=4, sign="mixed")
        negative = negative_entry_indices(cycle)
        if not negative:
            continue
        checkpoints = sorted({(q + 1) % cycle.m for q in negative})
        try:
            summaries = [eigen_decompose(full_return_matrix(cycle, j))
                         for j in range(cycle.m)]
        except Exception:
            continue
        if not all(_clear_of_the_boundaries(s, DEFAULT_TOL, 1e-9) for s in summaries):
            continue
        per_node = [s.condition_i and s.condition_ii and s.condition_iii for s in summaries]
        at_checkpoints = all(per_node[q] for q in checkpoints)
        everywhere = all(per_node)
        assert at_checkpoints == everywhere
        compared += 1
    assert compared >= 20


def test_vmax_redundant_when_basin_is_full_orthant():
    # when v_max is componentwise non-negative its index is +inf and the
    # partial-turn rows alone decide sigma
    mats = rsp_matrices(RspParams(-0.5, 0.2))
    v = vmax_row(full_return_matrix(mats, 0))
    assert np.all(v >= 0)
    assert f_index(v) == INF
    report = classify(mats)
    assert all(p.source.startswith("M_(") for p in report.provenance)


def test_marginal_classification_end_to_end():
    # one-node cycle whose binding row sums to exactly zero: the dominant
    # pair is valid (lambda_max = 1.5, positive eigenvector) but one slice
    # index is exactly 0, so no attractiveness claim is made
    M = np.array([[-1.0, -1.0, 2.0],
                  [1.0, -0.5, -0.5],
                  [0.0, 0.0, 1.5]])
    s = eigen_decompose(M)
    assert s.condition_i and s.condition_ii and s.condition_iii
    report = classify([M])
    assert report.sigma == (0.0,)
    assert report.classification is Classification.MARGINAL


def reference_report(cycle, tol=1e-9):
    """(sigma, provenance, verdict) for a cycle with a negative entry, from the
    public products, eigen_decompose, vmax_row and f_index alone, one j at a
    time: v_max of a node that is not a checkpoint is that of its checkpoint
    c = q + 1, q the last negative-entry node before it, times M_(q,j)."""
    m = cycle.m
    negative = [q for q in range(m) if partial_turn_matrix(cycle, q, q).min() < 0.0]
    assert negative

    for q in sorted({(p + 1) % m for p in negative}):
        try:
            s = eigen_decompose(full_return_matrix(cycle, q), tol)
        except SpectralError as exc:
            raise IndeterminateError(q, exc) from exc
        if not (s.condition_i and s.condition_ii and s.condition_iii):
            fail = IndexProvenance(source="dominant-pair-conditions-fail", alpha=None)
            return (-INF,) * m, (fail,) * m, Classification.NOT_ATTRACTOR
    sigmas, provenance = [], []
    for j in range(m):
        q = max([p for p in negative if p < j] or negative)
        c = (q + 1) % m
        v_max = vmax_row(full_return_matrix(cycle, c), tol)
        if c == j:
            candidates = [(v_max, f"v_max[{j}]")]
        else:
            turn = partial_turn_matrix(cycle, q, j)
            candidates = [(sum(a * row for a, row in zip(v_max, turn)), f"v_max[{c}] M_({q},{j})")]
        for q in negative:
            rows = partial_turn_matrix(cycle, q, j)
            candidates += [(row, f"M_({q},{j}) row {r}") for r, row in enumerate(rows)]
        alpha, tag = min(candidates, key=lambda c: f_index(c[0]))  # first of equal minima
        sigmas.append(f_index(alpha))
        provenance.append(IndexProvenance(source=tag, alpha=tuple(float(a) for a in alpha)))
    return tuple(sigmas), tuple(provenance), classification_from_sigmas(sigmas)


def test_classify_matches_per_node_reference_exactly():
    rng = np.random.default_rng(71)
    cycles = [random_cycle(rng, max_m=12, sign="mixed") for _ in range(200)]
    cycles += [random_cycle(rng, max_m=32, sign="mixed") for _ in range(8)]
    cycles += [attracting_cycle(rng, 32) for _ in range(8)]
    verdicts = set()
    full_path = long_full_path = 0
    for cycle in cycles:
        try:
            expected = reference_report(cycle)
        except IndeterminateError as exc:
            with pytest.raises(IndeterminateError) as got:
                classify(cycle)
            assert got.value.node == exc.node
            continue
        report = classify(cycle)
        assert (report.sigma, report.provenance, report.classification) == expected
        verdicts.add(report.classification)
        full_path += report.provenance[0].alpha is not None
        long_full_path += cycle.m == 32 and report.provenance[0].alpha is not None
    assert len(verdicts) >= 3
    assert full_path >= 20
    assert long_full_path >= 5


def _count_decompositions(monkeypatch) -> list[int]:
    """The sizes of the stacks handed to the stacked decomposition, which
    owns every eig of the analysis, from now on."""
    calls = []

    def counting(matrices, tol):
        calls.append(len(matrices))
        return _eigen_decompose_many(matrices, tol)

    monkeypatch.setattr(hetstab.stability, "_eigen_decompose_many", counting)
    return calls


def test_classify_decomposes_each_full_return_at_most_once(monkeypatch):
    # one stacked call per cycle, in classify and in the sweep reader, of
    # the full returns at the checkpoints and at no other node; the
    # dichotomy reads M^(0) alone
    calls = _count_decompositions(monkeypatch)
    rng = np.random.default_rng(72)
    cycles = [random_cycle(rng, max_m=12, sign="mixed") for _ in range(40)]
    cycles += [random_cycle(np.random.default_rng(seed), max_m=32, sign="mixed") for seed in range(8)]
    cycles += [attracting_cycle(rng, 32) for _ in range(4)]
    cycles += [two_node_nonnegative(2.0), two_node_nonnegative(0.8)]
    carried = 0
    for cycle in cycles:
        size = len({(q + 1) % cycle.m for q in negative_entry_indices(cycle)}) or 1
        carried += cycle.m - size
        calls.clear()
        classify_outcome(cycle)
        assert calls == [size]
        calls.clear()
        hetstab.stability._sigma_rows(np.array(as_basic_matrices(cycle))[None])
        assert calls == [size]
    assert max(c.m for c in cycles) > 12
    assert carried > 4 * 16
    # a sweep row of RSP cycles, one stacked call per pattern
    calls.clear()
    rows = _rsp_rows()[20]
    hetstab.stability._sigma_rows(rows)
    assert sum(calls) == sum(len({(q + 1) % 2 for q in negative_entry_indices(cycle)}) or 1
                             for cycle in rows)


def test_sigma_decomposes_in_one_call(monkeypatch):
    # the checkpoints share one stacked call, and node j adds none
    calls = _count_decompositions(monkeypatch)
    cycle = attracting_cycle(np.random.default_rng(1), 32)
    checkpoints = len({(q + 1) % cycle.m for q in negative_entry_indices(cycle)})
    for j in range(cycle.m):
        sigma(cycle, j)
    assert calls == [checkpoints] * cycle.m


@st.composite
def mixed_cycles(draw, max_m=6):
    """Valid cycles with at least one positive transverse eigenvalue."""
    nt = draw(st.integers(1, 3))
    ratio = st.floats(0.6, 1.8)
    transverse = st.floats(-1.2, 1.2)
    nodes, conns = [], []
    for _ in range(draw(st.integers(1, max_m))):
        t = tuple(draw(transverse) for _ in range(nt))
        if not nodes:
            t = (draw(st.floats(0.05, 1.2)),) + t[1:]
        nodes.append(NodeSpec(contracting=draw(ratio), expanding=draw(ratio), transverse=t))
        conns.append(ConnectionSpec(permutation=tuple(draw(st.permutations(range(nt + 1))))))
    return validate_cycle(CycleSpec(nodes=tuple(nodes), connections=tuple(conns)))


@settings(deadline=None)
@given(mixed_cycles(), st.integers(0, 5))
def test_cyclic_relabelling_rotates_sigma(cycle, shift):
    mats = as_basic_matrices(cycle)
    r = shift % len(mats)
    try:
        base = classify(mats).sigma
        rotated = classify(mats[r:] + mats[:r]).sigma
    except IndeterminateError:
        return
    for j, got in enumerate(rotated):
        want = base[(j + r) % len(base)]
        if math.isinf(want):
            assert got == want
        else:
            assert got == pytest.approx(want, rel=0, abs=1e-12)


@settings(deadline=None)
@given(mixed_cycles())
def test_sigma_is_the_classify_entry(cycle):
    try:
        report = classify(cycle)
    except IndeterminateError:
        return
    assert [sigma(cycle, j) for j in range(cycle.m)] == list(report.sigma)


@settings(deadline=None)
@given(mixed_cycles())
def test_collect_alpha_vectors_is_a_view_of_sigma(cycle):
    # it raises exactly when sigma raises or no minimum sets sigma_j;
    # otherwise its 1 + L*N vectors have the minimum sigma_j and hold the
    # winner that classify reports
    size = len(negative_entry_indices(cycle)) * cycle.dimension
    assert size > 0
    try:
        provenance = classify(cycle).provenance
    except (IndeterminateError, ValueError):    # an error at some node; sigma says which
        provenance = None
    for j in range(cycle.m):
        try:
            value = sigma(cycle, j)
        except (IndeterminateError, ValueError) as exc:
            with pytest.raises(type(exc)) as raised:
                collect_alpha_vectors(cycle, j)
            assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
            continue
        if provenance is not None and provenance[j].alpha is None:
            with pytest.raises(ValueError, match="^dominant-pair conditions fail"):
                collect_alpha_vectors(cycle, j)
            continue
        vectors = collect_alpha_vectors(cycle, j)
        assert len(vectors) == 1 + size
        assert min(f_index(v) for v in vectors) == value
        if provenance is not None:
            assert provenance[j].alpha in [tuple(v.tolist()) for v in vectors]


def test_overflowing_pass_that_is_never_read_does_not_raise():
    # only M_1 has a negative entry, so node 0 is the one checkpoint: its
    # pass is finite and fails the sign condition, while the pass from node 1
    # overflows (M_0 M_1 holds 1e300 * 1e10); classify builds both passes
    mats = [np.diag([1e300, 1e-300]), np.array([[0.5, 1e10], [-0.5, 0.5]])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ProductOverflow, match="^cyclic product from node 1 "):
            full_return_matrix(mats, 1)
        report = classify(mats)
        assert sigma(mats, 1) == -INF
    assert report.sigma == (-INF, -INF)
    assert report.provenance[0].source == "dominant-pair-conditions-fail"
    # both nodes are checkpoints now: node 0 fails the sign condition before
    # the overflowing pass from node 1 is read
    both = [np.array([[1e300, 0.0], [-1.0, 1e-300]]), mats[1]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ProductOverflow, match="^cyclic product from node 1 "):
            full_return_matrix(both, 1)
        assert classify(both).sigma == (-INF, -INF)


def test_underflowed_zero_row_raises_as_the_exhaustive_loop_does():
    # M_2 M_1 underflows to a zero first row, while the checkpoint's full
    # return M_2 (M_1 M_0) keeps that row tiny and positive, so the dominant
    # pair holds and the zero row is one of sigma_1's direction vectors
    mats = [np.array([[1e200, 2e200], [1e200, 1e200]]),
            np.array([[1e-200, 2e-200], [3e-200, 1e-200]]),
            np.array([[1e-200, 1e-200], [1.0, -0.1]])]
    assert not partial_turn_matrix(mats, 2, 1)[0].any()
    with pytest.raises(ZeroVectorError):
        classify(mats)
    with pytest.raises(ZeroVectorError):
        sigma(mats, 1)
    assert sigma(mats, 0) == INF


# M_0 is the one negative-entry matrix, so node 1 is the one checkpoint: its
# return holds the dominant pair, and node 2's pass, not a checkpoint's,
# is the first fault of the node-by-node reading
NODE_FAULTS = {
    "overflow": ([[[2.0, 0.0], [-1.0, 2.0]], [[0.0, 2.0], [1e200, 1e200]],
                  [[0.0, 2.0], [1e300, 0.0]]],
                 ProductOverflow, "^cyclic product from node 2 ", 2e100),
}


@pytest.mark.parametrize("case", sorted(NODE_FAULTS))
def test_a_fault_at_a_node_that_is_not_a_checkpoint(case):
    mats, kind, message, sigma_1 = NODE_FAULTS[case]
    mats = [np.array(M) for M in mats]
    assert negative_entry_indices(mats) == [0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(kind, match=message) as raised:
            classify(mats)
        with pytest.raises(kind, match=message):
            collect_alpha_vectors(mats, 2)
        sigmas, [error] = hetstab.stability._sigma_rows(np.array(mats)[None])
        assert sigma(mats, 0) == 1.0 and sigma(mats, 1) == sigma_1
    assert np.isnan(sigmas).all()
    assert type(error) is type(raised.value) and str(error) == str(raised.value)


# cycles whose checkpoints hold, each with faults of both kinds at given
# nodes: (matrices, the kind at each node or None, the cycle's error)
TWO_FAULTS = {
    "zero-row-first": ([[[4.8e-201, 1.5e-200], [1.6e-200, 1.9e-200]],
                        [[1.3e-200, 6.6e-201], [1.7e-200, 1.9e-200]],
                        [[1.4e300, 2.4e299], [8.8e299, -1.4e299]],
                        [[1.9e300, 1.6e300], [2.3e299, 1.3e300]]],
                       [ZeroVectorError, ProductOverflow, ProductOverflow, None], "^zero direction"),
    "overflow-first": ([[[1e-201, 1.6e-200], [6.6e-201, 8e-201]],
                        [[1.1e100, 1.9e100], [9.5e99, -1.9e99]],
                        [[7.2e299, 9.8e299], [1.2e300, 1e300]],
                        [[1.1e-150, 5.2e-151], [8.2e-151, 1.6e-150]]],
                       [None, ProductOverflow, None, ZeroVectorError], "^cyclic product from node 1 "),
}


@pytest.mark.parametrize("case", sorted(TWO_FAULTS))
def test_a_cycle_has_the_error_of_its_first_bad_node(case):
    mats, kinds, message = TWO_FAULTS[case]
    mats = np.array(mats)
    for j, kind in enumerate(kinds):
        if kind is None:
            assert sigma(mats, j) > 0.0
        else:
            with pytest.raises(kind):
                sigma(mats, j)
    with pytest.raises(next(filter(None, kinds)), match=message):
        classify(mats)
    # next to a cycle without an error, its row alone is NaN with no winner
    negative = negative_entry_indices(mats)
    clean = mats / np.abs(mats).max(axis=(1, 2), keepdims=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        both = hetstab.stability._indices(np.array([mats, clean]), negative, list(range(4)), 1e-9)
        alone = hetstab.stability._indices(clean[None], negative, list(range(4)), 1e-9)
    assert np.isnan(both.sigma[0]).all() and (both.winner[0] == -1).all()
    assert both.sigma[1].tolist() == alone.sigma[0].tolist()
    assert both.winner[1].tolist() == alone.winner[0].tolist()
    assert both.errors[1] is None and str(both.errors[0]) == str(classify_outcome(mats))


def test_a_defective_return_at_a_node_that_is_not_a_checkpoint_is_not_read():
    # the full return at node 2 is defective, but node 1 is the one
    # checkpoint: node 2 reads v_max[1] M_(0,2) and is never decomposed
    mats = [np.array(M) for M in ([[1.0, 0.0], [2.0, -1.0]], [[0.0, 2e200], [2e300, 2e300]],
                                  [[2.0, 0.0], [0.0, 0.0]])]
    assert negative_entry_indices(mats) == [0]
    with pytest.raises(DefectiveMatrix):
        eigen_decompose(full_return_matrix(mats, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = classify(mats)
        sigmas, [error] = hetstab.stability._sigma_rows(np.array(mats)[None])
        vectors = collect_alpha_vectors(mats, 2)
    assert report.sigma == (1.0, INF, INF)
    assert report.classification is Classification.ESSENTIALLY_ASYMPTOTICALLY_STABLE
    assert [p.source for p in report.provenance] == ["v_max[1] M_(0,0)", "v_max[1]",
                                                     "v_max[1] M_(0,2)"]
    assert error is None and sigmas.tolist() == [list(report.sigma)]
    assert [sigma(mats, j) for j in range(3)] == list(report.sigma)
    assert tuple(vectors[0].tolist()) == report.provenance[2].alpha


_P0 = np.full((4, 4), 0.75)
_P0[0, 1] = -0.25

# node 1 is the one checkpoint, and every pass is finite, but v_max[1]
# M_(0,0) leaves the normal range: a component near 2.3e308, which no
# float holds, or every component subnormal, near 4.6e-309, at N = 4
CARRIED_OUT_OF_RANGE = {
    "beyond": ([np.array([[-7.01347334381896e+306, 1.1580302341526188e+308],
                          [1.5548478572491199e+308, 1.6358523798492928e+308]]),
                np.array([[2.94126099307387e-310, 1.7272801804911513e-308],
                          [1.9623900801326885e-308, 1.9144203592219267e-308]])],
               15.5115083123999),
    "subnormal": ([np.ldexp(_P0, -1024), np.ldexp(np.full((4, 4), 0.5) + 0.25 * np.eye(4), 1023)],
                  8.0),
}


@pytest.mark.parametrize("case", sorted(CARRIED_OUT_OF_RANGE))
def test_a_carried_v_max_out_of_the_normal_range_is_made_from_scaled_factors(case):
    # made from both factors scaled by powers of two, the carried vector
    # points as v_max of M^(0) does, and the cycle reads as it does from
    # M^(0) decomposed
    mats, sigma_0 = CARRIED_OUT_OF_RANGE[case]
    with np.errstate(over="ignore"):
        top = np.abs(vmax_row(full_return_matrix(mats, 1)) @ mats[0]).max()
    assert not sys.float_info.min <= top <= sys.float_info.max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = classify(mats)
        sigmas, [error] = hetstab.stability._sigma_rows(np.array(mats)[None])
        carried = collect_alpha_vectors(mats, 0)[0]
        own = vmax_row(full_return_matrix(mats, 0))
    assert report.sigma == (sigma_0, INF)
    assert report.classification is Classification.ESSENTIALLY_ASYMPTOTICALLY_STABLE
    assert [p.source for p in report.provenance] == ["M_(0,0) row 0", "v_max[1]"]
    assert error is None and sigmas.tolist() == [list(report.sigma)]
    assert [sigma(mats, j) for j in range(2)] == list(report.sigma)
    assert np.abs(carried).max() >= 0.5 and carried @ own > 0.0
    assert np.allclose(carried / np.linalg.norm(carried), own / np.linalg.norm(own), rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("v, exponent", [([1.0, 0.5], -1072), ([0.125, 0.0625], -1074)])
def test_a_carry_below_the_normal_range_is_made_from_scaled_factors(v, exponent):
    # v times 2**exponent [[3, -1], [2, 4]] is subnormal, or rounds to the
    # zero vector at 2**-1074; scaled to a largest magnitude in [0.5, 1),
    # both factors give 2**-2 v [[3, -1], [2, 4]] / max|v| exactly
    turn = np.ldexp(np.array([[[3.0, -1.0], [2.0, 4.0]]]), exponent)
    v = np.array([v])
    carried = hetstab.stability._carry(v, turn)
    assert carried.tolist() == [[0.25, 0.0625]]


@pytest.mark.parametrize("seed", [1, 2])
def test_a_carried_v_max_is_a_positive_multiple_of_the_nodes_own(seed):
    # at a node j that is not a checkpoint, v_max[c] M_(q,j) points as v_max
    # of M^(j) decomposed there does, with a positive ratio, so f_index reads
    # the same from both, up to rounding
    rng = np.random.default_rng(seed)
    cycles = [random_cycle(rng, max_m=8, sign="mixed") for _ in range(300)]
    cycles += [attracting_cycle(rng, 8) for _ in range(20)]
    # -P_0, P_1, -P_2, P_3 with each P_i positive: every vector the cycle
    # maps changes sign at nodes 0 and 2, so the ratio is positive only when
    # v_max is carried from the last checkpoint before j, not the first after
    cycles += [[sign * rng.uniform(0.5, 2.0, (3, 3)) for sign in (-1, 1, -1, 1)] for _ in range(10)]
    compared = 0
    for cycle in cycles:
        negative, m = negative_entry_indices(cycle), len(as_basic_matrices(cycle))
        outcome = classify_outcome(cycle)
        if not negative or isinstance(outcome, Exception) or outcome.provenance[0].alpha is None:
            continue
        for j in sorted(set(range(m)) - {(q + 1) % m for q in negative}):
            try:
                own = vmax_row(full_return_matrix(cycle, j))
            except SpectralError:
                continue
            carried = collect_alpha_vectors(cycle, j)[0]
            assert carried @ own > 0.0
            own, carried = own / np.linalg.norm(own), carried / np.linalg.norm(carried)
            assert np.allclose(carried, own, rtol=0.0, atol=1e-13)
            if np.abs(own).min() > 1e-9:        # the sign of a smaller component is rounding
                assert f_index(carried) == pytest.approx(f_index(own), rel=1e-12)
            compared += 1
    assert compared > 150


# the dominant eigenvalue of both full returns is 1 + 1e-9 = 1 + tol: a
# decomposition of M^(1) reads it as admissible, one of M^(0) as within tol
# of 1, so reading the conditions at every node made node 0 fail them
ON_THE_TOLERANCE = [
    np.array([[0.021980631516347805, 0.3505519872873578],
              [-0.05410704512998355, 0.1960176122499086]]),
    np.array([[1.5166458619435113, 1.8987899843123308],
              [1.5616419989646302, 2.8182951168140074]]),
]


def test_a_dominant_eigenvalue_on_the_tolerance_is_read_once_per_cycle():
    mats = ON_THE_TOLERANCE
    assert eigen_decompose(full_return_matrix(mats, 1)).condition_ii
    assert not eigen_decompose(full_return_matrix(mats, 0)).condition_ii
    report = classify(mats)
    assert report.sigma == (2.622774294530547, INF)
    assert report.classification is Classification.ESSENTIALLY_ASYMPTOTICALLY_STABLE
    assert [p.source for p in report.provenance] == ["M_(0,0) row 1", "v_max[1]"]
    assert [sigma(mats, j) for j in range(2)] == list(report.sigma)


def _on_the_tolerance(rng, tol: float, count: int, checkpoints: int):
    """Pairs [M_0, s M_1] of random 2 x 2 matrices, M_0 with a negative entry
    and M_1 non-negative (one checkpoint, node 1) or with one too (two
    checkpoints), with s at 9 consecutive floats around the scale that puts
    the dominant eigenvalue of M_0 M_1 at 1 + tol."""
    while count:
        m0, m1 = rng.uniform(-0.5, 2.0, (2, 2)), rng.uniform(0.5 - checkpoints / 2, 2.0, (2, 2))
        values = np.linalg.eigvals(m0 @ m1)
        top = values[np.abs(values).argmax()]
        if (m0.min() >= 0.0 or (m1.min() < 0.0) != (checkpoints == 2)
                or top.imag != 0.0 or top.real <= 0.0):
            continue
        count -= 1
        scale = (1.0 + tol) / top.real
        for k in range(-4, 5):
            yield [m0, (scale + k * math.ulp(scale)) * m1]


def _above_the_tolerance(mats, j: int, tol: float) -> bool:
    """Whether the decomposition of M^(j) reads its largest eigenvalue
    modulus above 1 + tol, by the admissibility test of spectral._dominant."""
    values = _eigen_decompose_many(full_return_matrix(mats, j)[None], tol).eigenvalues
    return bool(np.abs(values).max() - 1.0 > tol)


@pytest.mark.parametrize("checkpoints", [1, 2])
@pytest.mark.parametrize("tol", [1e-9, 0.0])
def test_dominant_eigenvalues_on_the_tolerance_get_one_reading(tol, checkpoints):
    # every such cycle gets a verdict or an IndeterminateError, never the
    # bare ValueError of conditions read apart at two nodes, and sigma(., j)
    # is classify's entry bit for bit.  With two checkpoints both returns
    # are decomposed, and where they read the dominant eigenvalue on
    # opposite sides of 1 + tol, one checkpoint fails the conditions, so the
    # cycle is not an attractor with every sigma_j -inf
    rng = np.random.default_rng(31)
    verdicts = splits = 0
    for mats in _on_the_tolerance(rng, tol, 60, checkpoints):
        outcome = classify_outcome(mats, tol)
        if isinstance(outcome, Exception):
            assert isinstance(outcome, IndeterminateError), outcome
            continue
        verdicts += 1
        assert [sigma(mats, j, tol).hex() for j in range(2)] == [s.hex() for s in outcome.sigma]
        split = _above_the_tolerance(mats, 0, tol) != _above_the_tolerance(mats, 1, tol)
        if checkpoints == 2 and split:
            assert outcome.classification is Classification.NOT_ATTRACTOR
            assert outcome.sigma == (-INF, -INF)
            splits += 1
    assert verdicts >= 300
    assert checkpoints == 1 or splits >= 20


# partial turns that underflow to a zero row while every full return holds
ZERO_ROW = np.array([[[1e200, 2e200], [1e200, 1e200]], [[1e-200, 2e-200], [3e-200, 1e-200]],
                     [[1e-200, 1e-200], [1.0, -0.1]]])


def _stacks(cycles) -> list[tuple[list[int], np.ndarray]]:
    """(members, stack) for the cycles of cycles whose basic matrices pass
    the input rules, one float (B, m, N, N) stack per shape: their indices
    in cycles and their matrices."""
    shapes: dict[tuple, list[int]] = {}
    for i, cycle in enumerate(cycles):
        try:
            shapes.setdefault(np.shape(as_basic_matrices(cycle)), []).append(i)
        except (TypeError, ValueError):
            pass
    return [(members, np.array([as_basic_matrices(cycles[i]) for i in members]))
            for members in shapes.values()]


def _sweep_agrees(stack, expected, tol: float = DEFAULT_TOL) -> list:
    """The errors of _sigma_rows(stack), after checking each cycle's row
    against its classify outcome in expected (conftest.classify_outcome):
    the same error, type and message, with a NaN row, or no error, the same
    verdict and the same sigma row, bit for bit and sign of zero included."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sigmas, errors = hetstab.stability._sigma_rows(stack, tol)
    verdicts = hetstab.stability._verdicts(sigmas)
    for row, verdict, error, outcome in zip(sigmas.tolist(), verdicts, errors, expected,
                                            strict=True):
        if isinstance(outcome, Exception):
            assert (type(error), str(error)) == (type(outcome), str(outcome))
            assert all(map(math.isnan, row))
        else:
            assert error is None and verdict is outcome.classification
            assert [s.hex() for s in row] == [s.hex() for s in outcome.sigma]
    return errors


@pytest.mark.parametrize("tol", [1e-9, 0.0])
def test_batch_equals_per_cycle_exactly(tol):
    rng = np.random.default_rng(74)
    underflow = [np.array([[1e200, 2e200], [1e200, 1e200]]),
                 np.array([[1e-200, 2e-200], [3e-200, 1e-200]]),
                 np.array([[1e-200, 1e-200], [1.0, -0.1]])]
    never_read = [np.diag([1e300, 1e-300]), np.array([[0.5, 1e10], [-0.5, 0.5]])]
    mixed = np.array([[1e200, 0.0], [-1.0, 1.0]])
    batch = [rsp_matrices(RspParams(ex, ey)) for ex, ey in
             [(-0.5, 0.2), (0.4, -0.4), (0.5, 0.2), (-0.2, -0.2), (0.1, 0.05)]]
    batch += [underflow, [2.0 * M for M in underflow],                       # zero row
              [underflow[0], 1e100 * underflow[1], underflow[2]],            # same pattern
              never_read, [np.diag([3.0, 0.5]), never_read[1]],              # pattern [1]
              [mixed, mixed], [np.diag([2.0, 0.5]), mixed],                  # pattern [0, 1]
              two_node_nonnegative(2.0), two_node_nonnegative(0.8),          # non-negative
              [2.0 * np.eye(2)], [np.diag([2.0, 0.5])],                      # one node, tie or not
              [np.abs(mixed), np.abs(mixed)], [], [np.eye(3)[:2]],           # its overflow, bad input
              [np.array([[1.5, -1.0], [0.0, 1.5]])], [np.diag([2.0, -2.0])],  # defective, tie
              [NONCONVERGENT], [np.abs(NONCONVERGENT)]]                      # eig fails
    defective = [[M] for M, _ in DEFECTIVE_NONNEGATIVE]
    batch += defective                                                       # +-inf all the same
    batch += [random_cycle(rng, max_m=4, sign="mixed") for _ in range(40)]
    batch += [attracting_cycle(rng, 6) for _ in range(6)]
    order = rng.permutation(len(batch))
    batch = [batch[i] for i in order]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = [classify_outcome(cycle, tol) for cycle in batch]
    # every cycle but the two bad inputs reads the same in the stack of its shape
    stacks = _stacks(batch)
    for members, stack in stacks:
        _sweep_agrees(stack, [expected[i] for i in members], tol)
    assert sum(len(members) for members, _ in stacks) == len(batch) - 2
    for cycle, (_, value) in zip(defective, DEFECTIVE_NONNEGATIVE):
        [k] = [k for k, c in enumerate(batch) if c is cycle]
        assert expected[k].sigma == (value,)
    kinds = {type(r) if isinstance(r, Exception) else r.classification for r in expected}
    assert {IndeterminateError, ProductOverflow, ZeroVectorError, ValueError} <= kinds
    assert len(kinds & set(Classification)) >= 3


def test_batch_errors_keep_no_traceback():
    mixed = np.array([[1e200, 0.0], [-1.0, 1.0]])
    cases = {
        "overflow": ([np.abs(mixed)] * 2, ProductOverflow),
        "defective": ([np.array([[1.5, -1.0], [0.0, 1.5]])], IndeterminateError),
        "nonnegative-tie": ([2.0 * np.eye(2)], IndeterminateError),
        "zero-row": (ZERO_ROW, ZeroVectorError),
        "not-finite": ([np.array([[1.0, np.nan], [0.0, 1.0]])], ValueError),
    }
    errors = {}
    for name, (cycle, kind) in cases.items():
        [errors[name]] = hetstab.stability._sigma_rows(np.array(cycle)[None])[1]
        exc = errors[name]
        assert type(exc) is kind, name
        for e in (exc, exc.__cause__, exc.__context__):
            assert e is None or e.__traceback__ is None, name
    tie = errors["nonnegative-tie"]
    assert isinstance(tie.__cause__, SpectralError) and tie.cause is tie.__cause__
    # what no float stack holds is raised by classify itself
    with pytest.raises(ValueError, match="^expected a finite square matrix"):
        classify([np.eye(3)[:2]])
    with pytest.raises(TypeError):
        classify(5)


def _rsp_rows() -> list[np.ndarray]:
    """The grid of rsp-sweep --grid 61, one (61, 2, 3, 3) stack per eps_x row."""
    cycles = rsp_grid()
    return [np.array(cycles[r:r + 61]) for r in range(0, len(cycles), 61)]


def test_a_stack_classifies_as_its_list_of_cycles(rsp_grid_outcomes):
    rows = _rsp_rows()
    for r, stack in enumerate(rows):
        _sweep_agrees(stack, rsp_grid_outcomes[61 * r:61 * (r + 1)])
    mixed = rows[20].copy()
    mixed[3, 1, 2, 0] = np.nan                                   # not finite
    mixed[4, 0, 1, 1] = np.inf
    mixed[5] = [np.diag([1e200, 1.0, 1.0])] * 2                  # its full returns overflow
    mixed[6] = [np.diag([2.0, -2.0, 0.5])] * 2                   # a tie at the top
    mixed[7] = [np.diag([2.0, 2.0, 0.5])] * 2                    # the same, non-negative
    got = _sweep_agrees(mixed, [classify_outcome(cycle) for cycle in mixed])
    kinds = [type(e) for e in got[3:8]]
    assert kinds == [ValueError] * 2 + [ProductOverflow] + [IndeterminateError] * 2
    assert str(got[3]) == "expected a finite square matrix, got shape (3, 3)"


def _jordan(n: int, corner: float) -> np.ndarray:
    """An n x n matrix whose eigenvalue 2 has a 2 x 2 Jordan block, with
    corner above the diagonal and 0.5 on the rest of it."""
    M = np.diag([2.0, 2.0] + [0.5] * (n - 2))
    M[0, 1] = corner
    return M


@st.composite
def cycle_stacks(draw):
    """A float (B, m, N, N) stack of B cycles with N = 2..5 and m = 1..4,
    each of a kind that ends its analysis in a different way: mixed signs
    (failing checkpoints, most of them), attracting (every sigma_j a
    minimum), non-negative (the dichotomy), a pass that overflows, a zero
    partial-turn row, a defective, a complex and an all-moduli-near-1 full
    return, and a matrix that is not finite."""
    n, m, count = draw(st.integers(2, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.empty((count, m, n, n))
    for b in range(count):
        kind = draw(st.sampled_from(["mixed", "attracting", "nonnegative", "overflow", "zero-row",
                                     "defective", "complex", "near-1", "not-finite"]))
        mats = np.array(as_basic_matrices(attracting_cycle(rng, m, n - 1)))
        if kind == "mixed":
            mats = rng.uniform(-1.0, 2.0, (m, n, n)) * 10.0 ** rng.integers(-2, 3, (m, 1, 1))
        elif kind == "nonnegative":
            mats = np.abs(mats)
        elif kind == "overflow":
            mats[:] *= 1e200
        elif kind == "zero-row":                      # in a matrix with a negative entry
            negative = np.flatnonzero(mats.min(axis=(1, 2)) < 0.0)
            q = rng.choice(negative) if len(negative) else rng.integers(m)
            mats[q, rng.integers(n)] = 0.0
        elif kind in ("defective", "complex", "near-1"):
            mats[:] = np.eye(n)
            if kind == "defective":
                mats[0] = _jordan(n, draw(st.sampled_from([1.0, -1.0])))
            elif kind == "complex":
                mats[0, :2, :2] = [[1.5, -2.0], [2.0, 1.5]]
                mats[0, -1, 0] -= 0.25
            else:
                mats[0] = np.diag(1.0 + 1e-12 * np.arange(n))
                mats[0, 0, -1] = -1e-13
        elif kind == "not-finite":
            mats[rng.integers(m), rng.integers(n), rng.integers(n)] = np.nan
        stack[b] = mats
    return stack


@settings(deadline=None, max_examples=80)
@given(cycle_stacks())
@example(np.array([ZERO_ROW, 2.0 * ZERO_ROW, np.abs(ZERO_ROW), ZERO_ROW[[2, 0, 1]]]))
def test_the_sweep_reader_agrees_with_the_reports(stack):
    # _sigma_rows and classify read one analysis: the same sigma row, bit
    # for bit and sign of zero included, verdict and error for each cycle
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = [classify_outcome(cycle) for cycle in stack]
    _sweep_agrees(stack, expected)


def test_the_sweep_reader_agrees_with_the_reports_on_the_rsp_grid(rsp_grid_outcomes):
    _sweep_agrees(np.array(rsp_grid()), rsp_grid_outcomes)
    kinds = {type(r) if isinstance(r, Exception) else r.classification for r in rsp_grid_outcomes}
    assert len(kinds) >= 3


WIDE = st.builds(lambda mag, sign: sign * mag, st.floats(1e-300, 1e300), st.sampled_from([-1.0, 1.0]))
SIGNS = st.sampled_from([-1.0, 1.0])


@st.composite
def near_midpoint(draw, n):
    """A vector of n >= 3 components whose exact sum lies within a few bits
    of a rounding midpoint: x, half a gap of x, and a far smaller term, so
    that the rounding errors of the running sums carry the decisive bits,
    some of them between +-2^k that cancel."""
    x = draw(SIGNS) * (2.0 ** draw(st.integers(-60, 60))
                       if draw(st.booleans()) else draw(st.floats(1e-30, 1e30)))
    half = math.ulp(x) / draw(st.sampled_from([2.0, 4.0]))       # 4: below a power of two
    v = [x, draw(SIGNS) * half, draw(SIGNS) * half * 2.0 ** -draw(st.integers(1, 70))]
    if n >= 5 and draw(st.booleans()):
        big = 2.0 ** draw(st.integers(0, 200))
        v = [big] + v + [-big]
    return v + [0.0] * (n - len(v))


@st.composite
def direction_vector(draw, n, earlier):
    """One finite, nonzero vector of n components, of a kind that sits on a
    branch or rounding edge of f_index, or a tie with an earlier vector."""
    kinds = ["any", "wide", "zero-sum", "ulp-of-zero", "nonneg", "nonpos", "subnormal", "huge"]
    kinds += ["midpoint"] * (n >= 3) + ["tie"] * bool(earlier)
    kind = draw(st.sampled_from(kinds))
    if kind == "any":
        v = [draw(st.floats(allow_nan=False, allow_infinity=False)) for _ in range(n)]
    elif kind == "wide":
        v = [draw(WIDE) for _ in range(n)]
    elif kind in ("zero-sum", "ulp-of-zero"):
        half = [draw(WIDE) for _ in range(n // 2)]
        v = half + [-a for a in half] + [0.0] * (n % 2)
        if kind == "ulp-of-zero":   # the sum is one ulp of a component away from 0
            v[0] = float(np.nextafter(v[0], draw(st.sampled_from([-INF, INF]))))
        v = draw(st.permutations(v))
    elif kind in ("nonneg", "nonpos"):
        sign = 1.0 if kind == "nonneg" else -1.0
        v = [sign * abs(draw(WIDE)) for _ in range(n)]
        v[draw(st.integers(0, n - 1))] = 0.0 if draw(st.booleans()) else v[0]
    elif kind == "subnormal":       # subnormal components beside normal ones
        v = [draw(SIGNS) * draw(st.floats(5e-324, 2.2e-308)) if draw(st.booleans())
             else draw(WIDE) for _ in range(n)]
    elif kind == "huge":            # sums near or past the top of double range
        v = [draw(SIGNS) * draw(st.floats(1e306, 1.7e308)) if draw(st.booleans())
             else draw(st.sampled_from([draw(WIDE), 5e-324, 1.0])) for _ in range(n)]
    elif kind == "midpoint":
        v = draw(near_midpoint(n))
    else:                           # the same index: permuted, or scaled by a power of two
        v = draw(st.permutations(draw(st.sampled_from(earlier))))
        scale = 2.0 ** draw(st.integers(-4, 4))
        v = [a * scale for a in v] if all(math.isfinite(a * scale) for a in v) else v
    if not any(v):
        v[0] = 1.0
    return list(v)


@st.composite
def candidate_arrays(draw):
    """A coordinate-major (N, rows, K) array of candidate vectors, N = 2..6."""
    n, rows, k = draw(st.integers(2, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 12))
    out = []
    for _ in range(rows):
        row = []
        for _ in range(k):
            row.append(draw(direction_vector(n, row)))
        out.append(row)
    return np.array(out).transpose(2, 0, 1).copy()


def _coordinate_major(*vectors):
    return np.array([vectors]).transpose(2, 0, 1).copy()


@settings(deadline=None, max_examples=300)
@given(candidate_arrays())
# sums that overflow in fsum and in the cascade, in rows of their own
@example(np.array([[[1.7e308, 1.7e308, -1.7e308], [1.0, -0.1, 0.5]],
                   [[-1.7e308, -1.7e308, 1.7e308], [1.0, -2.0, 0.5]]]).transpose(2, 0, 1).copy())
# a sum that overflows with no second-level error to carry the NaN (N = 2)
@example(_coordinate_major([-2.0**1023, -2.0**1023], [2.0**1023, 2.0**1023]))
# just below the midpoint under 1, which the rounded error sum puts on it
@example(_coordinate_major([1.0, -2.0**-54, -2.0**-120]))
# just above a midpoint that only the errors of cancelling 2^200 carry
@example(_coordinate_major([2.0**200, 1.5, 2.0**-53 - 2.0**-75, 2.0**-74, -2.0**200]))
def test_exact_minimum_equals_the_exhaustive_loop(alphas):
    values, ks = hetstab.stability._first_minima(alphas)
    for i in range(alphas.shape[1]):
        row = [f_index(alpha) for alpha in alphas[:, i].T]
        k = min(range(len(row)), key=row.__getitem__)   # first of equal minima
        assert ks[i] == k
        assert values[i].hex() == row[k].hex()           # bit for bit, sign of zero included


def test_classify_verifies_at_most_a_quarter_of_its_candidates(monkeypatch):
    # the seed-3 classify-large population of perfbench, N = 4 at m = 8 and 32
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    calls = []
    formula = hetstab.stability.findex._f_index

    def counting(comps):
        calls.append(1)
        return formula(comps)

    monkeypatch.setattr(hetstab.stability.findex, "_f_index", counting)
    verified, candidates = {8: 0, 32: 0}, {8: 0, 32: 0}
    for entry in inputs.classify_population(3):
        cycle = validate_cycle(cycle_from_dict(entry["doc"]))
        calls.clear()
        try:
            report = classify(cycle)
        except IndeterminateError:
            continue
        k = 1 + len(negative_entry_indices(cycle)) * cycle.dimension
        verified[cycle.m] += len(calls)
        candidates[cycle.m] += k * sum(p.alpha is not None for p in report.provenance)
    for m in (8, 32):
        assert candidates[m] > 1000
        assert verified[m] <= candidates[m] / 4


def test_rsp_sweep_verifies_at_most_one_percent_of_its_candidates(monkeypatch, tmp_path):
    # every sigma row of rsp-sweep --grid 61 reaches _first_minima with its
    # K candidates; the exact sums settle all of them today, and a cascade
    # that sent a fifth of them to findex._f_index again would fail here
    from hetstab.cli import main

    calls, candidates = [], []
    formula, minima = hetstab.stability.findex._f_index, hetstab.stability._first_minima

    def counting(comps):
        calls.append(1)
        return formula(comps)

    def counting_minima(alphas):
        candidates.append(alphas.shape[1] * alphas.shape[2])
        return minima(alphas)

    monkeypatch.setattr(hetstab.stability.findex, "_f_index", counting)
    monkeypatch.setattr(hetstab.stability, "_first_minima", counting_minima)
    assert main(["rsp-sweep", "--grid", "61", "--out", str(tmp_path / "sweep.csv")]) == 0
    assert sum(candidates) > 10_000
    assert len(calls) <= sum(candidates) / 100


# ---------------------------------------------------------------------------
# Later turns (ROADMAP item 1): a point stays in the basin only if every
# later turn keeps it in the tube, but sigma_j reads the first turn's rows
# alone.  Three cycles where the later turns lower an index are pinned
# against the reference over k <= 60 turns (conftest.sigma_over_turns); the
# change that reads the later turns makes them pass and removes the marks.
# ---------------------------------------------------------------------------


LATER_TURNS = pytest.mark.xfail(strict=True, raises=AssertionError,
                                reason="ROADMAP item 1: sigma_j misses later turns")
REPRODUCER_M5 = [[[0.0103, 1], [0.6008, 0]], [[-0.392, 1], [1.7883, 0]],
                 [[1.5611, 0], [-0.9534, 1]], [[0.8467, 0], [0.7572, 1]],
                 [[0.6956, 1], [1.1644, 0]]]
REPRODUCER_M3 = [[[1.0886, 0, 1], [-0.3905, 1, 0], [1.3351, 0, 0]],
                 [[-0.3286, 0, 1], [0.6861, 0, 0], [0.1842, 1, 0]],
                 [[0.1466, 1, 0], [0.9, 0, 0], [-0.079, 0, 1]]]


def _attracting_draw_47():
    """Draw 47 (from 0) of attracting_cycle at m in 2..5 from seed 7."""
    rng = np.random.default_rng(7)
    return [attracting_cycle(rng, int(rng.integers(2, 6))) for _ in range(48)][-1]


def test_the_later_turn_reference_gives_the_roadmap_values():
    assert sigma_over_turns(REPRODUCER_M5) == pytest.approx(
        [-0.277, 0.321, 0.049, 1.526, 0.264], abs=5e-4)
    assert sigma_over_turns(REPRODUCER_M3) == pytest.approx([-0.024, -0.8845, 0.199], abs=5e-4)
    assert sigma_over_turns(_attracting_draw_47())[2] == pytest.approx(0.526, abs=5e-4)


@LATER_TURNS
def test_the_m5_reproducer_is_fas_only_at_the_later_turn_values():
    # the first turn alone reads (0.522, 1.268, 0.049, 1.526, 2.877), e.a.s.
    report = classify(REPRODUCER_M5)
    assert report.classification is Classification.FRAGMENTARILY_ASYMPTOTICALLY_STABLE_ONLY
    assert list(report.sigma) == pytest.approx(sigma_over_turns(REPRODUCER_M5), rel=1e-9)


@LATER_TURNS
def test_the_m3_reproducer_is_fas_only_with_sigma_1_at_most_the_later_turn_value():
    # the first turn alone reads sigma_1 = 0.547, e.a.s.; the joint program
    # over the rows gives -0.959
    report = classify(REPRODUCER_M3)
    assert report.classification is Classification.FRAGMENTARILY_ASYMPTOTICALLY_STABLE_ONLY
    assert report.sigma[1] <= sigma_over_turns(REPRODUCER_M3)[1]


@LATER_TURNS
def test_attracting_draw_47_reads_the_later_turn_value_at_node_2():
    # the first turn alone reads 2.161
    cycle = _attracting_draw_47()
    assert sigma(cycle, 2) == pytest.approx(sigma_over_turns(cycle)[2], rel=1e-9)
