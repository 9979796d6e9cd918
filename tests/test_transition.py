import math
import warnings

import numpy as np
import pytest

from conftest import assert_multisets_close, naive_matmul, random_cycle
from hetstab import (
    ConnectionSpec,
    CycleSpec,
    NodeSpec,
    RspParams,
    as_basic_matrices,
    basic_matrix,
    full_return_matrix,
    negative_entry_indices,
    partial_turn_matrix,
    rsp_matrices,
    validate_cycle,
)
from hetstab.transition import cyclic_products


def single_node(c, e, transverse, perm=None):
    dim = len(transverse) + 1
    conn = ConnectionSpec(permutation=perm or tuple(range(dim)))
    node = NodeSpec(contracting=c, expanding=e, transverse=tuple(transverse))
    return validate_cycle(CycleSpec(nodes=(node,), connections=(conn,)))


def test_basic_matrix_direct_substitution():
    cycle = single_node(2.0, 1.0, (-1.0,))
    assert np.array_equal(basic_matrix(cycle, 0), [[2.0, 0.0], [1.0, 1.0]])


def test_basic_matrix_hand_evaluated_ratios():
    cycle = single_node(1.0, 2.0, (0.5, -0.5))
    expected = [[0.5, 0.0, 0.0], [-0.25, 1.0, 0.0], [0.25, 0.0, 1.0]]
    assert np.array_equal(basic_matrix(cycle, 0), expected)


def test_basic_matrix_rsp_node0():
    ex, ey = -0.5, 0.2
    m0 = rsp_matrices(RspParams(ex, ey))[0]
    expected = [[(1 - ey) / 2, 1, 0], [-(1 + ex) / 2, 0, 1], [1, 0, 0]]
    assert np.array_equal(m0, np.array(expected, dtype=float))


def test_basic_matrix_invariants_random(subtests=None):
    rng = np.random.default_rng(11)
    for _ in range(50):
        cycle = random_cycle(rng)
        for j in range(cycle.m):
            M = basic_matrix(cycle, j)
            # every column beyond the first is one-hot with a single 1
            for col in range(1, cycle.dimension):
                column = M[:, col]
                assert np.count_nonzero(column) == 1
                assert column[np.nonzero(column)][0] == 1.0
            node = cycle.nodes[j]
            assert abs(np.linalg.det(M)) == pytest.approx(
                node.contracting / node.expanding, rel=1e-12)


def test_full_return_single_node_is_basic():
    cycle = single_node(2.0, 1.0, (-1.0,))
    assert np.array_equal(full_return_matrix(cycle, 0),
                          basic_matrix(cycle, 0))


def test_full_return_rsp_order():
    params = RspParams(-0.5, 0.2)
    m0, m1 = rsp_matrices(params)
    full0 = full_return_matrix(rsp_matrices(params), 0)
    assert np.allclose(full0, naive_matmul(m1, m0), atol=0, rtol=0)
    full1 = full_return_matrix(rsp_matrices(params), 1)
    assert np.allclose(full1, naive_matmul(m0, m1), atol=0, rtol=0)


def test_products_match_naive_multiplication_oracle():
    rng = np.random.default_rng(23)
    for _ in range(20):
        cycle = random_cycle(rng, max_m=4)
        mats = [basic_matrix(cycle, j) for j in range(cycle.m)]
        for j in range(cycle.m):
            expected = np.eye(cycle.dimension)
            for step in range(cycle.m):
                expected = naive_matmul(mats[(j + step) % cycle.m], expected)
            assert np.allclose(full_return_matrix(cycle, j), expected, atol=1e-12)


def test_stacked_pass_equals_the_single_start_passes():
    # one stacked matmul per step must give each pass bit for bit as the
    # single-start pass and as one single-matrix product after another
    rng = np.random.default_rng(43)
    cycles = [random_cycle(rng, max_m=8) for _ in range(20)]
    cycles += [random_cycle(np.random.default_rng(seed), max_m=32, max_nt=5) for seed in range(4)]
    for cycle in cycles:
        mats = as_basic_matrices(cycle)
        m = len(mats)
        stacked = cyclic_products(mats, range(m), m)
        assert stacked.shape == (m, m, cycle.dimension, cycle.dimension)
        for j in range(m):
            single = cyclic_products(mats, range(j, j + 1), m)[0]
            prod = np.eye(cycle.dimension)
            for step in range(m):
                prod = mats[(j + step) % m] @ prod
                assert np.array_equal(stacked[j, step], single[step])
                assert np.array_equal(stacked[j, step], prod)
    assert max(c.m for c in cycles) > 16


def test_stack_of_cycles_equals_each_cycle_alone():
    # the stacked analysis builds the passes of many cycles in one call
    rng = np.random.default_rng(44)
    for m, n in [(2, 3), (5, 4), (17, 2)]:
        stack = rng.uniform(-1.5, 1.5, (9, m, n, n))
        stack[4, 0] *= 1e200                       # a cycle whose passes overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            passes = cyclic_products(stack, range(m), m)
        assert passes.shape == (9, m, m, n, n)
        for b, mats in enumerate(stack):
            alone = cyclic_products(list(mats), range(m), m)
            assert np.array_equal(passes[b], alone, equal_nan=True)


def test_partial_turn_cases():
    params = RspParams(-0.3, 0.1)
    mats = rsp_matrices(params)
    m0, m1 = mats
    # l = j: the single basic matrix
    assert np.array_equal(partial_turn_matrix(mats, 0, 0), m0)
    # l = j - 1 (mod m): the full turn
    assert np.array_equal(partial_turn_matrix(mats, 1, 0),
                          full_return_matrix(mats, 0))
    assert np.allclose(partial_turn_matrix(mats, 1, 0),
                       naive_matmul(m1, m0), atol=0)


def test_commutation_identity_and_similarity():
    rng = np.random.default_rng(37)
    for _ in range(25):
        cycle = random_cycle(rng, max_m=4)
        base = np.linalg.eigvals(full_return_matrix(cycle, 0))
        for j in range(cycle.m):
            ev = np.linalg.eigvals(full_return_matrix(cycle, j))
            assert_multisets_close(ev, base, tol=1e-9)
            for l in range(cycle.m):
                lhs = partial_turn_matrix(cycle, l, j) @ full_return_matrix(cycle, j)
                rhs = full_return_matrix(cycle, (l + 1) % cycle.m) @ partial_turn_matrix(cycle, l, j)
                assert np.allclose(lhs, rhs, atol=1e-9)


def test_full_return_determinant():
    rng = np.random.default_rng(41)
    for _ in range(25):
        cycle = random_cycle(rng, max_m=5)
        expected = 1.0
        for node in cycle.nodes:
            expected *= node.contracting / node.expanding
        det = np.linalg.det(full_return_matrix(cycle, 0))
        assert abs(det) == pytest.approx(expected, rel=1e-9)


def test_negative_entry_indices():
    all_neg = validate_cycle(CycleSpec(
        nodes=(NodeSpec(1.0, 1.0, (-0.5, -0.2)), NodeSpec(2.0, 1.0, (-1.0, -0.1))),
        connections=(ConnectionSpec((0, 1, 2)), ConnectionSpec((1, 2, 0))),
    ))
    assert negative_entry_indices(all_neg) == []

    assert negative_entry_indices(rsp_matrices(RspParams(-0.5, 0.2))) == [0, 1]

    one_pos = validate_cycle(CycleSpec(
        nodes=(NodeSpec(1.0, 1.0, (-0.5,)), NodeSpec(1.0, 1.0, (0.25,))),
        connections=(ConnectionSpec((0, 1)), ConnectionSpec((0, 1))),
    ))
    assert negative_entry_indices(one_pos) == [1]


@pytest.mark.parametrize("mats", [
    [[[1.0, math.nan], [0.0, 1.0]]],
    [np.eye(2), [[1.0, 0.0], [math.inf, 1.0]]],
    [[[1.0]]],                                   # N = 1
    [[1.0, 2.0]],                                # not a matrix
    [np.eye(2), np.eye(3)],                      # mixed sizes
    [],
], ids=["nan", "inf", "1x1", "vector", "mixed-size", "empty"])
def test_raw_matrices_rejected(mats):
    with pytest.raises(ValueError):
        as_basic_matrices(mats)
