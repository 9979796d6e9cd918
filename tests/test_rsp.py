import math

import numpy as np
import pytest

from hetstab import (
    Classification,
    NotFAS,
    ParamOutOfRange,
    RspParams,
    basic_matrix,
    classify,
    f_index,
    full_return_matrix,
    rsp_closed_form,
    rsp_compare,
    rsp_cycle_spec,
    rsp_matrices,
    validate_cycle,
    vmax_row,
)
from hetstab.rsp import _rsp_stack


def test_params_validated():
    RspParams(-0.999, 0.999)
    for bad in ((1.0, 0.0), (0.0, -1.0), (1.5, 0.2)):
        with pytest.raises(ParamOutOfRange):
            RspParams(*bad)


def test_matrices_at_zero():
    m0, m1 = rsp_matrices(RspParams(0.0, 0.0))
    expected = [[0.5, 1, 0], [-0.5, 0, 1], [1, 0, 0]]
    assert np.array_equal(m0, np.array(expected, float))
    assert np.array_equal(m1, np.array(expected, float))


def test_matrix_rows_at_sample_point():
    m0, _ = rsp_matrices(RspParams(-0.5, 0.2))
    assert m0[0] == pytest.approx([0.4, 1.0, 0.0])


def test_matrices_are_the_formula_in_double_precision():
    grid = np.linspace(-1.0, 1.0, 63)[1:-1]
    for ex in grid[::6]:
        row = _rsp_stack(ex, grid)                           # one rsp-sweep grid row
        for ey, mats in zip(grid, row):
            ex, ey = float(ex), float(ey)
            m0, m1 = rsp_matrices(RspParams(ex, ey))
            assert m0.tolist() == [[(1 - ey) / 2, 1.0, 0.0], [-(1 + ex) / 2, 0.0, 1.0],
                                   [1.0, 0.0, 0.0]]
            assert m1.tolist() == [[(1 - ex) / 2, 1.0, 0.0], [-(1 + ey) / 2, 0.0, 1.0],
                                   [1.0, 0.0, 0.0]]
            assert mats.tolist() == [m0.tolist(), m1.tolist()]


def test_swap_symmetry_of_matrices():
    a, b = 0.3, -0.7
    assert np.array_equal(rsp_matrices(RspParams(a, b))[0],
                          rsp_matrices(RspParams(b, a))[1])


def test_cycle_spec_reproduces_matrices_entrywise():
    for ex, ey in [(-0.5, 0.2), (0.0, 0.0), (0.9, -0.95), (-0.4, -0.4)]:
        params = RspParams(ex, ey)
        cycle = validate_cycle(rsp_cycle_spec(params))
        assert cycle.m == 2 and cycle.dimension == 3
        m0, m1 = rsp_matrices(params)
        assert np.array_equal(basic_matrix(cycle, 0), m0)
        assert np.array_equal(basic_matrix(cycle, 1), m1)


@pytest.mark.parametrize("ex,ey,sigma0", [
    (-0.5, 0.2, 0.2666666666666667),    # min{3, 0.64/2.4}
    (-0.2, -0.2, 0.9),                  # min{1.5, 0.9}
])
def test_closed_form_values(ex, ey, sigma0):
    s0, _ = rsp_closed_form(RspParams(ex, ey))
    assert s0 == pytest.approx(sigma0, abs=1e-15)


def test_closed_form_requires_attracting_region():
    with pytest.raises(NotFAS):
        rsp_closed_form(RspParams(0.3, 0.3))
    with pytest.raises(NotFAS):
        rsp_closed_form(RspParams(0.5, -0.5))   # boundary included


def test_closed_form_positive_and_symmetric():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = float(rng.uniform(-0.95, 0.95))
        b = float(rng.uniform(-0.95, min(0.95, -a - 1e-3)))
        s0, s1 = rsp_closed_form(RspParams(a, b))
        assert s0 > 0 and s1 > 0
        t0, t1 = rsp_closed_form(RspParams(b, a))
        assert (s0, s1) == (t1, t0)             # x <-> y swap, exactly


def test_attracted_set_is_whole_negative_orthant():
    for ex, ey in [(-0.5, 0.2), (-0.2, -0.2), (-0.8, 0.4)]:
        mats = rsp_matrices(RspParams(ex, ey))
        for j in range(2):
            v = vmax_row(full_return_matrix(mats, j))
            assert np.all(v >= 0)
            assert f_index(v) == math.inf


def test_pipeline_swap_symmetry():
    a, b = -0.6, 0.25
    r_ab = classify(rsp_matrices(RspParams(a, b)))
    r_ba = classify(rsp_matrices(RspParams(b, a)))
    assert r_ab.sigma[0] == r_ba.sigma[1]
    assert r_ab.sigma[1] == r_ba.sigma[0]


def test_compare_agrees_on_attracting_point():
    cmp_ = rsp_compare(RspParams(-0.5, 0.2))
    assert cmp_.consistent
    assert max(abs(s - c) for s, c in zip(cmp_.report.sigma, cmp_.closed_form)) <= 1e-9
    assert cmp_.report.classification is Classification.ESSENTIALLY_ASYMPTOTICALLY_STABLE


def test_compare_agrees_on_non_attracting_point():
    cmp_ = rsp_compare(RspParams(0.1, 0.05))
    assert cmp_.consistent
    assert cmp_.closed_form is None
    assert cmp_.report.classification is Classification.NOT_ATTRACTOR


def test_compare_grid_of_nine_admissible_points():
    values = (-0.8, -0.5, -0.2)
    checked = 0
    for ex in values:
        for ey in values:
            cmp_ = rsp_compare(RspParams(ex, ey))
            assert cmp_.consistent, (ex, ey)
            checked += 1
    assert checked == 9


@pytest.mark.parametrize("tol", [0.0, 1e-15, 1e-9])
def test_compare_bound_is_not_the_spectral_tolerance(tol):
    # rsp_compare's agreement bound is rsp.AGREEMENT whatever tol is: with
    # tol as the bound, 97 of these 171 attracting points read inconsistent
    # at tol 0 and 7 at tol 1e-15
    grid = np.linspace(-1.0, 1.0, 21)[1:-1].tolist()
    points = [(ex, ey) for ex in grid for ey in grid if ex + ey < 0.0]
    for ex, ey in points:
        assert rsp_compare(RspParams(ex, ey), tol=tol).consistent, (ex, ey)
    assert len(points) == 171
