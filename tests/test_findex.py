import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hetstab import ZeroVectorError, f_index, f_index_n3, f_minus, f_plus

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@pytest.mark.parametrize("alpha,expected", [
    ((1, 0, 0), math.inf),         # all non-negative
    ((1, -1, 0), 0.0),             # sum is zero
    ((-1, 1, 1), 1.0),             # -sum/min = 1
    ((0.7, -0.3, 0), 4.0 / 3.0),   # 0.4 / 0.3
    ((-0.25, 1, 0), 3.0),          # 0.75 / 0.25
])
def test_f_plus_values(alpha, expected):
    assert f_plus(alpha) == expected


@pytest.mark.parametrize("alpha,expected", [
    ((-1, -2, -3), math.inf),      # -alpha is all positive
    ((1, 1, 1), 0.0),              # sum(-alpha) < 0
    ((-0.25, 1, 0), 0.0),          # sum(-alpha) = -0.75 < 0
])
def test_f_minus_values(alpha, expected):
    assert f_minus(alpha) == expected


@pytest.mark.parametrize("alpha,expected", [
    ((-0.25, 1, 0), 3.0),
    ((-1, -2, -3), -math.inf),
    ((0.7, -0.3, 0), 4.0 / 3.0),
    ((1, 0, 0), math.inf),
    ((1, -1, 0), 0.0),
])
def test_f_index_values(alpha, expected):
    assert f_index(alpha) == expected


def test_f_index_rsp_row_value():
    # row (-(1+eps_x)/2, 0, 1) at eps_x = -0.5 has index (1-eps_x)/(1+eps_x) = 3
    assert f_index((-0.25, 0.0, 1.0)) == 3.0


@pytest.mark.parametrize("a,expected", [
    ((1, 0, 0), math.inf),
    ((1, -1, 0), 0.0),
    ((2, -1, -3), -1.0),           # sum/max = -2/2
    ((-1, -2, -3), -math.inf),
])
def test_f_index_n3_values(a, expected):
    assert f_index_n3(*a) == expected


def test_zero_vector_rejected():
    for fn in (f_plus, f_minus, f_index):
        with pytest.raises(ZeroVectorError):
            fn((0.0, 0.0, 0.0))
        with pytest.raises(ZeroVectorError):
            fn(())
    with pytest.raises(ZeroVectorError):
        f_index_n3(0.0, -0.0, 0.0)


@given(st.lists(finite_floats, min_size=3, max_size=3))
def test_n3_matches_general_form(comps):
    if all(c == 0.0 for c in comps):
        return
    assert f_index_n3(*comps) == f_index(comps)


@given(st.lists(finite_floats, min_size=2, max_size=6))
def test_antisymmetry(comps):
    if all(c == 0.0 for c in comps):
        return
    assert f_index([-c for c in comps]) == -f_index(comps)


def _scaling_is_exact_enough(comps, scale) -> bool:
    """Scaling invariance holds only where scaling does not enter the
    subnormal range: there it loses bits and can even flush a component to
    zero, which may change the index or zero the whole vector."""
    return all(c == 0.0 or (abs(c) >= sys.float_info.min and abs(scale * c) >= sys.float_info.min)
               for c in comps)


@given(st.lists(finite_floats, min_size=2, max_size=6), st.integers(-40, 40))
def test_dyadic_scale_invariance_exact(comps, power):
    if all(c == 0.0 for c in comps):
        return
    scale = 2.0 ** power
    assume(_scaling_is_exact_enough(comps, scale))
    assert f_index([scale * c for c in comps]) == f_index(comps)


@given(st.lists(finite_floats, min_size=2, max_size=6),
       st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
def test_general_scale_invariance_within_rounding(comps, scale):
    if all(c == 0.0 for c in comps):
        return
    assume(_scaling_is_exact_enough(comps, scale))
    a = f_index(comps)
    b = f_index([scale * c for c in comps])
    if math.isinf(a) or math.isinf(b):
        assert a == b
    else:
        assert b == pytest.approx(a, rel=1e-9, abs=1e-9)


@given(st.lists(finite_floats, min_size=2, max_size=6), st.randoms(use_true_random=False))
def test_permutation_invariance_exact(comps, rnd):
    if all(c == 0.0 for c in comps):
        return
    shuffled = list(comps)
    rnd.shuffle(shuffled)
    assert f_index(shuffled) == f_index(comps)


def test_positive_homogeneity_of_branches():
    # representative of each branch stays on its branch under dyadic scaling
    for alpha in [(1, 2, 3), (-1, -2, 0), (-1, 2, 0.5), (3, -1, -1), (1, -1, 0)]:
        base = f_index(alpha)
        for power in (-8, -1, 1, 10):
            assert f_index([2.0**power * c for c in alpha]) == base


def test_extended_real_totally_ordered():
    values = [f_index(a) for a in [(-1, -2, -3), (2, -1, -3), (1, -1, 0), (-1, 2, 2), (1, 1, 1)]]
    assert values == sorted(values)
    assert values[0] == -math.inf and values[-1] == math.inf


def test_numpy_inputs_accepted():
    assert f_index(np.array([-0.25, 1.0, 0.0])) == 3.0
