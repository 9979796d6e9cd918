"""Closed-form index of a half-space slice of the local basin.

For a nonzero direction alpha in R^N the slice {y < 0 : alpha . y < 0},
measured back in original coordinates |x_1^{a_1} ... x_N^{a_N}| < 1 inside a
shrinking max-norm ball, has a log-scale density exponent given exactly by

    F+(alpha) = +inf                          if min(alpha) >= 0
              = 0                             if sum(alpha) <= 0
              = -sum(alpha) / min(alpha)      otherwise

    F-(alpha) = F+(-alpha)
    f_index(alpha) = F+(alpha) - F-(alpha)

The two overlapping branch boundaries agree (sum = 0 with min < 0 gives 0
either way), and F+ = F- = +inf is impossible for nonzero alpha, so the
difference is a well-defined extended real.  Values live on the IEEE extended
real line: ordinary floats plus math.inf / -math.inf.

Sums use math.fsum, so permuting the components can never change the branch
taken nor the returned value.  Branch comparisons are exact: inputs are
finite-precision already and the branches agree on shared boundaries, so no
epsilon snapping is applied.  Every branch is homogeneous of degree 0 in
alpha, so a sum that overflows is taken again on alpha / 4, which is exact
for normal components; a value beyond double range rounds to +-inf, as the
IEEE division does.
"""

from __future__ import annotations

import math
from typing import Iterable

from .cycle import _reals

__all__ = ["f_plus", "f_minus", "f_index", "f_index_n3", "ZeroVectorError"]


def inf_str(x):
    """Serialized form of a value: "+inf" / "-inf" for a float infinity.

    Every other value comes back unchanged, so JSON and CSV writers can pass
    whole payloads through it.
    """
    if isinstance(x, float) and math.isinf(x):
        return "+inf" if x > 0 else "-inf"
    return x


class ZeroVectorError(ValueError):
    """The all-zero direction has no index."""


def _zero_vector() -> ZeroVectorError:
    """The error of a zero direction vector (_components)."""
    return ZeroVectorError("zero direction vector has no index")


def _components(alpha: Iterable[float]) -> tuple[float, ...]:
    """alpha as floats; ZeroVectorError if empty or zero, ValueError if not
    a sequence of numbers (cycle._reals) or not finite."""
    comps = _reals(alpha, "direction vector")
    if not comps:
        raise ZeroVectorError("empty direction vector")
    if not all(map(math.isfinite, comps)):
        raise ValueError("direction vector components must be finite")
    if all(a == 0.0 for a in comps):
        raise _zero_vector()
    return comps


def f_plus(alpha: Iterable[float]) -> float:
    """Escape exponent F+ of the slice normal alpha."""
    return _f_plus(_components(alpha))


def _f_plus(comps: list[float]) -> float:
    amin = min(comps)
    if amin >= 0.0:
        return math.inf
    try:
        total = math.fsum(comps)
    except OverflowError:                 # degree-0 homogeneous; alpha / 4 is exact
        return _f_plus([a / 4 for a in comps])
    if total <= 0.0:
        return 0.0
    return -total / amin


def f_minus(alpha: Iterable[float]) -> float:
    """Capture exponent F- of the slice normal alpha: F+(-alpha)."""
    return _f_plus([-a for a in _components(alpha)])


def f_index(alpha: Iterable[float]) -> float:
    """Stability index F+(alpha) - F-(alpha) of the slice normal alpha."""
    return _f_index(_components(alpha))


def _f_index(comps: list[float]) -> float:
    """f_index of floats that _components has passed, unchecked."""
    fp = _f_plus(comps)
    if fp == math.inf:
        return math.inf
    fm = _f_plus([-a for a in comps])
    if fm == math.inf:
        return -math.inf
    return fp - fm


def f_index_n3(a1: float, a2: float, a3: float) -> float:
    """Five-branch closed form of the index for three components.

    Agrees with f_index branch for branch on every length-3 input:

        +inf            min >= 0
        -inf            max <= 0
        0               sum == 0
        sum / max       max > 0 and sum < 0
        -sum / min      min < 0 and sum > 0
    """
    comps = _components((a1, a2, a3))
    mn = min(comps)
    mx = max(comps)
    if mn >= 0.0:
        return math.inf
    if mx <= 0.0:
        return -math.inf
    try:
        total = math.fsum(comps)
    except OverflowError:                 # degree-0 homogeneous; alpha / 4 is exact
        return f_index_n3(*(a / 4 for a in comps))
    if total == 0.0:
        return 0.0
    if total < 0.0:
        return total / mx
    return -total / mn
