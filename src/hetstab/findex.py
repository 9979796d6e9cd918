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
epsilon snapping is applied.
"""

from __future__ import annotations

import math
from typing import Iterable

POS_INF = math.inf
NEG_INF = -math.inf

#: Extended real values are plain floats; +-math.inf are the two infinities.
ExtendedReal = float


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


def _components(alpha: Iterable[float]) -> list[float]:
    """alpha as floats; ZeroVectorError if empty or zero, ValueError if not finite."""
    comps = [float(a) for a in alpha]
    if not comps:
        raise ZeroVectorError("empty direction vector")
    if not all(map(math.isfinite, comps)):
        raise ValueError("direction vector components must be finite")
    if all(a == 0.0 for a in comps):
        raise ZeroVectorError("zero direction vector has no index")
    return comps


def f_plus(alpha: Iterable[float]) -> ExtendedReal:
    """Escape exponent F+ of the slice normal alpha."""
    return _f_plus(_components(alpha))


def _f_plus(comps: list[float]) -> ExtendedReal:
    amin = min(comps)
    total = math.fsum(comps)
    if amin >= 0.0:
        return POS_INF
    if total <= 0.0:
        return 0.0
    return -total / amin


def f_minus(alpha: Iterable[float]) -> ExtendedReal:
    """Capture exponent F- of the slice normal alpha: F+(-alpha)."""
    return _f_plus([-a for a in _components(alpha)])


def f_index(alpha: Iterable[float]) -> ExtendedReal:
    """Stability index F+(alpha) - F-(alpha) of the slice normal alpha."""
    comps = _components(alpha)
    fp = _f_plus(comps)
    if fp == POS_INF:
        return POS_INF
    fm = _f_plus([-a for a in comps])
    if fm == POS_INF:
        return NEG_INF
    return fp - fm


def f_index_n3(a1: float, a2: float, a3: float) -> ExtendedReal:
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
    total = math.fsum(comps)
    if mn >= 0.0:
        return POS_INF
    if mx <= 0.0:
        return NEG_INF
    if total == 0.0:
        return 0.0
    if total < 0.0:
        return total / mx
    return -total / mn
