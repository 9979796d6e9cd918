"""The two-node Rock-Scissors-Paper cycle as a first-class test case.

The two basic transition matrices of this cycle over the tie payoffs
(eps_x, eps_y), both in (-1, 1), are

    M_0 = [ (1-eps_y)/2   1  0 ]       M_1 = M_0 with eps_x <-> eps_y
          [ -(1+eps_x)/2  0  1 ]
          [ 1             0  0 ]

The cycle attracts (essentially asymptotically stable) exactly when
eps_x + eps_y < 0, with closed-form indices

    sigma_0 = min{ (1-eps_x)/(1+eps_x), (1-eps_y)^2 / (2 (1+eps_y)) }
    sigma_1 = the same with eps_x <-> eps_y.

The matrices are injected into the pipeline directly; an equivalent
eigenvalue/permutation description (c = e = 1, transverse pair
(-(1-eps)/2, (1+eps')/2), rows rotated by one) reproduces them entrywise and
is provided for exercising the cycle-spec path end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cycle import ConnectionSpec, CycleSpec, NodeSpec, _real
from .spectral import DEFAULT_TOL
from .stability import Classification, IndexReport, classify

__all__ = ["RspParams", "RspComparison", "rsp_matrices", "rsp_cycle_spec", "rsp_closed_form",
           "rsp_compare", "ParamOutOfRange", "NotFAS"]


AGREEMENT = 1e-9   # the largest |pipeline - closed form| rsp_compare calls consistent


class ParamOutOfRange(ValueError):
    """Tie payoffs must lie strictly inside (-1, 1)."""


class NotFAS(ValueError):
    """Closed-form indices exist only on the attracting region eps_x + eps_y < 0."""


@dataclass(frozen=True)
class RspParams:
    eps_x: float
    eps_y: float

    def __post_init__(self) -> None:
        for name in ("eps_x", "eps_y"):
            v = _real(getattr(self, name), name)
            if not -1.0 < v < 1.0:
                raise ParamOutOfRange(f"{name}={v} is outside (-1, 1)")
            object.__setattr__(self, name, v)


def rsp_matrices(params: RspParams) -> tuple[np.ndarray, np.ndarray]:
    """The two basic transition matrices (M_0, M_1), each a 3 x 3 array."""
    return tuple(_rsp_stack(params.eps_x, params.eps_y))


def _rsp_stack(eps_x, eps_y) -> np.ndarray:
    """rsp_matrices at every pair of tie payoffs that the arrays eps_x and
    eps_y broadcast to, without the range check, as one (..., 2, 3, 3)
    array: rsp-sweep builds a grid row with one call."""
    ex, ey = np.asarray(eps_x, float), np.asarray(eps_y, float)
    mats = np.zeros(np.broadcast_shapes(ex.shape, ey.shape) + (2, 3, 3))
    mats[..., 0, 0, 0], mats[..., 1, 0, 0] = (1 - ey) / 2, (1 - ex) / 2
    mats[..., 0, 1, 0], mats[..., 1, 1, 0] = -(1 + ex) / 2, -(1 + ey) / 2
    mats[..., 0, 1] = mats[..., 1, 2] = mats[..., 2, 0] = 1.0
    return mats


def rsp_cycle_spec(params: RspParams) -> CycleSpec:
    """Eigenvalue/permutation description reproducing rsp_matrices entrywise.

    With c = e = 1 the base-matrix column is (1, -t_1, -t_2); rotating the
    rows by one places it as displayed above.
    """
    ex, ey = params.eps_x, params.eps_y
    node0 = NodeSpec(contracting=1.0, expanding=1.0,
                     transverse=(-(1 - ey) / 2, (1 + ex) / 2))
    node1 = NodeSpec(contracting=1.0, expanding=1.0,
                     transverse=(-(1 - ex) / 2, (1 + ey) / 2))
    rotate = ConnectionSpec(permutation=(1, 2, 0))
    return CycleSpec(nodes=(node0, node1), connections=(rotate, rotate))


def rsp_closed_form(params: RspParams) -> tuple[float, float]:
    """Closed-form (sigma_0, sigma_1); defined only where the cycle attracts."""
    ex, ey = params.eps_x, params.eps_y
    if not ex + ey < 0.0:
        raise NotFAS(f"eps_x + eps_y = {ex + ey} >= 0: the cycle is not an attractor")
    sigma0 = min((1 - ex) / (1 + ex), (1 - ey) ** 2 / (2 * (1 + ey)))
    sigma1 = min((1 - ey) / (1 + ey), (1 - ex) ** 2 / (2 * (1 + ex)))
    return sigma0, sigma1


@dataclass(frozen=True)
class RspComparison:
    """Pipeline output vs closed form at one parameter point."""

    report: IndexReport
    closed_form: tuple[float, float] | None
    consistent: bool


def rsp_compare(params: RspParams, tol: float = DEFAULT_TOL) -> RspComparison:
    """Run the full pipeline on the injected matrices and diff the closed form.

    tol is the spectral tolerance of classify.  On the attracting side both
    indices must agree with the closed form within AGREEMENT, whatever tol
    is, and the verdict must be e.a.s.; on the other side both routes must
    report no attractor.
    """
    report = classify(rsp_matrices(params), tol=tol)
    if params.eps_x + params.eps_y < 0.0:
        closed = rsp_closed_form(params)
        consistent = (
            max(abs(s - c) for s, c in zip(report.sigma, closed)) <= AGREEMENT
            and report.classification is Classification.ESSENTIALLY_ASYMPTOTICALLY_STABLE
        )
        return RspComparison(report, closed, consistent)
    return RspComparison(report, None, report.classification is Classification.NOT_ATTRACTOR)
