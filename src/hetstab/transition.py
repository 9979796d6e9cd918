"""Transition matrices of the log-coordinate return maps.

In logarithmic cross-section coordinates eta = (ln w, ln z_1, ..., ln z_nt)
the map from the incoming section of node j to that of node j+1 is affine,
eta -> M_j eta + F_j, with

    M_j = A_j . [ b_{j,1}  0 ... 0 ]        b_{j,1}   = c_j / e_j
                [ b_{j,2}  1 ... 0 ]        b_{j,s+1} = -t_{j,s} / e_j
                [   ...           ]
                [ b_{j,N}  0 ... 1 ]

where A_j is the connection's axis permutation.  Full returns and partial
turns are cyclic products of these basic matrices:

    M^(j)    = M_{j-1} ... M_{j+1} M_j                (all m factors)
    M_(l,j)  = M_l ... M_j                            (((l-j) mod m) + 1 factors)

All indices are 0-based and taken mod m.  Products are accumulated in plain
double precision in exact cyclic order; N and m are desk-scale here so no
balancing is applied.  A product pass that overflows double precision is
rejected with ProductOverflow rather than handed on as inf or NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .cycle import CycleValidationError, ValidatedCycle


class ProductOverflow(CycleValidationError):
    """A cyclic product of the basic matrices is not finite in double precision."""


@dataclass(frozen=True)
class TransitionMatrix:
    """Dense N x N real matrix tagged with its origin in the cycle."""

    entries: np.ndarray
    provenance: str

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]

    def to_csv_block(self) -> str:
        """Rows as comma-separated lines, for debug printing."""
        return "\n".join(",".join(repr(float(v)) for v in row) for row in self.entries)


CycleLike = Union[ValidatedCycle, Sequence]


def _entries(matrix) -> np.ndarray:
    """The float entries of matrix; ValueError unless 2-D, square and finite."""
    M = matrix.entries if isinstance(matrix, TransitionMatrix) else np.asarray(matrix, float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or not np.isfinite(M).all():
        raise ValueError(f"expected a finite square matrix, got shape {M.shape}")
    return M


def _node_index(j: int, m: int) -> int:
    """j when it names one of the m nodes; IndexError otherwise (no wrap-around)."""
    if not 0 <= j < m:
        raise IndexError(f"node index {j} out of range for m={m}")
    return j


def as_basic_matrices(cycle: CycleLike) -> list[np.ndarray]:
    """Basic matrices of a ValidatedCycle, or pass through an explicit list.

    Every product / sign routine accepts either form, so a cycle known only
    through its basic transition matrices can be analysed directly.  An
    explicit list must hold matrices that _entries accepts, all of one size
    N >= 2; anything else raises ValueError.
    """
    if isinstance(cycle, ValidatedCycle):
        return [_basic(cycle, j) for j in range(cycle.m)]
    mats = [np.array(_entries(M)) for M in cycle]
    if not mats:
        raise ValueError("empty matrix sequence")
    n = mats[0].shape[0]
    if n < 2:
        raise ValueError("basic transition matrices must be at least 2 x 2 (N >= 2)")
    if any(M.shape != (n, n) for M in mats):
        raise ValueError("basic transition matrices must be same-size")
    return mats


def _basic(cycle: ValidatedCycle, j: int) -> np.ndarray:
    node = cycle.nodes[j]
    conn = cycle.connections[j]
    n = cycle.dimension
    base = np.eye(n)
    base[0, 0] = node.contracting / node.expanding
    for s, t in enumerate(node.transverse):
        base[s + 1, 0] = -t / node.expanding
    return base[list(conn.permutation)]


def basic_matrix(cycle: ValidatedCycle, j: int) -> TransitionMatrix:
    """M_j for node j: permuted base matrix built from the eigenvalue ratios."""
    return TransitionMatrix(_basic(cycle, _node_index(j, cycle.m)), provenance=f"basic[{j}]")


def log_offsets(cycle: CycleLike) -> list[np.ndarray]:
    """Affine parts F_j of the log-coordinate maps.

    F_j = A_j (ln v_{0,j} + ln a_{j,1}, ln a_{j,2}, ..., ln a_{j,N}); zero for
    default constants, and always zero when the cycle is given as raw
    matrices.
    """
    if not isinstance(cycle, ValidatedCycle):
        mats = as_basic_matrices(cycle)
        return [np.zeros(M.shape[0]) for M in mats]
    offsets = []
    for conn in cycle.connections:
        f = np.log(np.asarray(conn.scalings, float))
        f[0] += np.log(conn.contraction_offset)
        offsets.append(f[list(conn.permutation)])
    return offsets


@np.errstate(over="ignore", invalid="ignore")
def cyclic_products(mats: list[np.ndarray], j: int, steps: int) -> list[np.ndarray]:
    """One product pass from node j: [M_(j,j), M_(j+1,j), ..., M_(j+steps-1,j)].

    Entry s is the partial turn M_(j+s, j); with steps = m the last entry is
    the full return M^(j).  Every full-return and partial-turn product in
    the package is built here, so they all share one factor order.

    Overflow raises ProductOverflow instead of a numpy warning.  Only the
    last product is checked: an inf or NaN in one product reaches every
    later one (0 * inf is NaN), so a finite last product means the whole
    pass is finite.
    """
    prod = np.eye(mats[0].shape[0])
    out = []
    for step in range(steps):
        prod = mats[(j + step) % len(mats)] @ prod
        out.append(prod)
    if not np.isfinite(prod).all():
        raise ProductOverflow(
            f"cyclic product from node {j} is not finite in double precision; "
            "the basic matrices are too extreme to analyse"
        )
    return out


def full_return_matrix(cycle: CycleLike, j: int) -> TransitionMatrix:
    """M^(j): product of all m basic matrices starting from node j."""
    mats = as_basic_matrices(cycle)
    m = len(mats)
    return TransitionMatrix(cyclic_products(mats, _node_index(j, m), m)[-1],
                            provenance=f"full-return[{j}]")


def partial_turn_matrix(cycle: CycleLike, l: int, j: int) -> TransitionMatrix:
    """M_(l,j): product M_l ... M_j taken cyclically (M_j alone when l == j)."""
    mats = as_basic_matrices(cycle)
    m = len(mats)
    steps = ((_node_index(l, m) - _node_index(j, m)) % m) + 1
    prod = cyclic_products(mats, j, steps)[-1]
    return TransitionMatrix(prod, provenance=f"partial[({l},{j})]")


def negative_entry_indices(cycle: CycleLike) -> list[int]:
    """Sorted node indices whose basic matrix has at least one negative entry.

    An empty result means every transverse eigenvalue is negative, which
    decides stability by the spectral-radius dichotomy alone.
    """
    return _negative_entry_nodes(as_basic_matrices(cycle))


def _negative_entry_nodes(mats: list[np.ndarray]) -> list[int]:
    """negative_entry_indices for basic matrices already checked by
    as_basic_matrices, without copying and checking them again."""
    return [j for j, M in enumerate(mats) if M.min() < 0.0]
