"""Transition matrices of the log-coordinate return maps.

In logarithmic cross-section coordinates eta = (ln w, ln z_1, ..., ln z_nt)
the map from the incoming section of node j to that of node j+1 is affine,
eta -> M_j eta + F_j, with

    M_j = A_j . [ b_{j,1}  0 ... 0 ]        b_{j,1}   = c_j / e_j
                [ b_{j,2}  1 ... 0 ]        b_{j,s+1} = -t_{j,s} / e_j
                [   ...           ]
                [ b_{j,N}  0 ... 1 ]

where A_j is the connection's axis permutation.  Every matrix here is a plain
N x N float array, freshly built on each call.  Only the oracle iterates
points, so it alone builds the offsets F_j (oracle._gmaps).  Full returns
and partial turns are cyclic products of these basic matrices:

    M^(j)    = M_{j-1} ... M_{j+1} M_j                (all m factors)
    M_(l,j)  = M_l ... M_j                            (((l-j) mod m) + 1 factors)

All indices are 0-based and taken mod m.  Products are accumulated in plain
double precision in exact cyclic order (cyclic_products); N and m are
desk-scale here so no balancing is applied.  A pass that overflows is
rejected with ProductOverflow when it is read (_pass, _finite), so inf or
NaN never reaches an eigendecomposition.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .cycle import REALS, CycleValidationError, ValidatedCycle, _integer, _real

__all__ = ["basic_matrix", "full_return_matrix", "partial_turn_matrix", "negative_entry_indices",
           "as_basic_matrices", "ProductOverflow"]


class ProductOverflow(CycleValidationError):
    """A cyclic product of the basic matrices is not finite in double precision."""


CycleLike = Union[ValidatedCycle, Sequence]


def _floats(values) -> np.ndarray:
    """values as a float array: integer, float or bool entries, in an array
    or in nested sequences of real numbers.  The entries of an object array
    are read one by one by the number rule (cycle._real), so only an int
    beyond double range among them becomes -inf or +inf.  ValueError for
    any other entry, so a complex one never loses its imaginary part and a
    string is never parsed."""
    array = np.asarray(values)
    if array.dtype.kind in "biuf":
        return np.asarray(array, float)
    if array.dtype.kind == "O":
        bad = [type(x).__name__ for x in array.flat if not isinstance(x, REALS)]
    else:
        bad = [array.dtype.type.__name__]
    if bad:
        raise ValueError(f"expected real numbers, got {bad[0]} entries")
    return np.array([_real(x, "entry") for x in array.flat]).reshape(array.shape)


def _entries(matrix) -> np.ndarray:
    """The float entries of matrix (_floats); ValueError unless 2-D, square,
    at least 1 x 1 and finite."""
    M = _floats(matrix)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or not M.size or not np.isfinite(M).all():
        raise _not_a_matrix(M.shape)
    return M


def _not_a_matrix(shape: tuple[int, ...]) -> ValueError:
    """The error of the matrix rule (_entries) for a matrix of that shape."""
    return ValueError(f"expected a finite square matrix, got shape {shape}")


def _node_index(j, m: int) -> int:
    """j as an int when it is an integer naming one of the m nodes;
    IndexError otherwise (no wrap-around)."""
    if not _integer(j):
        raise IndexError(f"node index must be an integer, got {j!r}")
    if not 0 <= j < m:
        raise IndexError(f"node index {j} out of range for m={m}")
    return int(j)


def as_basic_matrices(cycle: CycleLike) -> list[np.ndarray]:
    """Basic matrices of a ValidatedCycle, or pass through an explicit list.

    Every product / sign routine accepts either form, so a cycle known only
    through its basic transition matrices can be analysed directly.  An
    explicit list must hold matrices that _entries accepts, all of one size
    N >= 2; anything else raises ValueError.
    """
    if isinstance(cycle, ValidatedCycle):
        return [basic_matrix(cycle, j) for j in range(cycle.m)]
    mats = [np.array(_entries(M)) for M in cycle]
    if not mats:
        raise ValueError("empty matrix sequence")
    n = mats[0].shape[0]
    if n < 2:
        raise ValueError("basic transition matrices must be at least 2 x 2 (N >= 2)")
    if any(M.shape != (n, n) for M in mats):
        raise ValueError("basic transition matrices must be same-size")
    return mats


def basic_matrix(cycle: ValidatedCycle, j: int) -> np.ndarray:
    """M_j for node j: permuted base matrix built from the eigenvalue ratios."""
    j = _node_index(j, cycle.m)
    node = cycle.nodes[j]
    base = np.eye(cycle.dimension)
    base[0, 0] = node.contracting / node.expanding
    for s, t in enumerate(node.transverse):
        base[s + 1, 0] = -t / node.expanding
    return base[list(cycle.connections[j].permutation)]


@np.errstate(over="ignore", invalid="ignore")
def cyclic_products(mats, starts: range, steps: int) -> np.ndarray:
    """The product passes from every start node in the range starts, built
    together, for one cycle or for a stack of cycles.  Every full return and
    partial turn in the package is built here, in one factor order.

    mats is the list of a cycle's m basic matrices, or a (B, m, N, N) array
    of B cycles that share m and N.  Returns an array of shape
    (len(starts), steps, N, N), or (B, len(starts), steps, N, N) for a
    stack, whose row i is the pass [M_(j,j), M_(j+1,j), ..., M_(j+steps-1,j)]
    from j = starts[i]; with steps = m its last entry is the full return
    M^(j).  Step s advances every pass of every cycle with one stacked
    matmul over one slice of the matrices laid out twice in cyclic order,
    bit for bit as the single-matrix product: m starts cost m matmul calls,
    not m^2, for any B.  A pass that overflows keeps its inf or NaN and
    raises nothing, so one extreme pass does not stop the analysis of the
    others.
    """
    mats = np.asarray(mats)
    ring = np.concatenate((mats, mats), axis=-3)
    prods = np.empty((steps,) + ring.shape[:-3] + (len(starts),) + ring.shape[-2:])
    prod = np.eye(ring.shape[-1])
    for step in range(steps):
        factors = ring[..., starts.start + step:starts.stop + step, :, :]
        prod = np.matmul(factors, prod, out=prods[step])
    d = prods.ndim                      # move the step axis in front of N, N
    return prods.transpose(tuple(range(1, d - 2)) + (0, d - 2, d - 1))


def _finite(passes: np.ndarray) -> np.ndarray:
    """Whether each pass of cyclic_products in passes is finite, over the
    leading axes.  Its last product decides: an inf or NaN in one product
    reaches every later one (0 * inf is NaN)."""
    return np.isfinite(passes[..., -1, :, :]).all(axis=(-2, -1))


def _overflow(j: int) -> ProductOverflow:
    """The error for a product pass from node j that is not finite."""
    return ProductOverflow(
        f"cyclic product from node {j} is not finite in double precision; "
        "the basic matrices are too extreme to analyse"
    )


def _pass(mats: list[np.ndarray], j: int, steps: int) -> np.ndarray:
    """The pass of cyclic_products from node j over steps factors, as a
    (steps, N, N) array; ProductOverflow naming j unless it is _finite."""
    turns = cyclic_products(mats, range(j, j + 1), steps)[0]
    if not _finite(turns):
        raise _overflow(j)
    return turns


def full_return_matrix(cycle: CycleLike, j: int) -> np.ndarray:
    """M^(j): product of all m basic matrices starting from node j."""
    mats = as_basic_matrices(cycle)
    return _pass(mats, _node_index(j, len(mats)), len(mats))[-1]


def partial_turn_matrix(cycle: CycleLike, l: int, j: int) -> np.ndarray:
    """M_(l,j): product M_l ... M_j taken cyclically (M_j alone when l == j)."""
    mats = as_basic_matrices(cycle)
    m = len(mats)
    l, j = _node_index(l, m), _node_index(j, m)
    return _pass(mats, j, ((l - j) % m) + 1)[-1]


def negative_entry_indices(cycle: CycleLike) -> list[int]:
    """Sorted node indices whose basic matrix has at least one negative entry.

    An empty result means every transverse eigenvalue is negative, which
    decides stability by the spectral-radius dichotomy alone.
    """
    return np.flatnonzero(_negative_entries(as_basic_matrices(cycle))).tolist()


def _negative_entries(mats) -> np.ndarray:
    """Whether each basic matrix has a negative entry, from one min
    reduction over the leading axes of mats: the list of a cycle's m basic
    matrices, or a (B, m, N, N) array of B cycles."""
    return np.asarray(mats).min(axis=(-2, -1)) < 0.0
