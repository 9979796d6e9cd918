"""Local stability indices sigma_j and the cycle classification.

Two regimes, decided by the signs of the basic transition matrices:

* All entries non-negative (every transverse eigenvalue negative): the whole
  question reduces to the spectral radius of one full return.  |lambda_max|
  > 1 gives sigma_j = +inf at every connection (asymptotically stable);
  otherwise sigma_j = -inf everywhere (not an attractor).

* Some matrix M_q has a negative entry (indices q = j_1 < ... < j_L).  The
  full returns are all similar, so the realness/size conditions on
  lambda_max are shared; the sign condition on w_max propagates through
  non-negative partial products, so it suffices to verify the three
  dominant-pair conditions at the checkpoints M^(j_p + 1).  Failure anywhere
  forces sigma_j = -inf for all j.  Otherwise

      sigma_j = min( f_index(v_max of M^(j)),
                     f_index(row s of M_(j_p, j)) over p = 1..L, s = 1..N )

  where the v_max term encodes membership in the attracted set of the full
  return and each partial-turn row demands the corresponding intermediate
  state stay in the negative orthant.

Classification from the indices: any -inf -> not an attractor; any exact 0
-> marginal (no claim made); all +inf -> asymptotically stable; all > 0 ->
essentially asymptotically stable; otherwise (all > -inf, some < 0) the
cycle is fragmentarily asymptotically stable only.

Every index comes from one analysis of a batch of cycles that share m, N
and their negative-entry nodes (_Batch); classify, sigma and
collect_alpha_vectors analyse the batch of one, and _classify_many groups
many cycles into batches.  One stacked product pass
(transition.cyclic_products) builds M_(j,j), M_(j+1,j), ..., M^(j) for
every cycle and every start node j at once, with one stacked matmul per
step: m matmul calls, not m^2, for any number of cycles.  The steps of pass
j are the partial turns ending at the negative-entry nodes and its last step
is the full return.  The full returns are decomposed in at most two stacked
calls (spectral._eigen_decompose_many): first the checkpoints of every
cycle, then the other nodes of the cycles whose checkpoints all hold, so
each full return is decomposed at most once and the checkpoint checks and
v_max[j] share that decomposition.

Each cycle's errors come in the order of a one-cycle reading.  First the
checkpoints in sorted order: a pass that overflows (ProductOverflow), then a
spectral degeneracy (IndeterminateError), then failed conditions, which give
-inf; so a checkpoint that fails still gives -inf when a later pass
overflows.  Then nodes 0..m-1: overflow, degeneracy, conditions (i)/(ii)
failing at a non-checkpoint (ValueError), then a zero direction vector
(findex.ZeroVectorError).  A pass that overflows is left out of the stacked
decomposition, as eig rejects a stack holding inf or NaN.  An error is kept
without its traceback until it is raised, so that it does not keep the
batch's arrays alive.

The minimum over each node's K = 1 + L*N direction vectors is found by
filter, then verify (_first_minima), over one (B*m, K, N) array of the
candidates of every cycle and node of a batch.  The min, max, plain sum and
sum of magnitudes of each vector bound its index: the plain sum of N terms
is within (N - 1) u sum|alpha| of the exact sum (u = 2^-53), the index is
monotone in the sum, and the radius (N + 1) u sum|alpha| leaves room for
rounding the bound itself (_index_bounds).  findex.f_index runs only on the
vectors that can still be the first minimum, so every sigma_j and its
provenance are those of f_index over every vector in order, bit for bit.
classify does this for all j; sigma(cycle, j) for one j, so calling it for
every j repeats the decompositions that classify shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import findex
from .spectral import (
    DEFAULT_TOL,
    SpectralError,
    _eigen_decompose_many,
    _tolerance,
    dominant_eigenvalue,
)
from .transition import (CycleLike, as_basic_matrices, cyclic_products, _negative_entry_nodes,
                         _node_index, _overflow)


class IndeterminateError(RuntimeError):
    """A spectral degeneracy prevented classification (reported, not guessed)."""

    def __init__(self, node: int, cause: Exception):
        super().__init__(f"indeterminate at node {node}: {cause}")
        self.node = node
        self.cause = cause


class Classification(Enum):
    ASYMPTOTICALLY_STABLE = "asymptotically_stable"
    ESSENTIALLY_ASYMPTOTICALLY_STABLE = "essentially_asymptotically_stable"
    FRAGMENTARILY_ASYMPTOTICALLY_STABLE_ONLY = "fragmentarily_asymptotically_stable_only"
    NOT_ATTRACTOR = "not_attractor"
    MARGINAL = "marginal"

    @property
    def short(self) -> str:
        return _SHORT[self]


_SHORT = {
    Classification.ASYMPTOTICALLY_STABLE: "a.s.",
    Classification.ESSENTIALLY_ASYMPTOTICALLY_STABLE: "e.a.s.",
    Classification.FRAGMENTARILY_ASYMPTOTICALLY_STABLE_ONLY: "f.a.s. only",
    Classification.NOT_ATTRACTOR: "not an attractor",
    Classification.MARGINAL: "marginal",
}


@dataclass(frozen=True)
class IndexProvenance:
    """Which direction vector realised sigma_j."""

    source: str
    alpha: tuple[float, ...] | None


@dataclass(frozen=True)
class IndexReport:
    """All sigma_j (along the connection entering node j) plus the verdict."""

    sigma: tuple[float, ...]
    provenance: tuple[IndexProvenance, ...]
    classification: Classification
    tol: float

    def to_dict(self) -> dict:
        return {
            "sigma": [findex.inf_str(s) for s in self.sigma],
            "provenance": [
                {"source": p.source, "alpha": list(p.alpha) if p.alpha else None}
                for p in self.provenance
            ],
            "classification": self.classification.value,
            "tol": self.tol,
        }


def classification_from_sigmas(sigmas) -> Classification:
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


def _checkpoints(m: int, negative: list[int]) -> list[int]:
    """Nodes immediately after a negative-entry matrix, cyclically.

    The sign condition on w_max propagates through the non-negative factors
    between consecutive negative matrices, so these are exactly the indices
    where it must be verified directly.
    """
    return sorted({(q + 1) % m for q in negative})


def _sigma_nonnegative(full0: np.ndarray, tol: float) -> float:
    """Spectral-radius dichotomy when every basic matrix is non-negative."""
    eigenvalues = np.linalg.eigvals(full0)
    try:
        idx = dominant_eigenvalue(eigenvalues, tol)
    except SpectralError as exc:
        raise IndeterminateError(0, exc) from exc
    return math.inf if abs(eigenvalues[idx]) > 1.0 else -math.inf


_U = 2.0 ** -53                              # unit roundoff of double precision
_ENDS = np.array([-1.0, 1.0])[:, None, None]   # sum - radius, sum + radius


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _index_bounds(alphas: np.ndarray) -> np.ndarray:
    """Bounds lo <= findex.f_index(alpha) <= hi for every vector alpha along
    the last axis of the (rows, K, N) array alphas (finite, nonzero), as a
    (2, rows, K) array [lo, hi], found without an exact sum.

    min >= 0 gives +inf and max <= 0 gives -inf, and so do both bounds.
    Otherwise the index is S / max for S < 0, -S / min for S > 0 and 0 at S = 0, where S
    is the correctly rounded sum that f_index takes with math.fsum; each
    branch is one correctly rounded division, so the index is monotone in
    S.  Any order of plain summation of the N terms lands within
    (N - 1) u sum|alpha| of the exact sum (u = 2^-53; Higham's gamma_{N-1}).
    The radius (N + 1) u sum|alpha| also covers the rounding of the radius
    and of sum -+ radius, so S lies in [sum - radius, sum + radius] and the
    index between its values at the two ends.  A bound that overflows to
    NaN compares false both ways, so it never excludes a vector.
    """
    radius = np.abs(alphas).sum(axis=-1) * ((alphas.shape[-1] + 1) * _U)
    ends = alphas.sum(axis=-1) + _ENDS * radius
    den = np.where(ends < 0.0, alphas.max(axis=-1), -alphas.min(axis=-1))
    # only a vector of one sign lacks a positive denominator, and both its
    # ends carry that sign: dividing by +0.0 gives its exact +-inf
    return ends / np.where(den > 0.0, den, 0.0)


def _first_minima(alphas: np.ndarray) -> list[tuple[float, int]]:
    """(value, k) for each row of the (rows, K, N) array alphas: the first
    of the smallest findex.f_index values over the row's K vectors (each
    finite and nonzero), and its position k.

    Filter, then verify: f_index runs only on the vectors whose lower bound
    (_index_bounds) reaches the smallest upper bound of their row, and not
    on those whose bounds meet at a nonzero value (a zero could carry
    either sign).  A vector left out has an index above some other's, so it
    is never a minimum, and value and k are those of the exhaustive loop.
    """
    lo, hi = _index_bounds(alphas)
    out = []
    for row, los, his, top in zip(alphas, lo.tolist(), hi.tolist(), hi.min(axis=1).tolist()):
        best = None
        for k, (low, high) in enumerate(zip(los, his)):
            if low > top:
                continue
            value = high if low == high != 0.0 else findex.f_index(row[k])
            if best is None or value < best[0]:
                best = (value, k)
        out.append(best)
    return out


def _bare(exc: Exception) -> Exception:
    """exc, and the error it was raised from, without a traceback: a kept
    traceback would keep the frames of a batch, and all their arrays, alive."""
    for e in (exc, exc.__cause__, exc.__context__):
        if e is not None:
            e.__traceback__ = None
    return exc


def _raised(result):
    """A result of _Batch.indices or _classify_many, or its error raised."""
    if isinstance(result, Exception):
        raise result
    return result


class _Batch:
    """The transition-matrix analysis of B cycles that share m, N and their
    negative-entry nodes, for one call.

    The product passes of every cycle from every node are built together up
    front (cyclic_products).  Full returns are decomposed in stacked calls
    (spectral._eigen_decompose_many), and what the analysis reads of each,
    its dominant-pair conditions, v_max or its degeneracy, is kept.  A pass
    is checked for overflow when first read.  Nothing outlives the call that
    made the object.
    """

    def __init__(self, mats: list[list[np.ndarray]], negative: list[int], tol: float):
        self.tol = tol
        self.negative = negative
        self.m, self.n = len(mats[0]), len(mats[0][0])
        self._passes = cyclic_products(np.array(mats), range(self.m), self.m)
        self._finite = np.isfinite(self._passes[:, :, -1]).all(axis=(2, 3)).tolist()
        self._spectra: dict[tuple[int, int], tuple] = {}

    @classmethod
    def of(cls, cycle: CycleLike, tol: float) -> "_Batch":
        """The batch of one cycle."""
        tol = _tolerance(tol)
        mats = as_basic_matrices(cycle)
        return cls([mats], _negative_entry_nodes(mats), tol)

    def decompose(self, cells: list[tuple[int, int]]) -> None:
        """Decompose, in one stacked call, the finite full returns M^(j) of
        cycle b for the pairs (b, j) in cells not decomposed yet."""
        cells = [c for c in cells if self._finite[c[0]][c[1]] and c not in self._spectra]
        if cells:
            spectra = _eigen_decompose_many(self._passes[tuple(zip(*cells)) + (-1,)], self.tol)
            self._spectra.update(zip(cells, zip(spectra.conditions, spectra.errors,
                                                spectra.v_max().tolist())))

    def conditions(self, b: int, j: int) -> tuple[bool, bool, bool]:
        """Dominant-pair conditions (i), (ii), (iii) of M^(j) of cycle b,
        once decompose has seen it."""
        if not self._finite[b][j]:
            raise _overflow(j)
        conditions, error, _ = self._spectra[b, j]
        if error is not None:
            raise IndeterminateError(j, error) from error
        return conditions

    def check_v_max(self, b: int, j: int) -> None:
        """Raise unless v_max of M^(j) of cycle b is a direction vector."""
        if not all(self.conditions(b, j)[:2]):
            raise ValueError(
                "dominant-pair conditions fail; sigma_j is -inf by the zero-measure "
                "argument, not a minimum of indices"
            )

    def rows(self, cycles: list[int], nodes: list[int]) -> np.ndarray:
        """The other K - 1 direction vectors of sigma_j for each cycle b in
        cycles and each j in nodes: the rows of M_(j_1, j), ..., M_(j_L, j),
        as a (len(cycles), len(nodes), L*N, N) array.  Passes are read
        unchecked; check_v_max(b, j) checks pass j of cycle b."""
        if not self.negative:
            raise ValueError("no negative entries: the spectral-radius dichotomy applies")
        b = np.array(cycles)[:, None, None]
        j = np.array(nodes)[None, :, None]
        turns = self._passes[b, j, (np.array(self.negative) - j) % self.m]
        return turns.reshape(turns.shape[:2] + (-1, self.n))

    def v_max(self, cycles: list[int], nodes: list[int]) -> np.ndarray:
        """v_max of M^(j), the first direction vector of sigma_j, for each
        cycle b in cycles and j in nodes, as a (len(cycles), len(nodes), N)
        array; check_v_max checks each."""
        return np.array([[self._spectra[b, j][2] for j in nodes] for b in cycles])

    def indices(self, nodes: list[int]) -> list:
        """For each cycle, sigma_j and its provenance for each j in nodes, or
        the error that ends that cycle's analysis (_bare), in the order the
        module docstring gives.  The checkpoints of every cycle are
        decomposed in one stacked call, the nodes of the cycles whose
        checkpoints all hold in a second."""
        cycles = range(len(self._finite))
        if not self.negative:
            return [_attempt(self._dichotomy, b, len(nodes)) for b in cycles]
        checkpoints = _checkpoints(self.m, self.negative)
        self.decompose([(b, q) for b in cycles for q in checkpoints])
        holds = [_attempt(self._holds, b, checkpoints) for b in cycles]
        fail = [(-math.inf, IndexProvenance(source="dominant-pair-conditions-fail", alpha=None))]
        out = [fail * len(nodes) if h is False else h for h in holds]
        held = [b for b in cycles if holds[b] is True]
        if held:
            self._minima(held, nodes, out)
        return out

    def _dichotomy(self, b: int, count: int) -> list[tuple[float, IndexProvenance]]:
        """The non-negative regime's index of cycle b, count times."""
        if not self._finite[b][0]:
            raise _overflow(0)
        value = _sigma_nonnegative(self._passes[b, 0, -1], self.tol)
        return [(value, IndexProvenance(source="nonnegative-dichotomy", alpha=None))] * count

    def _holds(self, b: int, checkpoints: list[int]) -> bool:
        """Whether all three dominant-pair conditions hold at every
        checkpoint of cycle b, read in order."""
        return all(all(self.conditions(b, q)) for q in checkpoints)

    def _minima(self, cycles: list[int], nodes: list[int], out: list) -> None:
        """Into out[b] for each cycle b in cycles: sigma_j for each j in
        nodes, as the first minimum (_first_minima) over its K direction
        vectors, all stacked into one (cycles * nodes, K, N) array; or the
        error of the first node that fails its checks."""
        self.decompose([(b, j) for b in cycles for j in nodes])
        rows = self.rows(cycles, nodes)
        nonzero = rows.any(axis=3).all(axis=2).tolist()
        for i, b in enumerate(cycles):
            out[b] = _attempt(self._check, b, nodes, rows[i], nonzero[i])
        kept = [i for i, b in enumerate(cycles) if out[b] is None]
        if not kept:
            return
        alphas = np.empty((len(kept), len(nodes), 1 + rows.shape[2], self.n))
        alphas[:, :, 0] = self.v_max([cycles[i] for i in kept], nodes)
        alphas[:, :, 1:] = rows[kept]
        minima = iter(_first_minima(alphas.reshape(-1, alphas.shape[2], self.n)))
        for i, row in zip(kept, alphas):
            out[cycles[i]] = [self._index(j, alpha, next(minima)) for j, alpha in zip(nodes, row)]

    def _check(self, b: int, nodes: list[int], rows: np.ndarray, nonzero: list[bool]) -> None:
        """Raise at the first node j of cycle b whose v_max or rows are no
        direction vectors."""
        for j, node_rows, node_nonzero in zip(nodes, rows, nonzero):
            self.check_v_max(b, j)
            if not node_nonzero:        # f_index raises at the first zero row
                for alpha in node_rows:
                    findex.f_index(alpha)

    def _index(self, j: int, alphas: np.ndarray, minimum: tuple[float, int]):
        """(sigma_j, provenance) from the first minimum (value, k) over alphas."""
        value, k = minimum
        if k == 0:
            tag = f"v_max[{j}]"
        else:
            p, s = divmod(k - 1, self.n)
            tag = f"M_({self.negative[p]},{j}) row {s}"
        return value, IndexProvenance(source=tag, alpha=tuple(alphas[k].tolist()))


def _attempt(fn, *args):
    """fn(*args), or the error of the analysis it raised, _bare."""
    try:
        return fn(*args)
    except (ValueError, IndeterminateError) as exc:
        return _bare(exc)


def _classify_many(cycles, tol: float = DEFAULT_TOL) -> list:
    """classify of each cycle: its IndexReport, or the error classify raises
    for it, kept without a traceback.

    The cycles are analysed in batches (_Batch) of those that share m, N
    and their negative-entry nodes.  A tol that breaks its rule is raised.
    """
    tol = _tolerance(tol)
    out: list = [None] * len(cycles)
    groups: dict[tuple, list[tuple[int, list[np.ndarray]]]] = {}
    for i, cycle in enumerate(cycles):
        try:
            mats = as_basic_matrices(cycle)
        except (TypeError, ValueError) as exc:
            out[i] = _bare(exc)
            continue
        key = (len(mats), mats[0].shape[0], tuple(_negative_entry_nodes(mats)))
        groups.setdefault(key, []).append((i, mats))
    for (m, _, negative), members in groups.items():
        batch = _Batch([mats for _, mats in members], list(negative), tol)
        for (i, _), result in zip(members, batch.indices(list(range(m)))):
            out[i] = result if isinstance(result, Exception) else _report(result, tol)
    return out


def _report(indices, tol: float) -> IndexReport:
    sigmas, provenance = zip(*indices)
    return IndexReport(
        sigma=sigmas,
        provenance=provenance,
        classification=classification_from_sigmas(sigmas),
        tol=tol,
    )


def collect_alpha_vectors(cycle: CycleLike, j: int, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Direction vectors whose indices are minimised to obtain sigma_j.

    v_max of M^(j) first, then the N rows of each partial turn M_(j_p, j)
    ending at a negative-entry matrix: K = 1 + L*N vectors in total.
    """
    batch = _Batch.of(cycle, tol)
    j = _node_index(j, batch.m)
    rows = batch.rows([0], [j])[0, 0]
    batch.decompose([(0, j)])
    batch.check_v_max(0, j)
    return [batch.v_max([0], [j])[0, 0], *rows]


def sigma(cycle: CycleLike, j: int, tol: float = DEFAULT_TOL) -> float:
    """Local stability index along the connection entering node j."""
    batch = _Batch.of(cycle, tol)
    [indices] = batch.indices([_node_index(j, batch.m)])
    return _raised(indices)[0][0]


def classify(cycle: CycleLike, tol: float = DEFAULT_TOL) -> IndexReport:
    """Compute every sigma_j and classify the cycle.

    Raises IndeterminateError when a spectral degeneracy (no admissible
    dominant eigenvalue, or a defective full return) blocks the decision,
    and ValueError, before any decomposition, when tol breaks its rule.
    """
    [report] = _classify_many([cycle], tol)
    return _raised(report)
