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
and their negative-entry nodes (_Batch; _Batch.indices gives its one
stacked decomposition and each cycle's error order).  classify, sigma and
collect_alpha_vectors analyse the batch of one, and _classify_many groups
many cycles into batches.  Each minimum over a node's K = 1 + L*N direction
vectors is that of findex.f_index over every vector in order, bit for bit
(_first_minima).  Calling sigma(cycle, j) for every j repeats the
decompositions that classify shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import findex
from .spectral import (DEFAULT_TOL, SpectralError, _attempt, _converged, _eigen_decompose_many,
                       _tolerance, dominant_eigenvalue)
from .transition import (CycleLike, as_basic_matrices, cyclic_products, _finite,
                         _negative_entry_nodes, _node_index, _overflow)


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


_U = 2.0 ** -53                              # unit roundoff of double precision
_ENDS = np.array([-1.0, 1.0])[:, None, None]   # sum - radius, sum + radius


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _index_bounds(alphas: np.ndarray) -> np.ndarray:
    """Bounds lo <= findex.f_index(alpha) <= hi for every vector alpha along
    the last axis of the (rows, K, N) array alphas (finite, nonzero), as a
    (2, rows, K) array [lo, hi], found without an exact sum.

    min >= 0 gives +inf and max <= 0 gives -inf, and so do both bounds.
    Otherwise the index is S / max, -S / min or 0 as the correctly rounded
    sum S that f_index takes (math.fsum) is negative, positive or zero: one
    correctly rounded division, so monotone in S.  Any order of plain
    summation of the N terms lands within (N - 1) u sum|alpha| of the exact
    sum (u = 2^-53; Higham's gamma_{N-1}).  The radius (N + 1) u sum|alpha|
    also covers the rounding of the radius and of sum -+ radius, so S lies
    in [sum - radius, sum + radius] and the index between its values at the
    two ends.  A bound that overflows to NaN compares false both ways, so it
    never excludes a vector.
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


class _Batch:
    """The transition-matrix analysis of B cycles that share m, N and their
    negative-entry nodes, for one call.  It builds every product pass up
    front, decomposes the full returns it reads in one stacked call, and
    keeps their dominant-pair conditions, v_max or degeneracy.
    """

    def __init__(self, mats: list[list[np.ndarray]], negative: list[int], tol: float):
        self.tol = tol
        self.negative = negative
        self.m, self.n = len(mats[0]), len(mats[0][0])
        self._passes = cyclic_products(np.array(mats), range(self.m), self.m)
        self._finite = _finite(self._passes).tolist()
        self._spectra: dict[tuple[int, int], tuple] = {}

    @classmethod
    def of(cls, cycle: CycleLike, tol: float) -> "_Batch":
        """The batch of one cycle."""
        tol = _tolerance(tol)
        mats = as_basic_matrices(cycle)
        return cls([mats], _negative_entry_nodes(mats), tol)

    def decompose(self, cells: list[tuple[int, int]]) -> None:
        """Decompose, in one stacked call, the finite full returns M^(j) of
        cycle b for the pairs (b, j) in cells; eig rejects a stack holding
        inf or NaN."""
        cells = [c for c in cells if self._finite[c[0]][c[1]]]
        if cells:
            spectra = _eigen_decompose_many(self._passes[tuple(zip(*cells)) + (-1,)], self.tol)
            v_max = spectra.basis_inverse[np.arange(len(cells)), spectra.index].real.tolist()
            self._spectra.update(zip(cells, zip(spectra.conditions, spectra.errors, v_max)))

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
        """The rows of M_(j_1, j), ..., M_(j_L, j) for each cycle b in cycles
        and each j in nodes, as a (len(cycles), len(nodes), L*N, N) array,
        read unchecked (check_v_max(b, j) checks pass j of cycle b)."""
        if not self.negative:
            raise ValueError("no negative entries: the spectral-radius dichotomy applies")
        b = np.array(cycles)[:, None, None]
        j = np.array(nodes)[None, :, None]
        turns = self._passes[b, j, (np.array(self.negative) - j) % self.m]
        return turns.reshape(turns.shape[:2] + (-1, self.n))

    def alphas(self, cycles: list[int], nodes: list[int], rows: np.ndarray) -> np.ndarray:
        """All K direction vectors of sigma_j, v_max of M^(j) (check_v_max(b, j)
        checks it) in front of the rows of the same cycles and nodes."""
        alphas = np.empty(rows.shape[:2] + (1 + rows.shape[2], self.n))
        alphas[:, :, 0] = [[self._spectra[b, j][2] for j in nodes] for b in cycles]
        alphas[:, :, 1:] = rows
        return alphas

    def indices(self, nodes: list[int]) -> list:
        """For each cycle, sigma_j and its provenance for each j in nodes, or
        the error that ends that cycle's analysis (_attempt).

        One stacked call decomposes the full returns at the checkpoints and
        the given nodes of every cycle, so the checkpoint checks and v_max[j]
        share one decomposition.  Each cycle's errors come in the order of a
        one-cycle reading.  First the checkpoints in sorted order: a pass
        that overflows (ProductOverflow), then a spectral degeneracy
        (IndeterminateError), then failed conditions, which give -inf even
        when a later pass overflows or a given node is degenerate.  Then the
        given nodes in order: overflow, degeneracy, conditions (i)/(ii)
        failing (ValueError), then a zero direction vector
        (findex.ZeroVectorError).  Nodes not given are never decomposed.
        """
        cycles = range(len(self._finite))
        fails = (ValueError, IndeterminateError)
        if not self.negative:
            return [_attempt(fails, self._dichotomy, b, len(nodes)) for b in cycles]
        # the sign condition on w_max propagates through the non-negative
        # factors between negative-entry matrices, so it is checked directly
        # only at the nodes just after one
        checkpoints = sorted({(q + 1) % self.m for q in self.negative})
        read = set(checkpoints).union(nodes)
        self.decompose([(b, j) for b in cycles for j in read])
        holds = [_attempt(fails, self._holds, b, checkpoints) for b in cycles]
        fail = [(-math.inf, IndexProvenance(source="dominant-pair-conditions-fail", alpha=None))]
        out = [fail * len(nodes) if h is False else h for h in holds]
        held = [b for b in cycles if holds[b] is True]
        if not held:
            return out
        rows = self.rows(held, nodes)
        nonzero = rows.any(axis=3).all(axis=2).tolist()
        for i, b in enumerate(held):
            out[b] = _attempt(fails, self._check, b, nodes, rows[i], nonzero[i])
        kept = [i for i, b in enumerate(held) if out[b] is None]
        if not kept:
            return out
        alphas = self.alphas([held[i] for i in kept], nodes, rows[kept])
        minima = iter(_first_minima(alphas.reshape(-1, alphas.shape[2], self.n)))
        for i, row in zip(kept, alphas):
            out[held[i]] = [self._index(j, alpha, next(minima)) for j, alpha in zip(nodes, row)]
        return out

    def _dichotomy(self, b: int, count: int) -> list[tuple[float, IndexProvenance]]:
        """The non-negative regime's index of cycle b, count times.  It takes
        eigvals, not _eigen_decompose_many, which would make a defective full
        return indeterminate instead of +-inf."""
        if not self._finite[b][0]:
            raise _overflow(0)
        try:
            eigenvalues = _converged(np.linalg.eigvals, self._passes[b, 0, -1])
            idx = dominant_eigenvalue(eigenvalues, self.tol)
        except SpectralError as exc:
            raise IndeterminateError(0, exc) from exc
        value = math.inf if abs(eigenvalues[idx]) > 1.0 else -math.inf
        return [(value, IndexProvenance(source="nonnegative-dichotomy", alpha=None))] * count

    def _holds(self, b: int, checkpoints: list[int]) -> bool:
        """Whether all three dominant-pair conditions hold at every
        checkpoint of cycle b, read in order."""
        return all(all(self.conditions(b, q)) for q in checkpoints)

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


def _classify_many(cycles, tol: float = DEFAULT_TOL) -> list:
    """classify of each cycle: its IndexReport, or the error classify raises
    for it (_attempt), from batches (_Batch).  A tol that breaks its rule is
    raised.
    """
    tol = _tolerance(tol)
    out: list = [None] * len(cycles)
    groups: dict[tuple, list[tuple[int, list[np.ndarray]]]] = {}
    for i, cycle in enumerate(cycles):
        mats = _attempt((TypeError, ValueError), as_basic_matrices, cycle)
        if isinstance(mats, Exception):
            out[i] = mats
            continue
        key = (len(mats), mats[0].shape[0], tuple(_negative_entry_nodes(mats)))
        groups.setdefault(key, []).append((i, mats))
    for (m, _, negative), members in groups.items():
        batch = _Batch([mats for _, mats in members], list(negative), tol)
        for (i, _), result in zip(members, batch.indices(list(range(m)))):
            if isinstance(result, Exception):
                out[i] = result
                continue
            sigmas, provenance = zip(*result)
            out[i] = IndexReport(sigmas, provenance, classification_from_sigmas(sigmas), tol)
    return out


def collect_alpha_vectors(cycle: CycleLike, j: int, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Direction vectors whose indices are minimised to obtain sigma_j.

    v_max of M^(j) first, then the N rows of each partial turn M_(j_p, j)
    ending at a negative-entry matrix: K = 1 + L*N vectors in total.
    """
    batch = _Batch.of(cycle, tol)
    j = _node_index(j, batch.m)
    rows = batch.rows([0], [j])
    batch.decompose([(0, j)])
    batch.check_v_max(0, j)
    return list(batch.alphas([0], [j], rows)[0, 0])


def sigma(cycle: CycleLike, j: int, tol: float = DEFAULT_TOL) -> float:
    """Local stability index along the connection entering node j."""
    batch = _Batch.of(cycle, tol)
    [indices] = batch.indices([_node_index(j, batch.m)])
    if isinstance(indices, Exception):
        raise indices
    return indices[0][0]


def classify(cycle: CycleLike, tol: float = DEFAULT_TOL) -> IndexReport:
    """Compute every sigma_j and classify the cycle.

    Raises IndeterminateError when a spectral degeneracy (no admissible
    dominant eigenvalue, a defective full return, or an eigenvalue routine
    that does not converge) blocks the decision, and ValueError, before any
    decomposition, when tol breaks its rule.
    """
    [report] = _classify_many([cycle], tol)
    if isinstance(report, Exception):
        raise report
    return report
