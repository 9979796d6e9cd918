"""Local stability indices sigma_j and the cycle classification.

Two regimes, decided by the signs of the basic transition matrices:

* All entries non-negative (every transverse eigenvalue negative): the whole
  question reduces to the spectral radius of one full return.  |lambda_max|
  > 1 gives sigma_j = +inf at every connection (asymptotically stable);
  otherwise sigma_j = -inf everywhere (not an attractor).  Only the
  eigenvalues are read, so a defective full return is decided too.

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
and their negative-entry nodes (_Batch).  Both regimes read one stacked
decomposition (_Batch.indices), and each cycle's first error is read as a
value, in the order of a one-cycle reading (_Batch._fault).  classify,
sigma and collect_alpha_vectors analyse the batch of one, and
_classify_many groups many cycles into batches.  It also takes one float
(B, m, N, N) array of B cycles, as rsp-sweep hands it whole grid rows: the
matrix rule checks the stack once (transition._basic_stack), and one min
reduction finds every cycle's negative-entry nodes
(transition._negative_entries).  Each minimum over a
node's K = 1 + L*N direction vectors is that of findex.f_index over every
vector in order, bit for bit (_first_minima).  Calling sigma(cycle, j) for
every j repeats the decompositions that classify shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import findex
from .spectral import DEFAULT_TOL, _attempt, _eigen_decompose_many, _tolerance
from .transition import (CycleLike, as_basic_matrices, cyclic_products, _basic_stack, _finite,
                         _negative_entries, _node_index, _overflow)


class IndeterminateError(RuntimeError):
    """A spectral degeneracy prevented classification (reported, not guessed).

    Its args are (node, cause), so it pickles, and its message is formatted
    only when it is read (str)."""

    def __init__(self, node: int, cause: Exception):
        super().__init__(node, cause)
        self.node = node
        self.cause = self.__cause__ = cause

    def __str__(self) -> str:
        return f"indeterminate at node {self.node}: {self.cause}"


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
    if -math.inf in sigmas:
        return Classification.NOT_ATTRACTOR
    if 0.0 in sigmas:
        return Classification.MARGINAL
    if sigmas.count(math.inf) == len(sigmas):
        return Classification.ASYMPTOTICALLY_STABLE
    if all(map((0.0).__lt__, sigmas)):
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

    Filter, then verify, by array operations: a vector is a candidate unless
    its lower bound (_index_bounds) exceeds the smallest upper bound of its
    row, so a NaN bound excludes nothing.  A candidate whose bounds meet at a
    nonzero value (a zero could carry either sign) has that value, and the
    others go through findex._f_index.  A vector left out is never a minimum,
    and argmin takes the first of equal minima, as the exhaustive loop does.
    """
    lo, hi = _index_bounds(alphas)
    candidate = ~(lo > hi.min(axis=1)[:, None])
    values = np.where(candidate, hi, math.inf)
    rows, ks = np.nonzero(candidate & ~((lo == hi) & (lo != 0.0)))
    values[rows, ks] = [findex._f_index(alpha) for alpha in alphas[rows, ks].tolist()]
    k = values.argmin(axis=1)
    return list(zip(values[np.arange(len(k)), k].tolist(), k.tolist()))


_FAIL = (-math.inf, IndexProvenance(source="dominant-pair-conditions-fail", alpha=None))


class _Batch:
    """The transition-matrix analysis of B cycles that share m, N and their
    negative-entry nodes, for one call.  It builds every product pass up
    front, decomposes the full returns it reads in one stacked call, and
    keeps their spectra.
    """

    def __init__(self, mats: list[list[np.ndarray]], negative: list[int], tol: float):
        self.tol = tol
        self.negative = negative
        self.m, self.n = len(mats[0]), len(mats[0][0])
        self._passes = cyclic_products(np.array(mats), range(self.m), self.m)
        self._finite = _finite(self._passes).tolist()

    @classmethod
    def of(cls, cycle: CycleLike, tol: float) -> "_Batch":
        """The batch of one cycle."""
        tol = _tolerance(tol)
        mats = as_basic_matrices(cycle)
        return cls([mats], np.flatnonzero(_negative_entries(mats)).tolist(), tol)

    def decompose(self, cells: list[tuple[int, int]]) -> None:
        """Decompose, in one stacked call, the finite full returns M^(j) of
        cycle b for the pairs (b, j) in cells; eig rejects a stack holding
        inf or NaN."""
        cells = [c for c in cells if self._finite[c[0]][c[1]]]
        self._at = {c: i for i, c in enumerate(cells)}
        if cells:
            self._spectra = _eigen_decompose_many(self._passes[tuple(zip(*cells)) + (-1,)],
                                                  self.tol)
            rows = np.arange(len(cells)), self._spectra.index
            self._v_max = self._spectra.basis_inverse[rows].real.tolist()

    def rows(self, cycles: list[int], nodes: list[int]) -> np.ndarray:
        """The rows of M_(j_1, j), ..., M_(j_L, j) for each cycle b in cycles
        and each j in nodes, as a (len(cycles), len(nodes), L*N, N) array,
        read unchecked (_Batch._fault checks them)."""
        if not self.negative:
            raise ValueError("no negative entries: the spectral-radius dichotomy applies")
        b = np.array(cycles)[:, None, None]
        j = np.array(nodes)[None, :, None]
        turns = self._passes[b, j, (np.array(self.negative) - j) % self.m]
        return turns.reshape(turns.shape[:2] + (-1, self.n))

    def alphas(self, cycles: list[int], nodes: list[int], rows: np.ndarray) -> np.ndarray:
        """All K direction vectors of sigma_j, v_max of M^(j) (_Batch._fault
        checks it) in front of the rows of the same cycles and nodes."""
        alphas = np.empty(rows.shape[:2] + (1 + rows.shape[2], self.n))
        alphas[:, :, 0] = [[self._v_max[self._at[b, j]] for j in nodes] for b in cycles]
        alphas[:, :, 1:] = rows
        return alphas

    def indices(self, nodes: list[int]) -> list:
        """For each cycle, sigma_j and its provenance for each j in nodes, or
        the error that ends that cycle's analysis (_Batch._fault).

        One stacked call decomposes the full returns at the checkpoints and
        the given nodes of every cycle, so the checkpoint checks and v_max[j]
        share one decomposition.  Nodes not given are never decomposed.
        Each cycle's errors come in the order of a one-cycle reading: its
        checkpoints in sorted order, then the given nodes in order.  Without
        negative entries it decomposes M^(0) of every cycle alone
        (_Batch._dichotomy).
        """
        cycles = range(len(self._finite))
        if not self.negative:
            self.decompose([(b, 0) for b in cycles])
            return [self._dichotomy(b, len(nodes)) for b in cycles]
        # the sign condition on w_max propagates through the non-negative
        # factors between negative-entry matrices, so it is checked directly
        # only at the nodes just after one
        checkpoints = sorted({(q + 1) % self.m for q in self.negative})
        self.decompose([(b, j) for b in cycles for j in set(checkpoints).union(nodes)])
        out = [self._fault(b, checkpoints) for b in cycles]
        out = [[_FAIL] * len(nodes) if f is _FAIL else f for f in out]
        held = [b for b in cycles if out[b] is None]
        if not held:
            return out
        rows = self.rows(held, nodes)
        nonzero = rows.any(axis=3).all(axis=2).tolist()
        for i, b in enumerate(held):
            out[b] = self._fault(b, nodes, rows[i], nonzero[i])
        kept = [i for i, b in enumerate(held) if out[b] is None]
        if not kept:
            return out
        alphas = self.alphas([held[i] for i in kept], nodes, rows[kept]).reshape(
            -1, 1 + rows.shape[2], self.n)
        minima = _first_minima(alphas)
        found = iter(zip(minima, alphas[np.arange(len(alphas)), [k for _, k in minima]].tolist()))
        for i in kept:
            out[held[i]] = [self._index(j, *next(found)) for j in nodes]
        return out

    def _dichotomy(self, b: int, count: int):
        """The non-negative regime's index of cycle b, count times, or its
        error.  Only the eigenvalues of M^(0) are read, so a defective full
        return keeps its +-inf."""
        if not self._finite[b][0]:
            return _overflow(0)
        spectra, i = self._spectra, self._at[b, 0]
        error = spectra.error(i, eigenvalues_only=True)
        if error is not None:
            return IndeterminateError(0, error)
        value = math.inf if abs(spectra.eigenvalues[i, spectra.index[i]]) > 1.0 else -math.inf
        return [(value, IndexProvenance(source="nonnegative-dichotomy", alpha=None))] * count

    def _fault(self, b: int, nodes: list[int], rows: np.ndarray | None = None,
               nonzero: list[bool] | None = None):
        """What ends the analysis of cycle b at the first of nodes, as a
        value, or None.  At each node in order: a pass that overflows
        (ProductOverflow), a spectral degeneracy (IndeterminateError), then
        failed conditions.  At checkpoints (rows None) that is any of the
        three, which makes every sigma_j -inf (_FAIL).  At given nodes, with
        their rows and whether none is zero, it is (i) or (ii) (ValueError),
        then a zero row (findex.ZeroVectorError).
        """
        for k, j in enumerate(nodes):
            if not self._finite[b][j]:
                return _overflow(j)
            error = self._spectra.error(self._at[b, j])
            if error is not None:
                return IndeterminateError(j, error)
            conditions = self._spectra.conditions[self._at[b, j]]
            if rows is None:
                if not all(conditions):
                    return _FAIL
            elif not all(conditions[:2]):
                return ValueError("dominant-pair conditions fail; sigma_j is -inf by the "
                                  "zero-measure argument, not a minimum of indices")
            elif not nonzero[k]:                        # f_index raises at the first zero row
                return _attempt((findex.ZeroVectorError,), findex.f_index,
                                rows[k, rows[k].any(axis=1).argmin()])
        return None

    def _index(self, j: int, minimum: tuple[float, int], alpha: list[float]):
        """(sigma_j, provenance) from its first minimum (value, k) and vector alpha."""
        value, k = minimum
        if k == 0:
            tag = f"v_max[{j}]"
        else:
            p, s = divmod(k - 1, self.n)
            tag = f"M_({self.negative[p]},{j}) row {s}"
        return value, IndexProvenance(source=tag, alpha=tuple(alpha))


def _classify_many(cycles, tol: float = DEFAULT_TOL) -> list:
    """classify of each cycle: its IndexReport, or the error classify raises
    for it (_attempt), from batches (_Batch) of the cycles that share N and
    their negative-entry nodes.  cycles is a sequence of cycles, or one
    float (B, m, N, N) array of B cycles' basic matrices, which is checked
    at once (transition._basic_stack) and whose negative-entry nodes come
    from one min reduction.  A tol that breaks its rule is raised.
    """
    tol = _tolerance(tol)
    out = _basic_stack(cycles)
    if out is None:
        mats = [_attempt((TypeError, ValueError), as_basic_matrices, cycle) for cycle in cycles]
        out = [m if isinstance(m, Exception) else None for m in mats]
        patterns = [None if e else _negative_entries(m).tolist() for m, e in zip(mats, out)]
    else:
        mats, patterns = cycles, _negative_entries(cycles).tolist()
    groups: dict[tuple, list[int]] = {}
    for i, pattern in enumerate(patterns):
        if out[i] is None:
            groups.setdefault((len(mats[i][0]), *pattern), []).append(i)
    for (_, *pattern), members in groups.items():
        group = [mats[i] for i in members] if isinstance(mats, list) else mats[members]
        batch = _Batch(group, [j for j, neg in enumerate(pattern) if neg], tol)
        for i, result in zip(members, batch.indices(list(range(batch.m)))):
            if not isinstance(result, Exception):
                sigmas, provenance = zip(*result)
                result = IndexReport(sigmas, provenance, classification_from_sigmas(sigmas), tol)
            out[i] = result
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
    fault = batch._fault(0, [j], rows[0], [True])
    if fault is not None:
        raise fault
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
