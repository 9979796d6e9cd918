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

Every index comes from one path, _Batch.indices, over a batch of cycles
that share m, N and their negative-entry nodes (_Batch).  It gives each
sigma_j with its provenance and its K = 1 + L*N candidate vectors, from one
stacked decomposition, or each cycle's first error as a value, in the order
of a one-cycle reading (_Batch._fault).  classify, sigma and
collect_alpha_vectors read its result for the batch of one, so the
candidates' minimum is sigma_j and both raise alike; _classify_many groups
many cycles into batches.  It also takes one float (B, m, N, N) array of B
cycles, as rsp-sweep hands it whole grid rows: the matrix rule checks the
stack once (transition._basic_stack), and one min reduction finds every
cycle's negative-entry nodes (transition._negative_entries).  Each minimum
over the K vectors is that of findex.f_index over every vector in order,
bit for bit (_first_minima).  Calling sigma(cycle, j) for every j repeats
the decompositions that classify shares.
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


_FAIL = (-math.inf, IndexProvenance(source="dominant-pair-conditions-fail", alpha=None), None)


def _no_minimum() -> ValueError:
    """The error of a sigma_j that is -inf by failed conditions, not a minimum."""
    return ValueError("dominant-pair conditions fail; sigma_j is -inf by the "
                      "zero-measure argument, not a minimum of indices")


class _Batch:
    """The transition-matrix analysis of B cycles that share m, N and their
    negative-entry nodes, for one call, on product passes built up front."""

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

    def indices(self, nodes: list[int]) -> list:
        """For each cycle, (sigma_j, provenance, candidates) for each j in
        nodes, or the error that ends that cycle's analysis (_Batch._fault).
        candidates is the (K, N) array whose first minimum of findex.f_index
        is sigma_j (_first_minima), v_max of M^(j) in front of the rows of
        M_(j_1, j), ..., M_(j_L, j), or None where no minimum sets sigma_j.

        One stacked call decomposes the finite full returns at the
        checkpoints and the given nodes of every cycle (M^(0) alone without
        negative entries), so the checkpoints and v_max share one
        decomposition.  Each cycle's errors come in the order of a one-cycle
        reading: its checkpoints in sorted order, then the given nodes in
        order.  Only cycles whose checkpoints hold get partial-turn rows.
        """
        # the sign condition on w_max propagates through the non-negative
        # factors between negative-entry matrices, so it is checked directly
        # only at the nodes just after one
        checkpoints = sorted({(q + 1) % self.m for q in self.negative})
        read = sorted(set(checkpoints).union(nodes)) if self.negative else [0]
        # cells[b][j] is the place of M^(j) of cycle b in the stack, and None
        # where its pass is not finite: eig rejects a stack holding inf or NaN
        picked = [(b, j) for b, finite in enumerate(self._finite) for j in read if finite[j]]
        cells = [[None] * self.m for _ in self._finite]
        for i, (b, j) in enumerate(picked):
            cells[b][j] = i
        spectra = (_eigen_decompose_many(self._passes[tuple(zip(*picked)) + (-1,)], self.tol)
                   if picked else None)
        if not self.negative:
            return [self._dichotomy(spectra, at, len(nodes)) for at in cells]
        out = [self._fault(spectra, at, checkpoints) for at in cells]
        out = [[_FAIL] * len(nodes) if f is _FAIL else f for f in out]
        held = [b for b, f in enumerate(out) if f is None]
        if not held:
            return out
        b, j = np.array(held)[:, None, None], np.array(nodes)[None, :, None]
        turns = self._passes[b, j, (np.array(self.negative) - j) % self.m]
        rows = turns.reshape(turns.shape[:2] + (-1, self.n))
        nonzero = rows.any(axis=3).all(axis=2).tolist()
        for i, c in enumerate(held):
            out[c] = self._fault(spectra, cells[c], nodes, rows[i], nonzero[i])
        kept = [i for i, c in enumerate(held) if out[c] is None]
        at = [cells[held[i]][j] for i in kept for j in nodes]
        alphas = np.empty((len(at), 1 + rows.shape[2], self.n))
        alphas[:, 0] = spectra.basis_inverse[at, [spectra.index[i] for i in at]].real
        alphas[:, 1:] = rows[kept].reshape(-1, *rows.shape[2:])
        minima = _first_minima(alphas)
        winners = alphas[np.arange(len(at)), [k for _, k in minima]].tolist()
        found = iter(zip(minima, winners, alphas))
        for i in kept:
            out[held[i]] = [self._index(j, *next(found)) for j in nodes]
        return out

    def _dichotomy(self, spectra, at: list, count: int):
        """The non-negative regime's index of one cycle, count times, or its
        error, at the places at of its full returns in spectra.  Only the
        eigenvalues of M^(0) are read, so a defective one keeps its +-inf."""
        i = at[0]
        if i is None:
            return _overflow(0)
        if spectra.errors[i] is not None:
            return IndeterminateError(0, spectra.errors[i])
        value = math.inf if abs(spectra.eigenvalues[i, spectra.index[i]]) > 1.0 else -math.inf
        return [(value, IndexProvenance(source="nonnegative-dichotomy", alpha=None), None)] * count

    def _fault(self, spectra, at: list, nodes: list[int], rows: np.ndarray | None = None,
               nonzero: list[bool] | None = None):
        """What ends the analysis of one cycle at the first of nodes, as a
        value, or None; at holds the places of the cycle's full returns in
        spectra.  At each node in order: a pass that overflows
        (ProductOverflow), a spectral degeneracy (IndeterminateError), then
        failed conditions.  At checkpoints (rows None) that is any of the
        three, which makes every sigma_j -inf (_FAIL).  At given nodes, with
        their rows and whether none is zero, it is (i) or (ii) (ValueError),
        then a zero row (findex.ZeroVectorError).
        """
        for k, j in enumerate(nodes):
            i = at[j]
            if i is None:
                return _overflow(j)
            error = spectra.error(i)
            if error is not None:
                return IndeterminateError(j, error)
            conditions = spectra.conditions[i]
            if rows is None:
                if not all(conditions):
                    return _FAIL
            elif not all(conditions[:2]):
                return _no_minimum()
            elif not nonzero[k]:                        # f_index raises at the first zero row
                return _attempt((findex.ZeroVectorError,), findex.f_index,
                                rows[k, rows[k].any(axis=1).argmin()])
        return None

    def _index(self, j: int, minimum: tuple[float, int], alpha: list, candidates: np.ndarray):
        """(sigma_j, provenance, candidates) from the first minimum (value, k)
        of the candidates and its vector alpha."""
        value, k = minimum
        if k == 0:
            tag = f"v_max[{j}]"
        else:
            p, s = divmod(k - 1, self.n)
            tag = f"M_({self.negative[p]},{j}) row {s}"
        return value, IndexProvenance(source=tag, alpha=tuple(alpha)), candidates


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
                sigmas, provenance, _ = zip(*result)
                result = IndexReport(sigmas, provenance, classification_from_sigmas(sigmas), tol)
            out[i] = result
    return out


def collect_alpha_vectors(cycle: CycleLike, j: int, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """The candidates of sigma(cycle, j) (_Batch.indices): the K = 1 + L*N
    direction vectors whose first minimum of findex.f_index is sigma_j, v_max
    of M^(j) and then the N rows of each partial turn M_(j_p, j).

    After the node-index check: ValueError without negative entries (the
    dichotomy applies), else what sigma raises, and ValueError where the
    dominant-pair conditions fail at a checkpoint (sigma_j = -inf).
    """
    batch = _Batch.of(cycle, tol)
    j = _node_index(j, batch.m)
    if not batch.negative:
        raise ValueError("no negative entries: the spectral-radius dichotomy applies")
    [indices] = batch.indices([j])
    if isinstance(indices, Exception):
        raise indices
    candidates = indices[0][2]
    if candidates is None:
        raise _no_minimum()
    return list(candidates)


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
