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

Every index of one cycle comes from a single analysis.  The negative-entry
list is found once.  One stacked product pass (transition.cyclic_products)
builds M_(j,j), M_(j+1,j), ..., M^(j) for every start node j at once, with
one (m, N, N) @ (m, N, N) matmul per step: m matmul calls, not m^2.  The
steps of pass j are the partial turns ending at the negative-entry nodes and
its last step is the full return; a pass that overflows raises
ProductOverflow when the analysis first reads it, so a checkpoint that fails
still gives -inf when some other pass overflows.  Each full return is
decomposed at most once, and the checkpoint checks and v_max[j] share that
decomposition.

The minimum over each node's K = 1 + L*N direction vectors is found by
filter, then verify (_first_minima).  The vectors of all nodes form one
(m, K, N) array whose min, max, plain sum and sum of magnitudes bound every
index: the plain sum of N terms is within (N - 1) u sum|alpha| of the exact
sum (u = 2^-53), the index is monotone in the sum, and the radius
(N + 1) u sum|alpha| leaves room for rounding the bound itself
(_index_bounds).  findex.f_index runs only on the vectors that can still be
the first minimum, so every sigma_j and its provenance are those of f_index
over every vector in order, bit for bit.  classify does this for all j;
sigma(cycle, j) for one j, so calling it for every j repeats the
decompositions that classify shares.
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
    SpectralSummary,
    _tolerance,
    dominant_eigenvalue,
    eigen_decompose,
)
from .transition import (CycleLike, as_basic_matrices, cyclic_products, finite_pass,
                         _negative_entry_nodes, _node_index)


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


class _CycleAnalysis:
    """The transition-matrix analysis of one cycle, for one public call.

    The product passes from every node are built together up front; a pass
    is checked for overflow when first read, and each full-return
    decomposition is built on first use and then shared.  Nothing outlives
    the call that made the object.
    """

    def __init__(self, cycle: CycleLike, tol: float):
        self.tol = _tolerance(tol)
        self.mats = as_basic_matrices(cycle)
        self.m = len(self.mats)
        self.negative = _negative_entry_nodes(self.mats)
        self._passes = cyclic_products(self.mats, range(self.m), self.m)
        self._spectra: dict[int, SpectralSummary] = {}

    def turns(self, j: int) -> np.ndarray:
        """[M_(j,j), M_(j+1,j), ..., M^(j)]: the product pass from node j."""
        return finite_pass(self._passes[j], j)

    def spectrum(self, j: int) -> SpectralSummary:
        """Decomposition of the full return M^(j)."""
        if j not in self._spectra:
            try:
                self._spectra[j] = eigen_decompose(self.turns(j)[-1], self.tol)
            except SpectralError as exc:
                raise IndeterminateError(j, exc) from exc
        return self._spectra[j]

    def v_max(self, j: int) -> np.ndarray:
        """v_max of M^(j), the first direction vector of sigma_j."""
        summary = self.spectrum(j)
        if not (summary.condition_i and summary.condition_ii):
            raise ValueError(
                "dominant-pair conditions fail; sigma_j is -inf by the zero-measure "
                "argument, not a minimum of indices"
            )
        return summary.v_max

    def rows(self, nodes) -> np.ndarray:
        """The other K - 1 direction vectors of sigma_j for each j in nodes:
        the rows of M_(j_1, j), ..., M_(j_L, j), as a (len(nodes), L*N, N)
        array.  Passes are read unchecked; v_max(j) checks pass j."""
        if not self.negative:
            raise ValueError("no negative entries: the spectral-radius dichotomy applies")
        at = np.array(nodes)[:, None]
        turns = self._passes[at, (np.asarray(self.negative) - at) % self.m]
        return turns.reshape(len(at), -1, turns.shape[-1])

    def indices(self, nodes) -> list[tuple[float, IndexProvenance]]:
        """sigma_j and its provenance for each j in nodes."""
        if not self.negative:
            value = _sigma_nonnegative(self.turns(0)[-1], self.tol)
            dichotomy = IndexProvenance(source="nonnegative-dichotomy", alpha=None)
            return [(value, dichotomy)] * len(nodes)
        for q in _checkpoints(self.m, self.negative):
            s = self.spectrum(q)
            if not (s.condition_i and s.condition_ii and s.condition_iii):
                fail = IndexProvenance(source="dominant-pair-conditions-fail", alpha=None)
                return [(-math.inf, fail)] * len(nodes)
        return self._minima(list(nodes))

    def _minima(self, nodes: list[int]) -> list[tuple[float, IndexProvenance]]:
        """sigma_j as the first minimum (_first_minima) over the K direction
        vectors of each j in nodes, stacked into one (len(nodes), K, N) array."""
        rows = self.rows(nodes)
        nonzero = rows.any(axis=2).all(axis=1)
        alphas = np.empty((len(nodes), 1 + rows.shape[1], rows.shape[2]))
        alphas[:, 1:] = rows
        for i, j in enumerate(nodes):
            alphas[i, 0] = self.v_max(j)
            if not nonzero[i]:         # f_index raises at the first zero row, node by node
                for alpha in rows[i]:
                    findex.f_index(alpha)
        out = []
        for i, (j, (value, k)) in enumerate(zip(nodes, _first_minima(alphas))):
            alpha = tuple(alphas[i, k].tolist())
            out.append((value, IndexProvenance(source=self._tag(j, k), alpha=alpha)))
        return out

    def _tag(self, j: int, k: int) -> str:
        """Provenance of direction vector k of sigma_j."""
        if k == 0:
            return f"v_max[{j}]"
        p, s = divmod(k - 1, self.mats[0].shape[0])
        return f"M_({self.negative[p]},{j}) row {s}"


def collect_alpha_vectors(cycle: CycleLike, j: int, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Direction vectors whose indices are minimised to obtain sigma_j.

    v_max of M^(j) first, then the N rows of each partial turn M_(j_p, j)
    ending at a negative-entry matrix: K = 1 + L*N vectors in total.
    """
    analysis = _CycleAnalysis(cycle, tol)
    j = _node_index(j, analysis.m)
    rows = analysis.rows([j])[0]
    return [analysis.v_max(j), *rows]


def sigma(cycle: CycleLike, j: int, tol: float = DEFAULT_TOL) -> float:
    """Local stability index along the connection entering node j."""
    analysis = _CycleAnalysis(cycle, tol)
    [(value, _)] = analysis.indices([_node_index(j, analysis.m)])
    return value


def classify(cycle: CycleLike, tol: float = DEFAULT_TOL) -> IndexReport:
    """Compute every sigma_j and classify the cycle.

    Raises IndeterminateError when a spectral degeneracy (no admissible
    dominant eigenvalue, or a defective full return) blocks the decision,
    and ValueError, before any decomposition, when tol breaks its rule.
    """
    analysis = _CycleAnalysis(cycle, tol)
    sigmas, provenance = zip(*analysis.indices(range(analysis.m)))
    return IndexReport(
        sigma=sigmas,
        provenance=provenance,
        classification=classification_from_sigmas(sigmas),
        tol=analysis.tol,
    )
