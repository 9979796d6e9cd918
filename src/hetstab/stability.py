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

Every index of one cycle comes from a single analysis pass.  The
negative-entry list is found once.  From each start node j one product pass
builds M_(j,j), M_(j+1,j), ..., M^(j): its steps are the partial turns
ending at the negative-entry nodes and its last step is the full return.
Each full return is decomposed at most once, and the checkpoint checks and
v_max[j] share that decomposition.  classify runs the pass for all j;
sigma(cycle, j) runs it for one j, so calling it for every j repeats the
products and decompositions that classify shares.
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
from .transition import (CycleLike, as_basic_matrices, cyclic_products, _negative_entry_nodes,
                         _node_index)


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


class _CycleAnalysis:
    """The transition-matrix analysis of one cycle, for one public call.

    Each product pass and each full-return decomposition is built on first
    use and then shared; nothing outlives the call that made the object.
    """

    def __init__(self, cycle: CycleLike, tol: float):
        self.tol = _tolerance(tol)
        self.mats = as_basic_matrices(cycle)
        self.m = len(self.mats)
        self.negative = _negative_entry_nodes(self.mats)
        self._turns: dict[int, list[np.ndarray]] = {}
        self._spectra: dict[int, SpectralSummary] = {}

    def turns(self, j: int) -> list[np.ndarray]:
        """[M_(j,j), M_(j+1,j), ..., M^(j)]: the product pass from node j."""
        if j not in self._turns:
            self._turns[j] = cyclic_products(self.mats, j, self.m)
        return self._turns[j]

    def spectrum(self, j: int) -> SpectralSummary:
        """Decomposition of the full return M^(j)."""
        if j not in self._spectra:
            try:
                self._spectra[j] = eigen_decompose(self.turns(j)[-1], self.tol)
            except SpectralError as exc:
                raise IndeterminateError(j, exc) from exc
        return self._spectra[j]

    def alpha_vectors(self, j: int) -> list[tuple[np.ndarray, str]]:
        """v_max of M^(j), then the rows of each M_(j_p, j), with their tags."""
        if not self.negative:
            raise ValueError("no negative entries: the spectral-radius dichotomy applies")
        summary = self.spectrum(j)
        if not (summary.condition_i and summary.condition_ii):
            raise ValueError(
                "dominant-pair conditions fail; sigma_j is -inf by the zero-measure "
                "argument, not a minimum of indices"
            )
        turns = self.turns(j)
        tagged = [(np.real(summary.v_max), f"v_max[{j}]")]
        for q in self.negative:
            part = turns[(q - j) % self.m]
            tagged.extend((row, f"M_({q},{j}) row {s}") for s, row in enumerate(part))
        return tagged

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
        return [self._index(j) for j in nodes]

    def _index(self, j: int) -> tuple[float, IndexProvenance]:
        best = math.inf
        best_tag = None
        for alpha, tag in self.alpha_vectors(j):
            value = findex.f_index(alpha)
            if value < best or best_tag is None:
                best = value
                best_tag = (tag, tuple(float(a) for a in alpha))
        return best, IndexProvenance(source=best_tag[0], alpha=best_tag[1])


def collect_alpha_vectors(cycle: CycleLike, j: int, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Direction vectors whose indices are minimised to obtain sigma_j.

    v_max of M^(j) first, then the N rows of each partial turn M_(j_p, j)
    ending at a negative-entry matrix: K = 1 + L*N vectors in total.
    """
    analysis = _CycleAnalysis(cycle, tol)
    return [alpha for alpha, _ in analysis.alpha_vectors(_node_index(j, analysis.m))]


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
