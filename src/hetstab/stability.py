"""Local stability indices sigma_j and the cycle classification.

Two regimes, decided by the signs of the basic transition matrices:

* All entries non-negative (every transverse eigenvalue negative): the whole
  question reduces to the spectral radius of one full return.  |lambda_max|
  > 1 gives sigma_j = +inf at every connection (asymptotically stable);
  otherwise sigma_j = -inf everywhere (not an attractor).  Only the
  eigenvalues are read, so a defective full return is decided too.

* Some matrix M_q has a negative entry (indices q = j_1 < ... < j_L).  The
  full returns are all similar, so lambda_max and the realness/size
  conditions on it belong to the cycle; the sign condition on w_max
  propagates through non-negative partial products.  So only the
  checkpoint returns M^(j_p + 1) are decomposed: lambda_max and the three
  dominant-pair conditions are read at each checkpoint, and a cycle holds
  only if every checkpoint holds.  Failure at any checkpoint forces
  sigma_j = -inf for all j.  Otherwise

      sigma_j = min( f_index(v_max of M^(j)),
                     f_index(row s of M_(j_p, j)) over p = 1..L, s = 1..N )

  where the v_max term encodes membership in the attracted set of the full
  return and each partial-turn row demands the corresponding intermediate
  state stay in the negative orthant.  At a node j that is not a
  checkpoint, v_max is carried: with q the last negative-entry node before
  j and c = q + 1 its checkpoint, M^(c) = A B and M^(j) = B A for A =
  M_(q,j) and B = M_(j-1,c), which covers only non-negative nodes.  So
  B w_max of M^(c) is >= 0, and v_max of M^(c) times A is a positive
  multiple of v_max of M^(j), which f_index cannot tell apart; that product
  (made from both factors scaled by powers of two where it would leave the
  normal range) is the v_max term of node j, and its provenance reads
  v_max[c] M_(q,j).

Classification from the indices: any -inf -> not an attractor; any exact 0
-> marginal (no claim made); all +inf -> asymptotically stable; all > 0 ->
essentially asymptotically stable; otherwise (all > -inf, some < 0) the
cycle is fragmentarily asymptotically stable only.  That rule is one
function, _verdict, fed three facts about a cycle's indices: whether one
is -inf, whether one is 0, and the least of them.  classify and
classification_from_sigmas read them off the tuple they hold, and
_verdicts off a (B, J) array with three row reductions.

Every index comes from one function, _indices, over a stack of cycles
that share m, N and their negative-entry nodes.  Its result is columnar
(_Indices): a (B, J) array of sigma_j, a (B, J) array of the positions k of
the vectors that realise them (-1 where no minimum sets sigma_j), the
candidate vectors of every cycle whose checkpoints hold, and each cycle's
first error, as a value, in the order of a one-cycle reading.  A short
scan of the checkpoint decompositions finds each cycle's first fault
there; the carried v_max, one boolean mask of the given nodes' faults (a
pass that overflows, a zero partial-turn row) and every minimum are
decided in arrays over the cycles that hold, and one rule makes the row of
every cycle with an error NaN.  classify, sigma and collect_alpha_vectors
read the result for the stack of one cycle (_single) and raise its error
(_raised), and classify is the one place that builds IndexReport and
IndexProvenance, with the provenance tags from _source.  _sigma_rows reads
a float (B, m, N, N) stack as one (B, m) array of sigma_j and the errors
and builds no report, as rsp-sweep reads its grid rows: one isfinite pass
checks the stack, one min reduction finds every cycle's negative-entry
nodes (transition._negative_entries), and each pattern of them is one
_indices call.

Each minimum over the K vectors is that of findex.f_index over every
vector in order, bit for bit (_first_minima).  f_index takes the correctly
rounded sum S of a vector (math.fsum), and S is found in arrays: two TwoSum
cascades, over the components and over their rounding errors, write the
exact sum as fl(s + E) + r + sum f_i with r exact, and where every f_i is 0,
or |r| plus a bound on sum f_i stays below half the gap from fl(s + E) to
its nearer neighbour (the gap below a power of two is half the one above
it), fl(s + E) is S (Ogita, Rump & Oishi 2005, SIAM J. Sci. Comput. 26).
Only a sum that close to a rounding midpoint, or a vector large enough that
fsum could overflow, goes to the exact findex._f_index.  Calling
sigma(cycle, j) for every j repeats the decompositions that classify
shares.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import findex
from .cycle import _reals
from .spectral import DEFAULT_TOL, _eigen_decompose_many, _tolerance
from .transition import (CycleLike, as_basic_matrices, cyclic_products, _finite, _negative_entries,
                         _node_index, _not_a_matrix, _overflow)

__all__ = ["Classification", "IndexReport", "IndexProvenance", "classify", "sigma",
           "collect_alpha_vectors", "classification_from_sigmas", "IndeterminateError"]


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


def _verdict(negative_inf: bool, zero: bool, least: float) -> Classification:
    """The paper's verdict of a cycle's indices sigma_j, in its order: some
    sigma_j is -inf (negative_inf), some is 0 (zero), the least of them is
    +inf, it is > 0, or none of these.  A least that is NaN reads as none."""
    if negative_inf:
        return Classification.NOT_ATTRACTOR
    if zero:
        return Classification.MARGINAL
    if least == math.inf:
        return Classification.ASYMPTOTICALLY_STABLE
    if least > 0.0:
        return Classification.ESSENTIALLY_ASYMPTOTICALLY_STABLE
    return Classification.FRAGMENTARILY_ASYMPTOTICALLY_STABLE_ONLY


def _verdicts(sigma: np.ndarray) -> list[Classification]:
    """The verdict (_verdict) of each row of the (B, J) float array sigma,
    from three row reductions; a NaN in a row makes its least NaN."""
    return list(map(_verdict, (sigma == -math.inf).any(1).tolist(),
                    (sigma == 0.0).any(1).tolist(), sigma.min(1).tolist()))


def classification_from_sigmas(sigmas) -> Classification:
    """The verdict of one cycle's indices sigma_j (_verdict): a non-empty
    sequence of numbers (cycle._reals), -inf and +inf included; ValueError
    when it is empty or holds a NaN."""
    values = _reals(sigmas, "sigma")
    if not values or any(map(math.isnan, values)):
        raise ValueError(f"sigma must be non-empty and free of NaN, got {list(values)}")
    return _verdict(-math.inf in values, 0.0 in values, min(values))


_LIMIT = 2.0 ** 1022   # where N max|alpha| < _LIMIT, no sum here or in fsum overflows


def _cascade(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, errors) for the terms along axis 0: s the running sum of one
    cumsum at its end, and errors the exact error of each of its additions
    (TwoSum, Knuth), so that the exact sum of the terms is s + sum(errors)
    unless an addition overflows, which makes NaN."""
    partial = np.cumsum(terms, axis=0)
    before, after = partial[:-1], partial[1:]
    step = after - before
    return partial[-1], (before - (after - step)) + (terms[1:] - step)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _first_minima(alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, k) for the coordinate-major (N, rows, K) array alphas, whose
    [:, r, k] is vector k of row r (each finite and nonzero): for each row,
    the first of the smallest findex.f_index values over its K vectors, bit
    for bit and sign of zero included, and its position k.

    f_index is +inf where min >= 0 and -inf where max <= 0; otherwise, with
    S the correctly rounded sum (math.fsum), it is -S / min where S > 0 and
    0.0 - S / -max where S <= 0, which keeps the +0.0 of a zero sum.  S is
    found by array operations.  Two TwoSum cascades (_cascade), over the
    components and then over the errors of the first, write the exact sum
    as s + E + sum f_i, and one more TwoSum gives T = fl(s + E) with its
    exact residual r, so the exact sum is T + r + sum f_i.  delta = (1 +
    N 2^-52) fl(sum |f_i|) bounds |sum f_i|, the rounding of its own sum
    and product included, and is 0 only where every f_i is.  T is S where
    delta is 0, as T then rounds the exact sum itself, and where 2 (|r| +
    delta) is below the gap from |T| to the next float toward zero, the
    smaller of its two gaps (below a power of two it is half the other), as
    the exact sum then lies strictly within half a gap of T (Ogita, Rump &
    Oishi 2005).  The rounded |r| + delta decides that test as the exact one
    would: rounding is monotone, and in the lowest binade, where half the
    gap is no float, |r| + delta is exact.  The other vectors go through
    findex._f_index: a sum within delta of a rounding midpoint, and a vector
    whose max - min reaches _LIMIT / N, where fsum could overflow and
    f_index reads alpha / 4, and one whose sum overflows here (T is then
    +-inf or NaN, which neither test takes, though with N = 2 there is no f_i
    to carry the NaN into delta).  argmin takes the first of equal minima, as
    the exhaustive loop does.
    """
    n = len(alphas)
    lo, hi = alphas.min(axis=0), alphas.max(axis=0)
    s, errors = _cascade(alphas)                 # the exact sum is s + sum(errors)
    e, rest = _cascade(errors)                   # and sum(errors) is e + sum(rest)
    delta = np.abs(rest).sum(axis=0) * (1.0 + n * 2.0**-52)
    total = s + e
    step = total - s
    r = (s - (total - step)) + (e - step)
    size = np.abs(total)
    gap = size - np.nextafter(size, -1.0)        # to the next float toward zero, the smaller
    exact = (((delta == 0.0) & np.isfinite(total) | (2.0 * (np.abs(r) + delta) < gap))
             & (hi - lo < _LIMIT / n))
    # only a vector of one sign lacks a positive denominator, and its sum
    # carries that sign: dividing by +0.0 gives its exact +-inf
    den = np.where(total > 0.0, -lo, hi)
    values = total / np.where(den > 0.0, den, 0.0) + 0.0       # + 0.0 turns -0.0 into +0.0
    if not exact.all():
        rows, ks = np.nonzero(~exact)
        values[rows, ks] = [findex._f_index(alpha) for alpha in alphas[:, rows, ks].T.tolist()]
    return values.min(axis=1), values.argmin(axis=1)


# the provenance of a sigma_j that no minimum sets, with and without
# negative entries
_NO_MINIMUM = {True: IndexProvenance("dominant-pair-conditions-fail", None),
               False: IndexProvenance("nonnegative-dichotomy", None)}


class _Indices(NamedTuple):
    """The result of _indices for B cycles and J given nodes.

    candidates holds the K = 1 + L*N vectors of every (b, j) of each held
    cycle (one whose checkpoints all hold), in row-major order of (b, j),
    coordinate-major: [:, r, k] is vector k of row r, v_max of M^(j) first
    (carried from its checkpoint where j is not one, _checkpoint), then the
    rows of M_(j_1, j), ..., M_(j_L, j).  The vectors of a node whose pass
    overflows or that has a zero partial-turn row are ones; its cycle has
    an error.  Without negative entries there are none.
    """

    sigma: np.ndarray          # (B, J) sigma_j; NaN for a cycle with an error
    winner: np.ndarray         # (B, J) k of sigma_j's first minimum, -1 where none sets it
    candidates: np.ndarray     # (N, rows, K)
    errors: list               # each cycle's first error, or None


def _checkpoint(negative: list[int], m: int, j: int) -> tuple[int, int]:
    """(q, c) for node j of m: q the last negative-entry node strictly
    before j, cyclically, and c = q + 1 its checkpoint, which is j itself
    where j is a checkpoint."""
    q = negative[bisect.bisect_left(negative, j) - 1]
    return q, (q + 1) % m


@np.errstate(over="ignore", invalid="ignore")
def _carry(v: np.ndarray, turns: np.ndarray) -> np.ndarray:
    """The rows v[..., :] times the matrices turns[..., :, :]: v_max of M^(c)
    carried to node j by M_(q,j) (_checkpoint), a positive multiple of v_max
    of M^(j) (the module docstring says why).

    numpy sums over an axis that is not the last one term at a time, in
    order, so every batch reads the same bits.  Where the product leaves
    the normal range (not finite, or every component below the smallest
    normal float), it is made again from v and turns scaled by powers of
    two to a largest magnitude in [0.5, 1): a positive multiple again, with
    no overflow and no underflow of its largest terms.  A pass that is not
    finite gives no finite product either way, and is an overflow."""
    product = (v[..., None] * turns).sum(axis=-2)
    out = ~np.isfinite(product).all(axis=-1) | (np.abs(product).max(axis=-1) < sys.float_info.min)
    if out.any():
        v, turns = (np.ldexp(x, -np.frexp(np.abs(x).max(axis=axes, keepdims=True))[1])
                    for x, axes in ((v[out], -1), (turns[out], (-2, -1))))
        product[out] = (v[..., None] * turns).sum(axis=-2)
    return product


def _indices(mats: np.ndarray, negative: list[int], nodes: list[int], tol: float) -> _Indices:
    """sigma_j for each j in nodes of the B cycles of the float (B, m, N, N)
    array mats, which share the negative-entry nodes negative (_Indices), or
    the error that ends a cycle's analysis; tol has passed its rule.  Each
    minimum is the first of findex.f_index over the candidates (_first_minima).

    One stacked call decomposes the full returns at the checkpoints of every
    cycle, and no other: lambda_max and conditions (i)-(iii) are read at
    each checkpoint, and a cycle holds only if every checkpoint holds.  A
    node that is not a checkpoint reads the v_max of its checkpoint carried
    to it (_carry).  The dichotomy reads only the eigenvalues of M^(0), so a
    defective one keeps its +-inf.  A cycle's first fault follows a
    one-cycle reading: its checkpoints in sorted order, each a pass that
    overflows (ProductOverflow), then a spectral degeneracy
    (IndeterminateError), then failed conditions, which make every sigma_j
    -inf with no minimum; then the first given node, in order, that is bad
    in one (held cycles, given nodes) mask: a pass that overflows
    (ProductOverflow) or else a zero partial-turn row
    (findex.ZeroVectorError).  The candidates of a bad node are made ones,
    whose f_index is +inf, so one _first_minima call covers every held
    cycle, and one closing rule makes the row of a cycle with an error NaN
    with no winner.
    """
    m, n = mats.shape[1:3]
    passes = cyclic_products(mats, range(m), m)
    count = len(passes)
    finite = _finite(passes)
    # the sign condition on w_max propagates through the non-negative
    # factors between negative-entry matrices, so it is checked directly
    # only at the nodes just after one
    checkpoints = sorted({(q + 1) % m for q in negative}) or [0]
    # eig rejects a stack holding inf or NaN, so a pass that is not finite
    # is decomposed as the identity and read as an overflow
    stack = passes[:, :, -1].take(checkpoints, axis=1).reshape(-1, n, n)
    if not finite.all():
        stack = np.where(finite[:, checkpoints].reshape(-1, 1, 1), stack, np.eye(n))
    spectra = _eigen_decompose_many(stack, tol)
    whole = finite.tolist()
    # every sigma_j is -inf until it is set: failed conditions at a
    # checkpoint leave it so, and an error makes the cycle's row NaN
    sigma, winner = np.full((count, len(nodes)), -math.inf), np.full((count, len(nodes)), -1)
    errors, held, alphas = [None] * count, [], np.empty((n, 0, 1))
    if not negative:
        errors = [_overflow(0) if not f[0] else None if e is None else IndeterminateError(0, e)
                  for f, e in zip(whole, spectra.errors)]
        sigma[np.abs(spectra.eigenvalues[np.arange(count), spectra.index]) > 1.0] = math.inf
    else:
        for c in range(count):
            for b, j in enumerate(checkpoints, c * len(checkpoints)):
                if not whole[c][j]:
                    errors[c] = _overflow(j)
                elif (error := spectra.error(b)) is not None:
                    errors[c] = IndeterminateError(j, error)
                elif all(spectra.conditions[b]):
                    continue
                break
            else:
                held.append(c)
    if held:
        rows, at = np.array(held)[:, None], np.array(nodes)[:, None]
        # turns[h, p, i] is M_(q,j) for j = nodes[p] and q = negative[i]
        turns = passes[rows[:, :, None], at, (np.array(negative) - at) % m]
        # v_max of M^(c) at each node's checkpoint c, decomposed there, and
        # carried to each node j that is not one
        pairs = [_checkpoint(negative, m, j) for j in nodes]
        place = rows * len(checkpoints) + [checkpoints.index(c) for _, c in pairs]
        v_max = spectra.basis_inverse[place, np.array(spectra.index)[place]].real
        carried = [p for p, (j, (_, c)) in enumerate(zip(nodes, pairs)) if c != j]
        if carried:
            turn = turns[:, carried, [negative.index(pairs[p][0]) for p in carried]]
            v_max[:, carried] = _carry(v_max[:, carried], turn)
        alphas = np.empty((n, len(held) * len(nodes), 1 + len(negative) * n))
        alphas[:, :, 0] = v_max.reshape(-1, n).T
        alphas[:, :, 1:] = turns.reshape(alphas.shape[1], -1, n).transpose(2, 0, 1)
        # a given node has no minimum where its pass overflows or one of
        # its partial-turn rows is zero
        over = ~finite[rows, at.T]
        bad = over | ~turns.any(axis=4).all(axis=(2, 3))
        if bad.any():
            for h in np.flatnonzero(bad.any(axis=1)).tolist():
                p = int(bad[h].argmax())                # the cycle's first bad node
                errors[held[h]] = _overflow(nodes[p]) if over[h, p] else findex._zero_vector()
            alphas[:, bad.ravel()] = 1.0                # f_index +inf, no minimum
        values, k = _first_minima(alphas)
        sigma[rows[:, 0]] = values.reshape(len(held), -1)
        winner[rows[:, 0]] = k.reshape(len(held), -1)
    if any(errors):                                     # an error is never false
        failed = [e is not None for e in errors]
        sigma[failed], winner[failed] = math.nan, -1
    return _Indices(sigma, winner, alphas, errors)


def _source(negative: list[int], m: int, n: int, j: int, k: int) -> str:
    """The provenance tag of position k >= 0 of the candidates of sigma_j
    (_Indices), for m nodes, N = n and the negative-entry nodes negative."""
    if k == 0:
        q, c = _checkpoint(negative, m, j)
        return f"v_max[{j}]" if c == j else f"v_max[{c}] M_({q},{j})"
    p, s = divmod(k - 1, n)
    return f"M_({negative[p]},{j}) row {s}"


def _single(cycle: CycleLike, tol: float, j=None) -> tuple[np.ndarray, list[int], list[int], float]:
    """The arguments of _indices for one cycle at node j, or at every node
    when j is None: the (1, m, N, N) stack of its basic matrices, its
    negative-entry nodes, the nodes and tol.  tol, the basic matrices and j
    are checked, in that order."""
    tol = _tolerance(tol)
    mats = np.array(as_basic_matrices(cycle))[None]
    nodes = range(mats.shape[1]) if j is None else [_node_index(j, mats.shape[1])]
    return mats, np.flatnonzero(_negative_entries(mats[0])).tolist(), list(nodes), tol


def _raised(result: _Indices) -> _Indices:
    """result, of one cycle, or its error raised."""
    if result.errors[0] is not None:
        raise result.errors[0]
    return result


def _sigma_rows(stack: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, list]:
    """(sigma, errors) for a float (B, m, N, N) stack of B cycles' basic
    matrices, building no report: sigma is the (B, m) array of every
    sigma_j, NaN on a cycle whose analysis ends in an error, and errors
    holds each cycle's error (the one classify raises) or None.  A cycle
    with a matrix that is not finite has the error of the matrix rule; the
    others are read by one _indices call per pattern of negative-entry
    nodes, in the order the patterns first appear."""
    tol = _tolerance(tol)
    m, n = stack.shape[1:3]
    finite = np.isfinite(stack).all(axis=(1, 2, 3)).tolist()
    errors = [None if ok else _not_a_matrix((n, n)) for ok in finite]
    groups: dict[tuple, list[int]] = {}
    for b, pattern in enumerate(map(tuple, _negative_entries(stack).tolist())):
        if finite[b]:
            groups.setdefault(pattern, []).append(b)
    sigma = np.full(stack.shape[:2], math.nan)
    for pattern, members in groups.items():
        result = _indices(stack[members], [q for q, neg in enumerate(pattern) if neg],
                          list(range(m)), tol)
        sigma[members] = result.sigma
        for b, error in zip(members, result.errors):
            errors[b] = error
    return sigma, errors


def collect_alpha_vectors(cycle: CycleLike, j: int, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """The candidates of sigma(cycle, j) (_indices): the K = 1 + L*N
    direction vectors whose first minimum of findex.f_index is sigma_j, v_max
    of M^(j) (carried from its checkpoint where j is not one) and then the N
    rows of each partial turn M_(j_p, j).

    After the node-index check: ValueError without negative entries (the
    dichotomy applies), else what sigma raises, and ValueError where the
    dominant-pair conditions fail at a checkpoint (sigma_j = -inf, not a
    minimum).
    """
    mats, negative, nodes, tol = _single(cycle, tol, j)
    if not negative:
        raise ValueError("no negative entries: the spectral-radius dichotomy applies")
    result = _raised(_indices(mats, negative, nodes, tol))
    if result.winner[0, 0] < 0:
        raise ValueError("dominant-pair conditions fail; sigma_j is -inf by the "
                         "zero-measure argument, not a minimum of indices")
    return list(result.candidates[:, 0].T)


def sigma(cycle: CycleLike, j: int, tol: float = DEFAULT_TOL) -> float:
    """Local stability index along the connection entering node j."""
    return float(_raised(_indices(*_single(cycle, tol, j))).sigma[0, 0])


def classify(cycle: CycleLike, tol: float = DEFAULT_TOL) -> IndexReport:
    """Compute every sigma_j and classify the cycle.

    Raises IndeterminateError when a spectral degeneracy at a checkpoint (no
    admissible dominant eigenvalue, a defective full return, or an
    eigenvalue routine that does not converge) blocks the decision,
    ProductOverflow when a product it reads is not finite,
    findex.ZeroVectorError at a zero partial-turn row, and ValueError, before
    any decomposition, when tol breaks its rule.
    """
    mats, negative, nodes, tol = _single(cycle, tol)
    result = _raised(_indices(mats, negative, nodes, tol))
    # every sigma_j of a cycle without an error is a minimum or none is, and
    # the candidates of node j are then row j
    provenance = tuple(_NO_MINIMUM[bool(negative)] if k < 0 else IndexProvenance(
        _source(negative, *mats.shape[1:3], j, k), tuple(result.candidates[:, j, k].tolist()))
        for j, k in enumerate(result.winner[0].tolist()))
    s = tuple(result.sigma[0].tolist())
    return IndexReport(s, provenance, _verdict(-math.inf in s, 0.0 in s, min(s)), tol)
