"""Eigen-analysis of small dense real matrices.

For a full-return matrix M the relevant objects are the dominant eigenvalue
lambda_max (largest modulus among eigenvalues whose modulus differs from 1),
its eigenvector w_max, and the matching row v_max of the inverse eigenvector
basis.  Writing y = P a with P the eigenvector basis, the iterates M^k y are
asymptotically a_max lambda_max^k w_max, so when

    (i)   lambda_max is real,
    (ii)  lambda_max > 1, and
    (iii) all components of w_max share one strict sign,

the strictly-negative points attracted to -inf in every component are exactly
those with a_max = v_max . y < 0 (w_max normalised into the positive orthant).
These three flags decide whether that attracted set has positive measure.

Sign convention: w_max is scaled so its largest-magnitude component is
exactly +1, which under (iii) points it into the positive orthant; v_max is
the corresponding row of P^{-1} under the same scaling, making the membership
test v_max . y < 0 match the convergence direction.

A basis with condition number above COND_LIMIT counts as defective
(_defective).  eig gives the basis P unit columns, so s_1 <= ||P||_F =
sqrt(N), and s_1 ... s_N = |det P| gives cond_2(P) <= N^(N/2) / |det P|.
One stacked det clears every basis whose bound is at most COND_LIMIT / 1000.
The factor 1000 is the rounding margin (Higham 2002, Thm 9.3): the computed
det is that of P + dP with ||dP||_2 <= 3 N^3 2^(N-1) u, which moves each
singular value by at most that (Weyl); for N <= 11 it is below 5e-10 <=
s_1 / (2 10^9), so cond_2(P) <= 2 10^9 and the SVD rule clears P too.  The
SVD rule (np.linalg.cond's s_1 / s_N) still decides every other basis: N >
11, a bound above the margin, a det that is 0 or not finite.  So the flags
are bit for bit those of the SVD rule alone.  tol (default DEFAULT_TOL,
checked by _tolerance) decides moduli near 1, modulus ties and realness.

Every decomposition is made by _eigen_decompose_many, on a stack of
matrices, and _eig is the package's only call of numpy's eigen routines.
The dominant eigenvalue of every matrix of the stack and conditions
(i)-(iii) on it come from array operations over the whole stack
(_dominant).  What the eigenvalues decide, eig failing or no admissible
dominant (_no_dominant), is one list, _Spectra.errors; the text of a
no-dominant error is formatted only when it is read (str), so a sweep that
prints no message formats none.  _Spectra.error adds what the basis
decides: eigen_decompose is its view of one matrix, and the non-negative
dichotomy (stability._indices) reads _Spectra.errors alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cycle import REALS
from .transition import _entries

__all__ = ["SpectralSummary", "eigen_decompose", "vmax_row", "SpectralError", "DefectiveMatrix",
           "NoAdmissibleDominant"]

DEFAULT_TOL = 1e-9
COND_LIMIT = 1e12


class SpectralError(ArithmeticError):
    """Base class for eigen-analysis failures."""


class DefectiveMatrix(SpectralError):
    """Eigenvector basis is numerically singular (no diagonalisation)."""


class NoAdmissibleDominant(SpectralError):
    """No usable dominant eigenvalue (all moduli ~1, or an ambiguous tie)."""


@dataclass(frozen=True)
class SpectralSummary:
    """Full eigen-decomposition with dominant-pair bookkeeping.

    basis columns are eigenvectors, each scaled so its largest-magnitude
    component is +1; basis_inverse is the inverse of that scaled basis.
    lambda_index locates lambda_max inside eigenvalues.  w_max / v_max are
    real arrays when condition (i) holds, complex otherwise.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray
    basis_inverse: np.ndarray
    lambda_max: complex
    lambda_index: int
    w_max: np.ndarray
    v_max: np.ndarray
    condition_i: bool
    condition_ii: bool
    condition_iii: bool


def _tolerance(tol: float) -> float:
    """tol as a float; ValueError unless it is a real number (cycle.REALS,
    so not a string) with 0 <= tol < 1."""
    # a float skips the slower ABC check; NaN fails the range test
    if not ((type(tol) is float or isinstance(tol, REALS)) and 0.0 <= tol < 1.0):
        raise ValueError(f"tol must be finite with 0 <= tol < 1, got {tol!r}")
    return float(tol)


def eigen_decompose(matrix: np.ndarray, tol: float = DEFAULT_TOL) -> SpectralSummary:
    """Decompose a small dense real matrix and locate its dominant pair.

    Raises ValueError unless tol obeys _tolerance and matrix is 2-D, square
    and finite, DefectiveMatrix when the eigenvector basis has condition
    number above COND_LIMIT (linearly independent eigenvectors are assumed
    throughout), NoAdmissibleDominant when every modulus is within tol of
    1 or the top modulus is an ambiguous tie, and SpectralError when LAPACK's
    eig does not converge.
    """
    tol = _tolerance(tol)
    return _eigen_decompose_many(_entries(matrix)[None], tol).summary(0)


class _Spectra(NamedTuple):
    """eigen_decompose of each matrix b of a stack, as arrays over the stack.

    What the eigenvalues decide (errors) is kept apart from what the basis
    decides (defective).  Where error(b) is set, the rest of entry b means
    nothing.  Each error is built where it is decided and never raised
    here, so it holds no traceback, and a kept error keeps no frame of the
    batch alive.
    """

    eigenvalues: np.ndarray                        # (B, N), complex unless every spectrum is real
    real: list[bool]                               # whether the spectrum of matrix b is real
    basis: np.ndarray                              # (B, N, N) complex
    basis_inverse: np.ndarray                      # (B, N, N) complex
    index: list[int]                               # lambda_index of matrix b
    conditions: list[tuple[bool, bool, bool]]      # conditions (i), (ii), (iii) of matrix b
    errors: list[SpectralError | None]             # eig failing, or no admissible dominant
    defective: list[bool]                          # what the basis of matrix b decides

    def error(self, b: int) -> SpectralError | None:
        """The error eigen_decompose raises for matrix b alone, or None; eig
        failing leaves no defective basis."""
        if self.defective[b]:
            return DefectiveMatrix(f"eigenvector basis condition exceeds {COND_LIMIT:g}; "
                                   "matrix is (numerically) defective")
        return self.errors[b]

    def summary(self, b: int) -> SpectralSummary:
        """What eigen_decompose gives for matrix b alone: its summary, or its
        error raised."""
        error = self.error(b)
        if error is not None:
            raise error
        eigenvalues = self.eigenvalues[b].real if self.real[b] else self.eigenvalues[b]
        idx = self.index[b]
        w, v = self.basis[b, :, idx], self.basis_inverse[b, idx, :]
        if self.conditions[b][0]:
            w, v = w.real, v.real
        w, v = np.array(w), np.array(v)
        w.flags.writeable = v.flags.writeable = False
        return SpectralSummary(eigenvalues, self.basis[b], self.basis_inverse[b],
                               complex(eigenvalues[idx]), idx, w, v, *self.conditions[b])


def _eig(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[SpectralError | None]]:
    """np.linalg.eig of the stack matrices, and the error of each matrix:
    the package's only call of numpy's eigen routines.  When LAPACK fails
    on the stack, each matrix is decomposed alone; one that fails gets the
    identity's eigenpairs and a SpectralError that keeps only the text of
    LAPACK's error, not the error itself (_Spectra says why)."""
    try:
        return (*np.linalg.eig(matrices), [None] * len(matrices))
    except np.linalg.LinAlgError:
        pass
    n = matrices.shape[-1]
    parts = []
    for matrix in matrices:
        try:
            parts.append((*np.linalg.eig(matrix), None))
        except np.linalg.LinAlgError as exc:
            parts.append((np.ones(n), np.eye(n), SpectralError(str(exc))))
    eigenvalues, bases, errors = zip(*parts)
    return np.array(eigenvalues), np.array(bases), list(errors)


def _eigen_decompose_many(matrices: np.ndarray, tol: float) -> _Spectra:
    """eigen_decompose of each matrix of the finite (B, N, N) stack matrices,
    for a tol already checked, with one eig (_eig), one defective rule
    (_defective) and one inv for the whole stack, and the dominant eigenvalue
    of every matrix from one array rule (_dominant).  Errors are kept, and
    what the eigenvalues decide is one list (_Spectra.errors); a defective
    matrix gets its dominant eigenvalue too.

    Each matrix decomposes bit for bit as it does alone, which takes one
    rule per matrix: numpy's eig gives a single matrix real eigenvalues and
    eigenvectors when all its eigenvalues are real, but makes a whole stack
    complex when any one matrix has a complex eigenvalue.  So a matrix whose
    eigenvalues all have zero imaginary part keeps the real arrays, and the
    condition numbers of the real bases and of the complex ones are taken
    apart, as a complex SVD can differ from the real one in the last bit.
    """
    eigenvalues, P, errors = _eig(matrices)
    real = (eigenvalues.imag == 0.0).all(axis=1).tolist()
    defective = _defective(P, real)
    if any(defective):                           # swapped for the identity, so that inv runs
        P = np.where(np.array(defective)[:, None, None], np.eye(P.shape[1]), P)

    # Deterministic column scaling: largest-magnitude component -> exactly 1
    # (complex division z/z can miss 1.0 by an ulp, so pin it afterwards).
    rows = np.arange(len(P))
    basis = P.astype(complex)
    pivots = (rows[:, None], np.argmax(np.abs(basis), axis=1), np.arange(P.shape[1]))
    basis /= basis[pivots][:, None, :]
    basis[pivots] = 1.0
    basis_inverse = np.linalg.inv(basis)

    index, conditions, top = _dominant(eigenvalues, basis, tol)
    for b, row in top.items():
        if errors[b] is None:                    # eig failing keeps its own error
            errors[b] = _no_dominant(eigenvalues[b].real if real[b] else eigenvalues[b], row, tol)
    return _Spectra(eigenvalues, real, basis, basis_inverse, index, conditions, errors, defective)


@np.errstate(invalid="ignore", over="ignore")
def _defective(bases: np.ndarray, real: list[bool]) -> list[bool]:
    """Whether each basis of the (B, N, N) stack bases, with unit columns as
    eig gives them, is not finite or has condition number above COND_LIMIT:
    the det bound first, then the SVD rule, on the real bases (real[b])
    apart from the complex ones, for the bases it cannot clear."""
    n = bases.shape[-1]
    # |det| >= floor is N^(N/2) / |det| <= COND_LIMIT / 1000; the margin holds for N <= 11
    floor = n ** (n / 2) * 1e3 / COND_LIMIT if n <= 11 else np.inf
    finite = np.isfinite(bases).all(axis=(1, 2)).tolist()
    dets = np.abs(np.linalg.det(bases)).tolist()
    unclear = [b for b, (ok, det) in enumerate(zip(finite, dets)) if ok and not det >= floor]
    defective = [not ok for ok in finite]
    for spectrum in (True, False):
        group = [b for b in unclear if real[b] == spectrum]
        if group:
            group_bases = bases[group].real if spectrum else bases[group]
            for b, s in zip(group, np.linalg.svd(group_bases, compute_uv=False).tolist()):
                # np.linalg.cond is s[0] / s[-1], with 0 / 0 read as inf
                defective[b] = not (s[-1] > 0.0 and s[0] / s[-1] <= COND_LIMIT)
    return defective


class _NoDominantMessage(NamedTuple):
    """The message of _no_dominant's error, formatted when it is read (str),
    with numpy's print options of that moment."""

    values: np.ndarray
    top: np.ndarray
    tol: float

    def __str__(self) -> str:
        if self.top.any():
            return f"ambiguous dominant eigenvalue among {list(self.values[self.top])!r}"
        return f"all eigenvalue moduli within {self.tol} of 1: {self.values!r}"

    def __repr__(self) -> str:
        return repr(str(self))


def _no_dominant(values: np.ndarray, top: np.ndarray, tol: float) -> NoAdmissibleDominant:
    """The error of eigenvalues values with no admissible dominant, whose
    top set top is empty when every modulus is within tol of 1.  It holds
    copies of values and top, not views into a batch's arrays, so a kept
    error does not keep the batch alive."""
    return NoAdmissibleDominant(_NoDominantMessage(values.copy(), top.copy(), tol))


@np.errstate(invalid="ignore", over="ignore")
def _dominant(eigenvalues: np.ndarray, basis: np.ndarray, tol: float
              ) -> tuple[list[int], list[tuple[bool, bool, bool]], dict[int, np.ndarray]]:
    """The index of the dominant eigenvalue of each row b of the (B, N) array
    eigenvalues and conditions (i)-(iii) on it, by array operations over the
    rows, and the top set (a bool row) of each row that has no admissible
    dominant, from which _no_dominant builds its error.
    basis is the scaled (B, N, N) eigenvector basis.  Where a row has no
    admissible dominant, its index and conditions mean nothing.

    Eigenvalues with modulus within tol of 1 are skipped.  A conjugate pair
    at the top is resolved to the member with positive imaginary part
    (condition (i) then fails); any other modulus tie between distinct
    eigenvalues is reported as ambiguous rather than guessed.  Near the top
    of double range the pair test may overflow or make NaN; it then fails.
    """
    moduli = np.abs(eigenvalues)
    admissible = np.abs(moduli - 1.0) > tol
    rho = np.where(admissible, moduli, -np.inf).max(axis=1)
    top = admissible & (moduli >= (rho * (1.0 - tol))[:, None])
    count = top.sum(axis=1)
    rows = np.arange(len(top))
    first, last = top.argmax(axis=1), top.shape[1] - 1 - top[:, ::-1].argmax(axis=1)
    u, v = eigenvalues[rows, first], eigenvalues[rows, last]
    scale = tol * np.maximum(1.0, rho)
    pair = (count == 2) & (np.abs(np.conj(u) - v) <= scale) & (np.abs(u.imag) > scale)
    index = np.where(pair & (u.imag < 0.0), last, first)
    ok = pair | (count == 1)
    lam = eigenvalues[rows, index]
    i = np.abs(lam.imag) <= tol * np.hypot(lam.real, lam.imag)
    # each column of basis has a component exactly +1, so one strict sign is all > 0
    iii = i & (basis[rows, :, index].real > 0.0).all(axis=1)
    conditions = zip(i.tolist(), (lam.real > 1.0).tolist(), iii.tolist())
    return index.tolist(), list(conditions), {b: top[b] for b in np.flatnonzero(~ok).tolist()}


def vmax_row(matrix: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Row of the inverse eigenvector basis paired with lambda_max.

    Requires the dominant eigenvalue to be real and > 1 (the membership test
    v_max . y < 0 has no meaning otherwise).
    """
    s = eigen_decompose(matrix, tol)
    if not (s.condition_i and s.condition_ii):
        raise ValueError(
            "v_max requires a real dominant eigenvalue > 1; got "
            f"lambda_max={s.lambda_max!r}"
        )
    return np.real(s.v_max)
