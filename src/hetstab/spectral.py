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

A basis with condition number above COND_LIMIT counts as defective.  tol
(default DEFAULT_TOL) decides moduli near 1, modulus ties and realness, and
_tolerance owns its rule: finite with 0 <= tol < 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transition import _entries

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
    """tol as a float; ValueError unless it is finite with 0 <= tol < 1."""
    value = float(tol)
    if not 0.0 <= value < 1.0:   # NaN fails too
        raise ValueError(f"tol must be finite with 0 <= tol < 1, got {tol!r}")
    return value


def dominant_eigenvalue(eigenvalues: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Index of the dominant eigenvalue; raises when none is admissible.

    Eigenvalues with modulus within tol of 1 are skipped.  A conjugate pair
    at the top is resolved to the member with positive imaginary part (the
    realness flag then fails downstream); any other modulus tie between
    distinct eigenvalues is reported as ambiguous rather than guessed.
    """
    moduli = np.abs(eigenvalues)
    candidates = [i for i, r in enumerate(moduli) if abs(r - 1.0) > tol]
    if not candidates:
        raise NoAdmissibleDominant(
            f"all eigenvalue moduli within {tol} of 1: {eigenvalues!r}"
        )
    rho = max(moduli[i] for i in candidates)
    top = [i for i in candidates if moduli[i] >= rho * (1.0 - tol)]
    if len(top) == 1:
        return top[0]
    if len(top) == 2:
        a, b = eigenvalues[top[0]], eigenvalues[top[1]]
        conjugate_pair = (
            abs(np.conj(a) - b) <= tol * max(1.0, rho)
            and abs(a.imag) > tol * max(1.0, rho)
        )
        if conjugate_pair:
            return top[0] if a.imag > 0 else top[1]
    raise NoAdmissibleDominant(
        f"ambiguous dominant eigenvalue among {[eigenvalues[i] for i in top]!r}"
    )


def eigen_decompose(matrix: np.ndarray, tol: float = DEFAULT_TOL) -> SpectralSummary:
    """Decompose a small dense real matrix and locate its dominant pair.

    Raises ValueError unless tol obeys _tolerance and matrix is 2-D, square
    and finite, DefectiveMatrix when the eigenvector basis has condition
    number above COND_LIMIT (linearly independent eigenvectors are assumed
    throughout), and NoAdmissibleDominant when every modulus is within tol
    of 1 or the top modulus is an ambiguous tie.
    """
    tol = _tolerance(tol)
    eigenvalues, P = np.linalg.eig(_entries(matrix))

    if not np.all(np.isfinite(P)) or np.linalg.cond(P) > COND_LIMIT:
        raise DefectiveMatrix(
            f"eigenvector basis condition exceeds {COND_LIMIT:g}; "
            "matrix is (numerically) defective"
        )

    # Deterministic column scaling: largest-magnitude component -> exactly 1
    # (complex division z/z can miss 1.0 by an ulp, so pin it afterwards).
    basis = P.astype(complex)
    pivots = (np.argmax(np.abs(basis), axis=0), np.arange(basis.shape[1]))
    basis /= basis[pivots]
    basis[pivots] = 1.0
    basis_inverse = np.linalg.inv(basis)

    idx = dominant_eigenvalue(eigenvalues, tol)
    lam = complex(eigenvalues[idx])
    cond_i = abs(lam.imag) <= tol * abs(lam)
    cond_ii = lam.real > 1.0

    w = basis[:, idx]
    v = basis_inverse[idx, :]
    if cond_i:
        w = np.real(w)
        v = np.real(v)
        cond_iii = bool(np.all(w > 0.0) or np.all(w < 0.0))
    else:
        cond_iii = False

    w = np.array(w)
    v = np.array(v)
    w.flags.writeable = False
    v.flags.writeable = False
    return SpectralSummary(
        eigenvalues=eigenvalues,
        basis=basis,
        basis_inverse=basis_inverse,
        lambda_max=lam,
        lambda_index=int(idx),
        w_max=w,
        v_max=v,
        condition_i=cond_i,
        condition_ii=cond_ii,
        condition_iii=cond_iii,
    )


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
