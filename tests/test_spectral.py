import dataclasses
import re

import numpy as np
import pytest

from conftest import (NONCONVERGENT, assert_multisets_close, charpoly_eigenvalues,
                      dominant_pair_matrix, random_cycle)
from hetstab import (
    DefectiveMatrix,
    NoAdmissibleDominant,
    SpectralError,
    eigen_decompose,
    full_return_matrix,
    matrix_basin_membership,
    negative_entry_indices,
    partial_turn_matrix,
    vmax_row,
)
from hetstab.spectral import DEFAULT_TOL, _eigen_decompose_many


def test_symmetric_two_by_two():
    M = [[2.0, 1.0], [1.0, 2.0]]
    s = eigen_decompose(M)
    assert_multisets_close(s.eigenvalues, charpoly_eigenvalues(M), tol=1e-12)
    assert s.lambda_max == pytest.approx(3.0)          # modulus-1 eigenvalue skipped
    assert s.w_max == pytest.approx([1.0, 1.0])
    assert s.condition_i and s.condition_ii and s.condition_iii
    assert vmax_row(M) == pytest.approx([0.5, 0.5])


def test_rotation_matrices():
    with pytest.raises(NoAdmissibleDominant):
        eigen_decompose([[0.0, -1.0], [1.0, 0.0]])     # both moduli exactly 1
    s = eigen_decompose([[0.0, -2.0], [2.0, 0.0]])     # conjugate pair, modulus 2
    assert not s.condition_i
    assert not s.condition_iii
    assert abs(s.lambda_max) == pytest.approx(2.0)
    assert s.lambda_max.imag > 0


def test_diagonal_case():
    s = eigen_decompose([[2.0, 0.0], [0.0, 0.5]])
    assert s.lambda_max == pytest.approx(2.0)
    assert s.w_max == pytest.approx([1.0, 0.0])
    assert s.condition_i and s.condition_ii
    assert not s.condition_iii                         # zero component fails strictly
    assert vmax_row([[2.0, 0.0], [0.0, 0.5]]) == pytest.approx([1.0, 0.0])


def test_contraction_fails_condition_ii():
    assert eigen_decompose([[0.5, 0.0], [0.0, 0.25]]).condition_ii is False


def test_charpoly_oracle_on_random_three_by_three():
    rng = np.random.default_rng(5)
    for _ in range(25):
        M = rng.uniform(-2, 2, (3, 3))
        assert_multisets_close(np.linalg.eigvals(M), charpoly_eigenvalues(M), tol=1e-7)


def test_biorthogonality_of_vmax():
    rng = np.random.default_rng(12)
    for _ in range(20):
        M, P, lam = dominant_pair_matrix(rng, n=3)
        s = eigen_decompose(M)
        v = vmax_row(M)
        assert float(v @ s.w_max) == pytest.approx(1.0, abs=1e-9)
        for i in range(3):
            if i != s.lambda_index:
                w_other = np.real(s.basis[:, i])
                assert float(v @ w_other) == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(s.basis_inverse @ s.basis, np.eye(3), atol=1e-9)
        assert np.allclose(
            np.asarray(M) @ s.basis, s.basis @ np.diag(s.eigenvalues), atol=1e-8)


def test_wmax_normalisation_is_exact():
    rng = np.random.default_rng(19)
    for _ in range(20):
        M, _, _ = dominant_pair_matrix(rng)
        s = eigen_decompose(M)
        k = np.argmax(np.abs(s.w_max))
        assert s.w_max[k] == 1.0


def test_defective_matrix_detected():
    with pytest.raises(DefectiveMatrix):
        eigen_decompose([[1.5, 1.0], [0.0, 1.5]])


def test_ambiguous_dominant_ties():
    with pytest.raises(NoAdmissibleDominant):
        eigen_decompose(np.diag([2.0, -2.0]))
    with pytest.raises(NoAdmissibleDominant):
        eigen_decompose(2.0 * np.eye(2))


def test_vmax_requires_expanding_real_dominant():
    with pytest.raises(ValueError):
        vmax_row([[0.5, 0.0], [0.0, 0.25]])


def test_vmax_predicts_divergence_of_negative_points():
    # points on the v_max . y < 0 side iterate to -inf in every component
    rng = np.random.default_rng(31)
    M, _, _ = dominant_pair_matrix(rng, n=3)
    v = vmax_row(M)
    hits = 0
    for _ in range(200):
        y = -rng.uniform(0.01, 2.0, 3)
        expected = bool(v @ y < 0)
        if abs(v @ y) > 1e-9 * np.abs(y).max():
            assert matrix_basin_membership(M, y) == expected
            hits += 1
    assert hits > 150


def test_eigenvector_propagation_through_partial_turns():
    rng = np.random.default_rng(47)
    checked = 0
    for _ in range(40):
        cycle = random_cycle(rng, max_m=4)
        if not negative_entry_indices(cycle):
            continue
        try:
            s_j = eigen_decompose(full_return_matrix(cycle, 0))
        except (NoAdmissibleDominant, DefectiveMatrix):
            continue
        if not (s_j.condition_i and s_j.condition_ii):
            continue
        for l in range(cycle.m):
            target = (l + 1) % cycle.m
            w_prop = partial_turn_matrix(cycle, l, 0) @ np.real(s_j.w_max)
            M_l = full_return_matrix(cycle, target)
            assert np.allclose(M_l @ w_prop, s_j.lambda_max.real * w_prop, atol=1e-8)
        checked += 1
    assert checked >= 5


def _assert_same_summary(got, alone):
    for field in dataclasses.fields(alone):
        g, a = getattr(got, field.name), getattr(alone, field.name)
        if isinstance(a, np.ndarray):
            assert (g.dtype, g.shape, g.tobytes()) == (a.dtype, a.shape, a.tobytes()), field.name
        else:
            assert (type(g), g) == (type(a), a), field.name


def test_stacked_decomposition_keeps_each_matrix_dtype():
    # eig makes a whole stack complex when one matrix has a complex
    # eigenvalue; each matrix must still decompose as it does alone
    mats = [np.zeros((2, 2)), np.array([[0.0, -2.0], [2.0, 0.0]]),
            np.array([[2.0, 1.0], [0.5, -1.0]])]
    spectra = _eigen_decompose_many(np.array(mats), DEFAULT_TOL)
    message = re.escape("ambiguous dominant eigenvalue among [np.float64(0.0), np.float64(0.0)]")
    for decompose in (spectra.summary, lambda b: eigen_decompose(mats[b])):
        with pytest.raises(NoAdmissibleDominant, match=message):
            decompose(0)
    for b in (1, 2):
        _assert_same_summary(spectra.summary(b), eigen_decompose(mats[b]))
    assert spectra.summary(1).eigenvalues.dtype == np.complex128
    assert spectra.summary(2).eigenvalues.dtype == np.float64


def test_stacked_decomposition_equals_one_matrix_at_a_time():
    rng = np.random.default_rng(23)
    mats = rng.uniform(-2.0, 2.0, (60, 4, 4))
    mats[::7] = np.round(mats[::7])                 # ties and degenerate spectra
    mats[3] = [[1.5, 1.0, 0, 0], [0, 1.5, 0, 0], [0, 0, 2.0, 0], [0, 0, 0, 0.5]]  # defective
    mats[5] = np.diag([2.0, -2.0, 0.5, 0.1])        # ambiguous tie
    mats[6] = np.eye(4)                             # every modulus 1
    mats[8] = NONCONVERGENT                         # LAPACK's eig does not converge
    spectra = _eigen_decompose_many(mats, DEFAULT_TOL)
    kinds = set()
    for b, M in enumerate(mats):
        try:
            alone = eigen_decompose(M)
        except SpectralError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                spectra.summary(b)
            kinds.add(type(exc))
            continue
        _assert_same_summary(spectra.summary(b), alone)
        kinds.add(alone.eigenvalues.dtype)
    assert kinds == {NoAdmissibleDominant, DefectiveMatrix, SpectralError,
                     np.dtype(float), np.dtype(complex)}
