import cmath
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from hetstab.spectral import (COND_LIMIT, DEFAULT_TOL, _defective, _dominant, _eigen_decompose_many,
                              _no_dominant)


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
    with pytest.raises(NoAdmissibleDominant):                # the pair test overflows
        eigen_decompose(np.diag([1.7e308, -1.7e308]))


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


def svd_defective(bases: np.ndarray, real: list[bool]) -> list[bool]:
    """The SVD rule that the det bound of spectral._defective filters, kept
    as its reference: not finite, or np.linalg.cond above COND_LIMIT, from
    the real SVD of a real basis and the complex SVD of a complex one."""
    out = []
    for P, is_real in zip(bases, real):
        if not np.isfinite(P).all():
            out.append(True)
            continue
        s = np.linalg.svd(P.real if is_real else P, compute_uv=False).tolist()
        out.append(not (s[-1] > 0.0 and s[0] / s[-1] <= COND_LIMIT))
    return out


def _unit_basis(rng, n: int, real: bool, tilt: float) -> np.ndarray:
    """An n x n basis with unit columns whose last column is its second-last
    tilted by tilt, so that its condition number is about 1 / tilt (exactly
    singular at tilt 0)."""
    P = rng.standard_normal((n, n)) + (0 if real else 1j * rng.standard_normal((n, n)))
    P[:, -1] = P[:, -2] + tilt * P[:, -1]
    return P / np.linalg.norm(P, axis=0)


@st.composite
def _bases(draw):
    """(bases, real): a stack of unit-column bases, real and complex, N 2-5,
    with condition numbers from 1 to past 1e16, near COND_LIMIT, exactly
    singular or not finite, and real[b] as eig's spectrum flag reads it."""
    n = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bases, real = [], []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["spread", "near-limit", "singular", "not-finite"]))
        tilt = {"spread": 10.0 ** -draw(st.floats(0.0, 17.0)),
                "near-limit": 10.0 ** -draw(st.floats(11.0, 13.0))}.get(kind, 0.0)
        real.append(draw(st.booleans()))
        P = _unit_basis(rng, n, real[-1], tilt)
        if kind == "not-finite":
            P[draw(st.integers(0, n - 1)), 0] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        bases.append(P)
    return np.array(bases), real


@settings(max_examples=300, deadline=None)
@given(_bases())
def test_det_bound_keeps_the_svd_rule(case):
    bases, real = case
    assert _defective(bases, real) == svd_defective(bases, real)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("real", [True, False])
def test_det_bound_near_the_limit_and_past_it(n, real):
    # tilts of 1e-13 to 1e-11 put the condition number on both sides of
    # COND_LIMIT; then an exactly singular basis and two not finite
    rng = np.random.default_rng(n)
    bases = [_unit_basis(rng, n, real, 1.0 / (COND_LIMIT * f)) for f in (0.1, 0.3, 1.0, 3.0, 10.0)]
    bases.append(_unit_basis(rng, n, real, 0.0))
    for bad in (np.nan, np.inf):
        bases.append(_unit_basis(rng, n, real, 1.0))
        bases[-1][0, -1] = bad
    bases = np.array(bases)
    flags = [real] * len(bases)
    defective = _defective(bases, flags)
    assert defective == svd_defective(bases, flags)
    assert set(defective[:5]) == {False, True} and defective[5:] == [True] * 3


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


def dominant_eigenvalue(eigenvalues: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """The one-row rule that spectral._dominant replaced, kept as its
    reference: the index of the dominant eigenvalue; raises when none is
    admissible."""
    moduli = np.abs(eigenvalues).tolist()
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


ROTATION = [[0.0, -1.0], [1.0, 0.0]]


@pytest.mark.parametrize("matrix", [
    np.diag([2.0, -2.0, 0.5]),                                    # a real tie
    np.block([[2.0, np.zeros((1, 2))], [np.zeros((2, 1)), 2.0 * np.array(ROTATION)]]),  # complex
    np.diag([1.0, -1.0, 1.0 + 1e-10]),                            # every modulus ~1, real
    ROTATION,                                                     # and complex
])
def test_no_dominant_message_is_the_eager_one(matrix):
    # the message is formatted when read, and reads as the one-row rule's,
    # which is formatted when raised
    with pytest.raises(NoAdmissibleDominant) as eager:
        dominant_eigenvalue(np.linalg.eigvals(matrix))
    with pytest.raises(NoAdmissibleDominant) as lazy:
        eigen_decompose(matrix)
    assert str(lazy.value) == str(eager.value)
    assert repr(lazy.value) == repr(eager.value)


def test_no_dominant_message_outlives_its_batch():
    mats = np.array([np.diag([2.0, -2.0, 0.5]), np.diag([1.0, -1.0, 1.0]),
                     np.diag([3.0, 0.5, 0.2])])
    spectra = _eigen_decompose_many(mats, DEFAULT_TOL)
    errors = [spectra.error(0), spectra.error(1)]
    spectra.eigenvalues[:] = 7.0                  # the error holds copies, not views
    for error in spectra.errors[:2]:              # of the eigenvalue row and the top set
        assert all(array.base is None for array in error.args[0][:2])
    assert [str(e) for e in errors] == [
        "ambiguous dominant eigenvalue among [np.float64(2.0), np.float64(-2.0)]",
        "all eigenvalue moduli within 1e-09 of 1: array([ 1., -1.,  1.])"]
    assert str(NoAdmissibleDominant("text")) == "text"


def _reference(values: np.ndarray, w: np.ndarray, tol: float):
    """(index, conditions) of one row by the one-row rule, or its error's message."""
    try:
        found = dominant_eigenvalue(values, tol)
    except NoAdmissibleDominant as exc:
        return str(exc)
    lam = complex(values[found])
    i = abs(lam.imag) <= tol * abs(lam)
    w = w[:, found].real.tolist()
    one_sign = i and (all(x > 0.0 for x in w) or all(x < 0.0 for x in w))
    return found, (i, lam.real > 1.0, one_sign)


@st.composite
def _rows(draw):
    """(tol, rows): a stack of eigenvalue rows that hits the rule's edges."""
    tol = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.25]))
    n = draw(st.integers(1, 5))
    edges = [0.0, 0.5, 1.0, 1.0 + tol / 2, 1.0 - tol / 2, 1.0 + 2 * tol, 2.0, 2.0 * (1 - tol),
             2.0 * (1 - tol / 2), 3.0]
    moduli = st.one_of(st.sampled_from(edges), st.floats(0.0, 4.0))
    angles = st.one_of(st.sampled_from([0.0, np.pi, np.pi / 2, -np.pi / 3, 1e-10]),
                       st.floats(-np.pi, np.pi))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        unit = draw(st.booleans())                     # every modulus within tol of 1
        row = []
        while len(row) < n:
            r = draw(st.sampled_from([1.0, 1.0 + tol / 2, 1.0 - tol / 2])) if unit else draw(moduli)
            z = cmath.rect(r, draw(angles))
            kind = draw(st.sampled_from(["real", "pair", "tie", "complex"]))
            if kind == "real":
                row.append(complex(draw(st.sampled_from([r, -r]))))
            elif kind == "complex" or len(row) == n - 1:
                row.append(z)
            elif kind == "pair":                       # a conjugate pair, or nearly one
                shift = draw(st.sampled_from([0.0, 0.5, 0.75, 2.0])) * tol * max(1.0, r)
                row += draw(st.permutations([z, z.conjugate() + shift]))
            else:                                      # an exact tie of distinct values
                row += [z, draw(st.sampled_from([-z, z, -z.conjugate(), 1j * z]))]
        rows.append(row)
    return tol, np.array(rows)


def _scaled_bases(rng, shape) -> np.ndarray:
    """Random bases whose columns each have a component exactly +1, some
    with every component positive, some with a zero real part."""
    bases = rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)
    positive = rng.random(shape[:1] + shape[2:]) < 0.5
    bases.real = np.where(positive[:, None, :], np.abs(bases.real) + 0.01, bases.real)
    bases.real[rng.random(shape) < 0.1] = 0.0
    bases[:, rng.integers(0, shape[1]), :] = 1.0
    return bases


@settings(max_examples=400, deadline=None)
@given(_rows(), st.booleans(), st.integers(0, 2**32 - 1))
@example((0.0, np.array([[2.0, -2.0, 0.5]])), True, 0)                 # exact tie, tol 0
@example((1e-9, np.array([[2j, -2j, 0.5], [1 + 3e-10, -1.0, 1j]])), False, 1)  # pair on top; all ~1
@example((0.0, np.array([[2.0, 0.5, 1.0 + 1e-12]])), True, 2)          # tol 0: ~1 is admissible
@example((0.25, np.array([[0.5j, 0.1875 - 0.5j, 0.1]])), False, 3)    # a near pair below 1
def test_array_rule_equals_the_one_row_rule(case, as_real, seed):
    tol, eigenvalues = case
    real = (eigenvalues.imag == 0.0).all(axis=1)
    if as_real and real.all():                 # eig gives a real array when every row is real
        eigenvalues = eigenvalues.real
    basis = _scaled_bases(np.random.default_rng(seed), eigenvalues.shape + eigenvalues.shape[1:])
    index, conditions, top = _dominant(eigenvalues, basis, tol)
    for b, row in enumerate(eigenvalues):
        values = row.real if real[b] else row
        expected = _reference(values, basis[b], tol)
        if isinstance(expected, str):
            error = _no_dominant(values, top[b], tol)
            assert type(error) is NoAdmissibleDominant and str(error) == expected
        else:
            assert b not in top
            assert (index[b], conditions[b]) == expected
