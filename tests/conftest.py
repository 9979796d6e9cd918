"""Shared helpers: independent oracles and random-cycle generation."""

import cmath

import numpy as np
import pytest

from hetstab import (ConnectionSpec, CycleSpec, NodeSpec, RspParams, ValidatedCycle,
                     as_basic_matrices, classify, eigen_decompose, f_index, full_return_matrix,
                     partial_turn_matrix, rsp_matrices, validate_cycle)
from hetstab.spectral import DEFAULT_TOL


# A finite 4 x 4 matrix on which LAPACK's eig (numpy 2.4.6) and the eigvals
# of its absolute value raise LinAlgError("Eigenvalues did not converge")
NONCONVERGENT = np.array([
    [-7.205883002316442e-193, 1.8115688211657617e-117, -1.1376883250057382e-125,
     -2.3856253803235328e+259],
    [0.0, 2.427489073221464e-86, 2.42566882401769e+40, -3.34152636362843e-160],
    [-0.0, -0.0, 0.0, 4.6747501137243005e-154],
    [2.390254576447452e+227, -7.777549064736068e-287, 1.5237073606204463e-104,
     1.0025038266656042e-98],
])


def naive_matmul(A, B) -> np.ndarray:
    """Triple-loop matrix product, independent of numpy's matmul path."""
    A = [[float(v) for v in row] for row in np.asarray(A)]
    B = [[float(v) for v in row] for row in np.asarray(B)]
    n, k, m = len(A), len(B), len(B[0])
    out = [[0.0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += A[i][t] * B[t][j]
            out[i][j] = acc
    return np.array(out)


def det3(M) -> float:
    M = np.asarray(M, float)
    return float(
        M[0, 0] * (M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1])
        - M[0, 1] * (M[1, 0] * M[2, 2] - M[1, 2] * M[2, 0])
        + M[0, 2] * (M[1, 0] * M[2, 1] - M[1, 1] * M[2, 0])
    )


def charpoly_eigenvalues(M) -> list[complex]:
    """Closed-form characteristic-polynomial roots for N <= 3.

    Quadratic formula for N = 2 and Cardano's method for N = 3; no calls
    into any eigenvalue routine.
    """
    M = np.asarray(M, float)
    n = M.shape[0]
    if n == 1:
        return [complex(M[0, 0])]
    if n == 2:
        tr = M[0, 0] + M[1, 1]
        det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        disc = cmath.sqrt(tr * tr - 4.0 * det)
        return [(tr + disc) / 2.0, (tr - disc) / 2.0]
    if n == 3:
        # lambda^3 + a lambda^2 + b lambda + c
        a = -float(np.trace(M))
        b = float(
            (M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])
            + (M[0, 0] * M[2, 2] - M[0, 2] * M[2, 0])
            + (M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1])
        )
        c = -det3(M)
        # depressed cubic t^3 + p t + q, lambda = t - a/3
        p = b - a * a / 3.0
        q = 2.0 * a**3 / 27.0 - a * b / 3.0 + c
        disc = cmath.sqrt((q / 2.0) ** 2 + (p / 3.0) ** 3)
        u = (-q / 2.0 + disc) ** (1.0 / 3.0)
        if abs(u) < 1e-30:
            u = (-q / 2.0 - disc) ** (1.0 / 3.0)
        if abs(u) < 1e-30:
            ts = [0.0 + 0.0j] * 3
        else:
            v = -p / (3.0 * u)
            w = cmath.exp(2j * cmath.pi / 3.0)
            ts = [u + v, u * w + v / w, u * w**2 + v / w**2]
        return [t - a / 3.0 for t in ts]
    raise ValueError("closed form implemented for N <= 3 only")


def assert_multisets_close(a, b, tol=1e-9):
    """Greedy nearest matching of two complex multisets within tol."""
    rem = list(b)
    assert len(a) == len(rem)
    for x in a:
        i = min(range(len(rem)), key=lambda k: abs(rem[k] - x))
        assert abs(rem[i] - x) <= tol, f"{x} unmatched within {tol} in {list(b)}"
        rem.pop(i)


def random_cycle(rng: np.random.Generator, max_m: int = 5, max_nt: int = 3,
                 sign: str = "any") -> ValidatedCycle:
    """Random valid cycle; sign controls transverse eigenvalue signs.

    sign="negative" keeps every transverse eigenvalue negative (all basic
    matrices non-negative); sign="mixed" forces at least one positive
    transverse eigenvalue somewhere; "any" leaves them unconstrained.
    """
    m = int(rng.integers(1, max_m + 1))
    nt = int(rng.integers(1, max_nt + 1))
    nodes, conns = [], []
    for _ in range(m):
        c = float(rng.uniform(0.6, 1.8))
        e = float(rng.uniform(0.6, 1.8))
        if sign == "negative":
            t = tuple(-float(x) for x in rng.uniform(0.2, 1.2, nt))
        else:
            t = tuple(float(x) for x in rng.uniform(-1.2, 1.2, nt))
        nodes.append(NodeSpec(contracting=c, expanding=e, transverse=t))
        perm = tuple(int(i) for i in rng.permutation(nt + 1))
        scal = tuple(float(s) for s in rng.uniform(0.5, 2.0, nt + 1))
        conns.append(ConnectionSpec(permutation=perm, scalings=scal,
                                    contraction_offset=float(rng.uniform(0.5, 2.0))))
    if sign == "mixed" and all(t < 0 for node in nodes for t in node.transverse):
        node = nodes[0]
        tweaked = (abs(node.transverse[0]),) + node.transverse[1:]
        nodes[0] = NodeSpec(contracting=node.contracting, expanding=node.expanding,
                            transverse=tweaked)
    return validate_cycle(CycleSpec(nodes=tuple(nodes), connections=tuple(conns)))


def attracting_cycle(rng: np.random.Generator, m: int, nt: int = 3) -> ValidatedCycle:
    """Random valid cycle of m nodes that mostly reaches the full sigma_j path.

    Every transverse eigenvalue is negative except one at 30% of the nodes,
    and c/e > 1 on average, so the dominant-pair conditions usually hold at
    every checkpoint and each sigma_j is a minimum over K direction vectors.
    """
    positive = set(rng.choice(m, round(0.3 * m), replace=False).tolist())
    nodes, conns = [], []
    for j in range(m):
        t = -rng.uniform(0.2, 1.2, nt)
        if j in positive:
            t[rng.integers(nt)] = rng.uniform(0.05, 0.3)
        nodes.append(NodeSpec(contracting=float(rng.uniform(1.1, 1.8)),
                              expanding=float(rng.uniform(0.8, 1.2)),
                              transverse=tuple(float(x) for x in t)))
        conns.append(ConnectionSpec(permutation=tuple(int(i) for i in rng.permutation(nt + 1))))
    return validate_cycle(CycleSpec(nodes=tuple(nodes), connections=tuple(conns)))


def dominant_pair_matrix(rng: np.random.Generator, n: int | None = None,
                 lam_range=(1.3, 2.2)) -> tuple[np.ndarray, np.ndarray, float]:
    """Random matrix with a real dominant eigenvalue > 1 and a strictly
    positive dominant eigenvector; returns (M, basis P, lambda_max)."""
    if n is None:
        n = int(rng.integers(2, 5))
    while True:
        P = rng.standard_normal((n, n))
        P[:, 0] = rng.uniform(0.2, 1.0, n)
        if np.linalg.cond(P) < 50.0:
            break
    lam = float(rng.uniform(*lam_range))
    others = rng.uniform(-0.9, 0.9, n - 1)
    D = np.diag(np.concatenate([[lam], others]))
    M = P @ D @ np.linalg.inv(P)
    return M, P, lam


def sigma_over_turns(cycle, turns: int = 60) -> list[float]:
    """Each node j's minimum of f_index over v_max of M^(j) and the rows of
    M_(q,j) (M^(j))^k, for every negative-entry node q and k = 0..turns: the
    index of a point that must stay in the tube at every later turn, not
    only at the first (ROADMAP item 1), as a test reference.  Each power
    (M^(j))^k is scaled to a largest magnitude of 1, which f_index cannot
    tell apart.  The dominant-pair conditions must hold at every node."""
    mats = as_basic_matrices(cycle)
    negative = [q for q, M in enumerate(mats) if M.min() < 0.0]
    values = []
    for j in range(len(mats)):
        full = full_return_matrix(mats, j)
        candidates = [eigen_decompose(full).v_max]
        power = np.eye(len(full))
        for _ in range(turns + 1):
            candidates += [row for q in negative for row in partial_turn_matrix(mats, q, j) @ power]
            power = full @ power
            power /= np.abs(power).max()
        values.append(min(f_index(alpha.tolist()) for alpha in candidates))
    return values


def classify_outcome(cycle, tol: float = DEFAULT_TOL):
    """classify's report for cycle, or the error it raises, as a value."""
    try:
        return classify(cycle, tol)
    except Exception as exc:   # every error classify raises is an outcome
        return exc


def rsp_grid(points: int = 61) -> list[list[np.ndarray]]:
    """The RSP basic matrices at every point of rsp-sweep --grid points,
    eps_x major."""
    grid = np.linspace(-1.0, 1.0, points + 2)[1:-1]
    return [rsp_matrices(RspParams(float(ex), float(ey))) for ex in grid for ey in grid]


@pytest.fixture(scope="session")
def rsp_grid_outcomes() -> list:
    """classify_outcome of every cycle of rsp_grid(61), computed once per
    test session."""
    return [classify_outcome(cycle) for cycle in rsp_grid()]
