"""Independent Monte-Carlo verification of the analytic stability indices.

Everything here works at the return-map level, iterating the cross-section
maps directly rather than trusting any eigen-structure argument:

* point orbits are followed in log coordinates eta = ln x, where the maps
  are affine eta -> M_j eta + F_j; extremely small positive coordinates stay
  representable and overflow of exp is the only escape hatch needed;
* delta-basin membership demands that every partial-turn image stays below
  delta in max-norm over a budget of full returns, with a decreasing
  max-norm trend over the last quarter of the budget standing in for
  convergence to the cycle;
* the local index is estimated by sampling uniform points in positive-orthant
  eps-cubes at a ladder of levels, fitting the slopes of ln(fraction) and
  ln(1 - fraction) against ln(eps) over levels strictly inside (0, 1);
* the escape-exponent slope of a single half-space slice is estimated the
  same way from the membership test |x_1^{a_1} ... x_N^{a_N}| < 1.

Point batches are iterated coordinate-major: the orbit loops keep one
C-contiguous (N, n) array with a column per point, so a step is one N x N
matrix times a wide array and the max-norm is an element-wise maximum over
N contiguous rows.  Samples are drawn as rows of N coordinates, built in
place (uniform draw, negate, log1p, add ln eps) and transposed once on entry
to the loop, so the layout never changes which random number lands in which
coordinate.

Every ladder level is streamed: its draws are made, tested and counted in
consecutive blocks of at most BLOCK points in one buffer that the level
owns, so memory per level is bounded by the block and does not grow with
the sample count.  The blocks consume the level's RNG stream in the same
order as one big draw, and each point's membership depends on that point
alone, so the counts, and hence every estimate, are those of one big batch.

Estimates are deterministic: the RNG stream of every level is derived from
(seed, level index), so results are bit-identical for identical configs
regardless of how levels are scheduled.  HETSTAB_THREADS > 1 evaluates
ladder levels in a thread pool; the reduction is per-level and order-free.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .cycle import ValidatedCycle
from .findex import _components
from .stability import IndeterminateError
from .transition import (CycleLike, TransitionMatrix, _entries, _node_index, as_basic_matrices,
                         cyclic_products, log_offsets)

LOG_CAP = 709.0          # exp overflow boundary in double precision
DEEP_LOG = -1e9          # max-norm in log coordinates below this counts as converged
MIN_FIT_HITS = 8         # levels with fewer hits carry too much ln() bias to fit
BLOCK = 16384            # points per sampling block (384 KB of draws at N = 3)


class NonPositiveInput(ValueError):
    """Cross-section points must lie in the open positive orthant."""


class InsufficientResolution(RuntimeError):
    """Too few usable ladder levels to fit a slope."""


class Escaped:
    """Sentinel: an orbit left the representable / tracked region."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ESCAPED"


ESCAPED = Escaped()


def _ladder(epsilon_ladder: Iterable[float]) -> tuple[float, ...]:
    """epsilon_ladder as floats; ValueError unless finite, positive and strictly decreasing."""
    lad = tuple(float(e) for e in epsilon_ladder)
    if not lad or any(not 0 < e < math.inf for e in lad):
        raise ValueError("epsilon ladder must be non-empty, finite and positive")
    if any(a <= b for a, b in zip(lad, lad[1:])):
        raise ValueError("epsilon ladder must be strictly decreasing")
    return lad


def _log_point(x: Sequence[float], dim: int) -> np.ndarray:
    """ln x for a point x of shape (dim,) with finite, strictly positive coordinates."""
    x = np.asarray(x, float)
    if x.shape != (dim,):
        raise ValueError(f"point has wrong shape {x.shape} for dimension {dim}")
    if not (np.isfinite(x).all() and (x > 0.0).all()):
        raise NonPositiveInput("point must have finite, strictly positive coordinates")
    return np.log(x)


@dataclass(frozen=True)
class EstimatorConfig:
    """Sampling plan for the delta-basin index estimator.

    delta in (0, 1) caps the tube around the cycle; epsilon_ladder is a strictly
    decreasing list of cube half-widths, all below delta; max_full_turns
    bounds the orbit budget per sample.
    """

    delta: float = 1e-2
    epsilon_ladder: tuple[float, ...] = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
    samples_per_level: int = 4000
    max_full_turns: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        object.__setattr__(self, "epsilon_ladder", _ladder(self.epsilon_ladder))
        if any(e >= self.delta for e in self.epsilon_ladder):
            raise ValueError("every ladder level must be < delta")
        if self.samples_per_level < 1 or self.max_full_turns < 4:
            raise ValueError("need samples_per_level >= 1 and max_full_turns >= 4")


@dataclass(frozen=True)
class LevelEstimate:
    epsilon: float
    sigma_frac: float      # basin fraction Sigma-hat at this level
    stderr: float          # binomial standard error
    samples: int


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    residual: float        # rms of weighted fit residuals
    n_points: int


@dataclass(frozen=True)
class BasinEstimate:
    levels: tuple[LevelEstimate, ...]
    sigma_minus: float
    sigma_plus: float
    fit_minus: SlopeFit | None
    fit_plus: SlopeFit | None
    sigma_hat: float


@dataclass(frozen=True)
class FplusEstimate:
    levels: tuple[LevelEstimate, ...]   # sigma_frac = fraction inside the slice
    fit: SlopeFit | None
    fplus_hat: float


# ---------------------------------------------------------------------------
# Point maps
# ---------------------------------------------------------------------------


def apply_matrix_map(
    matrix: TransitionMatrix | np.ndarray,
    x: Sequence[float],
    consts: Sequence[float] | None = None,
    log_cap: float = LOG_CAP,
):
    """One cross-section map in original coordinates: x'_i = c_i prod_k x_k^{M_ik}.

    Evaluated through log coordinates; returns ESCAPED when the image
    overflows exp (any log coordinate above log_cap or non-finite).
    """
    M = _entries(matrix)
    eta = M @ _log_point(x, M.shape[0])
    if consts is not None:
        eta = eta + np.log(np.asarray(consts, float))
    if not np.all(np.isfinite(eta)) or np.any(eta > log_cap):
        return ESCAPED
    return np.exp(eta)


def _gmaps(cycle: CycleLike) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Basic matrices and log offsets of the maps, checking a raw list once.

    log_offsets would check a raw matrix list a second time only to size
    its zero offsets, so those are sized here from the checked matrices.
    """
    mats = as_basic_matrices(cycle)
    if not isinstance(cycle, ValidatedCycle):
        return mats, [np.zeros(M.shape[0]) for M in mats]
    return mats, log_offsets(cycle)


@np.errstate(over="ignore", invalid="ignore")   # an orbit that overflows has escaped
def _basin_mask(
    mats: list[np.ndarray],
    offs: list[np.ndarray],
    j: int,
    eta0: np.ndarray,
    delta: float,
    max_full_turns: int,
) -> np.ndarray:
    """Vectorised delta-basin membership for a batch of log-coordinate points.

    eta0 holds one point per row; it is transposed once so that the orbit
    loop works on a C-contiguous (N, n) array.  A sample is in the basin
    when no partial-turn image ever reaches delta in max-norm and its orbit
    either dives below DEEP_LOG or shows a decreasing max-norm trend over
    the last quarter of the turn budget.  A zero offset (raw matrices,
    default scalings) is skipped rather than added: the mask is the same,
    as -0.0 == 0.0, and the loop takes about a fifth less time.
    """
    m = len(mats)
    ln_delta = math.log(delta)
    n_samples = eta0.shape[0]
    result = np.zeros(n_samples, dtype=bool)

    eta = np.ascontiguousarray(eta0.T)
    keep = eta.max(axis=0) < ln_delta
    idx, eta = np.flatnonzero(keep), eta[:, keep]
    if idx.size == 0:
        return result

    cols = [off[:, None] if off.any() else None for off in offs]
    q3 = (3 * max_full_turns) // 4
    q3_max = np.full(n_samples, np.inf)
    for turn in range(max_full_turns):
        for step in range(m):
            l = (j + step) % m
            eta = mats[l] @ eta
            if cols[l] is not None:
                eta += cols[l]
            mx = eta.max(axis=0)
            # a NaN max fails both tests and counts as escaped
            keep = (mx > DEEP_LOG) & (mx < ln_delta)
            if not keep.all():
                result[idx[mx <= DEEP_LOG]] = True
                idx, eta, mx = idx[keep], eta[:, keep], mx[keep]
                if idx.size == 0:
                    return result
        if turn == q3:
            q3_max[idx] = mx
    result[idx[mx < q3_max[idx]]] = True
    return result


def in_delta_basin(cycle: CycleLike, j: int, x: Sequence[float], config: EstimatorConfig) -> bool:
    """Does the orbit of x from the incoming section of node j stay in the
    delta-tube and converge?"""
    mats, offs = _gmaps(cycle)
    cyclic_products(mats, _node_index(j, len(mats)), len(mats))
    eta0 = _log_point(x, mats[0].shape[0])[None, :]
    return bool(
        _basin_mask(mats, offs, j, eta0, config.delta, config.max_full_turns)[0]
    )


# ---------------------------------------------------------------------------
# Slope fitting
# ---------------------------------------------------------------------------


def _weighted_line_fit(xs, ys, ws) -> SlopeFit:
    xs, ys, ws = (np.asarray(a, float) for a in (xs, ys, ws))
    wsum = ws.sum()
    xb = (ws * xs).sum() / wsum
    yb = (ws * ys).sum() / wsum
    sxx = (ws * (xs - xb) ** 2).sum()
    slope = (ws * (xs - xb) * (ys - yb)).sum() / sxx
    intercept = yb - slope * xb
    res = ys - (slope * xs + intercept)
    residual = math.sqrt(float((ws * res**2).sum() / wsum))
    return SlopeFit(slope=float(slope), intercept=float(intercept),
                    residual=residual, n_points=len(xs))


def _tail_slope(levels: Sequence[LevelEstimate], use_complement: bool) -> SlopeFit | None:
    """Fit ln(frac) or ln(1-frac) against ln(eps) over usable interior levels.

    Levels saturated at 0 or 1 are excluded; so are levels whose relevant
    hit count falls below MIN_FIT_HITS, where the log of a tiny count is
    biased.  Weights are inverse delta-method variances and the log estimate
    carries the matching first-order bias correction.

    Two passes: choosing the window from *observed* counts keeps only levels
    that fluctuated upward near the cutoff, tilting the slope, so the first
    fit's predicted counts (noise-independent) pick the final window and
    weights, and only then are the observed fractions refit.
    """
    interior = []
    for lev in levels:
        p = 1.0 - lev.sigma_frac if use_complement else lev.sigma_frac
        if 0.0 <= p < 1.0:
            interior.append((math.log(lev.epsilon), p, lev.samples))

    xs, ys, ws = [], [], []
    for x, p, n in interior:
        if p * n < MIN_FIT_HITS:
            continue
        xs.append(x)
        ys.append(math.log(p) + (1.0 - p) / (2.0 * n * p))
        ws.append(n * p / (1.0 - p))
    if len(xs) < 2:
        return None
    first = _weighted_line_fit(xs, ys, ws)

    xs, ys, ws = [], [], []
    for x, p, n in interior:
        p_pred = math.exp(first.intercept + first.slope * x)
        if not 0.0 < p_pred < 1.0 or p_pred * n < MIN_FIT_HITS or p == 0.0:
            continue
        xs.append(x)
        ys.append(math.log(p) + (1.0 - p_pred) / (2.0 * n * p_pred))
        ws.append(n * p_pred / (1.0 - p_pred))
    if len(xs) < 2:
        return first
    return _weighted_line_fit(xs, ys, ws)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def _thread_count() -> int:
    try:
        return max(1, int(os.environ.get("HETSTAB_THREADS", "1")))
    except ValueError:
        return 1


def _sample_log_cube(rng: np.random.Generator, eps: float, out: np.ndarray) -> np.ndarray:
    # ln of Uniform(0, eps): ln(eps) + ln(U), U in (0, 1]; no underflow at any
    # depth.  Fills the caller's C-contiguous (n, dim) block in place.
    rng.random(out=out)
    np.negative(out, out=out)
    np.log1p(out, out=out)
    out += math.log(eps)
    return out


def _log_cube_blocks(rng: np.random.Generator, eps: float, n: int, dim: int):
    """Yield n log-cube points as consecutive blocks of at most BLOCK rows.

    Every block is written into the same buffer, so each must be used up
    before the next is drawn.
    """
    buf = np.empty((min(n, BLOCK), dim))
    for start in range(0, n, BLOCK):
        yield _sample_log_cube(rng, eps, buf[:min(BLOCK, n - start)])


def _levels(ladder: tuple[float, ...], samples: int, dim: int, seed: int,
            count: Callable[[np.ndarray], int]) -> tuple[LevelEstimate, ...]:
    """Per ladder level li, the fraction of samples log-cube points drawn from
    the RNG stream (seed, li) that count(block) finds inside, block by block."""
    def level(li: int) -> LevelEstimate:
        rng = np.random.default_rng((seed, li))
        inside = sum(int(count(eta)) for eta in _log_cube_blocks(rng, ladder[li], samples, dim))
        frac = inside / samples
        stderr = math.sqrt(frac * (1.0 - frac) / samples)
        return LevelEstimate(epsilon=ladder[li], sigma_frac=frac, stderr=stderr, samples=samples)

    threads = _thread_count()
    if threads == 1:
        return tuple(map(level, range(len(ladder))))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return tuple(pool.map(level, range(len(ladder))))


def estimate_sigma_mc(cycle: CycleLike, j: int, config: EstimatorConfig) -> BasinEstimate:
    """Monte-Carlo local stability index at the incoming section of node j.

    Per ladder level eps, samples uniform points of the positive-orthant
    eps-cube (one RNG stream per (seed, level)), measures the delta-basin
    fraction, then fits

        sigma_minus ~ slope of ln(Sigma-hat)   vs ln(eps)
        sigma_plus  ~ slope of ln(1-Sigma-hat) vs ln(eps)

    over interior levels, returning sigma_hat = sigma_plus - sigma_minus.
    Uniform saturation at 1 (or 0) short-circuits to the +inf (-inf)
    candidate; partial saturation with fewer than two usable levels raises
    InsufficientResolution.  A product pass from j that overflows raises
    ProductOverflow, as in classify.
    """
    mats, offs = _gmaps(cycle)
    cyclic_products(mats, _node_index(j, len(mats)), len(mats))
    levels = _levels(
        config.epsilon_ladder, config.samples_per_level, mats[0].shape[0], config.seed,
        lambda eta0: np.count_nonzero(
            _basin_mask(mats, offs, j, eta0, config.delta, config.max_full_turns)),
    )

    if all(lev.sigma_frac == 1.0 for lev in levels):
        return BasinEstimate(levels, sigma_minus=0.0, sigma_plus=math.inf,
                             fit_minus=None, fit_plus=None, sigma_hat=math.inf)
    if all(lev.sigma_frac == 0.0 for lev in levels):
        return BasinEstimate(levels, sigma_minus=math.inf, sigma_plus=0.0,
                             fit_minus=None, fit_plus=None, sigma_hat=-math.inf)

    fit_minus = _tail_slope(levels, use_complement=False)
    fit_plus = _tail_slope(levels, use_complement=True)
    if fit_minus is None or fit_plus is None:
        side = "basin" if fit_minus is None else "complement"
        raise InsufficientResolution(
            f"fewer than two usable ladder levels on the {side} side; "
            "deepen the ladder or raise samples_per_level"
        )
    return BasinEstimate(
        levels=levels,
        sigma_minus=fit_minus.slope,
        sigma_plus=fit_plus.slope,
        fit_minus=fit_minus,
        fit_plus=fit_plus,
        sigma_hat=fit_plus.slope - fit_minus.slope,
    )


def estimate_fplus_mc(
    alpha: Iterable[float],
    epsilon_ladder: Sequence[float],
    samples: int,
    seed: int,
) -> FplusEstimate:
    """Monte-Carlo escape exponent of one half-space slice.

    Per level eps = e^R, samples the positive-orthant eps-cube and counts
    the fraction with |x_1^{a_1} ... x_N^{a_N}| < 1, i.e. alpha . ln(x) < 0;
    the slope of ln(1 - fraction) against R is the escape exponent.  A run
    saturated inside the slice at every level reports the +inf candidate; one
    that never enters reports exactly 0.
    """
    a = np.asarray(_components(alpha))
    ladder = _ladder(epsilon_ladder)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    levels = _levels(ladder, samples, a.size, seed, lambda eta: np.count_nonzero(eta @ a < 0.0))

    if all(lev.sigma_frac == 1.0 for lev in levels):
        return FplusEstimate(levels=levels, fit=None, fplus_hat=math.inf)
    if all(lev.sigma_frac == 0.0 for lev in levels):
        return FplusEstimate(levels=levels, fit=None, fplus_hat=0.0)
    fit = _tail_slope(levels, use_complement=True)
    if fit is None:
        raise InsufficientResolution(
            "fewer than two usable ladder levels for the complement fraction"
        )
    return FplusEstimate(levels=levels, fit=fit, fplus_hat=fit.slope)


# ---------------------------------------------------------------------------
# Brute-force divergence test for a single matrix
# ---------------------------------------------------------------------------


def matrix_basin_membership(
    matrix: TransitionMatrix | np.ndarray,
    y: Sequence[float],
    max_iterations: int = 400,
    blowup_factor: float = 1e9,
) -> bool | np.ndarray:
    """Does iterating y <- M y drive every component to -inf?

    Brute force, no eigen-analysis: iterate until the largest component
    crosses -blowup_factor * ||y||_inf (diverged to -inf in every component,
    True) or +blowup_factor * ||y||_inf / reaches non-finite values (False),
    else judge by the max-component trend over the final quarter of the
    budget.  A flat trend at the cap raises IndeterminateError.

    y may be a single strictly negative vector or a batch of them stacked in
    rows; batches return a boolean array.  The batch is iterated as one
    (N, n) array, one column per point.
    """
    M = _entries(matrix)
    arr = np.asarray(y, float)
    single = arr.ndim == 1
    batch = arr[None, :] if single else arr
    if batch.ndim != 2 or batch.shape[1] != M.shape[0]:
        raise ValueError(f"samples have wrong shape {arr.shape} for {M.shape} matrix")
    if np.any(batch >= 0.0) or not np.all(np.isfinite(batch)):
        raise ValueError("initial points must be finite and strictly negative")

    cur = np.ascontiguousarray(batch.T)
    scale = np.abs(cur).max(axis=0)
    neg_wall = -blowup_factor * scale
    pos_wall = blowup_factor * scale

    n = batch.shape[0]
    result = np.zeros(n, dtype=bool)
    idx = np.arange(n)
    q3 = (3 * max_iterations) // 4
    q3_max = np.full(n, np.nan)
    mx = cur.max(axis=0)
    for it in range(max_iterations):
        cur = M @ cur
        mx = cur.max(axis=0)
        finite = np.isfinite(cur).all(axis=0)
        diverged = (mx <= neg_wall[idx]) & finite
        # escape means the signed max component blowing up, not magnitude:
        # a diverging orbit's most negative component grows just as fast
        blown = ((mx >= pos_wall[idx]) & finite) | ~finite
        if diverged.any():
            result[idx[diverged]] = True
        keep = ~(diverged | blown)
        if not keep.all():
            idx, cur, mx = idx[keep], cur[:, keep], mx[keep]
        if idx.size == 0:
            break
        if it == q3:
            q3_max[idx] = mx

    if idx.size:
        ref = q3_max[idx]
        falling = mx < ref - np.abs(ref) * 1e-12
        rising = mx > ref + np.abs(ref) * 1e-12
        flat = ~(falling | rising) | np.isnan(ref)
        if flat.any():
            raise IndeterminateError(
                node=-1,
                cause=RuntimeError(
                    f"{int(flat.sum())} orbit(s) neither diverging nor escaping "
                    f"after {max_iterations} iterations"
                ),
            )
        result[idx[falling]] = True

    return bool(result[0]) if single else result
