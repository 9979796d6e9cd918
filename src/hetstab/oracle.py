"""Independent Monte-Carlo verification of the analytic stability indices.

Everything here works at the return-map level, iterating the cross-section
maps directly rather than trusting any eigen-structure argument:

* point orbits are followed in log coordinates eta = ln x, where the maps
  are affine eta -> M_j eta + F_j, so extremely small positive coordinates
  stay representable and no point is ever exponentiated; an orbit that
  overflows even in log coordinates counts as escaped, and a coordinate
  that underflows to x = 0 is eta = -inf, which a map ignores where its
  entry is 0 (x^0 = 1): the matmul gives 0 * -inf = NaN there, so a column
  that comes out NaN is stepped again from the block before it (_log_step),
  and that block is released with the step (_basin_mask);
* delta-basin membership is decided over a budget of full returns, with a
  falling max-norm standing in for convergence to the cycle (_basin_mask);
  estimate_sigma_mc first builds a basin certificate from the maps alone
  (_cone): a ratio-box cone around the direction of the oracle's own power
  iteration, verified to map into itself over k turns with a depth growth
  g > 1, with margins for every rounding.  An orbit inside it, deep enough
  to reach DEEP_LOG within the budget, is marked in the basin at a turn
  boundary instead of being followed there; the certificate only proves
  the outcome the loop would reach, so every mask is unchanged;
* the local index is estimated by sampling uniform points in positive-orthant
  eps-cubes at a ladder of levels, fitting the slopes of ln(fraction) and
  ln(1 - fraction) against ln(eps) over levels strictly inside (0, 1); the
  ladder rule is stated in ln(eps) too (_ladder, EstimatorConfig): it
  strictly decreases, so no two levels share an abscissa, and stays below
  ln(delta), so every sample starts inside the tube and _basin_mask has no
  entry test;
* the escape exponent F+ of a single half-space slice is the complement
  side of the same fit, with |x_1^{a_1} ... x_N^{a_N}| < 1 as the membership
  test; a bound on alpha . ln(x) that keeps a margin far beyond the log
  test's rounding certifies a box of raw uniforms inside (_certificate),
  whose rows are counted by binomial draws and never drawn, and only the
  rows outside the box are drawn, from their conditional law, and take
  logarithms, so each count has the law of the log test on every sample;
  _side decides saturation, the fit and InsufficientResolution for both
  estimators;
* matrix_basin_membership decides divergence of y <- M y by brute force.

Each call builds its maps once, in turn order from its start node, with the
one full return of the call and the map norms (_gmaps, _Maps).  Point
batches are iterated coordinate-major: the orbit loops keep one
C-contiguous (N, n) array with a column per point, so a step is one N x N
matrix times a wide array.  _basin_mask first settles a step for the whole
block, by one full max and a carried bound on the max-norm that uses
||M||_inf and ||F||_inf only, and takes the per-column maxima (an
element-wise maximum over N contiguous rows) only when that cannot decide.
Samples are drawn as rows of N raw uniforms (_blocks), turned into log
coordinates in place (_sample_log_cube) and transposed once on entry to
the loop, so the layout never changes which random number lands in which
coordinate.  Every ladder level is streamed in blocks (_blocks).

Estimates are deterministic: the RNG stream of every level is derived from
(seed, level index), so results are bit-identical for identical configs.
Each estimate evaluates its ladder levels in order on the calling thread.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .cycle import REALS, ValidatedCycle, _integer, _real, _reals
from .findex import _components
from .stability import IndeterminateError
from .transition import (CycleLike, _entries, _floats, _node_index, _overflow,
                         as_basic_matrices, cyclic_products)

__all__ = ["EstimatorConfig", "BasinEstimate", "FplusEstimate", "LevelEstimate", "SlopeFit",
           "in_delta_basin", "estimate_sigma_mc", "estimate_fplus_mc", "matrix_basin_membership",
           "NonPositiveInput", "InsufficientResolution"]

DEEP_LOG = -1e9          # max-norm in log coordinates below this counts as converged
MIN_FIT_HITS = 8         # levels with fewer hits carry too much ln() bias to fit
BLOCK = 16384            # points per sampling block (384 KB of draws at N = 3)
MEMBERSHIP_STEPS = 400   # iteration budget of matrix_basin_membership
BLOWUP = 1e9             # its divergence wall, in units of ||y||_inf
CONE_TURNS = (1, 2, 4, 8, 16, 32)       # the k ladder of the basin certificate (_cone)
CONE_WIDTHS = (1 / 2, 1 / 4, 1 / 8, 1 / 16)   # its ratio-box half-widths, widest first
CONE_MAX_DIM = 8         # largest N with a basin certificate: 2^(N-1) = 128 vertex rays
POWER_SQUARINGS = 6      # the certificate's direction is that of 2^6 = 64 turns
CONE_GATE = 64           # columns of a block tested before the whole block (_in_cone)


class NonPositiveInput(ValueError):
    """Cross-section points must lie in the open positive orthant."""


class InsufficientResolution(RuntimeError):
    """Too few usable ladder levels to fit a slope."""


def _ladder(epsilon_ladder: Iterable[float]) -> tuple[float, ...]:
    """epsilon_ladder as floats; ValueError unless a sequence of numbers
    (cycle._reals) that are finite and positive, with math.log(eps) strictly
    decreasing: the fits read ln(eps), so two levels an ulp apart that share
    it would divide 0 by 0."""
    lad = _reals(epsilon_ladder, "epsilon ladder")
    if not lad or any(not 0 < e < math.inf for e in lad):
        raise ValueError("epsilon ladder must be non-empty, finite and positive")
    if any(math.log(a) <= math.log(b) for a, b in zip(lad, lad[1:])):
        raise ValueError("epsilon ladder must be strictly decreasing")
    return lad


def _log_ladder(start: float, end: float, count: int) -> list[float]:
    """count levels from start down to end, both kept exactly, evenly spaced
    in log10; 10.0 ** k is correctly rounded, so whole decades give exact
    powers of ten, where np.geomspace can miss them by an ulp."""
    logs = np.linspace(math.log10(start), math.log10(end), count).tolist()
    return [start, *(10.0 ** x for x in logs[1:-1]), end][:count]


def _whole(value, least: int, name: str, below: float = math.inf) -> int:
    """value as an int; ValueError unless an integer >= least and < below
    (numpy ints count, bools do not)."""
    if not _integer(value) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    if value >= below:
        raise ValueError(f"{name} must be an integer < {below}, got {value!r}")
    return int(value)


def _log_point(x: Sequence[float], dim: int) -> np.ndarray:
    """ln x for a point x of shape (dim,) with finite, strictly positive coordinates."""
    x = _floats(x)
    if x.shape != (dim,):
        raise ValueError(f"point has wrong shape {x.shape} for dimension {dim}")
    if not (np.isfinite(x).all() and (x > 0.0).all()):
        raise NonPositiveInput("point must have finite, strictly positive coordinates")
    return np.log(x)


@dataclass(frozen=True)
class EstimatorConfig:
    """Sampling plan for the delta-basin index estimator.

    delta in (0, 1) caps the tube around the cycle; epsilon_ladder is a list
    of cube half-widths (_ladder), each with math.log(eps) < math.log(delta),
    so every sample of _sample_log_cube, ln(eps) + log1p(-U) <= ln(eps),
    starts strictly inside the delta tube (the precondition of _basin_mask);
    max_full_turns bounds the orbit budget per sample.  samples_per_level >=
    1, max_full_turns >= 4 and seed >= 0 are integers.
    """

    delta: float = 1e-2
    epsilon_ladder: tuple[float, ...] = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
    samples_per_level: int = 4000
    max_full_turns: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if not (isinstance(self.delta, REALS) and 0 < self.delta < 1):
            raise ValueError(f"delta must be a real number in (0, 1), got {self.delta!r}")
        object.__setattr__(self, "delta", _real(self.delta, "delta"))
        object.__setattr__(self, "epsilon_ladder", _ladder(self.epsilon_ladder))
        if any(math.log(e) >= math.log(self.delta) for e in self.epsilon_ladder):
            raise ValueError("every ladder level must be < delta")
        for name, least in (("samples_per_level", 1), ("max_full_turns", 4), ("seed", 0)):
            object.__setattr__(self, name, _whole(getattr(self, name), least, name))


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


class _Maps(NamedTuple):
    """The log-coordinate maps eta -> M eta + F of a cycle in turn order from
    a start node j: entry s is the map of node (j + s) mod m (_gmaps)."""

    mats: list[np.ndarray]         # M, (N, N)
    cols: list                     # F as an (N, 1) column, None where zero (skipped, not added)
    norms: list[tuple[float, float]]   # (||M||_inf, ||F||_inf), for the dive bound
    turn: np.ndarray               # the full return M^(j), the product of mats in order


def _gmaps(cycle: CycleLike, j: int) -> _Maps:
    """The maps of the cycle from node j (_maps), with the offsets F_l = A_l
    (ln v_{0,l} + ln a_{l,1}, ln a_{l,2}, ..., ln a_{l,N}), A_l the
    connection's axis permutation: zero for default constants, and always
    zero when the cycle is given as raw matrices.  The start node j is
    checked, and a product pass from j that overflows raises ProductOverflow
    naming j, as in classify."""
    mats = as_basic_matrices(cycle)
    j = _node_index(j, len(mats))
    offs = [np.zeros(M.shape[0]) for M in mats]
    if isinstance(cycle, ValidatedCycle):
        for l, conn in enumerate(cycle.connections):
            f = np.log(np.asarray(conn.scalings, float))
            f[0] += np.log(conn.contraction_offset)
            offs[l] = f[list(conn.permutation)]
    maps = _maps(mats, offs, j)
    if not np.isfinite(maps.turn).all():
        raise _overflow(j)
    return maps


def _maps(mats: list[np.ndarray], offs: list[np.ndarray], j: int) -> _Maps:
    """The _Maps from node j of the maps eta -> M_l eta + F_l in node order;
    its turn, the last product of the pass from j, is kept if it overflows."""
    turn = cyclic_products(mats, range(j, j + 1), len(mats))[0, -1]
    mats, offs = [*mats[j:], *mats[:j]], [*offs[j:], *offs[:j]]
    return _Maps(mats, [f[:, None] if f.any() else None for f in offs],
                 [(float(np.abs(M).sum(axis=1).max()), float(np.abs(f).max(initial=0.0)))
                  for M, f in zip(mats, offs)], turn)


@dataclass(frozen=True)
class _Cone:
    """A verified basin certificate for the orbits of one _Maps (_cone).

    A column eta of _basin_mask at the end of turn t is in the basin when
    -eta_0 > depth(t) and lo <= eta_i / eta_0 <= hi for i >= 1, with the
    ratios as computed (_in_cone).
    """

    lo: np.ndarray         # (N-1, 1) least ratios of the membership test
    hi: np.ndarray         # (N-1, 1) greatest ratios of the membership test
    least: float           # least certifiable depth -eta_0
    deep: float            # a depth that no live column has, -DEEP_LOG / min(1, lo)
    g: float               # least depth growth per k turns
    k: int                 # turns per step of the growth g
    budget: int            # max_full_turns

    def depth(self, turn: int) -> float:
        """The least depth that passes at the end of turn (_cone); inf where
        no live column can pass."""
        try:
            dive = self.deep / self.g ** ((self.budget - 1 - turn) // self.k) * (1.0 + 2.0**-30)
        except OverflowError:          # g^n beyond double range: the dive does not bind
            dive = 0.0
        need = max(self.least, dive)
        return need if need < self.deep else math.inf


def _vertex_rays(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The 2^(N-1) vertex rays (-1, -c) of the ratio box [lo, hi], one per column."""
    return -np.array([[1.0, *c] for c in itertools.product(*zip(lo, hi))]).T


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _cone(maps: _Maps, delta: float, max_full_turns: int) -> _Cone | None:
    """The basin certificate of _basin_mask for the orbits of maps, or None.

    It is built from the maps alone, with no eigen-analysis.  The direction
    d is the oracle's own power iteration: the full return maps.turn,
    raised to the power 2^POWER_SQUARINGS by squaring (each square rescaled
    to max |entry| = 1), applied to the all -1 point and rescaled to max
    |d_i| = 1.  With r = d_i / d_0 (i >= 1) and a half-width w of CONE_WIDTHS,
    the ratio box is lo = r (1 - w), hi = r (1 + w), and the cone {eta :
    eta_0 < 0, lo <= eta_i / eta_0 <= hi} holds the rays s c, s > 0, with c
    in the convex hull of the box's 2^(N-1) vertex rays v (v_0 = -1).  The
    vertex rays of every box are stepped k full turns (K = k m map steps)
    for k in CONE_TURNS.  For each width, widest first, the least k that
    verifies (the checks below) and leaves the dive unbound at the end of
    turn 0 (depth(0) is the least certifiable depth) is taken, and the first
    width that has one gives the certificate.  There is none when N >
    CONE_MAX_DIM, when d is not strictly negative, when no (k, w) verifies,
    and when at every verified pair the turn budget is too short for the
    dive, or the least certifiable depth is one that no live column has.

    Exact argument.  P_p is the product of the first p linear maps.  For
    eta = s c in the cone, P_p eta = s sum w_v P_p v (w_v >= 0, sum 1), so
    no coordinate of a partial image exceeds -s q, with q the least
    -coordinate of P_p v over the vertices and p = 1..K.  P_K eta has depth
    at least s g, with g the least depth of the P_K v, and its ratios are a
    weighted mean of theirs, so the cone maps into itself when every vertex
    image lies in the box.  After n steps of k turns the depth is at least
    s g^n and the max coordinate at most -s g^n min(1, lo), which is <=
    DEEP_LOG once s g^n min(1, lo) >= -DEEP_LOG; until then no partial image
    reaches ln(delta) when s q > |ln delta|.  So, if n k more turns fit in
    the budget, the column is in the basin, and the per-column test finds
    it so: its first decision is a dive.

    Rounding (Higham 2002, sec. 3.5).  One float step is fl(M x + f) = M x +
    f + e with |e| <= gamma (|M||x| + |f|), gamma = gamma_{N+1} (the sum
    order, FMA and a skipped zero offset included), so ||e|| <= gamma (mu
    ||x|| + phi), with mu = max ||M_l||_inf and phi = max ||F_l||_inf.  Let A
    bound ||P_{r->p}||_inf over every segment of at most K steps from any
    start phase.  The float orbit of an eta of depth s and ||eta|| <= s h,
    h = max(1, hi), is x_p = P_p eta + W_p + sum P_{r->p} e_r, where the
    offsets' part W_p is the exact orbit of 0, of max-norm omega over p <=
    K; so, with c = K A gamma mu <= 2^-20,
        ||x_p - P_p eta|| <= s rho,
        rho = ((omega + K A gamma phi) / s + K A^2 gamma mu h) / (1 - c).
    A is twice the largest computed segment norm: by the same bound a
    computed product errs by at most c A / (1 - c) in norm.  The vertex
    orbits are float orbits with s = 1 and no offsets, so they err by at
    most rho as well.  The float orbit of 0 is stepped with them, and by
    the same bound its max-norm omega^ gives (omega + K A gamma phi) / (1 -
    c) <= Omega = (omega^ + 2 K A gamma phi) / (1 - 2c)^2.  Hence, with ^ for a computed value, every partial
    image of a cone column has coordinates <= -s (q^ - 2 rho), its depth
    grows by at least g^ - 2 rho per k turns, its ratios lie within rho (1
    + hi) / (g^ - 2 rho) of the exact image's, and the vertex images' exact
    ratios within as much of the computed ones, plus 2^-53 of a ratio for
    the division.  So a (k, w) verifies when g = g^ - 2 rho > 1, q = q^ - 2
    rho > 0 and every computed vertex ratio lies in [lo + tau, hi - tau],
    tau = 3 rho (1 + hi) / g + 2^-50 hi.  Offsets are taken as this
    perturbation, not skipped: non-zero offsets keep the offset term of rho
    at most rho_F by certifying only depths s >= s_F = Omega / rho_F, and
    depth only grows, so the bound holds at every later step; zero offsets
    have no such term.  Any rho_F > 0 is sound, as the checks read rho with
    it; rho_F is half the largest rho that they admit (from g^, q^ and the
    vertex ratios' distance to the box edges) less the rest of rho.  A live
    column has s < -DEEP_LOG / min(1, lo), so every coordinate of its orbit
    stays below -DEEP_LOG (A h + rho) / min(1, lo) in magnitude, which is
    checked to be far from overflow; underflow adds a few subnormals, far
    below s rho.

    depth(t) is the least depth that passes at the end of turn t: above
    |ln delta| / q and s_F, and at least -DEEP_LOG / (min(1, lo) g^n) with
    n = (max_full_turns - 1 - t) // k the whole steps left, each rounded up
    by 2^-30 of itself (_Cone.depth, from the scalars of the certificate).
    The membership test reads the box shrunk by 2^-50 of each bound, so a
    computed ratio inside it puts the exact one in [lo, hi].
    """
    m, n = len(maps.mats), len(maps.turn)
    if n > CONE_MAX_DIM:
        return None
    power = maps.turn
    for _ in range(POWER_SQUARINGS):
        power = power @ power
        power = power / np.abs(power).max()
    d = power @ -np.ones(n)
    d = d / np.abs(d).max()
    if not (d < 0.0).all():   # NaN fails too
        return None
    boxes = [(d[1:] / d[0] * (1.0 - w), d[1:] / d[0] * (1.0 + w)) for w in CONE_WIDTHS]
    rays = np.concatenate([_vertex_rays(lo, hi) for lo, hi in boxes], axis=1)
    nv = rays.shape[1] // len(boxes)
    stack, phases = np.array(maps.mats), np.arange(m)
    segment, norm = np.broadcast_to(np.eye(n), (m, n, n)), 1.0
    mu, phi = map(max, zip(*maps.norms))
    origin, omega = np.zeros((n, 1)), 0.0   # the float orbit of 0, and its max-norm
    gamma = (n + 1) * 2.0**-53 / (1.0 - (n + 1) * 2.0**-53)
    least = np.full(rays.shape[1], np.inf)
    best, wider = None, len(boxes)   # a larger k is tried only on boxes wider than best's
    for steps in range(1, max(CONE_TURNS) * m + 1):
        M, col = maps.mats[(steps - 1) % m], maps.cols[(steps - 1) % m]
        rays = M @ rays
        if phi > 0.0:
            origin = M @ origin if col is None else M @ origin + col
            omega = max(omega, float(np.abs(origin).max()))
        least = np.minimum(least, -rays.max(axis=0))
        segment = stack[(phases + steps - 1) % m] @ segment
        norm = max(norm, float(np.abs(segment).sum(axis=2).max()))
        if steps % m or steps // m not in CONE_TURNS:
            continue
        shift = omega + 2.0 * steps * (2.0 * norm) * gamma * phi   # Omega before its divisor
        for b in range(wider):
            cols = slice(b * nv, (b + 1) * nv)
            cone = _verified(steps // m, steps, *boxes[b], rays[:, cols],
                             least[cols], 2.0 * norm, mu, shift, gamma, delta, max_full_turns)
            if cone is not None:
                best, wider = cone, b
                break
        if wider == 0:
            break
    return best


def _verified(k: int, steps: int, lo: np.ndarray, hi: np.ndarray, images: np.ndarray,
              least: np.ndarray, a: float, mu: float, shift: float, gamma: float,
              delta: float, max_full_turns: int) -> _Cone | None:
    """The certificate of one (k, w) pair of _cone, from the computed vertex
    images after k turns and the least -coordinate of their partial images;
    None unless it verifies with the margins stated there."""
    c = steps * a * gamma * mu
    if not c <= 2.0**-20:
        return None
    h, floor = max(1.0, float(hi.max())), min(1.0, float(lo.min()))
    rho = steps * a * a * gamma * mu * h / (1.0 - c)
    g, q = float(-images[0].max()), float(least.min())
    ratios = images[1:] / images[0]
    least_depth = 0.0
    if shift > 0.0:
        edge = np.maximum(np.minimum(ratios - lo[:, None], hi[:, None] - ratios).min(axis=1)
                          - 2.0**-50 * hi, 0.0)
        room = min((g - 1.0) / 2.0, q / 2.0,
                   float(np.min(edge * g / (3.0 * (1.0 + hi) + 2.0 * edge), initial=math.inf)))
        rho_f = room / 2.0 - rho
        if not rho_f > 0.0:
            return None
        least_depth = shift / ((1.0 - 2.0 * c) ** 2 * rho_f)
        rho += rho_f
    g, q = g - 2.0 * rho, q - 2.0 * rho
    deep = -DEEP_LOG / floor
    if not (g > 1.0 and q > 0.0 and deep * (a * h + rho) < 1e300):
        return None
    tau = (3.0 * rho * (1.0 + hi) / g + 2.0**-50 * hi)[:, None]
    if not ((ratios >= lo[:, None] + tau) & (ratios <= hi[:, None] - tau)).all():
        return None
    least_depth = max(least_depth, abs(math.log(delta)) / q) * (1.0 + 2.0**-30)
    cone = _Cone((lo * (1.0 + 2.0**-50))[:, None], (hi * (1.0 - 2.0**-50))[:, None],
                 least_depth, deep, g, k, max_full_turns)
    # depth(0) is above least_depth where the dive binds, or no column can pass
    return cone if cone.depth(0) == least_depth else None


def _compact(keep: np.ndarray, idx: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The kept columns of a _basin_mask block: indices and orbits."""
    return idx[keep], np.compress(keep, eta, axis=1)


def _in_cone(cone: _Cone, eta: np.ndarray, depth: float, idx: np.ndarray, n: int) -> np.ndarray:
    """The live columns of eta (index idx < n), at the end of a turn whose
    least depth is depth (_Cone.depth), that the certificate puts in the
    basin; none, with no full test, when none of the first CONE_GATE
    columns passes, which only delays a certification."""
    def inside(part: np.ndarray) -> np.ndarray:
        ratios = part[1:] / part[0]
        return (-part[0] > depth) & ((ratios >= cone.lo) & (ratios <= cone.hi)).all(0)

    head = inside(eta[:, :CONE_GATE])
    if not head.any():
        return np.zeros(eta.shape[1], dtype=bool)
    return (inside(eta) if eta.shape[1] > CONE_GATE else head) & (idx < n)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")   # an orbit that overflows has escaped
def _basin_mask(maps: _Maps, eta0: np.ndarray, delta: float, max_full_turns: int,
                cone: _Cone | None = None) -> np.ndarray:
    """Vectorised delta-basin membership for a batch of log-coordinate points
    under the maps of one start node, in turn order (_Maps).

    eta0 holds one point per row, and every point must start strictly
    inside the tube, max(eta) < ln(delta): each sample of an
    EstimatorConfig does (_sample_log_cube), and in_delta_basin answers
    False for any other point without calling this.  A sample is in the
    basin when no partial-turn image ever reaches delta in max-norm and its
    orbit either dives below DEEP_LOG or shows a decreasing max-norm trend
    over the last quarter of the turn budget.  A live column whose max
    comes out NaN is stepped again, once, with _log_step from the block its
    step started from, so a coordinate that has overflowed to -inf
    (converged) does not turn 0 * -inf into an escape.  That block is
    released as soon as the step is settled, on the whole-block path too:
    one kept alive into the next matmul makes it take fresh pages.  A zero
    offset (raw matrices, default scalings) is skipped rather than added:
    the mask is the same, as -0.0 == 0.0, and the criterion-6 estimate takes
    about a fifth less time.

    Each step first tries to settle the whole block, and takes the column
    maxima only when that fails, so the masks are those of the per-column
    test bit for bit:
    * tube: eta.max() < ln(delta) puts every column inside the tube; a NaN
      propagates through the max and fails the comparison;
    * dive: no column can reach max <= DEEP_LOG while every |eta_ic| is
      below -DEEP_LOG.  A bound B >= ||eta||_inf is carried as
      B' = (||M|| B + ||F||) * slack (_Maps.norms), and re-measured as
      -eta.min() (every coordinate is negative once the tube test has
      passed) when B' reaches -DEEP_LOG.  With u = 2^-53 and gamma_N = N u
      / (1 - N u), any summation order gives |fl(M x + f)| <= (1 +
      gamma_N)(|M||x| + |f|) (1 + u) (Higham 2002, sec. 3.5), so ||eta'||
      <= (1 + gamma_N)(1 + u) (||M|| B + ||F||).  The computed row sums of |M| lose at most a factor
      (1 - u)^(N-1), and the three operations of B' at most (1 - u)^3, so
      slack = 1 + (2N + 3) 2u >= 1 / (1 - (2N + 3) u) covers all of it.  A
      B' below 1e9 rules out overflow, and underflow adds a few subnormals,
      far below the gap between B' and 1e9.
    A column that the per-column test decides stays in its slot as a copy
    of a live column, with its index at a trash slot (result[n], cut
    off on return).  A whole-block test speaks for every column, so it holds
    for the live ones whatever the dead slots hold, and as copies they step
    like live columns and fail no test of their own; a dead copy that turns
    NaN is overwritten again, and only live columns are stepped again.  A
    block is compacted (_compact) only at a turn end: with the columns a cone
    certifies, or once more than half of it is dead.  The column maxima are
    taken only for the per-column test of a step, at turn q3 and after the
    last turn, and never kept from one of these to the next.

    With a cone (_cone, built once per estimate_sigma_mc call; None for
    in_delta_basin), the live columns are tested at the end of each turn
    whose least depth (_Cone.depth) is finite (_in_cone; only when one of
    the first CONE_GATE passes, as a skipped test only delays a
    certification), and one that the certificate puts in the basin is
    marked so and dropped.  The certificate proves, with margins for every
    rounding, that the per-column test would find that column's first
    decision to be a dive below DEEP_LOG within the budget; it never decides
    an escape, and every other column runs the loop above unchanged, so
    each mask is still bit for bit that of the per-column test.  On the
    criterion-6 config the cone decides all 311663 basin samples by turn 3,
    and each of the 24 blocks is compacted once, at the drop of turn 2.
    """
    layers = list(zip(maps.mats, maps.cols, maps.norms))
    ln_delta = math.log(delta)
    n = eta0.shape[0]
    result = np.zeros(n + 1, dtype=bool)   # result[n] is the dead columns' trash slot

    eta = np.ascontiguousarray(eta0.T)
    idx = np.arange(n)
    slack = 1.0 + (2 * eta.shape[0] + 3) * 2.0**-52
    q3 = (3 * max_full_turns) // 4
    bound, dead = math.inf, 0
    for turn in range(max_full_turns):
        for M, col, (norm_m, norm_f) in layers:
            prev, eta = eta, M @ eta
            if col is not None:
                eta += col
            if eta.max() < ln_delta:
                bound = (norm_m * bound + norm_f) * slack
                if not bound < -DEEP_LOG:   # also NaN, from inf * 0
                    bound = -float(eta.min())
                if bound < -DEEP_LOG:
                    prev = None
                    continue
            mx = eta.max(axis=0)
            bound = math.inf
            # a NaN max fails both tests and counts as escaped, unless
            # stepping again shows it was 0 * -inf from a converged coordinate
            keep = (mx > DEEP_LOG) & (mx < ln_delta)
            out = np.flatnonzero(~keep)
            nan = out[np.isnan(mx[out]) & (idx[out] < n)]   # a dead copy is overwritten
            if nan.size:
                eta[:, nan] = _log_step(M, prev[:, nan], col)
                mx[nan] = eta[:, nan].max(axis=0)
                keep[nan] = (mx[nan] > DEEP_LOG) & (mx[nan] < ln_delta)
                out = out[~keep[out]]
            prev = None
            if out.size == 0:
                continue
            result[idx[out[mx[out] <= DEEP_LOG]]] = True
            if out.size == idx.size:
                return result[:n]
            dead += np.count_nonzero(idx[out] < n)
            idx[out] = n
            eta[:, out] = eta[:, keep.argmax(), None]
        if turn == q3:
            q3_max = np.full(n + 1, np.inf)
            q3_max[idx] = eta.max(axis=0)
        depth = math.inf if cone is None else cone.depth(turn)
        sure = _in_cone(cone, eta, depth, idx, n) if depth < math.inf else None
        certified = 0 if sure is None else np.count_nonzero(sure)
        if certified:
            result[idx[sure]] = True
            if certified + dead == idx.size:
                return result[:n]
        elif 2 * dead <= idx.size:
            continue
        keep = idx < n if sure is None else (idx < n) & ~sure
        idx, eta = _compact(keep, idx, eta)
        dead = 0
        if idx.size == 0:
            return result[:n]
    result[idx[eta.max(axis=0) < q3_max[idx]]] = True
    return result[:n]


def _log_step(M: np.ndarray, eta: np.ndarray, col: np.ndarray | None) -> np.ndarray:
    """One map step M eta (+ col) for orbits that may have a coordinate at
    -inf (x_k = 0 in double precision).  A zero entry M_ik contributes
    nothing, as x_k^0 = 1, where the matmul gives 0 * -inf = NaN; so an
    orbit with a coordinate at -inf goes on under its other coordinates.
    """
    terms = M[:, :, None] * eta[None, :, :]
    terms[M == 0.0] = 0.0
    out = terms.sum(axis=1)
    if col is not None:
        out += col
    return out


def in_delta_basin(cycle: CycleLike, j: int, x: Sequence[float], config: EstimatorConfig) -> bool:
    """Does the orbit of x from the incoming section of node j stay in the
    delta-tube and converge?  A point that does not start inside the tube,
    max(ln x) >= ln(delta), is not, and its orbit is not followed; the
    cycle, j and x are checked first all the same."""
    maps = _gmaps(cycle, j)
    eta0 = _log_point(x, len(maps.turn))[None, :]
    return bool(
        eta0.max() < math.log(config.delta)
        and _basin_mask(maps, eta0, config.delta, config.max_full_turns)[0])


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

    Two passes of _window_fit: choosing the window from *observed* counts
    keeps only levels that fluctuated upward near the cutoff, tilting the
    slope, so the first fit's predicted counts (noise-independent) pick the
    final window and weights, and then the observed fractions are refit.
    """
    interior = []
    for lev in levels:
        p = 1.0 - lev.sigma_frac if use_complement else lev.sigma_frac
        if 0.0 <= p < 1.0:
            interior.append((math.log(lev.epsilon), p, lev.samples))
    first = _window_fit(interior, [p for _, p, _ in interior])
    if first is None:
        return None
    predicted = [math.exp(first.intercept + first.slope * x) for x, _, _ in interior]
    return _window_fit(interior, predicted) or first


def _window_fit(interior: list[tuple[float, float, int]], expected: list[float]) -> SlopeFit | None:
    """The weighted fit of ln p against x over the levels (x, p, n) of
    interior whose expected fraction q has 0 < q < 1, q n >= MIN_FIT_HITS
    and p > 0, with the bias correction (1 - q) / (2 n q) and the weight
    n q / (1 - q); None with fewer than two such levels."""
    xs, ys, ws = [], [], []
    for (x, p, n), q in zip(interior, expected):
        if 0.0 < q < 1.0 and q * n >= MIN_FIT_HITS and p > 0.0:
            xs.append(x)
            ys.append(math.log(p) + (1.0 - q) / (2.0 * n * q))
            ws.append(n * q / (1.0 - q))
    return _weighted_line_fit(xs, ys, ws) if len(xs) >= 2 else None


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def _sample_log_cube(block: np.ndarray, eps: float) -> np.ndarray:
    """Raw uniforms U in [0, 1), one point per row, turned in place into
    log coordinates of Uniform(0, eps): ln(eps) + log1p(-U), as 1 - U lies
    in (0, 1]; no underflow at any depth.  estimate_sigma_mc turns every
    row it draws; estimate_fplus_mc every row of a level with no
    certificate, and otherwise only the rows its certificate (_certificate)
    leaves to the log test, drawn from their conditional law."""
    np.negative(block, out=block)
    np.log1p(block, out=block)
    block += math.log(eps)
    return block


def _blocks(rng: np.random.Generator, rows: int, dim: int) -> Iterator[np.ndarray]:
    """rows points of dim raw uniforms from rng, one point per row, in
    consecutive blocks of at most BLOCK rows in one buffer that the caller
    owns until the next block (a slice past its end stops at BLOCK rows), so
    memory does not grow with rows.  The blocks consume the stream in the
    same order as one draw of all the rows."""
    buf = np.empty((min(rows, BLOCK), dim))
    for start in range(0, rows, BLOCK):
        yield rng.random(out=buf[:rows - start])


def _levels(ladder: tuple[float, ...], samples: int, seed: int,
            count: Callable[[np.random.Generator, float], int]) -> tuple[LevelEstimate, ...]:
    """Per ladder level li, the fraction of samples points inside the
    eps-cube, as count(rng, eps) counts them with the level's own generator
    on the RNG stream (seed, li), so what one level draws never moves
    another.  estimate_sigma_mc draws every point (_blocks);
    estimate_fplus_mc only those its certificate leaves to the log test."""
    def level(li: int) -> LevelEstimate:
        inside = int(count(np.random.default_rng((seed, li)), ladder[li]))
        frac = inside / samples
        stderr = math.sqrt(frac * (1.0 - frac) / samples)
        return LevelEstimate(epsilon=ladder[li], sigma_frac=frac, stderr=stderr, samples=samples)

    return tuple(map(level, range(len(ladder))))


def _side(levels: Sequence[LevelEstimate], complement: bool) -> tuple[float, SlopeFit | None]:
    """Tail exponent of the complement side (the sigma_plus half) or of the
    basin side (sigma_minus), with its fit.

    A side that is empty at every level has exponent +inf, and one that fills
    every level has exponent 0; neither is fitted.  Otherwise the exponent is
    the _tail_slope fit, and too few usable levels raise
    InsufficientResolution naming the side.
    """
    fracs = {lev.sigma_frac for lev in levels}
    if fracs == {float(complement)}:
        return math.inf, None
    if fracs == {float(not complement)}:
        return 0.0, None
    fit = _tail_slope(levels, use_complement=complement)
    if fit is None:
        raise InsufficientResolution(
            f"fewer than two usable ladder levels on the {'complement' if complement else 'basin'} "
            "side; deepen the ladder or raise the samples per level"
        )
    return fit.slope, fit


def estimate_sigma_mc(cycle: CycleLike, j: int, config: EstimatorConfig) -> BasinEstimate:
    """Monte-Carlo local stability index at the incoming section of node j.

    Per ladder level eps, samples uniform points of the positive-orthant
    eps-cube (one RNG stream per (seed, level)), measures the delta-basin
    fraction, then fits

        sigma_minus ~ slope of ln(Sigma-hat)   vs ln(eps)
        sigma_plus  ~ slope of ln(1-Sigma-hat) vs ln(eps)

    over interior levels (_side), returning sigma_hat = sigma_plus -
    sigma_minus.  A product pass from j that overflows raises ProductOverflow.
    The basin certificate (_cone) is built once per call and read by every
    block of every level; it changes no level fraction.
    """
    maps = _gmaps(cycle, j)
    cone = _cone(maps, config.delta, config.max_full_turns)
    levels = _levels(
        config.epsilon_ladder, config.samples_per_level, config.seed,
        lambda rng, eps: sum(np.count_nonzero(_basin_mask(
            maps, _sample_log_cube(block, eps), config.delta, config.max_full_turns, cone))
            for block in _blocks(rng, config.samples_per_level, len(maps.turn))),
    )
    minus, fit_minus = _side(levels, complement=False)
    plus, fit_plus = _side(levels, complement=True)
    return BasinEstimate(levels, minus, plus, fit_minus, fit_plus, sigma_hat=plus - minus)


def _certificate(a: list[float], eps: float) -> tuple[list[int], list[float]] | None:
    """Columns i and thresholds t_i in (0, 1) such that a row of raw
    uniforms with u_i < t_i in every listed column lies in the slice
    a . eta < 0 at level eps, as computed by the log test; None where the
    bound below gives no certificate.  A box of volume prod t_i, so
    estimate_fplus_mc counts the rows inside it with binomial draws.

    With L = ln(eps), S = fsum(a) and E_i = -log1p(-u_i) >= 0, the log test
    reads a . (L - E) < 0, and in exact arithmetic
        a . (L - E) <= S L + sum over a_i < 0 of |a_i| E_i.
    With B = -S L - margin > 0 and k negative components, a row has
    a . (L - E) < -margin when every negative-coefficient coordinate has
    |a_i| E_i < B / k, i.e. u_i < -expm1(-B / (k |a_i|)); t_i is that value
    rounded down by 2^-50 of itself (at least 4 ulps, more than the error
    of math.expm1), and a column with B / (k |a_i|) >= 40 is not tested,
    since every u the generator draws (u <= 1 - 2^-53) has
    E_i <= 53 ln 2 < 37.

    margin = 2^-30 sum |a_i| (37 + |L|).  The log test rounds log1p, the
    sum with L and the dot (BLAS, in any order, with or without FMA); each
    adds a few ulps of sum |a_i| (37 + |L|), as |L - E_i| < 37 + |L|, and
    underflow a few subnormals.  The certificate's own B, B / (k |a_i|) and
    expm1 err by a few ulps of B <= 2^30 margin.  So a certified row lies
    at least 2^15 times that rounding below 0, and is never one that the
    log test would count outside.  B <= 0 (S <= 0, or eps near 1) leaves
    every row to the log test.
    """
    ln_eps = math.log(eps)
    margin = 2.0**-30 * math.fsum(map(abs, a)) * (37.0 + abs(ln_eps))
    bound = -math.fsum(a) * ln_eps - margin
    if not bound > 0.0:
        return None
    neg = [i for i, a_i in enumerate(a) if a_i < 0.0]
    cols, ts = [], []
    for i in neg:
        weight = -a[i] * len(neg)             # k |a_i|
        if weight * 40.0 > bound:
            cols.append(i)
            ts.append(-math.expm1(-bound / weight) * (1.0 - 2.0**-50))
    return cols, ts


def estimate_fplus_mc(
    alpha: Iterable[float],
    epsilon_ladder: Sequence[float],
    samples: int,
    seed: int,
) -> FplusEstimate:
    """Monte-Carlo escape exponent of one half-space slice.

    Per level eps = e^R, samples the positive-orthant eps-cube and counts
    the fraction with |x_1^{a_1} ... x_N^{a_N}| < 1, i.e. alpha . ln(x) < 0;
    the escape exponent is the complement side of the sigma fit (_side), the
    slope of ln(1 - fraction) against R.  alpha is first scaled by a power
    of two to max|a| in [0.5, 1): that keeps the sign of alpha . ln(x)
    (exact for normal components) and keeps a huge alpha from overflowing
    it.  samples is an integer in [1, 2^63) and seed >= 0 an integer.

    A level with no certificate (_certificate) draws every row in blocks
    and takes the log test, ln(eps) + log1p(-U) (_sample_log_cube), then
    alpha . eta < 0.  Otherwise a row whose uniforms lie in the box u_i <
    t_i of every tested column i lies a margin of 2^-30 sum |a_i|
    (37 + |ln eps|) inside the slice, at least 2^15 times the rounding of
    the log test, and is counted inside without being drawn.  The rows are
    split by the first tested column whose uniform is >= t_i: in column
    order, n_i = Binomial(rest, 1 - t_i) of the rest rows fail column i,
    and only these are drawn, with u_j = t_j U in each earlier tested
    column j and E_i = -log1p(-t_i) - log1p(-U) in column i (memorylessness
    of Exp(1); t_i + (1 - t_i) U could round to 1), and take the log test.
    The rest are the box.  So every level's count has the law of the log
    test on samples uniform rows, and a level whose certificate tests no
    column draws nothing.
    """
    a = np.asarray(_components(alpha))
    a = np.ldexp(a, -np.frexp(np.abs(a).max())[1])
    ladder = _ladder(epsilon_ladder)
    samples = _whole(samples, 1, "samples", below=2**63)
    seed = _whole(seed, 0, "seed")

    def count(rng: np.random.Generator, eps: float) -> int:
        cert = _certificate(a.tolist(), eps)
        if cert is None:
            return sum(np.count_nonzero(_sample_log_cube(block, eps) @ a < 0.0)
                       for block in _blocks(rng, samples, a.size))
        cols, ts = cert
        inside, rest = 0, samples
        for i, (col, t) in enumerate(zip(cols, ts)):
            failed = int(rng.binomial(rest, 1.0 - t))
            rest -= failed
            for block in _blocks(rng, failed, a.size):
                block[:, cols[:i]] *= ts[:i]
                eta = _sample_log_cube(block, eps)
                eta[:, col] += math.log1p(-t)
                inside += np.count_nonzero(eta @ a < 0.0)
        return inside + rest

    levels = _levels(ladder, samples, seed, count)
    fplus_hat, fit = _side(levels, complement=True)
    return FplusEstimate(levels, fit, fplus_hat)


# ---------------------------------------------------------------------------
# Brute-force divergence test for a single matrix
# ---------------------------------------------------------------------------


@np.errstate(over="ignore", invalid="ignore")   # an orbit that overflows is decided by its max
def matrix_basin_membership(matrix: np.ndarray, y: Sequence[float]) -> bool | np.ndarray:
    """Does iterating y <- M y drive every component to -inf?

    Brute force, no eigen-analysis: iterate until the largest component
    crosses -BLOWUP * ||y||_inf (diverged to -inf in every component, True)
    or +BLOWUP * ||y||_inf (False), else judge by the max-component trend
    over the final quarter of MEMBERSHIP_STEPS iterations.  A flat trend at
    the cap raises IndeterminateError.  The map is linear, so each point
    is first scaled by a power of two to ||y||_inf in [0.5, 1) (exact for
    normal components), and an orbit that overflows is decided by its max
    alone: -inf has diverged, +inf or NaN has escaped.

    y may be a single strictly negative vector or a batch of them stacked in
    rows; batches return a boolean array.
    """
    M = _entries(matrix)
    arr = _floats(y)
    single = arr.ndim == 1
    batch = arr[None, :] if single else arr
    if batch.ndim != 2 or batch.shape[1] != M.shape[0]:
        raise ValueError(f"samples have wrong shape {arr.shape} for {M.shape} matrix")
    if np.any(batch >= 0.0) or not np.all(np.isfinite(batch)):
        raise ValueError("initial points must be finite and strictly negative")

    cur = np.ascontiguousarray(batch.T)
    cur = np.ldexp(cur, -np.frexp(np.abs(cur).max(axis=0))[1])
    wall = BLOWUP * np.abs(cur).max(axis=0)

    n = batch.shape[0]
    result = np.zeros(n, dtype=bool)
    idx = np.arange(n)
    q3 = (3 * MEMBERSHIP_STEPS) // 4
    q3_max = np.full(n, np.nan)
    for it in range(MEMBERSHIP_STEPS):
        cur = M @ cur
        mx = cur.max(axis=0)
        diverged = mx <= -wall[idx]
        # escape means the signed max component blowing up, not magnitude:
        # a diverging orbit's most negative component grows just as fast.
        # A NaN max fails both tests and counts as escaped.
        if diverged.any():
            result[idx[diverged]] = True
        keep = ~diverged & (mx < wall[idx])
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
                    f"after {MEMBERSHIP_STEPS} iterations"
                ),
            )
        result[idx[falling]] = True

    return bool(result[0]) if single else result
