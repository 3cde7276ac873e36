"""Update rules: mini-batch gradient descent and its infinite-data idealization.

Stochastic mode is the literal adaptation loop: draw a batch, take one
gradient step on the self-training loss, repeat.  Population mode replaces
the sampled gradient with its expectation over the data distribution, which
collapses the state to the pair (a, b) = (component along mu, size of the
orthogonal component):

    a' = (1 - eta sigma^2 E[psi''(Z)]) a - eta E[psi'(Z)] ||mu||^2
    b' = |1 - eta sigma^2 E[psi''(Z)]| b

with Z = w^T (mu + sigma xi) ~ N(a, sigma^2 (a^2/||mu||^2 + b^2)).  The b
update picks up E[psi''] through the identity E[xi g(xi)] = E[g'(xi)] for
standard normal xi, which requires psi' to be continuous; hard-label losses
are therefore rejected in population mode whenever sigma > 0 (their psi''
carries a point mass at 0 whose coefficient we do not guess).  At sigma = 0
b is frozen, and for hard square a_bar = a / ||mu|| follows the recursion
a_bar' = (1 - eta ||mu||^2) a_bar + eta sign(a_bar) ||mu||.  population_step
is the one copy of the update: run_population and log_rate_check call it once
per step.  It returns the quadrature's refinement move with (a', b'), and its
sigma^2 and ||mu||^2 are finite, as GaussianModel rejects any that overflow.

Both runners return a Trajectory record whose point t describes w_t, the
iterate *before* the t-th update, plus one final point at T+1.  They collect
(a, b) per iterate and derive r, cos and the 0-1 loss for the whole trajectory
in one model.ab_metrics call; the record's read-only float64 columns a, b, r,
cos and loss01 and its len are how the package and its tests read a run.  An
iterate that overflows or becomes exactly 0 ends either run at that step, the
record's stop.  The record also yields TrajectoryPoint rows, built when read
(integer indexing and iteration), only for ttabench's two readers of rows
until ttabench reads the columns.  stochastic_sweep steps R losses x S seed
streams x K step sizes as one array, drawing each step's S batches in one
sample_batch call for all R losses; run_stochastic is R = S = K = 1.  Every
psi is even, so a step never reads a sample's label: at sigma = 0 the sweep
steps on +mu rows, which give the iterates of any +-mu stream, fig1's
alternating one too.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .losses import LossFamily, SelfTrainingLoss
from .model import (GaussianModel, ab_metrics, check_count, check_finite, check_non_empty,
                    check_non_negative, check_positive, check_predictor, sample_batch,
                    split_ab)

__all__ = [
    "Mode",
    "UnsupportedLossError",
    "ExperimentConfig",
    "TrajectoryPoint",
    "Trajectory",
    "OVERFLOW_LIMIT",
    "gd_step",
    "run_stochastic",
    "expectation_terms",
    "population_step",
    "run_population",
    "conj_square_ratio_closed_form",
    "epsilon_iteration_bound",
]

# Components beyond this magnitude end a run with a flagged record; the
# conjugate square loss is unbounded below, so its iterates genuinely diverge.
OVERFLOW_LIMIT = 1e150


class Mode(str, Enum):
    STOCHASTIC = "stochastic"
    POPULATION = "population"

    @classmethod
    def _missing_(cls, value):  # the message names the field, as every rejection's does
        raise ValueError(f"mode must be 'stochastic' or 'population', got {value!r}")


class UnsupportedLossError(Exception):
    """Population dynamics requested for a loss whose psi'' is distributional."""


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Complete description of one adaptation run."""

    model: GaussianModel
    loss: SelfTrainingLoss
    eta: float
    mode: Mode
    horizon: int
    seed: int
    w_init: np.ndarray
    batch_size: int = 32

    def __post_init__(self) -> None:
        object.__setattr__(self, "eta", check_positive("eta", self.eta))
        object.__setattr__(self, "horizon", check_count("horizon", self.horizon, 1))
        object.__setattr__(self, "batch_size", check_count("batch", self.batch_size, 1))
        object.__setattr__(self, "seed", check_count("seed", self.seed, 0))
        w = check_predictor(self.w_init, self.model)
        w.setflags(write=False)
        object.__setattr__(self, "w_init", w)
        object.__setattr__(self, "mode", Mode(self.mode))


class TrajectoryPoint(NamedTuple):
    """State of the run at iteration t (pre-update for t <= horizon).

    overflow flags the last row of a run that stopped early: a component
    became non-finite or larger than OVERFLOW_LIMIT, or the iterate became
    exactly 0 (then a = b = 0, and r, cos and loss01 are NaN).
    """

    t: int
    a: float
    b: float
    r: float
    cos: float
    loss01: float
    overflow: bool = False


@dataclass(frozen=True, eq=False)
class Trajectory:
    """The points t = 1, ..., n of one run as read-only float64 columns, and
    stop, the step at which the run stopped (then n = stop + 1), or 0 when it
    ran to the horizon.  len(run) is n.

    run[i] (an int, negative from the end) and iteration give TrajectoryPoint
    rows, built when read, with t an int, the values floats and overflow True
    only on the last row of a stopped run.  They are kept for ttabench's two
    readers of rows (workloads.Population.digest, tracing._count_overflow)
    until it reads the columns; read the columns instead.  Two records compare
    equal only if they are the same object; compare the columns and stop.
    """

    a: np.ndarray
    b: np.ndarray
    r: np.ndarray
    cos: np.ndarray
    loss01: np.ndarray
    stop: int = 0

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        """(a, b, r, cos, loss01), the order of a row's values."""
        return self.a, self.b, self.r, self.cos, self.loss01

    def __len__(self) -> int:
        return len(self.a)

    def __getitem__(self, index: int) -> TrajectoryPoint:
        i = range(len(self))[index]  # an int's bounds and sign, as a list's
        return next(self._rows(slice(i, i + 1)))

    def __iter__(self):
        return self._rows(slice(None))

    def _rows(self, index: slice):
        flags = np.zeros(len(self), dtype=bool)
        flags[-1] = self.stop > 0
        return map(TrajectoryPoint, range(1, len(self) + 1)[index],
                   *(c[index].tolist() for c in (*self.columns, flags)))


def gd_step(w: np.ndarray, xs: np.ndarray, loss: SelfTrainingLoss,
            eta: float | np.ndarray) -> np.ndarray:
    """One descent step on the batch-mean self-training gradient.

    xs is the (n, d) batch, one sample per row; the step is
    w - eta * mean_i psi'(w^T x_i) x_i.  Averaging (rather than summing) keeps
    eta comparable across batch sizes.  Stacks broadcast (w (..., d) against
    xs (..., n, d)), one BLAS gemv per item, so each keeps its 1-D bits.
    The transpose is the ndarray method's view (np.swapaxes wraps it).
    """
    w = np.asarray(w, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim < 2 or xs.shape[-2] == 0:
        raise ValueError("batch must be a non-empty (n, d) array")
    if xs.shape[-1] != w.shape[-1]:
        raise ValueError(f"dimension mismatch: len(w)={w.shape[-1]}, samples have d={xs.shape[-1]}")
    coeff = np.asarray(loss.dpsi(np.matmul(xs, w[..., None])[..., 0]), dtype=float)
    grad = np.matmul(xs.swapaxes(-1, -2), coeff[..., None])[..., 0] / xs.shape[-2]
    return w - eta * grad


def run_stochastic(config: ExperimentConfig) -> Trajectory:
    """Run the sampled adaptation loop for config.horizon steps, each on a
    fresh batch from the model; return its Trajectory.

    Deterministic given the seed.  If an iterate overflows or becomes exactly
    0, the run stops early at that step, the record's stop; direction-based
    metrics stay valid up to the stop.  It is stochastic_sweep on one loss,
    one stream and one step size.
    """
    ab, stopped = stochastic_sweep(config, [config.loss], [config.eta], [config.seed])
    return trajectory(ab[:, 0, 0, 0], config.model, stop=int(stopped[0, 0, 0]))


def stochastic_sweep(base: ExperimentConfig, losses, etas, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Run base with every loss in losses at every step size in etas on every
    seed stream in seeds at once.

    The iterates are one (R, S, K, d) array.  Each step, stream s draws one
    batch as a lone run on seeds[s] would, and each loss steps its (S, K, d)
    block on those S batches, so every batch is drawn once for all R losses.
    The S batches come from one sample_batch call on the S generators, stream
    s's batch in row block s, and column (r, s, k) is
    run_stochastic(replace(base, loss=losses[r], eta=etas[k], seed=seeds[s]))
    bit for bit.  At sigma = 0 nothing is drawn: every step reads one
    (S, 1, n, d) block of +mu rows, so the output does not depend on seeds,
    which are still checked.
    Every step's iterates are written in place into one preallocated
    (T+1, R, S, K, d) buffer, which is split into (a, b) after the last step,
    one loss block at a time.  A column stops when its largest |component| is
    NaN, past OVERFLOW_LIMIT or 0.0 (_stopped, which first screens the whole
    array and reduces per column only when some |component| is outside
    (0.0, OVERFLOW_LIMIT]).  A stopped column is then frozen at NaN, which
    every later operation passes on without a warning.
    Returns (ab, stopped): ab[t, r, s, k] is the (a, b) of point t + 1 of column
    (r, s, k), NaN after its stop, up to the last step run; stopped[r, s, k] is
    the step at which the column stopped, 0 for one that ran all base.horizon steps.
    """
    if base.mode is not Mode.STOCHASTIC:
        raise ValueError(f"config.mode is {base.mode.value}, expected stochastic")
    losses = check_non_empty("loss list", losses)
    etas = np.array([check_positive("eta", eta) for eta in check_non_empty("eta grid", etas)])
    rngs = [np.random.default_rng(np.random.SeedSequence(check_count("seed", seed, 0)))
            for seed in check_non_empty("seed list", seeds)]
    ws = np.empty((base.horizon + 1, len(losses), len(rngs), etas.size, base.model.d))
    ws[0] = base.w_init
    w = ws[0]
    stopped = np.zeros(ws.shape[1:-1], dtype=int)
    shape = (len(rngs), 1, base.batch_size, base.model.d)
    # at sigma = 0 a sample is +-mu and a step never reads its sign, so every step
    # reads one block of +mu rows: a real array, as matmul on a zero-stride view
    # leaves BLAS and changes the bits
    noiseless = np.tile(base.model.mu, shape[:-1] + (1,)) if base.model.sigma == 0.0 else None
    for t in range(1, base.horizon + 1):
        # stream s is row block s of one draw: (S, 1, n, d) meets each (S, K, d) block
        xs = noiseless if noiseless is not None else sample_batch(
            base.model, rngs, base.batch_size).reshape(shape)
        for r, loss in enumerate(losses):
            ws[t, r] = gd_step(w[r], xs, loss, etas[:, None])
        w = ws[t]
        halted = _stopped(w)
        if halted is not None and halted.any():
            stopped[halted & (stopped == 0)] = t
            if halted.all():
                break
            w = np.where(halted[..., None], np.nan, w)
    ab = np.empty((t + 1, *stopped.shape, 2))
    for r in range(len(losses)):
        ab[:, r, ..., 0], ab[:, r, ..., 1] = split_ab(ws[:t + 1, r], base.model)
    return ab, stopped


def _stopped(w: np.ndarray) -> np.ndarray | None:
    """Stop rule on a (..., d) stack: None when every |w_i| is above 0.0 and
    within OVERFLOW_LIMIT (NaN fails both), so that no column has stopped;
    otherwise the mask of columns whose peak |w_i| is NaN (fails both tests),
    inf (fails the first) or 0.0 (fails the second), from the same |w|."""
    size = np.abs(w)
    if size.min() > 0.0 and size.max() <= OVERFLOW_LIMIT:
        return None
    peak = size.max(axis=-1)
    return ~((peak <= OVERFLOW_LIMIT) & (peak > 0.0))


# --- population dynamics ------------------------------------------------------

# E[g(Z)], Z ~ N(m, s^2), by the trapezoid rule on the margin axis u with 641
# nodes, on a grid chosen by resolution.  The fixed grid is [-36, 36], past which
# the conjugate psi' and psi'' are below 5e-16, with spacing h = 72/640 = 0.1125.
# It serves every s >= 4 h (h <= s/4) whose window [m - 14 s, m + 14 s] (Gaussian
# mass outside < 1e-43) overlaps (-36, 36).  A smaller s gets a window of its
# own, cut to |u| <= 36, with spacing h <= 0.044 s; a window wholly past the cut
# is kept whole.  By the poles at u = +-i pi/2 the error decays like
# exp(-pi^2 / h) times the Gaussian's growth there, exp(pi^2 / (8 s^2))
# (Trefethen & Weideman, SIAM Review 2014, secs. 4-5).  On the fixed grid the halved grid's
# estimate moves by <= 3e-13 at s = 4 h, and the refinement check first fires
# near s = 0.25.  Against scipy.integrate.quad: within 1e-15 + 1e-12 |E| for s in
# [1e-3, 1e6] and |m| <= 3 max(s, 1), the fixed grid's error at most 0.13 of
# that for every s >= 0.3, and the halved grid (even nodes) inside the refinement
# tolerance.  conj+square is exact.  An s too small for m +- 14 s to differ
# from m gives the s -> 0 point evaluation.
# One kernel per step: the rows are psi' and psi'' with the end columns halved,
# then the same two rows with their odd columns zeroed, as one (4, 1, 641) block.
# Halving the end columns gives the bits of halving the end weights: on a window
# of its own every end weight is >= exp(-98), and on the fixed grid an end term
# is below 1e-300 wherever its weight is subnormal.  The weights are built in
# one buffer, and one stacked matmul gives the two trapezoid sums and the two
# halved-grid sums of the refinement check.  Each item of a stacked matmul is
# one contiguous 641-long BLAS dot, so the trapezoid sums keep the bits of
# `d @ w`, and the halved-grid sums are `(d * even) @ w` (they feed only the
# check).  psi' and psi'' are the loss's own dpsi and ddpsi, the formulas the
# sampled engine uses.  The fixed grid is memoized by loss object, so a run
# builds it once.  A window of its own moves with (m, s) and is seen about once,
# so it is built straight into its block, never memoized.
_HALF_WIDTH, _MARGIN_CUT, _NODES = 14.0, 36.0, 641
_FIXED_GRID_MIN_S = 4.0 * (2.0 * _MARGIN_CUT / (_NODES - 1))  # 4 h = 0.45
_UNIT = np.linspace(-1.0, 1.0, _NODES)
_REFINE_ATOL, _REFINE_RTOL = 1e-12, 1e-9
_SQRT_HALF, _SQRT_2PI = math.sqrt(0.5), math.sqrt(2.0 * math.pi)
# a module global, read on every step: an Enum class attribute costs ~0.2 us
_SQUARE = LossFamily.SQUARE


def _window(loss: SelfTrainingLoss, lo: float, hi: float
            ) -> tuple[float, np.ndarray, np.ndarray]:
    """(mid, offsets, block) of the window [lo, hi]: offsets is a (641, 1)
    column, and block holds psi' and psi'' on the nodes mid + offsets with the
    end columns halved, then both rows with their odd columns zeroed, as a
    (4, 1, 641) block."""
    mid, offset = 0.5 * (lo + hi), (0.5 * (hi - lo)) * _UNIT
    block = np.empty((4, 1, _NODES))
    block[0, 0], block[1, 0] = loss.dpsi(u := mid + offset), loss.ddpsi(u)
    block[:2, :, ::_NODES - 1] *= 0.5
    block[2:] = block[:2]
    block[2:, :, 1::2] = 0.0
    return mid, offset[:, None], block


@functools.lru_cache(maxsize=16)  # the fixed grids of the last 16 loss objects
def _cut_window(loss: SelfTrainingLoss) -> tuple[float, np.ndarray, np.ndarray]:
    """The fixed grid, _window(loss, -36, 36), its arrays read-only."""
    window = _window(loss, -_MARGIN_CUT, _MARGIN_CUT)
    for array in window[1:]:
        array.setflags(write=False)
    return window


def _gaussian_expectations(loss: SelfTrainingLoss, m: float, s: float
                           ) -> tuple[float, float, float]:
    """(E[psi'], E[psi'']) at s > 0 (m +- 14 s distinct from m), and the largest
    move of the halved-grid estimate past the refinement tolerance (0.0 when
    neither moved past it).

    The grid is chosen by resolution: s >= 4 h, with h = 0.1125 the fixed
    grid's spacing, takes the memoized fixed grid [-36, 36] whenever the window
    [m - 14 s, m + 14 s] overlaps (-36, 36).  A smaller s, or a window wholly
    past the cut, gets a window of its own."""
    if loss.family is _SQUARE:
        return -m, -1.0, 0.0
    lo, hi = m - _HALF_WIDTH * s, m + _HALF_WIDTH * s
    if s >= _FIXED_GRID_MIN_S and lo < _MARGIN_CUT and hi > -_MARGIN_CUT:  # fixed grid
        lo, hi = -_MARGIN_CUT, _MARGIN_CUT
        mid, offset, block = _cut_window(loss)
    else:
        cut_lo = lo if lo > -_MARGIN_CUT else -_MARGIN_CUT  # comparisons: max/min cost ~0.3 us
        cut_hi = hi if hi < _MARGIN_CUT else _MARGIN_CUT
        if cut_lo < cut_hi:  # not wholly past the cut
            lo, hi = cut_lo, cut_hi
        mid, offset, block = _window(loss, lo, hi)
    # u and z from the offsets to the window's middle: neither inherits the other's rounding
    w = offset + (mid - m)  # z, then the node weights over h / (s sqrt(2 pi))
    w *= _SQRT_HALF / s
    np.square(w, out=w)
    np.negative(w, out=w)
    np.exp(w, out=w)
    scale = (hi - lo) / ((_NODES - 1) * s * _SQRT_2PI)  # 640 * sqrt(2 pi) first changes bits
    e1, e2, c1, c2 = (block @ w).ravel().tolist()
    e1, e2 = e1 * scale, e2 * scale
    move1, move2 = abs(e1 - 2.0 * scale * c1), abs(e2 - 2.0 * scale * c2)
    move1 = move1 if move1 > _REFINE_ATOL + _REFINE_RTOL * abs(e1) else 0.0
    move2 = move2 if move2 > _REFINE_ATOL + _REFINE_RTOL * abs(e2) else 0.0
    return e1, e2, move1 if move1 >= move2 else move2


def expectation_terms(loss: SelfTrainingLoss, a: float, b: float,
                      model: GaussianModel) -> tuple[float, float, float]:
    """(E[psi'(Z)], E[psi''(Z)], refinement move) for Z = w^T(mu + sigma xi) ~ N(m, s^2).

    Here m = a and s^2 = sigma^2 (a^2/||mu||^2 + b^2).  With s = 0 (sigma = 0,
    or a = b = 0), or s too small for a +- 14 s to differ from a, the
    expectations collapse to point evaluations at a.  Losses
    with a distributional psi'' (hard rules) are rejected when sigma > 0.  The
    move is how far the halved-grid estimate moved past the quadrature's
    refinement tolerance, 0.0 when the check did not fire; nothing is warned.
    """
    a = float(a)
    b = check_non_negative("b", b)
    if model.sigma > 0.0:
        if not loss.smooth_second_derivative:
            raise UnsupportedLossError(
                f"unsupported: distributional psi'' ({loss.name} has a jump in psi' at 0, "
                "so its population dynamics at sigma > 0 are not defined here)"
            )
        s = model.sigma * math.hypot(a / model.mu_norm, b)
        if a - _HALF_WIDTH * s < a < a + _HALF_WIDTH * s:  # s > 0, not lost in a's ulp
            return _gaussian_expectations(loss, a, s)
    return float(loss.dpsi(a)), float(loss.ddpsi(a)), 0.0


def population_step(a: float, b: float, loss: SelfTrainingLoss,
                    model: GaussianModel, eta: float) -> tuple[float, float, float]:
    """(a', b', refinement move) of one infinite-data update of the pair (a, b).

    The move is expectation_terms' (0.0 when its check did not fire).  At
    sigma = 0 the shrink factor 1 - eta sigma^2 E[psi''] is exactly 1.0 when
    eta and psi''(a) are finite, and psi'' of all six losses is finite for
    |a| <= OVERFLOW_LIMIT (the conj+logistic psi'' is NaN past |a| ~ 9e307).
    There b' = b and psi'' is not evaluated.
    """
    if model.sigma == 0.0 and abs(a) <= OVERFLOW_LIMIT and abs(eta) < math.inf:
        b = check_non_negative("b", b)
        return a - eta * float(loss.dpsi(float(a))) * model.mu_norm**2, b, 0.0
    e1, e2, moved = expectation_terms(loss, a, b, model)
    shrink = 1.0 - eta * model.sigma**2 * e2
    return shrink * a - eta * e1 * model.mu_norm**2, abs(shrink) * float(b), moved


def run_population(config: ExperimentConfig) -> Trajectory:
    """Iterate the population dynamic from split_ab(w_init); return its
    Trajectory.

    Overflow of (a, b), or a = b = 0, ends the run at that step (the record's
    stop), as in the stochastic runner.  One RuntimeWarning per run reports the
    steps on which the quadrature's refinement check fired, if any.
    """
    if config.mode is not Mode.POPULATION:
        raise ValueError(f"config.mode is {config.mode.value}, expected population")
    model = config.model
    a, b = split_ab(config.w_init, model)
    loss, eta, step = config.loss, config.eta, population_step
    ab = [(a, b)]
    moves = []  # (t, move) of each step whose refinement check fired
    for t in range(1, config.horizon + 1):
        a, b, moved = step(a, b, loss, model, eta)
        if moved:
            moves.append((t, moved))
        ab.append((a, b))
        # NaN fails both comparisons, and b is never negative
        if stopped := (not (abs(a) <= OVERFLOW_LIMIT and b <= OVERFLOW_LIMIT)
                       or a == b == 0.0):
            break
    if moves:
        warnings.warn(f"reduced quadrature precision in a {loss.name} population run: "
                      f"refinement fired on {len(moves)} steps, first at t={moves[0][0]}, "
                      f"largest move {max(m for _, m in moves):.3e}", RuntimeWarning, stacklevel=2)
    return trajectory(ab, model, stop=t if stopped else 0)


# --- closed forms --------------------------------------------------------------


def conj_square_ratio_closed_form(r1: float, eta: float, mu_norm: float,
                                  sigma: float, t: int) -> float:
    """Ratio after t conjugate-square population steps: r1 g^t with
    g = 1 + eta ||mu||^2 / (1 + eta sigma^2).  r1 may be negative: a and b
    share the factor 1 + eta sigma^2, so the ratio keeps its sign.  A g^t
    past the float range gives inf with r1's sign, or 0.0 when r1 = 0."""
    r1 = check_finite("r1", r1)
    t = check_count("t", t, 0)
    eta = check_positive("eta", eta)
    mu_norm = check_positive("mu_norm", mu_norm)
    sigma = check_non_negative("sigma", sigma)
    try:
        power = (1.0 + _increment(eta, mu_norm, sigma)) ** t
    except OverflowError:
        power = math.inf
    return 0.0 if r1 == 0.0 and power == math.inf else r1 * power


def epsilon_iteration_bound(eps: float, r1: float, eta: float, mu_norm: float,
                            sigma: float) -> int:
    """Iterations sufficient for the conjugate-square dynamic to be
    eps-optimal: ceil( log(||mu||^2/(eps r1^2)) / (2 log g) ), floored at 0."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    r1 = check_positive("r1", r1)
    eta = check_positive("eta", eta)
    mu_norm = check_positive("mu_norm", mu_norm)
    sigma = check_non_negative("sigma", sigma)
    # x * x, not x**2: float ** raises OverflowError where * gives inf
    scale = eps * (r1 * r1)  # 0.0 once r1 * r1 underflows
    ratio = mu_norm * mu_norm / scale if scale > 0.0 else math.inf
    check_finite(f"ratio = mu_norm**2 / (eps * r1**2) = {ratio}", ratio)
    if ratio <= 1.0:
        return 0
    # log g as log1p of the increment: 1 + increment rounds to 1.0 below ~1e-16
    increment = _increment(eta, mu_norm, sigma)
    name = f"increment = eta * mu_norm**2 / (1 + eta * sigma**2) = {increment}"
    check_positive(name, check_finite(name, increment))
    return max(0, math.ceil(0.5 * math.log(ratio) / math.log1p(increment)))


def _increment(eta: float, mu_norm: float, sigma: float) -> float:
    """g - 1 = eta ||mu||^2 / (1 + eta sigma^2) of the conjugate-square dynamic,
    inf when only the numerator overflows and 0.0 when only the denominator does."""
    # x * x, not x**2: float ** raises OverflowError where * gives inf
    increment = eta * (mu_norm * mu_norm) / (1.0 + eta * (sigma * sigma))
    if increment != increment:  # inf / inf
        raise ValueError("increment = eta * mu_norm**2 / (1 + eta * sigma**2) is inf / inf")
    return increment


# --- helpers -------------------------------------------------------------------


def trajectory(ab, model: GaussianModel, stop: int = 0) -> Trajectory:
    """The Trajectory of the iterates' (a, b) pairs, a list of pairs or an
    (n, 2) array, points t = 1, 2, ...: all of them when stop is 0, else those
    up to step `stop`."""
    ab = ab[:stop + 1] if stop else ab
    # a list is read in one pass over its flat values, not as one sequence per pair
    a, b = (np.fromiter(itertools.chain.from_iterable(ab), float, 2 * len(ab)).reshape(-1, 2)
            if isinstance(ab, list) else np.array(ab, dtype=float)).T
    columns = (a, b, *ab_metrics(a, b, model))
    for column in columns:
        column.setflags(write=False)
    return Trajectory(*columns, stop=stop)
