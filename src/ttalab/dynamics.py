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
a_bar' = (1 - eta ||mu||^2) a_bar + eta sign(a_bar) ||mu||.  _step is the one
copy of the update, for population_step, run_population and log_rate_check.

Both runners record the trajectory point for iteration t *before* the t-th
update, so point t always describes w_t, plus one final point at T+1.  They
collect (a, b) per iterate and derive r, cos and the 0-1 loss for the whole
trajectory in one model.ab_metrics call.  An iterate that overflows or
becomes exactly 0 ends either run with a flagged record.  stochastic_sweep
steps S seed streams x K step sizes as one array; run_stochastic is S = K = 1.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .losses import LossFamily, SelfTrainingLoss
from .model import (GaussianModel, ab_metrics, check_count, check_finite, check_non_negative,
                    check_positive, check_predictor, sample_batch, split_ab)

__all__ = [
    "Mode",
    "UnsupportedLossError",
    "ExperimentConfig",
    "TrajectoryPoint",
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

    overflow flags the last record of a run that stopped early: a component
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


# (t, rng) -> the step's batch as an (n, d) array, one sample per row
Sampler = Callable[[int, np.random.Generator], np.ndarray]


def gd_step(w: np.ndarray, xs: np.ndarray, loss: SelfTrainingLoss,
            eta: float | np.ndarray) -> np.ndarray:
    """One descent step on the batch-mean self-training gradient.

    xs is the (n, d) batch, one sample per row; the step is
    w - eta * mean_i psi'(w^T x_i) x_i.  Averaging (rather than summing) keeps
    eta comparable across batch sizes.  Stacks broadcast (w (..., d) against
    xs (..., n, d)), one BLAS gemv per item, so each keeps its 1-D bits.
    """
    w = np.asarray(w, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim < 2 or xs.shape[-2] == 0:
        raise ValueError("batch must be a non-empty (n, d) array")
    if xs.shape[-1] != w.shape[-1]:
        raise ValueError(f"dimension mismatch: len(w)={w.shape[-1]}, samples have d={xs.shape[-1]}")
    coeff = np.asarray(loss.dpsi(np.matmul(xs, w[..., None])[..., 0]), dtype=float)
    grad = np.matmul(np.swapaxes(xs, -1, -2), coeff[..., None])[..., 0] / xs.shape[-2]
    return w - eta * grad


def run_stochastic(config: ExperimentConfig,
                   sampler: Sampler | None = None) -> list[TrajectoryPoint]:
    """Run the sampled adaptation loop for config.horizon steps.

    By default each step draws a fresh batch from the model; `sampler`
    overrides the stream (e.g. the deterministic alternating +-mu stream used
    by the figure presets) and receives (t, rng).  Deterministic given the
    seed.  If an iterate overflows or becomes exactly 0, the run stops early
    and its last record has overflow=True; direction-based metrics stay valid
    up to the stop.  It is stochastic_sweep on one stream and one step size.
    """
    ab, stopped = stochastic_sweep(config, [config.eta], [config.seed], sampler)
    return trajectory(ab[:, 0, 0], config.model, stopped=bool(stopped[0, 0]))


def stochastic_sweep(base: ExperimentConfig, etas, seeds, sampler: Sampler | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Run base at every step size in etas on every seed stream at once.

    The iterates are one (S, K, d) array.  Each step, stream s draws one
    batch as a lone run on seeds[s] would and its K columns step on it, so
    column (s, k) is run_stochastic(replace(base, eta=etas[k], seed=seeds[s]))
    bit for bit.  Every step's iterates are kept and split into (a, b) once,
    after the last step.  A stopped column is frozen at NaN, which every later
    operation passes on without a warning.  Returns (ab, stopped): ab[t, s, k]
    is the (a, b) of point t + 1 of column (s, k), NaN after its stop, up to
    the last step run; stopped flags the columns that stopped early.
    """
    if base.mode is not Mode.STOCHASTIC:
        raise ValueError(f"config.mode is {base.mode.value}, expected stochastic")
    etas = np.array([check_positive("eta", eta) for eta in etas])
    rngs = [np.random.default_rng(np.random.SeedSequence(check_count("seed", seed, 0)))
            for seed in seeds]
    draw = sampler or (lambda t, rng: sample_batch(base.model, rng, base.batch_size))
    w = np.tile(base.w_init, (len(rngs), etas.size, 1))
    ws = [w]
    for t in range(1, base.horizon + 1):
        xs = np.stack([draw(t, rng) for rng in rngs])
        w = gd_step(w, xs[:, None], base.loss, etas[:, None])
        ws.append(w)
        # the stop rule: NaN fails the <= test and +-inf exceeds the limit
        stopped = ~((np.abs(w).max(axis=-1) <= OVERFLOW_LIMIT) & w.any(axis=-1))
        if stopped.all():
            break
        if stopped.any():
            w = np.where(stopped[..., None], np.nan, w)
    return np.stack(split_ab(np.stack(ws), base.model), axis=-1), stopped


# --- population dynamics ------------------------------------------------------

# E[g(Z)], Z ~ N(m, s^2), by the trapezoid rule on the margin axis u: 641 nodes
# on [m - 14 s, m + 14 s] (Gaussian mass outside < 1e-43) cut to |u| <= 36,
# past which the conjugate psi' and psi'' are below 5e-16 (a window wholly past
# the cut is kept whole).  The spacing h is <= 0.044 s, and <= 0.11 once cut;
# the poles at u = +-i pi/2 bound the error by ~exp(-pi^2 / h) (Trefethen &
# Weideman, SIAM Review 2014, secs. 4-5).  Against scipy.integrate.quad: within
# 1e-15 + 1e-12 |E| for s in [1e-3, 1e6] and |m| <= 3 max(s, 1), the halved grid
# (even nodes) inside the refinement tolerance.  conj+square is exact.  An s
# too small for m +- 14 s to differ from m gives the s -> 0 point evaluation.
# One kernel per step: the rows are psi' and psi'' as a (2, 1, 641) block with
# the end columns halved (exact, as every end weight is >= exp(-98)), and its
# even columns.  The weights are built in one buffer; one stacked matmul gives
# the trapezoid sums, a second over the even columns the halved-grid sums of
# the refinement check.  Each item of a stacked matmul is one BLAS dot, so the
# sums keep the bits of `d @ w` and of the strided `d[::2] @ w[::2]`.  psi' and
# psi'' are the loss's own dpsi and ddpsi, the formulas the sampled engine uses.
# _window memoizes offsets and rows by (loss, lo, hi): a window cut on both sides
# is [-36, 36] on every step, so it is built once per loss object.
_HALF_WIDTH, _MARGIN_CUT, _NODES = 14.0, 36.0, 641
_UNIT = np.linspace(-1.0, 1.0, _NODES)
_REFINE_ATOL, _REFINE_RTOL = 1e-12, 1e-9
# a ttabench population pass (12 runs, one loss object each) misses 770 times: 762
# uncut windows seen once and one cut window per smooth run, which is never evicted
_WINDOW_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_WINDOW_CACHE_SIZE)
def _window(loss: SelfTrainingLoss, lo: float, hi: float
            ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """(mid, offsets, rows, even) of the window [lo, hi], arrays read-only: rows
    is psi' and psi'' on the nodes mid + offsets as a (2, 1, 641) block with its
    end columns halved, and even is that block's even columns."""
    mid, offset = 0.5 * (lo + hi), (0.5 * (hi - lo)) * _UNIT
    rows = np.array((loss.dpsi(u := mid + offset), loss.ddpsi(u)))[:, None]
    rows[..., ::_NODES - 1] *= 0.5
    offset.setflags(write=False)
    rows.setflags(write=False)
    return mid, offset, rows, rows[..., ::2]


def _gaussian_expectations(loss: SelfTrainingLoss, m: float, s: float
                           ) -> tuple[float, float, float]:
    """(E[psi'], E[psi'']) at s > 0 (m +- 14 s distinct from m), and the largest
    move of the halved-grid estimate past the refinement tolerance (0.0 when
    neither moved past it)."""
    if loss.family is LossFamily.SQUARE:
        return -m, -1.0, 0.0
    lo, hi = m - _HALF_WIDTH * s, m + _HALF_WIDTH * s
    cut_lo = lo if lo > -_MARGIN_CUT else -_MARGIN_CUT  # comparisons: max/min cost ~0.3 us
    cut_hi = hi if hi < _MARGIN_CUT else _MARGIN_CUT
    if cut_lo < cut_hi:  # not wholly past the cut
        lo, hi = cut_lo, cut_hi
    # u and z from the offsets to the window's middle: neither inherits the other's rounding
    mid, offset, rows, even = _window(loss, lo, hi)
    w = offset + (mid - m)  # z, then the node weights over h / (s sqrt(2 pi))
    w *= math.sqrt(0.5) / s
    np.square(w, out=w)
    np.negative(w, out=w)
    w = np.exp(w, out=w)[:, None]
    scale = (hi - lo) / ((_NODES - 1) * s * math.sqrt(2.0 * math.pi))
    e1, e2 = (rows @ w).ravel().tolist()
    coarse = (even @ w[::2]).ravel().tolist()
    e1, e2, moved = e1 * scale, e2 * scale, 0.0
    for e, c in zip((e1, e2), coarse):
        move = abs(e - 2.0 * scale * c)
        if move > _REFINE_ATOL + _REFINE_RTOL * abs(e):
            moved = max(moved, move)
    return e1, e2, moved


def expectation_terms(loss: SelfTrainingLoss, a: float, b: float,
                      model: GaussianModel) -> tuple[float, float]:
    """(E[psi'(Z)], E[psi''(Z)]) for Z = w^T(mu + sigma xi) ~ N(m, s^2).

    Here m = a and s^2 = sigma^2 (a^2/||mu||^2 + b^2).  With s = 0 (sigma = 0,
    or a = b = 0), or s too small for a +- 14 s to differ from a, the
    expectations collapse to point evaluations at a.  Losses
    with a distributional psi'' (hard rules) are rejected when sigma > 0.  A
    RuntimeWarning says when the quadrature's refinement check fires.
    """
    e1, e2, moved = _expectations(loss, a, b, model)
    _warn_refined(loss, a, b, moved)
    return e1, e2


def _expectations(loss: SelfTrainingLoss, a: float, b: float,
                  model: GaussianModel) -> tuple[float, float, float]:
    """expectation_terms, with the refinement move in place of the warning."""
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
                    model: GaussianModel, eta: float) -> tuple[float, float]:
    """One infinite-data update of the pair (a, b)."""
    a_next, b_next, moved = _step(a, b, loss, model, eta)
    _warn_refined(loss, a, b, moved)
    return a_next, b_next


def _warn_refined(loss: SelfTrainingLoss, a: float, b: float, moved: float) -> None:
    """The RuntimeWarning of one expectation_terms or population_step call
    whose refinement check fired (moved > 0), pointed at that call's caller."""
    if moved:
        warnings.warn(f"reduced quadrature precision for {loss.name} at (a={a}, b={b}): "
                      f"refinement moved the estimate by {moved:.3e}", RuntimeWarning, stacklevel=3)


def _step(a, b, loss, model, eta):
    """(a', b', refinement move) of one population update.

    At sigma = 0 the shrink factor 1 - eta sigma^2 E[psi''] is exactly 1.0
    when eta and psi''(a) are finite, and psi'' of all six losses is finite
    for |a| <= OVERFLOW_LIMIT (the conj+logistic psi'' is NaN past |a| ~ 9e307).
    There b' = b and psi'' is not evaluated.
    """
    if model.sigma == 0.0 and abs(a) <= OVERFLOW_LIMIT and abs(eta) < math.inf:
        b = check_non_negative("b", b)
        return a - eta * float(loss.dpsi(float(a))) * model.mu_norm**2, b, 0.0
    e1, e2, moved = _expectations(loss, a, b, model)
    shrink = 1.0 - eta * model.sigma**2 * e2
    return shrink * a - eta * e1 * model.mu_norm**2, abs(shrink) * float(b), moved


def _steps(a, b, loss, model, eta):
    """_step from (a, b) over and over: yields (a', b', refinement move) of
    each update, without end; the caller takes as many as it needs."""
    while True:
        a, b, moved = _step(a, b, loss, model, eta)
        yield a, b, moved


def run_population(config: ExperimentConfig) -> list[TrajectoryPoint]:
    """Iterate the population dynamic from split_ab(w_init).

    Overflow of (a, b), or a = b = 0, ends the run with a flagged record, as
    in the stochastic runner.  One RuntimeWarning per run reports the steps on
    which the quadrature's refinement check fired, if any.
    """
    if config.mode is not Mode.POPULATION:
        raise ValueError(f"config.mode is {config.mode.value}, expected population")
    model = config.model
    ab = [split_ab(config.w_init, model)]
    moves = []  # (t, move) of each step whose refinement check fired
    steps = _steps(*ab[0], config.loss, model, config.eta)
    for t, (a, b, moved) in enumerate(itertools.islice(steps, config.horizon), start=1):
        if moved:
            moves.append((t, moved))
        ab.append((a, b))
        if stopped := (not (math.isfinite(a) and math.isfinite(b))
                       or max(abs(a), b) > OVERFLOW_LIMIT or a == b == 0.0):
            break
    if moves:
        warnings.warn(f"reduced quadrature precision in a {config.loss.name} population run: "
                      f"refinement fired on {len(moves)} steps, first at t={moves[0][0]}, "
                      f"largest move {max(m for _, m in moves):.3e}", RuntimeWarning, stacklevel=2)
    return trajectory(ab, model, stopped=stopped)


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


def trajectory(ab: list[tuple[float, float]], model: GaussianModel,
               stopped: bool) -> list[TrajectoryPoint]:
    """Points t = 1, 2, ... for the iterates' (a, b); `stopped` flags the last."""
    a, b = np.array(ab, dtype=float).T
    columns = (a.tolist(), b.tolist(), *(m.tolist() for m in ab_metrics(a, b, model)))
    points = [TrajectoryPoint(t, *row) for t, row in enumerate(zip(*columns), start=1)]
    if stopped:
        points[-1] = points[-1]._replace(overflow=True)
    return points
