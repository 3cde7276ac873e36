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
carries a point mass at 0 whose coefficient we do not guess).

Both runners record the trajectory point for iteration t *before* the t-th
update, so point t always describes w_t, plus one final point at T+1.  They
collect (a, b) per iterate and derive r, cos and the 0-1 loss for the whole
trajectory in one model.ab_metrics call.  An iterate that overflows or
becomes exactly 0 ends either run with a flagged record.  stochastic_sweep
steps S seed streams x K step sizes as one array; run_stochastic is S = K = 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np

from .losses import SelfTrainingLoss
from .model import (GaussianModel, ab_metrics, check_count, check_non_negative,
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
    "hard_square_scalar_step",
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


@dataclass(frozen=True)
class TrajectoryPoint:
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
    bit for bit.  (a, b) is split off every 32 steps; no other iterate is
    kept.  A stopped column is frozen at NaN, which every later operation
    passes on without a warning.  Returns (ab, stopped): ab[t, s, k] is the
    (a, b) of point t + 1 of column (s, k), NaN after its stop, up to the
    last step run; stopped flags the columns that stopped early.
    """
    if base.mode is not Mode.STOCHASTIC:
        raise ValueError(f"config.mode is {base.mode.value}, expected stochastic")
    etas = np.array([check_positive("eta", eta) for eta in etas])
    rngs = [np.random.default_rng(np.random.SeedSequence(check_count("seed", seed, 0)))
            for seed in seeds]
    draw = sampler or (lambda t, rng: sample_batch(base.model, rng, base.batch_size))
    w = np.tile(base.w_init, (len(rngs), etas.size, 1))
    block, parts = [w], []
    for t in range(1, base.horizon + 1):
        xs = np.stack([draw(t, rng) for rng in rngs])
        w = gd_step(w, xs[:, None], base.loss, etas[:, None])
        block.append(w)
        # the stop rule: NaN fails the <= test and +-inf exceeds the limit
        stopped = ~((np.abs(w).max(axis=-1) <= OVERFLOW_LIMIT) & w.any(axis=-1))
        if len(block) == 32 or t == base.horizon or stopped.all():
            parts.append(np.stack(split_ab(np.stack(block), base.model), axis=-1))
            block = []
            if stopped.all():
                break
        if stopped.any():
            w = np.where(stopped[..., None], np.nan, w)
    return np.concatenate(parts), stopped


# --- population dynamics ------------------------------------------------------

# Expectations over Z ~ N(m, s^2) via the trapezoid rule on z in [-14, 14]
# (integrand truncation below 1e-43).  The integrands sech/tanh have poles at
# i pi/2, which caps Gauss-Hermite accuracy near 1e-3 for s >= 2; trapezoid
# with these step sizes is exact to machine precision for s up to ~30.
_QUAD_HALF_WIDTH = 14.0


def _trap_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    z = np.linspace(-_QUAD_HALF_WIDTH, _QUAD_HALF_WIDTH, n)
    h = z[1] - z[0]
    weight = np.exp(-0.5 * z * z) * (h / math.sqrt(2.0 * math.pi))
    weight[0] *= 0.5
    weight[-1] *= 0.5
    return z, weight


# The 1025 coarse nodes are exactly the even-indexed fine nodes, so the
# refinement check reuses the fine evaluations instead of evaluating twice.
_Z_FINE, _W_FINE = _trap_nodes(2049)
_W_COARSE = _trap_nodes(1025)[1]


def _gaussian_expectations(loss: SelfTrainingLoss, m: float, s: float) -> tuple[float, float]:
    u = m + s * _Z_FINE
    d1, d2 = loss.dpsi(u), loss.ddpsi(u)
    e1, e2 = float(_W_FINE @ d1), float(_W_FINE @ d2)
    # contiguous copies: a strided dot may sum in a different order
    e1c = float(_W_COARSE @ np.ascontiguousarray(d1[::2]))
    e2c = float(_W_COARSE @ np.ascontiguousarray(d2[::2]))
    for coarse, fine, tag in ((e1c, e1, "E[psi']"), (e2c, e2, "E[psi'']")):
        if abs(fine - coarse) > 1e-12 + 1e-9 * abs(fine):
            warnings.warn(
                f"reduced quadrature precision for {tag} of {loss.name} at "
                f"(m={m}, s={s}): refinement moved the estimate by {abs(fine - coarse):.3e}",
                RuntimeWarning,
                stacklevel=3,
            )
    return e1, e2


def expectation_terms(loss: SelfTrainingLoss, a: float, b: float,
                      model: GaussianModel) -> tuple[float, float]:
    """(E[psi'(Z)], E[psi''(Z)]) for Z = w^T(mu + sigma xi) ~ N(m, s^2).

    Here m = a and s^2 = sigma^2 (a^2/||mu||^2 + b^2).  With sigma = 0 the
    expectations collapse to point evaluations at a.  Losses with a
    distributional psi'' (hard rules) are rejected when sigma > 0.
    """
    a = float(a)
    b = check_non_negative("b", b)
    if model.sigma == 0.0:
        return float(loss.dpsi(a)), float(loss.ddpsi(a))
    if not loss.smooth_second_derivative:
        raise UnsupportedLossError(
            f"unsupported: distributional psi'' ({loss.name} has a jump in psi' at 0, "
            "so its population dynamics at sigma > 0 are not defined here)"
        )
    s = model.sigma * math.hypot(a / model.mu_norm, b)
    return _gaussian_expectations(loss, a, s)


def population_step(a: float, b: float, loss: SelfTrainingLoss,
                    model: GaussianModel, eta: float) -> tuple[float, float]:
    """One infinite-data update of the pair (a, b)."""
    e1, e2 = expectation_terms(loss, a, b, model)
    shrink = 1.0 - eta * model.sigma**2 * e2
    a_next = shrink * a - eta * e1 * model.mu_norm**2
    b_next = abs(shrink) * float(b)
    return a_next, b_next


def run_population(config: ExperimentConfig) -> list[TrajectoryPoint]:
    """Iterate the population dynamic from split_ab(w_init).

    Overflow of (a, b), or a = b = 0, ends the run with a flagged record, as
    in the stochastic runner.
    """
    if config.mode is not Mode.POPULATION:
        raise ValueError(f"config.mode is {config.mode.value}, expected population")
    model = config.model
    ab = [split_ab(config.w_init, model)]
    for _ in range(config.horizon):
        a, b = population_step(*ab[-1], config.loss, model, config.eta)
        ab.append((a, b))
        if (not (math.isfinite(a) and math.isfinite(b)) or max(abs(a), b) > OVERFLOW_LIMIT
                or a == b == 0.0):
            return trajectory(ab, model, stopped=True)
    return trajectory(ab, model, stopped=False)


# --- scalar dynamics and closed forms -----------------------------------------


def hard_square_scalar_step(a_bar: float, eta: float, mu_norm: float) -> float:
    """Noiseless along-mu recursion of the hard square loss.

    a_bar' = (1 - eta ||mu||^2) a_bar + eta sign(a_bar) ||mu||.  Fixed point
    1/||mu|| for small steps; for eta ||mu||^2 > 2 and |a_bar| large enough the
    magnitude grows while the sign oscillates.
    """
    a_bar = float(a_bar)
    return (1.0 - eta * mu_norm**2) * a_bar + eta * float(np.sign(a_bar)) * mu_norm


def conj_square_ratio_closed_form(r1: float, eta: float, mu_norm: float,
                                  sigma: float, t: int) -> float:
    """Ratio after t conjugate-square population steps: r1 g^t with
    g = 1 + eta ||mu||^2 / (1 + eta sigma^2)."""
    t = check_count("t", t, 0)
    eta = check_positive("eta", eta)
    growth = 1.0 + eta * mu_norm**2 / (1.0 + eta * sigma**2)
    return float(r1) * growth ** t


def epsilon_iteration_bound(eps: float, r1: float, eta: float, mu_norm: float,
                            sigma: float) -> int:
    """Iterations sufficient for the conjugate-square dynamic to be
    eps-optimal: ceil( log(||mu||^2/(eps r1^2)) / (2 log g) ), floored at 0."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    r1 = check_positive("r1", r1)
    eta = check_positive("eta", eta)
    growth = 1.0 + eta * mu_norm**2 / (1.0 + eta * sigma**2)
    ratio = mu_norm**2 / (eps * r1**2)
    if ratio <= 1.0:
        return 0
    return max(0, math.ceil(0.5 * math.log(ratio) / math.log(growth)))


# --- helpers -------------------------------------------------------------------


def trajectory(ab: list[tuple[float, float]], model: GaussianModel,
               stopped: bool) -> list[TrajectoryPoint]:
    """Points t = 1, 2, ... for the iterates' (a, b); `stopped` flags the last."""
    a, b = np.array(ab, dtype=float).T
    columns = (a.tolist(), b.tolist(), *(m.tolist() for m in ab_metrics(a, b, model)))
    points = [TrajectoryPoint(t, *row) for t, row in enumerate(zip(*columns), start=1)]
    if stopped:
        points[-1] = replace(points[-1], overflow=True)
    return points
