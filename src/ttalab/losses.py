"""Self-training losses for the binary linear setting.

Substituting a pseudo-label for the unavailable true label turns each base
loss (square, logistic, exponential) into a scalar function psi of the margin
u = w^T x.  Two pseudo-label rules are supported:

    hard        y = sign(u)
    conjugate   y = u for the square family, y = tanh(u) otherwise

The six resulting losses:

    rule  family    psi(u)
    ----  --------  ------------------------------
    hard  square    (sign(u) - u)^2 / 2
    conj  square    -u^2 / 2
    hard  logistic  log cosh(u) - |u|
    conj  logistic  log cosh(u) - u tanh(u)
    hard  exp       exp(-|u|)
    conj  exp       sech(u)

Each loss carries (psi, psi', psi'') as vectorized callables.  For the hard
rules psi' jumps at the origin (sign(0) := 0 everywhere), so ddpsi stores only
the smooth part of psi'' and `smooth_second_derivative` is False; the point
mass at 0 is deliberately not assigned a coefficient.

The four non-square losses additionally carry tail-bound parameters
(L, a_min) certifying -psi'(a) >= exp(-L a) for a >= a_min; these are data
here and are verified numerically by the analysis module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

__all__ = [
    "LabelRule",
    "LossFamily",
    "ClubParams",
    "SelfTrainingLoss",
    "make_loss",
    "all_losses",
    "club_losses",
    "parse_loss_id",
    "pseudo_label",
    "self_loss_gradient",
]

_LN2 = math.log(2.0)


class LabelRule(str, Enum):
    HARD = "hard"
    CONJ = "conj"


class LossFamily(str, Enum):
    SQUARE = "square"
    LOGISTIC = "logistic"
    EXP = "exp"


@dataclass(frozen=True)
class ClubParams:
    """Tail-bound parameters: -psi'(a) >= exp(-L a) for all a >= a_min."""

    L: float
    a_min: float


@dataclass(frozen=True, eq=False)
class SelfTrainingLoss:
    """Scalar margin loss psi with its first two derivatives.

    dpsi is the a.e. derivative with the sign(0) = 0 convention; ddpsi is the
    smooth part of the second derivative.  smooth_second_derivative is True
    iff psi' is continuous everywhere, which is exactly the conjugate rule.
    """

    rule: LabelRule
    family: LossFamily
    psi: Callable[[np.ndarray], np.ndarray]
    dpsi: Callable[[np.ndarray], np.ndarray]
    ddpsi: Callable[[np.ndarray], np.ndarray]
    club: ClubParams | None

    @property
    def smooth_second_derivative(self) -> bool:
        return self.rule is LabelRule.CONJ

    @property
    def name(self) -> str:
        return f"{self.rule.value}+{self.family.value}"


# --- numerically stable primitives ------------------------------------------
# Naive cosh/exp overflow near |u| ~ 710; all evaluations below stay finite
# for |u| <= 700 and beyond.


def _log_cosh(u: np.ndarray) -> np.ndarray:
    au = np.abs(u)
    return au - _LN2 + np.log1p(np.exp(-2.0 * au))


def _sech(u: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(u))
    return 2.0 * e / (1.0 + e * e)


def _one_minus_tanh_abs(u: np.ndarray) -> np.ndarray:
    # 1 - tanh(|u|) without cancellation: 2 e^{-2|u|} / (1 + e^{-2|u|}).
    e = np.exp(-2.0 * np.abs(u))
    return 2.0 * e / (1.0 + e)


def _as_array(u) -> np.ndarray:
    return np.asarray(u, dtype=float)


# --- the six losses ----------------------------------------------------------


def _hard_square() -> SelfTrainingLoss:
    def psi(u):
        u = _as_array(u)
        return 0.5 * (np.sign(u) - u) ** 2

    def dpsi(u):
        u = _as_array(u)
        return u - np.sign(u)

    def ddpsi(u):
        u = _as_array(u)
        return np.ones_like(u)

    return SelfTrainingLoss(LabelRule.HARD, LossFamily.SQUARE, psi, dpsi, ddpsi, club=None)


def _conj_square() -> SelfTrainingLoss:
    def psi(u):
        u = _as_array(u)
        return -0.5 * u * u

    def dpsi(u):
        return -_as_array(u)

    def ddpsi(u):
        u = _as_array(u)
        return np.full_like(u, -1.0)

    return SelfTrainingLoss(LabelRule.CONJ, LossFamily.SQUARE, psi, dpsi, ddpsi, club=None)


def _hard_logistic() -> SelfTrainingLoss:
    def psi(u):
        u = _as_array(u)
        return _log_cosh(u) - np.abs(u)

    def dpsi(u):
        # tanh(u) - sign(u), evaluated as -sign(u) (1 - tanh|u|).
        u = _as_array(u)
        return -np.sign(u) * _one_minus_tanh_abs(u)

    def ddpsi(u):
        return _sech(_as_array(u)) ** 2

    return SelfTrainingLoss(LabelRule.HARD, LossFamily.LOGISTIC, psi, dpsi, ddpsi,
                            club=ClubParams(L=2.0, a_min=0.0))


def _conj_logistic() -> SelfTrainingLoss:
    def psi(u):
        u = _as_array(u)
        return _log_cosh(u) - u * np.tanh(u)

    def dpsi(u):
        u = _as_array(u)
        return -u * _sech(u) ** 2

    def ddpsi(u):
        u = _as_array(u)
        s2 = _sech(u) ** 2
        return -s2 + 2.0 * u * np.tanh(u) * s2

    return SelfTrainingLoss(LabelRule.CONJ, LossFamily.LOGISTIC, psi, dpsi, ddpsi,
                            club=ClubParams(L=2.0, a_min=0.5))


def _hard_exp() -> SelfTrainingLoss:
    def psi(u):
        u = _as_array(u)
        return np.exp(-np.abs(u))

    def dpsi(u):
        u = _as_array(u)
        return -np.sign(u) * np.exp(-np.abs(u))

    def ddpsi(u):
        u = _as_array(u)
        return np.exp(-np.abs(u))

    return SelfTrainingLoss(LabelRule.HARD, LossFamily.EXP, psi, dpsi, ddpsi,
                            club=ClubParams(L=1.0, a_min=0.0))


def _conj_exp() -> SelfTrainingLoss:
    def psi(u):
        return _sech(_as_array(u))

    def dpsi(u):
        u = _as_array(u)
        return -np.tanh(u) * _sech(u)

    def ddpsi(u):
        u = _as_array(u)
        s = _sech(u)
        t = np.tanh(u)
        return s * (t * t - s * s)

    return SelfTrainingLoss(LabelRule.CONJ, LossFamily.EXP, psi, dpsi, ddpsi,
                            club=ClubParams(L=1.0, a_min=0.75))


# (psi', psi'') of the smooth conjugate losses from (u, sech u, tanh u), for the
# population quadrature.  dpsi and ddpsi above stay the reference: the sampled
# engine's bits rest on them.
_DERIVATIVE_PAIRS = {
    (LabelRule.CONJ, LossFamily.LOGISTIC):
        lambda u, sech, tanh: (-u * sech**2, sech**2 * (2.0 * u * tanh - 1.0)),
    (LabelRule.CONJ, LossFamily.EXP):
        lambda u, sech, tanh: (-tanh * sech, sech * (tanh * tanh - sech * sech)),
}


def _derivative_pair(loss: SelfTrainingLoss, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(psi', psi'') of conj+logistic or conj+exp from one e = exp(-|u|): sech u =
    2e / (1 + e^2), tanh u = sign(u) (1 - e^2) / (1 + e^2) (absolute error ~1e-16)."""
    e = np.exp(-np.abs(u))
    two_over = 2.0 / (1.0 + e * e)
    sech, tanh = e * two_over, np.copysign(two_over - 1.0, u)
    return _DERIVATIVE_PAIRS[loss.rule, loss.family](u, sech, tanh)


_FACTORY = {
    (LabelRule.HARD, LossFamily.SQUARE): _hard_square,
    (LabelRule.CONJ, LossFamily.SQUARE): _conj_square,
    (LabelRule.HARD, LossFamily.LOGISTIC): _hard_logistic,
    (LabelRule.CONJ, LossFamily.LOGISTIC): _conj_logistic,
    (LabelRule.HARD, LossFamily.EXP): _hard_exp,
    (LabelRule.CONJ, LossFamily.EXP): _conj_exp,
}


def make_loss(rule: LabelRule | str, family: LossFamily | str) -> SelfTrainingLoss:
    """Build one of the six pseudo-label self-training losses."""
    rule = LabelRule(rule)
    family = LossFamily(family)
    return _FACTORY[(rule, family)]()


def all_losses() -> list[SelfTrainingLoss]:
    return [factory() for factory in _FACTORY.values()]


def club_losses() -> list[SelfTrainingLoss]:
    """The four losses that carry tail-bound parameters."""
    return [loss for loss in all_losses() if loss.club is not None]


def parse_loss_id(text: str) -> SelfTrainingLoss:
    """Parse "rule:family" or "rule+family", e.g. "conj:exp"."""
    sep = ":" if ":" in text else "+"
    parts = text.strip().lower().split(sep)
    if len(parts) != 2:
        raise ValueError(f"loss id must look like 'rule:family', got {text!r}")
    try:
        return make_loss(parts[0], parts[1])
    except ValueError:
        raise ValueError(
            f"unknown loss {text!r}; rule is one of hard/conj, "
            "family one of square/logistic/exp"
        ) from None


def pseudo_label(loss: SelfTrainingLoss, margin: float) -> float:
    """Pseudo-label assigned to a sample with margin w^T x."""
    margin = float(margin)
    if loss.rule is LabelRule.HARD:
        return float(np.sign(margin))
    if loss.family is LossFamily.SQUARE:
        return margin
    return math.tanh(margin)


def self_loss_gradient(loss: SelfTrainingLoss, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient of psi(w^T x) in w, i.e. psi'(w^T x) x."""
    w = np.asarray(w, dtype=float).reshape(-1)
    x = np.asarray(x, dtype=float).reshape(-1)
    if w.size != x.size:
        raise ValueError(f"dimension mismatch: len(w)={w.size}, len(x)={x.size}")
    return float(loss.dpsi(float(w @ x))) * x
