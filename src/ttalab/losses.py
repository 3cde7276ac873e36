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

Each loss is one row of the table `_LOSSES`: psi, psi' and psi'' as
vectorized callables, which take a float, an int, a list or an array and
return float64, plus optional tail-bound parameters.  These are the only
formulas for psi' and psi'': the sampled engine, the population quadrature and
the certificates all call them.  For the hard rules psi' jumps at the origin
(sign(0) := 0 everywhere), so ddpsi stores only the smooth part of psi'' and
`smooth_second_derivative` is False; the point mass at 0 is deliberately not
assigned a coefficient.

The four non-square losses carry tail-bound parameters (L, a_min) certifying
-psi'(a) >= exp(-L a) for a >= a_min; these are data here and are verified
numerically by the analysis module.
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
]

_LN2 = math.log(2.0)


class LabelRule(str, Enum):
    HARD = "hard"
    CONJ = "conj"


class LossFamily(str, Enum):
    SQUARE = "square"
    LOGISTIC = "logistic"
    EXP = "exp"


# Reading an Enum member as a class attribute takes ~0.2 us on CPython 3.11,
# a module global ~20 ns; the population step reads this one on every step.
_CONJ = LabelRule.CONJ


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
        return self.rule is _CONJ

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


# --- the six losses ----------------------------------------------------------
# A formula coerces u to a float array only where it does arithmetic on u
# itself; np.sign, np.abs, np.exp, np.tanh and the helpers above coerce on
# their own.


def _conj_square_psi(u):
    u = np.asarray(u, dtype=float)
    return -0.5 * u * u


def _hard_logistic_dpsi(u):
    # tanh(u) - sign(u), evaluated as -sign(u) (1 - tanh|u|) with 1 - tanh|u|
    # = 2 e^{-2|u|} / (1 + e^{-2|u|}), free of cancellation.
    e = np.exp(-2.0 * np.abs(u))
    return -np.sign(u) * (2.0 * e / (1.0 + e))


def _conj_logistic_ddpsi(u):
    u = np.asarray(u, dtype=float)
    s2 = _sech(u) ** 2
    return -s2 + 2.0 * u * np.tanh(u) * s2


def _conj_exp_ddpsi(u):
    s = _sech(u)
    t = np.tanh(u)
    return s * (t * t - s * s)


# (rule, family) -> (psi, psi', psi'', tail-bound parameters)
_LOSSES = {
    (LabelRule.HARD, LossFamily.SQUARE): (
        lambda u: 0.5 * (np.sign(u) - np.asarray(u, dtype=float)) ** 2,
        lambda u: np.asarray(u, dtype=float) - np.sign(u),
        lambda u: np.ones_like(u, dtype=float),
        None),
    (LabelRule.CONJ, LossFamily.SQUARE): (
        _conj_square_psi,
        lambda u: -np.asarray(u, dtype=float),
        lambda u: np.full_like(u, -1.0, dtype=float),
        None),
    (LabelRule.HARD, LossFamily.LOGISTIC): (
        lambda u: _log_cosh(u) - np.abs(u),
        _hard_logistic_dpsi,
        lambda u: _sech(u) ** 2,
        ClubParams(L=2.0, a_min=0.0)),
    (LabelRule.CONJ, LossFamily.LOGISTIC): (
        lambda u: _log_cosh(u) - np.asarray(u, dtype=float) * np.tanh(u),
        lambda u: -np.asarray(u, dtype=float) * _sech(u) ** 2,
        _conj_logistic_ddpsi,
        ClubParams(L=2.0, a_min=0.5)),
    (LabelRule.HARD, LossFamily.EXP): (
        lambda u: np.exp(-np.abs(u)),
        lambda u: -np.sign(u) * np.exp(-np.abs(u)),
        lambda u: np.exp(-np.abs(u)),
        ClubParams(L=1.0, a_min=0.0)),
    (LabelRule.CONJ, LossFamily.EXP): (
        _sech,
        lambda u: -np.tanh(u) * _sech(u),
        _conj_exp_ddpsi,
        ClubParams(L=1.0, a_min=0.75)),
}


def make_loss(rule: LabelRule | str, family: LossFamily | str) -> SelfTrainingLoss:
    """Build one of the six pseudo-label self-training losses."""
    rule = LabelRule(rule)
    family = LossFamily(family)
    return SelfTrainingLoss(rule, family, *_LOSSES[rule, family])


def all_losses() -> list[SelfTrainingLoss]:
    return [make_loss(rule, family) for rule, family in _LOSSES]


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
