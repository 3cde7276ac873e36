"""Numerical certification of the convergence claims.

Everything here turns an analytic statement into a falsifiable finite check:

* verify_club       grid certificate for evenness of psi plus the tail bound
                    -psi'(a) >= exp(-L a) on [a_min, a_max]
* tail_rate_curve   pointwise exponent L(z) = -log(-psi'(z)) / z, the smallest
                    L for which the tail bound holds at z exactly
* recursion_bound_run
                    simulates r_{t+1} = r_t + c exp(-L r_t) and checks the
                    logarithmic lower bound r_t >= log(c (t-1)) / (2 L) past
                    the burn-in tau* = nu2(L)^2 / c
* log_rate_check    runs the noiseless population dynamic of a tail-bounded
                    loss and checks the same bound with the explicit constant
                    c = eta ||mu||^2 / b1 and exponent L b1
* stein_identity_check
                    Monte Carlo check of E[Z g(Z)] = E[g'(Z)] for g = psi'
                    composed with an affine map, the identity behind the
                    population b-update

Certificates are grid-based: a for-all-reals claim is checked on a dense
finite grid and the gap is the grid granularity.  verify_club walks one grid,
a_min + step k from the origin to the cap, for both evenness and the tail
bound, so psi is evaluated twice per node (at u and -u) and psi' once per
tail node.  That grid and the checked range of the logarithmic bound are
walked in blocks of _BLOCK indices, each block's nodes built from its index
range with the formula the whole grid would use.  The minima, maxima and
first violation are folded across blocks, so memory is O(_BLOCK) and no
result depends on the block size; the logarithmic bound's first violation is
looked for only in a block whose minimum slack is negative.  Reports
serialize to key = value text.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import dynamics
from .dynamics import UnsupportedLossError
from .losses import SelfTrainingLoss
from .model import (GaussianModel, check_count, check_finite, check_non_negative,
                    check_positive)

__all__ = [
    "ClubCertificate",
    "TailRateCurve",
    "RecursionReport",
    "LogRateReport",
    "SteinReport",
    "verify_club",
    "tail_rate_curve",
    "recursion_bound_run",
    "log_rate_check",
    "stein_identity_check",
    "nu_star_upper",
    "record_text",
]

# exp(-L a) underflows past a ~ 745/L; beyond ~700/L the tail bound is
# vacuous in float64, so certification grids are capped there.
_UNDERFLOW_CAP = 700.0
_PASS_TOLERANCE = -1e-12
# Indices per block of a grid check: 128 KB per float64 temporary, which
# keeps each block's temporaries in cache.
_BLOCK = 1 << 14


@dataclass(frozen=True)
class ClubCertificate:
    """Outcome of the evenness + exponential-tail-bound check for one loss.

    max_violation is the most negative value of (-psi'(a)) - exp(-L a) over
    the grid; anything at or above -1e-12 counts as a pass (the hard
    exponential loss meets the bound with equality).
    """

    rule: str
    family: str
    L: float
    a_min: float
    a_max: float
    step: float
    passed: bool
    max_violation: float
    evenness_passed: bool


@dataclass(frozen=True, eq=False)
class TailRateCurve:
    """Pointwise tail exponent of -psi'; grid points with -psi'(z) <= 0 are
    reported in `skipped` rather than silently dropped."""

    rule: str
    family: str
    z: np.ndarray
    rate: np.ndarray
    skipped: np.ndarray


@dataclass(frozen=True)
class RecursionReport:
    c: float
    L: float
    r1: float
    horizon: int
    equality: bool
    tau_star: float
    bound_holds: bool
    first_violation_t: int | None


@dataclass(frozen=True)
class LogRateReport:
    rule: str
    family: str
    L: float
    a_min: float
    a1: float
    b1: float
    eta: float
    mu_norm: float
    horizon: int
    c: float
    exponent: float
    tau_star: float
    bound_holds: bool
    first_violation_t: int | None
    min_slack: float


@dataclass(frozen=True)
class SteinReport:
    rule: str
    family: str
    m: float
    s: float
    n: int
    lhs: float
    rhs: float
    stderr_lhs: float
    stderr_rhs: float
    passed: bool


def verify_club(loss: SelfTrainingLoss, L: float, a_min: float,
                a_max: float = 1000.0, step: float = 1e-3) -> ClubCertificate:
    """Certify evenness of psi and -psi'(a) >= exp(-L a) on [a_min, a_max].

    a_max is capped at 700/L where the right-hand side underflows; an a_min
    past that cap is rejected.  One grid, u = a_min + step k, is walked from
    the last node at or below the origin (k = -ceil(a_min / step)) to the
    cap: every node is checked for psi(u) = psi(-u), so each pair (u, -u) is
    evaluated once at spacing step, and the nodes with k >= 0 for the tail
    bound.  The walk has about a_cap / step nodes whatever a_min is.  For
    losses whose psi' jumps at the origin, the tail node a = 0 is excluded:
    psi'(0) = 0 there by the sign(0) = 0 convention, while the bound
    concerns the one-sided limit.
    """
    L = check_positive("L", L)
    a_min = check_non_negative("a_min", a_min)
    if not (a_max > a_min):
        raise ValueError("a_max must exceed a_min")
    step = check_positive("step", step)
    a_cap = min(float(a_max), _UNDERFLOW_CAP / L)
    if a_cap < a_min:
        raise ValueError(f"a_min = {a_min} is past the underflow cap "
                         f"{_UNDERFLOW_CAP:g}/L = {a_cap}")

    # a_cap / step bounds both a_min / step and (a_cap - a_min) / step
    if not math.isfinite(a_cap / step):
        raise ValueError(f"step = {step} is too small for a_max = {a_cap}: "
                         "the node count overflows")
    n = int(math.floor((a_cap - a_min) / step)) + 1  # tail nodes, k = 0 .. n-1
    # only node k = 0 can be 0.0 (a_min = +-0.0, whose walk starts at k = 0)
    drop_origin = a_min == 0.0 and not loss.smooth_second_derivative
    lows = []  # the smallest gap (-psi'(a)) - exp(-L a) of each block
    even_errs = []  # the largest relative |psi(u) - psi(-u)| of each block
    for i, j in _blocks(-math.ceil(a_min / step), n):
        u = a_min + step * np.arange(i, j)
        left = np.asarray(loss.psi(u), dtype=float)
        right = np.asarray(loss.psi(-u), dtype=float)
        even_errs.append(np.max(np.abs(left - right) / np.maximum(1.0, np.abs(left))))
        tail = u[1:] if drop_origin and i == 0 else u[max(0, -i):]
        if tail.size:
            gap = (-np.asarray(loss.dpsi(tail), dtype=float)) - np.exp(-L * tail)
            lows.append(gap.min())
    # np.min and np.max, unlike Python's min and max or np.fmax, pass a NaN on
    max_violation = float(np.min(lows)) if lows else 0.0
    evenness_passed = bool(np.max(even_errs) <= 1e-12)

    return ClubCertificate(
        rule=loss.rule.value,
        family=loss.family.value,
        L=L,
        a_min=a_min,
        a_max=a_cap,
        step=step,
        passed=bool(max_violation >= _PASS_TOLERANCE and evenness_passed),
        max_violation=max_violation,
        evenness_passed=evenness_passed,
    )


def _blocks(lo: int, hi: int):
    """(i, j) index ranges of at most _BLOCK indices that cover [lo, hi)."""
    return ((i, min(i + _BLOCK, hi)) for i in range(lo, hi, _BLOCK))


def tail_rate_curve(loss: SelfTrainingLoss, z_grid: np.ndarray) -> TailRateCurve:
    """L(z) = -log(-psi'(z)) / z on the positive grid.

    This is the exponent making -psi'(z) = exp(-L(z) z) hold pointwise, so
    the hard exponential loss reports the constant 1.  Points where
    -psi'(z) <= 0 (or underflows to 0) are skipped and flagged.
    """
    z = np.asarray(z_grid, dtype=float).reshape(-1)
    if not np.all(z > 0.0):  # NaN fails the comparison, so it is rejected too
        raise ValueError("z grid must be strictly positive")
    if np.isinf(z).any():  # only +inf is left: a bad input, not an underflow to skip
        raise ValueError("z grid must be finite")
    neg_slope = -np.asarray(loss.dpsi(z), dtype=float)
    valid = neg_slope > 0.0
    rate = np.full(z.shape, np.nan)
    rate[valid] = -np.log(neg_slope[valid]) / z[valid]
    return TailRateCurve(
        rule=loss.rule.value,
        family=loss.family.value,
        z=z[valid],
        rate=rate[valid],
        skipped=z[~valid],
    )


def nu_star_upper(L: float) -> float | None:
    """Larger fixed point nu2 of nu = exp(L nu), or None when L >= 1/e (at
    L = 1/e the two fixed points meet at e).

    L must be finite and > 0.  Bisection between v and 1/L to 1e-12 or float
    resolution, whichever is coarser, with v the first of 2/L, 4/L, ... that
    satisfies v < exp(L v) (inf when nu2 exceeds the float range).  Compared
    as log(nu) vs L nu, so exp never overflows.
    """
    L = check_positive("L", L)
    if L * math.e >= 1.0:
        return None
    below, above = 2.0 / L, 1.0 / L
    while math.isfinite(below) and math.log(below) >= L * below:
        below *= 2.0
    while abs(above - below) > 1e-12:
        mid = 0.5 * (below + above)
        if mid == below or mid == above:
            break
        if math.log(mid) < L * mid:
            below = mid
        else:
            above = mid
    return 0.5 * (below + above)


def _burn_in(c: float, L: float) -> float:
    """tau* = nu2(L)^2 / c, or 0 when L >= 1/e (no fixed point) or c = 0."""
    nu2 = nu_star_upper(L)
    return (nu2 * nu2 / c) if (nu2 is not None and c > 0.0) else 0.0


def recursion_bound_run(r1: float, c: float, L: float, T: int,
                        equality: bool = True) -> tuple[np.ndarray, RecursionReport]:
    """Simulate the recursion r_{t+1} = r_t + c exp(-L r_t) and check the
    logarithmic lower bound r_t >= log(c (t-1)) / (2 L) for every integer
    t > tau* + 1 within the horizon, with burn-in tau* = nu2(L)^2 / c.

    With equality=False the increment is doubled, a representative instance
    of the strict-inequality dynamic (the bound must hold a fortiori).  The
    bound holds for any sequence with r_1 > 0 and
    r_{t+1} >= r_t + c exp(-L r_t):

    1. g(r) = r exp(L r) is increasing for r >= 0 and
       g(r + c exp(-L r)) >= g(r) + c, so r_t exp(L r_t) >= c (t-1).
    2. Where exp(L r_t) >= r_t, i.e. r_t lies outside the open interval
       (nu1, nu2) between the fixed points of nu = exp(L nu), step 1 gives
       exp(2 L r_t) >= c (t-1), i.e. r_t >= log(c (t-1)) / (2 L).
    3. While r <= nu2 each step adds at least c exp(-L nu2) = c / nu2, so
       r_t >= nu2 once t - 1 >= nu2^2 / c, and r_t stays there because the
       sequence is monotone.

    nu2 is the LARGER fixed point (nu_star_upper); when L >= 1/e there is no
    fixed point, step 2 applies everywhere and tau* = 0.  tau* = 0 also when
    c = 0, where the bound is vacuous.
    """
    r1 = check_positive("r1", r1)
    c = check_non_negative("c", c)
    L = check_positive("L", L)
    T = check_count("T", T, 1)

    gain = 1.0 if equality else 2.0
    seq = np.fromiter(_recursion(r1, gain * c, L, T), dtype=float, count=T)

    tau = _burn_in(c, L)
    holds, first, _ = _check_log_bound(seq, c, L, tau, T)
    report = RecursionReport(c=c, L=L, r1=r1, horizon=T,
                             equality=bool(equality), tau_star=tau,
                             bound_holds=holds, first_violation_t=first)
    return seq, report


def _recursion(x: float, increment: float, L: float, T: int):
    """r_1 = x and r_{t+1} = r_t + increment exp(-L r_t): T floats, one per
    step, with no array write per step (np.fromiter collects them).  The loop
    runs over repeat, so no int is built per step, and takes two steps per
    pass, plus a trailing one when T - 1 is odd."""
    exp, neg_L = math.exp, -L
    yield x
    for _ in repeat(None, (T - 1) // 2):
        x += increment * exp(neg_L * x)
        yield x
        x += increment * exp(neg_L * x)
        yield x
    if not T & 1:
        x += increment * exp(neg_L * x)
        yield x


def _check_log_bound(seq: np.ndarray, c: float, L: float, tau: float,
                     T: int) -> tuple[bool, int | None, float]:
    """(holds, first violating t, minimum slack) of r_t >= log(c (t-1)) / (2 L)
    over every integer t > tau + 1 up to T.  The minimum is folded block by
    block, and the first violation is looked for only in the first block that
    brings it below zero."""
    if c == 0.0 or tau + 1.0 >= T:
        # c = 0: log 0 = -inf, a vacuous bound; tau + 1 >= T: no t to check
        return True, None, math.inf
    start = math.floor(tau + 1.0) + 1
    # log(c (t-1)) as log c + log(t-1) when c (T-1) is past the float range, where
    # the product's inf would make the slack -inf (a false violation)
    log_c = math.log(c) if c * (T - 1) == math.inf else None
    first, low = None, math.inf
    for i, j in _blocks(start, T + 1):
        t_1 = np.arange(i - 1.0, j - 1.0)  # t - 1, exact integers as floats
        slack = seq[i - 1:j - 1] - (np.log(c * t_1) if log_c is None
                                    else log_c + np.log(t_1)) / (2.0 * L)
        # fmin skips NaN slack, and the running minimum starts at inf; it stays
        # >= 0 until the block that holds the first violation
        low = np.fmin.reduce(slack, initial=low)
        if first is None and low < 0.0:
            first = i + int(np.flatnonzero(slack < 0.0)[0])
    return first is None, first, float(low)


def log_rate_check(loss: SelfTrainingLoss, a1: float, b1: float, eta: float,
                     mu_norm: float, T: int) -> LogRateReport:
    """Noiseless population run of a tail-bounded loss against the explicit
    logarithmic lower bound on the ratio r_t = a_t / b1.

    The orthogonal size is frozen at b1 when sigma = 0, so the ratio obeys
    r_{t+1} >= r_t + c exp(-(L b1) r_t) with c = eta ||mu||^2 / b1, and the
    recursion bound applies with that constant and exponent, burn-in
    included (see recursion_bound_run).  Reports the minimum slack
    (lhs - rhs) over the checked range.
    """
    if loss.club is None:
        raise ValueError(f"{loss.name} carries no tail-bound parameters")
    b1 = check_positive("b1", b1)
    a1 = check_non_negative("a1", a1)
    if a1 < loss.club.a_min:
        raise ValueError(
            f"a1 = {a1} is below the admissible threshold a_min = {loss.club.a_min}"
        )
    eta = check_positive("eta", eta)
    mu_norm = check_positive("mu_norm", mu_norm)
    T = check_count("T", T, 1)
    c = eta * (mu_norm * mu_norm) / b1  # mu_norm**2 would raise on overflow
    exponent = loss.club.L * b1
    check_positive(f"c = eta * mu_norm**2 / b1 = {c}", c)
    check_positive(f"exponent = L * b1 = {exponent} (L = {loss.club.L})", exponent)

    model = GaussianModel(mu=np.array([mu_norm, 0.0]), sigma=0.0)
    a, b, a_seq = a1, b1, [a1]
    for _ in repeat(None, T - 1):  # looked up per call, so a rebinding (a tracer's) sees every step
        a, b, _moved = dynamics.population_step(a, b, loss, model, eta)
        a_seq.append(a)
    r_seq = np.array(a_seq) / b1
    tau = _burn_in(c, exponent)
    holds, first, min_slack = _check_log_bound(r_seq, c, exponent, tau, T)
    return LogRateReport(rule=loss.rule.value, family=loss.family.value,
                       L=loss.club.L, a_min=loss.club.a_min, a1=a1,
                       b1=b1, eta=eta, mu_norm=mu_norm, horizon=T, c=c,
                       exponent=exponent, tau_star=tau, bound_holds=holds,
                       first_violation_t=first, min_slack=min_slack)


def stein_identity_check(loss: SelfTrainingLoss, m: float, s: float, n: int,
                         seed: int = 0) -> SteinReport:
    """Monte Carlo check of E[Z psi'(m + s Z)] = s E[psi''(m + s Z)], Z ~ N(0,1).

    Passes when the two estimates agree within three combined standard
    errors.  Hard-label losses are rejected: their psi'' has a point mass the
    right-hand side cannot see.
    """
    if not loss.smooth_second_derivative:
        raise UnsupportedLossError(
            f"unsupported: distributional psi'' ({loss.name} cannot be checked)"
        )
    m = check_finite("m", m)
    s = check_positive("s", s)
    n = check_count("n", n, 2)
    rng = np.random.default_rng(np.random.SeedSequence(check_count("seed", seed, 0)))
    z = rng.standard_normal(n)
    u = m + s * z
    lhs_samples = z * np.asarray(loss.dpsi(u), dtype=float)
    rhs_samples = s * np.asarray(loss.ddpsi(u), dtype=float)
    lhs = float(np.mean(lhs_samples))
    rhs = float(np.mean(rhs_samples))
    se_lhs = float(np.std(lhs_samples, ddof=1)) / math.sqrt(n)
    se_rhs = float(np.std(rhs_samples, ddof=1)) / math.sqrt(n)
    passed = abs(lhs - rhs) <= 3.0 * (se_lhs + se_rhs)
    return SteinReport(rule=loss.rule.value, family=loss.family.value,
                       m=float(m), s=s, n=n, lhs=lhs, rhs=rhs,
                       stderr_lhs=se_lhs, stderr_rhs=se_rhs, passed=passed)


# --- report serialization -------------------------------------------------------


def record_text(report) -> str:
    """One structured text record: `key = value` lines in field order."""
    lines = []
    for f in dataclasses.fields(report):
        value = getattr(report, f.name)
        if isinstance(value, np.ndarray):
            continue
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
