"""Two-class Gaussian test domain and the metrics used to judge a linear predictor.

Data model: a sample is x = y (mu + sigma xi) with label y uniform on {-1, +1}
and xi a standard normal vector, i.e. x ~ N(y mu, sigma^2 I_d).  A linear
predictor w classifies by sign(w^T x); its expected 0-1 loss has the closed
form Phi(mu^T w / (sigma ||w||)) where Phi is the standard normal upper tail.

Everything downstream reasons about w through its decomposition into the
component a = <w, mu> along mu and the size b of the orthogonal remainder.
split_ab computes (a, b) for a predictor or a stack; ab_metrics is the one
place that turns (a, b) into the ratio r, the cosine and the 0-1 loss,
elementwise over arrays, the loss by one gauss_upper_tail call.
zero_one_loss and both runners use both, and is_epsilon_optimal, the one
eps-optimality rule, reads its cosine from ab_metrics.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GaussianModel",
    "sample_batch",
    "derive_stream_seed",
    "gauss_upper_tail",
    "zero_one_loss",
    "is_epsilon_optimal",
]

# the largest float x whose x**2 is finite (float ** raises OverflowError past it)
_SQUARE_MAX = math.sqrt(sys.float_info.max)


@dataclass(frozen=True, eq=False)
class GaussianModel:
    """Test-domain distribution x ~ N(y mu, sigma^2 I_d), y uniform on {-1,+1}.

    mu must be a nonzero vector; sigma >= 0 (sigma = 0 is the noiseless
    domain where x = y mu exactly); ||mu||**2, sigma**2 and ||mu||/sigma must
    be finite.  Instances are immutable.
    """

    mu: np.ndarray
    sigma: float
    d: int = field(init=False)
    mu_norm: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        mu = np.array(self.mu, dtype=float, copy=True).reshape(-1)
        if mu.size < 1:
            raise ValueError("mu must have dimension >= 1")
        norm = check_vector("mu", mu)
        if not norm <= _SQUARE_MAX:  # inf too: the sum of squares overflowed
            raise ValueError("mu is too large: ||mu||**2 overflows")
        sigma = float(self.sigma)
        if not math.isfinite(sigma) or sigma < 0.0:
            raise ValueError("sigma must be finite and non-negative")
        if sigma > _SQUARE_MAX:
            raise ValueError(f"sigma = {sigma!r} is too large: sigma**2 overflows")
        # 2x headroom: the 0-1 loss scales ||mu||/sigma by a cosine a few ulps past 1
        if sigma > 0.0 and not math.isfinite(2.0 * (norm / sigma)):
            raise ValueError(f"sigma = {sigma!r} is too small for mu: ||mu||/sigma overflows")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "d", int(mu.size))
        object.__setattr__(self, "mu_norm", norm)


def sample_batch(model: GaussianModel, rngs: Sequence[np.random.Generator],
                 n: int) -> np.ndarray:
    """Draw n i.i.d. samples x = y (mu + sigma xi) from each of the S
    generators in rngs, as the (S n, d) rows of one array, generator s in the
    row block [s n, (s + 1) n).

    Each generator draws its n labels first, as n float32 uniforms u with
    y = -1 where u < 0.5, then its n x d noise block into its own rows, so a
    given generator state always yields the same batch, alone or in a
    sequence.  The batch is built in the noise buffer, once over all the rows:
    scaled by sigma, shifted by mu, and negated in the rows whose label is
    y = -1, which is y's product bit for bit (-0.0 included).  The labels are
    not returned: adaptation only ever reads x.
    """
    n = check_count("n", n, 1)
    rngs = check_non_empty("rng list", rngs)
    x = np.empty((len(rngs), n, model.d))
    u = np.empty((len(rngs), n), dtype=np.float32)
    for block, row, gen in zip(x, u, rngs):
        # integers(0, 2) returns the top bit of one 32-bit word (Lemire's
        # method) and a float32 uniform is that word >> 8 over 2**24, so
        # u >= 0.5 is the same label from the same word and stream state
        gen.random(dtype=np.float32, out=row)
        gen.standard_normal(out=block)
    x = x.reshape(-1, model.d)
    x *= model.sigma
    x += model.mu
    return np.negative(x, out=x, where=u.reshape(-1, 1) < 0.5)


def derive_stream_seed(root_seed: int, index: int) -> int:
    """Child seed for stream `index` of a root seed.

    Streams are independent PCG64 seed-sequence children, so concurrent runs
    (grid points, repeat seeds) never share a stream.
    """
    ss = np.random.SeedSequence((int(root_seed), int(index)))
    return int(ss.generate_state(1, np.uint64)[0])


def gauss_upper_tail(u: float | np.ndarray) -> float | np.ndarray:
    """Standard normal upper-tail probability P(Z >= u) of a float, or of each
    element of an array (an array of its shape), by one math.erfc each."""
    x = np.asarray(u, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("u must be finite")
    tail = 0.5 * np.fromiter(map(math.erfc, (x / math.sqrt(2.0)).ravel().tolist()),
                             float, x.size)
    return float(tail[0]) if x.ndim == 0 else tail.reshape(x.shape)


def split_ab(w: np.ndarray, model: GaussianModel):
    """(a, b) of a predictor: a = <w, mu> and b = ||w - (a/||mu||^2) mu||.

    w is one predictor (d,), giving floats, or a stack (..., d), giving arrays
    with each item's bits.  b is set to 0 when it is at rounding scale
    relative to ||w||.  w = 0 gives (0, 0) and a non-finite w a non-finite pair.
    """
    w = np.asarray(w, dtype=float)
    a = _dot(w, model.mu)
    rest = w - (a / model.mu_norm**2)[..., None] * model.mu
    b = np.sqrt(_dot(rest, rest))
    # a residual at rounding scale means w is aligned with mu up to float noise
    b = np.where(b <= 32.0 * np.finfo(float).eps * np.sqrt(_dot(w, w)), 0.0, b)
    return (float(a), float(b)) if w.ndim == 1 else (a, b)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x, y> over the last axis: one BLAS dot per item, as `x @ y` runs."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def ab_metrics(a, b, model: GaussianModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r, cos, loss01) for the predictors with components (a, b), elementwise.

    r = a / b (signed infinity at b = 0); cos = a / (||w|| ||mu||) with
    ||w|| = hypot(a/||mu||, b); loss01 = Phi((||mu||/sigma) cos), the expected
    0-1 loss.  For sigma = 0 the pointwise limit applies: 0 when a > 0, 1 when
    a < 0 and 1/2 on the decision boundary.  All three are NaN for the zero
    predictor a = b = 0, and loss01 is NaN wherever cos is not finite.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(b > 0.0, a / b, np.copysign(np.inf, a))
        cos = a / (np.hypot(a / model.mu_norm, b) * model.mu_norm)
    r[(a == 0.0) & (b == 0.0)] = np.nan
    loss01 = np.full(cos.shape, np.nan)
    ok = np.isfinite(cos)
    if model.sigma == 0.0:
        loss01[ok] = 0.5 - 0.5 * np.sign(a[ok])
    else:
        loss01[ok] = gauss_upper_tail((model.mu_norm / model.sigma) * cos[ok])
    return r, cos, loss01


def zero_one_loss(model: GaussianModel, w: np.ndarray) -> float:
    """Expected misclassification probability of sign(w^T x) under the model.

    For sigma > 0 this is Phi(mu^T w / (sigma ||w||)); for sigma = 0 it is 0,
    1 or 1/2 by the sign of mu^T w (P(y w^T x < 0) at x = y mu).  See
    ab_metrics.
    """
    a, b = split_ab(check_predictor(w, model), model)
    return float(ab_metrics(a, b, model)[2])


def is_epsilon_optimal(a, b, model: GaussianModel, eps: float) -> np.ndarray:
    """The eps-optimality rule for the predictors with components (a, b),
    elementwise: a > 0 and cos**2 >= 1 - eps, with cos from ab_metrics.

    Both conditions are required; a mirror-image predictor with near-perfect
    |cos| still fails.  The zero predictor and non-finite components fail
    too, as their cos is NaN.
    """
    eps = float(eps)
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    cos = ab_metrics(a, b, model)[1]
    return (np.asarray(a) > 0.0) & (cos**2 >= 1.0 - eps)


def check_predictor(w, model: GaussianModel) -> np.ndarray:
    """w as a new flat float array, once it is a finite nonzero vector of
    length model.d; each message starts with "w "."""
    w = np.array(w, dtype=float).reshape(-1)
    if w.size != model.d:
        raise ValueError(f"w has length {w.size} but the model dimension is {model.d}")
    check_vector("w", w)
    return w


# The numeric input rules: each returns the value coerced, or raises a
# ValueError whose message starts with the field name.


def check_vector(name: str, v: np.ndarray) -> float:
    """||v|| of a flat float array, once v is finite and nonzero (the norm is
    inf, without a warning, when the sum of squares overflows)."""
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError(f"{name} must be a nonzero vector")
    return norm


def check_finite(name: str, x) -> float:
    """x as a float, once it is finite."""
    if not -math.inf < x < math.inf:
        raise ValueError(f"{name} must be finite")
    return float(x)


def check_positive(name: str, x) -> float:
    """x as a float, once it is finite and > 0."""
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be positive")
    return float(x)


def check_non_negative(name: str, x) -> float:
    """x as a float, once it is finite and >= 0."""
    if not 0.0 <= x < math.inf:
        raise ValueError(f"{name} must be non-negative")
    return float(x)


def check_non_empty(name: str, values) -> list:
    """values as a list, once it holds at least one item."""
    values = list(values)
    if not values:
        raise ValueError(f"{name} must be non-empty")
    return values


def check_count(name: str, n, low: int) -> int:
    """n as an int, once it is a whole number >= low (NaN, inf and 2.5 are not)."""
    if not (low <= n < math.inf and n % 1 == 0):
        raise ValueError(f"{name} must be a non-negative integer" if low == 0
                         else f"{name} must be >= {low}")
    return int(n)
