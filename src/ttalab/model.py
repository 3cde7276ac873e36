"""Two-class Gaussian test domain and the metrics used to judge a linear predictor.

Data model: a sample is x = y (mu + sigma xi) with label y uniform on {-1, +1}
and xi a standard normal vector, i.e. x ~ N(y mu, sigma^2 I_d).  A linear
predictor w classifies by sign(w^T x); its expected 0-1 loss has the closed
form Phi(mu^T w / (sigma ||w||)) where Phi is the standard normal upper tail.

Everything downstream reasons about w through its decomposition into the
component a = <w, mu> along mu and the size b of the orthogonal remainder.
split_ab computes (a, b) for a predictor or a stack; ab_metrics is the one
place that turns (a, b) into the ratio r, the cosine and the 0-1 loss,
elementwise over arrays.  decompose, zero_one_loss and both runners use both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GaussianModel",
    "PredictorDecomposition",
    "sample_batch",
    "derive_stream_seed",
    "gauss_upper_tail",
    "zero_one_loss",
    "decompose",
    "is_epsilon_optimal",
]


@dataclass(frozen=True, eq=False)
class GaussianModel:
    """Test-domain distribution x ~ N(y mu, sigma^2 I_d), y uniform on {-1,+1}.

    mu must be a nonzero vector; sigma >= 0 (sigma = 0 is the noiseless
    domain where x = y mu exactly).  Instances are immutable.
    """

    mu: np.ndarray
    sigma: float
    d: int = field(init=False)
    mu_norm: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        mu = np.array(self.mu, dtype=float, copy=True).reshape(-1)
        if mu.size < 1:
            raise ValueError("mu must have dimension >= 1")
        if not np.all(np.isfinite(mu)):
            raise ValueError("mu must be finite")
        norm = float(np.linalg.norm(mu))
        if norm == 0.0:
            raise ValueError("mu must be a nonzero vector")
        sigma = float(self.sigma)
        if not math.isfinite(sigma) or sigma < 0.0:
            raise ValueError("sigma must be finite and non-negative")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "d", int(mu.size))
        object.__setattr__(self, "mu_norm", norm)


@dataclass(frozen=True)
class PredictorDecomposition:
    """Split of a predictor w relative to the class mean mu.

    a     = <w, mu>                  (component along mu, scaled by ||mu||)
    a_bar = <w, mu/||mu||>           (so a = a_bar * ||mu||)
    b     = || w - proj_mu(w) ||     (size of the orthogonal component)
    r     = a / b                    (signed infinity when b = 0)
    cos   = <w, mu> / (||w|| ||mu||)
    """

    a: float
    a_bar: float
    b: float
    r: float
    cos: float


def sample_batch(model: GaussianModel, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n i.i.d. samples x = y (mu + sigma xi) as the rows of an (n, d) array.

    Labels are drawn first, then the n x d noise block, so a given generator
    state always yields the same batch.  The labels are not returned:
    adaptation only ever reads x.
    """
    n = check_count("n", n, 1)
    y = rng.integers(0, 2, size=n) * 2 - 1
    xi = rng.standard_normal((n, model.d))
    return y[:, None] * (model.mu[None, :] + model.sigma * xi)


def derive_stream_seed(root_seed: int, index: int) -> int:
    """Child seed for stream `index` of a root seed.

    Streams are independent PCG64 seed-sequence children, so concurrent runs
    (grid points, repeat seeds) never share a stream.
    """
    ss = np.random.SeedSequence((int(root_seed), int(index)))
    return int(ss.generate_state(1, np.uint64)[0])


def gauss_upper_tail(u: float) -> float:
    """Standard normal upper-tail probability P(Z >= u), via erfc."""
    u = float(u)
    if not math.isfinite(u):
        raise ValueError("u must be finite")
    return 0.5 * math.erfc(u / math.sqrt(2.0))


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
        loss01[ok] = [gauss_upper_tail(u) for u in (model.mu_norm / model.sigma) * cos[ok]]
    return r, cos, loss01


def zero_one_loss(model: GaussianModel, w: np.ndarray) -> float:
    """Expected misclassification probability of sign(w^T x) under the model.

    For sigma > 0 this is Phi(mu^T w / (sigma ||w||)); for sigma = 0 it is 0,
    1 or 1/2 by the sign of mu^T w (P(y w^T x < 0) at x = y mu).  See
    ab_metrics.
    """
    a, b = split_ab(check_predictor(w, model), model)
    return float(ab_metrics(a, b, model)[2])


def decompose(w: np.ndarray, model: GaussianModel) -> PredictorDecomposition:
    """Decompose w into its along-mu and orthogonal parts (split_ab, ab_metrics)."""
    a, b = split_ab(check_predictor(w, model), model)
    r, cos, _ = ab_metrics(a, b, model)
    return PredictorDecomposition(a=a, a_bar=a / model.mu_norm, b=b, r=float(r),
                                  cos=float(cos))


def is_epsilon_optimal(w: np.ndarray, model: GaussianModel, eps: float) -> bool:
    """Positive correlation with mu and squared cosine alignment >= 1 - eps.

    Both conditions are required; a mirror-image predictor with near-perfect
    |cos| still fails.
    """
    eps = float(eps)
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    dec = decompose(w, model)
    return dec.a > 0.0 and dec.cos**2 >= 1.0 - eps


def check_predictor(w, model: GaussianModel) -> np.ndarray:
    """w as a new flat float array, once it is a finite nonzero vector of
    length model.d; each message starts with "w "."""
    w = np.array(w, dtype=float).reshape(-1)
    if w.size != model.d:
        raise ValueError(f"w has length {w.size} but the model dimension is {model.d}")
    if not np.all(np.isfinite(w)):
        raise ValueError("w must be finite")
    if float(np.linalg.norm(w)) == 0.0:
        raise ValueError("w must be a nonzero vector")
    return w


# The numeric input rules: each returns the value coerced, or raises a
# ValueError whose message starts with the field name.


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


def check_count(name: str, n, low: int) -> int:
    """n as an int, once it is a whole number >= low (NaN, inf and 2.5 are not)."""
    if not (low <= n < math.inf and n % 1 == 0):
        raise ValueError(f"{name} must be a non-negative integer" if low == 0
                         else f"{name} must be >= {low}")
    return int(n)
