"""Two-class Gaussian test domain and the metrics used to judge a linear predictor.

Data model: a sample is x = y (mu + sigma xi) with label y uniform on {-1, +1}
and xi a standard normal vector, i.e. x ~ N(y mu, sigma^2 I_d).  A linear
predictor w classifies by sign(w^T x); its expected 0-1 loss has the closed
form Phi(mu^T w / (sigma ||w||)) where Phi is the standard normal upper tail.

Everything downstream reasons about w through its decomposition into the
component along mu and the size of the orthogonal remainder.
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
            raise ValueError("sigma must be non-negative")
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
    if n < 1:
        raise ValueError("n must be >= 1")
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


def zero_one_loss(model: GaussianModel, w: np.ndarray) -> float:
    """Expected misclassification probability of sign(w^T x) under the model.

    For sigma > 0 this is Phi(mu^T w / (sigma ||w||)).  For sigma = 0 the
    pointwise limit applies: 0 when mu^T w > 0, 1 when mu^T w < 0, and 1/2 on
    the decision boundary (matches P(y w^T x < 0) evaluated at x = y mu).
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    _check_dim(w, model)
    norm_w = float(np.linalg.norm(w))
    if norm_w == 0.0:
        raise ValueError("w must be a nonzero vector")
    align = float(model.mu @ w)
    if model.sigma == 0.0:
        if align > 0.0:
            return 0.0
        if align < 0.0:
            return 1.0
        return 0.5
    return gauss_upper_tail(align / (model.sigma * norm_w))


def decompose(w: np.ndarray, model: GaussianModel) -> PredictorDecomposition:
    """Decompose w into its along-mu and orthogonal parts.

    Uses the projection (I - mu mu^T/||mu||^2) w, so mu need not be
    axis-aligned.
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    _check_dim(w, model)
    norm_w = float(np.linalg.norm(w))
    if norm_w == 0.0:
        raise ValueError("w must be a nonzero vector")
    a = float(model.mu @ w)
    a_bar = a / model.mu_norm
    residual = w - (a / model.mu_norm**2) * model.mu
    b = float(np.linalg.norm(residual))
    if b <= 32.0 * np.finfo(float).eps * norm_w:
        # residual at rounding scale: w is aligned with mu up to float noise
        b = 0.0
    if b > 0.0:
        r = a / b
    else:
        r = math.copysign(math.inf, a)
    cos = a / (norm_w * model.mu_norm)
    return PredictorDecomposition(a=a, a_bar=a_bar, b=b, r=r, cos=cos)


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


def _check_dim(w: np.ndarray, model: GaussianModel) -> None:
    if w.size != model.d:
        raise ValueError(f"dimension mismatch: len(w)={w.size}, model d={model.d}")
