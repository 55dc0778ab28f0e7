"""Klein's randomized nearest-plane sampler and its exact output pmf.

One pass works on the QR factors: with B = QR and c' = Q^T c, coordinates are
drawn backward (i = n..1), each from a 1-D discrete Gaussian with step size
alpha_i = sigma / r_ii and center equal to the nearest-plane residual

    x~_i = (c'_i - sum_{j>i} r_ij x_j) / r_ii.

The same backward recursion evaluated instead of sampled gives the exact
probability that the pass outputs a given x, which is what the enumeration
oracle compares against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dgauss1d as dg
from .dgauss1d import DEFAULT_TAIL_EPS, Gaussian1DParams
from .linalg import LatticeBasis, gram_schmidt_norms


@dataclass(frozen=True)
class GaussianParams:
    """Target parameters (sigma, center) of a lattice Gaussian."""

    sigma: float
    center: np.ndarray

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        c = np.array(self.center, dtype=float)
        if not np.isfinite(c).all():
            raise ValueError(f"center must be finite, got {c}")
        c.setflags(write=False)
        object.__setattr__(self, "center", c)


@dataclass(frozen=True)
class KleinSampler:
    basis: LatticeBasis
    params: GaussianParams

    def __post_init__(self) -> None:
        if self.params.center.shape != (self.basis.n,):
            raise ValueError(
                f"center has shape {self.params.center.shape}, expected ({self.basis.n},)"
            )


def backward_sample_into(
    r: np.ndarray,
    c_prime: np.ndarray,
    sigma: float,
    z: np.ndarray,
    m: int,
    rng: np.random.Generator,
    tail_eps: float = DEFAULT_TAIL_EPS,
    allowed: "np.ndarray | None" = None,
) -> None:
    """Fill z[m-1], ..., z[0] by backward nearest-plane sampling in place.

    Entries z[m:] are read as fixed conditioning values. `allowed` restricts
    every draw to a finite integer set (renormalized).
    """
    for i in range(m - 1, -1, -1):
        rii = r[i, i]
        center = (c_prime[i] - r[i, i + 1 :] @ z[i + 1 :]) / rii
        p = Gaussian1DParams(sigma / abs(rii), center)
        if allowed is None:
            z[i] = dg.sample(p, rng, tail_eps)
        else:
            z[i] = dg.sample_restricted(p, allowed, rng)


def backward_pmf(
    r: np.ndarray,
    c_prime: np.ndarray,
    sigma: float,
    z: np.ndarray,
    m: int,
    tail_eps: float = DEFAULT_TAIL_EPS,
) -> float:
    """Probability that backward sampling of z[:m] outputs exactly z[:m]."""
    z = np.asarray(z, dtype=float)
    prob = 1.0
    for i in range(m - 1, -1, -1):
        rii = r[i, i]
        center = (c_prime[i] - r[i, i + 1 :] @ z[i + 1 :]) / rii
        prob *= dg.pmf(Gaussian1DParams(sigma / abs(rii), center), int(round(z[i])), tail_eps)
    return prob


def backward_pmf_many(
    r: np.ndarray,
    c_prime: np.ndarray,
    sigma: float,
    zs: np.ndarray,
    m: int,
    tail_eps: float = DEFAULT_TAIL_EPS,
) -> np.ndarray:
    """Vectorized `backward_pmf` over the rows of zs."""
    zs = np.asarray(zs, dtype=float)
    probs = np.ones(zs.shape[0])
    for i in range(m - 1, -1, -1):
        rii = r[i, i]
        centers = (c_prime[i] - zs[:, i + 1 :] @ r[i, i + 1 :]) / rii
        probs *= dg.pmf_rows(sigma / abs(rii), centers, zs[:, i], tail_eps)
    return probs


def klein_sample(
    s: KleinSampler, rng: np.random.Generator, tail_eps: float = DEFAULT_TAIL_EPS
) -> np.ndarray:
    """One full pass: integer coefficient vector x (lattice point is B @ x)."""
    c_prime = s.basis.q_factor.T @ s.params.center
    z = np.zeros(s.basis.n)
    backward_sample_into(s.basis.r_factor, c_prime, s.params.sigma, z, s.basis.n, rng, tail_eps)
    return z.astype(np.int64)


def klein_sample_many(
    s: KleinSampler, n_draws: int, rng: np.random.Generator, tail_eps: float = DEFAULT_TAIL_EPS
) -> np.ndarray:
    """n_draws independent passes, vectorized coordinate by coordinate."""
    r = s.basis.r_factor
    c_prime = s.basis.q_factor.T @ s.params.center
    xs = np.zeros((n_draws, s.basis.n))
    for i in range(s.basis.n - 1, -1, -1):
        rii = r[i, i]
        centers = (c_prime[i] - xs[:, i + 1 :] @ r[i, i + 1 :]) / rii
        xs[:, i] = dg.sample_rows(s.params.sigma / abs(rii), centers, rng, tail_eps)
    return xs.astype(np.int64)


def klein_pmf(s: KleinSampler, x: np.ndarray, tail_eps: float = DEFAULT_TAIL_EPS) -> float:
    """Exact probability that `klein_sample` outputs x."""
    c_prime = s.basis.q_factor.T @ s.params.center
    return backward_pmf(s.basis.r_factor, c_prime, s.params.sigma, x, s.basis.n, tail_eps)


def klein_pmf_many(
    s: KleinSampler, xs: np.ndarray, tail_eps: float = DEFAULT_TAIL_EPS
) -> np.ndarray:
    c_prime = s.basis.q_factor.T @ s.params.center
    return backward_pmf_many(s.basis.r_factor, c_prime, s.params.sigma, xs, s.basis.n, tail_eps)


def klein_sigma_default(basis: LatticeBasis) -> float:
    """min_i ||b^_i|| / sqrt(log n), natural log — the classic decoding choice."""
    if basis.n < 2:
        raise ValueError("sigma default needs n >= 2 (log n must be positive)")
    return float(gram_schmidt_norms(basis).min() / math.sqrt(math.log(basis.n)))


def smoothing_threshold(basis: LatticeBasis, omega_factor: float = 1.0) -> float:
    """omega_factor * sqrt(log n) * max_i ||b^_i||.

    Concrete stand-in for the asymptotic smoothing condition on sigma; above
    it a single Klein pass is statistically close to the target.
    """
    if basis.n < 2:
        raise ValueError("smoothing threshold needs n >= 2")
    if omega_factor <= 0.0:
        raise ValueError("omega_factor must be positive")
    return float(omega_factor * math.sqrt(math.log(basis.n)) * gram_schmidt_norms(basis).max())
