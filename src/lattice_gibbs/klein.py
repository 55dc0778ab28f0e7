"""Klein's randomized nearest-plane sampler, its exact output pmf, and the
block step every sampler in the package is built from.

One pass works on an upper-triangular factor U with positive diagonal and
centers c (B = QR gives U = R and c = Q^T c). Coordinates are drawn backward
(i = m..1), each from a 1-D discrete Gaussian with step size
alpha_i = sigma / u_ii and center equal to the nearest-plane residual

    x~_i = (c_i - sum_{j>i} u_ij x_j) / u_ii.

`block_conditional` gives U and c for a block of coordinates given the rest:
Gibbs is a 1-coordinate block, Gibbs-Klein an m-coordinate one, Klein all n.
The same recursion evaluated instead of sampled gives the exact probability
that the pass outputs a given x, which is what the enumeration oracle
compares against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dgauss1d as dg
from .dgauss1d import Gaussian1DParams
from .linalg import LatticeBasis, SingularBasisError, gram_schmidt_norms


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


def block_conditional(
    gram: "list[list[float]]",
    bc: "list[float]",
    x,
    block: "list[int]",
    rest: "list[int]",
) -> tuple[list[list[float]], list[float]]:
    """Triangular factor and centers of Klein's pass over `block`, given x[rest].

    With G = B^T B, U = chol(G[S,S]) upper (U^T U = G[S,S]) is the leading
    block of the sign-fixed R of B[:, S + R], and
    c = U^-T (B^T c[S] - G[S,R] x[R]) is the matching block of Q^T c minus
    the pull of the fixed coordinates. Costs O(m^3 + m (n - m)) scalar work.
    Rounding error relative to that QR grows like eps * cond(B_S)^2.
    """
    m = len(block)
    u: list[list[float]] = []
    c: list[float] = []
    for i, b in enumerate(block):
        gb = gram[b]
        acc = bc[b]
        for j in rest:
            acc -= gb[j] * x[j]
        row = [gb[j] for j in block]
        for p in range(i):
            up = u[p]
            f = up[i]
            for j in range(i, m):
                row[j] -= f * up[j]
            acc -= f * c[p]
        if not row[i] > 0.0:
            raise SingularBasisError(
                f"block {block} is singular in floating point: Cholesky pivot {row[i]:.3e}"
            )
        rii = math.sqrt(row[i])
        u.append([0.0] * i + [rii] + [v / rii for v in row[i + 1 :]])
        c.append(acc / rii)
    return u, c


def backward_sample_into(
    u: "list[list[float]]",
    c: "list[float]",
    sigma: float,
    z: list,
    rng: np.random.Generator,
    draw,
) -> None:
    """Fill z[m-1], ..., z[0] by backward nearest-plane sampling in place.

    `u` is upper triangular with positive diagonal and `c` holds its m
    centers, both as from `block_conditional`. `draw(alpha, center, rng)`
    is the 1-D draw: `dgauss1d.sample` over Z, or a restricted alphabet.
    """
    for i in range(len(c) - 1, -1, -1):
        row = u[i]
        acc = c[i]
        for j in range(i + 1, len(c)):
            acc -= row[j] * z[j]
        rii = row[i]
        z[i] = draw(sigma / rii, acc / rii, rng)


def backward_pmf(
    r: np.ndarray,
    c_prime: np.ndarray,
    sigma: float,
    z: np.ndarray,
    m: int,
) -> float:
    """Probability that backward sampling of z[:m] outputs exactly z[:m]."""
    z = np.asarray(z, dtype=float)
    prob = 1.0
    for i in range(m - 1, -1, -1):
        rii = r[i, i]
        center = (c_prime[i] - r[i, i + 1 :] @ z[i + 1 :]) / rii
        prob *= dg.pmf(Gaussian1DParams(sigma / abs(rii), center), int(round(z[i])))
    return prob


def backward_pmf_many(
    r: np.ndarray,
    c_prime: np.ndarray,
    sigma: float,
    zs: np.ndarray,
    m: int,
) -> np.ndarray:
    """Vectorized `backward_pmf` over the rows of zs."""
    zs = np.asarray(zs, dtype=float)
    probs = np.ones(zs.shape[0])
    for i in range(m - 1, -1, -1):
        rii = r[i, i]
        centers = (c_prime[i] - zs[:, i + 1 :] @ r[i, i + 1 :]) / rii
        probs *= dg.pmf_rows(sigma / abs(rii), centers, zs[:, i])
    return probs


def klein_sample(s: KleinSampler, rng: np.random.Generator) -> np.ndarray:
    """One full pass: integer coefficient vector x (lattice point is B @ x)."""
    c_prime = (s.basis.q_factor.T @ s.params.center).tolist()
    z = [0] * s.basis.n
    backward_sample_into(s.basis.r_factor.tolist(), c_prime, s.params.sigma, z, rng, dg.sample)
    return np.array(z, dtype=np.int64)


def klein_sample_many(s: KleinSampler, n_draws: int, rng: np.random.Generator) -> np.ndarray:
    """n_draws independent passes, vectorized coordinate by coordinate."""
    r = s.basis.r_factor
    c_prime = s.basis.q_factor.T @ s.params.center
    xs = np.zeros((n_draws, s.basis.n))
    for i in range(s.basis.n - 1, -1, -1):
        rii = r[i, i]
        centers = (c_prime[i] - xs[:, i + 1 :] @ r[i, i + 1 :]) / rii
        xs[:, i] = dg.sample_rows(s.params.sigma / abs(rii), centers, rng)
    return xs.astype(np.int64)


def klein_pmf(s: KleinSampler, x: np.ndarray) -> float:
    """Exact probability that `klein_sample` outputs x."""
    c_prime = s.basis.q_factor.T @ s.params.center
    return backward_pmf(s.basis.r_factor, c_prime, s.params.sigma, x, s.basis.n)


def klein_pmf_many(s: KleinSampler, xs: np.ndarray) -> np.ndarray:
    c_prime = s.basis.q_factor.T @ s.params.center
    return backward_pmf_many(s.basis.r_factor, c_prime, s.params.sigma, xs, s.basis.n)


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
