"""Klein's randomized nearest-plane sampler, its exact output pmf, and the
block step every sampler in the package is built from.

One pass works on an upper-triangular factor U with positive diagonal and
centers c (over all n coordinates, U = chol(B^T B) is the sign-fixed R of
B = QR and c = U^-T B^T c = Q^T c). Coordinates are drawn backward (i = m..1),
each from a 1-D discrete Gaussian with step size alpha_i = sigma / u_ii and
center equal to the nearest-plane residual

    x~_i = (c_i - sum_{j>i} u_ij x_j) / u_ii.

`block_conditional` gives U and c for a block of coordinates given the rest
(c alone, given U, is `block_centers`): Gibbs is a 1-coordinate block,
Gibbs-Klein an m-coordinate one, Klein all n. `backward_sample_into` is the
one Python pass, each 1-D draw taking a uniform it is handed. The same
recursion evaluated instead of sampled gives the exact probability
that the pass outputs a given x, which is what the enumeration oracle
compares against. Every pass subtracts the terms u_ij x_j one at a time, so a
draw's centers and those its evaluation recomputes agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dgauss1d as dg
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
class GibbsKleinConfig:
    """A sampler's settings; G = B^T B and B^T c are derived once. Gibbs
    ignores block_size, and Klein's block is always all n coordinates."""

    basis: LatticeBasis
    target: GaussianParams
    block_size: int
    gram: list = field(init=False, repr=False, compare=False)
    bc: list = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.block_size <= self.basis.n:
            raise ValueError(
                f"block size must lie in [1, {self.basis.n}], got {self.block_size}"
            )
        if self.target.center.shape != (self.basis.n,):
            raise ValueError("target center dimension does not match basis")
        b = self.basis.matrix
        object.__setattr__(self, "gram", (b.T @ b).tolist())
        object.__setattr__(self, "bc", (b.T @ self.target.center).tolist())


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
    for i, b in enumerate(block):
        gb = gram[b]
        row = [gb[j] for j in block]
        for p in range(i):
            up = u[p]
            f = up[i]
            for j in range(i, m):
                row[j] -= f * up[j]
        if not row[i] > 0.0:
            raise SingularBasisError(
                f"block {block} is singular in floating point: Cholesky pivot {row[i]:.3e}"
            )
        rii = math.sqrt(row[i])
        u.append([0.0] * i + [rii] + [v / rii for v in row[i + 1 :]])
    return u, block_centers(gram, bc, x, block, rest, u)


def block_centers(gram: "list[list[float]]", bc: "list[float]", x, block: "list[int]",
                  rest: "list[int]", u: "list[list[float]]") -> list[float]:
    """`block_conditional`'s centers given its factor u, bit for bit: each
    subtracts its terms one at a time, G[b,j] x[j] in rest's order, then
    u_pi c_p for p < i. Its factor's row form is `block_factor_rows`."""
    c: list[float] = []
    for i, b in enumerate(block):
        gb = gram[b]
        acc = bc[b]
        for j in rest:
            acc -= gb[j] * x[j]
        for p in range(i):
            acc -= u[p][i] * c[p]
        c.append(acc / u[i][i])
    return c


def block_factor_rows(gram: "list[list[float]]", blocks: np.ndarray) -> np.ndarray:
    """The (k, m, m) factors of `block_conditional_rows`, which read no state:
    row r is the factor of block_conditional(gram, bc, x, blocks[r], rest)
    for any x and rest.

    Every row goes through the scalar call's float operations in its order,
    elementwise, and numpy's float64 arithmetic rounds as Python floats do, so
    each row equals the scalar factor bit for bit. The first row with a
    non-positive pivot raises that call's error.
    """
    g = np.asarray(gram)
    k, m = blocks.shape
    gss = g[blocks[:, :, None], blocks[:, None, :]]  # each row's G[S,S]
    u = np.zeros((k, m, m))
    for i in range(m):
        row = gss[:, i]
        for p in range(i):
            row[:, i:] -= u[:, p, i, None] * u[:, p, i:]
        bad = np.nonzero(~(row[:, i] > 0.0))[0]
        if bad.size:
            r = bad[0]
            raise SingularBasisError(
                f"block {blocks[r].tolist()} is singular in floating point: "
                f"Cholesky pivot {row[r, i]:.3e}"
            )
        u[:, i, i] = np.sqrt(row[:, i])
        u[:, i, i + 1 :] = row[:, i + 1 :] / u[:, i, i, None]
    return u


def block_conditional_rows(
    gram: "list[list[float]]",
    bc: "list[float]",
    x: np.ndarray,
    blocks: np.ndarray,
    rests: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Row form of `block_conditional`: the (k, m, m) factors and (k, m)
    centers of the passes over blocks[r] given x[r, rests[r]], for each row r
    of the (k, n) state array x.

    The factors are `block_factor_rows`'; the centers go through the scalar
    call's float operations in its order, elementwise, so row r equals
    block_conditional(gram, bc, x[r], blocks[r], rests[r]) bit for bit.
    """
    u = block_factor_rows(gram, blocks)
    g, bc = np.asarray(gram), np.asarray(bc)
    k, m = blocks.shape
    pull = g[blocks[:, :, None], rests[:, None, :]] * x[np.arange(k)[:, None], rests][:, None, :]
    acc = bc[blocks]
    for j in range(rests.shape[1]):  # the scalar loop's order over rest
        acc = acc - pull[:, :, j]
    c = np.empty((k, m))
    for i in range(m):
        for p in range(i):
            acc[:, i] = acc[:, i] - u[:, p, i] * c[:, p]
        c[:, i] = acc[:, i] / u[:, i, i]
    return u, c


def backward_sample_into(u: "list[list[float]]", c: "list[float]", sigma: float, z: list,
                         us: "list[float]", draw) -> None:
    """Fill z[m-1], ..., z[0] by backward nearest-plane sampling in place.

    `u` is upper triangular with positive diagonal and `c` holds its m
    centers, both as from `block_conditional`. `draw(alpha, center, u)` is
    the 1-D draw on the uniform u, over Z or a restricted alphabet; us holds
    the m uniforms in draw order, so z[i] takes us[m - 1 - i].
    """
    m = len(c)
    for i in range(m - 1, -1, -1):
        row = u[i]
        acc = c[i]
        for j in range(i + 1, m):
            acc -= row[j] * z[j]
        rii = row[i]
        z[i] = draw(sigma / rii, acc / rii, us[m - 1 - i])


def backward_rows(u, c, z: np.ndarray):
    """The backward pass over the k rows of z, (k, w): for i = m-1, ..., 0,
    yield i, u_ii and the centers (c_i - u_i,i+1 z[:, i+1] - ... - u_i,w-1
    z[:, w-1]) / u_ii, subtracting one term at a time as `backward_sample_into`
    does. The caller fills z[:, i] (sampling) or has filled it (evaluating).
    `u` is one (m, w) factor or (k, m, w) per-row ones; `c` is (m,) or (k, m).
    """
    u, c = np.asarray(u, dtype=float), np.asarray(c, dtype=float)
    k, w = z.shape
    for i in range(u.shape[-2] - 1, -1, -1):
        acc = np.broadcast_to(c[..., i], (k,))
        for j in range(i + 1, w):
            acc = acc - u[..., i, j] * z[:, j]
        rii = u[..., i, i]
        yield i, rii, acc / rii


def backward_pmf(r: np.ndarray, c_prime, sigma: float, z, m: int) -> float:
    """Probability that backward sampling of z[:m] outputs exactly z[:m], given
    z[m:]. r is upper triangular with positive diagonal, over all of z."""
    r, c_prime, z = (np.asarray(v, dtype=float).tolist() for v in (r, c_prime, z))
    prob = 1.0
    for i in range(m - 1, -1, -1):
        row = r[i]
        acc = c_prime[i]
        for j in range(i + 1, len(row)):
            acc -= row[j] * z[j]
        rii = row[i]
        prob *= dg.pmf(sigma / rii, acc / rii, int(round(z[i])))
    return prob


def backward_pmf_many(r: np.ndarray, c_prime, sigma: float, zs, m: int) -> np.ndarray:
    """`backward_pmf` over the rows of zs, bit for bit. c_prime holds one
    center per coordinate, for every row, or a (P, w) array of per-row ones."""
    zs = np.asarray(zs, dtype=float)
    probs = np.ones(zs.shape[0])
    for i, rii, centers in backward_rows(np.asarray(r)[:m], np.asarray(c_prime)[..., :m], zs):
        probs *= dg.pmf_table_rows(sigma / rii, centers, zs[:, i])
    return probs


def klein_sample_many(
    cfg: GibbsKleinConfig, n_draws: int, rng: np.random.Generator
) -> np.ndarray:
    """n_draws independent passes as (n_draws, n) int64 coefficient rows (lattice
    points B @ x), vectorized coordinate by coordinate: one `dg.sample_rows`
    call a coordinate. Below smoothing the rows share few partial points, so
    a coordinate's centers repeat, and the call forms each distinct 1-D
    window once."""
    u, c = block_conditional(cfg.gram, cfg.bc, [], range(cfg.basis.n), [])
    xs = np.empty((n_draws, cfg.basis.n), dtype=np.int64)
    for i, uii, centers in backward_rows(u, c, xs):
        xs[:, i] = dg.sample_rows(cfg.target.sigma / uii, centers, rng)
    return xs


def klein_pmf(cfg: GibbsKleinConfig, xs: np.ndarray) -> np.ndarray:
    """Exact probability that a Klein pass outputs each row of xs."""
    u, c = block_conditional(cfg.gram, cfg.bc, [], range(cfg.basis.n), [])
    return backward_pmf_many(np.array(u), c, cfg.target.sigma, xs, cfg.basis.n)


def klein_sigma_default(basis: LatticeBasis) -> float:
    """min_i ||b^_i|| / sqrt(log n), natural log — the classic decoding choice."""
    if basis.n < 2:
        raise ValueError("sigma default needs n >= 2 (log n must be positive)")
    return float(gram_schmidt_norms(basis).min() / math.sqrt(math.log(basis.n)))


def smoothing_threshold(basis: LatticeBasis) -> float:
    """sqrt(log n) * max_i ||b^_i||.

    Concrete stand-in for the asymptotic smoothing condition on sigma; above
    it a single Klein pass is statistically close to the target.
    """
    if basis.n < 2:
        raise ValueError("smoothing threshold needs n >= 2")
    return float(math.sqrt(math.log(basis.n)) * gram_schmidt_norms(basis).max())
