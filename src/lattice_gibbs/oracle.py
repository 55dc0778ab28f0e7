"""Exact ground truth on small lattices: enumeration, TV distance, balance checks.

Everything here is brute force by design. The enumeration box comes from the
coefficient-space picture: x - B^-1 c = B^-1 (Bx - c), so a lattice point
within distance R of the center has |x_i - (B^-1 c)_i| <= ||row_i(B^-1)|| R.
Choosing R = sigma (sqrt(2 ln(4/eps)) + sqrt(n)) makes the mass beyond the box
negligible relative to eps, which the self-consistency tests confirm.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import dgauss1d as dg
from .dgauss1d import TAIL_EPS, Gaussian1DParams
from .klein import GaussianParams
from .linalg import LatticeBasis, permute_basis

MAX_ENUM_DIM = 6
MAX_BLOCK_DIM = 4
MAX_BOX_POINTS = 2_000_000  # about 0.5 GB of box rows, logits and tuples


def _key(point) -> "int | tuple[int, ...]":
    if np.isscalar(point) or isinstance(point, (int, np.integer)):
        return int(point)
    return tuple(int(v) for v in point)


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite support -> probability map with an omitted-mass certificate."""

    support: tuple
    probs: np.ndarray
    omitted_mass_bound: float

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        if len(self.support) != probs.shape[0]:
            raise ValueError("support and probs length mismatch")

    def as_dict(self) -> dict:
        return dict(zip(self.support, self.probs))

    def prob(self, point) -> float:
        try:
            idx = self.support.index(_key(point))
        except ValueError:
            return 0.0
        return float(self.probs[idx])

    def mode(self):
        return self.support[int(np.argmax(self.probs))]


@dataclass(frozen=True)
class BalanceReport:
    max_abs_residual: float
    max_rel_residual: float
    pairs_checked: int


def from_weights(support: Iterable, weights: np.ndarray, omitted_mass_bound: float = 0.0):
    w = np.asarray(weights, dtype=float)
    return DiscreteDistribution(tuple(_key(p) for p in support), w / w.sum(), omitted_mass_bound)


def enumeration_box(
    basis: LatticeBasis, target: GaussianParams, tail_eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate integer bounds (lo, hi) covering all but ~tail_eps mass."""
    b_inv = np.linalg.inv(basis.matrix)
    center_coeff = b_inv @ target.center
    radius = target.sigma * (math.sqrt(2.0 * math.log(4.0 / tail_eps)) + math.sqrt(basis.n))
    halfwidth = np.linalg.norm(b_inv, axis=1) * radius + 1.0
    lo = np.floor(center_coeff - halfwidth).astype(np.int64)
    hi = np.ceil(center_coeff + halfwidth).astype(np.int64)
    return lo, hi


def enumerate_support(
    basis: LatticeBasis, target: GaussianParams, tail_eps: float = TAIL_EPS
) -> DiscreteDistribution:
    """Exact target distribution, normalized over the enumeration box.

    Raises ValueError, before allocating anything, when the box holds more
    than MAX_BOX_POINTS points.
    """
    if basis.n > MAX_ENUM_DIM:
        raise ValueError(f"enumeration limited to n <= {MAX_ENUM_DIM}, got n = {basis.n}")
    if not (0.0 < tail_eps < 1.0):
        raise ValueError(f"tail_eps must lie in (0, 1), got {tail_eps}")
    lo, hi = enumeration_box(basis, target, tail_eps)
    count = math.prod(int(h) - int(l) + 1 for l, h in zip(lo, hi))
    if count > MAX_BOX_POINTS:
        raise ValueError(
            f"enumeration box has {count} points, more than the {MAX_BOX_POINTS} allowed"
        )
    axes = [np.arange(l, h + 1) for l, h in zip(lo, hi)]
    grid = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.ravel() for g in grid], axis=1)
    resid = points @ basis.matrix.T - target.center
    logw = -np.einsum("ij,ij->i", resid, resid) / (2.0 * target.sigma**2)
    w = np.exp(logw - logw.max())
    return DiscreteDistribution(tuple(map(tuple, points.tolist())), w / w.sum(), tail_eps)


def tv_distance(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Half the L1 distance over the union support (missing entries are 0)."""
    dp, dq = p.as_dict(), q.as_dict()
    return 0.5 * sum(abs(dp.get(s, 0.0) - dq.get(s, 0.0)) for s in dp.keys() | dq.keys())


def empirical_from_states(states: np.ndarray) -> DiscreteDistribution:
    """Frequency distribution of an (N, n) array of integer state rows."""
    uniq, counts = np.unique(np.asarray(states, dtype=np.int64), axis=0, return_counts=True)
    return from_weights([tuple(int(v) for v in row) for row in uniq], counts.astype(float))


def detailed_balance_residual(
    kernel_prob: Callable,
    target: DiscreteDistribution,
    pair_set: Sequence[tuple],
) -> BalanceReport:
    """Worst-case |D(s_i)P(s_i;s_j) - D(s_j)P(s_j;s_i)| over the given pairs."""
    max_abs = 0.0
    max_rel = 0.0
    for s_i, s_j in pair_set:
        flow_ij = target.prob(s_i) * kernel_prob(s_i, s_j)
        flow_ji = target.prob(s_j) * kernel_prob(s_j, s_i)
        residual = abs(flow_ij - flow_ji)
        max_abs = max(max_abs, residual)
        scale = max(flow_ij, flow_ji)
        if scale > 0.0:
            max_rel = max(max_rel, residual / scale)
    return BalanceReport(max_abs, max_rel, len(pair_set))


def block_conditional_exact(
    basis: LatticeBasis,
    target: GaussianParams,
    order,
    m: int,
    z_rest: np.ndarray,
    tail_eps: float = TAIL_EPS,
) -> DiscreteDistribution:
    """Exact conditional of coordinates order[:m] given order[m:] = z_rest.

    With B[:, order] = QR the residual splits row-wise, so conditioning on
    z_rest leaves exp(-||r_bar z_block - c_bar||^2 / 2 sigma^2) over the
    leading m x m block r_bar with shifted center
    c_bar_i = c'_i - sum_{j>m} r_ij z_rest_j.
    """
    if m > MAX_BLOCK_DIM:
        raise ValueError(f"block enumeration limited to m <= {MAX_BLOCK_DIM}, got {m}")
    if not 1 <= m <= basis.n:
        raise ValueError(f"block size {m} out of range for n = {basis.n}")
    z_rest = np.asarray(z_rest, dtype=float)
    if z_rest.shape != (basis.n - m,):
        raise ValueError(f"z_rest must have shape ({basis.n - m},)")
    permuted = permute_basis(basis, order)
    r = permuted.r_factor
    c_prime = permuted.q_factor.T @ target.center
    c_bar = c_prime[:m] - r[:m, m:] @ z_rest
    sub_basis = LatticeBasis.from_matrix(r[:m, :m])
    return enumerate_support(sub_basis, GaussianParams(target.sigma, c_bar), tail_eps)


def single_flip_pairs(
    dist: DiscreteDistribution, max_pairs: "int | None" = None
) -> list[tuple[tuple, tuple]]:
    """State pairs from the support differing in exactly one coordinate.

    Ordered by joint probability (descending) so a capped prefix covers the
    most relevant transitions first.
    """
    pts = [p if isinstance(p, tuple) else (p,) for p in dist.support]
    weight = dict(zip(pts, dist.probs))
    groups: dict[tuple, list[tuple]] = {}
    for p in pts:
        for i in range(len(p)):
            groups.setdefault((i, p[:i], p[i + 1 :]), []).append(p)
    pairs = [
        (weight[p] * weight[q], p, q)
        for members in groups.values()
        for p, q in itertools.combinations(sorted(members), 2)
    ]
    key = lambda t: (-t[0], t[1], t[2])  # noqa: E731
    top = sorted(pairs, key=key) if max_pairs is None else heapq.nsmallest(max_pairs, pairs, key)
    return [(p, q) for _, p, q in top]


def _log_theta(r: float, sigma: float, shift: float) -> float:
    """log of rho_sigma(r Z + shift) = log sum_k exp(-(r k + shift)^2 / 2 sigma^2),
    summed over a window that omits less than 1e-16 of the mass."""
    p = Gaussian1DParams(sigma / abs(r), -shift / r)
    w = dg.truncation_halfwidth(p.alpha, 1e-16)
    ks = np.arange(math.floor(p.center - w), math.ceil(p.center + w) + 1)
    logw = -((ks - p.center) ** 2) / (2.0 * p.alpha * p.alpha)
    m = logw.max()
    return float(m + np.log(np.exp(logw - m).sum()))


def smoothing_ratio_window(
    r_norms: np.ndarray, sigma: float, xi_samples: np.ndarray
) -> tuple[float, float]:
    """Observed (min, max) of prod_i rho(r_i Z + xi_i) / prod_i rho(r_i Z).

    Direct theta-sum evaluation of the shifted-to-centered ratio whose
    closeness to 1 is what makes the block sampler's pmf match the exact
    conditional. Each row of xi_samples is one vector of shifts.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    r_norms = np.asarray(r_norms, dtype=float)
    xi_samples = np.atleast_2d(np.asarray(xi_samples, dtype=float))
    if xi_samples.shape[1] != r_norms.shape[0]:
        raise ValueError("xi sample width must match number of r entries")
    log_centered = sum(_log_theta(r, sigma, 0.0) for r in r_norms)
    ratios = [
        math.exp(sum(_log_theta(r, sigma, xi) for r, xi in zip(r_norms, row)) - log_centered)
        for row in xi_samples
    ]
    return min(ratios), max(ratios)
