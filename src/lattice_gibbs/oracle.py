"""Exact ground truth on small lattices: enumeration, TV distance, balance checks.

Everything here is brute force by design; every law is unique (S, n) int64
rows with their probabilities. The enumeration box comes from the coefficient-
space picture: x - B^-1 c = B^-1 (Bx - c), so a lattice point within distance
R of the center has |x_i - (B^-1 c)_i| <= ||row_i(B^-1)|| R. Choosing
R = sigma (sqrt(2 ln(4/eps)) + sqrt(n)) makes the mass beyond the box
negligible relative to eps, which the self-consistency tests confirm.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import dgauss1d as dg
from .dgauss1d import TAIL_EPS, Gaussian1DParams
from .klein import GaussianParams
from .linalg import LatticeBasis, permute_basis

MAX_ENUM_DIM = 6
MAX_BLOCK_DIM = 4
MAX_BOX_POINTS = 2_000_000  # about 0.5 GB of box rows, logits and index


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each int64 row's bytes as one scalar, equal exactly when the rows are."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


@dataclass(frozen=True)
class DiscreteDistribution:
    """A finite law on Z^n: unique (S, n) int64 rows and their (S,) probabilities.

    The row keys are sorted once, so every lookup is a binary search.
    """

    support: np.ndarray
    probs: np.ndarray
    _keys: np.ndarray = field(init=False, repr=False, compare=False)  # sorted row keys
    _order: np.ndarray = field(init=False, repr=False, compare=False)  # their support rows

    def __post_init__(self) -> None:
        support = np.asarray(self.support, dtype=np.int64)
        probs = np.asarray(self.probs, dtype=float)
        if support.ndim != 2 or support.shape[0] == 0 or probs.shape != support.shape[:1]:
            raise ValueError("support must be a non-empty (S, n) array of rows, one per prob")
        order = np.argsort(_row_keys(support), kind="stable")
        keys = _row_keys(support)[order]
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("support rows must be unique")
        for a in (support, probs):
            a.setflags(write=False)
        vars(self).update(support=support, probs=probs, _keys=keys, _order=order)

    def locate(self, rows) -> np.ndarray:
        """Support index of each row of an (m, n) integer array; -1 for an absent row."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != self.support.shape[1]:
            raise ValueError(f"rows must have width {self.support.shape[1]}, not {rows.shape}")
        keys = _row_keys(rows)
        pos = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        return np.where(self._keys[pos] == keys, self._order[pos], -1)

    def probs_of(self, rows) -> np.ndarray:
        """Probability of each row of an (m, n) integer array; 0.0 off the support."""
        idx = self.locate(rows)
        return np.where(idx >= 0, self.probs[idx], 0.0)

    def prob(self, point) -> float:
        """Probability of one integer row; 0.0 for a row outside the support."""
        return float(self.probs_of(np.reshape(point, (1, -1)))[0])


@dataclass(frozen=True)
class BalanceReport:
    max_abs_residual: float
    max_rel_residual: float
    pairs_checked: int


def enumerate_support(
    basis: LatticeBasis, target: GaussianParams, tail_eps: float = TAIL_EPS
) -> DiscreteDistribution:
    """Exact target distribution over the enumeration box, rows in lexicographic order.

    The box (module docstring, widened by 1) omits mass negligible relative to
    tail_eps. Raises ValueError, before allocating anything, when it holds
    more than MAX_BOX_POINTS points.
    """
    if basis.n > MAX_ENUM_DIM:
        raise ValueError(f"enumeration limited to n <= {MAX_ENUM_DIM}, got n = {basis.n}")
    if not (0.0 < tail_eps < 1.0):
        raise ValueError(f"tail_eps must lie in (0, 1), got {tail_eps}")
    b_inv = np.linalg.inv(basis.matrix)
    center_coeff = b_inv @ target.center
    radius = target.sigma * (math.sqrt(2.0 * math.log(4.0 / tail_eps)) + math.sqrt(basis.n))
    halfwidth = np.linalg.norm(b_inv, axis=1) * radius + 1.0
    lo = np.floor(center_coeff - halfwidth).astype(np.int64)
    hi = np.ceil(center_coeff + halfwidth).astype(np.int64)
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
    return DiscreteDistribution(points, w / w.sum())


def tv_distance(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Half the L1 distance; a row outside one law's support has probability 0 there."""
    idx = q.locate(p.support)
    q_outside_p = np.ones(q.probs.shape, dtype=bool)
    q_outside_p[idx[idx >= 0]] = False
    q_at_p = np.where(idx >= 0, q.probs[idx], 0.0)
    return 0.5 * float(np.abs(p.probs - q_at_p).sum() + q.probs[q_outside_p].sum())


def empirical_from_states(states: np.ndarray) -> DiscreteDistribution:
    """Frequency distribution of an (N, n) array of integer state rows."""
    uniq, counts = np.unique(np.asarray(states, dtype=np.int64), axis=0, return_counts=True)
    return DiscreteDistribution(uniq, counts / counts.sum())


def detailed_balance_residual(
    kernel_prob: Callable,
    target: DiscreteDistribution,
    pair_set: Sequence[tuple],
) -> BalanceReport:
    """Worst-case |D(s_i)P(s_i;s_j) - D(s_j)P(s_j;s_i)| over the given pairs."""
    d = target.probs_of(np.reshape(pair_set, (-1, target.support.shape[1]))).tolist()
    max_abs = max_rel = 0.0
    for (s_i, s_j), p_i, p_j in zip(pair_set, d[0::2], d[1::2]):
        flow_ij = p_i * kernel_prob(s_i, s_j)
        flow_ji = p_j * kernel_prob(s_j, s_i)
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
    pts = list(map(tuple, dist.support.tolist()))
    weight = dict(zip(pts, dist.probs.tolist()))
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
