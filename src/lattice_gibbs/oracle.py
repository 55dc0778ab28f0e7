"""Exact ground truth on small lattices: enumeration, TV distance, balance checks.

Everything here is brute force by design; every law is unique (S, n) int64
rows with their probabilities. The enumeration box comes from the coefficient-
space picture: x - B^-1 c = B^-1 (Bx - c), so a lattice point within distance
R of the center has |x_i - (B^-1 c)_i| <= ||row_i(B^-1)|| R. Choosing
R = sigma (sqrt(2 ln(4/eps)) + sqrt(n)) makes the mass beyond the box
negligible relative to eps, which the self-consistency tests confirm.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import dgauss1d as dg
from .dgauss1d import TAIL_EPS
from .klein import GaussianParams, GibbsKleinConfig, block_conditional
from .linalg import LatticeBasis

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
        bad = ~(np.isfinite(probs) & (probs >= 0.0))
        if bad.any():
            raise ValueError(f"probs must be finite and non-negative, got {probs[bad][0]}")
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
    tail_eps. Raises ValueError, before allocating anything, when 2 sigma^2
    underflows, a bound is not finite or reaches 2**53 or the box holds more
    than MAX_BOX_POINTS points, and after, when no weight is finite.
    """
    if basis.n > MAX_ENUM_DIM:
        raise ValueError(f"enumeration limited to n <= {MAX_ENUM_DIM}, got n = {basis.n}")
    if 2.0 * target.sigma * target.sigma < sys.float_info.min:  # the weights would be NaN
        raise ValueError(f"sigma {target.sigma} is too small: 2 sigma^2 underflows")
    if not (0.0 < tail_eps < 1.0):
        raise ValueError(f"tail_eps must lie in (0, 1), got {tail_eps}")
    b_inv = np.linalg.inv(basis.matrix)
    center_coeff = b_inv @ target.center
    radius = target.sigma * (math.sqrt(2.0 * math.log(4.0 / tail_eps)) + math.sqrt(basis.n))
    halfwidth = np.linalg.norm(b_inv, axis=1) * radius + 1.0
    lo, hi = np.floor(center_coeff - halfwidth), np.ceil(center_coeff + halfwidth)
    if not (np.abs(np.concatenate([lo, hi])) < dg.MAX_CENTER).all():  # NaN compares false
        raise ValueError(f"enumeration box [{lo}, {hi}] must be finite and below 2**53")
    lo, hi = lo.astype(np.int64), hi.astype(np.int64)
    count = math.prod(int(h) - int(l) + 1 for l, h in zip(lo, hi))
    if count > MAX_BOX_POINTS:
        raise ValueError(
            f"enumeration box has {count} points, more than the {MAX_BOX_POINTS} allowed"
        )
    axes = [np.arange(l, h + 1) for l, h in zip(lo, hi)]
    grid = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.ravel() for g in grid], axis=1)
    resid = points @ basis.matrix.T - target.center
    # Where every exponent overflows to -inf the weights are NaN, which
    # DiscreteDistribution rejects with ValueError.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
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


def count_rows(states: np.ndarray, weights=None) -> "tuple[np.ndarray, np.ndarray]":
    """The distinct rows of an (N, n) integer array in lexicographic order,
    and how often each occurs (or, given weights, the sum of its rows'
    weights), as from np.unique(axis=0, return_counts=True), which sorts a
    structured view several times slower than one lexsort of the columns.
    """
    states = np.asarray(states, dtype=np.int64)
    order = np.lexsort(states.T[::-1])  # the last key sorts first
    rows = states[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    if weights is None:
        counts = np.diff(np.append(starts, len(rows)))
    else:
        counts = np.add.reduceat(np.asarray(weights)[order], starts)
    return rows[first], counts


def empirical_from_states(states: np.ndarray) -> DiscreteDistribution:
    """Frequency distribution of an (N, n) array of integer state rows: the
    distinct rows in lexicographic order (`count_rows`) and their shares."""
    rows, counts = count_rows(states)
    return DiscreteDistribution(rows, counts / counts.sum())


def detailed_balance_residual(
    kernel_probs: Callable,
    target: DiscreteDistribution,
    pair_set: "np.ndarray | Sequence[tuple]",
) -> BalanceReport:
    """Worst-case |D(s_i)P(s_i;s_j) - D(s_j)P(s_j;s_i)| over the given row pairs.

    kernel_probs(from_rows, to_rows) gives the one-step probability for each
    row of two (P, n) arrays; it is called once, on both directions stacked.
    """
    n = target.support.shape[1]
    pairs = np.asarray(pair_set, dtype=np.int64).reshape(-1, 2, n)
    d = target.probs_of(pairs.reshape(-1, n))
    stacked = np.concatenate([pairs, pairs[:, ::-1]])
    k = kernel_probs(stacked[:, 0], stacked[:, 1])
    flow_ij = d[0::2] * k[: len(pairs)]
    flow_ji = d[1::2] * k[len(pairs) :]
    residual = np.abs(flow_ij - flow_ji)
    scale = np.maximum(flow_ij, flow_ji)
    rel = np.divide(residual, scale, out=np.zeros_like(scale), where=scale > 0.0)
    return BalanceReport(
        float(residual.max(initial=0.0)), float(rel.max(initial=0.0)), len(pairs)
    )


def block_conditional_exact(
    basis: LatticeBasis,
    target: GaussianParams,
    order,
    m: int,
    z_rest: np.ndarray,
    tail_eps: float = TAIL_EPS,
) -> DiscreteDistribution:
    """Exact conditional of coordinates order[:m] given order[m:] = z_rest.

    Given x[rest], ||Bx - c||^2 is ||U x[block] - c_bar||^2 plus a constant,
    with U and c_bar the block factor and centers from `block_conditional`, so
    the conditional is the lattice Gaussian of the m x m basis U at c_bar.
    """
    if m > MAX_BLOCK_DIM:
        raise ValueError(f"block enumeration limited to m <= {MAX_BLOCK_DIM}, got {m}")
    cfg = GibbsKleinConfig(basis, target, m)  # checks 1 <= m <= n
    order = [int(j) for j in order]
    if sorted(order) != list(range(basis.n)):
        raise ValueError(f"not a permutation of 0..{basis.n - 1}: {order}")
    z_rest = np.asarray(z_rest, dtype=float)
    if z_rest.shape != (basis.n - m,):
        raise ValueError(f"z_rest must have shape ({basis.n - m},)")
    x = np.zeros(basis.n)
    x[order[m:]] = z_rest
    u, c_bar = block_conditional(cfg.gram, cfg.bc, x.tolist(), order[:m], order[m:])
    sub_basis = LatticeBasis.from_matrix(u)
    return enumerate_support(sub_basis, GaussianParams(target.sigma, c_bar), tail_eps)


def _top_pairs(dist: DiscreteDistribution, pairs: np.ndarray, max_pairs: int) -> np.ndarray:
    """The (P, 2) support-index pairs whose joint P(p) P(q) is at or above the
    max_pairs-th largest, ties at the cut included, in their given order."""
    if len(pairs) <= max_pairs:
        return pairs
    joint = dist.probs[pairs[:, 0]] * dist.probs[pairs[:, 1]]
    return pairs[joint >= np.partition(joint, -max_pairs)[-max_pairs]]


def _best_pairs(dist: DiscreteDistribution, pairs: np.ndarray, max_pairs) -> np.ndarray:
    """(P, 2) support-index pairs sorted by (-P(p) P(q), p, q), cut to max_pairs."""
    if max_pairs is not None:
        pairs = _top_pairs(dist, pairs, max_pairs)
    joint = dist.probs[pairs[:, 0]] * dist.probs[pairs[:, 1]]
    rows = dist.support[pairs]
    return pairs[np.lexsort([*rows[:, 1, ::-1].T, *rows[:, 0, ::-1].T, -joint])[:max_pairs]]


def _keep_top(dist: DiscreteDistribution, pairs: np.ndarray, max_pairs: int) -> np.ndarray:
    """The pairs that can still be among the top max_pairs: `_top_pairs`,
    unsorted, or the sorted top max_pairs when ties keep more than twice that."""
    kept = _top_pairs(dist, pairs, max_pairs)
    return kept if len(kept) <= 2 * max_pairs else _best_pairs(dist, kept, max_pairs)


def _flip_pairs(dist: DiscreteDistribution, rows: np.ndarray, max_pairs) -> np.ndarray:
    """(P, 2) support-index pairs (p, q), p < q, of the support rows `rows`
    that differ in one coordinate; with a cap, only a running `_keep_top`.

    For each coordinate i the rows are sorted by (the other coordinates, x_i),
    so each row's partners are the rows 1, 2, ... places after it with the
    same other coordinates.
    """
    pts = dist.support[rows]
    found = [np.empty((0, 2), dtype=np.intp)]
    for i in range(pts.shape[1]):
        others = np.delete(pts, i, axis=1)
        order = np.lexsort([pts[:, i], *others[:, ::-1].T])
        others = others[order]
        group = np.concatenate([[0], np.any(others[1:] != others[:-1], axis=1).cumsum()])
        order = rows[order]
        for s in range(1, len(order)):
            hit = np.nonzero(group[s:] == group[:-s])[0]
            if hit.size == 0:  # every group is shorter than s + 1 rows
                break
            found.append(np.stack([order[hit], order[hit + s]], axis=1))
            if max_pairs is not None:
                found = [_keep_top(dist, np.concatenate(found), max_pairs)]
    return np.concatenate(found)


def single_flip_pairs(dist: DiscreteDistribution, max_pairs: "int | None" = None) -> np.ndarray:
    """(P, 2, n) int64 pairs (p, q), p < q, of support rows differing in one coordinate.

    Sorted by joint probability (descending), then p and q, so a capped prefix
    covers the most relevant transitions first. A cap first searches the
    max_pairs most probable rows; the max_pairs-th joint found there, `cut`,
    bounds the true cut from below. Both rows of a pair at or above the true
    cut have P(p) P_max >= P(p) P(q) >= cut (rounding is monotone), so only
    those rows are searched again, and not at all when they number at most
    max_pairs: they are then among the first rows. The order is by values, so
    the result does not depend on the rows searched. Each search keeps a
    running `_keep_top` of at most 2 max_pairs pairs, so memory is
    O(S + max_pairs), and sorts once at the end.
    """
    if max_pairs is not None and (
        isinstance(max_pairs, bool) or not isinstance(max_pairs, (int, np.integer)) or max_pairs < 0
    ):
        raise ValueError(f"max_pairs must be None or an int >= 0, got {max_pairs!r}")
    probs = dist.probs
    rows = np.arange(len(probs))
    if max_pairs:  # 0 keeps no pair, and has no max_pairs-th joint
        top = np.argpartition(-probs, min(max_pairs, len(probs)) - 1)[:max_pairs]
        pairs = _flip_pairs(dist, top, max_pairs)
        if len(pairs) >= max_pairs:
            joint = probs[pairs[:, 0]] * probs[pairs[:, 1]]
            cut = np.partition(joint, -max_pairs)[-max_pairs]
            rows = np.flatnonzero(probs * probs.max() >= cut)
            if len(rows) <= max_pairs:
                return dist.support[_best_pairs(dist, pairs, max_pairs)]
    return dist.support[_best_pairs(dist, _flip_pairs(dist, rows, max_pairs), max_pairs)]


def _log_theta(r: float, sigma: float, shift: float) -> float:
    """log of rho_sigma(r Z + shift) = log sum_k exp(-(r k + shift)^2 / 2 sigma^2),
    summed over a window that omits less than 1e-16 of the mass."""
    alpha, center = sigma / abs(r), -shift / r
    dg._check(alpha, center)
    w = dg.truncation_halfwidth(alpha, 1e-16)
    ks = np.arange(math.floor(center - w), math.ceil(center + w) + 1)
    logw = -((ks - center) ** 2) / (2.0 * alpha * alpha)
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
