"""Exact 1-D discrete Gaussian over the integers: pmf tables and inversion sampling.

The infinite sum over Z is truncated to a window wide enough that the omitted
mass is provably below ``TAIL_EPS`` = 1e-12: the centered Gaussian tail
outside ``c +- w`` with ``w = alpha * sqrt(2 ln(4/eps)) + 1`` contributes less
than eps of the total, by the standard tail bound (the +1 absorbs the
integer-rounding slack). The cut is one constant for every sampler and pmf in
the package, as in the SampleZ routine of Gentry, Peikert & Vaikuntanathan
(STOC 2008). All exponent sums subtract the max exponent first so small alpha
cannot underflow to an all-zero table, and an alpha with 2 alpha^2 below the
smallest normal float (alpha below about 1.055e-154) is rejected.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

TAIL_EPS = 1e-12
# Widest window `sample` walks in a Python loop. The loop's cost grows with the
# window and meets the numpy table's between about 64 and 96 points (alpha 4-6).
LOOP_MAX_POINTS = 64


@dataclass(frozen=True)
class Gaussian1DParams:
    """Standard deviation and center of a discrete Gaussian on Z."""

    alpha: float
    center: float

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        if not math.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center}")


def _check_alpha(alpha: float) -> None:
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if 2.0 * alpha * alpha < sys.float_info.min:  # the exponents would divide by zero
        raise ValueError(f"alpha {alpha} is too small: 2 alpha^2 underflows")


def truncation_halfwidth(alpha: float, tail_eps: float) -> float:
    return alpha * math.sqrt(2.0 * math.log(4.0 / tail_eps)) + 1.0


def pmf_table(p: Gaussian1DParams) -> tuple[np.ndarray, np.ndarray]:
    """Support points and normalized probabilities over the window
    [floor(c - w), ceil(c + w)], whose omitted mass is below TAIL_EPS."""
    return _window_table(p.alpha, p.center)


def _window_table(alpha: float, center: float) -> tuple[np.ndarray, np.ndarray]:
    w = truncation_halfwidth(alpha, TAIL_EPS)
    ks = np.arange(math.floor(center - w), math.ceil(center + w) + 1)
    logw = -((ks - center) ** 2) / (2.0 * alpha * alpha)
    w = np.exp(logw - logw.max())
    return ks, w / w.sum()


def pmf(p: Gaussian1DParams, k: int) -> float:
    """Probability of integer k; zero outside the truncated support."""
    ks, probs = pmf_table(p)
    if k < ks[0] or k > ks[-1]:
        return 0.0
    return float(probs[k - ks[0]])


def sample(alpha: float, center: float, rng: np.random.Generator) -> int:
    """One inversion draw from D_{Z, alpha, center} on the `pmf_table` window:
    the smallest window point whose cumulative weight reaches u times the total,
    for one uniform u = rng.random().

    A window of at most LOOP_MAX_POINTS points is walked in a plain Python
    loop with no table; a wider one inverts the numpy table, whose cost grows
    like alpha. Both paths use the table's exponents, each weight relative to
    the peak one. math.exp and numpy's exp may differ in the last bit, and the
    loop compares running weights with u times their running total where the
    table compares normalized cumulative probabilities with u, so the paths
    can differ only when u lies within about one ulp of a CDF boundary (about
    1e-16 per draw). A u above the table's last cumulative entry, which may
    fall short of 1 by a few ulps, draws the last window point.
    """
    _check_alpha(alpha)
    if not math.isfinite(center):
        raise ValueError(f"center must be finite, got {center}")
    w = truncation_halfwidth(alpha, TAIL_EPS)
    lo = math.floor(center - w)
    hi = math.ceil(center + w)
    if hi - lo >= LOOP_MAX_POINTS:
        ks, probs = _window_table(alpha, center)
        i = np.searchsorted(np.cumsum(probs), rng.random(), side="left")
        return int(ks[min(i, len(ks) - 1)])
    den = 2.0 * alpha * alpha
    d = round(center) - center  # the window point nearest c has the peak exponent
    top = -(d * d) / den
    exp = math.exp
    cum = []
    acc = 0.0
    for k in range(lo, hi + 1):
        d = k - center
        acc += exp(-(d * d) / den - top)
        cum.append(acc)
    # u * acc <= acc = cum[-1], so the search stays inside the window
    return lo + bisect_left(cum, rng.random() * acc)


# Vectorized row-wise helpers: one independent 1-D discrete Gaussian per row,
# sharing a fixed alpha. Used by the batch Klein sampler, the chain ensembles,
# and exact pmf evaluation over large point sets. The window is anchored at
# round(center) per row, which shifts the truncation by < 1 point relative to
# the scalar table; the resulting pmf difference is below TAIL_EPS. Inputs are
# checked as `Gaussian1DParams` checks them, so a bad alpha or center raises
# instead of casting NaN to an int64 or building an empty table.


def _checked_centers(alpha: float, centers) -> np.ndarray:
    centers = np.asarray(centers, dtype=float)
    _check_alpha(alpha)
    finite = np.isfinite(centers)
    if not finite.all():
        raise ValueError(f"center must be finite, got {centers[~finite][0]}")
    return centers


def pmf_rows(alpha: float, centers: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Normalized pmf of values[i] under D_{Z, alpha, centers[i]} for each row i."""
    centers = _checked_centers(alpha, centers)
    values = np.asarray(values)
    w = truncation_halfwidth(alpha, TAIL_EPS)
    half = int(math.ceil(w))
    # The window is round(c) + offs. frac = c - round(c) is exact, so offs - frac
    # equals (round(c) + offs) - c bit for bit, and |frac| <= 1/2 puts the peak
    # log-weight m at offset 0. The normaliser is built in one (S, W) buffer.
    frac = centers - np.round(centers)
    m = -(frac * frac) / (2.0 * alpha * alpha)
    buf = np.subtract(np.arange(-half, half + 1), frac[:, None])
    np.multiply(buf, buf, out=buf)
    np.divide(buf, -(2.0 * alpha * alpha), out=buf)
    np.subtract(buf, m[:, None], out=buf)
    z = np.exp(buf, out=buf).sum(axis=1)
    dv = values - centers
    with np.errstate(over="ignore"):  # a value far outside a tiny-alpha window: weight 0
        pv = np.exp(-(dv * dv) / (2.0 * alpha * alpha) - m) / z
    return np.where(np.abs(dv) <= w + 0.5, pv, 0.0)


def sample_rows(alpha: float, centers: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One inversion draw per row from D_{Z, alpha, centers[i]}.

    Processes rows in chunks so wide tables (large alpha) stay within a few
    tens of MB; uniforms are drawn up front so chunking cannot change draws.
    """
    centers = _checked_centers(alpha, centers)
    n = centers.shape[0]
    half = int(math.ceil(truncation_halfwidth(alpha, TAIL_EPS)))
    offs = np.arange(-half, half + 1)
    u_all = rng.random(n)
    out = np.empty(n, dtype=np.int64)
    chunk = max(1, int(4_000_000 / (2 * half + 1)))
    for start in range(0, n, chunk):
        sl = slice(start, min(start + chunk, n))
        base = np.round(centers[sl])
        dev = base[:, None] + offs[None, :] - centers[sl, None]
        logw = -(dev * dev) / (2.0 * alpha * alpha)
        cum = np.cumsum(np.exp(logw - logw.max(axis=1, keepdims=True)), axis=1)
        idx = np.sum(cum < (u_all[sl] * cum[:, -1])[:, None], axis=1)
        out[sl] = (base + (idx - half)).astype(np.int64)
    return out
