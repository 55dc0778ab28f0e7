"""Exact 1-D discrete Gaussian over the integers: pmf tables and inversion sampling.

The infinite sum over Z is truncated to a window wide enough that the omitted
mass is provably below ``TAIL_EPS`` = 1e-12: the centered Gaussian tail
outside ``c +- w`` with ``w = alpha * sqrt(2 ln(4/eps)) + 1`` contributes less
than eps of the total, by the standard tail bound (the +1 absorbs the
integer-rounding slack). The cut is one constant for every sampler and pmf in
the package, as in the SampleZ routine of Gentry, Peikert & Vaikuntanathan
(STOC 2008). All exponent sums subtract the max exponent first so small alpha
cannot underflow to an all-zero table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TAIL_EPS = 1e-12


@dataclass(frozen=True)
class Gaussian1DParams:
    """Standard deviation and center of a discrete Gaussian on Z."""

    alpha: float
    center: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not math.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center}")


def truncation_halfwidth(alpha: float, tail_eps: float) -> float:
    return alpha * math.sqrt(2.0 * math.log(4.0 / tail_eps)) + 1.0


def pmf_table(p: Gaussian1DParams) -> tuple[np.ndarray, np.ndarray]:
    """Support points and normalized probabilities over the window
    [floor(c - w), ceil(c + w)], whose omitted mass is below TAIL_EPS."""
    w = truncation_halfwidth(p.alpha, TAIL_EPS)
    ks = np.arange(math.floor(p.center - w), math.ceil(p.center + w) + 1)
    logw = -((ks - p.center) ** 2) / (2.0 * p.alpha * p.alpha)
    w = np.exp(logw - logw.max())
    return ks, w / w.sum()


def pmf(p: Gaussian1DParams, k: int) -> float:
    """Probability of integer k; zero outside the truncated support."""
    ks, probs = pmf_table(p)
    if k < ks[0] or k > ks[-1]:
        return 0.0
    return float(probs[k - ks[0]])


def sample(p: Gaussian1DParams, rng: np.random.Generator) -> int:
    """Exact inversion draw from the truncated pmf table: the smallest support
    point whose cumulative probability reaches a uniform u."""
    ks, probs = pmf_table(p)
    return int(ks[np.searchsorted(np.cumsum(probs), rng.random(), side="left")])


# Vectorized row-wise helpers: one independent 1-D discrete Gaussian per row,
# sharing a fixed alpha. Used by the batch Klein sampler, the chain ensembles,
# and exact pmf evaluation over large point sets. The window is anchored at
# round(center) per row, which shifts the truncation by < 1 point relative to
# the scalar table; the resulting pmf difference is below TAIL_EPS. Inputs are
# checked as `Gaussian1DParams` checks them, so a bad alpha or center raises
# instead of casting NaN to an int64 or building an empty table.


def _checked_centers(alpha: float, centers) -> np.ndarray:
    centers = np.asarray(centers, dtype=float)
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
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
