"""Exact 1-D discrete Gaussian over the integers: pmf tables and inversion sampling.

The infinite sum over Z is truncated to a window wide enough that the omitted
mass is provably below ``TAIL_EPS`` = 1e-12: the centered Gaussian tail
outside ``c +- w`` with ``w = alpha * sqrt(2 ln(4/eps)) + 1`` contributes less
than eps of the total, by the standard tail bound (the +1 absorbs the
integer-rounding slack). The cut is one constant for every sampler and pmf in
the package, as in the SampleZ routine of Gentry, Peikert & Vaikuntanathan
(STOC 2008). All exponent sums subtract the max exponent first so small alpha
cannot underflow to an all-zero table. An alpha with 2 alpha^2 below the
smallest normal float (alpha below about 1.055e-154) is rejected, as are a
center with |c| >= 2**53 (MAX_CENTER) and an alpha whose window would hold
more than MAX_WINDOW_POINTS points.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left

import numpy as np

TAIL_EPS = 1e-12
MAX_CENTER = 2.0**53  # from here on floats skip integers, so windows would too
# Widest window `sample` walks in a Python loop. The loop's cost grows with the
# window and meets the numpy table's between about 64 and 96 points (alpha 4-6).
LOOP_MAX_POINTS = 64
# Widest 1-D window any table or row kernel builds: 128 MiB of float64 (alpha
# about 1.1e6). A wider one is refused before it is allocated.
MAX_WINDOW_POINTS = 2**24


def _check(alpha: float, center: float) -> None:
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if 2.0 * alpha * alpha < sys.float_info.min:  # the exponents would divide by zero
        raise ValueError(f"alpha {alpha} is too small: 2 alpha^2 underflows")
    if not math.isfinite(center):
        raise ValueError(f"center must be finite, got {center}")
    if abs(center) >= MAX_CENTER:
        raise ValueError(f"center {center} is too large: |center| must be below 2**53")


def truncation_halfwidth(alpha: float, tail_eps: float) -> float:
    return alpha * math.sqrt(2.0 * math.log(4.0 / tail_eps)) + 1.0


def _check_window(alpha: float, points) -> None:
    if points > MAX_WINDOW_POINTS:
        raise ValueError(
            f"alpha {alpha} needs a window of {int(points)} points, "
            f"more than the {MAX_WINDOW_POINTS} allowed"
        )


def pmf_table(alpha: float, center: float) -> tuple[np.ndarray, np.ndarray]:
    """Support points and normalized probabilities of D_{Z, alpha, center} over
    the window [floor(c - w), ceil(c + w)], whose omitted mass is below TAIL_EPS."""
    _check(alpha, center)
    w = truncation_halfwidth(alpha, TAIL_EPS)
    lo, hi = math.floor(center - w), math.ceil(center + w)
    _check_window(alpha, hi - lo + 1)
    ks = np.arange(lo, hi + 1)
    return ks, _table_rows(alpha, np.array([center]), ks[None, :])[0]


def _table_rows(alpha: float, centers: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Normalized weights of the window points ks[r] about centers[r], one row
    each: the table arithmetic of `pmf_table` and `pmf_table_rows`. Each row
    rounds as a lone 1-D table would."""
    logw = -((ks - centers[:, None]) ** 2) / (2.0 * alpha * alpha)
    w = np.exp(logw - logw.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True)


def pmf(alpha: float, center: float, k: int) -> float:
    """Probability of integer k under D_{Z, alpha, center}; zero outside the
    truncated support."""
    ks, probs = pmf_table(alpha, center)
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
    _check(alpha, center)
    w = truncation_halfwidth(alpha, TAIL_EPS)
    lo = math.floor(center - w)
    hi = math.ceil(center + w)
    if hi - lo >= LOOP_MAX_POINTS:
        ks, probs = pmf_table(alpha, center)
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


class _GivenUniform:
    """Stands in for the rng of one `sample` call: its one random() is u."""

    def __init__(self, u: float) -> None:
        self.u = u

    def random(self) -> float:
        return self.u


# Where numpy's exp and math.exp round a weight apart, a row's running sums,
# and u times their total, move by at most an ulp of the total per window
# point and per addition: about 128 ulps (3e-14 of the total) over the loop
# path's 64 points, far below this fraction.
_EXP_SLACK = 1e-12


def sample_from_uniforms(alphas, centers, us) -> np.ndarray:
    """Row form of `sample` on given uniforms: entry r is the draw that
    sample(alphas[r], centers[r], rng) makes when its rng.random() returns
    us[r], bit for bit, as an int64 array.

    Loop-path rows are inverted together: the same window, the same exponents
    relative to the one at round(c), a running sum and the count of entries
    below u times the total. numpy's exp may differ from math.exp in the last
    bit, so a row whose u times the total lies within _EXP_SLACK of a
    cumulative boundary is handed to `sample`, as are table-path rows and
    invalid ones; the first invalid row raises `sample`'s error.
    """
    alphas, centers, us = (np.asarray(v, dtype=float) for v in (alphas, centers, us))
    out = np.empty(alphas.shape[0], dtype=np.int64)
    # every row is worked as a loop-path row; the arithmetic of the others,
    # which `sample` redoes, may overflow or be NaN
    with np.errstate(all="ignore"):
        w = truncation_halfwidth(alphas, TAIL_EPS)
        lo, hi = np.floor(centers - w), np.ceil(centers + w)
        den = 2.0 * alphas * alphas
        fast = (alphas > 0.0) & (den >= sys.float_info.min) & (np.abs(centers) < MAX_CENTER)
        fast &= hi - lo < LOOP_MAX_POINTS
        if fast.any():
            c, den, lo, hi = centers[:, None], den[:, None], lo[:, None], hi[:, None]
            top = np.round(c) - c
            top = -(top * top) / den
            ks = lo + np.arange(int((hi - lo)[fast].max()) + 1)
            d = ks - c
            logw = -(d * d) / den - top  # exp(-inf) = 0 far past a tiny alpha's window
            logw[ks > hi] = -np.inf  # past the row's own window
            cum = np.cumsum(np.exp(logw), axis=1)
            below = cum - us[:, None] * cum[:, -1:]  # negative exactly where cum < u * total
            out[:] = lo[:, 0].astype(np.int64) + (below < 0.0).sum(axis=1)
            fast &= ~(np.abs(below) <= _EXP_SLACK * cum[:, -1:]).any(axis=1)
    for r in np.nonzero(~fast)[0]:
        out[r] = sample(float(alphas[r]), float(centers[r]), _GivenUniform(float(us[r])))
    return out


# Vectorized row-wise helpers: one independent 1-D discrete Gaussian per row,
# sharing a fixed alpha, for the batch Klein sampler, the chain ensembles and
# exact pmfs over large point sets. Rows are worked through in blocks of about
# BLOCK_ENTRIES window entries, so memory is O(rows) for any alpha. Inputs are
# checked as the scalar draw checks them.
BLOCK_ENTRIES = 8192  # 64 KiB of float64: below glibc's 128 KiB mmap threshold


def _checked_centers(alpha: float, centers) -> np.ndarray:
    centers = np.asarray(centers, dtype=float)
    bad = ~(np.abs(centers) < MAX_CENTER)  # NaN compares false
    _check(alpha, float(centers[bad][0]) if bad.any() else 0.0)
    return centers


def pmf_table_rows(alpha: float, centers: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row form of `pmf`: entry i is pmf(alpha, centers[i], values[i]) bit for
    bit, on the same window. Rows are grouped by window length and worked
    through in blocks of about BLOCK_ENTRIES entries.
    """
    centers = _checked_centers(alpha, centers)
    values = np.asarray(values, dtype=float)
    out = np.zeros(centers.shape[0])
    if out.size == 0:
        return out
    w = truncation_halfwidth(alpha, TAIL_EPS)
    lo = np.floor(centers - w)
    points = np.ceil(centers + w) - lo + 1
    _check_window(alpha, points.max())
    for size in range(int(points.min()), int(points.max()) + 1):  # two or three lengths
        group = np.nonzero(points == size)[0]
        offs = np.arange(size, dtype=float)
        per = max(1, BLOCK_ENTRIES // offs.size)
        for start in range(0, group.size, per):
            rows = group[start : start + per]
            probs = _table_rows(alpha, centers[rows], lo[rows, None] + offs)
            j = values[rows] - lo[rows]
            inside = np.nonzero((j >= 0) & (j < size))[0]
            out[rows[inside]] = probs[inside, j[inside].astype(np.intp)]
    return out


def sample_rows(alpha: float, centers: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One inversion draw per row from D_{Z, alpha, centers[i]}: the smallest
    window point whose cumulative weight reaches u times the row's total. All
    uniforms come from one rng.random(n), so blocking cannot change the draws.

    The window is round(c) +- half, within one point of `sample`'s (a pmf
    difference below TAIL_EPS). frac = c - round(c) is exact, so offs - frac
    is (round(c) + offs) - c bit for bit, and |frac| <= 1/2 puts the peak
    exponent -frac^2 / (2 alpha^2) at offset 0: the weights are the table's,
    each relative to the peak one.
    """
    centers = _checked_centers(alpha, centers)
    half = int(math.ceil(truncation_halfwidth(alpha, TAIL_EPS)))
    _check_window(alpha, 2 * half + 1)
    offs = np.arange(-half, half + 1, dtype=float)
    per = max(1, BLOCK_ENTRIES // offs.size)
    den = -(2.0 * alpha * alpha)
    u_all = rng.random(centers.shape[0])
    out = np.empty(centers.shape[0], dtype=np.int64)
    buf = np.empty((min(per, centers.shape[0]), offs.size))
    for start in range(0, centers.shape[0], per):
        rows = slice(start, start + per)
        base = np.round(centers[rows])
        frac = centers[rows] - base
        cum = buf[: base.shape[0]]
        np.subtract(offs, frac[:, None], out=cum)
        np.multiply(cum, cum, out=cum)
        np.divide(cum, den, out=cum)
        np.subtract(cum, ((frac * frac) / den)[:, None], out=cum)
        np.exp(cum, out=cum)
        np.cumsum(cum, axis=1, out=cum)
        idx = np.less(cum, (u_all[rows] * cum[:, -1])[:, None]).sum(axis=1)
        out[rows] = base.astype(np.int64) + (idx - half)
    return out
