"""Exact 1-D discrete Gaussian over the integers: pmf tables and inversion sampling.

Every draw and pmf of D_{Z, alpha, c} works on one window, the integers
mid - half, ..., mid + half, where mid is the integer nearest c, ties rounded
up (`window_mid`), half = ceil(w) (`window_half`) and
w = alpha * sqrt(2 ln(4/eps)) + 1 with eps = TAIL_EPS = 1e-12. An integer
within w of c lies at most floor(w + 1/2) <= ceil(w) from mid, so the
window holds all of c +- w, and the omitted mass is below eps of the total by
the standard Gaussian tail bound (the +1 absorbs the integer-rounding slack).
The cut is one constant for every sampler and pmf in the package, as in the
SampleZ routine of Gentry, Peikert & Vaikuntanathan (STOC 2008).

Every draw inverts one uniform u by one rule: the smallest window point whose
running weight reaches u times the window's total. Weights are taken relative
to the peak one, at mid, so a small alpha cannot underflow to an all-zero
table. An alpha with 2 alpha^2 below the smallest normal float (alpha below
about 1.055e-154) is rejected, as are a center with |c| >= 2**53 (MAX_CENTER)
and an alpha whose window would hold more than MAX_WINDOW_POINTS points.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left

import numpy as np

TAIL_EPS = 1e-12
MAX_CENTER = 2.0**53  # from here on floats skip integers, so windows would too
# Widest window `invert` walks in a Python loop; a wider one takes the numpy row
# kernel. The loop's cost grows with the window and meets the kernel's between
# about 64 and 128 points (alpha 4-8).
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


def window_mid(center):
    """Middle of the one window of D_{Z, alpha, c}: the integer nearest c,
    ties rounded up, as an int for a float center, or as floats elementwise
    for an array of centers. Ties go one way, so shifting c by an integer
    shifts the window by it. Below 2**53, center - floor(center) is exact
    wherever it is near 1/2, so the tie test is exact too."""
    if isinstance(center, float):
        low = math.floor(center)
        return low + 1 if center - low >= 0.5 else low
    low = np.floor(center)
    return low + (center - low >= 0.5)


def window_half(alpha):
    """Half-width of the one window of D_{Z, alpha, c}, window_mid(c) - half
    to window_mid(c) + half: ceil(truncation_halfwidth(alpha, TAIL_EPS)), as
    a float, or elementwise for an array of alphas."""
    return -(-truncation_halfwidth(alpha, TAIL_EPS) // 1.0)


def _checked_half(alpha: float) -> int:
    """window_half(alpha) as an int, refusing a window of more than
    MAX_WINDOW_POINTS points before anything is allocated."""
    half = int(window_half(alpha))
    if 2 * half + 1 > MAX_WINDOW_POINTS:
        raise ValueError(
            f"alpha {alpha} needs a window of {2 * half + 1} points, "
            f"more than the {MAX_WINDOW_POINTS} allowed"
        )
    return half


def pmf_table(alpha: float, center: float) -> tuple[np.ndarray, np.ndarray]:
    """Support points and normalized probabilities of D_{Z, alpha, center} over
    its window window_mid(c) +- window_half(alpha)."""
    _check(alpha, center)
    half = _checked_half(alpha)
    mid = window_mid(center)
    ks = np.arange(mid - half, mid + half + 1)
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
    window."""
    ks, probs = pmf_table(alpha, center)
    j = k - ks[0]
    return float(probs[j]) if 0 <= j < ks.size else 0.0


def sample(alpha: float, center: float, rng: np.random.Generator) -> int:
    """One inversion draw from D_{Z, alpha, center}: `invert` on one uniform
    u = rng.random(), taken once alpha and center pass their checks."""
    _check(alpha, center)
    return invert(alpha, _checked_half(alpha), center, rng.random())


def invert(alpha: float, half: int, center: float, u: float) -> int:
    """The draw of `sample` on the uniform u: the smallest window point whose
    running weight reaches u times the window's total, for an alpha and a
    center `sample` accepts and half = window_half(alpha) as an int.

    A window of at most LOOP_MAX_POINTS points is walked in a plain Python
    loop with no table; a wider one goes through `sample_rows`' kernel as one
    row. Both weigh each point relative to the one at window_mid(c), the
    peak.
    math.exp and numpy's exp may differ in the last bit, which moves a draw
    only when u lies within about one ulp of a cumulative boundary.
    """
    if 2 * half >= LOOP_MAX_POINTS:
        return int(_invert_rows(alpha, half, np.array([center]), np.array([u]))[0])
    den = 2.0 * alpha * alpha
    mid = window_mid(center)
    d = mid - center
    top = -(d * d) / den
    exp = math.exp
    cum = []
    acc = 0.0
    for k in range(mid - half, mid + half + 1):
        d = k - center
        acc += exp(-(d * d) / den - top)
        cum.append(acc)
    # u * acc <= acc = cum[-1], so the search stays inside the window
    return mid - half + bisect_left(cum, u * acc)


def checked_halves(alphas: np.ndarray) -> np.ndarray:
    """window_half of each alpha in an array, as floats, once every alpha
    passes `sample`'s checks; the first that fails raises its error."""
    with np.errstate(all="ignore"):
        half = window_half(alphas)
        ok = (alphas > 0.0) & (2.0 * alphas * alphas >= sys.float_info.min)
        ok &= 2.0 * half + 1.0 <= MAX_WINDOW_POINTS  # false for inf and NaN
    if not ok.all():
        alpha = float(alphas[~ok][0])
        _check(alpha, 0.0)
        _checked_half(alpha)
    return half


# Where numpy's exp and math.exp round a weight apart, a row's running sums,
# and u times their total, move by at most an ulp of the total per window
# point and per addition: about 128 ulps (3e-14 of the total) over the
# loop's at most 64 points, far below this fraction.
_EXP_SLACK = 1e-12


def sample_from_uniforms(alphas, centers, us) -> np.ndarray:
    """Row form of `sample` on given uniforms: entry r is the draw that
    sample(alphas[r], centers[r], rng) makes when its rng.random() returns
    us[r], bit for bit, as an int64 array.

    Rows whose window `invert` walks in its loop are inverted together: the
    same window, the same exponents relative to the one at window_mid(c), a
    running sum and the count of entries below u times the total. numpy's exp
    may differ from math.exp in the last bit, so a row whose u times the
    total lies within _EXP_SLACK of a cumulative boundary is checked as
    `sample` checks it and handed to `invert`, as are wider windows and
    invalid rows; the first invalid row raises `sample`'s error.
    """
    alphas, centers, us = (np.asarray(v, dtype=float) for v in (alphas, centers, us))
    out = np.empty(alphas.shape[0], dtype=np.int64)
    # every row is worked as a loop row; the arithmetic of the others, which
    # `invert` redoes, may overflow or be NaN
    with np.errstate(all="ignore"):
        half = window_half(alphas)
        den = 2.0 * alphas * alphas
        fast = (alphas > 0.0) & (den >= sys.float_info.min) & (np.abs(centers) < MAX_CENTER)
        fast &= 2.0 * half < LOOP_MAX_POINTS
        if fast.any():
            c, den, half = centers[:, None], den[:, None], half[:, None]
            mid = window_mid(c)
            top = mid - c
            top = -(top * top) / den
            offs = np.arange(int(2.0 * half[fast].max()) + 1)
            d = (mid - half + offs) - c
            logw = -(d * d) / den - top  # exp(-inf) = 0 far past a tiny alpha's window
            logw[offs > 2.0 * half] = -np.inf  # past the row's own window
            cum = np.cumsum(np.exp(logw), axis=1)
            below = cum - us[:, None] * cum[:, -1:]  # negative exactly where cum < u * total
            out[:] = (mid - half)[:, 0].astype(np.int64) + (below < 0.0).sum(axis=1)
            fast &= ~(np.abs(below) <= _EXP_SLACK * cum[:, -1:]).any(axis=1)
    for r in np.nonzero(~fast)[0]:
        alpha, center = float(alphas[r]), float(centers[r])
        _check(alpha, center)
        out[r] = invert(alpha, _checked_half(alpha), center, float(us[r]))
    return out


# Vectorized row-wise helpers: one independent 1-D discrete Gaussian per row,
# sharing a fixed alpha, for the batch Klein sampler, the chain ensembles and
# exact pmfs over large point sets. Rows are worked through in blocks of about
# BLOCK_ENTRIES window entries, so memory is O(rows) for any alpha. Inputs are
# checked as the scalar draw checks them. 8,192 entries are 64 KiB of float64:
# below glibc's 128 KiB mmap threshold and well inside L2. Blocks of 2^16
# entries made Klein `sample` about 25% faster, but its benchmark runs spread
# about 1.5 times as widely against their median (CHANGES.md).
BLOCK_ENTRIES = 8192
# Fewest rows for which `sample_rows` sums a block one window point at a time:
# each point is one numpy add over the rows, about 0.5 us a call, where
# cumsum costs about 3.5 ns an entry. They break even near 128 rows at every
# window width measured (9 to 513 points).
COLUMN_MIN_ROWS = 128


def _checked_rows(alpha: float, centers) -> tuple[np.ndarray, int]:
    """centers as a float array, checked as `sample` checks them, and the
    window's half-width."""
    centers = np.asarray(centers, dtype=float)
    bad = ~(np.abs(centers) < MAX_CENTER)  # NaN compares false
    _check(alpha, float(centers[bad][0]) if bad.any() else 0.0)
    return centers, _checked_half(alpha)


def pmf_table_rows(alpha: float, centers: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row form of `pmf`: entry i is pmf(alpha, centers[i], values[i]) bit for
    bit, on the same window. Rows are worked through in blocks of about
    BLOCK_ENTRIES entries.
    """
    centers, half = _checked_rows(alpha, centers)
    values = np.asarray(values, dtype=float)
    offs = np.arange(2 * half + 1, dtype=float)
    lo = window_mid(centers) - half
    out = np.zeros(centers.shape[0])
    per = max(1, BLOCK_ENTRIES // offs.size)
    for start in range(0, centers.shape[0], per):
        rows = slice(start, start + per)
        probs = _table_rows(alpha, centers[rows], lo[rows, None] + offs)
        j = values[rows] - lo[rows]
        inside = np.nonzero((j >= 0) & (j < offs.size))[0]
        out[start + inside] = probs[inside, j[inside].astype(np.intp)]
    return out


def sample_rows(alpha: float, centers: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One inversion draw per row from D_{Z, alpha, centers[i]}, as `sample`
    draws on its uniform: the smallest window point whose running weight
    reaches u times the row's total. All uniforms come from one
    rng.random(n), so blocking cannot change the draws."""
    centers, half = _checked_rows(alpha, centers)
    return _invert_rows(alpha, half, centers, rng.random(centers.shape[0]))


def _invert_rows(alpha: float, half: int, centers: np.ndarray, u_all: np.ndarray) -> np.ndarray:
    """The draws of `sample_rows` on given uniforms u_all, for checked inputs
    and half = window_half(alpha).

    frac = c - window_mid(c) is exact, so offs - frac is
    (window_mid(c) + offs) - c bit for bit, and |frac| <= 1/2 puts the peak
    exponent -frac^2 / (2 alpha^2) at offset 0: the weights are the table's,
    each relative to the peak one.

    A block of at least COLUMN_MIN_ROWS rows is laid out window-major,
    (window, rows), and forms its running sums one window point at a time,
    each one add over all rows; a smaller block (a wide alpha, or few rows)
    is laid out row-major and takes numpy's cumsum. Both add left to right,
    so the sums, and the draws, are the same bits either way.
    """
    offs = np.arange(-half, half + 1, dtype=float)[:, None]
    size = offs.shape[0]
    per = max(1, BLOCK_ENTRIES // size)
    den = -(2.0 * alpha * alpha)
    out = np.empty(centers.shape[0], dtype=np.int64)
    buf = np.empty(size * min(per, centers.shape[0]))
    for start in range(0, centers.shape[0], per):
        rows = slice(start, start + per)
        base = window_mid(centers[rows])
        frac = centers[rows] - base
        few = base.size < COLUMN_MIN_ROWS
        cum = buf[: size * base.size]
        cum = cum.reshape(base.size, size).T if few else cum.reshape(size, base.size)
        np.subtract(offs, frac, out=cum)
        np.multiply(cum, cum, out=cum)
        np.divide(cum, den, out=cum)
        np.subtract(cum, (frac * frac) / den, out=cum)
        np.exp(cum, out=cum)
        if few:
            np.add.accumulate(cum, axis=0, out=cum)  # cumsum's sums, without its wrapper
        else:
            for prev, cur in zip(cum, cum[1:]):
                np.add(prev, cur, cur)
        idx = np.less(cum, u_all[rows] * cum[-1]).sum(axis=0)
        out[rows] = base.astype(np.int64) + (idx - half)
    return out
