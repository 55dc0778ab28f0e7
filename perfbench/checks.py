"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports the program: exact laws come from the benchmark's own
enumeration, MIMO decisions are checked against its own exhaustive search,
and sampling bounds come from the run's own effective sample size or from
i.i.d. draws of the exact law.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

EXACT_TAIL = 1e-15  # mass the exact enumeration may leave out
# Single 1000-step chains read a median 0.28 of the ESS bound but up to 0.9 of
# it, so the check pools all of a run's chains of one kernel.
ESS_BOUND_SAFETY = 3.0
FLOOR_REPS = 400


def energy(points: np.ndarray, basis: np.ndarray, center: np.ndarray, sigma: float) -> np.ndarray:
    """||B x - c||^2 / (2 sigma^2) for each row x."""
    resid = points @ basis.T - center
    return np.einsum("ij,ij->i", resid, resid) / (2.0 * sigma * sigma)


def ess(series: np.ndarray) -> float:
    """Effective sample size by Geyer's initial monotone sequence estimator."""
    x = np.asarray(series, dtype=float)
    n = x.size
    x = x - x.mean()
    if n < 4 or not np.any(x):
        return float("nan")
    spec = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(spec * np.conj(spec))[:n] / n
    total, prev = 0.0, math.inf
    for k in range(n // 2):
        pair = acov[2 * k] + acov[2 * k + 1]
        if pair <= 0.0:
            break
        prev = min(prev, pair)
        total += prev
    tau = -1.0 + 2.0 * total / acov[0]
    return n / max(tau, 1.0 / n)


def exact_law(basis: np.ndarray, center: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Support points and probabilities of D_{L(B), sigma, c}, by enumeration.

    A point with ||Bx - c|| <= R has |x_i - (B^-1 c)_i| <= ||row_i(B^-1)|| R;
    R = sigma (sqrt(2 ln(1/EXACT_TAIL)) + sqrt(n)) leaves outside mass far
    below EXACT_TAIL.
    """
    n = basis.shape[0]
    b_inv = np.linalg.inv(basis)
    mid = b_inv @ center
    radius = sigma * (math.sqrt(2.0 * math.log(1.0 / EXACT_TAIL)) + math.sqrt(n))
    half = np.linalg.norm(b_inv, axis=1) * radius
    axes = [np.arange(math.floor(m - h), math.ceil(m + h) + 1) for m, h in zip(mid, half)]
    points = np.array(list(itertools.product(*axes)), dtype=np.int64)
    logw = -energy(points, basis, center, sigma)
    w = np.exp(logw - logw.max())
    return points, w / w.sum()


def tv_to_counts(points: np.ndarray, probs: np.ndarray, counts: dict) -> float:
    """TV distance between an empirical law, as {state tuple: count}, and (points, probs)."""
    index = {tuple(p): i for i, p in enumerate(points.tolist())}
    freq = np.zeros(len(points))
    outside = 0
    for state, cnt in counts.items():
        i = index.get(state)
        if i is None:
            outside += cnt
        else:
            freq[i] = cnt
    total = freq.sum() + outside
    return 0.5 * (np.abs(freq / total - probs).sum() + outside / total)


def ess_tv_bound(probs: np.ndarray, n_eff: float) -> float:
    """ESS_BOUND_SAFETY times the mean TV of an empirical law of n_eff independent draws.

    E|p_hat - p| <= sqrt(p (1 - p) / n_eff) per state, so the mean TV is at
    most half the sum of those terms.
    """
    return ESS_BOUND_SAFETY * 0.5 * float(np.sqrt(probs * (1.0 - probs) / n_eff).sum())


def iid_tv_floor(probs: np.ndarray, n_draws: int, rng: np.random.Generator) -> tuple[float, float]:
    """Mean and standard deviation of TV(empirical, exact) over i.i.d. samples."""
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    tvs = np.empty(FLOOR_REPS)
    for r in range(FLOOR_REPS):
        idx = np.searchsorted(cum, rng.random(n_draws), side="right")
        freq = np.bincount(idx, minlength=probs.size) / n_draws
        tvs[r] = 0.5 * np.abs(freq - probs).sum()
    return float(tvs.mean()), float(tvs.std(ddof=1))


def paired_margin(diff: np.ndarray, z: float) -> float:
    """z times the standard error of a sum of paired per-trial differences."""
    diff = np.asarray(diff, dtype=float)
    return float(z * diff.std(ddof=1) * math.sqrt(diff.size))


@functools.cache
def _all_level_indices(n_real: int) -> np.ndarray:
    """Every k in {0..3}^n_real; 16-QAM levels are s = 2k - 3 per real dimension."""
    return np.array(list(itertools.product(range(4), repeat=n_real)), dtype=float)


def qam_residual(h: np.ndarray, y: np.ndarray, symbols: np.ndarray) -> float:
    """||H x - y||^2 for a complex symbol vector x."""
    r = h @ symbols - y
    return float(np.vdot(r, r).real)


def exhaustive_min_residual(h: np.ndarray, y: np.ndarray) -> float:
    """min ||H x - y||^2 over all 16-QAM vectors, searched as integer CVP.

    Realified B = [[Re H, -Im H], [Im H, Re H]]; with x = 2k - 3 the residual
    is ||2 B k - (y_r + 3 B 1)||^2 over k in {0..3}^(2 n_tx).
    """
    b = np.block([[h.real, -h.imag], [h.imag, h.real]])
    target = np.concatenate([y.real, y.imag]) + 3.0 * b.sum(axis=1)
    resid = _all_level_indices(b.shape[0]) @ (2.0 * b).T - target
    return float(np.einsum("ij,ij->i", resid, resid).min())
