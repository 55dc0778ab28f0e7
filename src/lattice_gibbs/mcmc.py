"""Markov-chain kernels targeting a lattice Gaussian: random-scan Gibbs and
the blocked Gibbs-Klein kernel, plus chain execution helpers.

Both kernels are one block step: resample a block S of coordinates, given the
rest, by one backward Klein pass on the block's Gram-Cholesky conditional
(`klein.block_conditional`). Gibbs takes S = {i} for a uniform i, the exact
1-D conditional; Gibbs-Klein takes the first m entries of a uniform
permutation, i.e. Klein's pass on the permuted basis's leading block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import dgauss1d as dg
from .dgauss1d import Gaussian1DParams
from .klein import GaussianParams, backward_pmf, backward_sample_into, block_conditional
from .klein import lattice_draw
from .linalg import LatticeBasis, check_permutation
from .oracle import DiscreteDistribution

MAX_KERNEL_ENUM_DIM = 7


@dataclass(frozen=True)
class GibbsKleinConfig:
    """A chain's settings; G = B^T B and B^T c are derived once. Gibbs ignores block_size."""

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


def start_state(x0, n: int) -> np.ndarray:
    """x0 as an (n,) int64 row; a wrong length or a non-integer entry raises ValueError.

    The messages name the CLI's --x0 flag, which this check also serves.
    """
    x = np.asarray(x0)
    if x.shape != (n,):
        raise ValueError(f"--x0 must have {n} entries, got shape {x.shape}")
    if not np.issubdtype(x.dtype, np.integer):
        x = x.astype(float)
        if not (np.isfinite(x) & (x == np.round(x)) & (np.abs(x) < 2.0**63)).all():
            raise ValueError(f"--x0 entries must be integers, got {x0}")
    return x.astype(np.int64)


def gibbs_conditional(basis: LatticeBasis, target: GaussianParams, x, i: int) -> Gaussian1DParams:
    """P(x_i | x_[-i]): a 1-D discrete Gaussian, evaluated by `dg.pmf`."""
    cfg = GibbsKleinConfig(basis, target, 1)
    rest = [j for j in range(basis.n) if j != i]
    (u,), (c,) = block_conditional(cfg.gram, cfg.bc, np.asarray(x, float).tolist(), [i], rest)
    return Gaussian1DParams(target.sigma / u[0], c / u[0])


def _block_step(
    cfg: GibbsKleinConfig,
    x: "list[int]",
    block: "list[int]",
    rest: "list[int]",
    rng: np.random.Generator,
) -> None:
    """Resample x[block] in place by one backward Klein pass given x[rest]."""
    u, c = block_conditional(cfg.gram, cfg.bc, x, block, rest)
    z = [0] * len(block)
    backward_sample_into(u, c, cfg.target.sigma, z, rng, lattice_draw)
    for j, v in zip(block, z):
        x[j] = v


def gibbs_step(cfg: GibbsKleinConfig, x: "list[int]", rng: np.random.Generator) -> None:
    """Resample one uniformly chosen coordinate of x in place from its conditional."""
    i = int(rng.integers(cfg.basis.n))
    rest = [j for j in range(cfg.basis.n) if j != i]
    _block_step(cfg, x, [i], rest, rng)


def gibbs_kernel_prob(basis: LatticeBasis, target: GaussianParams, s_i, s_j) -> float:
    """One-step transition probability of random-scan Gibbs from s_i to s_j.

    Zero beyond single-coordinate moves; the diagonal aggregates the
    resample-to-same-value mass of every coordinate.
    """
    a = np.asarray(s_i, dtype=np.int64)
    b = np.asarray(s_j, dtype=np.int64)
    diff = np.nonzero(a != b)[0]
    n = basis.n
    if diff.size >= 2:
        return 0.0
    if diff.size == 1:
        k = int(diff[0])
        return dg.pmf(gibbs_conditional(basis, target, a, k), int(b[k])) / n
    return sum(dg.pmf(gibbs_conditional(basis, target, a, k), int(a[k])) for k in range(n)) / n


def gibbs_klein_step(cfg: GibbsKleinConfig, x: "list[int]", rng: np.random.Generator) -> None:
    """One blocked update in place: permute, Klein-sample the first block_size coordinates."""
    order = rng.permutation(cfg.basis.n).tolist()
    m = cfg.block_size
    _block_step(cfg, x, order[:m], order[m:], rng)


def gibbs_klein_block_pmf(
    cfg: GibbsKleinConfig,
    order,
    z_block_new: np.ndarray,
    z_rest: np.ndarray,
) -> float:
    """Exact probability the block pass outputs z_block_new given z_rest.

    `order` lists all n coordinates: the block order[:m], then the rest
    order[m:], which z_rest follows.
    """
    m = cfg.block_size
    z_block_new = np.asarray(z_block_new, dtype=float)
    z_rest = np.asarray(z_rest, dtype=float)
    if z_block_new.shape != (m,) or z_rest.shape != (cfg.basis.n - m,):
        raise ValueError("block/rest shapes do not match the configured split")
    order = check_permutation(order, cfg.basis.n)
    block, rest = order[:m], order[m:]
    u, c = block_conditional(cfg.gram, cfg.bc, dict(zip(rest, z_rest.tolist())), block, rest)
    return backward_pmf(np.array(u), np.array(c), cfg.target.sigma, z_block_new, m)


def gibbs_klein_kernel_prob(cfg: GibbsKleinConfig, s_i, s_j) -> float:
    """One-step Gibbs-Klein transition probability, averaged over ordered blocks.

    A uniform permutation's first m entries are a uniform ordered block, and
    the block pmf does not depend on the order of the rest, so the average
    runs over the n!/(n-m)! ordered blocks. Exact enumeration, intended for
    kernel-level verification at small n.
    """
    n = cfg.basis.n
    if n > MAX_KERNEL_ENUM_DIM:
        raise ValueError(f"kernel enumeration limited to n <= {MAX_KERNEL_ENUM_DIM}")
    a = [int(v) for v in s_i]
    b = [int(v) for v in s_j]
    blocks = list(itertools.permutations(range(n), cfg.block_size))
    total = 0.0
    for block in blocks:
        rest = [j for j in range(n) if j not in block]
        if all(a[j] == b[j] for j in rest):
            total += gibbs_klein_block_pmf(
                cfg, [*block, *rest], [b[j] for j in block], [b[j] for j in rest]
            )
    return total / len(blocks)


def run_chain(
    kernel: str,
    basis: LatticeBasis,
    target: GaussianParams,
    x0,
    steps: int,
    rng: np.random.Generator,
    *,
    block_size: "int | None" = None,
) -> np.ndarray:
    """Apply the chosen kernel `steps` times from x0.

    Returns the (steps + 1, n) int64 array of states; row t is the state
    after t steps, row 0 is x0.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if kernel == "gibbs":
        step, cfg = gibbs_step, GibbsKleinConfig(basis, target, 1)
    elif kernel == "gibbs-klein":
        if block_size is None:
            raise ValueError("gibbs-klein kernel requires block_size")
        step, cfg = gibbs_klein_step, GibbsKleinConfig(basis, target, block_size)
    else:
        raise ValueError(f"unknown kernel {kernel!r} (expected 'gibbs' or 'gibbs-klein')")
    x = start_state(x0, basis.n).tolist()
    states = np.empty((steps + 1, len(x)), dtype=np.int64)
    states[0] = x
    for t in range(1, steps + 1):
        step(cfg, x, rng)
        states[t] = x
    return states


def gibbs_ensemble(
    basis: LatticeBasis,
    target: GaussianParams,
    x0,
    n_chains: int,
    steps: int,
    rng: np.random.Generator,
    *,
    record_at: "tuple[int, ...]" = (),
    pool_from: "int | None" = None,
) -> tuple[dict[int, np.ndarray], "DiscreteDistribution | None"]:
    """Run many independent Gibbs chains in lockstep, vectorized across chains.

    Same kernel as `gibbs_step`, grouped by chosen coordinate per step so the
    1-D draws batch. Returns snapshots of the (n_chains, n) state array at the
    requested times and, if `pool_from` is set, the law of the states pooled
    over all chains and all steps t > pool_from.
    """
    n = basis.n
    if pool_from is not None and pool_from >= steps:
        raise ValueError(f"pool_from must be below steps = {steps}, got {pool_from}")
    x = np.tile(start_state(x0, n), (n_chains, 1))
    col_nrm2 = np.einsum("ij,ij->j", basis.matrix, basis.matrix)
    alphas = target.sigma / np.sqrt(col_nrm2)
    resid = x @ basis.matrix.T - target.center  # running Bx - c per chain
    snapshots: dict[int, np.ndarray] = {}
    pool = []  # (distinct states, counts) of each pooled step
    if 0 in record_at:
        snapshots[0] = x.copy()
    for t in range(1, steps + 1):
        coords = rng.integers(0, n, size=n_chains)
        for i in range(n):
            rows = np.nonzero(coords == i)[0]
            if rows.size == 0:
                continue
            col = basis.matrix[:, i]
            centers = x[rows, i] - (resid[rows] @ col) / col_nrm2[i]
            new_vals = dg.sample_rows(alphas[i], centers, rng)
            resid[rows] += np.outer(new_vals - x[rows, i], col)
            x[rows, i] = new_vals
        if t in record_at:
            snapshots[t] = x.copy()
        if pool_from is not None and t > pool_from:
            pool.append(np.unique(x, axis=0, return_counts=True))
    if pool_from is None:
        return snapshots, None
    rows, inverse = np.unique(np.concatenate([u for u, _ in pool]), axis=0, return_inverse=True)
    counts = np.bincount(inverse.ravel(), weights=np.concatenate([c for _, c in pool]))
    return snapshots, DiscreteDistribution(rows, counts / counts.sum())
