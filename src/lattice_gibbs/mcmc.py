"""Markov-chain kernels targeting a lattice Gaussian: random-scan Gibbs and
the blocked Gibbs-Klein kernel, plus chain execution helpers.

Both kernels are one block step: resample a block S of coordinates, given the
rest, by one backward Klein pass on the block's Gram-Cholesky conditional
(`klein.block_conditional`). Gibbs takes S = {i} for a uniform i, the exact
1-D conditional; Gibbs-Klein takes the first m entries of a uniform
permutation, i.e. Klein's pass on the permuted basis's leading block.

`_block_step_rows` is the same step over rows, each row on its own stream,
bit for bit: the Gibbs-Klein ensemble's rows are chains. At m = n no step
reads the chain state, so `run_chain` draws consecutive steps of one chain as
rows, in blocks of about ROW_BLOCK_ENTRIES entries: on the 8-D benchmark
chain 52k steps/s where the scalar step made 11k.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from . import dgauss1d as dg
from .klein import (
    GaussianParams,
    GibbsKleinConfig,
    backward_pmf,
    backward_pmf_many,
    backward_rows,
    backward_sample_into,
    block_conditional,
    block_conditional_rows,
)
from .linalg import LatticeBasis
from .oracle import DiscreteDistribution

MAX_KERNEL_ENUM_DIM = 7
# Rows per block of a state-free `run_chain` (m = n): about this many entries
# in each row's (n, n) factor or its 1-D window (under LOOP_MAX_POINTS), so
# memory stays flat in the number of steps. 1,024 rows at n = 8, which ran
# 4,000 benchmark steps at about 91k steps/s where 128-row blocks made 50-70k.
ROW_BLOCK_ENTRIES = 2**16


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


def gibbs_conditional(cfg: GibbsKleinConfig, x, i: int) -> tuple[float, float]:
    """P(x_i | x_[-i]): the (alpha, center) of a 1-D discrete Gaussian, as
    `dg.pmf` and `dg.pmf_table` take them."""
    rest = [j for j in range(cfg.basis.n) if j != i]
    (u,), (c,) = block_conditional(cfg.gram, cfg.bc, np.asarray(x, float).tolist(), [i], rest)
    return cfg.target.sigma / u[0], c / u[0]


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
    backward_sample_into(u, c, cfg.target.sigma, z, rng, dg.sample)
    for j, v in zip(block, z):
        x[j] = v


def gibbs_step(cfg: GibbsKleinConfig, x: "list[int]", rng: np.random.Generator) -> None:
    """Resample one uniformly chosen coordinate of x in place from its conditional."""
    i = int(rng.integers(cfg.basis.n))
    rest = [j for j in range(cfg.basis.n) if j != i]
    _block_step(cfg, x, [i], rest, rng)


def gibbs_kernel_prob(cfg: GibbsKleinConfig, s_i, s_j) -> float:
    """One-step transition probability of random-scan Gibbs from s_i to s_j:
    one pair of `kernel_probs` with block size 1, whatever cfg.block_size.

    Zero beyond single-coordinate moves; the diagonal aggregates the
    resample-to-same-value mass of every coordinate.
    """
    if cfg.block_size != 1:
        cfg = dataclasses.replace(cfg, block_size=1)
    return float(kernel_probs(cfg, [s_i], [s_j])[0])


def gibbs_klein_step(cfg: GibbsKleinConfig, x: "list[int]", rng: np.random.Generator) -> None:
    """One blocked update in place: permute, Klein-sample the first block_size coordinates."""
    order = rng.permutation(cfg.basis.n).tolist()
    m = cfg.block_size
    _block_step(cfg, x, order[:m], order[m:], rng)


def _block_step_rows(cfg: GibbsKleinConfig, x: np.ndarray, rngs) -> None:
    """One Gibbs-Klein step on every row of the (k, n) int64 state array x in
    place, row r on the stream rngs[r].

    Row r takes from its stream what `gibbs_klein_step` and its 1-D draws
    take, a permutation of n and then block_size uniforms, and goes through
    `block_conditional_rows`, `backward_rows` and `dg.sample_from_uniforms`,
    each equal to the scalar step bit for bit. Rows may share one stream
    (`itertools.repeat(rng)`): they then draw in row order. At m = n no entry
    of x is read.
    """
    n, m, k = cfg.basis.n, cfg.block_size, len(x)
    perm, us = np.tile(np.arange(n), (k, 1)), np.empty((k, m))
    for row, row_us, rng in zip(perm, us, rngs):
        rng.shuffle(row)  # what rng.permutation(n) does to arange(n)
        rng.random(out=row_us)
    # overflow gives inf silently, as in Python floats; the 1-D draw rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        u, c = block_conditional_rows(cfg.gram, cfg.bc, x, perm[:, :m], perm[:, m:])
        z = np.empty((k, m), dtype=np.int64)
        for i, rii, centers in backward_rows(u, c, z):  # one uniform per draw
            z[:, i] = dg.sample_from_uniforms(cfg.target.sigma / rii, centers, us[:, m - 1 - i])
    x[np.arange(k)[:, None], perm[:, :m]] = z


def gibbs_klein_block_pmf(cfg: GibbsKleinConfig, block, x) -> float:
    """Exact probability that the block pass over `block` outputs x[block],
    given the other coordinates of the state row x."""
    n, m = cfg.basis.n, cfg.block_size
    block = [int(j) for j in block]
    rest = [j for j in range(n) if j not in block]
    x = np.asarray(x, dtype=float)
    if len(block) != m or len(rest) != n - m or x.shape != (n,):
        raise ValueError(f"need {m} distinct block indices in [0, {n}) and a state of {n} entries")
    u, c = block_conditional(cfg.gram, cfg.bc, x.tolist(), block, rest)
    return backward_pmf(np.array(u), np.array(c), cfg.target.sigma, x[block], m)


def gibbs_klein_kernel_prob(cfg: GibbsKleinConfig, s_i, s_j) -> float:
    """One-step Gibbs-Klein transition probability from s_i to s_j: one pair of
    `kernel_probs`."""
    return float(kernel_probs(cfg, [s_i], [s_j])[0])


def kernel_probs(cfg: GibbsKleinConfig, from_rows, to_rows) -> np.ndarray:
    """One-step probability of the Gibbs-Klein kernel with cfg.block_size from
    each row of from_rows to the same row of to_rows, as a (P,) array.

    A uniform permutation's first m entries are a uniform ordered block, and
    the block pmf does not depend on the order of the rest, so the kernel is
    the average over the n!/(n-m)! ordered blocks of the pass's pmf, counted
    where the rows agree outside the block. Block size 1 is random-scan Gibbs.
    Each block's factor and centers come from one `block_conditional_rows`
    call on the rows that agree outside it, and its pmf from one
    `backward_pmf_many` pass, so every entry equals the per-pair sum of
    `gibbs_klein_block_pmf` bit for bit. Exact enumeration, intended for
    kernel-level verification at small n.
    """
    n, m = cfg.basis.n, cfg.block_size
    if m > 1 and n > MAX_KERNEL_ENUM_DIM:
        raise ValueError(f"kernel enumeration limited to n <= {MAX_KERNEL_ENUM_DIM}")
    a = np.asarray(from_rows, dtype=np.int64)
    b = np.asarray(to_rows, dtype=np.int64)
    if a.ndim != 2 or a.shape[1] != n or b.shape != a.shape:
        raise ValueError(f"need two (P, {n}) arrays of state rows, got {a.shape} and {b.shape}")
    x = b.astype(float)
    moved = a != b
    blocks = list(itertools.permutations(range(n), m))
    total = np.zeros(len(x))
    for block in blocks:
        rest = [j for j in range(n) if j not in block]
        rows = np.nonzero(~moved[:, rest].any(axis=1))[0]
        xr = x[rows]
        block_cols = np.broadcast_to(np.array(block, dtype=np.intp), (len(rows), m))
        rest_cols = np.broadcast_to(np.array(rest, dtype=np.intp), (len(rows), n - m))
        u, c = block_conditional_rows(cfg.gram, cfg.bc, xr, block_cols, rest_cols)
        if rows.size:  # every row on this block shares its factor u[0]
            total[rows] += backward_pmf_many(u[0], c, cfg.target.sigma, xr[:, block], m)
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

    Gibbs-Klein at block_size n reads no state, so its steps are drawn as
    rows of `_block_step_rows`, written straight into the states, in blocks
    of consecutive steps that all take from rng in step order: the states
    and the stream are the scalar loop's, whatever the block size. A block
    that raises is redone by the scalar steps, which raise the first bad
    step's own error. Every other kernel runs one scalar step at a time.
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
    n = basis.n
    states = np.empty((steps + 1, n), dtype=np.int64)
    states[0] = start_state(x0, n)
    done = 0  # steps drawn as rows
    if kernel == "gibbs-klein" and cfg.block_size == n:
        per = max(1, ROW_BLOCK_ENTRIES // max(n * n, dg.LOOP_MAX_POINTS))
        try:
            for done in range(0, steps, per):
                saved = rng.bit_generator.state
                _block_step_rows(cfg, states[done + 1 : done + 1 + per], itertools.repeat(rng))
            done = steps
        except ValueError:  # the scalar steps below redo the block and raise
            rng.bit_generator.state = saved
    x = states[done].tolist()
    for t in range(done + 1, steps + 1):
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
    cfg = GibbsKleinConfig(basis, target, 1)
    gram, bc = np.array(cfg.gram), np.array(cfg.bc)
    alphas = target.sigma / np.sqrt(np.diag(gram))
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
            # conditional center x_i + (B^T c - G x)_i / G_ii
            centers = x[rows, i] + (bc[i] - x[rows] @ gram[:, i]) / gram[i, i]
            x[rows, i] = dg.sample_rows(alphas[i], centers, rng)
        if t in record_at:
            snapshots[t] = x.copy()
        if pool_from is not None and t > pool_from:
            pool.append(np.unique(x, axis=0, return_counts=True))
    if pool_from is None:
        return snapshots, None
    rows, inverse = np.unique(np.concatenate([u for u, _ in pool]), axis=0, return_inverse=True)
    counts = np.bincount(inverse.ravel(), weights=np.concatenate([c for _, c in pool]))
    return snapshots, DiscreteDistribution(rows, counts / counts.sum())


def gibbs_klein_ensemble(
    basis: LatticeBasis,
    target: GaussianParams,
    x0,
    block_size: int,
    rngs: "list[np.random.Generator]",
    checkpoints,
) -> dict[int, np.ndarray]:
    """Independent Gibbs-Klein chains from x0 in lockstep, chain i on its own
    stream rngs[i]: the (chains, n) int64 states at each checkpoint t >= 0.

    Each step is one `_block_step_rows` call over the chains, equal to the
    scalar step bit for bit, so chain i's states are `run_chain`'s on
    rngs[i], whatever the number of chains.
    """
    cfg = GibbsKleinConfig(basis, target, block_size)
    if not rngs:
        raise ValueError("need at least one chain")
    marks = set(checkpoints)
    if not marks or min(marks) < 0:
        raise ValueError(f"need at least one checkpoint, each t >= 0, got {checkpoints}")
    x = np.tile(start_state(x0, basis.n), (len(rngs), 1))
    snaps = {0: x.copy()} if 0 in marks else {}
    for t in range(1, max(marks) + 1):
        _block_step_rows(cfg, x, rngs)
        if t in marks:
            snaps[t] = x.copy()
    return snaps
