"""Markov-chain kernels targeting a lattice Gaussian: random-scan Gibbs and
the blocked Gibbs-Klein kernel, plus chain execution helpers.

Both kernels are one block step: resample a block S of coordinates, given the
rest, by one backward Klein pass on the block's Gram-Cholesky conditional
(`klein.block_conditional`). Gibbs takes S = {i} for a uniform i, the exact
1-D conditional; Gibbs-Klein takes the first m entries of a uniform order,
i.e. Klein's pass on the permuted basis's leading block. A step takes only
uniforms from its stream, as many whatever the state (`_step_draws`), and
hands each 1-D draw its uniform (`klein.backward_sample_into`).

`_chain_block` runs consecutive steps of one chain, bit for bit with the
scalar steps: it takes its steps' uniforms in one call, forms in numpy all
that reads no state, and runs per step the scalar step's centers and pass
(`klein.block_centers`, `klein.backward_sample_into`). The 1-D draw
draw(alpha, center, u) is its argument: `run_chain` passes a draw over Z
that keeps a memo of walked windows, and the MIMO sampler decoders (`mimo`)
a draw over {0..3}. At m = n `run_chain`'s steps are instead rows of
`_block_step_rows`, the step over rows that the Gibbs-Klein ensemble's
chains take together.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from bisect import bisect_left

import numpy as np

from . import dgauss1d as dg
from .klein import (
    GaussianParams,
    GibbsKleinConfig,
    backward_pmf,
    backward_pmf_many,
    backward_rows,
    backward_sample_into,
    block_centers,
    block_conditional,
    block_conditional_rows,
    block_factor_rows,
)
from .linalg import LatticeBasis
from .oracle import DiscreteDistribution

MAX_KERNEL_ENUM_DIM = 7
# Steps per `run_chain` block: about this many entries in each step's (n, n)
# factor or its 1-D window (under LOOP_MAX_POINTS), so memory stays flat in
# the number of steps. 1,024 steps at n = 8, which ran 4,000 benchmark steps
# of the m = n chain at about 91k steps/s where 128-step blocks made 50-70k.
ROW_BLOCK_ENTRIES = 2**16
# Walked windows (`dg.running_weights`, keyed by (alpha, center)) one
# `run_chain` call keeps at most; a full memo is cleared. 1,024 windows of at
# most 63 points are about 2 MB.
WINDOW_MEMO_ENTRIES = 1024


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
    """Resample x[block] in place by one backward Klein pass given x[rest],
    on the block's uniforms from one rng.random(m) call."""
    u, c = block_conditional(cfg.gram, cfg.bc, x, block, rest)
    z = [0] * len(block)
    backward_sample_into(u, c, cfg.target.sigma, z, rng.random(len(block)).tolist(), _draw_z)
    for j, v in zip(block, z):
        x[j] = v


def _draw_z(alpha: float, center: float, u: float) -> int:
    """`dg.sample`'s draw on the uniform u: its checks, then `dg.invert`."""
    dg._check(alpha, center)
    return dg.invert(alpha, dg._checked_half(alpha), center, u)


def gibbs_step(cfg: GibbsKleinConfig, x: "list[int]", rng: np.random.Generator) -> None:
    """Resample one uniformly chosen coordinate of x in place from its conditional."""
    i = int(rng.random() * cfg.basis.n)
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
    order = np.argsort(rng.random(cfg.basis.n), kind="stable").tolist()
    m = cfg.block_size
    _block_step(cfg, x, order[:m], order[m:], rng)


def _step_draws(rngs, k: int, n: int, m: int, gibbs: bool = False):
    """The one stream layout of every chain step, for k steps on rngs: one
    stream they share, or a list of streams that each take k steps (axis 1
    of the results). A step takes only uniforms, as many whatever the state.
    Gibbs takes 2: coordinate int(w0 * n), then its 1-D draw's w1, as (k,)
    int64 and (k, 1). Gibbs-Klein takes n + m: the order argsort(w[:n])
    (stable), whose first m entries are the block, then its m 1-D draws'
    uniforms in draw order, as (k, n) and (k, m). On every bit generator
    one `random((k, width))` call takes what k * width `random()` calls do.
    """
    width = 2 if gibbs else n + m
    if isinstance(rngs, np.random.Generator):
        w = rngs.random((k, width))
    else:
        w = np.stack([rng.random((k, width)) for rng in rngs], axis=1)
    if gibbs:
        return (w[..., 0] * n).astype(np.int64), w[..., 1:]
    return np.argsort(w[..., :n], axis=-1, kind="stable"), w[..., n:]


def _block_step_rows(cfg: GibbsKleinConfig, x: np.ndarray, perm: np.ndarray,
                     us: np.ndarray) -> None:
    """One Gibbs-Klein step on every row of the (k, n) int64 state array x in
    place: row r resamples x[r, perm[r, :m]] given x[r, perm[r, m:]], its 1-D
    draws inverting us[r] in draw order, as `_step_draws` gives them.

    `block_conditional_rows`, `backward_rows` and `dg.sample_from_uniforms`
    each equal the scalar step bit for bit. At m = n no entry of x is read.
    """
    m, k = us.shape[1], len(x)
    # overflow gives inf silently, as in Python floats; the 1-D draw rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        u, c = block_conditional_rows(cfg.gram, cfg.bc, x, perm[:, :m], perm[:, m:])
        z = np.empty((k, m), dtype=np.int64)
        for i, rii, centers in backward_rows(u, c, z):  # one uniform per draw
            z[:, i] = dg.sample_from_uniforms(cfg.target.sigma / rii, centers, us[:, m - 1 - i])
    x[np.arange(k)[:, None], perm[:, :m]] = z


def _chain_block(gram: "list[list[float]]", bc: "list[float]", sigma: float, m: int,
                 gibbs: bool, states: np.ndarray, rng, draw) -> None:
    """Fill states[1:] with the steps of one chain on G = gram and B^T c = bc
    that follow states[0], taking from rng what the scalar steps take
    (`gibbs_step` if gibbs, else `gibbs_klein_step` with block size m).
    draw(alpha, center, u) is the 1-D draw on the uniform u. With
    `run_chain`'s draw over Z the states are the scalar steps' bit for bit,
    and any input a scalar step refuses raises a ValueError here too, though
    not necessarily that step's.

    1. The stream: every step's uniforms, in one call (`_step_draws`).
    2. What reads no state, over all steps (Gibbs: all coordinates) at once:
       the ordered blocks and rests, their factors (`block_factor_rows`) and
       alphas, checked as `dg.sample` checks them.
    3. Per step, in Python: the scalar step's centers and pass on the step's
       uniforms, `block_centers` and `backward_sample_into` (at m = 1
       unrolled).
    """
    n, k = len(gram), len(states) - 1
    if gibbs:  # one row per coordinate i: block [i], rest ascending
        coords, us = _step_draws(rng, k, n, 1, gibbs)
        coords = coords.tolist()
        perm = np.array([[i] + [j for j in range(n) if j != i] for i in range(n)])
    else:  # one row per step
        perm, us = _step_draws(rng, k, n, m)
    with np.errstate(over="ignore", invalid="ignore"):
        u = block_factor_rows(gram, perm[:, :m])
        alphas = sigma / np.diagonal(u, axis1=1, axis2=2)
    dg.checked_halves(alphas)  # every draw's alpha check, the {0..3} draw's too
    if m == 1:  # scalars for the unrolled loop
        rows, us = (perm[:, 0], perm[:, 1:], u[:, 0, 0], alphas[:, 0]), us[:, 0]
    else:
        rows = (perm[:, :m], perm[:, m:], u)
    rows = [col.tolist() for col in rows]
    if gibbs:  # step t reads row i_t
        rows = [map(col.__getitem__, coords) for col in rows]
    steps = zip(*rows, us.tolist())
    x = states[0].tolist()
    out = []  # the states after each step, flat
    if m == 1:  # block_centers and backward_sample_into, unrolled
        for b, rest, r, a, v in steps:
            gb = gram[b]
            acc = bc[b]
            for j in rest:
                acc -= gb[j] * x[j]
            x[b] = draw(a, acc / r / r, v)
            out.extend(x)
    else:
        z = [0] * m
        for block, rest, f, v in steps:
            backward_sample_into(f, block_centers(gram, bc, x, block, rest, f), sigma, z, v, draw)
            for b, zb in zip(block, z):
                x[b] = zb
            out.extend(x)
    states[1:] = np.array(out, dtype=np.int64).reshape(k, n)


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

    The steps run in blocks of consecutive steps, about ROW_BLOCK_ENTRIES
    entries each, that take from rng in step order: the states and the
    stream are the scalar step loop's, whatever the block size. A block is
    `_chain_block` with this call's 1-D draw over Z, or at m = n rows of
    `_block_step_rows`. A block that raises is redone by the scalar steps,
    which raise the first bad step's own error.

    The draw keeps a memo of the windows walked in this call, so a window
    the chain meets again is drawn without its exp calls. It holds at most
    WINDOW_MEMO_ENTRIES windows of under LOOP_MAX_POINTS points (a wider one
    goes to `dg.invert`'s one-row kernel, whose weights a walk might round
    apart from), is cleared when full, and is dropped on return: memory
    stays flat in the steps and in sigma, and no call sees another's windows.
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
    per = max(1, ROW_BLOCK_ENTRIES // max(n * n, dg.LOOP_MAX_POINTS))
    gibbs, m = kernel == "gibbs", cfg.block_size
    big, loop, cap, walk, invert, half = (dg.MAX_CENTER, dg.LOOP_MAX_POINTS, WINDOW_MEMO_ENTRIES,
                                          dg.running_weights, dg.invert, dg._checked_half)
    memo = {}  # (alpha, center) -> `dg.running_weights`' walk of that window

    def draw(a, center, v):  # `dg.invert`'s draw; a kept window passed the check
        pair = memo.get((a, center))
        if pair is None:
            if not -big < center < big:  # also NaN
                dg._check(a, center)  # raises `dg.sample`'s error
            h = half(a)
            if 2 * h >= loop:
                return invert(a, h, center, v)
            if len(memo) >= cap:  # walk the window and keep it
                memo.clear()
            memo[a, center] = pair = walk(a, h, center)
        return pair[0] + bisect_left(pair[1], v * pair[1][-1])

    done = 0  # steps drawn in blocks
    try:
        for done in range(0, steps, per):
            saved = rng.bit_generator.state
            block = states[done : done + 1 + per]
            if not gibbs and m == n:
                perm, us = _step_draws(rng, len(block) - 1, n, m)
                _block_step_rows(cfg, block[1:], perm, us)
            else:
                _chain_block(cfg.gram, cfg.bc, target.sigma, m, gibbs, block, rng, draw)
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
    1-D draws batch, and the same centers bit for bit: `block_conditional`'s
    for the block [i]. Returns snapshots of the (n_chains, n) state array at the
    requested times and, if `pool_from` is set, the law of the states pooled
    over all chains and all steps t > pool_from.
    """
    n = basis.n
    if pool_from is not None and pool_from >= steps:
        raise ValueError(f"pool_from must be below steps = {steps}, got {pool_from}")
    x = np.tile(start_state(x0, n), (n_chains, 1))
    cfg = GibbsKleinConfig(basis, target, 1)
    roots = [math.sqrt(g[i]) for i, g in enumerate(cfg.gram)]
    rests = [[j for j in range(n) if j != i] for i in range(n)]
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
            acc = np.full(rows.size, cfg.bc[i])  # block_conditional's center for [i]
            with np.errstate(over="ignore", invalid="ignore"):  # sample_rows rejects inf
                for j in rests[i]:
                    acc -= cfg.gram[i][j] * x[rows, j]
                centers = acc / roots[i] / roots[i]
            x[rows, i] = dg.sample_rows(target.sigma / roots[i], centers, rng)
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

    Each chain takes a block of steps' uniforms (`_step_draws`, about
    ROW_BLOCK_ENTRIES entries over all chains) in one call, and each step is
    one `_block_step_rows` call over the chains, bit for bit the scalar step:
    chain i's states are `run_chain`'s on rngs[i], whatever the chain count.
    """
    cfg = GibbsKleinConfig(basis, target, block_size)
    if not rngs:
        raise ValueError("need at least one chain")
    marks = set(checkpoints)
    if not marks or min(marks) < 0:
        raise ValueError(f"need at least one checkpoint, each t >= 0, got {checkpoints}")
    x = np.tile(start_state(x0, basis.n), (len(rngs), 1))
    snaps = {0: x.copy()} if 0 in marks else {}
    per = max(1, ROW_BLOCK_ENTRIES // (len(rngs) * basis.n**2))  # steps drawn at once
    for start in range(0, max(marks), per):
        orders, us = _step_draws(rngs, min(per, max(marks) - start), basis.n, block_size)
        for t, order, u in zip(itertools.count(start + 1), orders, us):
            _block_step_rows(cfg, x, order, u)
            if t in marks:
                snaps[t] = x.copy()
    return snaps
