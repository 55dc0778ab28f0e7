"""The per-coordinate Gibbs ensemble, kept as the reference that
`mcmc.gibbs_ensemble` (one grouped 1-D draw over all chains a step) must
equal on every snapshot, on the pooled law, on the stream position it leaves
and on the errors it raises.

Each step draws every chain's coordinate with one rng.integers(0, n) call,
then goes through the coordinates in turn: coordinate i's chains, in
ascending order, get `block_conditional`'s centers for the block [i],
subtracted one term at a time, and one `dgauss1d.sample_rows` call, which
checks them and takes their uniforms with one rng.random call.
"""

from __future__ import annotations

import math

import numpy as np

from lattice_gibbs import dgauss1d as dg
from lattice_gibbs.klein import GibbsKleinConfig
from lattice_gibbs.mcmc import start_state
from lattice_gibbs.oracle import DiscreteDistribution


def gibbs_ensemble(basis, target, x0, n_chains, steps, rng, *, record_at=(), pool_from=None):
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
