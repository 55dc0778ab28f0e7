"""The per-step MIMO sampler decoder, kept as the reference that
`mimo._decode_checkpoints` (which runs in blocks of steps) must equal on
decisions and on the stream position it leaves.

Each step here calls `klein.block_conditional` and
`klein.backward_sample_into`, and takes its uniforms from the stream one
`rng.random()` call at a time, on the chains' layout: a Gibbs step's
coordinate is int(u * n) and its block [i], a Gibbs-Klein step's order the
stable argsort of n uniforms, and every 1-D draw takes one uniform. Every
visited state is costed by `mimo._costs` and compared with the best so far
as it is visited.
"""

from __future__ import annotations

import math

import numpy as np

from lattice_gibbs.klein import backward_sample_into, block_conditional
from lattice_gibbs.mimo import SAMPLER_DECODERS, _coeffs_to_symbols, _costs, _TrialLattice


def _draw_restricted4(alpha: float, center: float, u: float) -> int:
    """One draw of D_{Z,alpha,center} restricted to {0, 1, 2, 3}, by inversion.

    Weights are taken relative to the largest one; the uniform u picks the
    first point whose cumulative weight reaches u times the total.
    """
    den = 2.0 * alpha * alpha
    d1, d2, d3 = 1.0 - center, 2.0 - center, 3.0 - center
    l0 = -(center * center) / den
    l1 = -(d1 * d1) / den
    l2 = -(d2 * d2) / den
    l3 = -(d3 * d3) / den
    top = max(l0, l1, l2, l3)
    c0 = math.exp(l0 - top)
    c1 = c0 + math.exp(l1 - top)
    c2 = c1 + math.exp(l2 - top)
    v = u * (c2 + math.exp(l3 - top))
    return 0 if v <= c0 else 1 if v <= c1 else 2 if v <= c2 else 3


def _decode_checkpoints(
    lat: _TrialLattice,
    strategy: str,
    budgets: tuple[int, ...],
    rng: np.random.Generator,
    block_size: "int | None" = None,
) -> dict[int, np.ndarray]:
    """Run one sampler chain, returning the best-visited point at each budget.

    One iteration samples n = 2 n_tx components: n coordinate steps for gibbs,
    n/m block steps for gibbs-klein, one full backward pass for klein.
    """
    if strategy not in SAMPLER_DECODERS:
        raise ValueError(f"unknown sampler strategy {strategy!r}")
    n = len(lat.gt)
    if strategy == "gibbs-klein" and not (block_size is not None and 1 <= block_size <= n):
        raise ValueError(f"gibbs-klein decoding needs a block size in [1, {n}], got {block_size}")
    sigma, gram, gt = lat.sigma, lat.gram, lat.gt
    k = lat.k_zf.tolist()
    best_k, best_cost = k[:], lat.cost_zf

    def step(block, rest) -> None:  # one block step on k, then its cost
        nonlocal best_k, best_cost
        u, c = block_conditional(gram, gt, k, block, rest)
        z = [0] * len(block)
        us = [rng.random() for _ in block]  # in draw order
        backward_sample_into(u, c, sigma, z, us, _draw_restricted4)
        for i, v in zip(block, z):
            k[i] = v
        cost = _costs(lat.g, lat.t, np.array([k]))[0]
        if cost < best_cost:
            best_cost, best_k = cost, k[:]

    results: dict[int, np.ndarray] = {}
    for iteration in range(1, max(budgets) + 1):
        if strategy == "klein":  # the block 0..n-1, whose centers read no state
            step(list(range(n)), [])
        elif strategy == "gibbs":
            for _ in range(n):
                i = int(rng.random() * n)
                step([i], [j for j in range(n) if j != i])
        else:
            for _ in range(-(-n // block_size)):
                order = sorted(range(n), key=[rng.random() for _ in range(n)].__getitem__)
                step(order[:block_size], order[block_size:])
        if iteration in budgets:
            results[iteration] = _coeffs_to_symbols(best_k)
    return results
