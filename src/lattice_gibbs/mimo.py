"""Uncoded MIMO detection benchmark: ZF / ML baselines versus lattice Gaussian
sampler decoders on the channel lattice.

Conventions (the textbook ones, fixed here for reproducibility):

* 16-QAM levels {-3,-1,1,3} per real dimension, average symbol energy 10,
  4 bits per symbol, Gray-labeled per real dimension.
* E_b/N_0 handling: E_b = E_s/4, N_0 = E_b 10^(-dB/10), each real noise
  dimension has variance N_0/2.
* Complex model y = Hx + w is realified as [[Re H, -Im H], [Im H, Re H]],
  which preserves Euclidean distances, then rescaled to the integer lattice:
  with symbol levels s = 2k - 3, k in {0..3}, the decoding problem becomes
  CVP(G, t) with G = 2 B_real and t = y_real + 3 B_real 1.
* Sampler decoders run with every 1-D draw restricted to {0..3} and return
  the best (lowest residual) point among all states visited, starting from
  the rounded ZF estimate.

How the decoders are computed:

* ML is an exact meet-in-the-middle search. The antennas split into two
  halves a and b, ||H_a a + H_b b - y||^2 = ||H_a a - y||^2 + ||H_b b||^2
  + 2 Re<H_a a - y, H_b b>, so all 16^n_tx costs form one 16^|a| x 16^|b|
  matrix from a single real GEMM (256 x 256 at n_tx = 4). Its row-major
  argmin is the first candidate in lexicographic order, as in a brute-force
  scan.
* Every sampler decoder is a configuration of the package's block step, on
  G = g^T g and g^T t formed once per trial, with every 1-D draw restricted
  to {0..3} (`_draw_restricted4`): the triangular factor and centers of a
  block S given the rest R (U = chol(G[S,S]), c = U^-T (g^T t[S] - G[S,R]
  k[R]), as `klein.block_conditional` gives them), then Klein's backward
  pass on them. Klein's pass takes S = {0..n-1}, whose factor and centers
  are formed once a trial: one `klein.backward_sample_into` call an
  iteration, on its row of one `random((iters, n))` call. Gibbs takes
  S = {i} for a uniform i, and a Gibbs-Klein step the first m coordinates
  of a fresh uniform order, both run as a chain's steps are
  (`mcmc._chain_block`, on the chains' stream layout). This
  equals the QR of g[:, order] up to rounding, at O(m^3 + nm) scalar work
  per step.
* A decoder runs in blocks of whole iterations, about
  mcmc.ROW_BLOCK_ENTRIES entries each, and picks its best point once a
  block: every visited state is costed by one rule (`_costs`), and at each
  budget the first minimum strictly below the running best wins. The
  decisions and the stream's position are those of the per-step textbook
  formulation, whatever the block size.
* Per trial, the ZF start point and its cost, Klein's factor and centers,
  sigma and the Gram quantities are computed once and shared by every
  sampler decoder.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
import numbers
from dataclasses import dataclass
from math import exp

import numpy as np

from . import mcmc
from .klein import backward_sample_into, block_conditional

QAM16_LEVELS = (-3.0, -1.0, 1.0, 3.0)
BITS_PER_SYMBOL = 4
AVG_SYMBOL_ENERGY = 10.0  # mean |s|^2 over the 16-QAM set
# Gray labels per real level, indexed by k = (level + 3) / 2
GRAY_BITS = ((0, 0), (0, 1), (1, 1), (1, 0))
_GRAY_TABLE = np.array(GRAY_BITS, dtype=np.int8)

SAMPLER_DECODERS = ("klein", "gibbs", "gibbs-klein")
# Largest noise variance per real dimension a config accepts (Eb/N0 about
# -2999.03 dB): a trial's squared residuals, sums of 2 n_rx squared noise
# entries, then stay far below the float maximum of about 1.8e308.
MAX_NOISE_VARIANCE = 1e300


@dataclass(frozen=True)
class MimoConfig:
    n_tx: int = 4
    n_rx: int = 4
    ebn0_db: float = 15.0
    trials: int = 10_000
    iteration_budgets: tuple[int, ...] = (1, 5, 20)
    block_sizes: tuple[int, ...] = (1, 2, 4, 8)
    decoders: tuple[str, ...] = ("zf", "ml", "klein", "gibbs", "gibbs-klein")
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_tx != self.n_rx:
            raise ValueError("square channels only: n_tx must equal n_rx")
        if self.n_tx < 1 or self.trials < 0:
            raise ValueError("bad antenna count or trial count")
        if not math.isfinite(self.ebn0_db):
            raise ValueError(f"ebn0_db must be finite, got {self.ebn0_db}")
        try:
            variance = noise_variance_per_real_dim(self.ebn0_db)
        except OverflowError:
            variance = math.inf
        if not math.isfinite(variance):
            raise ValueError(f"ebn0_db {self.ebn0_db} is too low: the noise variance overflows")
        if variance > MAX_NOISE_VARIANCE:
            raise ValueError(
                f"ebn0_db {self.ebn0_db} is too low: its noise variance {variance:.4g} is above "
                f"{MAX_NOISE_VARIANCE:g}, where squared residuals may overflow"
            )
        known = {"zf", "ml", *SAMPLER_DECODERS}
        unknown = set(self.decoders) - known
        if unknown:
            raise ValueError(f"unknown decoders: {sorted(unknown)}")
        # a repeated entry would run two jobs under one per-trial key
        if len(set(self.decoders)) < len(self.decoders):
            raise ValueError(f"repeated decoders: {list(self.decoders)}")
        if set(self.decoders) & set(SAMPLER_DECODERS):  # only they read the budgets
            _check_integers("iteration_budgets", self.iteration_budgets)
            if any(t < 1 for t in self.iteration_budgets):
                raise ValueError(f"iteration_budgets must be positive, got {self.iteration_budgets}")
        if "gibbs-klein" in self.decoders:  # the only decoder with a block size
            _check_integers("block_sizes", self.block_sizes)
            n_real = 2 * self.n_tx
            if any(not 1 <= m <= n_real for m in self.block_sizes):
                raise ValueError(f"block sizes must lie in [1, {n_real}]")
            if len(set(self.block_sizes)) < len(self.block_sizes):
                raise ValueError(f"repeated block sizes: {list(self.block_sizes)}")


def _check_integers(field: str, values) -> None:
    """Raise a ValueError naming `field` unless values is a non-empty tuple of integers."""
    if not values:
        raise ValueError(f"{field} must not be empty")
    if not all(isinstance(v, numbers.Integral) for v in values):
        raise ValueError(f"{field} must be integers, got {values}")


@dataclass(frozen=True)
class BerRow:
    decoder: str
    block_size: "int | None"
    iterations: "int | None"
    trials: int
    bit_errors: int
    bits: int

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits if self.bits else 0.0


@dataclass(frozen=True)
class BerTable:
    rows: tuple[BerRow, ...]

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("decoder,block_size,iterations,trials,bit_errors,bits,ber\n")
        for r in self.rows:
            bs = "" if r.block_size is None else str(r.block_size)
            it = "" if r.iterations is None else str(r.iterations)
            out.write(
                f"{r.decoder},{bs},{it},{r.trials},{r.bit_errors},{r.bits},{r.ber:.10g}\n"
            )
        return out.getvalue()


def noise_variance_per_real_dim(ebn0_db: float) -> float:
    eb = AVG_SYMBOL_ENERGY / BITS_PER_SYMBOL
    n0 = eb * 10.0 ** (-ebn0_db / 10.0)
    return n0 / 2.0


def complex_to_real_lattice(h: np.ndarray) -> np.ndarray:
    """[[Re H, -Im H], [Im H, Re H]]: the distance-preserving real embedding."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"H must be square, got shape {h.shape}")
    return np.block([[h.real, -h.imag], [h.imag, h.real]])


def complex_to_real_vector(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    return np.concatenate([v.real, v.imag])


def real_to_complex_vector(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    half = v.shape[0] // 2
    return v[:half] + 1j * v[half:]


def generate_instance(
    cfg: MimoConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fresh channel, uniform 16-QAM symbols, and noisy observation."""
    n_t, n_r = cfg.n_tx, cfg.n_rx
    h = (rng.normal(size=(n_r, n_t)) + 1j * rng.normal(size=(n_r, n_t))) / math.sqrt(2.0)
    levels = np.asarray(QAM16_LEVELS)
    symbols = levels[rng.integers(0, 4, n_t)] + 1j * levels[rng.integers(0, 4, n_t)]
    std = math.sqrt(noise_variance_per_real_dim(cfg.ebn0_db))
    noise = std * (rng.normal(size=n_r) + 1j * rng.normal(size=n_r))
    return h, symbols, h @ symbols + noise


def nearest_levels(values: np.ndarray) -> np.ndarray:
    """Round each real value to the nearest 16-QAM level."""
    return np.clip(2.0 * np.round((np.asarray(values, dtype=float) + 3.0) / 2.0) - 3.0, -3.0, 3.0)


def zf_decode(h: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Invert the channel and round componentwise."""
    try:
        x_ls = np.linalg.solve(h, y)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular channel matrix") from exc
    return nearest_levels(x_ls.real) + 1j * nearest_levels(x_ls.imag)


ML_MAX_TX = 5  # the larger half's 16^3 x n_r table and the 256 x 4096 cost matrix


@functools.lru_cache(maxsize=4)
def _symbol_grid(n_ant: int) -> np.ndarray:
    """All 16^n_ant symbol vectors, lexicographic in (re, im) per antenna."""
    points = [re + 1j * im for re in QAM16_LEVELS for im in QAM16_LEVELS]
    grid = np.array(list(itertools.product(points, repeat=n_ant)), dtype=complex)
    grid = grid.reshape(16**n_ant, n_ant)  # one empty row when n_ant = 0
    grid.setflags(write=False)
    return grid


def ml_decode(h: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact argmin of ||Hx - y||; first (lexicographic) winner on ties.

    Meet in the middle: split the antennas into a head and a tail half, so
    ||H_a a + H_b b - y||^2 = ||H_a a - y||^2 + ||H_b b||^2 + 2 Re<H_a a - y, H_b b>
    and every 16^n_tx cost is one entry of a head x tail matrix built by a
    single real GEMM. Its row-major order is the lexicographic order of the
    full candidate list, so the flat argmin keeps the same tie-breaking.
    """
    n_tx = h.shape[1]
    if n_tx > ML_MAX_TX:
        raise ValueError(f"exact ML search limited to n_tx <= {ML_MAX_TX}, got {n_tx}")
    split = n_tx // 2
    head, tail = _symbol_grid(split), _symbol_grid(n_tx - split)
    a = head @ h[:, :split].T - y
    b = tail @ h[:, split:].T
    a_re = np.concatenate([a.real, a.imag], axis=1)
    b_re = np.concatenate([b.real, b.imag], axis=1)
    cost = a_re @ (2.0 * b_re.T)
    cost += np.einsum("ij,ij->i", a_re, a_re)[:, np.newaxis]
    cost += np.einsum("ij,ij->i", b_re, b_re)
    i_head, i_tail = divmod(int(np.argmin(cost)), cost.shape[1])
    return np.concatenate([head[i_head], tail[i_tail]])


def symbols_to_bits(symbols: np.ndarray) -> np.ndarray:
    """Gray bit labels, 4 bits per complex symbol (re pair then im pair)."""
    s = np.asarray(symbols, dtype=complex)
    levels = np.rint((np.stack([s.real, s.imag], axis=-1) + 3.0) / 2.0).astype(np.intp)
    return _GRAY_TABLE[levels].reshape(-1)


def count_bit_errors(decided: np.ndarray, transmitted: np.ndarray) -> int:
    return _bit_errors(decided, symbols_to_bits(transmitted))


def _bit_errors(decided: np.ndarray, sent: np.ndarray) -> int:
    """Bit errors of the decided symbols against the sent bits `symbols_to_bits` gave."""
    return int(np.count_nonzero(symbols_to_bits(decided) != sent))


def _integer_lattice_problem(h: np.ndarray, y: np.ndarray):
    """Rescale to CVP(G, t) over k in {0..3}^(2 n_tx); distances are preserved."""
    b_real = complex_to_real_lattice(h)
    g = 2.0 * b_real
    t = complex_to_real_vector(y) + 3.0 * b_real.sum(axis=1)
    return g, t


def _draw_restricted4(alpha: float, center: float, u: float) -> int:
    """One draw of D_{Z,alpha,center} restricted to {0, 1, 2, 3}, by inversion.

    Weights are taken relative to the largest one; the uniform u in [0, 1)
    picks the first point whose cumulative weight reaches u times the total.
    """
    den = 2.0 * alpha * alpha
    d1, d2, d3 = 1.0 - center, 2.0 - center, 3.0 - center
    l0 = -(center * center) / den
    l1 = -(d1 * d1) / den
    l2 = -(d2 * d2) / den
    l3 = -(d3 * d3) / den
    # max(l0, l1, l2, l3): every rounding above is monotone, so the point
    # nearest the center has the largest exponent
    top = l0 if center <= 0.5 else l1 if center <= 1.5 else l2 if center <= 2.5 else l3
    c0 = exp(l0 - top)
    c1 = c0 + exp(l1 - top)
    c2 = c1 + exp(l2 - top)
    v = u * (c2 + exp(l3 - top))
    return 0 if v <= c0 else 1 if v <= c1 else 2 if v <= c2 else 3


def _costs(g: np.ndarray, t: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """||g k - t||^2 for each row k of the int array ks, by one rule: -t plus
    g's columns times k, then the squares, each added left to right in
    elementwise float64, with no BLAS call and no pairwise sum, so the
    decisions do not depend on the BLAS or the numpy version."""
    resid = functools.reduce(np.add, ks.T[:, :, None] * g.T[:, None, :], -t)
    return functools.reduce(np.add, (resid * resid).T)


@dataclass(frozen=True)
class _TrialLattice:
    """One trial's CVP(g, t), in the forms the sampler decoders read.

    Built once per trial and shared by every decoder; the lists (matrices
    row by row) are what the scalar loops read.
    """

    sigma: float  # min_i r_ii / sqrt(log n)
    r0: list  # chol(G), the R of g's QR (Klein's pass on the natural order)
    c0: list  # R^-T g^T t = Q^T t
    gram: list  # G = g^T g
    gt: list  # g^T t
    g: np.ndarray  # the basis 2 B_real, whose columns `_costs` adds
    t: np.ndarray  # the target y_real + 3 B_real 1
    k_zf: np.ndarray  # rounded ZF start point in {0..3}^n, int64
    cost_zf: float  # ||g k_zf - t||^2, by `_costs`


def _trial_lattice(h: np.ndarray, y: np.ndarray, zf: "np.ndarray | None" = None) -> _TrialLattice:
    """Build the shared per-trial context; pass `zf` when the ZF decision is known."""
    if zf is None:
        zf = zf_decode(h, y)
    g, t = _integer_lattice_problem(h, y)
    n = g.shape[0]
    gram, gt = (g.T @ g).tolist(), (g.T @ t).tolist()
    r0, c0 = block_conditional(gram, gt, [], list(range(n)), [])
    k_zf = np.clip(np.round((complex_to_real_vector(zf) + 3.0) / 2.0), 0, 3).astype(np.int64)
    return _TrialLattice(
        sigma=min(r0[i][i] for i in range(n)) / math.sqrt(math.log(n)),
        r0=r0,
        c0=c0,
        gram=gram,
        gt=gt,
        g=g,
        t=t,
        k_zf=k_zf,
        cost_zf=float(_costs(g, t, k_zf[None])[0]),
    )


def _coeffs_to_symbols(k: np.ndarray) -> np.ndarray:
    return real_to_complex_vector(2.0 * np.asarray(k, dtype=float) - 3.0)


def _decode_checkpoints(
    lat: _TrialLattice,
    strategy: str,
    budgets: tuple[int, ...],
    rng: np.random.Generator,
    block_size: "int | None" = None,
) -> dict[int, np.ndarray]:
    """Run one sampler chain, returning the best-visited point at each budget.

    One iteration samples n = 2 n_tx components: n coordinate steps for gibbs,
    ceil(n/m) block steps for gibbs-klein, and for klein one backward pass
    over all n coordinates (lat.r0, lat.c0). The iterations run in blocks of
    about mcmc.ROW_BLOCK_ENTRIES entries, as the module docstring says, and
    the decisions and the stream's position do not depend on the block size.
    """
    if strategy not in SAMPLER_DECODERS:
        raise ValueError(f"unknown sampler strategy {strategy!r}")
    n = len(lat.gt)
    if strategy == "gibbs-klein" and not (block_size is not None and 1 <= block_size <= n):
        raise ValueError(f"gibbs-klein decoding needs a block size in [1, {n}], got {block_size}")
    m = {"klein": n, "gibbs": 1, "gibbs-klein": block_size}[strategy]
    per_iter = 1 if strategy == "klein" else -(-n // m)  # states visited per iteration
    # iterations per block: each step counts as an (n, n) factor's entries
    per_block = max(1, mcmc.ROW_BLOCK_ENTRIES // (per_iter * n * n))
    x, best, best_cost = lat.k_zf, lat.k_zf, lat.cost_zf
    z = [0] * n
    last = max(budgets)
    results: dict[int, np.ndarray] = {}
    for start in range(0, last, per_block):
        iters = min(per_block, last - start)
        states = np.empty((iters * per_iter + 1, n), dtype=np.int64)
        states[0] = x
        if strategy == "klein":
            out = []
            for w in rng.random((iters, n)).tolist():  # one pass's uniforms a row
                backward_sample_into(lat.r0, lat.c0, lat.sigma, z, w, _draw_restricted4)
                out.extend(z)
            states[1:] = np.reshape(out, (iters, n))
        else:
            mcmc._chain_block(lat.gram, lat.gt, lat.sigma, m, strategy == "gibbs", states, rng,
                              _draw_restricted4)
        costs = _costs(lat.g, lat.t, states[1:])
        seen = 0  # states of the block already compared with the running best
        # at each budget in the block, then at its end: the first minimum
        # since the last, kept only if strictly below the running best
        for end in sorted({b - start for b in budgets if start < b <= start + iters} | {iters}):
            i = seen + int(np.argmin(costs[seen : end * per_iter]))
            if costs[i] < best_cost:
                best, best_cost = states[1 + i].copy(), costs[i]
            seen = end * per_iter
            if start + end in budgets:
                results[start + end] = _coeffs_to_symbols(best)
        x = states[-1].copy()
    return results


def sampler_decode(
    h: np.ndarray,
    y: np.ndarray,
    strategy: str,
    iterations: int,
    rng: np.random.Generator,
    block_size: "int | None" = None,
) -> np.ndarray:
    """Best constellation point visited by the chosen sampler within the budget."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    lat = _trial_lattice(h, y)
    return _decode_checkpoints(lat, strategy, (iterations,), rng, block_size)[iterations]


def ber_experiment_detailed(cfg: MimoConfig) -> tuple[BerTable, dict[tuple, np.ndarray]]:
    """Paired BER comparison plus per-trial bit-error counts per decoder.

    Channels, symbols, and noise are identical across decoders within a trial;
    each decoder draws from its own spawned substream. The per-trial arrays
    are keyed by (decoder, block_size, iterations) with None for fields that
    do not apply, enabling paired significance margins downstream.
    """
    if cfg.trials == 0:
        return BerTable(()), {}
    budgets = tuple(sorted(set(cfg.iteration_budgets)))
    jobs: list[tuple[str, "int | None"]] = []
    for dec in cfg.decoders:
        if dec == "gibbs-klein":
            jobs.extend(("gibbs-klein", m) for m in cfg.block_sizes)
        elif dec in ("klein", "gibbs"):
            jobs.append((dec, None))
    keys: list[tuple] = []
    if "zf" in cfg.decoders:
        keys.append(("zf", None, None))
    if "ml" in cfg.decoders:
        keys.append(("ml", None, None))
    keys.extend((s, m, b) for s, m in jobs for b in budgets)
    per_trial = {k: np.zeros(cfg.trials, dtype=np.int32) for k in keys}

    children = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    for trial in range(cfg.trials):
        streams = children[trial].spawn(1 + len(jobs))
        h, symbols, y = generate_instance(cfg, np.random.default_rng(streams[0]))
        sent = symbols_to_bits(symbols)
        zf = zf_decode(h, y)
        if "zf" in cfg.decoders:
            per_trial[("zf", None, None)][trial] = _bit_errors(zf, sent)
        if "ml" in cfg.decoders:
            per_trial[("ml", None, None)][trial] = _bit_errors(ml_decode(h, y), sent)
        lat = _trial_lattice(h, y, zf) if jobs else None
        for job_idx, (strategy, m) in enumerate(jobs):
            rng = np.random.default_rng(streams[1 + job_idx])
            decided = _decode_checkpoints(lat, strategy, budgets, rng, m)
            for budget, sym_hat in decided.items():
                per_trial[(strategy, m, budget)][trial] = _bit_errors(sym_hat, sent)

    bits_total = cfg.trials * cfg.n_tx * BITS_PER_SYMBOL
    rows = tuple(
        BerRow(dec, m, budget, cfg.trials, int(per_trial[(dec, m, budget)].sum()), bits_total)
        for dec, m, budget in keys
    )
    return BerTable(rows), per_trial
