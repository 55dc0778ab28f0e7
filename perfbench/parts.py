"""Benchmark inputs and the three parts every round is made of.

A round runs MIMO experiments, ``lattice-gibbs sample`` chains and
``lattice-gibbs diagnose`` commands, always through the package's public
entry points; the workload decides how often each runs. Every output is
checked against the reference computations in ``checks``. Each trial, chain
or diagnose command is one operation.
"""

from __future__ import annotations

import contextlib
import gc
import io
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from lattice_gibbs import cli, mimo
from spans import Probe

# ---------------------------------------------------------------------------
# Inputs. Shapes are fixed; the seed picks rotations and centers. Rotations
# keep the R factor, so step sizes and costs do not depend on the seed.

CHAIN_BLOCK = np.array([[1.0, 0.8], [0.0, 0.6]])  # columns (1, 0) and (0.8, 0.6)
DIAG_SHAPES = {
    3: np.array([[1.0, 0.4, 0.4], [0.0, 1.3, 0.4], [0.0, 0.0, 1.6]]),
    4: np.array(
        [[1.0, 0.4, 0.4, 0.4], [0.0, 1.6, 0.4, 0.4], [0.0, 0.0, 2.2, 0.4], [0.0, 0.0, 0.0, 2.8]]
    ),
}
CLI_TAIL_EPS = 1e-12  # the CLI's default --tail-eps, which sizes the oracle's box


@dataclass(frozen=True)
class Target:
    """A basis file plus the sigma, center and start state passed on the command line."""

    path: Path
    basis: np.ndarray
    sigma: float
    center: np.ndarray
    x0: np.ndarray

    def flags(self) -> list[str]:
        # --flag=value keeps argparse from reading a leading '-' as an option.
        return [
            "--basis", str(self.path),
            f"--sigma={self.sigma!r}",
            "--center=" + ",".join(repr(float(v)) for v in self.center),
            "--x0=" + ",".join(str(int(v)) for v in self.x0),
        ]


@dataclass(frozen=True)
class Inputs:
    chain: Target
    chain_block_center: np.ndarray  # every 2-D block of the chain target has this center
    diag: dict  # n -> Target


def _rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _write_basis(path: Path, basis: np.ndarray) -> None:
    rows = "\n".join(" ".join(repr(float(v)) for v in row) for row in basis)
    path.write_text(f"{basis.shape[0]}\n{rows}\n", encoding="ascii")


def _box_stable_coeffs(rng, basis, sigma, tail_eps):
    """Coefficient-space center whose oracle box has the same size for every seed.

    The oracle enumerates floor(m_i - h_i)..ceil(m_i + h_i) around m = B^-1 c;
    drawing frac(m_i - h_i) below 1 - frac(2 h_i) fixes that count at
    floor(2 h_i) + 2, so the enumeration cost does not vary with the seed.
    """
    n = basis.shape[0]
    radius = sigma * (math.sqrt(2.0 * math.log(4.0 / tail_eps)) + math.sqrt(n))
    half = np.linalg.norm(np.linalg.inv(basis), axis=1) * radius + 1.0
    room = 1.0 - np.mod(2.0 * half, 1.0)
    frac = rng.uniform(0.1, 0.9, n) * room
    return rng.integers(-3, 4, n) + half + frac


def make_inputs(seed: int, out_dir: Path) -> Inputs:
    """Bases, centers and start states for one seed; basis files go to out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1A77]))

    # chains-n8: four copies of CHAIN_BLOCK, rotated. The target factorizes
    # over the 2-D blocks when each block sees the same shifted center.
    q = _rotation(rng, 8)
    b8 = q @ np.kron(np.eye(4), CHAIN_BLOCK)
    block_center = CHAIN_BLOCK @ (rng.integers(-3, 4, 2) + rng.uniform(0.0, 1.0, 2))
    c8 = q @ np.tile(block_center, 4)
    gs = np.abs(np.diag(np.linalg.qr(b8)[1]))
    sigma8 = float(gs.min() / math.sqrt(math.log(8)))  # decoding default, below smoothing
    path8 = out_dir / "basis8.txt"
    _write_basis(path8, b8)
    chain = Target(path8, b8, sigma8, c8, np.round(np.linalg.solve(b8, c8)).astype(np.int64))

    diag = {}
    for n, shape in DIAG_SHAPES.items():
        b = _rotation(rng, n) @ shape
        sigma = 0.5 * float(np.abs(np.diag(np.linalg.qr(b)[1])).min())
        coeffs = _box_stable_coeffs(rng, b, sigma, CLI_TAIL_EPS)
        path = out_dir / f"basis{n}.txt"
        _write_basis(path, b)
        # start three steps off the center so the TV curve has a transient
        diag[n] = Target(path, b, sigma, b @ coeffs, np.round(coeffs).astype(np.int64) + 3)
    return Inputs(chain, block_center, diag)


# ---------------------------------------------------------------------------
# Bookkeeping


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)
    busy_s: float = 0.0  # seconds spent inside program calls

    def record(self, ops: int, problems: "list[str]") -> None:
        self.attempted += ops
        self.fail(ops, problems)

    def fail(self, ops: int, problems: "list[str]") -> None:
        """Count `ops` already attempted operations as failed if there are problems."""
        if problems:
            self.failed += ops
            self.messages.extend(problems[: max(0, 20 - len(self.messages))])


def collect_garbage() -> None:
    """Start each timed operation from a collected heap, as a fresh CLI process would.

    Otherwise garbage left by one operation is collected at an arbitrary
    point of a later one: three repeats of the n=4 Gibbs diagnose command
    took 0.85-1.17 s without this and 1.00-1.01 s with it.
    """
    gc.collect()


def run_cli(argv: "list[str]") -> int:
    """Call the console entry point in-process; argparse exits become codes."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def checkpoints(t_max: int) -> list[int]:
    pts, t = [], 1
    while t < t_max:
        pts.append(t)
        t *= 2
    return pts + [t_max]


# ---------------------------------------------------------------------------
# MIMO: the acceptance criterion-6 configuration at a reduced trial count.

MIMO_JOBS = (("klein", None), ("gibbs", None)) + tuple(("gibbs-klein", m) for m in (1, 2, 4, 8))
MIMO_BUDGETS = (1, 5, 20)


def mimo_config(trials: int, seed: int) -> "mimo.MimoConfig":
    return mimo.MimoConfig(
        n_tx=4,
        n_rx=4,
        ebn0_db=15.0,
        trials=trials,
        iteration_budgets=MIMO_BUDGETS,
        block_sizes=(1, 2, 4, 8),
        decoders=("zf", "ml", "klein", "gibbs", "gibbs-klein"),
        seed=seed,
    )


# A one-sided 95% test fails by chance on near-null pairs: Klein at budget 1
# makes about as many bit errors as ZF (108 against 111 in 500 trials), and
# tables of 60 to 240 trials resampled from those failed 0.4-0.5% of the
# time. At z = 3.29 none of 20,000 resampled tables of 18 to 240 trials failed.
SANDWICH_Z = 3.29


def check_ber_rows(table, trials: int) -> "list[str]":
    return [
        f"mimo row {row.decoder},{row.block_size},{row.iterations}: trials={row.trials} "
        f"bits={row.bits}, expected {trials}, {trials * 16}"
        for row in table.rows
        if row.trials != trials or row.bits != trials * 16
    ]


def check_ber_sandwich(per_trial: dict) -> "list[str]":
    """ML <= sampler <= ZF in bit errors, within paired margins, for every sampler row."""
    problems = []
    ml = per_trial[("ml", None, None)].astype(float)
    zf = per_trial[("zf", None, None)].astype(float)
    for (dec, m, budget), errs in per_trial.items():
        if dec in ("ml", "zf"):
            continue
        s = errs.astype(float)
        if ml.sum() > s.sum() + checks.paired_margin(s - ml, SANDWICH_Z):
            problems.append(f"mimo: ML worse than {dec} m={m} T={budget}: {ml.sum()} > {s.sum()}")
        if s.sum() > zf.sum() + checks.paired_margin(zf - s, SANDWICH_Z):
            problems.append(f"mimo: {dec} m={m} T={budget} worse than ZF: {s.sum()} > {zf.sum()}")
    return problems


def mimo_op(trials: int, seed: int, tally: Tally, pools: "RunPools") -> float:
    """One paired BER experiment; returns trials per second.

    Per-trial bit errors go into `pools`, whose pooled table is checked once
    the run ends.
    """
    cfg = mimo_config(trials, seed)
    collect_garbage()
    t0 = time.perf_counter()
    table, per_trial = mimo.ber_experiment_detailed(cfg)
    elapsed = time.perf_counter() - t0
    tally.busy_s += elapsed
    tally.record(trials, check_ber_rows(table, trials))
    for key, errs in per_trial.items():
        pools.mimo_errors.setdefault(key, []).append(errs)
    return trials / elapsed


def _arg(args, kwargs, index: int, name: str):
    """A wrapped call's argument, whether passed by position or by name."""
    return args[index] if len(args) > index else kwargs.get(name)


def mimo_decoder_label(args, kwargs) -> str:
    """sampler_decode(h, y, strategy, iterations, rng, block_size) -> 'gibbs-klein-m4'."""
    return kernel_label(_arg(args, kwargs, 2, "strategy"), _arg(args, kwargs, 5, "block_size"))


def mimo_op_traced(trials: int, seed: int, tally: Tally) -> None:
    """The same trials driven through the per-trial entry points.

    Streams are laid out as in ber_experiment_detailed, so these are the
    instances the untraced operation sees; each sampler runs to the largest
    budget.
    """
    cfg = mimo_config(trials, seed)
    budget = max(MIMO_BUDGETS)
    children = np.random.SeedSequence(cfg.seed).spawn(trials)
    for trial in range(trials):
        streams = children[trial].spawn(1 + len(MIMO_JOBS))
        t0 = time.perf_counter()
        h, symbols, y = mimo.generate_instance(cfg, np.random.default_rng(streams[0]))
        zf = mimo.zf_decode(h, y)
        ml = mimo.ml_decode(h, y)
        samplers = [
            mimo.sampler_decode(h, y, strategy, budget, np.random.default_rng(streams[1 + j]), m)
            for j, (strategy, m) in enumerate(MIMO_JOBS)
        ]
        for decided in (zf, ml, *samplers):
            mimo.count_bit_errors(decided, symbols)
        tally.busy_s += time.perf_counter() - t0

        problems = []
        r_zf, r_ml = checks.qam_residual(h, y, zf), checks.qam_residual(h, y, ml)
        r_min = checks.exhaustive_min_residual(h, y)
        tol = 1e-9 * (1.0 + r_min)
        if abs(r_ml - r_min) > tol:
            problems.append(f"mimo trial {trial}: ml_decode residual {r_ml!r} != search {r_min!r}")
        for (strategy, m), decided in zip(MIMO_JOBS, samplers):
            r_s = checks.qam_residual(h, y, decided)
            if not r_ml - tol <= r_s <= r_zf + tol:
                problems.append(f"mimo trial {trial}: {strategy} m={m} residual {r_s!r} "
                                f"outside [ML {r_ml!r}, ZF {r_zf!r}]")
        tally.record(1, problems)


# ---------------------------------------------------------------------------
# chains-n8: `lattice-gibbs sample` runs on the 8-D block basis.

EXACT_BLOCK_KERNELS = ("gibbs", "gibbs-klein-m1")  # exact for any sigma
BURN_IN_SHARE = 0.1


def kernel_label(algo: str, m: "int | None") -> str:
    return algo if m is None else f"{algo}-m{m}"


def read_sample_csv(path: Path, n: int, chains: int, t_first: int, t_last: int):
    """Rows of `chain,t,x_1..x_n`; returns (states per chain, problems)."""
    problems = []
    with open(path, encoding="ascii") as fh:
        header = fh.readline().rstrip("\n")
        expected = "chain,t," + ",".join(f"x_{i + 1}" for i in range(n))
        if header != expected:
            return None, [f"{path.name}: header {header!r}"]
        try:
            rows = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2)
        except ValueError as exc:
            return None, [f"{path.name}: non-integer row ({exc})"]
    steps = t_last - t_first + 1
    if rows.shape != (chains * steps, n + 2):
        return None, [f"{path.name}: {rows.shape} rows x cols, expected ({chains * steps}, {n + 2})"]
    want_chain = np.repeat(np.arange(chains), steps)
    want_t = np.tile(np.arange(t_first, t_last + 1), chains)
    if not (np.array_equal(rows[:, 0], want_chain) and np.array_equal(rows[:, 1], want_t)):
        problems.append(f"{path.name}: chain,t columns out of order")
    return rows[:, 2:].reshape(chains, steps, n), problems


@dataclass
class BlockPool:
    """2-D block states and their effective sample size, pooled over a run's chains.

    The target factorizes over the four blocks, so each block of each chain
    adds its post-burn-in states and its block-energy ESS.
    """

    counts: dict = field(default_factory=dict)
    n_eff: float = 0.0
    chains: int = 0

    def add(self, inp: Inputs, states: np.ndarray) -> None:
        keep = states[:, int(BURN_IN_SHARE * states.shape[1]):, :]
        for b in range(4):
            block = keep[:, :, 2 * b: 2 * b + 2]
            for chain in block:
                self.n_eff += checks.ess(
                    checks.energy(chain, CHAIN_BLOCK, inp.chain_block_center, inp.chain.sigma)
                )
            rows, cnts = np.unique(block.reshape(-1, 2), axis=0, return_counts=True)
            for row, cnt in zip(rows.tolist(), cnts.tolist()):
                self.counts[tuple(row)] = self.counts.get(tuple(row), 0) + cnt
        self.chains += states.shape[0]

    def check(self, law, label: str) -> "list[str]":
        """Pooled block marginal against the exact block law, within an ESS bound."""
        points, probs = law
        if not self.n_eff > 0:
            return [f"{label} block marginal: no effective samples (ESS {self.n_eff})"]
        tv = checks.tv_to_counts(points, probs, self.counts)
        bound = checks.ess_tv_bound(probs, self.n_eff)
        if not tv <= bound:
            return [f"{label} block marginal TV {tv:.4f} > bound {bound:.4f} "
                    f"(ESS {self.n_eff:.0f} over {self.chains} chains)"]
        return []


@dataclass
class RunPools:
    """Outputs pooled over a run, for the checks that need many samples."""

    mimo_errors: dict = field(default_factory=dict)  # row key -> per-trial arrays
    blocks: dict = field(default_factory=dict)  # kernel label -> BlockPool

    def check(self, tally: Tally, block_law) -> None:
        if self.mimo_errors:
            per_trial = {key: np.concatenate(v) for key, v in self.mimo_errors.items()}
            tally.fail(len(per_trial[("zf", None, None)]), check_ber_sandwich(per_trial))
        for label, pool in sorted(self.blocks.items()):
            tally.fail(pool.chains, pool.check(block_law, label))


def sample_op(inp: Inputs, kernel, seed: int, out_dir: Path, tally: Tally,
              pools: RunPools, ess_log: dict) -> "tuple[str, float] | None":
    """One `sample` command; returns (metric, draws or steps per second).

    Chains of the kernels that are exact for any sigma go into `pools`, whose
    marginals are checked once the run ends.
    """
    algo, m, n_chains, iters = kernel
    target = inp.chain
    label = kernel_label(algo, m)
    out = out_dir / f"sample-{label}.csv"
    argv = ["sample", *target.flags(), "--algo", algo, "--chains", str(n_chains),
            "--iters", str(iters), "--seed", str(seed), "-o", str(out)]
    if m is not None:
        argv += ["--block-size", str(m)]
    collect_garbage()
    t0 = time.perf_counter()
    code = run_cli(argv)
    elapsed = time.perf_counter() - t0
    tally.busy_s += elapsed
    if code != 0:
        tally.record(n_chains, [f"sample {label}: exit code {code}"])
        return None
    t_first = 1 if algo == "klein" else 0
    states, problems = read_sample_csv(out, 8, n_chains, t_first, iters)
    if states is not None:
        if label in EXACT_BLOCK_KERNELS:
            pools.blocks.setdefault(label, BlockPool()).add(inp, states)
        energies = [checks.energy(s, target.basis, target.center, target.sigma) for s in states]
        ess_log.setdefault(label, []).append(
            sum(checks.ess(e) for e in energies) / sum(e.size for e in energies)
        )
    tally.record(n_chains, problems)
    unit = "draws" if algo == "klein" else "steps"
    return f"chains.{label}.{unit}_per_s", n_chains * iters / elapsed


# ---------------------------------------------------------------------------
# diagnose-n3-n4: `lattice-gibbs diagnose` against the enumeration oracle.

BALANCE_RE = re.compile(r"detailed_balance max_abs=(\S+) max_rel=(\S+) pairs=(\d+)")
GIBBS_BALANCE_MAX_REL = 1e-10
# The i.i.d. TV has a long right tail (rare states drawn a few times): in
# 20,000 draws of 1000 samples the largest was 6 sd above the mean.
FLOOR_SIGMAS = 10.0


def gibbs_tv_bound(target: Target, n_chains: int, rng: np.random.Generator) -> float:
    """Sampling floor for the TV of n_chains independent exact draws."""
    _, probs = checks.exact_law(target.basis, target.center, target.sigma)
    mean, sd = checks.iid_tv_floor(probs, n_chains, rng)
    return mean + FLOOR_SIGMAS * sd


def diagnose_op(inp: Inputs, command, seed: int, out_dir: Path, tally: Tally,
                tv_bounds: dict) -> "tuple[str, float]":
    """One `diagnose` command; returns (metric it counts toward, seconds)."""
    n, algo, m, n_chains, iters = command
    target = inp.diag[n]
    label = kernel_label(algo, m)
    out = out_dir / f"diagnose-n{n}-{label}.csv"
    marks = checkpoints(iters)
    argv = ["diagnose", *target.flags(), "--algo", algo, "--chains", str(n_chains),
            "--iters", str(iters), "--checkpoints=" + ",".join(map(str, marks)),
            "--seed", str(seed), "-o", str(out)]
    if m is not None:
        argv += ["--block-size", str(m)]
    err = io.StringIO()
    collect_garbage()
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(err):
        code = run_cli(argv)
    elapsed = time.perf_counter() - t0
    tally.busy_s += elapsed
    if code != 0:
        tally.record(1, [f"diagnose n={n} {label}: exit code {code}: {err.getvalue()[-200:]}"])
    else:
        tally.record(1, check_diagnose(out, marks, algo, err.getvalue(),
                                       tv_bounds.get((n, n_chains)), f"n={n} {label}"))
    return ("diagnose.gibbs-klein_s" if algo == "gibbs-klein" else "diagnose.gibbs_s"), elapsed


def check_diagnose(out: Path, marks, algo: str, stderr: str, tv_bound, what: str) -> "list[str]":
    lines = out.read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != "t,tv_distance":
        return [f"diagnose {what}: bad header"]
    try:
        rows = [(int(t), float(tv)) for t, tv in (line.split(",") for line in lines[1:])]
    except ValueError:
        return [f"diagnose {what}: unparsable row"]
    problems = []
    if [t for t, _ in rows] != list(marks):
        problems.append(f"diagnose {what}: checkpoints {[t for t, _ in rows]} != {marks}")
    if not all(0.0 <= tv <= 1.0 for _, tv in rows):
        problems.append(f"diagnose {what}: TV outside [0, 1]")
    if algo == "klein":
        return problems
    balance = BALANCE_RE.search(stderr)
    if balance is None:
        return problems + [f"diagnose {what}: no detailed-balance report"]
    if algo == "gibbs":
        if not float(balance.group(2)) <= GIBBS_BALANCE_MAX_REL:
            problems.append(f"diagnose {what}: balance max_rel {balance.group(2)}")
        if rows and not rows[-1][1] <= tv_bound:
            problems.append(f"diagnose {what}: final TV {rows[-1][1]} > floor bound {tv_bound:.4f}")
    return problems


# ---------------------------------------------------------------------------
# Layers timed in the traced run. Besides the functions the per-layer metrics
# name, run_chain, empirical_from_states and the CLI's per-chain Gibbs-Klein
# loop are wrapped so their time is not charged to the CLI's own self time.

def _output_bytes(argv) -> int:
    path = argv[argv.index("-o") + 1] if "-o" in argv else None
    return Path(path).stat().st_size if path and Path(path).exists() else 0


def probes() -> "list[Probe]":
    return [
        Probe("dgauss1d", "sample"),
        Probe("dgauss1d", "sample_rows", work=lambda a, k, r: len(r)),
        Probe("dgauss1d", "pmf"),
        Probe("linalg", "permute_basis"),
        Probe("linalg", "qr_decompose"),
        Probe("klein", "backward_sample_into"),
        Probe("klein", "backward_pmf"),
        Probe("klein", "klein_sample_many", work=lambda a, k, r: len(r)),
        Probe("mcmc", "gibbs_step"),
        Probe("mcmc", "gibbs_klein_step"),
        Probe("mcmc", "gibbs_ensemble",
              work=lambda a, k, r: _arg(a, k, 3, "n_chains") * _arg(a, k, 4, "steps")),
        Probe("mcmc", "gibbs_kernel_prob"),
        Probe("mcmc", "gibbs_klein_kernel_prob"),
        Probe("mcmc", "run_chain"),
        Probe("oracle", "enumerate_support", work=lambda a, k, r: len(r.support)),
        Probe("oracle", "tv_distance"),
        Probe("oracle", "single_flip_pairs"),
        Probe("oracle", "detailed_balance_residual"),
        Probe("oracle", "empirical_from_states"),
        Probe("mimo", "generate_instance"),
        Probe("mimo", "zf_decode"),
        Probe("mimo", "ml_decode"),
        Probe("mimo", "sampler_decode", label=mimo_decoder_label),
        Probe("mimo", "count_bit_errors"),
        Probe("cli", "main", work=lambda a, k, r: _output_bytes(a[0])),
        Probe("cli", "_gibbs_klein_snapshots"),
    ]
