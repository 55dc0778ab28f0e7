"""Command-line front end: sampling runs, convergence diagnostics, MIMO benchmark.

All commands are deterministic given --seed (or the LATTICE_GIBBS_SEED env
var; hard default 0) and write CSV with '\n' line endings and '.' decimals.
Output is assembled in memory and written in one shot, so a failing run never
leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import mcmc, mimo, oracle
from .klein import GaussianParams, KleinSampler, klein_sample_many
from .linalg import LatticeBasis, load_basis

SEED_ENV_VAR = "LATTICE_GIBBS_SEED"

ALGORITHMS = ("klein", "gibbs", "gibbs-klein")
VECTOR_FLAGS = ("--center", "--x0")


@dataclass(frozen=True)
class RunConfig:
    """Validated settings shared by the sampling-style subcommands."""

    basis: LatticeBasis
    algorithm: str
    target: GaussianParams
    x0: np.ndarray
    block_size: "int | None"
    iterations: int
    chains: int
    burn_in: int
    seed: int
    output: str


def _resolve_seed(arg_seed: "int | None") -> int:
    if arg_seed is not None:
        return arg_seed
    env = os.environ.get(SEED_ENV_VAR)
    return int(env) if env else 0


def _parse_vector(text: "str | None", n: int, what: str) -> np.ndarray:
    if text is None:
        return np.zeros(n)
    fields = text.split(",")
    if len(fields) != n or not all(f.strip() for f in fields):
        raise ValueError(f"{what} must have {n} non-empty comma-separated entries, got {text!r}")
    return np.array([float(f) for f in fields])


def _attach_vector_values(argv: "list[str]") -> "list[str]":
    """Rewrite `--center -0.5,1` as `--center=-0.5,1`.

    argparse reads a separate token that starts with '-' and is not a plain
    negative number as a flag, so a vector with a negative first entry would
    be "expected one argument" in the space-separated form.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] in VECTOR_FLAGS and _is_number(token.split(",")[0]):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _write_output(path: str, content: str) -> None:
    if path == "-":
        sys.stdout.write(content)
    else:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(content)


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    basis = load_basis(args.basis)
    n = basis.n
    if args.algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {args.algo!r}")
    if args.algo == "gibbs-klein":
        if args.block_size is None:
            raise ValueError("--block-size is required for gibbs-klein")
        if not 1 <= args.block_size <= n:
            raise ValueError(f"--block-size must lie in [1, {n}]")
    if args.sigma <= 0:
        raise ValueError("--sigma must be positive")
    if args.iters < 0:
        raise ValueError("--iters must be >= 0")
    if args.chains < 1:
        raise ValueError("--chains must be >= 1")
    if args.burn_in < 0:
        raise ValueError("--burn-in must be >= 0")
    target = GaussianParams(args.sigma, _parse_vector(args.center, n, "--center"))
    return RunConfig(
        basis=basis,
        algorithm=args.algo,
        target=target,
        x0=mcmc.start_state(_parse_vector(args.x0, n, "--x0"), n),
        block_size=args.block_size,
        iterations=args.iters,
        chains=args.chains,
        burn_in=args.burn_in,
        seed=_resolve_seed(args.seed),
        output=args.output,
    )


def _chain_streams(seed: int, count: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def cmd_sample(cfg: RunConfig) -> int:
    """Write one CSV row per recorded state: chain,t,x_1,...,x_n."""
    n = cfg.basis.n
    header = "chain,t," + ",".join(f"x_{i + 1}" for i in range(n))
    lines = [header]
    rngs = _chain_streams(cfg.seed, cfg.chains)
    for chain_idx, rng in enumerate(rngs):
        if cfg.algorithm == "klein":
            sampler = KleinSampler(cfg.basis, cfg.target)
            rows = klein_sample_many(sampler, cfg.iterations, rng)
            t_first = 1  # independent draws t = 1..iters
        else:
            rows = mcmc.run_chain(
                cfg.algorithm, cfg.basis, cfg.target, cfg.x0, cfg.iterations, rng,
                block_size=cfg.block_size,
            )
            t_first = 0  # row 0 is the start state
        skip = max(cfg.burn_in - t_first, 0)
        for t, row in enumerate(rows[skip:].tolist(), start=t_first + skip):
            lines.append(f"{chain_idx},{t}," + ",".join(map(str, row)))
    _write_output(cfg.output, "\n".join(lines) + "\n")
    return 0


def default_checkpoints(t_max: int) -> list[int]:
    pts = []
    t = 1
    while t < t_max:
        pts.append(t)
        t *= 2
    if t_max >= 1:
        pts.append(t_max)
    return sorted(set(pts))


def _gibbs_klein_snapshots(
    cfg: RunConfig, checkpoints: list[int]
) -> dict[int, np.ndarray]:
    snaps = {t: np.empty((cfg.chains, cfg.basis.n), dtype=np.int64) for t in checkpoints}
    for chain_idx, rng in enumerate(_chain_streams(cfg.seed, cfg.chains)):
        states = mcmc.run_chain(
            "gibbs-klein", cfg.basis, cfg.target, cfg.x0, max(checkpoints), rng,
            block_size=cfg.block_size,
        )
        for t in checkpoints:
            snaps[t][chain_idx] = states[t]
    return snaps


def cmd_diagnose(cfg: RunConfig, checkpoints: "list[int] | None" = None) -> int:
    """Write CSV t,tv_distance of empirical-vs-exact TV across the ensemble.

    Also prints a detailed-balance residual report (stderr) for the MCMC
    kernels, computed over the highest-probability single-flip pairs.
    """
    if checkpoints is None:
        checkpoints = default_checkpoints(cfg.iterations)
    checkpoints = sorted(set(checkpoints))
    if not checkpoints or checkpoints[0] < 1 or checkpoints[-1] > cfg.iterations:
        raise ValueError("checkpoints must lie in [1, iters]")
    exact = oracle.enumerate_support(cfg.basis, cfg.target)

    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    if cfg.algorithm == "klein":
        sampler = KleinSampler(cfg.basis, cfg.target)
        snaps = {t: klein_sample_many(sampler, cfg.chains, rng) for t in checkpoints}
    elif cfg.algorithm == "gibbs":
        snaps, _ = mcmc.gibbs_ensemble(
            cfg.basis,
            cfg.target,
            cfg.x0,
            cfg.chains,
            max(checkpoints),
            rng,
            record_at=tuple(checkpoints),
        )
    else:
        snaps = _gibbs_klein_snapshots(cfg, checkpoints)

    lines = ["t,tv_distance"]
    for t in checkpoints:
        tv = oracle.tv_distance(oracle.empirical_from_states(snaps[t]), exact)
        lines.append(f"{t},{tv:.10g}")
    _write_output(cfg.output, "\n".join(lines) + "\n")

    if cfg.algorithm in ("gibbs", "gibbs-klein"):
        pairs = oracle.single_flip_pairs(exact, max_pairs=200)
        if cfg.algorithm == "gibbs":
            kernel = lambda a, b: mcmc.gibbs_kernel_prob(cfg.basis, cfg.target, a, b)  # noqa: E731
        else:
            kcfg = mcmc.GibbsKleinConfig(cfg.basis, cfg.target, cfg.block_size)
            kernel = lambda a, b: mcmc.gibbs_klein_kernel_prob(kcfg, a, b)  # noqa: E731
        report = oracle.detailed_balance_residual(kernel, exact, pairs)
        print(
            f"detailed_balance max_abs={report.max_abs_residual:.6e} "
            f"max_rel={report.max_rel_residual:.6e} pairs={report.pairs_checked}",
            file=sys.stderr,
        )
    return 0


def cmd_mimo(args: argparse.Namespace) -> int:
    """Run the paired BER experiment and write the table CSV."""
    cfg = mimo.MimoConfig(
        n_tx=args.ntx,
        n_rx=args.ntx,
        ebn0_db=args.ebn0_db,
        trials=args.trials,
        iteration_budgets=tuple(int(v) for v in args.iterations.split(",")),
        block_sizes=tuple(int(v) for v in args.block_sizes.split(",")),
        decoders=tuple(args.decoders.split(",")),
        seed=_resolve_seed(args.seed),
    )
    table = mimo.ber_experiment(cfg)
    _write_output(args.output, table.to_csv())
    return 0


def _add_common_sampling_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--basis", required=True, help="basis file (header n, then n rows)")
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--center", default=None, help="comma-separated target center")
    p.add_argument("--x0", default=None, help="comma-separated integer start state")
    p.add_argument("--block-size", type=int, default=None)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--chains", type=int, default=1)
    p.add_argument("--burn-in", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", "-o", default="-", help="CSV path ('-' for stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattice-gibbs",
        description="Lattice Gaussian sampling, MCMC diagnostics, and MIMO decoding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="draw samples / run chains, CSV per state")
    _add_common_sampling_flags(p_sample)

    p_diag = sub.add_parser("diagnose", help="TV convergence vs the exact oracle")
    _add_common_sampling_flags(p_diag)
    p_diag.add_argument("--checkpoints", default=None, help="comma-separated t values")

    p_mimo = sub.add_parser("mimo", help="paired BER benchmark")
    p_mimo.add_argument("--ntx", type=int, default=4)
    p_mimo.add_argument("--ebn0-db", type=float, default=15.0)
    p_mimo.add_argument("--trials", type=int, required=True)
    p_mimo.add_argument("--iterations", default="1,5,20")
    p_mimo.add_argument("--block-sizes", default="1,2,4,8")
    p_mimo.add_argument("--decoders", default="zf,ml,klein,gibbs,gibbs-klein")
    p_mimo.add_argument("--seed", type=int, default=None)
    p_mimo.add_argument("--output", "-o", default="-")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_attach_vector_values(argv))
    try:
        if args.command == "sample":
            return cmd_sample(_build_run_config(args))
        if args.command == "diagnose":
            checkpoints = None
            if args.checkpoints is not None:
                checkpoints = [int(v) for v in args.checkpoints.split(",")]
            return cmd_diagnose(_build_run_config(args), checkpoints)
        if args.command == "mimo":
            return cmd_mimo(args)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, OSError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
