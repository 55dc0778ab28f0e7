"""Command-line front end: sampling runs, convergence diagnostics, MIMO benchmark.

All commands are deterministic given --seed (or the LATTICE_GIBBS_SEED env
var; hard default 0) and write CSV with '\n' line endings and '.' decimals.
Output is assembled in memory and written in one shot, so a failing run never
leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import dgauss1d as dg
from . import mcmc, mimo, oracle
from .klein import GaussianParams, GibbsKleinConfig, klein_sample_many
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
    """--seed, else LATTICE_GIBBS_SEED, else 0; an empty variable counts as unset."""
    source, text = "--seed", str(arg_seed)
    if arg_seed is None:
        source, text = SEED_ENV_VAR, os.environ.get(SEED_ENV_VAR) or "0"
    if not text.isdecimal():
        raise ValueError(f"{source} must be a non-negative integer, got {text!r}")
    return int(text)


def _parse_vector(text: "str | None", n: int, what: str) -> np.ndarray:
    if text is None:
        return np.zeros(n)
    fields = text.split(",")
    if len(fields) != n or not all(f.strip() for f in fields):
        raise ValueError(f"{what} must have {n} non-empty comma-separated entries, got {text!r}")
    return np.array([float(f) for f in fields])


def _parse_ints(text: str, what: str) -> "list[int]":
    try:
        return [int(f) for f in text.split(",")]
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers, got {text!r}") from None


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


def _write_output(path: str, parts: "list[str]") -> None:
    """Write the pieces of a finished output one after the other."""
    if path == "-":
        sys.stdout.writelines(parts)
    else:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.writelines(parts)


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
    burn_in = getattr(args, "burn_in", 0)  # only `sample` has --burn-in
    if burn_in < 0:
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
        burn_in=burn_in,
        seed=_resolve_seed(args.seed),
        output=args.output,
    )


def _chain_streams(seed: int, count: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def format_int_rows(table: np.ndarray) -> str:
    """The rows of a 2-D int64 array with at least one column as CSV lines,
    ",".join(map(str, row)) + "\n" each, formatted in numpy. Every field gets
    a slot as wide as the table's widest entry: a sign byte, the digits
    right-aligned and the separator, each digit place filled for all fields at
    once. The bytes left unused stay 0 and are dropped at the end. The
    temporaries are a few times the table's size, so `cmd_sample` passes
    blocks of rows."""
    if table.shape[0] == 0:
        return ""
    neg = table < 0
    q = table.astype(np.uint64)
    np.negative(q, out=q, where=neg)  # |v| for every int64 v, INT64_MIN too
    width = len(str(int(q.max())))
    text = np.zeros(table.shape + (width + 2,), dtype=np.uint8)
    text[:, :, 0] = neg * ord("-")
    for pos in range(width, 0, -1):
        q10 = q // 10
        digit = q - q10 * 10 + ord("0")
        if pos < width:
            digit *= q != 0  # no leading zeros
        text[:, :, pos] = digit
        q = q10
    text[:, :, -1] = ord(",")
    text[:, -1, -1] = ord("\n")
    flat = text.ravel()
    return np.compress(flat != 0, flat).tobytes().decode("ascii")


def cmd_sample(cfg: RunConfig) -> int:
    """Write one CSV row per recorded state: chain,t,x_1,...,x_n."""
    n = cfg.basis.n
    parts = ["chain,t," + ",".join(f"x_{i + 1}" for i in range(n)) + "\n"]
    rngs = _chain_streams(cfg.seed, cfg.chains)
    for chain_idx, rng in enumerate(rngs):
        if cfg.algorithm == "klein":
            kcfg = GibbsKleinConfig(cfg.basis, cfg.target, n)
            rows = klein_sample_many(kcfg, cfg.iterations, rng)
            t_first = 1  # independent draws t = 1..iters
        else:
            rows = mcmc.run_chain(
                cfg.algorithm, cfg.basis, cfg.target, cfg.x0, cfg.iterations, rng,
                block_size=cfg.block_size,
            )
            t_first = 0  # row 0 is the start state
        skip = max(cfg.burn_in - t_first, 0)
        # about dg.BLOCK_ENTRIES table entries at a time: no (rows, n + 2)
        # table and no joined copy of the text is built
        per = max(1, dg.BLOCK_ENTRIES // (n + 2))
        for start in range(skip, rows.shape[0], per):
            block = rows[start : start + per]
            ts = np.arange(t_first + start, t_first + start + block.shape[0])
            parts.append(format_int_rows(
                np.column_stack([np.full_like(ts, chain_idx), ts, block])))
    _write_output(cfg.output, parts)
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
    basis: LatticeBasis,
    target: GaussianParams,
    x0,
    block_size: int,
    chains: int,
    seed: int,
    checkpoints: "list[int]",
) -> dict[int, np.ndarray]:
    """The (chains, n) states of independent Gibbs-Klein chains at each
    checkpoint, chain i on the i-th stream spawned from seed."""
    return mcmc.gibbs_klein_ensemble(
        basis, target, x0, block_size, _chain_streams(seed, chains), checkpoints
    )


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
        kcfg = GibbsKleinConfig(cfg.basis, cfg.target, cfg.basis.n)
        snaps = {t: klein_sample_many(kcfg, cfg.chains, rng) for t in checkpoints}
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
        snaps = _gibbs_klein_snapshots(
            cfg.basis, cfg.target, cfg.x0, cfg.block_size, cfg.chains, cfg.seed, checkpoints
        )

    lines = ["t,tv_distance"]
    for t in checkpoints:
        tv = oracle.tv_distance(oracle.empirical_from_states(snaps[t]), exact)
        lines.append(f"{t},{tv:.10g}")
    _write_output(cfg.output, ["\n".join(lines) + "\n"])

    if cfg.algorithm in ("gibbs", "gibbs-klein"):
        pairs = oracle.single_flip_pairs(exact, max_pairs=200)
        m = 1 if cfg.algorithm == "gibbs" else cfg.block_size
        kcfg = GibbsKleinConfig(cfg.basis, cfg.target, m)
        report = oracle.detailed_balance_residual(
            lambda a, b: mcmc.kernel_probs(kcfg, a, b), exact, pairs
        )
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
        iteration_budgets=tuple(_parse_ints(args.iterations, "--iterations")),
        block_sizes=tuple(_parse_ints(args.block_sizes, "--block-sizes")),
        decoders=tuple(args.decoders.split(",")),
        seed=_resolve_seed(args.seed),
    )
    table = mimo.ber_experiment(cfg)
    _write_output(args.output, [table.to_csv()])
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
    p_sample.add_argument("--burn-in", type=int, default=0)

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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args keeps no state between calls."""
    return build_parser()


def main(argv: "list[str] | None" = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(_attach_vector_values(argv))
    try:
        if args.command == "sample":
            return cmd_sample(_build_run_config(args))
        if args.command == "diagnose":
            checkpoints = None
            if args.checkpoints is not None:
                checkpoints = _parse_ints(args.checkpoints, "--checkpoints")
            return cmd_diagnose(_build_run_config(args), checkpoints)
        if args.command == "mimo":
            return cmd_mimo(args)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, OSError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
