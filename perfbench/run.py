"""lattice-gibbs benchmark: MIMO trials, long n=8 chains and oracle diagnostics.

Run from the repository root:

    python3 perfbench/run.py --workload chains-n8 --seed 1 --seconds 36 --trace 0

The package is imported from ./src. The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The exit code is non-zero when any output check fails. See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: ML decoding is faster that way on a 2-CPU machine, and the
# measurements do not depend on how many cores happen to be idle.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def _import_program() -> None:
    """Put ./src first on the path and make sure the package comes from there."""
    if not (SRC / "lattice_gibbs" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'lattice_gibbs'}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import lattice_gibbs

    if Path(lattice_gibbs.__file__).resolve().parent != (SRC / "lattice_gibbs").resolve():
        sys.exit(f"error: lattice_gibbs imported from {lattice_gibbs.__file__}, not {SRC}")


_import_program()

import numpy as np  # noqa: E402

import parts  # noqa: E402
from lattice_gibbs import mimo  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from speed import SpeedScale  # noqa: E402

# ---------------------------------------------------------------------------
# Workloads. Every workload prints every end-to-end metric, so every round
# runs each kind of operation at least once; the workload's own kind runs
# several times (or, for diagnose, on the 4-D basis too). Each operation
# gives one sample, and a metric is the median of its samples over the run:
# many short samples are steadier on a shared machine than a few long ones.

MIMO_TRIALS = 3  # per ber_experiment_detailed call
CHAIN_KERNELS = (  # algo, block size, chains, iterations per `sample` command
    ("klein", None, 1, 8000),
    ("gibbs", None, 1, 4000),
    ("gibbs-klein", 1, 1, 1000),
    ("gibbs-klein", 4, 1, 600),
    ("gibbs-klein", 8, 1, 400),
)
DIAGNOSE_COMMANDS = {  # n -> (n, algo, block size, chains, iterations) per command
    n: ((n, "klein", None, 1000, 64), (n, "gibbs", None, 1000, 128), (n, "gibbs-klein", 2, 40, 16))
    for n in (3, 4)
}


@dataclass(frozen=True)
class Workload:
    mimo_reps: int  # ber_experiment_detailed calls per round
    chain_reps: int  # passes over CHAIN_KERNELS per round
    diagnose: tuple  # diagnose commands per round, one sample per metric


WORKLOADS = {
    "mimo-4x4": Workload(6, 1, DIAGNOSE_COMMANDS[3]),
    "chains-n8": Workload(2, 4, DIAGNOSE_COMMANDS[3]),
    "diagnose-n3-n4": Workload(2, 2, DIAGNOSE_COMMANDS[3] + DIAGNOSE_COMMANDS[4]),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "mimo.trials_per_s": "trials/s",
    "chains.gibbs.steps_per_s": "steps/s",
    "chains.gibbs-klein-m1.steps_per_s": "steps/s",
    "chains.gibbs-klein-m4.steps_per_s": "steps/s",
    "chains.gibbs-klein-m8.steps_per_s": "steps/s",
    "chains.klein.draws_per_s": "draws/s",
    "diagnose.gibbs_s": "s",
    "diagnose.gibbs-klein_s": "s",
}

# (metric, unit, span name, statistic). Statistics: calls; work (the span's
# work units); self (self time, total over one traced round); self_per_work
# (self ns per work unit); incl_per_call (inclusive time per call).
LAYER_METRICS = [
    ("dgauss1d.sample.calls", "count", "dgauss1d.sample", "calls"),
    ("dgauss1d.sample.self_us", "us", "dgauss1d.sample", "self"),
    ("dgauss1d.sample_rows.rows", "count", "dgauss1d.sample_rows", "work"),
    ("dgauss1d.sample_rows.self_ns_per_row", "ns", "dgauss1d.sample_rows", "self_per_work"),
    ("dgauss1d.pmf.calls", "count", "dgauss1d.pmf", "calls"),
    ("dgauss1d.pmf.self_us", "us", "dgauss1d.pmf", "self"),
    ("linalg.permute_basis.calls", "count", "linalg.permute_basis", "calls"),
    ("linalg.permute_basis.self_us", "us", "linalg.permute_basis", "self"),
    ("linalg.qr_decompose.calls", "count", "linalg.qr_decompose", "calls"),
    ("linalg.qr_decompose.self_us", "us", "linalg.qr_decompose", "self"),
    ("klein.backward_sample_into.calls", "count", "klein.backward_sample_into", "calls"),
    ("klein.backward_sample_into.self_us", "us", "klein.backward_sample_into", "self"),
    ("klein.backward_pmf.calls", "count", "klein.backward_pmf", "calls"),
    ("klein.backward_pmf.self_us", "us", "klein.backward_pmf", "self"),
    ("klein.klein_sample_many.draws", "count", "klein.klein_sample_many", "work"),
    ("klein.klein_sample_many.self_ns_per_draw", "ns", "klein.klein_sample_many", "self_per_work"),
    ("mcmc.gibbs_step.self_us", "us", "mcmc.gibbs_step", "self"),
    ("mcmc.gibbs_klein_step.calls", "count", "mcmc.gibbs_klein_step", "calls"),
    ("mcmc.gibbs_klein_step.self_us", "us", "mcmc.gibbs_klein_step", "self"),
    ("mcmc.gibbs_ensemble.chain_steps", "count", "mcmc.gibbs_ensemble", "work"),
    ("mcmc.gibbs_ensemble.self_ns_per_chain_step", "ns", "mcmc.gibbs_ensemble", "self_per_work"),
    ("mcmc.gibbs_kernel_prob.calls", "count", "mcmc.gibbs_kernel_prob", "calls"),
    ("mcmc.gibbs_kernel_prob.self_us", "us", "mcmc.gibbs_kernel_prob", "self"),
    ("mcmc.gibbs_klein_kernel_prob.calls", "count", "mcmc.gibbs_klein_kernel_prob", "calls"),
    ("mcmc.gibbs_klein_kernel_prob.self_us", "us", "mcmc.gibbs_klein_kernel_prob", "self"),
    ("mcmc.run_chain.self_us", "us", "mcmc.run_chain", "self"),
    ("oracle.enumerate_support.box_points", "count", "oracle.enumerate_support", "work"),
    ("oracle.enumerate_support.self_s", "s", "oracle.enumerate_support", "self"),
    ("oracle.tv_distance.calls", "count", "oracle.tv_distance", "calls"),
    ("oracle.tv_distance.self_s", "s", "oracle.tv_distance", "self"),
    ("oracle.single_flip_pairs.self_s", "s", "oracle.single_flip_pairs", "self"),
    ("oracle.detailed_balance_residual.self_s", "s", "oracle.detailed_balance_residual", "self"),
    ("oracle.empirical_from_states.self_s", "s", "oracle.empirical_from_states", "self"),
    ("mimo.ml_decode.self_ms", "ms", "mimo.ml_decode", "self"),
    ("mimo.zf_decode.self_us", "us", "mimo.zf_decode", "self"),
    ("mimo.generate_instance.self_us", "us", "mimo.generate_instance", "self"),
    ("mimo.count_bit_errors.self_us", "us", "mimo.count_bit_errors", "self"),
    *(
        (f"mimo.sampler_decode.{label}.ms_per_trial", "ms", f"mimo.sampler_decode.{label}",
         "incl_per_call")
        for label in (parts.kernel_label(s, m) for s, m in parts.MIMO_JOBS)
    ),
    ("cli.self_s", "s", "cli.main", "self"),
    ("cli.csv_bytes", "bytes", "cli.main", "work"),
    ("cli.gibbs_klein_snapshots.self_s", "s", "cli._gibbs_klein_snapshots", "self"),
]
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

SETUP_REPEATS = 5


def op_seed(seed: int, round_index: int, op_index: int) -> int:
    return int(np.random.SeedSequence([seed, round_index, op_index]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Set-up: imports, inputs, and one small call through each entry point (which
# also fills the ML candidate cache). Timed in fresh processes.


def set_up(seed: int, out_dir: Path) -> "parts.Inputs":
    inp = parts.make_inputs(seed, out_dir)
    mimo.ber_experiment_detailed(parts.mimo_config(1, seed))
    for target in (inp.chain, *inp.diag.values()):
        code = parts.run_cli(["sample", *target.flags(), "--algo", "klein", "--iters", "1",
                              "-o", str(out_dir / "warm-up.csv")])
        if code != 0:
            sys.exit(f"error: warm-up sample on {target.path.name} exited {code}")
    return inp


def time_set_up(workload: str, seed: int, scale: SpeedScale) -> float:
    """Median time of fresh processes that import and set up the workload."""
    times = []
    scale.step()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        times.append((time.perf_counter() - t0) * scale.step())
        if proc.returncode != 0:
            sys.exit(f"error: set-up process failed: {proc.stderr[-500:]}")
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Rounds


@dataclass
class References:
    block_law: tuple
    tv_bounds: dict


def references(inp: "parts.Inputs", wl: Workload, seed: int) -> References:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF1]))
    block_law = parts.checks.exact_law(
        parts.CHAIN_BLOCK, inp.chain_block_center, inp.chain.sigma
    )
    tv_bounds = {
        (n, chains): parts.gibbs_tv_bound(inp.diag[n], chains, rng)
        for n, algo, _, chains, _ in wl.diagnose if algo == "gibbs"
    }
    return References(block_law, tv_bounds)


def run_round(wl: Workload, inp, refs: References, seed: int, round_index: int,
              out_dir: Path, tally: "parts.Tally", pools: "parts.RunPools", ess_log: dict,
              samples: dict,
              scale: SpeedScale, traced: bool) -> None:
    """One round of the workload; appends one sample per metric per timed operation.

    Times are scaled to the reference speed measured around each program call
    (rates divided by the factor, seconds multiplied by it).
    """
    ops = itertools.count()
    for _ in range(wl.mimo_reps):
        s = op_seed(seed, round_index, next(ops))
        if traced:
            parts.mimo_op_traced(MIMO_TRIALS, s, tally)
        else:
            rate = parts.mimo_op(MIMO_TRIALS, s, tally, pools)
            samples.setdefault("mimo.trials_per_s", []).append(rate / scale.step())
    for _ in range(wl.chain_reps):
        for kernel in CHAIN_KERNELS:
            s = op_seed(seed, round_index, next(ops))
            got = parts.sample_op(inp, kernel, s, out_dir, tally, pools, ess_log)
            factor = scale.step()
            if got is not None:
                samples.setdefault(got[0], []).append(got[1] / factor)
    group = {"diagnose.gibbs_s": 0.0, "diagnose.gibbs-klein_s": 0.0}
    s = op_seed(seed, round_index, next(ops))
    for command in wl.diagnose:
        metric, secs = parts.diagnose_op(inp, command, s, out_dir, tally, refs.tv_bounds)
        group[metric] += secs * scale.step()
    for metric, secs in group.items():
        samples.setdefault(metric, []).append(secs)


def layer_metrics(recorder: SpanRecorder, factor: float) -> dict:
    """Per-layer metrics of one traced round; times are multiplied by `factor`."""
    totals = recorder.totals()
    out = {}
    for name, unit, span, stat in LAYER_METRICS:
        t = totals.get(span)
        if t is None:
            value = 0
        elif stat == "calls":
            value = t.calls
        elif stat == "work":
            value = t.work
        elif stat == "self":
            value = factor * t.self_ns / NS_PER_UNIT[unit]
        elif stat == "self_per_work":
            value = factor * t.self_ns / t.work if t.work else 0.0
        else:  # incl_per_call
            value = factor * t.incl_ns / NS_PER_UNIT[unit] / t.calls
        out[name] = value
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    out_dir = OUT / args.workload

    if args.setup_only:
        set_up(args.seed, out_dir / "setup")
        return 0

    inp = set_up(args.seed, out_dir)
    scale = SpeedScale()
    setup_s = time_set_up(args.workload, args.seed, scale)
    refs = references(inp, wl, args.seed)

    tally = parts.Tally()
    pools = parts.RunPools()
    ess_log: dict = {}
    samples: dict = {}
    layer_samples: dict = {}
    plain_busy, traced_busy = [], []
    recorder = None
    start = time.perf_counter()
    while True:
        # A traced round repeats the untraced round before it, so the two
        # differ only by tracing; its chains are checked but not pooled twice.
        index = len(plain_busy)
        before, first = tally.busy_s, len(scale.factors)
        run_round(wl, inp, refs, args.seed, index, out_dir, tally, pools, ess_log, samples,
                  scale, traced=False)
        plain_busy.append((tally.busy_s - before) * statistics.median(scale.factors[first:]))
        if args.trace:
            recorder = SpanRecorder()
            restore = recorder.instrument("lattice_gibbs", parts.probes())
            before, first = tally.busy_s, len(scale.factors)
            try:
                run_round(wl, inp, refs, args.seed, index, out_dir, tally, parts.RunPools(), {},
                          {}, scale, traced=True)
            finally:
                restore()
            factor = statistics.median(scale.factors[first:])
            traced_busy.append((tally.busy_s - before) * factor)
            for name, value in layer_metrics(recorder, factor).items():
                layer_samples.setdefault(name, []).append(value)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain_busy) > args.seconds:
            break

    pools.check(tally, refs.block_law)
    for label, values in sorted(ess_log.items()):
        print(f"ess_per_step {label}: median {statistics.median(values):.4f} "
              f"over {len(values)} commands")
    if args.trace:
        recorder.save(out_dir / "spans.npz")
        plain, traced = statistics.median(plain_busy), statistics.median(traced_busy)
        print(f"tracing overhead: {traced - plain:.3f} s per round "
              f"({100.0 * (traced - plain) / plain:.1f}% of {plain:.3f} s untraced)")
    for message in tally.messages:
        print(f"check failed: {message}", file=sys.stderr)

    if args.trace:
        source = layer_samples
        units = {name: unit for name, unit, _, _ in LAYER_METRICS}
    else:
        source = samples
        units = END_TO_END_UNITS
    values = {name: statistics.median(v) for name, v in source.items()}
    print(f"speed factor: median {statistics.median(scale.factors):.4f} "
          f"over {len(scale.factors)} operations")
    if not args.trace:
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        # A metric whose every operation failed reads 0; `correct` is then false.
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
