#!/usr/bin/env python3
"""TV-convergence curves: how fast each kernel approaches the exact target.

Runs an ensemble of chains on a small test lattice at a sigma below the
smoothing threshold (where a single Klein pass is off target) and prints the
empirical TV to the enumeration oracle at doubling checkpoints, for Gibbs and
for Gibbs-Klein at several block sizes.
"""

import argparse
import math

import numpy as np

from lattice_gibbs import oracle
from lattice_gibbs.cli import default_checkpoints, tv_curve
from lattice_gibbs.klein import GaussianParams
from lattice_gibbs.linalg import LatticeBasis, gram_schmidt_norms


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--chains", type=int, default=2_000)
    ap.add_argument("--steps", type=int, default=64)
    ap.add_argument("--sigma-factor", type=float, default=0.6,
                    help="sigma as a multiple of the smallest Gram-Schmidt norm")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--output", default="convergence.csv")
    args = ap.parse_args()
    if args.chains < 1:
        ap.error("--chains must be >= 1")
    if args.steps < 1:
        ap.error("--steps must be >= 1")
    if not 0.0 < args.sigma_factor < math.inf:
        ap.error("--sigma-factor must be positive and finite")

    basis = LatticeBasis.from_matrix([[1.0, 0.6, 0.3], [0.0, 0.8, 0.5], [0.0, 0.0, 0.9]])
    sigma = args.sigma_factor * gram_schmidt_norms(basis).min()
    target = GaussianParams(sigma, np.array([0.3, -0.2, 0.4]))
    exact = oracle.enumerate_support(basis, target, 1e-9)
    marks = default_checkpoints(args.steps)

    x0 = (0, 0, 0)
    tv0 = tv_curve("klein", basis, target, x0, None, args.chains, args.seed, [1], exact)[0]
    print(f"sigma = {sigma:.3f} (threshold would need "
          f"{gram_schmidt_norms(basis).max() * np.sqrt(np.log(3)):.3f})")
    print(f"single Klein pass: TV = {tv0:.3f}")
    lines = ["kernel,block_size,t,tv_distance", f"klein,,1,{tv0:.10g}"]

    curves = {("gibbs", ""): tv_curve("gibbs", basis, target, x0, None, args.chains,
                                      args.seed + 1, marks, exact)}
    for m in (2, 3):
        curves[("gibbs-klein", m)] = tv_curve("gibbs-klein", basis, target, x0, m, args.chains,
                                              args.seed + 10 + m, marks, exact)
    print(f"{'t':>6} {'gibbs':>10}" + "".join(f" {f'gk m={m}':>10}" for m in (2, 3)))
    for t, *row in zip(marks, *curves.values()):
        print(f"{t:>6} " + " ".join(f"{v:>10.4f}" for v in row))
    for (kernel, m), curve in curves.items():
        lines.extend(f"{kernel},{m},{t},{tv:.10g}" for t, tv in zip(marks, curve))
    with open(args.output, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
