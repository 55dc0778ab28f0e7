"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete. The statistical criteria fix their seeds; margins are computed from
paired per-trial data where the criterion calls for them.
"""

import itertools
import math
import time

import numpy as np
import pytest
from conftest import make_random_basis, per_pair

from lattice_gibbs import cli, mcmc, mimo, oracle
from lattice_gibbs import dgauss1d as dg
from lattice_gibbs.klein import GaussianParams, GibbsKleinConfig, backward_pmf_many, klein_pmf
from lattice_gibbs.linalg import LatticeBasis, gram_schmidt_norms, permute_basis, qr_decompose

# one-sided z for a family of 9 comparisons at joint 95% (0.05/9 per test)
Z_FAMILY_9 = 2.539
Z_95 = 1.96


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num}: {status} - {description}{suffix}", flush=True)
    assert ok, f"criterion {num}: {description}{suffix}"


def exact_tv(basis: LatticeBasis, target: GaussianParams, dist) -> float:
    kp = klein_pmf(GibbsKleinConfig(basis, target, basis.n), np.array(dist.support))
    return 0.5 * np.abs(kp - dist.probs).sum() + 0.5 * abs(1.0 - kp.sum())


def test_criterion_1_klein_exactness_and_failure():
    t0 = time.time()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        basis = make_random_basis(rng, 3)
        sigma = 3.0 * gram_schmidt_norms(basis).max()
        target = GaussianParams(sigma, rng.uniform(-1.0, 1.0, 3))
        dist = oracle.enumerate_support(basis, target, 1e-4)
        worst = max(worst, exact_tv(basis, target, dist))
    # skew basis, rows (1,0) and (10,1): Gram-Schmidt norms (sqrt(101),
    # 1/sqrt(101)); far below smoothing, a Klein pass lands on distant points
    skew = LatticeBasis.from_matrix([[1.0, 0.0], [10.0, 1.0]])
    sigma_low = 0.2 * gram_schmidt_norms(skew).min()
    target_low = GaussianParams(sigma_low, np.array([0.5, 0.5]))
    dist_low = oracle.enumerate_support(skew, target_low, 1e-9)
    tv_low = exact_tv(skew, target_low, dist_low)
    elapsed = time.time() - t0
    ok = worst <= 0.01 and tv_low >= 0.05 and elapsed < 10.0
    report(
        1,
        "Klein exact above smoothing (TV<=0.01), fails below (TV>=0.05)",
        ok,
        f"worst high-sigma TV {worst:.2e}, skew TV {tv_low:.3f}, {elapsed:.1f}s",
    )


def test_criterion_2_gibbs_stationarity_and_balance(basis_2d):
    t0 = time.time()
    target = GaussianParams(1.0, np.array([0.3, 0.7]))
    exact = oracle.enumerate_support(basis_2d, target, 1e-12)
    support = list(map(tuple, exact.support.tolist()))
    probs = dict(zip(support, exact.probs.tolist()))
    cfg = mcmc.GibbsKleinConfig(basis_2d, target, 1)

    conds: dict = {}

    def cond(x, i):
        key = (i, x[:i], x[i + 1 :])
        if key not in conds:
            ks, ps = dg.pmf_table(*mcmc.gibbs_conditional(cfg, np.array(x), i))
            conds[key] = dict(zip(ks.tolist(), ps.tolist()))
        return conds[key]

    def kernel(a, b):
        diffs = [k for k in range(2) if a[k] != b[k]]
        if len(diffs) >= 2:
            return 0.0
        if len(diffs) == 1:
            k = diffs[0]
            return cond(a, k).get(b[k], 0.0) / 2.0
        return sum(cond(a, k).get(a[k], 0.0) for k in range(2)) / 2.0

    by_rest: dict = {}
    for s in support:
        for i in range(2):
            by_rest.setdefault((i, s[:i], s[i + 1 :]), []).append(s)
    inv_residual = 0.0
    for s_to in support:
        mass = probs[s_to] * kernel(s_to, s_to)
        for i in range(2):
            for s_from in by_rest[(i, s_to[:i], s_to[i + 1 :])]:
                if s_from != s_to:
                    mass += probs[s_from] * kernel(s_from, s_to)
        inv_residual = max(inv_residual, abs(mass - probs[s_to]))

    # valid pairs: single-coordinate flips with both transitions representable
    # at the truncation (flows outside the tail window are exact zeros)
    pairs = [
        (a, b)
        for a, b in (map(tuple, pair) for pair in oracle.single_flip_pairs(exact).tolist())
        if kernel(a, b) > 0.0 and kernel(b, a) > 0.0
    ]
    balance = oracle.detailed_balance_residual(per_pair(kernel), exact, pairs)
    elapsed = time.time() - t0
    ok = inv_residual <= 1e-8 and balance.max_rel_residual <= 1e-10 and elapsed < 5.0
    report(
        2,
        "Gibbs invariance <=1e-8 and exact detailed balance <=1e-10",
        ok,
        f"invariance {inv_residual:.2e}, balance rel {balance.max_rel_residual:.2e} "
        f"over {balance.pairs_checked} pairs, {elapsed:.1f}s",
    )


def test_criterion_3_gibbs_converges_below_smoothing(basis_2d):
    t0 = time.time()
    sigma = 0.5 * gram_schmidt_norms(basis_2d).min()
    target = GaussianParams(sigma, np.array([0.3, 0.7]))
    _, pooled = mcmc.gibbs_ensemble(
        basis_2d, target, (0, 0), 10_000, 2_000, np.random.default_rng(0), pool_from=1_000
    )
    exact = oracle.enumerate_support(basis_2d, target, 1e-12)
    tv = oracle.tv_distance(pooled, exact)
    elapsed = time.time() - t0
    ok = tv <= 0.02 and elapsed < 60.0
    report(
        3,
        "Gibbs reaches the target at sigma = 0.5 min gs-norm (TV<=0.02)",
        ok,
        f"TV {tv:.4f} from 1e4 chains x 1e3 post-burn-in steps, {elapsed:.1f}s",
    )


def test_criterion_4_block_conditional_accuracy():
    t0 = time.time()
    worst_tv = 0.0
    worst_ratio = 1.0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        basis = make_random_basis(rng, 3)
        r_diag = np.abs(np.diag(basis.r_factor))
        sigma = 3.0 * r_diag.max()
        target = GaussianParams(sigma, rng.uniform(-1.0, 1.0, 3))
        order = rng.permutation(3)
        z_rest = np.array([int(rng.integers(-2, 3))])
        exact = oracle.block_conditional_exact(basis, target, order, 2, z_rest, 1e-6)
        q, r = qr_decompose(basis.matrix[:, order])
        zs = np.hstack(
            [np.array(exact.support, float), np.tile(z_rest, (len(exact.support), 1))]
        )
        bp = backward_pmf_many(r, q.T @ target.center, sigma, zs, 2)
        tv = 0.5 * np.abs(bp - exact.probs).sum() + 0.5 * abs(1.0 - bp.sum())
        worst_tv = max(worst_tv, tv)
        r_block = np.abs(np.diag(r))[:2]
        shifts = rng.uniform(-0.5, 0.5, (100, 2)) * r_block
        lo, _ = oracle.smoothing_ratio_window(r_block, sigma, shifts)
        worst_ratio = min(worst_ratio, lo)
    elapsed = time.time() - t0
    ok = worst_tv <= 0.01 and worst_ratio >= 0.999 and elapsed < 10.0
    report(
        4,
        "block pmf within TV 0.01 of exact conditional; theta ratio >= 0.999",
        ok,
        f"worst TV {worst_tv:.2e}, min ratio {worst_ratio:.6f}, {elapsed:.1f}s",
    )


def test_criterion_5_kernel_reductions(basis_2d):
    t0 = time.time()
    target = GaussianParams(1.0, np.array([0.3, 0.7]))
    cfg_m1 = mcmc.GibbsKleinConfig(basis_2d, target, 1)
    states = list(itertools.product(range(-3, 4), repeat=2))
    worst_m1 = 0.0
    for a in states:
        for b in states:
            gibbs_p = mcmc.gibbs_kernel_prob(cfg_m1, a, b)
            gk_p = mcmc.gibbs_klein_kernel_prob(cfg_m1, a, b)
            worst_m1 = max(worst_m1, abs(gibbs_p - gk_p))

    cfg_mn = mcmc.GibbsKleinConfig(basis_2d, target, 2)
    worst_mn = 0.0
    for order in itertools.permutations(range(2)):
        klein_cfg = GibbsKleinConfig(permute_basis(basis_2d, order), target, 2)
        klein_probs = klein_pmf(klein_cfg, np.array(states))
        for z, klein_p in zip(states, klein_probs):
            block = mcmc.gibbs_klein_block_pmf(cfg_mn, order, np.array(z)[np.argsort(order)])
            worst_mn = max(worst_mn, abs(block - klein_p))
    elapsed = time.time() - t0
    ok = worst_m1 <= 1e-12 and worst_mn <= 1e-12 and elapsed < 5.0
    report(
        5,
        "gibbs-klein(m=1) = Gibbs kernel and gibbs-klein(m=n) = permuted Klein (1e-12)",
        ok,
        f"m=1 max diff {worst_m1:.2e}, m=n max diff {worst_mn:.2e}, {elapsed:.1f}s",
    )


def _paired_margin(d: np.ndarray, z: float) -> float:
    """z * standard error of the summed per-trial differences."""
    return float(z * d.std(ddof=1) * math.sqrt(len(d)))


def test_criterion_6_mimo_qualitative_orderings():
    t0 = time.time()
    cfg = mimo.MimoConfig(
        n_tx=4,
        n_rx=4,
        ebn0_db=15.0,
        trials=10_000,
        iteration_budgets=(1, 5, 20),
        block_sizes=(1, 2, 4, 8),
        decoders=("zf", "ml", "klein", "gibbs", "gibbs-klein"),
        seed=0,
    )
    table, per_trial = mimo.ber_experiment_detailed(cfg)
    errs = {k: int(v.sum()) for k, v in per_trial.items()}
    zf = per_trial[("zf", None, None)]
    ml = per_trial[("ml", None, None)]
    sampler_keys = [k for k in per_trial if k[0] not in ("zf", "ml")]

    # (a) sandwich with paired 95% margins
    ok_a = True
    for key in sampler_keys:
        s = per_trial[key]
        ok_a &= errs[("ml", None, None)] <= errs[key] + _paired_margin(
            (s - ml).astype(float), Z_95
        )
        ok_a &= errs[key] <= errs[("zf", None, None)] + _paired_margin(
            (zf - s).astype(float), Z_95
        )

    # (b) BER non-increasing in iterations per sampler, paired margins
    ok_b = True
    budgets = (1, 5, 20)
    for dec, m in {(k[0], k[1]) for k in sampler_keys}:
        for b_lo, b_hi in zip(budgets, budgets[1:]):
            d = (per_trial[(dec, m, b_hi)] - per_trial[(dec, m, b_lo)]).astype(float)
            ok_b &= errs[(dec, m, b_hi)] <= errs[(dec, m, b_lo)] + _paired_margin(d, Z_95)

    # (c) BER non-increasing in block size at each budget; 9 joint one-sided
    # comparisons, so the family-wise 95% margin uses z = 2.539
    ok_c = True
    detail_c = []
    for budget in budgets:
        for m_lo, m_hi in zip((1, 2, 4), (2, 4, 8)):
            e_lo = errs[("gibbs-klein", m_lo, budget)]
            e_hi = errs[("gibbs-klein", m_hi, budget)]
            d = (
                per_trial[("gibbs-klein", m_hi, budget)]
                - per_trial[("gibbs-klein", m_lo, budget)]
            ).astype(float)
            margin = _paired_margin(d, Z_FAMILY_9)
            ok_c &= e_hi <= e_lo + margin
            if e_hi > e_lo:
                detail_c.append(f"T={budget} m{m_lo}->m{m_hi}: +{e_hi - e_lo} vs {margin:.0f}")

    elapsed = time.time() - t0
    ok = ok_a and ok_b and ok_c and elapsed < 600.0
    zf_ber = errs[("zf", None, None)] / (cfg.trials * 16)
    ml_ber = errs[("ml", None, None)] / (cfg.trials * 16)
    report(
        6,
        "MIMO: ML <= sampler <= ZF; BER monotone in iterations and block size",
        ok,
        f"ZF {zf_ber:.2e} ML {ml_ber:.2e}; a={ok_a} b={ok_b} c={ok_c}"
        + (f" ({'; '.join(detail_c)})" if detail_c else "")
        + f", {elapsed:.0f}s",
    )


def test_criterion_7_cli_determinism(tmp_path):
    t0 = time.time()
    basis_path = tmp_path / "b2.txt"
    basis_path.write_text("2\n1 0.5\n0 1\n")
    runs = {
        "sample-klein": [
            "sample", "--basis", str(basis_path), "--algo", "klein",
            "--sigma", "1.2", "--iters", "50", "--seed", "11",
        ],
        "sample-gibbs-klein": [
            "sample", "--basis", str(basis_path), "--algo", "gibbs-klein",
            "--block-size", "2", "--sigma", "1.0", "--iters", "40",
            "--chains", "3", "--seed", "12",
        ],
        "diagnose-gibbs": [
            "diagnose", "--basis", str(basis_path), "--algo", "gibbs",
            "--sigma", "1.0", "--iters", "16", "--chains", "400", "--seed", "13",
        ],
        "mimo": [
            "mimo", "--trials", "30", "--iterations", "1,3", "--block-sizes", "1,4",
            "--decoders", "zf,ml,gibbs-klein", "--seed", "14",
        ],
    }
    ok = True
    for name, args in runs.items():
        out_a = tmp_path / f"{name}-a.csv"
        out_b = tmp_path / f"{name}-b.csv"
        assert cli.main(args + ["--output", str(out_a)]) == 0
        assert cli.main(args + ["--output", str(out_b)]) == 0
        ok &= out_a.read_bytes() == out_b.read_bytes()
    elapsed = time.time() - t0
    report(
        7,
        "CLI commands re-run with the same seed give byte-identical CSV",
        ok,
        f"{len(runs)} commands checked, {elapsed:.1f}s",
    )
