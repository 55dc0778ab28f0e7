import itertools
import math

import numpy as np
import pytest

from lattice_gibbs import dgauss1d as dg
from lattice_gibbs import oracle
from lattice_gibbs.klein import (
    GaussianParams,
    GibbsKleinConfig,
    backward_pmf,
    backward_pmf_many,
    backward_rows,
    backward_sample_into,
    block_conditional,
    block_conditional_rows,
    klein_pmf,
    klein_sample_many,
    klein_sigma_default,
    smoothing_threshold,
)
from lattice_gibbs.linalg import LatticeBasis, gram_schmidt_norms, qr_decompose
from lattice_gibbs.mcmc import _draw_z

from conftest import make_random_basis


def klein_cfg(basis, target):
    return GibbsKleinConfig(basis, target, basis.n)


def scalar_klein_pass(cfg, rng):
    """One Klein pass through the scalar block step and its 1-D draw over Z."""
    u, c = block_conditional(cfg.gram, cfg.bc, [], range(cfg.basis.n), [])
    z = [0] * cfg.basis.n
    backward_sample_into(u, c, cfg.target.sigma, z, rng.random(cfg.basis.n).tolist(), _draw_z)
    return z


def exact_tv_vs_oracle(cfg, dist):
    """TV between Klein's exact pmf and an enumerated distribution."""
    pts = np.array(dist.support)
    kp = klein_pmf(cfg, pts)
    return 0.5 * np.abs(kp - dist.probs).sum() + 0.5 * abs(1.0 - kp.sum())


class TestKleinSample:
    def test_tiny_sigma_concentrates(self):
        cfg = klein_cfg(LatticeBasis.identity(2), GaussianParams(0.01, np.array([2.0, -3.0])))
        draws = klein_sample_many(cfg, 300, np.random.default_rng(0))
        assert (draws == [2, -3]).all()

    def test_identity_basis_decouples(self):
        # R = I makes the pmf an exact product of 1-D pmfs
        c = np.array([0.3, -0.6])
        cfg = klein_cfg(LatticeBasis.identity(2), GaussianParams(1.3, c))
        xs = np.array(list(itertools.product(range(-3, 4), repeat=2)))
        for x, got in zip(xs, klein_pmf(cfg, xs)):
            expected = dg.pmf(1.3, c[0], x[0]) * dg.pmf(1.3, c[1], x[1])
            assert got == pytest.approx(expected, abs=1e-14)

    def test_empirical_matches_pmf(self, basis_2d):
        # 1e5 draws; Monte Carlo floor here is ~0.006
        cfg = klein_cfg(basis_2d, GaussianParams(1.5, np.zeros(2)))
        draws = klein_sample_many(cfg, 100_000, np.random.default_rng(5))
        emp = oracle.empirical_from_states(draws)
        box = oracle.enumerate_support(basis_2d, cfg.target, 1e-9)
        kp = klein_pmf(cfg, np.array(box.support))
        exact = oracle.DiscreteDistribution(box.support, kp / kp.sum())
        assert oracle.tv_distance(emp, exact) <= 0.01

    def test_empirical_matches_pmf_3d(self):
        # sigma kept below ~1 so the 1e5-draw Monte Carlo floor (~ sigma^1.5
        # per axis) stays under the 0.015 tolerance
        rng = np.random.default_rng(31)
        basis = make_random_basis(rng, 3)
        cfg = klein_cfg(basis, GaussianParams(0.8, rng.uniform(-1, 1, 3)))
        draws = klein_sample_many(cfg, 100_000, np.random.default_rng(8))
        emp = oracle.empirical_from_states(draws)
        box = oracle.enumerate_support(basis, cfg.target, 1e-6)
        kp = klein_pmf(cfg, np.array(box.support))
        exact = oracle.DiscreteDistribution(box.support, kp / kp.sum())
        assert oracle.tv_distance(emp, exact) <= 0.015

    def test_sample_many_agrees_with_scalar_path(self, basis_2d):
        # distinct vectorization, same distribution
        cfg = klein_cfg(basis_2d, GaussianParams(1.0, np.array([0.2, 0.4])))
        bulk = klein_sample_many(cfg, 30_000, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        scalar = np.array([scalar_klein_pass(cfg, rng) for _ in range(30_000)])
        tv = oracle.tv_distance(
            oracle.empirical_from_states(bulk), oracle.empirical_from_states(scalar)
        )
        assert tv <= 0.02


class TestKleinPmf:
    def test_sums_to_one_over_box(self, basis_2d):
        cfg = klein_cfg(basis_2d, GaussianParams(1.2, np.array([0.3, 0.7])))
        box = oracle.enumerate_support(basis_2d, cfg.target, 1e-9)
        total = klein_pmf(cfg, np.array(box.support)).sum()
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_close_to_target_above_smoothing(self, basis_2d):
        target = GaussianParams(3.0 * gram_schmidt_norms(basis_2d).max(), np.zeros(2))
        exact = oracle.enumerate_support(basis_2d, target, 1e-6)
        assert exact_tv_vs_oracle(klein_cfg(basis_2d, target), exact) <= 0.01

    def test_exact_on_diagonal_bases(self):
        basis = LatticeBasis.from_matrix(np.diag([2.0, 0.5, 1.25]))
        target = GaussianParams(0.8, np.array([0.3, -0.4, 0.9]))
        exact = oracle.enumerate_support(basis, target, 1e-12)
        kp = klein_pmf(klein_cfg(basis, target), np.array(exact.support))
        assert np.abs(kp - exact.probs).max() <= 1e-10

    def test_tv_non_increasing_in_sigma(self):
        # sweep {0.5, 1, 2, 4} x max gs norm on fixed random 3-D bases
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            basis = make_random_basis(rng, 3)
            scale = gram_schmidt_norms(basis).max()
            center = rng.uniform(-1, 1, 3)
            tvs = []
            for mult in (0.5, 1.0, 2.0, 4.0):
                target = GaussianParams(mult * scale, center)
                exact = oracle.enumerate_support(basis, target, 1e-5)
                tvs.append(exact_tv_vs_oracle(klein_cfg(basis, target), exact))
            for lo, hi in zip(tvs[1:], tvs[:-1]):
                assert lo <= hi + 1e-3
            assert tvs[-1] <= 0.01

    @pytest.mark.parametrize("case", ["skew", "n3-0.5", "n3-3.0", "n4-0.5", "n4-3.0"])
    def test_block_step_factor_matches_sign_fixed_qr_reference(self, case):
        # Klein's pmf on chol(B^T B) against the same pass on the sign-fixed
        # QR, over the distinct rows of Klein's own draws, where its mass sits
        if case == "skew":  # criterion 1's basis and sigma
            basis = LatticeBasis.from_matrix([[1.0, 0.0], [10.0, 1.0]])
            target = GaussianParams(0.2 * gram_schmidt_norms(basis).min(), np.array([0.5, 0.5]))
        else:
            n, mult = int(case[1]), float(case[3:])
            rng = np.random.default_rng(60 + n)
            basis = make_random_basis(rng, n)
            target = GaussianParams(mult * gram_schmidt_norms(basis).min(), rng.uniform(-1, 1, n))
        cfg = klein_cfg(basis, target)
        pts = np.unique(klein_sample_many(cfg, 20_000, np.random.default_rng(3)), axis=0)
        q, r = qr_decompose(basis.matrix)
        ref = backward_pmf_many(r, q.T @ target.center, target.sigma, pts, basis.n)
        assert 0.5 * np.abs(klein_pmf(cfg, pts) - ref).sum() <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_row_pass_equals_scalar_pass_bitwise(self, n):
        # Klein's draws and rows one or two steps off them, so that low and
        # zero probabilities are covered too
        rng = np.random.default_rng(70 + n)
        basis = make_random_basis(rng, n)
        target = GaussianParams(0.6 * gram_schmidt_norms(basis).min(), rng.uniform(-1, 1, n))
        cfg = klein_cfg(basis, target)
        draws = klein_sample_many(cfg, 3000, np.random.default_rng(5))
        xs = np.concatenate([draws, draws[:600] + rng.integers(-2, 3, (600, n))])
        u, c = block_conditional(cfg.gram, cfg.bc, [], range(n), [])
        scalar = [backward_pmf(np.array(u), np.array(c), target.sigma, x, n) for x in xs]
        assert klein_pmf(cfg, xs).tolist() == scalar
        # block_conditional_rows, each row on its own ordered block, against
        # one scalar call per row
        for m in range(1, n + 1):
            order = np.array([rng.permutation(n) for _ in xs])
            u, c = block_conditional_rows(cfg.gram, cfg.bc, xs, order[:, :m], order[:, m:])
            for r, (row, perm) in enumerate(zip(xs.tolist(), order.tolist())):
                assert block_conditional(cfg.gram, cfg.bc, row, perm[:m], perm[m:]) == (
                    u[r].tolist(), c[r].tolist())


def recorded_pass(u, c, sigma, z, us=None):
    """The (alpha, center, uniform) of each 1-D draw, in draw order (i = m-1,
    ..., 0), of a `backward_sample_into` pass on the uniforms us (default
    None each) made to output the block state z."""
    calls, out = [], iter(reversed(z))

    def draw(alpha, center, u):
        calls.append((alpha, center, u))
        return next(out)

    backward_sample_into(u, c, sigma, [0] * len(z), [None] * len(z) if us is None else us, draw)
    return calls


def pmf_at(calls, z):
    """The product of the 1-D pmfs at the recorded centers, in the passes' order."""
    prob = 1.0
    for (alpha, center, _), k in zip(calls, reversed(z)):
        prob *= dg.pmf(alpha, center, k)
    return prob


@pytest.mark.parametrize("m", [1, 2, 3])
def test_pass_hands_draw_k_the_uniform_us_k(m):
    # distinct diagonals, so each draw's alpha names its coordinate: draw k
    # is coordinate i = m-1-k, on us[k], at c_i less the pull of the
    # coordinates drawn before it
    rng = np.random.default_rng(m)
    u = np.triu(rng.uniform(0.5, 1.5, (m, m)))
    u[np.diag_indices(m)] = np.arange(1.0, m + 1.0)
    c, us, z = rng.normal(size=m).tolist(), rng.random(m).tolist(), rng.integers(-3, 4, m).tolist()
    calls = recorded_pass(u.tolist(), c, 0.7, z, us)
    assert [rec[2] for rec in calls] == us
    assert [rec[0] for rec in calls] == [0.7 / (m - k) for k in range(m)]
    for k, (_, center, _) in enumerate(calls):
        i = m - 1 - k
        acc = c[i]
        for j in range(i + 1, m):
            acc -= u[i, j] * z[j]
        assert center == acc / u[i, i]


class TestSamplingAndEvaluationShareCenters:
    """The centers a draw is made from, recorded from the scalar sampling
    pass, against those every row pass and every pmf recomputes, bit for bit."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_block_passes(self, n):
        # 25 states near Klein's draws for each block size m = 1..n
        rng = np.random.default_rng(90 + n)
        basis = make_random_basis(rng, n)
        target = GaussianParams(0.6 * gram_schmidt_norms(basis).min(), rng.uniform(-1, 1, n))
        sigma, cfg = target.sigma, klein_cfg(basis, target)
        xs = klein_sample_many(cfg, 25, rng) + rng.integers(-1, 2, (25, n))
        for m in range(1, n + 1):
            order = np.tile(rng.permutation(n), (len(xs), 1))
            u, c = block_conditional_rows(cfg.gram, cfg.bc, xs, order[:, :m], order[:, m:])
            zs = np.take_along_axis(xs, order[:, :m], axis=1)
            calls = [recorded_pass(ur.tolist(), cr.tolist(), sigma, z)
                     for ur, cr, z in zip(u, c, zs.tolist())]
            for factor in (u, u[0]):  # per-row factors and the rows' shared one
                for i, rii, centers in backward_rows(factor, c, zs):
                    assert (sigma / np.broadcast_to(rii, len(xs))).tolist() == [
                        rec[m - 1 - i][0] for rec in calls]
                    assert centers.tolist() == [rec[m - 1 - i][1] for rec in calls]
            expected = [pmf_at(rec, z) for rec, z in zip(calls, zs.tolist())]
            assert [backward_pmf(ur, cr, sigma, z, m) for ur, cr, z in zip(u, c, zs)] == expected
            assert backward_pmf_many(u[0], c, sigma, zs, m).tolist() == expected

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_klein_batch_and_pmf(self, n, monkeypatch):
        rng = np.random.default_rng(95 + n)
        basis = make_random_basis(rng, n)
        target = GaussianParams(0.6 * gram_schmidt_norms(basis).min(), rng.uniform(-1, 1, n))
        cfg = klein_cfg(basis, target)
        xs = klein_sample_many(cfg, 100, rng) + rng.integers(-1, 2, (100, n))
        u, c = block_conditional(cfg.gram, cfg.bc, [], range(n), [])
        calls = [recorded_pass(u, c, target.sigma, x) for x in xs.tolist()]
        assert klein_pmf(cfg, xs).tolist() == [pmf_at(rec, x) for rec, x in zip(calls, xs.tolist())]
        # the batch sampler made to draw xs: its 1-D draws see the same centers
        seen, cols = [], iter(xs.T[::-1])

        def sample_rows(alpha, centers, rng):
            seen.append((alpha, centers.tolist()))
            return next(cols)

        monkeypatch.setattr(dg, "sample_rows", sample_rows)
        assert klein_sample_many(cfg, len(xs), rng).tolist() == xs.tolist()
        for t, (alpha, centers) in enumerate(seen):
            assert [(alpha, v) for v in centers] == [rec[t][:2] for rec in calls]


class TestSigmaChoices:
    def test_default_identity_n8(self):
        got = klein_sigma_default(LatticeBasis.identity(8))
        assert got == pytest.approx(1.0 / math.sqrt(math.log(8)), rel=1e-12)
        assert got == pytest.approx(0.6934, abs=1e-4)

    def test_default_scales_with_basis(self, basis_2d):
        assert klein_sigma_default(
            LatticeBasis.from_matrix(3.0 * basis_2d.matrix)
        ) == pytest.approx(3.0 * klein_sigma_default(basis_2d), rel=1e-12)

    def test_default_needs_n_at_least_2(self):
        with pytest.raises(ValueError):
            klein_sigma_default(LatticeBasis.identity(1))

    def test_threshold_identity_n8(self):
        got = smoothing_threshold(LatticeBasis.identity(8))
        assert got == pytest.approx(math.sqrt(math.log(8)), rel=1e-12)
        assert got == pytest.approx(1.4421, abs=1e-4)

    def test_threshold_default_vs_sigma_default_identity(self):
        # with equal gs norms: threshold / sigma_default = log n
        basis = LatticeBasis.identity(8)
        ratio = smoothing_threshold(basis) / klein_sigma_default(basis)
        assert ratio == pytest.approx(math.log(8), rel=1e-12)

    def test_threshold_needs_n_at_least_2(self):
        with pytest.raises(ValueError):
            smoothing_threshold(LatticeBasis.identity(1))


class TestGaussianParams:
    @pytest.mark.parametrize("center", [[np.nan, 0.0], [0.0, np.inf], [-np.inf]])
    def test_non_finite_center_rejected(self, center):
        with pytest.raises(ValueError, match="center must be finite"):
            GaussianParams(1.0, np.array(center))
