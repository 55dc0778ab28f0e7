import itertools
import math

import numpy as np
import pytest

from lattice_gibbs import dgauss1d as dg
from lattice_gibbs import oracle
from lattice_gibbs.dgauss1d import Gaussian1DParams
from lattice_gibbs.klein import (
    GaussianParams,
    KleinSampler,
    klein_pmf,
    klein_pmf_many,
    klein_sample,
    klein_sample_many,
    klein_sigma_default,
    smoothing_threshold,
)
from lattice_gibbs.linalg import LatticeBasis, gram_schmidt_norms

from conftest import make_random_basis


def exact_tv_vs_oracle(sampler, dist):
    """TV between the sampler's exact pmf and an enumerated distribution."""
    pts = np.array(dist.support)
    kp = klein_pmf_many(sampler, pts)
    return 0.5 * np.abs(kp - dist.probs).sum() + 0.5 * abs(1.0 - kp.sum())


class TestKleinSample:
    def test_tiny_sigma_concentrates(self):
        s = KleinSampler(LatticeBasis.identity(2), GaussianParams(0.01, np.array([2.0, -3.0])))
        rng = np.random.default_rng(0)
        for _ in range(300):
            assert np.array_equal(klein_sample(s, rng), [2, -3])

    def test_identity_basis_decouples(self):
        # R = I makes the pmf an exact product of 1-D pmfs
        c = np.array([0.3, -0.6])
        s = KleinSampler(LatticeBasis.identity(2), GaussianParams(1.3, c))
        for x in itertools.product(range(-3, 4), repeat=2):
            expected = dg.pmf(Gaussian1DParams(1.3, c[0]), x[0]) * dg.pmf(
                Gaussian1DParams(1.3, c[1]), x[1]
            )
            assert klein_pmf(s, np.array(x)) == pytest.approx(expected, abs=1e-14)

    def test_empirical_matches_pmf(self, basis_2d):
        # 1e5 draws; Monte Carlo floor here is ~0.006
        s = KleinSampler(basis_2d, GaussianParams(1.5, np.zeros(2)))
        draws = klein_sample_many(s, 100_000, np.random.default_rng(5))
        emp = oracle.empirical_from_states(draws)
        box = oracle.enumerate_support(basis_2d, s.params, 1e-9)
        kp = klein_pmf_many(s, np.array(box.support))
        exact = oracle.DiscreteDistribution(box.support, kp / kp.sum())
        assert oracle.tv_distance(emp, exact) <= 0.01

    def test_empirical_matches_pmf_3d(self):
        # sigma kept below ~1 so the 1e5-draw Monte Carlo floor (~ sigma^1.5
        # per axis) stays under the 0.015 tolerance
        rng = np.random.default_rng(31)
        basis = make_random_basis(rng, 3)
        s = KleinSampler(basis, GaussianParams(0.8, rng.uniform(-1, 1, 3)))
        draws = klein_sample_many(s, 100_000, np.random.default_rng(8))
        emp = oracle.empirical_from_states(draws)
        box = oracle.enumerate_support(basis, s.params, 1e-6)
        kp = klein_pmf_many(s, np.array(box.support))
        exact = oracle.DiscreteDistribution(box.support, kp / kp.sum())
        assert oracle.tv_distance(emp, exact) <= 0.015

    def test_every_draw_goes_through_dgauss1d_sample(self, monkeypatch):
        basis = make_random_basis(np.random.default_rng(2), 4)
        sampler = KleinSampler(basis, GaussianParams(0.9, np.array([0.3, -1.2, 0.5, 2.0])))
        expected = [klein_sample(sampler, np.random.default_rng(s)) for s in range(25)]
        calls = []
        draw = dg.sample

        def counting(alpha, center, rng):
            calls.append(alpha)
            return draw(alpha, center, rng)

        monkeypatch.setattr(dg, "sample", counting)
        got = [klein_sample(sampler, np.random.default_rng(s)) for s in range(25)]
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))
        assert len(calls) == 25 * 4

    def test_sample_many_agrees_with_scalar_path(self, basis_2d):
        # distinct vectorization, same distribution
        s = KleinSampler(basis_2d, GaussianParams(1.0, np.array([0.2, 0.4])))
        bulk = klein_sample_many(s, 30_000, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        scalar = np.array([klein_sample(s, rng) for _ in range(30_000)])
        tv = oracle.tv_distance(
            oracle.empirical_from_states(bulk), oracle.empirical_from_states(scalar)
        )
        assert tv <= 0.02


class TestKleinPmf:
    def test_sums_to_one_over_box(self, basis_2d):
        s = KleinSampler(basis_2d, GaussianParams(1.2, np.array([0.3, 0.7])))
        box = oracle.enumerate_support(basis_2d, s.params, 1e-9)
        total = klein_pmf_many(s, np.array(box.support)).sum()
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_close_to_target_above_smoothing(self, basis_2d):
        target = GaussianParams(3.0 * gram_schmidt_norms(basis_2d).max(), np.zeros(2))
        s = KleinSampler(basis_2d, target)
        exact = oracle.enumerate_support(basis_2d, target, 1e-6)
        assert exact_tv_vs_oracle(s, exact) <= 0.01

    def test_exact_on_diagonal_bases(self):
        basis = LatticeBasis.from_matrix(np.diag([2.0, 0.5, 1.25]))
        target = GaussianParams(0.8, np.array([0.3, -0.4, 0.9]))
        exact = oracle.enumerate_support(basis, target, 1e-12)
        kp = klein_pmf_many(KleinSampler(basis, target), np.array(exact.support))
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
                tvs.append(exact_tv_vs_oracle(KleinSampler(basis, target), exact))
            for lo, hi in zip(tvs[1:], tvs[:-1]):
                assert lo <= hi + 1e-3
            assert tvs[-1] <= 0.01


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

    def test_threshold_linear_in_omega(self, basis_2d):
        assert smoothing_threshold(basis_2d, 2.0) == pytest.approx(
            2.0 * smoothing_threshold(basis_2d, 1.0), rel=1e-12
        )

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
