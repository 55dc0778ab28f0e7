import itertools
import math
import tracemalloc

import numpy as np
import pytest

from lattice_gibbs import dgauss1d as dg
from lattice_gibbs import mcmc, oracle
from lattice_gibbs.klein import GaussianParams, backward_pmf_many
from lattice_gibbs.linalg import LatticeBasis, permute_basis, qr_decompose
from lattice_gibbs.oracle import DiscreteDistribution

from conftest import make_random_basis, per_pair


class TestEnumerateSupport:
    def test_1d_matches_dgauss(self):
        basis = LatticeBasis.from_matrix([[1.0]])
        target = GaussianParams(1.0, np.array([0.0]))
        dist = oracle.enumerate_support(basis, target, 1e-12)
        for point, prob in zip(dist.support, dist.probs):
            assert prob == pytest.approx(dg.pmf(1.0, 0.0, point[0]), abs=1e-12)

    def test_identity_2d_is_product(self):
        target = GaussianParams(0.9, np.array([0.2, -0.7]))
        dist = oracle.enumerate_support(LatticeBasis.identity(2), target, 1e-12)
        for (a, b), prob in zip(dist.support, dist.probs):
            expected = dg.pmf(0.9, 0.2, a) * dg.pmf(0.9, -0.7, b)
            assert prob == pytest.approx(expected, abs=1e-12)

    def test_mode_is_cvp(self, basis_2d):
        target = GaussianParams(1.0, np.array([0.3, 0.7]))
        dist = oracle.enumerate_support(basis_2d, target, 1e-9)
        # independent oracle: exhaustive closest-point search over the box
        best = min(
            dist.support,
            key=lambda p: np.linalg.norm(basis_2d.matrix @ np.array(p) - target.center),
        )
        assert tuple(dist.support[np.argmax(dist.probs)]) == tuple(best)

    def test_mode_is_cvp_random_instances(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            basis = make_random_basis(rng, 2)
            target = GaussianParams(0.7, rng.uniform(-2, 2, 2))
            dist = oracle.enumerate_support(basis, target, 1e-9)
            pts = np.array(dist.support)
            dists = np.linalg.norm(pts @ basis.matrix.T - target.center, axis=1)
            assert np.array_equal(dist.support[np.argmax(dist.probs)], pts[np.argmin(dists)])

    def test_self_consistency_across_eps(self, basis_2d):
        target = GaussianParams(1.1, np.array([0.4, -0.3]))
        coarse = oracle.enumerate_support(basis_2d, target, 1e-6)
        fine = oracle.enumerate_support(basis_2d, target, 1e-7)
        assert (fine.locate(coarse.support) >= 0).all()
        assert np.abs(coarse.probs - fine.probs_of(coarse.support)).max() <= 1e-6

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            oracle.enumerate_support(
                LatticeBasis.identity(7), GaussianParams(1.0, np.zeros(7))
            )

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            oracle.enumerate_support(
                LatticeBasis.identity(1), GaussianParams(1.0, np.zeros(1)), 0.0
            )

    def test_box_cap_raises_before_allocating(self, monkeypatch):
        # 6-D identity at sigma 1: about 2.4e8 box points, tens of GB if built
        def no_grid(*args, **kwargs):
            raise AssertionError("meshgrid called for an oversized box")

        monkeypatch.setattr(oracle.np, "meshgrid", no_grid)
        with pytest.raises(ValueError, match="enumeration box has 244140625 points"):
            oracle.enumerate_support(LatticeBasis.identity(6), GaussianParams(1.0, np.zeros(6)))


class TestTvDistance:
    def test_self_is_zero(self, basis_2d):
        d = oracle.enumerate_support(basis_2d, GaussianParams(1.0, np.zeros(2)), 1e-9)
        assert oracle.tv_distance(d, d) == 0.0

    def test_disjoint_point_masses(self):
        p = DiscreteDistribution([[0, 0]], np.array([1.0]))
        q = DiscreteDistribution([[1, 1]], np.array([1.0]))
        assert oracle.tv_distance(p, q) == 1.0

    def test_hand_value(self):
        p = DiscreteDistribution([[0], [1]], np.array([0.5, 0.5]))
        q = DiscreteDistribution([[0], [1]], np.array([1.0, 0.0]))
        assert oracle.tv_distance(p, q) == 0.5

    def test_partly_overlapping_supports(self):
        # shared rows (0, 0) and (1, 0); (2, 2) only in p, (5, 5) only in q
        p = DiscreteDistribution([[2, 2], [0, 0], [1, 0]], np.array([0.25, 0.5, 0.25]))
        q = DiscreteDistribution([[1, 0], [5, 5], [0, 0]], np.array([0.5, 0.25, 0.25]))
        expected = 0.5 * (0.25 + 0.25 + 0.25 + 0.25)
        assert oracle.tv_distance(p, q) == expected
        assert oracle.tv_distance(q, p) == expected

    def test_p_rows_outside_q_count_in_full(self):
        p = DiscreteDistribution([[0], [7], [9]], np.array([0.5, 0.375, 0.125]))
        q = DiscreteDistribution([[0], [1]], np.array([0.75, 0.25]))
        assert oracle.tv_distance(p, q) == 0.5 * (0.25 + 0.375 + 0.125 + 0.25)

    def test_width_mismatch_raises(self):
        p = DiscreteDistribution([[0, 0]], np.array([1.0]))
        with pytest.raises(ValueError, match="width"):
            oracle.tv_distance(p, DiscreteDistribution([[0]], np.array([1.0])))


class TestDiscreteDistribution:
    def test_prob_of_present_and_absent_rows(self):
        d = DiscreteDistribution([[3, -1], [0, 2]], np.array([0.75, 0.25]))
        assert d.prob((0, 2)) == 0.25
        assert d.prob(np.array([3, -1])) == 0.75
        assert d.prob((2, 0)) == 0.0
        assert d.prob((-1, 3)) == 0.0

    def test_prob_of_wrong_width_row_raises(self):
        d = DiscreteDistribution([[3, -1], [0, 2]], np.array([0.75, 0.25]))
        for point in ((0,), (0, 2, 1)):
            with pytest.raises(ValueError, match="width 2"):
                d.prob(point)

    def test_repeated_rows_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            DiscreteDistribution([[1, 2], [0, 0], [1, 2]], np.array([0.25, 0.5, 0.25]))

    def test_support_must_be_rows(self):
        with pytest.raises(ValueError, match="rows"):
            DiscreteDistribution([0, 1], np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="one per prob"):
            DiscreteDistribution([[0], [1]], np.array([1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.25])
    def test_non_finite_or_negative_probs_rejected(self, bad):
        with pytest.raises(ValueError, match="probs must be finite and non-negative"):
            DiscreteDistribution([[0], [1], [2]], np.array([0.5, bad, 0.5]))

    @pytest.mark.parametrize("sigma, center", [(1e-160, (0.3, -0.2)), (1e-300, (0.0, 0.0))])
    def test_enumeration_at_underflowing_sigma_rejected(self, sigma, center):
        # 2 sigma^2 underflows, so every weight would be NaN
        basis = LatticeBasis.from_matrix([[1.0, 0.5], [0.0, 1.0]])
        message = f"sigma {sigma} is too small: 2 sigma\\^2 underflows"
        with pytest.raises(ValueError, match=message):
            oracle.enumerate_support(basis, GaussianParams(sigma, np.array(center)))

    def test_locate_returns_support_index(self):
        d = DiscreteDistribution([[5], [-2], [0]], np.array([0.25, 0.25, 0.5]))
        assert d.locate([[0], [5], [1], [-2]]).tolist() == [2, 0, -1, 1]

    def test_enumerated_rows_are_lexicographic(self, basis_2d):
        d = oracle.enumerate_support(basis_2d, GaussianParams(0.9, np.zeros(2)), 1e-6)
        assert d.support.tolist() == sorted(d.support.tolist())


class TestEmpiricalDistribution:
    def test_constant_trace(self):
        dist = oracle.empirical_from_states(np.tile([1, 2], (5, 1)))
        assert dist.support.tolist() == [[1, 2]]
        assert dist.probs[0] == 1.0

    def test_concatenation_mixture(self):
        dist = oracle.empirical_from_states(np.array([[0], [0], [0], [1]]))
        assert dist.support.tolist() == [[0], [1]]
        assert dist.probs.tolist() == [0.75, 0.25]

    def test_monte_carlo_control(self, basis_2d):
        # 1e5 exact draws via inverse cdf: TV floor ~ 0.007 at this support
        target = GaussianParams(1.0, np.array([0.1, 0.2]))
        exact = oracle.enumerate_support(basis_2d, target, 1e-9)
        rng = np.random.default_rng(9)
        idx = rng.choice(len(exact.support), size=100_000, p=exact.probs)
        emp = oracle.empirical_from_states(np.array(exact.support)[idx])
        assert oracle.tv_distance(emp, exact) <= 0.01


class TestDetailedBalance:
    def test_independent_sampler_balances(self, basis_2d):
        target = GaussianParams(1.0, np.array([0.3, 0.7]))
        exact = oracle.enumerate_support(basis_2d, target, 1e-9)
        kernel = lambda a, b: exact.prob(b)  # noqa: E731
        pairs = oracle.single_flip_pairs(exact, max_pairs=300)
        report = oracle.detailed_balance_residual(per_pair(kernel), exact, pairs)
        assert report.max_rel_residual <= 1e-12

    def test_gibbs_balances_exactly(self, basis_2d):
        target = GaussianParams(1.0, np.array([0.3, 0.7]))
        exact = oracle.enumerate_support(basis_2d, target, 1e-12)
        cfg = mcmc.GibbsKleinConfig(basis_2d, target, 1)
        kernel = lambda a, b: mcmc.gibbs_kernel_prob(cfg, a, b)  # noqa: E731
        pairs = oracle.single_flip_pairs(exact, max_pairs=400)
        report = oracle.detailed_balance_residual(per_pair(kernel), exact, pairs)
        assert report.max_rel_residual <= 1e-10
        assert report.pairs_checked == 400

    def test_gibbs_klein_fixed_block_near_balance(self):
        # fixed permutation and block: kernel is the block pmf, which sits
        # within the smoothing window of the exact conditional
        rng = np.random.default_rng(4)
        basis = make_random_basis(rng, 3)
        sigma = 3.0 * np.abs(np.diag(basis.r_factor)).max()
        target = GaussianParams(sigma, rng.uniform(-1, 1, 3))
        order = (1, 2, 0)
        m, z_rest = 2, np.array([0])
        cfg = mcmc.GibbsKleinConfig(basis, target, m)
        exact_block = oracle.block_conditional_exact(basis, target, order, m, z_rest, 1e-8)

        def kernel(a, b):
            x = np.array([*b, *z_rest])[np.argsort(order)]  # x[order] = (*b, *z_rest)
            return mcmc.gibbs_klein_block_pmf(cfg, order[:m], x)

        pairs = oracle.single_flip_pairs(exact_block, max_pairs=200)
        report = oracle.detailed_balance_residual(per_pair(kernel), exact_block, pairs)
        assert report.max_rel_residual <= 0.01
        # epsilon window propagated through the balance relation
        r_norms = np.abs(np.diag(permute_basis(basis, order).r_factor))[:m]
        shifts = rng.uniform(-0.5, 0.5, (50, m)) * r_norms
        lo, _ = oracle.smoothing_ratio_window(r_norms, sigma, shifts)
        eps = (1.0 - lo ** (1.0 / m)) / (1.0 + lo ** (1.0 / m))
        bound = 10.0 * ((1.0 + eps) / (1.0 - eps)) ** m - 10.0
        # 1e-9 floor: at this sigma the window bound sits below the float
        # noise of the two normalization paths
        assert report.max_rel_residual <= max(bound, 1e-9)


class TestBlockConditional:
    def test_m1_matches_gibbs_conditional(self, basis_2d):
        target = GaussianParams(1.0, np.array([0.2, -0.4]))
        order = (1, 0)
        z_rest = np.array([2])
        block = oracle.block_conditional_exact(basis_2d, target, order, 1, z_rest, 1e-12)
        permuted = permute_basis(basis_2d, order)
        x = np.array([0, 2])
        cond = mcmc.gibbs_conditional(mcmc.GibbsKleinConfig(permuted, target, 1), x, 0)
        for point, prob in zip(block.support, block.probs):
            assert prob == pytest.approx(dg.pmf(*cond, int(point[0])), abs=1e-12)

    def test_identity_basis_is_product(self):
        target = GaussianParams(1.1, np.array([0.3, -0.2, 0.6]))
        block = oracle.block_conditional_exact(
            LatticeBasis.identity(3), target, range(3), 2, np.array([1]), 1e-12
        )
        for (a, b), prob in zip(block.support, block.probs):
            expected = dg.pmf(1.1, 0.3, a) * dg.pmf(1.1, -0.2, b)
            assert prob == pytest.approx(expected, abs=1e-12)

    def test_block_pmf_tv_small_above_smoothing_large_below(self):
        basis = LatticeBasis.from_matrix(
            [[1.0, 0.9, 0.8], [0.0, 0.5, 0.4], [0.0, 0.0, 0.3]]
        )
        order = (2, 0, 1)
        z_rest = np.array([1])
        center = np.array([0.45, 0.55, 0.35])
        r_max = np.abs(np.diag(basis.r_factor)).max()
        q, r = qr_decompose(basis.matrix[:, order])

        def block_tv(sigma):
            target = GaussianParams(sigma, center)
            exact = oracle.block_conditional_exact(basis, target, order, 2, z_rest, 1e-9)
            zs = np.hstack(
                [np.array(exact.support, float), np.tile(z_rest, (len(exact.support), 1))]
            )
            bp = backward_pmf_many(r, q.T @ center, sigma, zs, 2)
            return 0.5 * np.abs(bp - exact.probs).sum() + 0.5 * abs(1.0 - bp.sum())

        assert block_tv(3.0 * r_max) <= 0.01
        assert block_tv(0.3 * r_max) > 0.01

    def test_block_size_guard(self, basis_2d):
        target = GaussianParams(1.0, np.zeros(2))
        with pytest.raises(ValueError):
            oracle.block_conditional_exact(
                basis_2d, target, range(2), 5, np.array([])
            )

    @pytest.mark.parametrize("order", [(0, 0, 1), (0, 1, 3), (1, 2), (0, 1, 2, 3)])
    def test_order_must_permute_all_coordinates(self, order):
        basis = LatticeBasis.identity(3)
        target = GaussianParams(1.0, np.zeros(3))
        with pytest.raises(ValueError, match="not a permutation of 0..2"):
            oracle.block_conditional_exact(basis, target, order, 2, np.array([0]))


class TestSmoothingRatioWindow:
    def test_zero_shift_is_exactly_one(self):
        lo, hi = oracle.smoothing_ratio_window(np.array([1.0, 0.7]), 2.0, np.zeros((1, 2)))
        assert lo == 1.0 and hi == 1.0

    def test_ratio_never_exceeds_one(self):
        rng = np.random.default_rng(3)
        r = np.array([1.0, 0.6, 1.4])
        shifts = rng.uniform(-0.5, 0.5, (200, 3)) * r
        lo, hi = oracle.smoothing_ratio_window(r, 1.5 * r.max(), shifts)
        assert hi <= 1.0 + 1e-12
        assert 0.0 < lo <= hi

    def test_min_ratio_above_smoothing(self):
        rng = np.random.default_rng(5)
        r = np.array([1.0, 0.7])
        shifts = rng.uniform(-0.5, 0.5, (100, 2)) * r
        lo, _ = oracle.smoothing_ratio_window(r, 3.0 * r.max(), shifts)
        assert lo >= 0.999


def test_single_flip_pairs_differ_in_one_coordinate(basis_2d):
    dist = oracle.enumerate_support(basis_2d, GaussianParams(0.8, np.zeros(2)), 1e-6)
    pairs = oracle.single_flip_pairs(dist, max_pairs=100)
    assert len(pairs)
    for a, b in pairs:
        assert sum(x != y for x, y in zip(a, b)) == 1


def test_single_flip_pairs_capped_is_prefix_of_uncapped():
    # 4-D target: the capped top pairs are exactly the head of the full order
    rng = np.random.default_rng(21)
    basis = make_random_basis(rng, 4)
    dist = oracle.enumerate_support(basis, GaussianParams(0.7, rng.uniform(-1, 1, 4)), 1e-6)
    full = oracle.single_flip_pairs(dist)
    assert len(full) > 200
    for cap in (1, 200, len(full) + 5):
        assert np.array_equal(oracle.single_flip_pairs(dist, max_pairs=cap), full[:cap])
    d = dist.probs_of(np.reshape(full, (-1, 4)))
    joint = (d[0::2] * d[1::2]).tolist()
    assert joint == sorted(joint, reverse=True)


def brute_force_flip_pairs(dist):
    """Every support pair (p, q), p < q, differing in one coordinate, sorted by
    (-P(p) P(q), p, q): the O(S^2) reference."""
    rows = [tuple(r) for r in dist.support.tolist()]
    probs = dist.probs.tolist()
    pairs = sorted(
        (-(probs[a] * probs[b]), rows[a], rows[b])
        for a in range(len(rows))
        for b in range(len(rows))
        if rows[a] < rows[b] and sum(x != y for x, y in zip(rows[a], rows[b])) == 1
    )
    return [[list(p), list(q)] for _, p, q in pairs]


@pytest.mark.parametrize("seed", range(12))
def test_single_flip_pairs_equal_brute_force(seed):
    # random supports with holes (not a box), shuffled rows and tied weights
    rng = np.random.default_rng(seed)
    n = 1 + seed % 4
    box = np.array(list(itertools.product(range(-2, 3), repeat=n)))
    rows = box[rng.random(len(box)) < 0.5]
    rows = rows[rng.permutation(len(rows))]
    weights = rng.integers(1, 4, len(rows)).astype(float)
    dist = DiscreteDistribution(rows, weights / weights.sum())
    expected = brute_force_flip_pairs(dist)
    for cap in (None, 1, 7):
        got = oracle.single_flip_pairs(dist, max_pairs=cap)
        assert got.dtype == np.int64 and got.shape[1:] == (2, n)
        assert got.tolist() == expected[:cap]


@pytest.mark.parametrize("n, sigma", [(2, 0.9), (3, 0.9), (3, math.inf)])
def test_single_flip_pairs_with_exact_ties(monkeypatch, n, sigma):
    # Z^n at center 0 on a box: rows equal up to signs and order have equal
    # probabilities, so many joints tie exactly; at infinite sigma all do
    box = np.array(list(itertools.product(range(-3, 4) if n == 2 else range(-2, 3), repeat=n)))
    weights = np.exp(-(box * box).sum(axis=1) / (2 * sigma**2))
    dist = DiscreteDistribution(box, weights / weights.sum())
    expected = brute_force_flip_pairs(dist)
    cuts, kept = [], []
    top_pairs, keep_top = oracle._top_pairs, oracle._keep_top

    def recording_cut(dist, pairs, max_pairs):
        cuts.append(len(top_pairs(dist, pairs, max_pairs)) / max_pairs)
        return top_pairs(dist, pairs, max_pairs)

    def recording_keep(dist, pairs, max_pairs):
        kept.append(len(keep_top(dist, pairs, max_pairs)) / max_pairs)
        return keep_top(dist, pairs, max_pairs)

    monkeypatch.setattr(oracle, "_top_pairs", recording_cut)
    monkeypatch.setattr(oracle, "_keep_top", recording_keep)
    for cap in (1, 7, 50):
        kept.clear()
        assert oracle.single_flip_pairs(dist, max_pairs=cap).tolist() == expected[:cap]
        assert kept and max(kept) <= 2
    assert max(cuts) > 2  # ties overflowed a cut, which then sorted
    assert oracle.single_flip_pairs(dist).tolist() == expected


def test_single_flip_pairs_capped_memory_is_bounded():
    # 3,364 support rows hold about 2e5 single-flip pairs; keeping only the
    # running top 200 needs O(S + max_pairs) memory
    exact = oracle.enumerate_support(LatticeBasis.identity(2), GaussianParams(3.0, np.full(2, 0.5)))
    assert len(exact.support) == 3364
    tracemalloc.start()
    try:
        pairs = oracle.single_flip_pairs(exact, max_pairs=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pairs.shape == (200, 2, 2)
    assert peak < 2_000_000
