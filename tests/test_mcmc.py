import collections
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from lattice_gibbs import dgauss1d as dg
from lattice_gibbs import mcmc, oracle
from lattice_gibbs.klein import (
    GaussianParams,
    backward_pmf,
    block_conditional,
    block_conditional_rows,
    klein_pmf,
    smoothing_threshold,
)
from lattice_gibbs.linalg import LatticeBasis, SingularBasisError, permute_basis, qr_decompose

import gibbs_reference
from conftest import OTHER_BIT_GENERATORS, ess, make_random_basis, stream_state


@pytest.fixture
def target_2d():
    return GaussianParams(1.0, np.array([0.3, 0.7]))


class TestGibbsConditional:
    def test_identity_basis_decouples(self):
        basis = LatticeBasis.identity(2)
        target = GaussianParams(1.2, np.array([0.4, -0.8]))
        cfg = mcmc.GibbsKleinConfig(basis, target, 1)
        for other in (-3, 0, 5):
            cond = mcmc.gibbs_conditional(cfg, np.array([9, other]), 1)
            ks, probs = dg.pmf_table(1.2, -0.8)
            for k, p in zip(ks, probs):
                assert dg.pmf(*cond, int(k)) == pytest.approx(p, abs=1e-14)

    def test_sums_to_one(self, basis_2d, target_2d):
        cfg = mcmc.GibbsKleinConfig(basis_2d, target_2d, 1)
        cond = mcmc.gibbs_conditional(cfg, np.array([2, -1]), 0)
        assert abs(dg.pmf_table(*cond)[1].sum() - 1.0) <= 1e-12

    def test_matches_oracle_slice(self, basis_2d):
        # first coordinate free, second fixed at 1, against the renormalized
        # exact distribution on that line
        target = GaussianParams(1.0, np.zeros(2))
        cfg = mcmc.GibbsKleinConfig(basis_2d, target, 1)
        cond = mcmc.gibbs_conditional(cfg, np.array([0, 1]), 0)
        exact = oracle.enumerate_support(basis_2d, target, 1e-12)
        slice_probs = {
            pt[0]: pr for pt, pr in zip(exact.support, exact.probs) if pt[1] == 1
        }
        total = sum(slice_probs.values())
        tv = 0.5 * sum(
            abs(dg.pmf(*cond, int(k)) - v / total) for k, v in slice_probs.items()
        )
        assert tv <= 1e-10


class TestGibbsStep:
    def test_single_coordinate_change(self, basis_2d, target_2d, rng):
        cfg = mcmc.GibbsKleinConfig(basis_2d, target_2d, 1)
        x = [4, -2]
        for _ in range(50):
            prev = list(x)
            mcmc.gibbs_step(cfg, x, rng)
            assert sum(a != b for a, b in zip(prev, x)) <= 1

    def test_n1_single_step_is_exact(self):
        basis = LatticeBasis.from_matrix([[2.0]])
        target = GaussianParams(1.1, np.array([0.4]))
        rng = np.random.default_rng(8)
        cfg = mcmc.GibbsKleinConfig(basis, target, 1)
        draws = np.empty((30_000, 1), dtype=np.int64)
        for row in draws:
            x = [7]
            mcmc.gibbs_step(cfg, x, rng)
            row[:] = x
        exact = oracle.enumerate_support(basis, target, 1e-9)
        assert oracle.tv_distance(oracle.empirical_from_states(draws), exact) <= 0.02

    def test_fast_mixing_from_far_start(self):
        # 1e5 chains, 10 steps, identity basis: residual mass at the start
        # point is (1/2)^10 per coordinate
        basis = LatticeBasis.identity(2)
        target = GaussianParams(1.0, np.zeros(2))
        snaps, _ = mcmc.gibbs_ensemble(
            basis, target, (50, 50), 100_000, 10, np.random.default_rng(1), record_at=(10,)
        )
        exact = oracle.enumerate_support(basis, target, 1e-9)
        assert oracle.tv_distance(oracle.empirical_from_states(snaps[10]), exact) <= 0.02


class TestGibbsKernelProb:
    def test_two_coordinate_difference_is_zero(self, basis_2d, target_2d):
        cfg = mcmc.GibbsKleinConfig(basis_2d, target_2d, 1)
        assert mcmc.gibbs_kernel_prob(cfg, (0, 0), (1, 1)) == 0.0

    def test_n1_kernel_row_is_target(self):
        basis = LatticeBasis.from_matrix([[1.0]])
        target = GaussianParams(0.9, np.array([0.3]))
        exact = oracle.enumerate_support(basis, target, 1e-12)
        cfg = mcmc.GibbsKleinConfig(basis, target, 1)
        for start in ((0,), (4,)):
            for point, prob in zip(exact.support, exact.probs):
                got = mcmc.gibbs_kernel_prob(cfg, start, point)
                assert got == pytest.approx(prob, abs=1e-12)

    def test_rows_sum_to_one(self, basis_2d, target_2d):
        cfg = mcmc.GibbsKleinConfig(basis_2d, target_2d, 1)
        for s in ((0, 0), (2, -1)):
            total = mcmc.gibbs_kernel_prob(cfg, s, s)
            for i in range(2):
                cond = mcmc.gibbs_conditional(cfg, np.array(s), i)
                for k in dg.pmf_table(*cond)[0].tolist():
                    if k != s[i]:
                        dest = list(s)
                        dest[i] = k
                        total += mcmc.gibbs_kernel_prob(cfg, s, tuple(dest))
            assert total == pytest.approx(1.0, abs=1e-9)


class TestGibbsKlein:
    def test_block_coordinate_change_count(self, rng):
        basis = make_random_basis(rng, 4)
        cfg = mcmc.GibbsKleinConfig(basis, GaussianParams(1.0, np.zeros(4)), 2)
        x = [3, -1, 2, 0]
        for _ in range(50):
            prev = list(x)
            mcmc.gibbs_klein_step(cfg, x, rng)
            assert sum(a != b for a, b in zip(prev, x)) <= 2

    def test_m_equals_n_matches_permuted_klein(self, basis_2d, target_2d):
        cfg = mcmc.GibbsKleinConfig(basis_2d, target_2d, 2)
        for order in itertools.permutations(range(2)):
            klein_cfg = mcmc.GibbsKleinConfig(permute_basis(basis_2d, order), target_2d, 2)
            zs = np.array(list(itertools.product(range(-2, 4), repeat=2)))
            for z, klein_p in zip(zs, klein_pmf(klein_cfg, zs)):
                block = mcmc.gibbs_klein_block_pmf(cfg, order, z[np.argsort(order)])
                assert block == pytest.approx(klein_p, abs=1e-12)

    def test_m1_block_pmf_is_permuted_conditional(self, basis_2d, target_2d):
        cfg = mcmc.GibbsKleinConfig(basis_2d, target_2d, 1)
        order = (1, 0)
        permuted = permute_basis(basis_2d, order)
        z_rest = np.array([1])
        cond_cfg = mcmc.GibbsKleinConfig(permuted, target_2d, 1)
        cond = mcmc.gibbs_conditional(cond_cfg, np.array([0, 1]), 0)
        for k in range(-3, 4):
            x = np.array([k, *z_rest])[np.argsort(order)]  # x[order] = (k, *z_rest)
            block = mcmc.gibbs_klein_block_pmf(cfg, order[:1], x)
            assert block == pytest.approx(dg.pmf(*cond, k), abs=1e-12)

    def test_block_pmf_sums_to_one(self, rng):
        basis = make_random_basis(rng, 3)
        target = GaussianParams(1.5, rng.uniform(-1, 1, 3))
        cfg = mcmc.GibbsKleinConfig(basis, target, 2)
        order = (2, 0, 1)
        z_rest = np.array([1])
        exact = oracle.block_conditional_exact(basis, target, order, 2, z_rest, 1e-9)
        total = sum(
            mcmc.gibbs_klein_block_pmf(cfg, order[:2], np.array([*z, *z_rest])[np.argsort(order)])
            for z in exact.support
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_identity_basis_block_is_product(self):
        target = GaussianParams(1.0, np.array([0.2, -0.5, 0.8]))
        cfg = mcmc.GibbsKleinConfig(LatticeBasis.identity(3), target, 2)
        for z in itertools.product(range(-2, 3), repeat=2):
            got = mcmc.gibbs_klein_block_pmf(cfg, range(2), np.array([*z, 0]))
            expected = dg.pmf(1.0, 0.2, z[0]) * dg.pmf(1.0, -0.5, z[1])
            assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 4])
    def test_block_pmf_equals_permuted_qr_pmf(self, n):
        # the Gram-Cholesky block conditional against Klein's pass on the QR
        # of the permuted basis, for every permutation and block size
        rng = np.random.default_rng(40 + n)
        basis = make_random_basis(rng, n)
        target = GaussianParams(0.9, rng.uniform(-1, 1, n))
        zs = rng.integers(-2, 3, size=(4, n))
        worst = 0.0
        for m in range(1, n + 1):
            cfg = mcmc.GibbsKleinConfig(basis, target, m)
            for order in itertools.permutations(range(n)):
                q, r = qr_decompose(basis.matrix[:, order])
                c_prime = q.T @ target.center
                for z in zs:
                    got = mcmc.gibbs_klein_block_pmf(cfg, order[:m], z[np.argsort(order)])
                    ref = backward_pmf(r, c_prime, target.sigma, z, m)
                    worst = max(worst, abs(got - ref))
        assert worst <= 1e-12

    @pytest.mark.parametrize("n", [3, 4])
    def test_kernel_prob_equals_full_permutation_average(self, n):
        # the ordered-block average against the average over all n!
        # permutations, each term from the QR of the permuted basis
        rng = np.random.default_rng(70 + n)
        basis = make_random_basis(rng, n)
        target = GaussianParams(0.9, rng.uniform(-1, 1, n))
        orders = list(itertools.permutations(range(n)))
        factors = {}
        for order in orders:
            q, r = qr_decompose(basis.matrix[:, order])
            factors[order] = (r, q.T @ target.center)
        a = rng.integers(-1, 2, n)
        # destinations differing from a in k = 0..n coordinates, then random subsets
        dests = [a + (np.arange(n) < k) for k in range(n + 1)]
        dests += [a + (rng.random(n) < 0.5) for _ in range(4)]
        worst = 0.0
        for m in range(1, n + 1):
            cfg = mcmc.GibbsKleinConfig(basis, target, m)
            for b in dests:
                ref = 0.0
                for order in orders:
                    idx = list(order)
                    if np.array_equal(a[idx][m:], b[idx][m:]):
                        r, c_prime = factors[order]
                        ref += backward_pmf(r, c_prime, target.sigma, b[idx], m)
                ref /= len(orders)
                got = mcmc.gibbs_klein_kernel_prob(cfg, a, b)
                assert (got > 0.0) == (ref > 0.0)
                if ref > 0.0:
                    worst = max(worst, abs(got - ref) / ref)
        assert worst <= 1e-13

    def test_zero_cholesky_pivot_raises(self):
        # QR accepts the basis (r_22 = 1e-9); the 2x2 Gram block is exactly
        # singular in floating point whichever column comes first
        basis = LatticeBasis.from_matrix([[1.0, 1.0], [0.0, 1e-9]])
        cfg = mcmc.GibbsKleinConfig(basis, GaussianParams(1.0, np.zeros(2)), 2)
        for block in ([0, 1], [1, 0]):
            with pytest.raises(SingularBasisError) as scalar:
                block_conditional(cfg.gram, cfg.bc, [0, 0], block, [])
            with pytest.raises(SingularBasisError) as rows:
                block_conditional_rows(cfg.gram, cfg.bc, np.zeros((1, 2)), np.array([block]),
                                       np.empty((1, 0), dtype=int))
            assert str(rows.value) == str(scalar.value)
        with pytest.raises(SingularBasisError):
            mcmc.gibbs_klein_step(cfg, [0, 0], np.random.default_rng(0))

    def test_single_step_reachability(self):
        # n=3, m=2: any state differing in <= 2 coordinates is reachable in
        # one step because some permutation puts the differing pair in the block
        rng = np.random.default_rng(0)
        basis = make_random_basis(rng, 3)
        cfg = mcmc.GibbsKleinConfig(basis, GaussianParams(1.0, np.zeros(3)), 2)
        start = (0, 0, 0)
        for dest in itertools.product(range(-1, 2), repeat=3):
            differing = sum(a != b for a, b in zip(start, dest))
            prob = mcmc.gibbs_klein_kernel_prob(cfg, start, dest)
            if differing <= 2:
                assert prob > 0.0
            else:
                assert prob == 0.0


def scalar_kernel_prob(cfg, s_i, s_j):
    """The per-pair enumeration `kernel_probs` replaced: the ordered-block
    average of `gibbs_klein_block_pmf`, summed in block order."""
    b = np.asarray(s_j, dtype=np.int64)
    moved = set(np.nonzero(np.asarray(s_i, dtype=np.int64) != b)[0].tolist())
    blocks = list(itertools.permutations(range(cfg.basis.n), cfg.block_size))
    total = sum(mcmc.gibbs_klein_block_pmf(cfg, block, b) for block in blocks if moved.issubset(block))
    return total / len(blocks)


def scalar_gibbs_prob(cfg, s_i, s_j):
    """Random-scan Gibbs from its 1-D conditionals, one `dg.pmf` per coordinate."""
    a, b = np.asarray(s_i), np.asarray(s_j)
    diff = np.nonzero(a != b)[0]
    n = cfg.basis.n
    if diff.size >= 2:
        return 0.0
    if diff.size == 1:
        k = int(diff[0])
        return dg.pmf(*mcmc.gibbs_conditional(cfg, a, k), int(b[k])) / n
    return sum(dg.pmf(*mcmc.gibbs_conditional(cfg, a, k), int(a[k])) for k in range(n)) / n


GOLDEN_DIAGNOSE_BASIS = [[1.0, 0.4, 0.4], [0.0, 1.3, 0.4], [0.0, 0.0, 1.6]]


def balance_rows(basis, target):
    """Both directions of the top single-flip pairs, plus diagonal rows, moves
    of every size and rows whose target lies outside a 1-D window."""
    exact = oracle.enumerate_support(basis, target)
    pairs = oracle.single_flip_pairs(exact, max_pairs=200)
    a = np.concatenate([pairs[:, 0], pairs[:, 1]])
    b = np.concatenate([pairs[:, 1], pairs[:, 0]])
    rng = np.random.default_rng(9)
    extra = exact.support[rng.choice(len(exact.support), 60)]
    moved = extra + rng.integers(-2, 3, extra.shape) * (rng.random(extra.shape) < 0.6)
    far = extra[:10].copy()
    far[:, 0] += 40  # outside every 1-D window of the first coordinate
    return np.concatenate([a, extra, extra, extra[:10]]), np.concatenate([b, extra, moved, far])


class TestKernelProbs:
    @pytest.mark.parametrize("case", ["golden-diagnose", "criterion-2"])
    def test_bitwise_equals_per_pair_sum_for_small_blocks(self, basis_2d, case):
        if case == "golden-diagnose":
            basis = LatticeBasis.from_matrix(GOLDEN_DIAGNOSE_BASIS)
            target = GaussianParams(0.7, np.array([0.3, -0.2, 0.45]))
        else:
            basis, target = basis_2d, GaussianParams(1.0, np.array([0.3, 0.7]))
        a, b = balance_rows(basis, target)
        for m in (1, 2):
            cfg = mcmc.GibbsKleinConfig(basis, target, m)
            got = mcmc.kernel_probs(cfg, a, b)
            assert got.tolist() == [scalar_kernel_prob(cfg, x, y) for x, y in zip(a, b)]
            diagonal = (a == b).all(axis=1)
            assert (got[diagonal] > 0.0).any()
            assert (got[-10:] == 0.0).all()  # the rows moved 40 points away
            if m == 1:
                assert got.tolist() == [scalar_gibbs_prob(cfg, x, y) for x, y in zip(a, b)]
                assert got.tolist() == [mcmc.gibbs_kernel_prob(cfg, x, y) for x, y in zip(a, b)]

    def test_larger_blocks_match_per_pair_sum(self):
        rng = np.random.default_rng(31)
        basis = make_random_basis(rng, 4)
        target = GaussianParams(0.8, rng.uniform(-1, 1, 4))
        a, b = balance_rows(basis, target)
        for m in (3, 4):
            cfg = mcmc.GibbsKleinConfig(basis, target, m)
            got = mcmc.kernel_probs(cfg, a, b)
            ref = np.array([scalar_kernel_prob(cfg, x, y) for x, y in zip(a, b)])
            assert np.array_equal(got > 0.0, ref > 0.0)
            assert np.all(np.abs(got - ref) <= 1e-13 * ref)

    def test_gibbs_kernel_prob_ignores_block_size(self, basis_2d, target_2d):
        cfg1 = mcmc.GibbsKleinConfig(basis_2d, target_2d, 1)
        cfg2 = mcmc.GibbsKleinConfig(basis_2d, target_2d, 2)
        for a, b in (((0, 0), (0, 0)), ((0, 0), (2, 0)), ((1, -1), (1, 3))):
            assert mcmc.gibbs_kernel_prob(cfg2, a, b) == mcmc.gibbs_kernel_prob(cfg1, a, b)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_one_factor_per_ordered_block_per_report(self, monkeypatch, m):
        basis = LatticeBasis.from_matrix(GOLDEN_DIAGNOSE_BASIS)
        target = GaussianParams(0.7, np.array([0.3, -0.2, 0.45]))
        exact = oracle.enumerate_support(basis, target)
        pairs = oracle.single_flip_pairs(exact, max_pairs=200)
        cfg = mcmc.GibbsKleinConfig(basis, target, m)
        calls = []

        def counting(*args):
            calls.append(args[3])
            return block_conditional_rows(*args)

        monkeypatch.setattr(mcmc, "block_conditional_rows", counting)
        for count in (1, 20, 200):
            calls.clear()
            oracle.detailed_balance_residual(
                lambda x, y: mcmc.kernel_probs(cfg, x, y), exact, pairs[:count]
            )
            assert len(calls) == math.perm(3, m)

    @pytest.mark.parametrize("m", [1, 2])
    def test_balance_report_equals_per_pair_loop(self, m):
        basis = LatticeBasis.from_matrix(GOLDEN_DIAGNOSE_BASIS)
        target = GaussianParams(0.7, np.array([0.3, -0.2, 0.45]))
        exact = oracle.enumerate_support(basis, target)
        pairs = oracle.single_flip_pairs(exact, max_pairs=200)
        cfg = mcmc.GibbsKleinConfig(basis, target, m)
        max_abs = max_rel = 0.0
        for s_i, s_j in pairs:
            flow_ij = exact.prob(s_i) * scalar_kernel_prob(cfg, s_i, s_j)
            flow_ji = exact.prob(s_j) * scalar_kernel_prob(cfg, s_j, s_i)
            max_abs = max(max_abs, abs(flow_ij - flow_ji))
            if max(flow_ij, flow_ji) > 0.0:
                max_rel = max(max_rel, abs(flow_ij - flow_ji) / max(flow_ij, flow_ji))
        report = oracle.detailed_balance_residual(
            lambda x, y: mcmc.kernel_probs(cfg, x, y), exact, pairs
        )
        assert report == oracle.BalanceReport(max_abs, max_rel, len(pairs))
        assert max_rel > 0.0

    def test_rejects_mismatched_rows_and_large_enumerations(self, basis_2d, target_2d):
        cfg = mcmc.GibbsKleinConfig(basis_2d, target_2d, 2)
        with pytest.raises(ValueError, match="state rows"):
            mcmc.kernel_probs(cfg, [[0, 0]], [[0, 0], [1, 0]])
        with pytest.raises(ValueError, match="state rows"):
            mcmc.kernel_probs(cfg, [[0, 0, 0]], [[0, 0, 0]])
        assert mcmc.kernel_probs(cfg, np.empty((0, 2)), np.empty((0, 2))).shape == (0,)
        big = LatticeBasis.identity(mcmc.MAX_KERNEL_ENUM_DIM + 1)
        target = GaussianParams(1.0, np.zeros(big.n))
        with pytest.raises(ValueError, match="kernel enumeration limited"):
            mcmc.kernel_probs(mcmc.GibbsKleinConfig(big, target, 2), [[0] * big.n], [[0] * big.n])
        gibbs = mcmc.GibbsKleinConfig(big, target, 1)  # n ordered blocks: no limit
        assert mcmc.gibbs_kernel_prob(gibbs, [0] * big.n, [1] + [0] * (big.n - 1)) > 0.0


# chi-square quantiles at 0.999 by degrees of freedom: a uniformity test
# below fails on a uniform law with chance 1e-3
CHI2_999 = {2: 13.816, 5: 20.515, 7: 24.322}


class TestStepDraws:
    """`_step_draws`' layout selects a coordinate or an ordered block
    uniformly, up to rounding: the floor rule int(u * n) moves each
    coordinate's chance by a few in 2^53 (under n 2^-52 in total variation),
    and stable argsort ties, two of n uniforms equal (chance under
    n^2 2^-54), favour the lower index. A step's law given its block does not
    depend on the selection, so any state-independent selection keeps an
    update that is pi-invariant for every block (Gibbs's exact conditional)
    pi-invariant; a Gibbs-Klein kernel moves by at most the selection's
    total variation."""

    def test_floor_rule_selects_below_n_at_the_largest_uniform(self):
        top = 1.0 - 2.0**-53  # the largest value random() returns
        ns = np.arange(1, 2**16 + 1)
        assert ((top * ns).astype(np.int64) == ns - 1).all()
        assert all(int(top * n) == n - 1 for n in ns.tolist())

        class Top:  # a stream of top uniforms
            def random(self, shape):
                return np.full(shape, top)
        for n in (1, 2, 3, 1000, 2**16):
            coords, us = mcmc._step_draws([Top()], 3, n, 1, gibbs=True)
            assert coords.tolist() == [[n - 1]] * 3 and us.shape == (3, 1, 1)

    @staticmethod
    def _selected(monkeypatch, kernel, n, m, steps):
        """The coordinates (Gibbs) or ordered blocks one `run_chain` call draws."""
        drawn, real = [], mcmc._step_draws

        def recording(*args, **kwargs):
            selected, us = real(*args, **kwargs)
            drawn.append(selected)
            return selected, us
        monkeypatch.setattr(mcmc, "_step_draws", recording)
        rng = np.random.default_rng(n)
        basis = make_random_basis(rng, n)
        mcmc.run_chain(kernel, basis, GaussianParams(0.8, rng.uniform(-1, 1, n)), [0] * n,
                       steps, np.random.default_rng(17), block_size=m)
        return np.concatenate(drawn)

    @pytest.mark.parametrize("n", [3, 8])
    def test_gibbs_coordinates_are_uniform(self, monkeypatch, n):
        coords = self._selected(monkeypatch, "gibbs", n, None, 3_000 * n)
        counts = np.bincount(coords, minlength=n)
        assert counts.size == n and counts.sum() == 3_000 * n
        chi2 = float(((counts - 3_000) ** 2).sum() / 3_000)
        assert chi2 <= CHI2_999[n - 1], counts

    def test_gibbs_klein_ordered_blocks_are_uniform(self, monkeypatch):
        blocks = self._selected(monkeypatch, "gibbs-klein", 3, 2, 18_000)[:, :2]
        counts = collections.Counter(map(tuple, blocks.tolist()))
        assert sorted(counts) == list(itertools.permutations(range(3), 2))
        chi2 = sum((c - 3_000) ** 2 for c in counts.values()) / 3_000
        assert chi2 <= CHI2_999[5], counts


class TestGibbsDraws:
    """`_step_draws` for k steps is k steps' per-step calls: the same values,
    and the whole stream state they leave, held half included."""

    @staticmethod
    def _per_step(rng, n, k):
        # what gibbs_step takes: its coordinate's uniform, then its 1-D draw's
        draws = [(int(rng.random() * n), rng.random()) for _ in range(k)]
        return [i for i, _ in draws], [v for _, v in draws]

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 1024])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 13, 64, 1000, 2**31 + 1, 2**32 - 1])
    @pytest.mark.parametrize("held", [False, True], ids=["fresh", "held"])
    def test_equals_per_step_calls(self, n, k, held):
        for seed in range(3):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            if held:  # integers(5) leaves the high half of a word held
                got_rng.integers(5), want_rng.integers(5)
            coords, us = mcmc._step_draws(got_rng, k, n, 1, gibbs=True)
            want_coords, want_us = self._per_step(want_rng, n, k)
            assert coords.dtype == np.int64 and us.dtype == np.float64
            assert coords.shape == (k,) and us.shape == (k, 1)
            assert coords.tolist() == want_coords, (n, k, seed)
            assert us[:, 0].tolist() == want_us, (n, k, seed)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state, (n, k, seed)

    @pytest.mark.parametrize("bit_generator", OTHER_BIT_GENERATORS)
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_other_bit_generators_make_the_per_step_calls(self, bit_generator, n):
        for held in (False, True):
            got_rng, want_rng = (np.random.Generator(bit_generator(7)) for _ in "ab")
            if held:
                got_rng.integers(5), want_rng.integers(5)
            coords, us = mcmc._step_draws(got_rng, 50, n, 1, gibbs=True)
            assert (coords.tolist(), us[:, 0].tolist()) == self._per_step(want_rng, n, 50)
            assert stream_state(got_rng) == stream_state(want_rng)

    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    def test_permutation_draws_equal_permutation_calls(self, n):
        # per row, what gibbs_klein_step takes: a permutation (the stable
        # argsort of n uniforms), then m uniforms; on one shared stream, and
        # on a stream per row
        m = max(1, n // 2)
        for shared in (True, False):
            rngs, refs = ([np.random.default_rng(n)] * 5 if shared else
                          [np.random.default_rng([n, r]) for r in range(5)] for _ in "ab")
            perm, us = mcmc._step_draws(rngs, 1, n, m)
            assert perm.dtype == np.int64 and perm.shape == (1, 5, n) and us.shape == (1, 5, m)
            for r, ref in enumerate(refs):
                want = np.argsort(ref.random(n), kind="stable")
                assert sorted(want.tolist()) == list(range(n))
                assert perm[0, r].tolist() == want.tolist(), (n, shared, r)
                assert us[0, r].tolist() == ref.random(m).tolist(), (n, shared, r)
            assert [g.bit_generator.state for g in rngs] == [g.bit_generator.state for g in refs]


class TestRunChain:
    def test_zero_steps(self, basis_2d, target_2d, rng):
        states = mcmc.run_chain("gibbs", basis_2d, target_2d, (1, 2), 0, rng)
        assert states.shape == (1, 2)
        assert states[0].tolist() == [1, 2]

    def test_deterministic_given_seed(self, basis_2d, target_2d):
        args = ("gibbs-klein", basis_2d, target_2d, (0, 0), 30)
        t1 = mcmc.run_chain(*args, np.random.default_rng(5), block_size=1)
        t2 = mcmc.run_chain(*args, np.random.default_rng(5), block_size=1)
        assert np.array_equal(t1, t2)

    def test_trace_length_and_time_index(self, basis_2d, target_2d, rng):
        states = mcmc.run_chain("gibbs", basis_2d, target_2d, (0, 0), 25, rng)
        assert states.shape == (26, 2)
        assert states.dtype == np.int64

    def test_unknown_kernel(self, basis_2d, target_2d, rng):
        with pytest.raises(ValueError):
            mcmc.run_chain("metropolis", basis_2d, target_2d, (0, 0), 1, rng)

    def test_gibbs_klein_requires_block_size(self, basis_2d, target_2d, rng):
        with pytest.raises(ValueError):
            mcmc.run_chain("gibbs-klein", basis_2d, target_2d, (0, 0), 1, rng)

    @staticmethod
    def _scalar_chain(kernel, basis, target, x0, steps, rng, block_size):
        """The scalar step loop: one `gibbs_step` or `gibbs_klein_step` a step."""
        step = mcmc.gibbs_step if kernel == "gibbs" else mcmc.gibbs_klein_step
        cfg = mcmc.GibbsKleinConfig(basis, target, block_size or 1)
        x = list(x0)
        states = [list(x)]
        for _ in range(steps):
            step(cfg, x, rng)
            states.append(list(x))
        return np.array(states, dtype=np.int64)

    # row blocks of 1 step, of 7 steps (n <= 8), and the module's own (>= 40)
    @pytest.mark.parametrize("entries", [1, 7 * dg.LOOP_MAX_POINTS, None])
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_full_block_chain_is_the_scalar_step_loop(self, monkeypatch, n, entries):
        if entries is not None:
            monkeypatch.setattr(mcmc, "ROW_BLOCK_ENTRIES", entries)

        def no_scalar_step(*args):
            raise AssertionError("a row block was redone by the scalar step")
        for seed in range(3):
            rng = np.random.default_rng(seed)
            basis = make_random_basis(rng, n)
            center, x0 = rng.uniform(-1, 1, n), rng.integers(-3, 4, n).tolist()
            # sigma 6 puts every alpha above 4: every 1-D draw inverts the table
            for sigma, steps in itertools.product((0.8, 6.0), (0, 1, 40)):
                target = GaussianParams(sigma, center)
                got_rng, ref_rng = (np.random.default_rng(seed + 10) for _ in range(2))
                ref = self._scalar_chain("gibbs-klein", basis, target, x0, steps, ref_rng, n)
                with monkeypatch.context() as patch:
                    patch.setattr(mcmc, "gibbs_klein_step", no_scalar_step)
                    got = mcmc.run_chain("gibbs-klein", basis, target, x0, steps, got_rng,
                                         block_size=n)
                assert got.dtype == np.int64
                assert np.array_equal(got, ref), (seed, sigma, steps)
                assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_full_block_chain_fails_as_the_scalar_step_loop(self):
        # coordinate 1's center is past 2**53 and coordinate 2's window past
        # MAX_WINDOW_POINTS: a step fails at whichever its pass draws first, so
        # a row block's first bad row need not be the first bad step
        basis = LatticeBasis.from_matrix(np.diag([1.0, 1.0, 1e-7]))
        target = GaussianParams(1.0, np.array([0.0, 1e19, 0.0]))
        messages = set()
        for seed in range(10):
            with pytest.raises(ValueError) as rows:
                mcmc.run_chain("gibbs-klein", basis, target, (0, 0, 0), 10,
                               np.random.default_rng(seed), block_size=3)
            with pytest.raises(ValueError) as scalar:
                self._scalar_chain("gibbs-klein", basis, target, [0, 0, 0], 10,
                                   np.random.default_rng(seed), 3)
            assert str(rows.value) == str(scalar.value), seed
            messages.add(str(rows.value).split()[0])
        assert messages == {"alpha", "center"}

    # step blocks of 1 step, of 7 steps (n <= 8), and the module's own (>= 40);
    # then 7-step blocks with window memos of 1 and of 2 windows, which miss
    # at nearly every draw and are cleared again and again
    @pytest.mark.parametrize("entries, memo", [
        *(pytest.param(e, None, id=str(e)) for e in (1, 7 * dg.LOOP_MAX_POINTS, None)),
        *(pytest.param(7 * dg.LOOP_MAX_POINTS, c, id=f"{7 * dg.LOOP_MAX_POINTS}-memo{c}")
          for c in (1, 2)),
    ])
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_every_kernel_chain_is_the_scalar_step_loop(self, monkeypatch, n, entries, memo):
        if entries is not None:
            monkeypatch.setattr(mcmc, "ROW_BLOCK_ENTRIES", entries)
        if memo is not None:
            monkeypatch.setattr(mcmc, "WINDOW_MEMO_ENTRIES", memo)

        def no_scalar_step(*args):
            raise AssertionError("a step block was redone by the scalar steps")
        kernels = [("gibbs", None)] + [("gibbs-klein", m) for m in range(1, n + 1)]
        for seed in range(3):
            rng = np.random.default_rng(seed)
            basis = make_random_basis(rng, n)
            center, x0 = rng.uniform(-1, 1, n), rng.integers(-3, 4, n).tolist()
            # sigma 6 puts every alpha above 4: every 1-D draw takes the wide path
            for (kernel, m), sigma, steps in itertools.product(kernels, (0.8, 6.0), (0, 1, 40)):
                target = GaussianParams(sigma, center)
                got_rng, ref_rng = (np.random.default_rng(seed + 10) for _ in range(2))
                ref = self._scalar_chain(kernel, basis, target, x0, steps, ref_rng, m)
                with monkeypatch.context() as patch:
                    patch.setattr(mcmc, "gibbs_step", no_scalar_step)
                    patch.setattr(mcmc, "gibbs_klein_step", no_scalar_step)
                    got = mcmc.run_chain(kernel, basis, target, x0, steps, got_rng, block_size=m)
                assert got.dtype == np.int64
                assert np.array_equal(got, ref), (kernel, m, seed, sigma, steps)
                assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("bit_generator", OTHER_BIT_GENERATORS)
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_chain_on_other_bit_generators_is_the_scalar_step_loop(self, monkeypatch,
                                                                   bit_generator, n):
        # one random call a block takes what the per-step calls take, in 7-step blocks
        monkeypatch.setattr(mcmc, "ROW_BLOCK_ENTRIES", 7 * dg.LOOP_MAX_POINTS)
        rng = np.random.default_rng(n)
        basis = make_random_basis(rng, n)
        target = GaussianParams(0.8, rng.uniform(-1, 1, n))
        for kernel, m in [("gibbs", None), ("gibbs-klein", 1), ("gibbs-klein", n)]:
            got_rng, ref_rng = (np.random.Generator(bit_generator(5)) for _ in "ab")
            ref = self._scalar_chain(kernel, basis, target, [0] * n, 40, ref_rng, m)
            with monkeypatch.context() as patch:  # no block is redone by the scalar steps
                patch.setattr(mcmc, "gibbs_step", None)
                patch.setattr(mcmc, "gibbs_klein_step", None)
                got = mcmc.run_chain(kernel, basis, target, [0] * n, 40, got_rng, block_size=m)
            assert np.array_equal(got, ref), (kernel, m)
            assert stream_state(got_rng) == stream_state(ref_rng), (kernel, m)

    @pytest.mark.parametrize("kernel, m", [("gibbs", None), ("gibbs-klein", 1),
                                           ("gibbs-klein", 2)])
    @pytest.mark.parametrize("bad", ["center", "alpha"])
    def test_every_kernel_chain_fails_as_the_scalar_step_loop(self, monkeypatch, kernel, m, bad):
        # coordinate 4's center is past 2**53, or coordinate 5's window past
        # MAX_WINDOW_POINTS, so the first step that draws it fails. All 40
        # steps are one block, and some chains fail after good steps of it.
        # Each chain runs with the module's window memo and with memos of 1
        # and 2 windows
        if bad == "center":
            basis = LatticeBasis.identity(6)
            target = GaussianParams(1.0, np.array([0.0] * 4 + [1e19, 0.0]))
        else:
            basis = LatticeBasis.from_matrix(np.diag([1.0] * 5 + [1e-7]))
            target = GaussianParams(1.0, np.zeros(6))
        step = mcmc.gibbs_step if kernel == "gibbs" else mcmc.gibbs_klein_step
        cfg = mcmc.GibbsKleinConfig(basis, target, m or 1)
        good_steps = []  # steps before the bad one
        for seed in range(10):
            x, rng = [0] * 6, np.random.default_rng(seed)
            with pytest.raises(ValueError, match=f"^{bad} ") as scalar:
                for t in range(40):
                    step(cfg, x, rng)
            for memo in (mcmc.WINDOW_MEMO_ENTRIES, 1, 2):
                monkeypatch.setattr(mcmc, "WINDOW_MEMO_ENTRIES", memo)
                got_rng = np.random.default_rng(seed)
                with pytest.raises(ValueError) as blocks:
                    mcmc.run_chain(kernel, basis, target, [0] * 6, 40, got_rng, block_size=m)
                assert str(blocks.value) == str(scalar.value), (seed, memo)
                assert got_rng.bit_generator.state == rng.bit_generator.state, (seed, memo)
            good_steps.append(t)
        assert max(good_steps) > 0

    @staticmethod
    def _counting_walks(monkeypatch) -> list:
        """Count `dg.running_weights` calls, the window memo's misses, into a
        list whose last entry is the current count."""
        walks = [0]
        running_weights = dg.running_weights

        def counting(*args):
            walks[-1] += 1
            return running_weights(*args)
        monkeypatch.setattr(dg, "running_weights", counting)
        return walks

    @pytest.mark.parametrize("kernel, m", [("gibbs", None), ("gibbs-klein", 1),
                                           ("gibbs-klein", 2)])
    def test_one_center_at_different_alphas_draws_from_each_window(self, kernel, m):
        # a diagonal basis and a zero center: every conditional center is
        # 0.0, and the coordinates' alphas 2, 1, 0.5 and 0.25 give windows of
        # 35 to 7 points, so windows kept by center alone would be drawn from
        # at the wrong alpha
        basis = LatticeBasis.from_matrix(np.diag([0.5, 1.0, 2.0, 4.0]))
        target = GaussianParams(1.0, np.zeros(4))
        ref = self._scalar_chain(kernel, basis, target, [0] * 4, 400, np.random.default_rng(3), m)
        got = mcmc.run_chain(kernel, basis, target, [0] * 4, 400, np.random.default_rng(3),
                             block_size=m)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("kernel, m", [("gibbs", None), ("gibbs-klein", 1),
                                           ("gibbs-klein", 2)])
    def test_memo_keeps_windows_below_the_loop_width_only(self, monkeypatch, kernel, m):
        # alphas 3.9, 4.0 and 1.0 give windows of 63, 65 and 19 points, on
        # either side of LOOP_MAX_POINTS. On a diagonal basis every
        # coordinate's center is one fixed number, so the memo walks the 63-
        # and the 19-point window once each, and the 65-point one, whose half
        # the draw forms on a miss, goes to `dg.invert`'s row kernel every time
        alphas = [3.9, 4.0, 1.0]
        assert [2 * dg._checked_half(a) + 1 for a in alphas] == [63, 65, 19]
        basis = LatticeBasis.from_matrix(np.diag([1.0 / a for a in alphas]))
        target = GaussianParams(1.0, np.array([0.3, -0.2, 0.45]))
        walks = self._counting_walks(monkeypatch)
        ref = self._scalar_chain(kernel, basis, target, [0] * 3, 400, np.random.default_rng(4), m)
        walks.append(0)
        got_rng = np.random.default_rng(4)
        got = mcmc.run_chain(kernel, basis, target, [0] * 3, 400, got_rng, block_size=m)
        assert np.array_equal(got, ref)
        assert walks[-1] == 2, walks

    @pytest.mark.parametrize("kernel, m, n, scale", [("gibbs", None, 8, 1.0),
                                                     ("gibbs-klein", 2, 4, 0.5)])
    def test_memory_flat_in_steps(self, monkeypatch, kernel, m, n, scale):
        # a dense basis at sigma a multiple of its longest vector, where few
        # windows repeat, so the window memo fills and is cleared again and
        # again. Only the (steps + 1, n) states returned may grow with the
        # steps
        rng = np.random.default_rng(7)
        basis = LatticeBasis.from_matrix(rng.normal(size=(n, n)))
        sigma = scale * float(np.linalg.norm(basis.matrix, axis=0).max())
        target = GaussianParams(sigma, rng.normal(size=n))
        walks, peaks = self._counting_walks(monkeypatch), []
        for steps in (2_000, 20_000):
            walks.append(0)
            tracemalloc.start()
            try:
                states = mcmc.run_chain(kernel, basis, target, [0] * n, steps,
                                        np.random.default_rng(5), block_size=m)
                peaks.append(tracemalloc.get_traced_memory()[1] - states.nbytes)
            finally:
                tracemalloc.stop()
        assert walks[1] > 1.5 * mcmc.WINDOW_MEMO_ENTRIES, walks  # full at 2,000 steps
        assert walks[2] > 15 * mcmc.WINDOW_MEMO_ENTRIES, walks
        assert peaks[1] < 1.5 * peaks[0], peaks

    def test_window_memo_is_per_run(self, monkeypatch, basis_2d, target_2d):
        # a second run of the same chain walks every window again: nothing
        # the first run kept serves it
        walks = self._counting_walks(monkeypatch)
        runs = []
        for _ in range(2):
            walks.append(0)
            runs.append(mcmc.run_chain("gibbs", basis_2d, target_2d, (0, 0), 500,
                                       np.random.default_rng(1)))
        assert np.array_equal(*runs)
        assert 0 < walks[1] == walks[2] < 500, walks

    def test_single_chain_converges_above_smoothing(self):
        # sigma just above the smoothing threshold. The bound treats the
        # chain as n = ESS independent draws (the ESS of its energy series):
        # their mean TV is at most sum_s sqrt(p_s (1 - p_s) / n) / 2, and by
        # McDiarmid's inequality (one draw moves the TV by at most 1/n) the
        # TV passes its mean by sqrt(ln(1/delta) / (2 n)) with chance under
        # delta = 1e-3. Over seeds 1-200 the TV read at most 0.51 of this
        # bound (about 0.055); a kernel with alphas 1.5x too wide reads 0.28
        basis = LatticeBasis.from_matrix(0.5 * np.array([[1.0, 0.5], [0.0, 1.0]]))
        target = GaussianParams(0.45, np.array([0.15, -0.2]))
        assert target.sigma >= smoothing_threshold(basis)
        states = mcmc.run_chain(
            "gibbs", basis, target, (0, 0), 20_000, np.random.default_rng(1)
        )[1_000:]
        resid = states @ basis.matrix.T - target.center
        n_eff = ess((resid * resid).sum(axis=1))
        exact = oracle.enumerate_support(basis, target, 1e-9)
        p = exact.probs
        bound = 0.5 * np.sqrt(p * (1.0 - p) / n_eff).sum() + math.sqrt(math.log(1e3) / (2 * n_eff))
        tv = oracle.tv_distance(oracle.empirical_from_states(states), exact)
        assert tv <= bound, (tv, bound, n_eff)

    def test_gibbs_klein_chain_converges(self, basis_2d):
        target = GaussianParams(1.0, np.array([0.3, 0.7]))
        states = mcmc.run_chain(
            "gibbs-klein",
            basis_2d,
            target,
            (6, -6),
            4_000,
            np.random.default_rng(3),
            block_size=2,
        )
        emp = oracle.empirical_from_states(states[500:])
        exact = oracle.enumerate_support(basis_2d, target, 1e-9)
        assert oracle.tv_distance(emp, exact) <= 0.05


class TestGibbsEnsemble:
    def test_matches_scalar_kernel_distribution(self, basis_2d, target_2d):
        # same kernel, different vectorization: distributions must agree. The
        # 20,000 and 5,000 chains are independent, so each sample is that
        # many i.i.d. draws of the state at t = 30, whose law is taken as the
        # target p. With e = 1/n_a + 1/n_b the two samples' mean TV is at
        # most sum_s sqrt(p_s (1 - p_s) e) / 2, and by McDiarmid's inequality
        # (one draw moves the TV by at most one over its sample's size) the
        # TV passes its mean by sqrt(ln(1/delta) e / 2) with chance under
        # delta = 1e-3. Over 400 seed pairs (ensemble seed 1000 + 2s, scalar
        # 1000 + 2s + 1) the TV read at most 0.0462 against this bound of
        # about 0.068; an ensemble drawing at 1.5x alpha reads 0.29 here
        snaps, _ = mcmc.gibbs_ensemble(
            basis_2d, target_2d, (0, 0), 20_000, 30, np.random.default_rng(2), record_at=(30,)
        )
        rng = np.random.default_rng(3)
        cfg = mcmc.GibbsKleinConfig(basis_2d, target_2d, 1)
        finals = []
        for _ in range(5_000):
            x = [0, 0]
            for _ in range(30):
                mcmc.gibbs_step(cfg, x, rng)
            finals.append(x)
        tv = oracle.tv_distance(
            oracle.empirical_from_states(snaps[30]),
            oracle.empirical_from_states(np.array(finals)),
        )
        p = oracle.enumerate_support(basis_2d, target_2d, 1e-9).probs
        e = 1.0 / 20_000 + 1.0 / 5_000
        bound = 0.5 * np.sqrt(p * (1.0 - p) * e).sum() + math.sqrt(math.log(1e3) * e / 2)
        assert tv <= bound, (tv, bound)

    def test_pooled_counts_total(self, basis_2d, target_2d):
        n_chains, steps, pool_from = 500, 40, 20
        _, pooled = mcmc.gibbs_ensemble(
            basis_2d,
            target_2d,
            (0, 0),
            n_chains,
            steps,
            np.random.default_rng(0),
            pool_from=pool_from,
        )
        counts = pooled.probs * (n_chains * (steps - pool_from))
        assert np.allclose(counts, np.round(counts), rtol=0.0, atol=1e-6)
        assert np.round(counts).sum() == n_chains * (steps - pool_from)
        assert pooled.support.shape[1] == 2

    def test_pooled_law_matches_recorded_states(self, basis_2d, target_2d):
        # pooling every step from t = 1 gives the law of all recorded snapshots
        steps = 6
        snaps, pooled = mcmc.gibbs_ensemble(
            basis_2d, target_2d, (2, -1), 300, steps, np.random.default_rng(4),
            record_at=tuple(range(1, steps + 1)), pool_from=0,
        )
        direct = oracle.empirical_from_states(np.concatenate(list(snaps.values())))
        assert pooled.support.tolist() == direct.support.tolist()
        assert np.allclose(pooled.probs, direct.probs, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("n", [3, 4])
    def test_draws_from_the_block_step_centers(self, monkeypatch, n):
        # every 1-D draw's (alpha, center) equals block_conditional's for the
        # block [i], bit for bit, on the state its chain had before the step;
        # a step's one draw call takes the chains ordered by coordinate
        rng = np.random.default_rng(40 + n)
        basis = make_random_basis(rng, n)
        target = GaussianParams(0.4, rng.normal(size=n) * 3)
        cfg = mcmc.GibbsKleinConfig(basis, target, 1)
        calls, coords = [], []
        invert_rows = dg.invert_rows

        def capture(alphas, centers, us):
            calls.append((np.array(alphas), np.array(centers)))
            return invert_rows(alphas, centers, us)

        class RecordingRng:  # the ensemble's stream, with its coordinates kept
            def __init__(self, rng):
                self.rng = rng

            def integers(self, *args, **kwargs):
                coords.append(self.rng.integers(*args, **kwargs))
                return coords[-1]

            def random(self, *args, **kwargs):
                return self.rng.random(*args, **kwargs)

        monkeypatch.setattr(dg, "invert_rows", capture)
        steps = 6
        snaps, _ = mcmc.gibbs_ensemble(basis, target, rng.integers(-3, 4, n), 300, steps,
                                       RecordingRng(np.random.default_rng(5)),
                                       record_at=tuple(range(steps + 1)))
        assert len(calls) == len(coords) == steps
        for t, chosen, (alphas, centers) in zip(itertools.count(1), coords, calls):
            chains = np.argsort(chosen, kind="stable")
            want_alphas, want = [], []
            for chain in chains.tolist():
                i = int(chosen[chain])
                rest = [j for j in range(n) if j != i]
                (u,), (c,) = block_conditional(cfg.gram, cfg.bc, snaps[t - 1][chain].tolist(),
                                               [i], rest)
                want_alphas.append(target.sigma / u[0])
                want.append(c / u[0])
            assert alphas.tolist() == want_alphas
            assert centers.tolist() == want

    def test_overflowing_center_fails_as_the_scalar_chain_does(self):
        # G[0][1] x[1] = 1e300 * 4e18 overflows to inf: a ValueError naming
        # the center, not an overflow RuntimeWarning from the center sums
        basis = LatticeBasis.from_matrix([[1e150, 1e150], [0.0, 1e150]])
        target, x0 = GaussianParams(1.0, np.zeros(2)), (4 * 10**18, 4 * 10**18)
        errors = []
        for run in (lambda rng: mcmc.gibbs_ensemble(basis, target, x0, 5, 3, rng),
                    lambda rng: mcmc.run_chain("gibbs", basis, target, x0, 3, rng)):
            with pytest.raises(ValueError, match="center must be finite, got -inf") as info:
                run(np.random.default_rng(0))
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    def test_pool_from_must_leave_a_step(self, basis_2d, target_2d, rng):
        with pytest.raises(ValueError, match="pool_from"):
            mcmc.gibbs_ensemble(basis_2d, target_2d, (0, 0), 10, 5, rng, pool_from=5)


def ensemble_case(n, case):
    """A basis, target and start state for the ensemble equality tests.
    "random" bases have columns of norms about 1, 1.5, 2, ..., so their
    coordinates' 1-D windows have different half-widths; "wide" sigma gives
    every coordinate a window of more than LOOP_MAX_POINTS points.
    "identity" bases at sigma 6 give each coordinate one center, so the wide
    windows repeat."""
    rng = np.random.default_rng(70 + n)
    center = rng.normal(size=n) * 2
    x0 = rng.integers(-3, 4, n)
    if case == "identity":
        return LatticeBasis.identity(n), GaussianParams(6.0, center), x0
    matrix = make_random_basis(rng, n).matrix * (1.0 + 0.5 * np.arange(n))
    norms = np.linalg.norm(matrix, axis=0)
    sigma = {"tiny": 0.05, "narrow": 0.4, "medium": 1.5, "wide": 4.2 * norms.max()}[case]
    return LatticeBasis.from_matrix(matrix), GaussianParams(sigma, center), x0


def grouped_calls(monkeypatch):
    """A list that gets, for each `dg._grouped` call on an alpha per row,
    whether it grouped the rows."""
    took = []
    grouped = dg._grouped

    def spy(alphas, *args):
        out = grouped(alphas, *args)
        if np.ndim(alphas):
            took.append(out is not None)
        return out

    monkeypatch.setattr(dg, "_grouped", spy)
    return took


class TestGibbsEnsembleEqualsPerCoordinate:
    """`gibbs_ensemble`, one grouped draw over all chains a step, against the
    per-coordinate ensemble it replaced (`gibbs_reference`): the same
    snapshots at every step and the same stream position after, bit for
    bit. One chain leaves all but one coordinate without rows each step,
    and 7 chains often leave some."""

    STEPS = 10

    def run_both(self, basis, target, x0, chains, seed, bit_generator=np.random.PCG64):
        marks = tuple(range(self.STEPS + 1))
        got_rng, want_rng = (np.random.Generator(bit_generator(seed)) for _ in range(2))
        got, _ = mcmc.gibbs_ensemble(basis, target, x0, chains, self.STEPS, got_rng,
                                     record_at=marks)
        want, _ = gibbs_reference.gibbs_ensemble(basis, target, x0, chains, self.STEPS,
                                                 want_rng, record_at=marks)
        for t in marks:
            assert got[t].dtype == np.int64
            assert np.array_equal(got[t], want[t]), t
        assert stream_state(got_rng) == stream_state(want_rng)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("chains", [1, 7, 1000, 2001])
    @pytest.mark.parametrize("case", ["tiny", "narrow", "medium", "wide", "identity"])
    def test_equals_per_coordinate_ensemble(self, n, chains, case, monkeypatch):
        basis, target, x0 = ensemble_case(n, case)
        took = grouped_calls(monkeypatch)
        self.run_both(basis, target, x0, chains, 1000 * n + chains)
        halves = dg.window_half(target.sigma / np.linalg.norm(basis.matrix, axis=0))
        if case == "wide":
            assert (2 * halves + 1 > dg.LOOP_MAX_POINTS).all()
        if case == "narrow" and n > 1:
            assert np.unique(halves).size > 1
        if chains >= 1000 and case in ("tiny", "narrow", "identity"):
            assert any(took)  # steps drawn as one grouped draw
        if chains >= 1000 and case == "wide" and n > 2:
            assert not all(took)  # steps whose wide windows seldom repeat stay on the blocks

    @pytest.mark.parametrize("bit_generator", OTHER_BIT_GENERATORS)
    def test_equals_per_coordinate_ensemble_on_other_bit_generators(self, bit_generator):
        basis, target, x0 = ensemble_case(3, "narrow")
        self.run_both(basis, target, x0, 1000, 9, bit_generator)

    def test_pooled_law_equals_per_coordinate_ensemble(self, basis_2d):
        target = GaussianParams(0.5, np.array([0.3, 0.7]))
        laws = [run(basis_2d, target, (2, -1), 1000, 30, np.random.default_rng(6), pool_from=10)[1]
                for run in (mcmc.gibbs_ensemble, gibbs_reference.gibbs_ensemble)]
        assert np.array_equal(laws[0].support, laws[1].support)
        assert np.array_equal(laws[0].probs, laws[1].probs)

    @pytest.mark.parametrize("case, chains, message", [
        # sigma / ||b_i|| = 1e-160: 2 alpha^2 underflows
        ("underflowing-alpha", 5, "is too small: 2 alpha^2 underflows"),
        # only coordinate 1's alpha underflows: the steps that draw only
        # coordinate 0 pass, as in the per-coordinate ensemble
        ("one-underflowing-alpha", 1, "is too small: 2 alpha^2 underflows"),
        ("one-underflowing-alpha", 1000, "is too small: 2 alpha^2 underflows"),
        ("huge-center", 1000, "is too large: |center| must be below 2**53"),
        ("nan-center", 7, "center must be finite, got nan"),
        ("wide-window", 5, "needs a window of"),
    ])
    def test_fails_as_per_coordinate_ensemble_does(self, case, chains, message):
        x0 = (0, 0)
        if case == "underflowing-alpha":
            basis = LatticeBasis.from_matrix([[1e10, 5e9], [0.0, 1e10]])
            target = GaussianParams(1e-150, np.zeros(2))
        elif case == "one-underflowing-alpha":
            basis = LatticeBasis.from_matrix([[1.0, 0.0], [0.0, 1e5]])
            target = GaussianParams(1e-150, np.zeros(2))
        elif case == "huge-center":
            basis = LatticeBasis.from_matrix([[1.0, 0.5], [0.0, 1.0]])
            target = GaussianParams(1.0, np.array([1e19, 0.0]))
        elif case == "nan-center":  # inf - inf in the center sums
            basis = LatticeBasis.from_matrix([[1e150, 1e150, -1e150], [0.0, 1e150, 0.0],
                                              [0.0, 0.0, 1e150]])
            target, x0 = GaussianParams(1.0, np.zeros(3)), (0, 4 * 10**18, 4 * 10**18)
        else:
            basis = LatticeBasis.from_matrix([[1.0, 0.5], [0.0, 1.0]])
            target = GaussianParams(1e300, np.zeros(2))
        errors = []
        for run in (mcmc.gibbs_ensemble, gibbs_reference.gibbs_ensemble):
            with pytest.raises(ValueError, match=re.escape(message)) as info:
                run(basis, target, x0, chains, 20, np.random.default_rng(3))
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("sigma", [0.4, 9.0, 1e3])
    def test_memory_is_bounded_by_the_chain_count(self, sigma):
        # alphas of 0.24-0.4, 5.3-9 and 590-1,000 on the golden basis:
        # windows of 9, 83-141 and 9,000-15,000 points. The peak grows with
        # the chains, about 150 bytes a chain, and not with sigma
        basis = LatticeBasis.from_matrix(GOLDEN_DIAGNOSE_BASIS)
        target = GaussianParams(sigma, np.array([0.3, -0.2, 0.45]))
        mcmc.gibbs_ensemble(basis, target, (2, -1, 1), 600, 1, np.random.default_rng(0))
        for chains in (600, 4000):
            tracemalloc.start()
            try:
                mcmc.gibbs_ensemble(basis, target, (2, -1, 1), chains, 1, np.random.default_rng(0),
                                    record_at=(1,))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 0.3e6 + 250 * chains, (sigma, chains, peak)


def chain_streams(seed, chains):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(chains)]


def loop_snapshots(basis, target, x0, m, rngs, checkpoints):
    """The per-chain loop `gibbs_klein_ensemble` replaced: each chain through
    `run_chain` on its own stream, one after another."""
    snaps = {t: np.empty((len(rngs), basis.n), dtype=np.int64) for t in checkpoints}
    for i, rng in enumerate(rngs):
        states = mcmc.run_chain("gibbs-klein", basis, target, x0, max(checkpoints), rng,
                                block_size=m)
        for t in checkpoints:
            snaps[t][i] = states[t]
    return snaps


def ensemble_target(case):
    if case == "golden-3d":
        basis = LatticeBasis.from_matrix(GOLDEN_DIAGNOSE_BASIS)
        return basis, GaussianParams(0.7, np.array([0.3, -0.2, 0.45])), (2, -1, 1)
    rng = np.random.default_rng(41)
    basis = make_random_basis(rng, 4)
    target = GaussianParams(0.5 * min(np.abs(np.diag(qr_decompose(basis.matrix)[1]))),
                            rng.uniform(-1, 1, 4))
    return basis, target, (3, -2, 1, 0)


class TestGibbsKleinEnsemble:
    MARKS = [0, 1, 2, 4, 8, 16]

    @pytest.mark.parametrize("case", ["golden-3d", "random-4d"])
    @pytest.mark.parametrize("chains", [1, 5, 40])
    def test_equals_per_chain_loop(self, case, chains):
        basis, target, x0 = ensemble_target(case)
        for m in range(1, basis.n + 1):
            for seed in (0, 1, 2):
                got = mcmc.gibbs_klein_ensemble(
                    basis, target, x0, m, chain_streams(seed, chains), self.MARKS)
                ref = loop_snapshots(basis, target, x0, m, chain_streams(seed, chains), self.MARKS)
                assert sorted(got) == self.MARKS
                for t in self.MARKS:
                    assert got[t].dtype == np.int64
                    assert np.array_equal(got[t], ref[t]), (m, seed, t)

    @pytest.mark.parametrize("case", ["golden-3d", "random-4d"])
    def test_chain_rows_do_not_depend_on_chain_count(self, case):
        basis, target, x0 = ensemble_target(case)
        for m in range(1, basis.n + 1):
            few = mcmc.gibbs_klein_ensemble(basis, target, x0, m, chain_streams(7, 40)[:5],
                                            self.MARKS)
            many = mcmc.gibbs_klein_ensemble(basis, target, x0, m, chain_streams(7, 40),
                                             self.MARKS)
            for t in self.MARKS:
                assert np.array_equal(few[t], many[t][:5])
            assert len(np.unique(many[16], axis=0)) > 5

    @pytest.mark.parametrize("m", [1, 2])
    def test_wide_windows_equal_per_chain_loop(self, basis_2d, m):
        # sigma 6: every alpha is above 4, so every 1-D draw inverts the table
        target = GaussianParams(6.0, np.array([0.3, 0.7]))
        cfg = mcmc.GibbsKleinConfig(basis_2d, target, 2)
        u, _ = block_conditional(cfg.gram, cfg.bc, [], [1, 0], [])
        assert 6.0 / max(u[0][0], u[1][1], math.sqrt(cfg.gram[0][0])) > 4.0
        got = mcmc.gibbs_klein_ensemble(basis_2d, target, (0, 0), m, chain_streams(3, 30),
                                        self.MARKS)
        ref = loop_snapshots(basis_2d, target, (0, 0), m, chain_streams(3, 30), self.MARKS)
        for t in self.MARKS:
            assert np.array_equal(got[t], ref[t])

    def test_rejects_no_chains_or_checkpoints(self, basis_2d, target_2d):
        with pytest.raises(ValueError, match="at least one chain"):
            mcmc.gibbs_klein_ensemble(basis_2d, target_2d, (0, 0), 1, [], [1])
        for marks in ([], [-1, 2]):
            with pytest.raises(ValueError, match="at least one checkpoint"):
                mcmc.gibbs_klein_ensemble(basis_2d, target_2d, (0, 0), 1, chain_streams(0, 2),
                                          marks)

    @pytest.mark.parametrize("case, m, message", [
        # alpha = 1e-150 / 1e10: 2 alpha^2 underflows
        ("underflowing-alpha", 1, "is too small: 2 alpha^2 underflows"),
        ("underflowing-alpha", 2, "is too small: 2 alpha^2 underflows"),
        ("huge-center", 2, "is too large: |center| must be below 2**53"),
        # G[0][1] x[1] = 1e300 * 4e18 overflows to inf, as does G[1][0] x[0]
        ("infinite-center", 1, "center must be finite, got -inf"),
        ("singular-block", 2, "is singular in floating point"),
    ])
    def test_fails_as_per_chain_loop_does(self, case, m, message):
        x0 = (0, 0)
        if case == "underflowing-alpha":
            basis = LatticeBasis.from_matrix([[1e10, 5e9], [0.0, 1e10]])
            target = GaussianParams(1e-150, np.zeros(2))
        elif case == "huge-center":
            basis = LatticeBasis.from_matrix([[1.0, 0.5], [0.0, 1.0]])
            target = GaussianParams(1.0, np.array([1e19, 0.0]))
        elif case == "infinite-center":
            basis = LatticeBasis.from_matrix([[1e150, 1e150], [0.0, 1e150]])
            target, x0 = GaussianParams(1.0, np.zeros(2)), (4 * 10**18, 4 * 10**18)
        else:
            basis = LatticeBasis.from_matrix([[1.0, 1.0], [0.0, 1e-9]])
            target = GaussianParams(1.0, np.zeros(2))
        errors = []
        for run in (mcmc.gibbs_klein_ensemble, loop_snapshots):
            with pytest.raises(ValueError, match=re.escape(message)) as info:
                run(basis, target, x0, m, chain_streams(4, 6), [1, 2, 4])
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]


class TestStartState:
    @pytest.mark.parametrize("x0", [(1, 2, 3), (1,), [[1, 2]]])
    def test_wrong_length_rejected(self, basis_2d, target_2d, rng, x0):
        with pytest.raises(ValueError, match="--x0 must have 2 entries"):
            mcmc.run_chain("gibbs", basis_2d, target_2d, x0, 3, rng)
        with pytest.raises(ValueError, match="--x0 must have 2 entries"):
            mcmc.gibbs_ensemble(basis_2d, target_2d, x0, 4, 3, rng)

    @pytest.mark.parametrize("x0", [(0.7, 2), (np.nan, 0), (1, np.inf), (1e30, 0)])
    def test_non_integer_entry_rejected(self, basis_2d, target_2d, rng, x0):
        for run in (
            lambda: mcmc.run_chain("gibbs", basis_2d, target_2d, x0, 3, rng),
            lambda: mcmc.run_chain("gibbs-klein", basis_2d, target_2d, x0, 3, rng, block_size=1),
            lambda: mcmc.gibbs_ensemble(basis_2d, target_2d, x0, 4, 3, rng),
        ):
            with pytest.raises(ValueError, match="--x0 entries must be integers"):
                run()

    def test_integral_floats_and_big_ints_accepted(self, basis_2d, target_2d):
        a = mcmc.run_chain("gibbs", basis_2d, target_2d, (3.0, -2.0), 5, np.random.default_rng(1))
        b = mcmc.run_chain("gibbs", basis_2d, target_2d, (3, -2), 5, np.random.default_rng(1))
        assert np.array_equal(a, b)
        big = np.array([2**62 + 1, 0], dtype=np.int64)
        assert mcmc.start_state(big, 2)[0] == 2**62 + 1
