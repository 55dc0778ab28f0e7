import itertools

import numpy as np
import pytest

from lattice_gibbs import dgauss1d as dg
from lattice_gibbs import mcmc, oracle
from lattice_gibbs.dgauss1d import Gaussian1DParams
from lattice_gibbs.klein import (
    GaussianParams,
    KleinSampler,
    backward_pmf,
    block_conditional,
    klein_pmf,
    smoothing_threshold,
)
from lattice_gibbs.linalg import LatticeBasis, SingularBasisError, permute_basis

from conftest import make_random_basis


@pytest.fixture
def target_2d():
    return GaussianParams(1.0, np.array([0.3, 0.7]))


class TestGibbsConditional:
    def test_identity_basis_decouples(self):
        basis = LatticeBasis.identity(2)
        target = GaussianParams(1.2, np.array([0.4, -0.8]))
        for other in (-3, 0, 5):
            cond = mcmc.gibbs_conditional(basis, target, np.array([9, other]), 1)
            ks, probs = dg.pmf_table(Gaussian1DParams(1.2, -0.8))
            for k, p in zip(ks, probs):
                assert dg.pmf(cond, int(k)) == pytest.approx(p, abs=1e-14)

    def test_sums_to_one(self, basis_2d, target_2d):
        cond = mcmc.gibbs_conditional(basis_2d, target_2d, np.array([2, -1]), 0)
        assert abs(dg.pmf_table(cond)[1].sum() - 1.0) <= 1e-12

    def test_matches_oracle_slice(self, basis_2d):
        # first coordinate free, second fixed at 1, against the renormalized
        # exact distribution on that line
        target = GaussianParams(1.0, np.zeros(2))
        cond = mcmc.gibbs_conditional(basis_2d, target, np.array([0, 1]), 0)
        exact = oracle.enumerate_support(basis_2d, target, 1e-12)
        slice_probs = {
            pt[0]: pr for pt, pr in zip(exact.support, exact.probs) if pt[1] == 1
        }
        total = sum(slice_probs.values())
        tv = 0.5 * sum(
            abs(dg.pmf(cond, int(k)) - v / total) for k, v in slice_probs.items()
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
        assert mcmc.gibbs_kernel_prob(basis_2d, target_2d, (0, 0), (1, 1)) == 0.0

    def test_n1_kernel_row_is_target(self):
        basis = LatticeBasis.from_matrix([[1.0]])
        target = GaussianParams(0.9, np.array([0.3]))
        exact = oracle.enumerate_support(basis, target, 1e-12)
        for start in ((0,), (4,)):
            for point, prob in zip(exact.support, exact.probs):
                got = mcmc.gibbs_kernel_prob(basis, target, start, point)
                assert got == pytest.approx(prob, abs=1e-12)

    def test_rows_sum_to_one(self, basis_2d, target_2d):
        for s in ((0, 0), (2, -1)):
            total = mcmc.gibbs_kernel_prob(basis_2d, target_2d, s, s)
            for i in range(2):
                cond = mcmc.gibbs_conditional(basis_2d, target_2d, np.array(s), i)
                for k in dg.pmf_table(cond)[0].tolist():
                    if k != s[i]:
                        dest = list(s)
                        dest[i] = k
                        total += mcmc.gibbs_kernel_prob(basis_2d, target_2d, s, tuple(dest))
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
            sampler = KleinSampler(permute_basis(basis_2d, order), target_2d)
            for z in itertools.product(range(-2, 4), repeat=2):
                block = mcmc.gibbs_klein_block_pmf(cfg, order, np.array(z), np.array([]))
                assert block == pytest.approx(klein_pmf(sampler, np.array(z)), abs=1e-12)

    def test_m1_block_pmf_is_permuted_conditional(self, basis_2d, target_2d):
        cfg = mcmc.GibbsKleinConfig(basis_2d, target_2d, 1)
        order = (1, 0)
        permuted = permute_basis(basis_2d, order)
        z_rest = np.array([1])
        cond = mcmc.gibbs_conditional(permuted, target_2d, np.array([0, 1]), 0)
        for k in range(-3, 4):
            block = mcmc.gibbs_klein_block_pmf(cfg, order, np.array([k]), z_rest)
            assert block == pytest.approx(dg.pmf(cond, k), abs=1e-12)

    def test_block_pmf_sums_to_one(self, rng):
        basis = make_random_basis(rng, 3)
        target = GaussianParams(1.5, rng.uniform(-1, 1, 3))
        cfg = mcmc.GibbsKleinConfig(basis, target, 2)
        order = (2, 0, 1)
        z_rest = np.array([1])
        exact = oracle.block_conditional_exact(basis, target, order, 2, z_rest, 1e-9)
        total = sum(
            mcmc.gibbs_klein_block_pmf(cfg, order, np.array(z), z_rest)
            for z in exact.support
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_identity_basis_block_is_product(self):
        target = GaussianParams(1.0, np.array([0.2, -0.5, 0.8]))
        cfg = mcmc.GibbsKleinConfig(LatticeBasis.identity(3), target, 2)
        for z in itertools.product(range(-2, 3), repeat=2):
            got = mcmc.gibbs_klein_block_pmf(cfg, range(3), np.array(z), np.array([0]))
            expected = dg.pmf(Gaussian1DParams(1.0, 0.2), z[0]) * dg.pmf(
                Gaussian1DParams(1.0, -0.5), z[1]
            )
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
                permuted = permute_basis(basis, order)
                c_prime = permuted.q_factor.T @ target.center
                for z in zs:
                    got = mcmc.gibbs_klein_block_pmf(cfg, order, z[:m], z[m:])
                    ref = backward_pmf(permuted.r_factor, c_prime, target.sigma, z, m)
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
            permuted = permute_basis(basis, order)
            factors[order] = (permuted.r_factor, permuted.q_factor.T @ target.center)
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
            with pytest.raises(SingularBasisError):
                block_conditional(cfg.gram, cfg.bc, [0, 0], block, [])
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

    def test_single_chain_converges_above_smoothing(self):
        # sigma just above the smoothing threshold; T = 2e4 keeps the
        # occupancy Monte Carlo floor safely under the 0.02 tolerance
        basis = LatticeBasis.from_matrix(0.5 * np.array([[1.0, 0.5], [0.0, 1.0]]))
        target = GaussianParams(0.45, np.array([0.15, -0.2]))
        assert target.sigma >= smoothing_threshold(basis)
        states = mcmc.run_chain(
            "gibbs", basis, target, (0, 0), 20_000, np.random.default_rng(1)
        )
        emp = oracle.empirical_from_states(states[1_000:])
        exact = oracle.enumerate_support(basis, target, 1e-9)
        assert oracle.tv_distance(emp, exact) <= 0.02

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
        # same kernel, different vectorization: distributions must agree
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
        # two-sample floor at 5e3 vs 2e4 samples is ~0.032
        assert tv <= 0.045

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

    def test_pool_from_must_leave_a_step(self, basis_2d, target_2d, rng):
        with pytest.raises(ValueError, match="pool_from"):
            mcmc.gibbs_ensemble(basis_2d, target_2d, (0, 0), 10, 5, rng, pool_from=5)


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
