import itertools

import numpy as np
import pytest

from lattice_gibbs import mimo, oracle
from lattice_gibbs.klein import GaussianParams, block_conditional
from lattice_gibbs.linalg import LatticeBasis, qr_decompose


def brute_force_ml(h, y):
    """Reference ML: argmin of ||Hx - y|| over all 16^n_tx candidates, listed
    lexicographically in (re, im) per antenna; the first winner on ties."""
    points = [re + 1j * im for re in mimo.QAM16_LEVELS for im in mimo.QAM16_LEVELS]
    cands = np.array(list(itertools.product(points, repeat=h.shape[1])), dtype=complex)
    diff = cands @ h.T - y
    costs = np.einsum("ij,ij->i", diff.real, diff.real) + np.einsum(
        "ij,ij->i", diff.imag, diff.imag
    )
    return cands[int(np.argmin(costs))]


class TestRealEmbedding:
    def test_pure_imaginary_scalar(self):
        got = mimo.complex_to_real_lattice(np.array([[1j]]))
        assert np.array_equal(got, [[0.0, -1.0], [1.0, 0.0]])

    def test_real_matrix_is_block_diagonal(self):
        h = np.array([[2.0, 1.0], [0.0, 3.0]], dtype=complex)
        got = mimo.complex_to_real_lattice(h)
        assert np.array_equal(got[:2, 2:], np.zeros((2, 2)))
        assert np.array_equal(got[2:, :2], np.zeros((2, 2)))
        assert np.array_equal(got[:2, :2], h.real)

    def test_isometry(self, rng):
        for _ in range(20):
            h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            x = rng.normal(size=3) + 1j * rng.normal(size=3)
            y = rng.normal(size=3) + 1j * rng.normal(size=3)
            lhs = np.linalg.norm(h @ x - y)
            rhs = np.linalg.norm(
                mimo.complex_to_real_lattice(h) @ mimo.complex_to_real_vector(x)
                - mimo.complex_to_real_vector(y)
            )
            assert abs(lhs - rhs) < 1e-12


class TestGenerateInstance:
    def test_noiseless_limit(self, rng):
        cfg = mimo.MimoConfig(trials=1, ebn0_db=300.0)
        h, x, y = mimo.generate_instance(cfg, rng)
        assert np.abs(y - h @ x).max() < 1e-10

    def test_channel_unit_variance(self):
        cfg = mimo.MimoConfig(trials=1)
        rng = np.random.default_rng(0)
        entries = np.concatenate(
            [mimo.generate_instance(cfg, rng)[0].ravel() for _ in range(700)]
        )
        assert abs(np.mean(np.abs(entries) ** 2) - 1.0) < 0.05

    def test_symbols_in_constellation(self, rng):
        cfg = mimo.MimoConfig(trials=1)
        _, x, _ = mimo.generate_instance(cfg, rng)
        for s in x:
            assert s.real in mimo.QAM16_LEVELS and s.imag in mimo.QAM16_LEVELS

    def test_average_symbol_energy_is_10(self):
        energies = [
            re * re + im * im
            for re in mimo.QAM16_LEVELS
            for im in mimo.QAM16_LEVELS
        ]
        assert np.mean(energies) == mimo.AVG_SYMBOL_ENERGY == 10.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            mimo.MimoConfig(n_tx=4, n_rx=2)


class TestBaselineDecoders:
    def test_zf_noiseless_recovery(self, rng):
        cfg = mimo.MimoConfig(trials=1)
        h, x, _ = mimo.generate_instance(cfg, rng)
        assert np.allclose(mimo.zf_decode(h, h @ x), x)

    def test_zf_identity_channel_small_noise(self, rng):
        x = np.array([1 + 3j, -3 - 1j, 3 - 3j, -1 + 1j])
        y = x + 0.4 * (rng.normal(size=4) + 1j * rng.normal(size=4)) / np.sqrt(2)
        assert np.allclose(mimo.zf_decode(np.eye(4, dtype=complex), y), x)

    def test_zf_singular_channel(self):
        h = np.ones((2, 2), dtype=complex)
        with pytest.raises(ValueError):
            mimo.zf_decode(h, np.array([1.0 + 0j, 1.0]))

    def test_ml_noiseless_recovery(self, rng):
        cfg = mimo.MimoConfig(trials=1)
        h, x, _ = mimo.generate_instance(cfg, rng)
        assert np.allclose(mimo.ml_decode(h, h @ x), x)

    def test_ml_matches_zf_on_unitary_channel(self, rng):
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            cfg = mimo.MimoConfig(n_tx=3, n_rx=3, trials=1, block_sizes=(1, 2))
            _, x, _ = mimo.generate_instance(cfg, rng)
            y = q @ x + 0.3 * (rng.normal(size=3) + 1j * rng.normal(size=3))
            assert np.allclose(mimo.ml_decode(q, y), mimo.zf_decode(q, y))

    def test_ml_matches_oracle_cvp_mode(self):
        # 2x2 channel -> 4-D real lattice, small enough for the enumeration
        # oracle; the ML argmin must be the mode of the matched-center target
        rng = np.random.default_rng(17)
        for _ in range(5):
            cfg = mimo.MimoConfig(n_tx=2, n_rx=2, trials=1, ebn0_db=18.0, block_sizes=(1, 2))
            h, x, y = mimo.generate_instance(cfg, rng)
            ml = mimo.ml_decode(h, y)
            g, t = mimo._integer_lattice_problem(h, y)
            dist = oracle.enumerate_support(
                LatticeBasis.from_matrix(g), GaussianParams(1.0, t), 1e-6
            )
            mode_k = dist.support[np.argmax(dist.probs)]
            if np.all(mode_k >= 0) & np.all(mode_k <= 3):
                assert np.allclose(mimo._coeffs_to_symbols(mode_k), ml)

    @pytest.mark.parametrize("n_tx", [1, 2, 3, 4])
    def test_ml_equals_brute_force(self, n_tx):
        # 80 instances per size (320 in all); n_tx = 1 and 3 split the
        # antennas unevenly, and 0 dB makes far-from-ZF decisions common
        rng = np.random.default_rng(100 + n_tx)
        for ebn0_db in (0.0, 15.0):
            cfg = mimo.MimoConfig(
                n_tx=n_tx, n_rx=n_tx, trials=1, ebn0_db=ebn0_db, block_sizes=(1,)
            )
            for _ in range(40):
                h, _, y = mimo.generate_instance(cfg, rng)
                assert np.array_equal(mimo.ml_decode(h, y), brute_force_ml(h, y))

    def test_ml_ties_go_to_first_candidate(self):
        # identity channel, y = 0: every dimension ties between -1 and +1
        for n_tx in (1, 2, 3):
            h, y = np.eye(n_tx, dtype=complex), np.zeros(n_tx, dtype=complex)
            got = mimo.ml_decode(h, y)
            assert np.array_equal(got, brute_force_ml(h, y))
            assert np.array_equal(got, np.full(n_tx, -1 - 1j))

    def test_ml_rejects_more_than_five_antennas(self):
        with pytest.raises(ValueError):
            mimo.ml_decode(np.eye(6, dtype=complex), np.zeros(6, dtype=complex))

    def test_zf_never_beats_ml_paired(self):
        table = mimo.ber_experiment(
            mimo.MimoConfig(trials=400, iteration_budgets=(1,), decoders=("zf", "ml"), seed=2)
        )
        by_name = {r.decoder: r for r in table.rows}
        assert by_name["ml"].bit_errors <= by_name["zf"].bit_errors


class TestBitMapping:
    def test_roundtrip_all_16_symbols(self):
        symbols = [re + 1j * im for re in mimo.QAM16_LEVELS for im in mimo.QAM16_LEVELS]
        seen = set()
        for s in symbols:
            bits = tuple(mimo.symbols_to_bits(np.array([s])))
            assert len(bits) == 4
            seen.add(bits)
        assert len(seen) == 16

    def test_gray_adjacent_levels_differ_by_one_bit(self):
        for a, b in zip(mimo.GRAY_BITS[:-1], mimo.GRAY_BITS[1:]):
            assert sum(x != y for x, y in zip(a, b)) == 1

    def test_count_bit_errors(self):
        a = np.array([-3 + 1j * 1])
        assert mimo.count_bit_errors(a, a) == 0
        b = np.array([-1 + 1j * 1])  # adjacent real level: one Gray bit
        assert mimo.count_bit_errors(a, b) == 1


def numpy_draw_restricted4(alpha, center, u):
    """Reference inversion over {0..3} with numpy arrays, given the uniform u."""
    logw = -((np.arange(4.0) - center) ** 2) / (2.0 * alpha * alpha)
    cum = np.cumsum(np.exp(logw - logw.max()))
    return int(np.searchsorted(cum, u * cum[-1], side="left"))


class FixedUniform:
    """Stands in for a Generator whose next random() is known."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestInnerLoop:
    def test_scalar_draw_equals_numpy_inversion(self):
        for alpha in (0.05, 0.3, 0.7, 1.0, 2.5, 40.0):
            for center in np.linspace(-2.0, 5.0, 57):
                for u in (0.0, 1e-12, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999999, 1.0 - 2.0**-53):
                    got = mimo._draw_restricted4(alpha, float(center), FixedUniform(u))
                    assert got == numpy_draw_restricted4(alpha, center, u)

    def test_scalar_draw_boundary_goes_left(self):
        # center 1.5: weights of 1 and 2 tie; u = 1/2 lands exactly on the
        # cumulative weight of {0, 1}, which side="left" assigns to 1
        assert mimo._draw_restricted4(1.0, 1.5, FixedUniform(0.5)) == 1
        assert numpy_draw_restricted4(1.0, 1.5, 0.5) == 1

    def test_gram_cholesky_block_matches_permuted_qr(self, rng):
        worst_r = worst_c = 0.0
        for n_tx in (1, 2, 3, 4):
            cfg = mimo.MimoConfig(n_tx=n_tx, n_rx=n_tx, trials=1, block_sizes=(1,))
            n = 2 * n_tx
            for _ in range(25):
                h, _, y = mimo.generate_instance(cfg, rng)
                g, t = mimo._integer_lattice_problem(h, y)
                gram, gt = (g.T @ g).tolist(), (g.T @ t).tolist()
                k = rng.integers(0, 4, n)
                for m in range(1, n + 1):
                    order = rng.permutation(n)
                    u, c = block_conditional(
                        gram, gt, k.tolist(), order[:m].tolist(), order[m:].tolist()
                    )
                    q, r = qr_decompose(g[:, order])
                    c_ref = (q.T @ t)[:m] - r[:m, m:] @ k[order[m:]]
                    err_r = np.abs(np.array(u) - r[:m, :m]).max() / np.abs(r).max()
                    err_c = np.abs(np.array(c) - c_ref).max() / (1.0 + np.abs(c_ref).max())
                    worst_r, worst_c = max(worst_r, err_r), max(worst_c, err_c)
        assert worst_r <= 1e-12
        assert worst_c <= 1e-12


class TestSamplerDecode:
    def test_best_visited_cost_non_increasing(self, rng):
        cfg = mimo.MimoConfig(trials=1)
        h, x, y = mimo.generate_instance(cfg, rng)
        budgets = (1, 2, 4, 8, 16)
        out = mimo._decode_checkpoints(
            mimo._trial_lattice(h, y), "gibbs-klein", budgets, np.random.default_rng(3), 2
        )
        costs = [np.linalg.norm(h @ out[b] - y) for b in budgets]
        for lo, hi in zip(costs[1:], costs[:-1]):
            assert lo <= hi + 1e-12

    def test_requires_positive_iterations(self, rng):
        cfg = mimo.MimoConfig(trials=1)
        h, _, y = mimo.generate_instance(cfg, rng)
        with pytest.raises(ValueError):
            mimo.sampler_decode(h, y, "gibbs", 0, rng)

    def test_gibbs_klein_needs_block_size(self, rng):
        cfg = mimo.MimoConfig(trials=1)
        h, _, y = mimo.generate_instance(cfg, rng)
        with pytest.raises(ValueError):
            mimo.sampler_decode(h, y, "gibbs-klein", 1, rng)

    @pytest.mark.parametrize("block_size", [0, -1, 9, 16])
    def test_gibbs_klein_block_size_outside_1_to_n_rejected(self, rng, block_size):
        # the 4x4 channel is an 8-D real lattice: sizes 1..8 only
        cfg = mimo.MimoConfig(trials=1)
        h, _, y = mimo.generate_instance(cfg, rng)
        with pytest.raises(ValueError, match=r"block size in \[1, 8\]"):
            mimo.sampler_decode(h, y, "gibbs-klein", 1, rng, block_size)
        with pytest.raises(ValueError, match=r"block size in \[1, 8\]"):
            mimo._decode_checkpoints(mimo._trial_lattice(h, y), "gibbs-klein", (1, 2), rng,
                                     block_size)

    def test_full_block_budget1_exact_output_law(self):
        # m = 2n with one iteration is one backward pass on a random
        # permutation of the real basis, floored at the ZF point. On a 1x1
        # channel the exact output law is enumerable in closed form here.
        rng = np.random.default_rng(21)
        cfg = mimo.MimoConfig(n_tx=1, n_rx=1, trials=1, ebn0_db=10.0, block_sizes=(1, 2))
        h, x, y = mimo.generate_instance(cfg, rng)
        g, t = mimo._integer_lattice_problem(h, y)
        zf_k = np.clip(
            np.round((mimo.complex_to_real_vector(mimo.zf_decode(h, y)) + 3.0) / 2.0), 0, 3
        ).astype(int)
        zf_cost = float(np.sum((g @ zf_k - t) ** 2))
        sigma = None
        law_exact: dict[tuple, float] = {}
        for order in ([0, 1], [1, 0]):
            q, r = qr_decompose(g[:, order])
            if sigma is None:
                q0, r0 = qr_decompose(g)
                sigma = float(np.abs(np.diag(r0)).min() / np.sqrt(np.log(2)))
            cp = q.T @ t
            ks = np.arange(4.0)
            # backward pass: z1 then z0 | z1, each restricted to {0..3}
            w1 = np.exp(-((ks - cp[1] / r[1, 1]) ** 2) * r[1, 1] ** 2 / (2 * sigma**2))
            p1 = w1 / w1.sum()
            for z1 in range(4):
                c0 = (cp[0] - r[0, 1] * z1) / r[0, 0]
                w0 = np.exp(-((ks - c0) ** 2) * r[0, 0] ** 2 / (2 * sigma**2))
                p0 = w0 / w0.sum()
                for z0 in range(4):
                    k_vec = np.empty(2, dtype=int)
                    k_vec[order] = (z0, z1)
                    cost = float(np.sum((g @ k_vec - t) ** 2))
                    out = tuple(k_vec) if cost < zf_cost else tuple(zf_k)
                    law_exact[out] = law_exact.get(out, 0.0) + 0.5 * p1[z1] * p0[z0]
        n_draws = 4000
        counts: dict[tuple, int] = {}
        for i in range(n_draws):
            sym = mimo.sampler_decode(h, y, "gibbs-klein", 1, np.random.default_rng(1000 + i), 2)
            k_out = tuple(
                int(v) for v in np.round((mimo.complex_to_real_vector(sym) + 3.0) / 2.0)
            )
            counts[k_out] = counts.get(k_out, 0) + 1
        tv = 0.5 * sum(
            abs(law_exact.get(k, 0.0) - counts.get(k, 0) / n_draws)
            for k in set(law_exact) | set(counts)
        )
        assert tv <= 0.03

    def test_iterations_approach_ml(self):
        budgets = (1, 10, 100)
        trials = 60
        children = np.random.SeedSequence(9).spawn(trials)
        cfg = mimo.MimoConfig(trials=1)
        errs = {b: 0 for b in budgets}
        ml_errs = 0
        for tr in range(trials):
            streams = children[tr].spawn(2)
            h, x, y = mimo.generate_instance(cfg, np.random.default_rng(streams[0]))
            ml_errs += mimo.count_bit_errors(mimo.ml_decode(h, y), x)
            out = mimo._decode_checkpoints(
                mimo._trial_lattice(h, y), "gibbs-klein", budgets,
                np.random.default_rng(streams[1]), 4,
            )
            for b in budgets:
                errs[b] += mimo.count_bit_errors(out[b], x)
        assert errs[100] <= errs[1]
        assert errs[100] >= ml_errs


class TestBerExperiment:
    def test_zero_trials_empty_table(self):
        table = mimo.ber_experiment(mimo.MimoConfig(trials=0))
        assert table.rows == ()
        assert table.to_csv() == "decoder,block_size,iterations,trials,bit_errors,bits,ber\n"

    def test_per_trial_bit_errors_pinned(self):
        # Recorded with the QR-per-step decoders and brute-force ML that the
        # Gram-Cholesky and meet-in-the-middle code replaced: same random
        # streams, same decisions. One hex digit per trial.
        golden = {
            ("zf", None, None): "4000200100000002000000000200000000000000",
            ("ml", None, None): "0000000000000000000000000000000000000000",
            ("klein", None, 1): "6000400100000000000000000000000000000000",
            ("klein", None, 5): "0000000000000000000000000000000000000000",
            ("klein", None, 20): "0000000000000000000000000000000000000000",
            ("gibbs", None, 1): "5000300200000002000000000200000000000000",
            ("gibbs", None, 5): "5000200200000000000000000200000000000000",
            ("gibbs", None, 20): "5000200200000000000000000200000000000000",
            ("gibbs-klein", 1, 1): "5000000000000004000000000200000000000000",
            ("gibbs-klein", 1, 5): "5000000000000005000000000200000000000000",
            ("gibbs-klein", 1, 20): "5000000000000005000000000200000000000000",
            ("gibbs-klein", 2, 1): "5000400200000003000000000200000000000000",
            ("gibbs-klein", 2, 5): "4000300000000005000000000000000000000000",
            ("gibbs-klein", 2, 20): "6000300000000005000000000000000000000000",
            ("gibbs-klein", 4, 1): "2000200200000005000000000200000000000000",
            ("gibbs-klein", 4, 5): "0000000200000005000000000000000000000000",
            ("gibbs-klein", 4, 20): "0000000000000006000000000000000000000000",
            ("gibbs-klein", 8, 1): "4000000800000000000000000000000000000000",
            ("gibbs-klein", 8, 5): "0000000000000000000000000000000000000000",
            ("gibbs-klein", 8, 20): "0000000000000000000000000000000000000000",
        }
        _, per_trial = mimo.ber_experiment_detailed(mimo.MimoConfig(trials=40, seed=0))
        assert list(per_trial) == list(golden)
        for key, digits in golden.items():
            assert per_trial[key].tolist() == [int(d, 16) for d in digits], key

    def test_deterministic(self):
        cfg = mimo.MimoConfig(
            trials=20, iteration_budgets=(1, 2), block_sizes=(2,), seed=5,
            decoders=("zf", "gibbs-klein"),
        )
        assert mimo.ber_experiment(cfg).to_csv() == mimo.ber_experiment(cfg).to_csv()

    def test_csv_shape(self):
        cfg = mimo.MimoConfig(
            trials=3, iteration_budgets=(1,), block_sizes=(1, 8), seed=1,
            decoders=("zf", "ml", "klein", "gibbs", "gibbs-klein"),
        )
        lines = mimo.ber_experiment(cfg).to_csv().strip().split("\n")
        # header + zf + ml + klein + gibbs + 2 block sizes
        assert len(lines) == 1 + 2 + 1 + 1 + 2
        assert lines[0] == "decoder,block_size,iterations,trials,bit_errors,bits,ber"

    def test_sandwich_small_batch(self):
        cfg = mimo.MimoConfig(
            trials=300, iteration_budgets=(5,), block_sizes=(4,), seed=7,
            decoders=("zf", "ml", "gibbs-klein"),
        )
        rows = {r.decoder: r for r in mimo.ber_experiment(cfg).rows}
        assert rows["ml"].bit_errors <= rows["gibbs-klein"].bit_errors
        assert rows["gibbs-klein"].bit_errors <= rows["zf"].bit_errors
