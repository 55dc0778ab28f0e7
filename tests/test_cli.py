import hashlib
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import ess
from lattice_gibbs import cli, oracle
from lattice_gibbs.klein import GaussianParams
from lattice_gibbs.linalg import load_basis


@pytest.fixture
def id2_file(tmp_path):
    path = tmp_path / "id2.txt"
    path.write_text("2\n1 0\n0 1\n")
    return str(path)


@pytest.fixture
def skew2_file(tmp_path):
    path = tmp_path / "b2.txt"
    path.write_text("2\n1 0.5\n0 1\n")
    return str(path)


def run_cli(args):
    return cli.main(args)


def read_csv_rows(path):
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().split("\n")
    assert lines[-1] == ""
    return lines[0].split(","), [ln.split(",") for ln in lines[1:-1]]


class TestSampleCommand:
    def test_klein_row_count_and_determinism(self, id2_file, tmp_path):
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        args = [
            "sample", "--basis", id2_file, "--algo", "klein",
            "--sigma", "1.0", "--iters", "100", "--seed", "7",
        ]
        assert run_cli(args + ["--output", out1]) == 0
        assert run_cli(args + ["--output", out2]) == 0
        header, rows = read_csv_rows(out1)
        assert header == ["chain", "t", "x_1", "x_2"]
        assert len(rows) == 100
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_missing_basis_fails_without_output(self, tmp_path, capsys):
        out = str(tmp_path / "never.csv")
        code = run_cli(
            ["sample", "--basis", str(tmp_path / "nope.txt"), "--algo", "klein",
             "--sigma", "1.0", "--iters", "5", "--output", out]
        )
        assert code != 0
        assert not os.path.exists(out)
        assert "error" in capsys.readouterr().err

    def test_bad_sigma_rejected(self, id2_file, capsys):
        code = run_cli(
            ["sample", "--basis", id2_file, "--algo", "klein",
             "--sigma", "-1.0", "--iters", "5"]
        )
        assert code != 0
        assert "error" in capsys.readouterr().err

    def test_gibbs_klein_requires_block_size(self, id2_file, capsys):
        code = run_cli(
            ["sample", "--basis", id2_file, "--algo", "gibbs-klein",
             "--sigma", "1.0", "--iters", "5"]
        )
        assert code != 0

    def test_chain_trace_includes_initial_state(self, skew2_file, tmp_path):
        out = str(tmp_path / "g.csv")
        assert run_cli(
            ["sample", "--basis", skew2_file, "--algo", "gibbs", "--sigma", "1.0",
             "--iters", "10", "--seed", "1", "--x0", "3,-2", "--output", out]
        ) == 0
        _, rows = read_csv_rows(out)
        assert len(rows) == 11
        assert rows[0][1:] == ["0", "3", "-2"]

    def test_env_seed_used_when_flag_absent(self, id2_file, tmp_path, monkeypatch):
        out1 = str(tmp_path / "e1.csv")
        out2 = str(tmp_path / "e2.csv")
        out3 = str(tmp_path / "e3.csv")
        base = ["sample", "--basis", id2_file, "--algo", "klein",
                "--sigma", "1.0", "--iters", "20"]
        monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
        run_cli(base + ["--output", out1])
        monkeypatch.delenv(cli.SEED_ENV_VAR)
        run_cli(base + ["--seed", "123", "--output", out2])
        run_cli(base + ["--seed", "124", "--output", out3])
        assert open(out1, "rb").read() == open(out2, "rb").read()
        assert open(out1, "rb").read() != open(out3, "rb").read()
        # an empty variable means seed 0
        monkeypatch.setenv(cli.SEED_ENV_VAR, "")
        run_cli(base + ["--output", out1])
        monkeypatch.delenv(cli.SEED_ENV_VAR)
        run_cli(base + ["--seed", "0", "--output", out2])
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_gibbs_klein_m1_statistically_matches_gibbs(self, skew2_file, tmp_path):
        # kernel equality at m=1 seen end-to-end: pooled post-burn-in draws
        # from both algorithms, 1e5 each. The bound treats each sample as
        # n_eff independent draws, the sum over its chains of the ESS of each
        # chain's energy series: with e = 1/n_a + 1/n_b, the two samples' mean
        # TV is at most sum_s sqrt(p_s (1 - p_s) e) / 2 for the exact law p,
        # and by McDiarmid's inequality (one draw moves the TV by at most one
        # over its sample's size) the TV passes its mean by
        # sqrt(ln(1/delta) e / 2) with chance under delta = 1e-3. Over seeds
        # 1-100 the TV read at most 0.52 of this bound (about 0.032); with
        # Gibbs-Klein's alphas 1.5x too wide it reads 9-10 times the bound
        out_a = str(tmp_path / "gk.csv")
        out_b = str(tmp_path / "gi.csv")
        common = ["--basis", skew2_file, "--sigma", "0.8", "--iters", "11000",
                  "--chains", "10", "--burn-in", "1001", "--seed", "42"]
        assert run_cli(["sample", "--algo", "gibbs-klein", "--block-size", "1",
                        *common, "--output", out_a]) == 0
        assert run_cli(["sample", "--algo", "gibbs", *common, "--output", out_b]) == 0
        basis = load_basis(skew2_file)

        def pooled_freqs(path):
            _, rows = read_csv_rows(path)
            table = np.array(rows, dtype=np.int64)
            keys, counts = np.unique(table[:, 2:], axis=0, return_counts=True)
            n_eff = 0.0
            for chain in np.unique(table[:, 0]):
                points = table[table[:, 0] == chain, 2:] @ basis.matrix.T
                n_eff += ess((points * points).sum(axis=1))
            return dict(zip(map(tuple, keys.tolist()), counts / len(table))), len(table), n_eff

        fa, na, eff_a = pooled_freqs(out_a)
        fb, nb, eff_b = pooled_freqs(out_b)
        assert na == nb == 100_000
        tv = 0.5 * sum(abs(fa.get(k, 0) - fb.get(k, 0)) for k in set(fa) | set(fb))
        p = oracle.enumerate_support(basis, GaussianParams(0.8, np.zeros(2)), 1e-9).probs
        e = 1.0 / eff_a + 1.0 / eff_b
        bound = 0.5 * np.sqrt(p * (1.0 - p) * e).sum() + math.sqrt(math.log(1e3) * e / 2)
        assert tv <= bound, (tv, bound, eff_a, eff_b)


class TestVectorFlags:
    @pytest.mark.parametrize("command, extra", [
        ("sample", ["--algo", "gibbs", "--iters", "30"]),
        ("diagnose", ["--algo", "gibbs", "--iters", "8", "--chains", "50"]),
    ])
    @pytest.mark.parametrize("flag, value", [("--center", "-0.5,1"), ("--x0", "-3,2")])
    def test_negative_vector_space_form_equals_equals_form(
        self, skew2_file, tmp_path, command, extra, flag, value
    ):
        base = [command, "--basis", skew2_file, "--sigma", "0.8", "--seed", "5", *extra]
        spaced, joined = str(tmp_path / "spaced.csv"), str(tmp_path / "joined.csv")
        assert run_cli(base + [flag, value, "-o", spaced]) == 0
        assert run_cli(base + [f"{flag}={value}", "-o", joined]) == 0
        assert open(spaced, "rb").read() == open(joined, "rb").read()

    @pytest.mark.parametrize("center", ["nan,0", "0,inf", "-inf,1"])
    @pytest.mark.parametrize("command", ["sample", "diagnose"])
    def test_non_finite_center_rejected_without_output(self, id2_file, tmp_path, capsys,
                                                        command, center):
        out = str(tmp_path / "never.csv")
        code = run_cli(
            [command, "--basis", id2_file, "--algo", "klein", "--sigma", "1.0",
             "--iters", "5", "--center", center, "--output", out]
        )
        assert code == 1
        assert not os.path.exists(out)
        assert "center must be finite" in capsys.readouterr().err


class TestGoldenChains:
    # sha256 of the CSV bytes; pins the random streams draw for draw. The
    # chains' digests were recorded when every chain step moved onto the
    # uniforms-only stream layout (`mcmc._step_draws`), and the scalar step
    # loop alone (every step block redone by the scalar steps) wrote the same
    # bytes.
    GOLDEN = {
        ("gibbs", None, 3): "89b0d43bc1badd943e6c54ef16c30f1eea0fc0a4de5579bb001fa80ed1c30c10",
        ("gibbs", None, 11): "a1f7208c49379084b9610c661125b0121698eed1f7fcb60f15f48f548739c5cf",
        ("gibbs-klein", 1, 3): "732868e90a504bc0f4d96fe7c162c96287def977220ddc8275d10a61c33b3902",
        ("gibbs-klein", 1, 11): "7dc45a09eba35c0e320c1f4064243f80642ca391cd1d0edec471dc9cc3eba6ee",
        ("gibbs-klein", 2, 3): "15d01b309a4f0e415c319fce4335e133cb6a697b050468ebd741a16ea509e4f8",
        ("gibbs-klein", 2, 11): "fa58f3a7e3d6a7b512955e006f6ed1a34d418d8080b4f7de41d301da0d8f52d5",
        # recorded before the row sampler worked in cache-sized blocks and the
        # CSV rows were formatted with one template per chain
        ("klein", None, 3): "4209a2c31a1fd29e239ec25775bc486bfcfdc47f47d77a92a71e663df0db46fc",
        ("klein", None, 11): "4733eb3b5c9df36a86e85f5e1fa1df5d7a7b14b366cde8ea8bf60f651c4ba6ff",
    }
    # `--burn-in 7` with seed 3: Klein skips draws t = 1..6, a chain t = 0..6
    GOLDEN_BURN_IN = {
        "klein": "0a07d56a4636e7e0cfef7ed32bba576e69d8e438a74dd5fa6284d8be48bfb284",
        "gibbs": "7dd544f860d04327865672837bc6e7d8395d8f856fc661dc7496c41da88a4f1b",
    }

    @staticmethod
    def _digest(basis, tmp_path, algo, seed, extra):
        out = str(tmp_path / "golden.csv")
        argv = ["sample", "--basis", basis, "--algo", algo, "--sigma", "0.8",
                "--center=0.3,-0.4", "--x0=3,-2", "--iters", "300", "--chains", "2",
                "--seed", str(seed), "-o", out, *extra]
        assert run_cli(argv) == 0
        return hashlib.sha256(open(out, "rb").read()).hexdigest()

    @pytest.mark.parametrize("algo, m, seed", sorted(GOLDEN, key=str))
    def test_sample_csv_bytes(self, skew2_file, tmp_path, algo, m, seed):
        extra = [] if m is None else ["--block-size", str(m)]
        digest = self._digest(skew2_file, tmp_path, algo, seed, extra)
        assert digest == self.GOLDEN[(algo, m, seed)]

    @pytest.mark.parametrize("algo", sorted(GOLDEN_BURN_IN))
    def test_burn_in_csv_bytes(self, skew2_file, tmp_path, algo):
        digest = self._digest(skew2_file, tmp_path, algo, 3, ["--burn-in", "7"])
        assert digest == self.GOLDEN_BURN_IN[algo]

    def test_full_block_8d_csv_bytes(self, tmp_path):
        # recorded as the scalar `gibbs_klein_step` loop writes it. 3,000
        # steps span three 1,024-step row blocks, burn-in 1,500 falls inside
        # one, and the 0.1 pivot sends one draw in about a third of the steps
        # to the 1-D table path
        basis = tmp_path / "b8.txt"
        basis.write_text("8\n1 0.5 0.3 0 0.2 0 0.1 0\n0 1.1 0.4 0.2 0 0.3 0 0.1\n"
                         "0 0 0.9 0.5 0.1 0 0.2 0\n0 0 0 1.2 0.3 0.1 0 0.2\n"
                         "0 0 0 0 0.1 0.4 0.1 0\n0 0 0 0 0 1 0.3 0.2\n"
                         "0 0 0 0 0 0 0.8 0.4\n0 0 0 0 0 0 0 1.3\n")
        out = str(tmp_path / "golden.csv")
        argv = ["sample", "--basis", str(basis), "--algo", "gibbs-klein", "--block-size", "8",
                "--sigma", "0.8", "--center=0.3,-0.4,1.2,0,-2.5,0.7,0.1,3",
                "--x0=3,-2,0,1,0,0,-1,2", "--iters", "3000", "--chains", "2",
                "--burn-in", "1500", "--seed", "5", "-o", out]
        assert run_cli(argv) == 0
        digest = hashlib.sha256(open(out, "rb").read()).hexdigest()
        assert digest == "e87bed61ac98df686cc60fc9e239987d89a2ac7aa17b69c2629c393d1f8fc2f8"

    @pytest.mark.parametrize("algo, extra, golden", [
        ("gibbs", [], "fa9fce672d0aa50071d273cf0008873693c533e21a2f78a775cfebfdb175ebee"),
        ("gibbs-klein", ["--block-size", "3"],
         "1f170b1bf7fa8e9ced4e49b804662c5bb18d1ec1f3134b807689077a5f12d3bf"),
    ])
    def test_step_blocks_8d_csv_bytes(self, tmp_path, algo, extra, golden):
        # recorded as the scalar step loop writes it. 3,000
        # steps a chain span three 1,024-step blocks. Column 5 has norm
        # 0.093, so each of its draws has alpha >= 8.6 and a window of at
        # least 135 points, past LOOP_MAX_POINTS: 731 of the 6,000 Gibbs
        # draws and 2,287 of the 18,000 m = 3 draws take the wide path
        basis = tmp_path / "b8.txt"
        basis.write_text("8\n1 0.5 0.3 0 0.05 0 0.1 0\n0 1.1 0.4 0.2 0 0.3 0 0.1\n"
                         "0 0 0.9 0.5 0.03 0 0.2 0\n0 0 0 1.2 0.06 0.1 0 0.2\n"
                         "0 0 0 0 0.04 0.4 0.1 0\n0 0 0 0 0 1 0.3 0.2\n"
                         "0 0 0 0 0 0 0.8 0.4\n0 0 0 0 0 0 0 1.3\n")
        out = str(tmp_path / "golden.csv")
        argv = ["sample", "--basis", str(basis), "--algo", algo, *extra, "--sigma", "0.8",
                "--center=0.3,-0.4,1.2,0,-2.5,0.7,0.1,3", "--x0=3,-2,0,1,0,0,-1,2",
                "--iters", "3000", "--chains", "2", "--seed", "7", "-o", out]
        assert run_cli(argv) == 0
        assert hashlib.sha256(open(out, "rb").read()).hexdigest() == golden

    def test_klein_8d_multi_block_csv_bytes(self, tmp_path):
        # recorded while every row-sampler block was row-major and its running
        # sums one cumsum. The 0.04 pivot gives one coordinate alpha 20, a
        # window of 309 points (wider than LOOP_MAX_POINTS) and blocks of 26
        # rows, which keep cumsum; the other windows hold 13-19 points, so
        # 20,000 draws a chain span dozens of 8,192-entry blocks of hundreds
        # of rows, summed window-major, and 25 CSV blocks. The centers make
        # most draws of some coordinates negative; t reaches 20,000.
        basis = tmp_path / "b8.txt"
        basis.write_text("8\n1 0.5 0.3 0 0.2 0 0.1 0\n0 1.1 0.4 0.2 0 0.3 0 0.1\n"
                         "0 0 0.9 0.5 0.1 0 0.2 0\n0 0 0 1.2 0.3 0.1 0 0.2\n"
                         "0 0 0 0 0.04 0.4 0.1 0\n0 0 0 0 0 1 0.3 0.2\n"
                         "0 0 0 0 0 0 0.8 0.4\n0 0 0 0 0 0 0 1.3\n")
        out = str(tmp_path / "golden.csv")
        argv = ["sample", "--basis", str(basis), "--algo", "klein", "--sigma", "0.8",
                "--center=-3.3,0.4,-12.2,0,-2.5,0.7,-0.1,3", "--iters", "20000",
                "--chains", "2", "--seed", "9", "-o", out]
        assert run_cli(argv) == 0
        digest = hashlib.sha256(open(out, "rb").read()).hexdigest()
        assert digest == "bbd9bedf13e86e7afc24db742da6c29f4442f7cf665d8fcdbcfa615f26f49bbf"


class TestGoldenDiagnose:
    # sha256 of the TV CSV and the exact stderr balance line, recorded before
    # the 1-D tail cut became a module constant (the Gibbs-Klein digests when
    # the chain steps moved onto the uniforms-only stream layout); pins the
    # oracle, the ensemble streams and the kernel-probability sums.
    GOLDEN = {
        ("klein", None): (
            "9a98bcdeccdd0b7ff657b4ca7163f0b21584fe71fff997d6b24f3148391837d2", ""),
        ("gibbs", None): (
            "4d2473e9d214caaa9ba5bde7a8e8bebee917c470d59a3799aaa1d1fff8b91a48",
            "detailed_balance max_abs=2.081668e-17 max_rel=5.914349e-15 pairs=200\n"),
        ("gibbs-klein", 1): (
            "ce6c78c6a4ced006dbdeddb9fbf6b785ae9c73a4b556b094b7b015e07709aa4e",
            "detailed_balance max_abs=2.081668e-17 max_rel=5.914349e-15 pairs=200\n"),
        ("gibbs-klein", 2): (
            "8a7b30b4465f578af1fb595969bceaa2469169c2174d5346727e16da89bcef9d",
            "detailed_balance max_abs=7.101820e-04 max_rel=6.395919e-02 pairs=200\n"),
        # recorded before the balance report was batched over pair rows; the
        # only entry whose block pass has a length-2 dot (m = n = 3)
        ("gibbs-klein", 3): (
            "0ad8cf77a7a2aef2b2d0c9752745cd2291883d9944367d9e725dcab77aa2f620",
            "detailed_balance max_abs=8.797576e-04 max_rel=6.175817e-02 pairs=200\n"),
    }

    @pytest.mark.parametrize("algo, m", sorted(GOLDEN, key=str))
    def test_diagnose_csv_and_balance_line(self, tmp_path, capsys, algo, m):
        basis = tmp_path / "b3.txt"
        basis.write_text("3\n1 0.4 0.4\n0 1.3 0.4\n0 0 1.6\n")
        out = str(tmp_path / "golden.csv")
        argv = ["diagnose", "--basis", str(basis), "--algo", algo, "--sigma", "0.7",
                "--center=0.3,-0.2,0.45", "--x0=2,-1,1", "--iters", "16",
                "--chains", "200", "--seed", "5", "-o", out]
        if m is not None:
            argv += ["--block-size", str(m)]
        assert run_cli(argv) == 0
        digest = hashlib.sha256(open(out, "rb").read()).hexdigest()
        assert (digest, capsys.readouterr().err) == self.GOLDEN[(algo, m)]


class TestBadInputs:
    @pytest.mark.parametrize("x0", ["nan,0.7", "1.5,2", "inf,0", "1,-inf", "1e30,0"])
    @pytest.mark.parametrize("command", ["sample", "diagnose"])
    def test_bad_start_state_rejected_without_output(self, skew2_file, tmp_path, capsys,
                                                     command, x0):
        out = str(tmp_path / "never.csv")
        code = run_cli(
            [command, "--basis", skew2_file, "--algo", "gibbs", "--sigma", "1.0",
             "--iters", "5", f"--x0={x0}", "--output", out]
        )
        assert code == 1
        assert not os.path.exists(out)
        assert "--x0 entries must be integers" in capsys.readouterr().err

    @pytest.mark.parametrize("vectors", [
        ("--center=0.5,,1", "--x0=1,,2"),
        ("--center=0.5,,1", "--x0=1,2"),
        ("--center=0.5,1", "--x0=1,2,"),
        ("--center=,0.5,1", "--x0=1,2"),
    ])
    @pytest.mark.parametrize("command", ["sample", "diagnose"])
    def test_empty_vector_field_rejected_without_output(self, skew2_file, tmp_path, capsys,
                                                        command, vectors):
        out = str(tmp_path / "never.csv")
        code = run_cli(
            [command, "--basis", skew2_file, "--algo", "gibbs", "--sigma", "1.0",
             "--iters", "5", *vectors, "--output", out]
        )
        assert code == 1
        assert not os.path.exists(out)
        assert "non-empty comma-separated entries" in capsys.readouterr().err

    def test_integral_float_start_state_accepted(self, skew2_file, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        base = ["sample", "--basis", skew2_file, "--algo", "gibbs", "--sigma", "1.0",
                "--iters", "5", "--seed", "2"]
        assert run_cli(base + ["--x0=3.0,-2", "-o", a]) == 0
        assert run_cli(base + ["--x0=3,-2", "-o", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    @pytest.mark.parametrize("algo", ["klein", "gibbs", "gibbs-klein"])
    def test_underflowing_sigma_rejected_without_output(self, skew2_file, tmp_path, capsys,
                                                        algo):
        # 2 alpha^2 underflows at sigma 1e-300: the 1-D tables would be NaN
        out = str(tmp_path / "never.csv")
        code = run_cli(["sample", "--basis", skew2_file, "--algo", algo, "--sigma", "1e-300",
                        "--iters", "2", "--block-size", "1", "--output", out])
        assert code == 1
        assert not os.path.exists(out)
        assert "is too small: 2 alpha^2 underflows" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sample", "diagnose", "mimo"])
    @pytest.mark.parametrize("flag, env, source", [
        ("-1", None, "--seed"),
        (None, "abc", "LATTICE_GIBBS_SEED"),
        (None, "-1", "LATTICE_GIBBS_SEED"),
        (None, "1.5", "LATTICE_GIBBS_SEED"),
    ])
    def test_bad_seed_rejected_without_output(self, skew2_file, tmp_path, capsys, monkeypatch,
                                              command, flag, env, source):
        out = str(tmp_path / "never.csv")
        if command == "mimo":
            argv = ["mimo", "--trials", "2", "--decoders", "zf"]
        else:
            argv = [command, "--basis", skew2_file, "--algo", "klein", "--sigma", "1.0",
                    "--iters", "2"]
        if flag is not None:
            argv += ["--seed", flag]
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        if env is not None:
            monkeypatch.setenv(cli.SEED_ENV_VAR, env)
        assert run_cli(argv + ["--output", out]) == 1
        assert not os.path.exists(out)
        shown = flag if flag is not None else env
        assert capsys.readouterr().err == (
            f"error: {source} must be a non-negative integer, got {shown!r}\n")

    @pytest.mark.parametrize("algo, sampler", [("klein", "klein_sample_many"),
                                               ("gibbs", "run_chain")])
    @pytest.mark.parametrize("message", [
        "Unable to allocate 146. TiB for an array with shape (10000000000001, 2) "
        "and data type int64", ""])
    def test_out_of_memory_rejected_without_output(self, skew2_file, tmp_path, capsys,
                                                   monkeypatch, algo, sampler, message):
        # a huge --iters fails allocating its state array; a real one is not
        # run here, since an overcommitting kernel may grant it and run for hours
        def no_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli if algo == "klein" else cli.mcmc, sampler, no_memory)
        out = str(tmp_path / "never.csv")
        code = run_cli(["sample", "--basis", skew2_file, "--algo", algo, "--sigma", "1",
                        "--iters", "10000000000000", "--output", out])
        assert code == 1
        assert not os.path.exists(out)
        assert capsys.readouterr().err == (
            f"error: out of memory: {message}\n" if message else "error: out of memory\n")

    @pytest.mark.parametrize("algo", ["klein", "gibbs", "gibbs-klein"])
    def test_window_past_cap_rejected_without_output(self, tmp_path, capsys, algo):
        # a Gram-Schmidt norm of 1e-6 at sigma 1.2: alpha 1.2e6, whose 1-D
        # window holds about 1.8e7 points, just past MAX_WINDOW_POINTS (2**24)
        basis = tmp_path / "thin.txt"
        basis.write_text("2\n1 0\n0 1e-6\n")
        out = str(tmp_path / "never.csv")
        code = run_cli(["sample", "--basis", str(basis), "--algo", algo, "--sigma", "1.2",
                        "--iters", "50", "--block-size", "1", "--seed", "1", "--output", out])
        assert code == 1
        assert not os.path.exists(out)
        assert "points, more than the 16777216 allowed" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", ["klein", "gibbs", "gibbs-klein"])
    def test_diagnose_underflowing_sigma_rejected_without_output(self, skew2_file, tmp_path,
                                                                 capsys, algo):
        # the oracle's weights would divide by 2 sigma^2, which underflows
        out = str(tmp_path / "never.csv")
        code = run_cli(["diagnose", "--basis", skew2_file, "--algo", algo, "--sigma", "1e-160",
                        "--center=0.3,-0.2", "--iters", "2", "--block-size", "1",
                        "--output", out])
        assert code == 1
        assert not os.path.exists(out)
        err = capsys.readouterr().err
        assert err == "error: sigma 1e-160 is too small: 2 sigma^2 underflows\n"

    @pytest.mark.parametrize("m", [1, 2])
    def test_diagnose_gibbs_klein_underflowing_alpha_rejected_without_output(
            self, tmp_path, capsys, m):
        # at sigma 1e-300 the oracle rejects sigma first (the test above); on
        # a basis scaled by 1e10 at sigma 1e-150 the oracle is a point mass,
        # and the chains' alpha 1e-150 / 1e10 underflows
        path = tmp_path / "big.txt"
        path.write_text("2\n1e10 5e9\n0 1e10\n")
        out = str(tmp_path / "never.csv")
        code = run_cli(["diagnose", "--basis", str(path), "--algo", "gibbs-klein",
                        "--block-size", str(m), "--sigma", "1e-150", "--iters", "2",
                        "--chains", "5", "--output", out])
        assert code == 1
        assert not os.path.exists(out)
        err = capsys.readouterr().err
        assert err.startswith("error: alpha ") and err.endswith(
            " is too small: 2 alpha^2 underflows\n")

    @pytest.mark.parametrize("algo", ["klein", "gibbs", "gibbs-klein"])
    def test_huge_center_rejected_without_output(self, tmp_path, capsys, algo):
        # at 1e19 the 1-D centers are past 2**53, where floats skip integers:
        # Klein wrote int64-min rows, Gibbs exited 0, Gibbs-Klein overflowed
        path = tmp_path / "b2.txt"
        path.write_text("2\n1 0.8\n0 0.6\n")
        out = str(tmp_path / "never.csv")
        code = run_cli(["sample", "--basis", str(path), "--algo", algo, "--sigma", "1.0",
                        "--center=1e19,0", "--iters", "2", "--block-size", "2",
                        "--output", out])
        assert code == 1
        assert not os.path.exists(out)
        assert "is too large: |center| must be below 2**53" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", ["klein", "gibbs", "gibbs-klein"])
    def test_diagnose_huge_center_rejected_without_output_or_warning(self, tmp_path, capsys,
                                                                     recwarn, algo):
        # the enumeration box bounds of a 1e19 center were cast to int64
        # unchecked, with a RuntimeWarning, before the 1-D center check
        path = tmp_path / "b2.txt"
        path.write_text("2\n1 0.8\n0 0.6\n")
        out = str(tmp_path / "never.csv")
        code = run_cli(["diagnose", "--basis", str(path), "--algo", algo, "--sigma", "1.0",
                        "--center=1e19,0", "--iters", "2", "--block-size", "2",
                        "--output", out])
        assert code == 1
        assert not os.path.exists(out)
        assert "enumeration box" in capsys.readouterr().err
        assert not recwarn.list

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_non_finite_basis_rejected_without_output(self, tmp_path, capsys, entry):
        path = tmp_path / "bad.txt"
        path.write_text(f"2\n1 {entry}\n0 1\n")
        out = str(tmp_path / "never.csv")
        code = run_cli(["sample", "--basis", str(path), "--algo", "gibbs", "--sigma", "1.0",
                        "--iters", "5", "--output", out])
        assert code == 1
        assert not os.path.exists(out)
        assert "basis entries must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag, text", [
        (["diagnose", "--algo", "gibbs", "--sigma", "1.0", "--iters", "4", "--checkpoints="],
         "--checkpoints", ""),
        (["diagnose", "--algo", "gibbs", "--sigma", "1.0", "--iters", "4",
          "--checkpoints", "1,2.5"], "--checkpoints", "1,2.5"),
        (["mimo", "--trials", "2", "--block-sizes", "1,,2"], "--block-sizes", "1,,2"),
        (["mimo", "--trials", "2", "--iterations", "1,x"], "--iterations", "1,x"),
    ])
    def test_bad_integer_list_rejected_without_output(self, skew2_file, tmp_path, capsys,
                                                      argv, flag, text):
        out = str(tmp_path / "never.csv")
        if argv[0] == "diagnose":
            argv = argv + ["--basis", skew2_file]
        assert run_cli(argv + ["--output", out]) == 1
        assert not os.path.exists(out)
        assert capsys.readouterr().err == (
            f"error: {flag} must be comma-separated integers, got {text!r}\n")

    @pytest.mark.parametrize("command", ["sample", "diagnose"])
    def test_zero_basis_rejected_without_output(self, tmp_path, capsys, command):
        # every r_ii is 0, as is the column scale it is measured against
        path = tmp_path / "zero.txt"
        path.write_text("1\n0\n")
        out = str(tmp_path / "never.csv")
        code = run_cli([command, "--basis", str(path), "--algo", "gibbs", "--sigma", "1.0",
                        "--iters", "5", "--output", out])
        assert code == 1
        assert not os.path.exists(out)
        assert capsys.readouterr().err == (
            "error: basis is singular or near-singular: "
            "min |r_ii| = 0.000e+00 vs column scale 0.000e+00\n")

    def test_zero_cholesky_pivot_rejected_without_output(self, tmp_path, capsys):
        # QR accepts this basis (r_22 = 1e-9), but in floating point
        # G[1][1] - G[0][1]^2 / G[0][0] is exactly 0 in either order
        path = tmp_path / "flat.txt"
        path.write_text("2\n1 1\n0 1e-9\n")
        out = str(tmp_path / "never.csv")
        code = run_cli(["sample", "--basis", str(path), "--algo", "gibbs-klein",
                        "--block-size", "2", "--sigma", "1.0", "--iters", "5", "--output", out])
        assert code == 1
        assert not os.path.exists(out)
        assert "singular" in capsys.readouterr().err


class TestDiagnoseCommand:
    def test_klein_large_sigma_converged_at_t1(self, id2_file, tmp_path):
        # sigma well above the smoothing threshold: one Klein pass is already
        # at the target. The empirical TV floor grows like sigma^2/sqrt(N), so
        # the check runs at the largest sigma measurable with 1e5 chains.
        out = str(tmp_path / "d.csv")
        assert run_cli(
            ["diagnose", "--basis", id2_file, "--algo", "klein", "--sigma", "2.0",
             "--iters", "1", "--chains", "100000", "--seed", "4", "--output", out]
        ) == 0
        header, rows = read_csv_rows(out)
        assert header == ["t", "tv_distance"]
        assert float(rows[0][1]) <= 0.02

    def test_t_column_strictly_increasing(self, skew2_file, tmp_path):
        out = str(tmp_path / "d2.csv")
        assert run_cli(
            ["diagnose", "--basis", skew2_file, "--algo", "gibbs", "--sigma", "1.0",
             "--iters", "64", "--chains", "500", "--seed", "1", "--output", out]
        ) == 0
        _, rows = read_csv_rows(out)
        ts = [int(r[0]) for r in rows]
        assert ts == sorted(set(ts))
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_convergence_final_below_first(self, skew2_file, tmp_path, capsys):
        out = str(tmp_path / "d3.csv")
        assert run_cli(
            ["diagnose", "--basis", skew2_file, "--algo", "gibbs", "--sigma", "1.0",
             "--iters", "1000", "--chains", "3000", "--x0", "25,25",
             "--seed", "2", "--output", out]
        ) == 0
        _, rows = read_csv_rows(out)
        assert float(rows[-1][1]) <= float(rows[0][1])
        err = capsys.readouterr().err
        assert "detailed_balance" in err

    def test_gibbs_klein_balance_report(self, skew2_file, tmp_path, capsys):
        out = str(tmp_path / "d4.csv")
        assert run_cli(
            ["diagnose", "--basis", skew2_file, "--algo", "gibbs-klein",
             "--block-size", "2", "--sigma", "1.5", "--iters", "4",
             "--chains", "200", "--seed", "3", "--output", out]
        ) == 0
        err = capsys.readouterr().err
        assert "detailed_balance" in err

    def test_dimension_guard(self, tmp_path, capsys):
        path = tmp_path / "b7.txt"
        n = 7
        lines = [str(n)] + [" ".join("1" if i == j else "0" for j in range(n)) for i in range(n)]
        path.write_text("\n".join(lines) + "\n")
        code = run_cli(
            ["diagnose", "--basis", str(path), "--algo", "gibbs", "--sigma", "1.0",
             "--iters", "4", "--output", str(tmp_path / "x.csv")]
        )
        assert code != 0
        assert not os.path.exists(str(tmp_path / "x.csv"))

    def test_oversized_box_rejected_without_output(self, tmp_path, capsys):
        # 6-D identity at sigma 1: 25^6 box points, tens of GB if allocated
        path = tmp_path / "id6.txt"
        n = 6
        lines = [str(n)] + [" ".join("1" if i == j else "0" for j in range(n)) for i in range(n)]
        path.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "x.csv")
        code = run_cli(["diagnose", "--basis", str(path), "--algo", "gibbs", "--sigma", "1.0",
                        "--iters", "4", "--output", out])
        assert code == 1
        assert not os.path.exists(out)
        assert "enumeration box has 244140625 points" in capsys.readouterr().err

    def test_burn_in_is_refused(self, skew2_file, tmp_path, capsys):
        # diagnose records fixed checkpoints: --burn-in is a sample flag only
        out = str(tmp_path / "x.csv")
        with pytest.raises(SystemExit) as exc:
            run_cli(["diagnose", "--basis", skew2_file, "--algo", "gibbs", "--sigma", "1.0",
                     "--iters", "4", "--burn-in", "5", "--output", out])
        assert exc.value.code != 0
        assert not os.path.exists(out)
        assert "--burn-in" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--iters", "0"], ["--iters", "4", "--checkpoints=0"]])
    def test_bad_checkpoints_rejected_before_enumeration(self, skew2_file, tmp_path, capsys,
                                                         monkeypatch, flags):
        def never(*args, **kwargs):
            raise AssertionError("enumerate_support called before the checkpoint check")

        monkeypatch.setattr(cli.oracle, "enumerate_support", never)
        out = str(tmp_path / "x.csv")
        code = run_cli(["diagnose", "--basis", skew2_file, "--algo", "gibbs", "--sigma", "1.0",
                        *flags, "--output", out])
        assert code == 1
        assert not os.path.exists(out)
        assert "checkpoints must lie in [1, iters]" in capsys.readouterr().err


class TestMimoCommand:
    def test_zf_ml_ordering(self, tmp_path):
        out = str(tmp_path / "m.csv")
        assert run_cli(
            ["mimo", "--ntx", "4", "--ebn0-db", "15", "--decoders", "zf,ml",
             "--trials", "1000", "--seed", "1", "--output", out]
        ) == 0
        header, rows = read_csv_rows(out)
        assert header == ["decoder", "block_size", "iterations", "trials",
                          "bit_errors", "bits", "ber"]
        by_dec = {r[0]: r for r in rows}
        assert int(by_dec["ml"][4]) <= int(by_dec["zf"][4])

    def test_zero_trials_header_only(self, tmp_path):
        out = str(tmp_path / "m0.csv")
        assert run_cli(["mimo", "--trials", "0", "--output", out]) == 0
        header, rows = read_csv_rows(out)
        assert rows == []

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
        args = ["mimo", "--trials", "25", "--iterations", "1,3", "--block-sizes", "2",
                "--decoders", "zf,gibbs-klein", "--seed", "9"]
        assert run_cli(args + ["--output", out1]) == 0
        assert run_cli(args + ["--output", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_default_table_csv_bytes(self, tmp_path):
        # sha256 of `mimo --trials 5` at the default seed 0, recorded when the
        # sampler decoders' steps moved onto the uniforms-only stream layout
        out = tmp_path / "mimo_ber.csv"
        assert run_cli(["mimo", "--trials", "5", "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "5be63b35ed3a087255ee914109b52cd2a13ef2121fb07ba2372833403cccc856"
        )

    @pytest.mark.parametrize("ebn0", ["nan", "inf", "-inf"])
    def test_non_finite_ebn0_rejected_without_output(self, tmp_path, capsys, ebn0):
        out = str(tmp_path / "never.csv")
        assert run_cli(["mimo", "--trials", "2", f"--ebn0-db={ebn0}", "--output", out]) == 1
        assert not os.path.exists(out)
        assert "ebn0_db must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--decoders", "zf,klein,klein"], "repeated decoders: ['zf', 'klein', 'klein']"),
        (["--block-sizes", "2,2"], "repeated block sizes: [2, 2]"),
        (["--ebn0-db=-4000"], "ebn0_db -4000.0 is too low: the noise variance overflows"),
        (["--ebn0-db=-3070"], "ebn0_db -3070.0 is too low: its noise variance 1.25e+307 is "
                              "above 1e+300, where squared residuals may overflow"),
    ])
    def test_bad_config_rejected_without_output(self, tmp_path, capsys, flags, message):
        out = str(tmp_path / "never.csv")
        assert run_cli(["mimo", "--trials", "2", *flags, "--output", out]) == 1
        assert not os.path.exists(out)
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_two_antennas_without_gibbs_klein_ignore_default_block_sizes(self, tmp_path):
        out = str(tmp_path / "m2.csv")
        assert run_cli(["mimo", "--ntx", "2", "--trials", "3", "--decoders", "zf,ml",
                        "--output", out]) == 0
        _, rows = read_csv_rows(out)
        assert [r[0] for r in rows] == ["zf", "ml"]

    def test_bad_decoder_rejected(self, capsys):
        assert run_cli(["mimo", "--trials", "1", "--decoders", "sphere"]) != 0
        assert "error" in capsys.readouterr().err


def test_stdout_output(id2_file, capsys):
    assert run_cli(
        ["sample", "--basis", id2_file, "--algo", "klein", "--sigma", "1.0",
         "--iters", "3", "--seed", "1"]
    ) == 0
    out = capsys.readouterr().out
    assert out.startswith("chain,t,x_1,x_2\n")
    assert len(out.strip().split("\n")) == 4


def test_one_parser_serves_every_call_without_leaking_flags(skew2_file, tmp_path, capsys,
                                                             monkeypatch):
    # the last `sample` sets none of the flags the first one set, so a value
    # left over from an earlier call would change its bytes
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    runs = [
        ["sample", "--basis", skew2_file, "--algo", "gibbs-klein", "--block-size", "2",
         "--sigma", "0.8", "--center=0.3,-0.4", "--x0=3,-2", "--iters", "50",
         "--chains", "2", "--burn-in", "5", "--seed", "4"],
        ["diagnose", "--basis", skew2_file, "--algo", "gibbs", "--sigma", "0.8",
         "--iters", "8", "--chains", "50", "--checkpoints", "2,8", "--seed", "4"],
        ["sample", "--basis", skew2_file, "--algo", "klein", "--sigma", "1.3", "--iters", "40"],
    ]

    def outputs(fresh_parser):
        got = []
        for i, argv in enumerate(runs):
            if fresh_parser:
                cli._parser.cache_clear()
            out = tmp_path / f"{fresh_parser}-{i}.csv"
            assert run_cli([*argv, "-o", str(out)]) == 0
            got.append((out.read_bytes(), capsys.readouterr().err))
        return got

    cli._parser.cache_clear()
    in_sequence = outputs(fresh_parser=False)
    assert cli._parser.cache_info().misses == 1
    assert in_sequence == outputs(fresh_parser=True)


int64_tables = hnp.arrays(
    np.int64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=12).filter(
        lambda shape: shape[1] >= 1),
    elements=st.one_of(
        st.integers(-(2**63), 2**63 - 1),
        st.sampled_from([0, 1, -1, 9, 10, -10, 2**63 - 1, -(2**63)]),
    ),
)


@given(int64_tables)
@settings(max_examples=300, deadline=None)
def test_format_int_rows_is_the_python_join(table):
    expected = "".join(",".join(map(str, row)) + "\n" for row in table.tolist())
    assert cli.format_int_rows(table) == expected


@pytest.mark.parametrize("rows", [0, 1, 7])
def test_format_int_rows_edges(rows):
    # one column, and a table of thousands of rows
    extremes = np.array([0, 1, -1, np.iinfo(np.int64).min, np.iinfo(np.int64).max])
    one_col = np.resize(extremes, rows)[:, None]
    assert cli.format_int_rows(one_col) == "".join(f"{v}\n" for v in one_col[:, 0].tolist())
    many = np.resize(extremes, (rows * 9000, 4))
    expected = "".join(",".join(map(str, row)) + "\n" for row in many.tolist())
    assert cli.format_int_rows(many) == expected
