import os

import numpy as np
import pytest

from lattice_gibbs import cli


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

    def test_gibbs_klein_m1_statistically_matches_gibbs(self, skew2_file, tmp_path):
        # kernel equality at m=1 seen end-to-end: pooled post-burn-in draws
        # from both algorithms, 1e5 each. Pooled MCMC draws carry a short
        # autocorrelation, so the two-sample floor is ~0.013; 0.015 bounds it.
        out_a = str(tmp_path / "gk.csv")
        out_b = str(tmp_path / "gi.csv")
        common = ["--basis", skew2_file, "--sigma", "0.8", "--iters", "11000",
                  "--chains", "10", "--burn-in", "1001", "--seed", "42"]
        assert run_cli(["sample", "--algo", "gibbs-klein", "--block-size", "1",
                        *common, "--output", out_a]) == 0
        assert run_cli(["sample", "--algo", "gibbs", *common, "--output", out_b]) == 0

        def pooled_freqs(path):
            _, rows = read_csv_rows(path)
            counts = {}
            for row in rows:
                key = tuple(row[2:])
                counts[key] = counts.get(key, 0) + 1
            total = sum(counts.values())
            return {k: v / total for k, v in counts.items()}, total

        fa, na = pooled_freqs(out_a)
        fb, nb = pooled_freqs(out_b)
        assert na == nb == 100_000
        tv = 0.5 * sum(abs(fa.get(k, 0) - fb.get(k, 0)) for k in set(fa) | set(fb))
        assert tv <= 0.015


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
