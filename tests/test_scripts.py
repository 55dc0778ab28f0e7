"""Golden output of the script under scripts/, run as a subprocess.

The digest was recorded when the chain steps moved onto the uniforms-only
stream layout (`mcmc._step_draws`); it pins the script's random streams and
CSV bytes draw for draw.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = {
    "run_convergence.py": (
        ["--chains", "50", "--steps", "8"],
        "7b71227d376d9ffa72587b16152d31dcbee9a246b34fa89ba713cf8a9e8e0f1c",
    ),
}


@pytest.mark.parametrize("script", sorted(GOLDEN))
def test_script_csv_bytes(script, tmp_path):
    args, digest = GOLDEN[script]
    out = tmp_path / "out.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        # the suite's warning policy (pyproject's error::RuntimeWarning) does
        # not reach a subprocess, so pass it on
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / script),
         *args, "--output", str(out)],
        cwd=tmp_path, env=env, check=True, capture_output=True, timeout=120,
    )
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("args, message", [
    (["--chains", "0"], "--chains must be >= 1"),
    (["--steps", "0"], "--steps must be >= 1"),
    (["--sigma-factor", "-1"], "--sigma-factor must be positive and finite"),
    (["--sigma-factor", "nan"], "--sigma-factor must be positive and finite"),
])
def test_run_convergence_rejects_bad_sizes(args, message, tmp_path):
    out = tmp_path / "out.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_convergence.py"), *args,
         "--output", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stderr.splitlines()[-1] == f"run_convergence.py: error: {message}"
    assert "Traceback" not in done.stderr and done.stdout == ""
    assert not out.exists()
