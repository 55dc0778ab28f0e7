"""Golden output of the script under scripts/, run as a subprocess.

The digests were recorded before chains became int64 arrays, so they pin the
scripts' random streams and CSV bytes draw for draw.
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
        "70108de25c7280df60a6429fa963c2dd03f9316eac6a0b29f25fabed8a63a513",
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
