"""The benchmark's probes name functions that exist in the package.

`perfbench/parts.py` wraps program functions by module and name; a renamed
or deleted one would otherwise surface only in a traced benchmark run.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import parts  # noqa: E402

PROBES = parts.probes()


@pytest.mark.parametrize("probe", PROBES, ids=[p.name for p in PROBES])
def test_probe_names_a_package_function(probe):
    module = importlib.import_module(f"lattice_gibbs.{probe.module}")
    assert inspect.isfunction(getattr(module, probe.attr, None)), probe.name


def test_gibbs_ensemble_work_arguments_are_positional():
    # the gibbs_ensemble probe counts chain steps from positions 3 and 4
    from lattice_gibbs import mcmc

    params = list(inspect.signature(mcmc.gibbs_ensemble).parameters)
    assert params[3:5] == ["n_chains", "steps"]


def test_enumerate_support_work_counts_enumerated_points():
    # the probe reports box points as the number of rows in the returned law
    import numpy as np

    from lattice_gibbs import oracle
    from lattice_gibbs.klein import GaussianParams
    from lattice_gibbs.linalg import LatticeBasis

    (probe,) = [p for p in PROBES if p.name == "oracle.enumerate_support"]
    args = (LatticeBasis.from_matrix([[1.0, 0.5], [0.0, 1.0]]),
            GaussianParams(0.8, np.array([0.2, -0.1])), 1e-6)
    result = oracle.enumerate_support(*args)
    # the box is a product of integer ranges, one per coordinate
    box = np.prod(result.support.max(axis=0) - result.support.min(axis=0) + 1)
    assert probe.work(args, {}, result) == len(result.support) == box
