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
