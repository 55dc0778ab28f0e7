"""Discrete Gaussian sampling over lattices.

Klein's nearest-plane sampler, coordinate-wise Gibbs and blocked Gibbs-Klein
MCMC kernels, an exact enumeration oracle for validation, and an uncoded MIMO
decoding benchmark, all behind a deterministic seeded CLI.
"""

from .dgauss1d import Gaussian1DParams
from .klein import GaussianParams, KleinSampler, klein_pmf, klein_sample, klein_sigma_default
from .linalg import LatticeBasis, load_basis
from .mcmc import GibbsKleinConfig, run_chain
from .mimo import BerTable, MimoConfig, ber_experiment
from .oracle import BalanceReport, DiscreteDistribution, enumerate_support, tv_distance

__all__ = [
    "BalanceReport",
    "BerTable",
    "DiscreteDistribution",
    "Gaussian1DParams",
    "GaussianParams",
    "GibbsKleinConfig",
    "KleinSampler",
    "LatticeBasis",
    "MimoConfig",
    "ber_experiment",
    "enumerate_support",
    "klein_pmf",
    "klein_sample",
    "klein_sigma_default",
    "load_basis",
    "run_chain",
    "tv_distance",
]

__version__ = "0.1.0"
