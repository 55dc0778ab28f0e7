import math

import numpy as np
import pytest

from lattice_gibbs.linalg import LatticeBasis


def make_random_basis(rng: np.random.Generator, n: int = 3) -> LatticeBasis:
    """Random full-rank basis with moderate conditioning.

    Rotation x diagonal x unit upper-triangular shear keeps enumeration boxes
    at desk scale while still exercising genuinely correlated columns.
    """
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    diag = rng.uniform(0.85, 1.25, n)
    shear = np.eye(n)
    shear[np.triu_indices(n, 1)] = rng.uniform(-0.3, 0.3, n * (n - 1) // 2)
    return LatticeBasis.from_matrix(q @ np.diag(diag) @ shear)


def per_pair(kernel):
    """The batched form kernel_probs(from_rows, to_rows) that
    `oracle.detailed_balance_residual` takes, of a one-pair kernel(a, b) on
    tuples of ints."""

    def kernel_probs(from_rows, to_rows):
        rows = zip(np.asarray(from_rows).tolist(), np.asarray(to_rows).tolist())
        return np.array([kernel(tuple(a), tuple(b)) for a, b in rows], dtype=float)

    return kernel_probs


def ess(series) -> float:
    """Effective sample size of a chain's scalar series, by Geyer's initial
    monotone sequence estimator of the autocorrelation time."""
    x = np.asarray(series, dtype=float)
    n = x.size
    x = x - x.mean()
    spec = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(spec * np.conj(spec))[:n] / n
    total, prev = 0.0, math.inf
    for k in range(n // 2):
        pair = acov[2 * k] + acov[2 * k + 1]
        if pair <= 0.0:
            break
        prev = min(prev, pair)
        total += prev
    return n / max(2.0 * total / acov[0] - 1.0, 1.0 / n)


# bit generators other than the default PCG64
OTHER_BIT_GENERATORS = [np.random.Philox, np.random.MT19937, np.random.SFC64]


def stream_state(rng: np.random.Generator):
    """rng's whole bit-generator state as nested plain values, comparable by
    == also where it holds arrays (Philox, MT19937)."""

    def plain(v):
        if isinstance(v, dict):
            return {key: plain(w) for key, w in v.items()}
        return v.tolist() if isinstance(v, np.ndarray) else v

    return plain(rng.bit_generator.state)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def basis_2d():
    """The workhorse 2-D test basis: columns (1,0) and (0.5,1)."""
    return LatticeBasis.from_matrix([[1.0, 0.5], [0.0, 1.0]])
