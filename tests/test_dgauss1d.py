import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_gibbs import dgauss1d as dg
from lattice_gibbs.dgauss1d import Gaussian1DParams

alphas = st.floats(min_value=0.05, max_value=50.0, allow_nan=False)
centers = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def brute_force_pmf(alpha, center, k, width=60):
    """Independent oracle: direct summation over a wide window."""
    lo = math.floor(center) - width
    ks = np.arange(lo, math.ceil(center) + width + 1)
    w = np.exp(-((ks - center) ** 2) / (2 * alpha * alpha))
    return float(w[int(k) - lo] / w.sum())


class TestSupportBounds:
    def test_contains_standard_interval(self):
        ks, _ = dg.pmf_table(Gaussian1DParams(1.0, 0.0))
        # w = sqrt(2 ln(4e12)) + 1 ~ 8.6, so [-8, 8] must be covered
        assert ks[0] <= -8 and ks[-1] >= 8
        w = dg.truncation_halfwidth(1.0, 1e-12)
        assert 8.0 < w < 9.5

    @given(alphas, centers, st.integers(min_value=-100, max_value=100))
    @settings(max_examples=50, deadline=None)
    def test_translation_equivariance(self, alpha, c, k):
        base, _ = dg.pmf_table(Gaussian1DParams(alpha, c))
        shifted, _ = dg.pmf_table(Gaussian1DParams(alpha, c + k))
        assert shifted[0] == base[0] + k and shifted[-1] == base[-1] + k

    def test_smaller_eps_gives_superset(self):
        assert dg.truncation_halfwidth(2.0, 1e-12) >= dg.truncation_halfwidth(2.0, 1e-6)


class TestPmf:
    def test_standard_value(self):
        # normalizer sum exp(-k^2/2) over |k| <= 40 ~ 2.5066283
        got = dg.pmf(Gaussian1DParams(1.0, 0.0), 0)
        assert got == pytest.approx(brute_force_pmf(1.0, 0.0, 0), abs=1e-12)
        assert got == pytest.approx(0.398942, abs=1e-6)

    def test_symmetry_at_integer_center(self):
        p = Gaussian1DParams(1.0, 0.0)
        assert dg.pmf(p, 1) == pytest.approx(dg.pmf(p, -1), abs=1e-15)

    def test_outside_support_is_zero(self):
        assert dg.pmf(Gaussian1DParams(0.3, 0.0), 50) == 0.0

    @given(alphas, centers)
    @settings(max_examples=100, deadline=None)
    def test_normalization(self, alpha, c):
        _, probs = dg.pmf_table(Gaussian1DParams(alpha, c))
        assert abs(probs.sum() - 1.0) <= 1e-12

    @given(alphas, centers, st.integers(min_value=-5, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_shift_equivariance(self, alpha, c, k):
        p0 = dg.pmf(Gaussian1DParams(alpha, c), k)
        p1 = dg.pmf(Gaussian1DParams(alpha, c + 1.0), k + 1)
        assert p1 == pytest.approx(p0, abs=1e-12)

    def test_tiny_alpha_no_underflow(self):
        # log-domain max subtraction must keep the peak finite
        p = Gaussian1DParams(0.01, 7.3)
        ks, probs = dg.pmf_table(p)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert probs[np.argmax(probs)] > 0.99
        assert ks[np.argmax(probs)] == 7

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Gaussian1DParams(0.0, 0.0)
        with pytest.raises(ValueError):
            Gaussian1DParams(1.0, math.inf)


class TestSample:
    def test_concentration_at_nearest_integer(self):
        rng = np.random.default_rng(0)
        p = Gaussian1DParams(0.05, 3.0)
        assert all(dg.sample(p, rng) == 3 for _ in range(1000))

    def test_deterministic_given_seed(self):
        p = Gaussian1DParams(2.0, 0.5)
        a = [dg.sample(p, np.random.default_rng(42)) for _ in range(5)]
        b = [dg.sample(p, np.random.default_rng(42)) for _ in range(5)]
        assert a == b

    def test_empirical_tv_against_pmf(self):
        # 1e5 draws; TV floor ~ 1/sqrt(N) x sum sqrt(p) ~ 0.003 here
        p = Gaussian1DParams(2.0, 0.5)
        rng = np.random.default_rng(1)
        draws = np.array([dg.sample(p, rng) for _ in range(100_000)])
        ks, probs = dg.pmf_table(p)
        emp = np.array([(draws == k).mean() for k in ks])
        assert 0.5 * np.abs(emp - probs).sum() <= 0.005

    def test_sample_rows_matches_pmf(self):
        # the vectorized batch sampler feeds the ensembles; same contract.
        # The Monte Carlo floor of TV grows like sqrt(alpha/N), hence the
        # looser tolerance for the wide table.
        rng = np.random.default_rng(3)
        for alpha, c, tol in [(0.7, 0.2, 0.01), (1.5, -3.3, 0.01), (5.0, 0.9, 0.01), (25.0, 4.2, 0.02)]:
            draws = dg.sample_rows(alpha, np.full(100_000, c), rng)
            ks, probs = dg.pmf_table(Gaussian1DParams(alpha, c))
            emp = np.array([(draws == k).mean() for k in ks])
            tv = 0.5 * np.abs(emp - probs).sum() + 0.5 * (1 - emp.sum())
            assert tv <= tol


BAD_ROWS = [
    (0.0, [0.3], "alpha must be positive and finite"),
    (-1.0, [0.3], "alpha must be positive and finite"),
    (math.nan, [0.3], "alpha must be positive and finite"),
    (math.inf, [0.3], "alpha must be positive and finite"),
    (1.0, [math.nan], "center must be finite"),
    (1.0, [0.2, math.inf], "center must be finite"),
    (1.0, [-math.inf, 0.0], "center must be finite"),
]


@pytest.mark.parametrize("alpha, centers, message", BAD_ROWS)
def test_sample_rows_rejects_bad_inputs(alpha, centers, message):
    with pytest.raises(ValueError, match=message):
        dg.sample_rows(alpha, np.array(centers), np.random.default_rng(0))


@pytest.mark.parametrize("alpha, centers, message", BAD_ROWS)
def test_pmf_rows_rejects_bad_inputs(alpha, centers, message):
    with pytest.raises(ValueError, match=message):
        dg.pmf_rows(alpha, np.array(centers), np.zeros(len(centers)))


def test_pmf_rows_matches_scalar_pmf():
    alpha = 1.3
    centers = np.array([0.0, 0.45, -2.2, 7.9])
    values = np.array([0, 1, -3, 8])
    batch = dg.pmf_rows(alpha, centers, values)
    for i in range(4):
        scalar = dg.pmf(Gaussian1DParams(alpha, centers[i]), int(values[i]))
        assert batch[i] == pytest.approx(scalar, abs=1e-12)


def reduced_peak_pmf_rows(alpha, centers, values):
    """The straightforward evaluation: full window table, peak found by a max."""
    w = dg.truncation_halfwidth(alpha, dg.TAIL_EPS)
    half = int(math.ceil(w))
    ks = np.round(centers)[:, None] + np.arange(-half, half + 1)[None, :]
    dev = ks - centers[:, None]
    logw = -(dev * dev) / (2.0 * alpha * alpha)
    m = logw.max(axis=1)
    z = np.exp(logw - m[:, None]).sum(axis=1)
    dv = values - centers
    pv = np.exp(-(dv * dv) / (2.0 * alpha * alpha) - m) / z
    return np.where(np.abs(dv) <= w + 0.5, pv, 0.0)


def test_pmf_rows_bitwise_equals_reduced_peak_evaluation():
    # the in-place normaliser and the offset-0 peak change no output bit,
    # including half-integer centers where two window points tie for the peak
    centers = np.concatenate([np.linspace(-7.5, 7.5, 61), [0.5, -0.5, 2.5, 1e-17, 1e6 + 0.3]])
    for alpha in (0.05, 0.3, 1.0, 2.7, 9.0, 40.0):
        for shift in range(-int(4 * alpha) - 2, int(4 * alpha) + 3):
            values = np.round(centers) + shift
            got = dg.pmf_rows(alpha, centers, values)
            assert np.array_equal(got, reduced_peak_pmf_rows(alpha, centers, values)), alpha
