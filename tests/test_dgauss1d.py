import math
import tracemalloc
import warnings
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_gibbs import dgauss1d as dg
from lattice_gibbs.klein import GaussianParams, GibbsKleinConfig, klein_pmf, klein_sample_many
from lattice_gibbs.linalg import LatticeBasis

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
        ks, _ = dg.pmf_table(1.0, 0.0)
        # w = sqrt(2 ln(4e12)) + 1 ~ 8.6, so [-8, 8] must be covered
        assert ks[0] <= -8 and ks[-1] >= 8
        w = dg.truncation_halfwidth(1.0, 1e-12)
        assert 8.0 < w < 9.5

    @given(alphas, centers, st.integers(min_value=-100, max_value=100))
    @settings(max_examples=50, deadline=None)
    def test_translation_equivariance(self, alpha, c, k):
        base, _ = dg.pmf_table(alpha, c)
        shifted, _ = dg.pmf_table(alpha, c + k)
        assert shifted[0] == base[0] + k and shifted[-1] == base[-1] + k

    def test_smaller_eps_gives_superset(self):
        assert dg.truncation_halfwidth(2.0, 1e-12) >= dg.truncation_halfwidth(2.0, 1e-6)


class TestWindowMid:
    def test_nearest_integer_ties_up(self):
        cases = [(0.5, 1), (1.5, 2), (2.5, 3), (-0.5, 0), (-1.5, -1), (0.3, 0), (-0.7, -1),
                 (0.49999999999999994, 0), (-0.5000000000000001, -1), (-1e-300, 0),
                 (2.0**52 + 1, 2**52 + 1), (-(2.0**53 - 1), -(2**53 - 1)), (2.0**52 - 0.5, 2**52)]
        for c, want in cases:
            assert dg.window_mid(c) == want, c
        got = dg.window_mid(np.array([c for c, _ in cases]))
        assert got.tolist() == [want for _, want in cases]

    @given(st.floats(-(2.0**53) + 1, 2.0**53 - 1))
    @settings(max_examples=200, deadline=None)
    def test_against_exact_rounding(self, c):
        want = math.floor(Fraction(c) + Fraction(1, 2))
        assert dg.window_mid(c) == want
        assert dg.window_mid(np.array([c])).tolist() == [want]


class TestPmf:
    def test_standard_value(self):
        # normalizer sum exp(-k^2/2) over |k| <= 40 ~ 2.5066283
        got = dg.pmf(1.0, 0.0, 0)
        assert got == pytest.approx(brute_force_pmf(1.0, 0.0, 0), abs=1e-12)
        assert got == pytest.approx(0.398942, abs=1e-6)

    def test_symmetry_at_integer_center(self):
        assert dg.pmf(1.0, 0.0, 1) == pytest.approx(dg.pmf(1.0, 0.0, -1), abs=1e-15)

    def test_outside_support_is_zero(self):
        assert dg.pmf(0.3, 0.0, 50) == 0.0

    @given(alphas, centers)
    @settings(max_examples=100, deadline=None)
    def test_normalization(self, alpha, c):
        _, probs = dg.pmf_table(alpha, c)
        assert abs(probs.sum() - 1.0) <= 1e-12

    @given(alphas, centers, st.integers(min_value=-5, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_shift_equivariance(self, alpha, c, k):
        p0 = dg.pmf(alpha, c, k)
        p1 = dg.pmf(alpha, c + 1.0, k + 1)
        assert p1 == pytest.approx(p0, abs=1e-12)

    def test_tiny_alpha_no_underflow(self):
        # log-domain max subtraction must keep the peak finite
        ks, probs = dg.pmf_table(0.01, 7.3)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert probs[np.argmax(probs)] > 0.99
        assert ks[np.argmax(probs)] == 7

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            dg.pmf_table(0.0, 0.0)
        with pytest.raises(ValueError):
            dg.pmf(1.0, math.inf, 0)
        with pytest.raises(ValueError, match="is too large"):
            dg.pmf_table(1.0, -(2.0**53))
        # the table and the pmf reject every bad scalar with `sample`'s message
        for alpha, center, message in BAD_SCALARS:
            for call in (lambda: dg.pmf_table(alpha, center), lambda: dg.pmf(alpha, center, 0)):
                with pytest.raises(ValueError, match=message):
                    call()


class FixedUniform:
    """A generator stub: random() returns u, and random(n) n copies of u (or u
    itself, an array of n uniforms)."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.broadcast_to(self.u, size).astype(float)


BAD_SCALARS = [
    (0.0, 0.3, "alpha must be positive and finite"),
    (-1.0, 0.3, "alpha must be positive and finite"),
    (math.nan, 0.3, "alpha must be positive and finite"),
    (math.inf, 0.3, "alpha must be positive and finite"),
    (1e-155, 0.3, "alpha 1e-155 is too small"),
    (1.0, math.nan, "center must be finite"),
    (1.0, math.inf, "center must be finite"),
    (1.0, -math.inf, "center must be finite"),
    (1.0, 2.0**53, "center 9007199254740992.0 is too large"),
    (1.0, -1e19, "center -1e[+]19 is too large"),
]


class TestSample:
    def test_concentration_at_nearest_integer(self):
        rng = np.random.default_rng(0)
        assert all(dg.sample(0.05, 3.0, rng) == 3 for _ in range(1000))

    def test_deterministic_given_seed(self):
        a = [dg.sample(2.0, 0.5, np.random.default_rng(42)) for _ in range(5)]
        b = [dg.sample(2.0, 0.5, np.random.default_rng(42)) for _ in range(5)]
        assert a == b

    def test_empirical_tv_against_pmf(self):
        # 1e5 draws; TV floor ~ 1/sqrt(N) x sum sqrt(p) ~ 0.003 here
        rng = np.random.default_rng(1)
        draws = np.array([dg.sample(2.0, 0.5, rng) for _ in range(100_000)])
        ks, probs = dg.pmf_table(2.0, 0.5)
        emp = np.array([(draws == k).mean() for k in ks])
        assert 0.5 * np.abs(emp - probs).sum() <= 0.005

    def test_equals_table_inversion_with_the_same_uniform(self):
        # `sample`, the walk `invert` and the row form `sample_from_uniforms`
        # draw the same point from the same uniform, and on loop windows it
        # is the first point whose running weight, summed here in math.exp's
        # floats, reaches u times the total. Alphas from 0.02 to 12 put
        # windows of 3 to 200 points on both sides of LOOP_MAX_POINTS; every
        # uniform is a cumulative boundary u = cum[j] / total of those sums,
        # or one ulp either side of it, where two inversion rules that round
        # apart would draw apart
        rng = np.random.default_rng(20260418)
        alphas, centers, uniforms, rule, widths = [], [], [], [], []
        for alpha, c in zip(np.exp(rng.uniform(math.log(0.02), math.log(12.0), 2_000)).tolist(),
                            rng.uniform(-50.0, 50.0, 2_000).tolist()):
            half, mid = int(dg.window_half(alpha)), dg.window_mid(c)
            den, top = 2.0 * alpha * alpha, mid - c
            cum = np.cumsum([math.exp(-((k - c) * (k - c)) / den + (top * top) / den)
                             for k in range(mid - half, mid + half + 1)]).tolist()
            widths.append(len(cum))
            for j in rng.integers(0, len(cum), 4).tolist():
                edge = cum[j] / cum[-1]
                for u in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
                    if u < 1.0:  # rng.random() is below 1
                        alphas.append(alpha)
                        centers.append(c)
                        uniforms.append(float(u))
                        loop = 2 * half < dg.LOOP_MAX_POINTS
                        rule.append(mid - half + bisect_left(cum, u * cum[-1]) if loop else None)
        drawn = [dg.sample(a, c, FixedUniform(u)) for a, c, u in zip(alphas, centers, uniforms)]
        walked = [dg.invert(a, int(dg.window_half(a)), c, u)
                  for a, c, u in zip(alphas, centers, uniforms)]
        assert drawn == walked
        assert dg.sample_from_uniforms(alphas, centers, uniforms).tolist() == drawn
        assert all(r is None or r == d for r, d in zip(rule, drawn))
        widths = np.array(widths)
        assert (widths <= dg.LOOP_MAX_POINTS).mean() > 0.5
        assert (widths > dg.LOOP_MAX_POINTS).sum() > 200

    @pytest.mark.parametrize("alpha, center", [
        (3.3217965297954906, 7.138101868638525),  # 55 points: the loop
        (14.44, 0.28),  # 225 points: the row kernel
    ])
    def test_uniform_above_last_cdf_entry_draws_last_point(self, alpha, center):
        # the largest uniform draws the window's last point on both paths
        u = 1.0 - 2.0**-53
        ks, probs = dg.pmf_table(alpha, center)
        assert dg.sample(alpha, center, FixedUniform(u)) == ks[-1]

    @pytest.mark.parametrize("alpha, center, message", BAD_SCALARS)
    def test_rejects_bad_inputs(self, alpha, center, message):
        with pytest.raises(ValueError, match=message):
            dg.sample(alpha, center, np.random.default_rng(0))

    @pytest.mark.parametrize("alpha, center, message", BAD_SCALARS + [
        (2e6, 0.3, "points, more than the 16777216 allowed"),
    ])
    def test_row_form_rejects_the_first_bad_row_as_sample_does(self, alpha, center, message):
        # good rows on both paths before the bad one, a differently bad one after
        alphas = np.array([0.7, 9.0, alpha, 1e-300])
        centers = np.array([0.2, -3.5, center, 0.1])
        with pytest.raises(ValueError) as scalar:
            dg.sample(alpha, center, FixedUniform(0.5))
        with pytest.raises(ValueError, match=message) as rows:
            dg.sample_from_uniforms(alphas, centers, np.full(4, 0.5))
        assert str(rows.value) == str(scalar.value)

    @pytest.mark.parametrize("alpha, message", [
        (alpha, message) for alpha, center, message in BAD_SCALARS if center == 0.3
    ] + [(2e6, "points, more than the 16777216 allowed")])
    def test_checked_halves_reject_the_first_bad_alpha_as_sample_does(self, alpha, message):
        with pytest.raises(ValueError) as scalar:
            dg.sample(alpha, 0.3, FixedUniform(0.5))
        with pytest.raises(ValueError, match=message) as halves:
            dg.checked_halves(np.array([[0.7, 9.0], [alpha, 1e-300]]))
        assert str(halves.value) == str(scalar.value)
        good = np.array([0.02, 0.7, 9.0, 1e5])
        assert dg.checked_halves(good).tolist() == [dg.window_half(a) for a in good.tolist()]

    def test_sample_rows_matches_pmf(self):
        # the vectorized batch sampler feeds the ensembles; same contract.
        # The Monte Carlo floor of TV grows like sqrt(alpha/N), hence the
        # looser tolerance for the wide table.
        rng = np.random.default_rng(3)
        for alpha, c, tol in [(0.7, 0.2, 0.01), (1.5, -3.3, 0.01), (5.0, 0.9, 0.01), (25.0, 4.2, 0.02)]:
            draws = dg.sample_rows(alpha, np.full(100_000, c), rng)
            ks, probs = dg.pmf_table(alpha, c)
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
    (1e-155, [0.3], "alpha 1e-155 is too small"),
    (1.0, [0.2, 2.0**53], "center 9007199254740992.0 is too large"),
    (1.0, [1e19, math.nan], "center 1e[+]19 is too large"),
]


class TestSampleFromUniforms:
    def test_equals_sample_row_by_row(self):
        # 120,000 triples: alpha from 0.02 to 12 (windows of 3 to 200 points,
        # so both of sample's paths), a block of alphas in [4, 12] (the
        # table), half-integer centers and centers near +-1e6
        rng = np.random.default_rng(20261019)
        size = 120_000
        alphas = np.exp(rng.uniform(math.log(0.02), math.log(12.0), size))
        alphas[:20_000] = rng.uniform(4.0, 12.0, 20_000)
        centers = rng.uniform(-50.0, 50.0, size)
        centers[20_000:40_000] = rng.integers(-50, 50, 20_000) + 0.5
        centers[40_000:60_000] = (rng.choice([-1e6, 1e6], 20_000)
                                  + rng.uniform(-5.0, 5.0, 20_000))
        uniforms = rng.random(size)
        got = dg.sample_from_uniforms(alphas, centers, uniforms)
        assert got.dtype == np.int64
        assert got.tolist() == [
            dg.sample(a, c, FixedUniform(u))
            for a, c, u in zip(alphas.tolist(), centers.tolist(), uniforms.tolist())
        ]

    def test_uniforms_on_cdf_boundaries_go_through_sample(self, monkeypatch):
        # Uniforms within a few ulps of a cumulative boundary of the scalar
        # loop's weights, on windows where numpy's exp and math.exp round
        # some weight apart. There some uniforms draw differently under
        # numpy's weights ("flips"); such rows are handed to the scalar walk
        # `invert`, while random uniforms far from every boundary stay batched.
        rng = np.random.default_rng(8)
        alphas, centers, uniforms, flips = [], [], [], 0
        for alpha, center in zip(rng.uniform(0.3, 3.5, 400).tolist(),
                                 rng.uniform(-5.0, 5.0, 400).tolist()):
            w = dg.truncation_halfwidth(alpha, dg.TAIL_EPS)
            d = np.arange(math.floor(center - w), math.ceil(center + w) + 1) - center
            den = 2.0 * alpha * alpha
            top = round(center) - center
            logw = -(d * d) / den - (-(top * top) / den)
            by_numpy = np.cumsum(np.exp(logw))
            by_math = np.cumsum([math.exp(v) for v in logw.tolist()])
            edges = by_math[np.nonzero(by_numpy != by_math)[0][:-1]] / by_math[-1]
            near = (edges[:, None] + np.arange(-3, 4) * np.spacing(edges)[:, None]).ravel()
            near = near[near < 1.0]  # rng.random() is below 1
            for u in [*near.tolist(), *rng.random(3).tolist()]:
                alphas.append(alpha)
                centers.append(center)
                uniforms.append(u)
                flips += int((by_numpy < u * by_numpy[-1]).sum()
                             != (by_math < u * by_math[-1]).sum())
        expected = [dg.sample(a, c, FixedUniform(u)) for a, c, u in zip(alphas, centers, uniforms)]
        calls = []
        scalar = dg.invert

        def counting(*args):
            calls.append(args)
            return scalar(*args)

        monkeypatch.setattr(dg, "invert", counting)
        assert dg.sample_from_uniforms(alphas, centers, uniforms).tolist() == expected
        assert flips <= len(calls) < len(expected)
        if not flips:
            pytest.skip("numpy's exp rounds as math.exp does here: nothing to hand over")

    def test_no_rows(self):
        got = dg.sample_from_uniforms(np.empty(0), np.empty(0), np.empty(0))
        assert got.shape == (0,) and got.dtype == np.int64


# alphas on both sides of LOOP_MAX_POINTS (windows of 9 to 381 points), with
# the fractional part of their halfwidth w on both sides of 1/2, so that
# [floor(c - w), ceil(c + w)] and window_mid(c) +- ceil(w) part at one end or
# the other for some of the centers; half-integer centers round up
WINDOW_ALPHAS = [1.0, 1.05, 2.0, 3.9, 4.2, 9.0, 9.07, 25.0]
WINDOW_CENTERS = [0.5, -0.5, 2.5, -3.5, 0.3, -0.45, 0.05, 1e6 + 0.5, -1e6 - 0.5, 1e6 + 0.3,
                  -1e6 + 0.45, 1e6 - 0.2]


class TestOneWindow:
    """Every table, row pmf and draw covers window_mid(c) +- ceil(w)."""

    @staticmethod
    def window(alpha, center):
        half = math.ceil(dg.truncation_halfwidth(alpha, dg.TAIL_EPS))
        mid = math.floor(center + 0.5)  # exact for WINDOW_CENTERS
        return mid - half, mid + half

    @pytest.mark.parametrize("alpha", WINDOW_ALPHAS)
    def test_tables_and_first_draws_share_the_window(self, alpha):
        for c in WINDOW_CENTERS:
            lo, hi = self.window(alpha, c)
            ks, _ = dg.pmf_table(alpha, c)
            assert ks.tolist() == list(range(lo, hi + 1)), (alpha, c)
            values = np.arange(lo - 3, hi + 4)
            probs = dg.pmf_table_rows(alpha, np.full(values.size, c), values)
            assert ((probs > 0.0) == ((values >= lo) & (values <= hi))).all(), (alpha, c)
            # u = 0 draws the first window point on every path
            assert dg.sample(alpha, c, FixedUniform(0.0)) == lo, (alpha, c)
            assert dg.sample_rows(alpha, np.full(3, c), FixedUniform(0.0)).tolist() == [lo] * 3
            assert dg.sample_from_uniforms([alpha], [c], [0.0]).tolist() == [lo], (alpha, c)

    def test_sample_wide_path_equals_sample_rows(self):
        rng = np.random.default_rng(18)
        for alpha in rng.uniform(4.2, 60.0, 40).tolist():
            assert 2 * math.ceil(dg.truncation_halfwidth(alpha, dg.TAIL_EPS)) >= dg.LOOP_MAX_POINTS
            centers = np.concatenate([rng.uniform(-1e6, 1e6, 20), np.round(rng.uniform(-9, 9, 5)) + 0.5])
            us = np.concatenate([rng.random(23), [0.0, 1.0 - 2.0**-53]])
            rows = dg.sample_rows(alpha, centers, FixedUniform(us))
            assert rows.tolist() == [
                dg.sample(alpha, c, FixedUniform(u)) for c, u in zip(centers.tolist(), us.tolist())
            ]

    def test_klein_pmf_is_positive_on_every_klein_draw(self):
        class EdgeUniforms:
            """random(n): each uniform 0, 1 - 2**-53 or uniform, at random."""

            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def random(self, size):
                picks = self.rng.integers(0, 3, size)
                return np.choose(picks, [0.0, 1.0 - 2.0**-53, self.rng.random(size)])

        basis = LatticeBasis.from_matrix([[1.0, 0.4, -0.3], [0.0, 0.9, 0.2], [0.0, 0.0, 1.1]])
        for sigma, shift in [(1.0, 0.0), (2.3, 1e6), (9.0, -1e6), (30.0, 0.5)]:
            cfg = GibbsKleinConfig(basis, GaussianParams(sigma, np.array([0.5, -0.5, 0.25]) + shift), 3)
            xs = klein_sample_many(cfg, 300, EdgeUniforms(int(sigma)))
            assert (klein_pmf(cfg, xs) > 0.0).all(), sigma


@pytest.mark.parametrize("alpha, centers, message", BAD_ROWS)
def test_sample_rows_rejects_bad_inputs(alpha, centers, message):
    with pytest.raises(ValueError, match=message):
        dg.sample_rows(alpha, np.array(centers), np.random.default_rng(0))


@pytest.mark.parametrize("alpha, centers, message", BAD_ROWS)
def test_pmf_table_rows_rejects_bad_inputs(alpha, centers, message):
    with pytest.raises(ValueError, match=message):
        dg.pmf_table_rows(alpha, np.array(centers), np.zeros(len(centers)))


def test_pmf_table_rows_bitwise_equals_scalar_pmf():
    # every window length, values inside and outside the window, and (at the
    # wider alphas) more rows than one block of BLOCK_ENTRIES holds
    rng = np.random.default_rng(8)
    for alpha in (0.05, 0.3, 1.0, 2.7, 9.0, 40.0):
        centers = rng.uniform(-20.0, 20.0, 1200)
        half = int(math.ceil(dg.truncation_halfwidth(alpha, dg.TAIL_EPS)))
        values = np.round(centers) + rng.integers(-half - 3, half + 4, centers.size)
        got = dg.pmf_table_rows(alpha, centers, values)
        expected = [dg.pmf(alpha, c, int(v)) for c, v in zip(centers, values)]
        assert got.tolist() == expected, alpha
        assert (got == 0.0).any() and (got > 0.0).any()
    assert dg.pmf_table_rows(1.0, [], []).shape == (0,)


# The alpha whose window about 0 is a few points wider than MAX_WINDOW_POINTS:
# a missing guard would allocate about the cap's 128 MiB per array.
WIDE_ALPHA = dg.MAX_WINDOW_POINTS / 2 / math.sqrt(2.0 * math.log(4.0 / dg.TAIL_EPS))


def test_window_past_the_cap_is_refused_before_allocation():
    w = dg.truncation_halfwidth(WIDE_ALPHA, dg.TAIL_EPS)
    points = math.ceil(w) - math.floor(-w) + 1
    assert dg.MAX_WINDOW_POINTS < points <= dg.MAX_WINDOW_POINTS + 4
    rng = np.random.default_rng(0)
    calls = [
        lambda: dg.pmf(WIDE_ALPHA, 0.0, 0),
        lambda: dg.sample(WIDE_ALPHA, 0.0, rng),
        lambda: dg.pmf_table_rows(WIDE_ALPHA, [0.0], [0]),
        lambda: dg.sample_rows(WIDE_ALPHA, [0.0], rng),
    ]
    message = f"alpha .* needs a window of {points} points, more than the {dg.MAX_WINDOW_POINTS}"
    tracemalloc.start()
    try:
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_pmf_table_rows_far_value_at_tiny_alpha_is_zero_without_overflow():
    # -(dv^2) / (2 alpha^2) overflows to -inf five steps from the center
    assert dg.pmf_table_rows(1.06e-154, [0.3], [5]).tolist() == [0.0]
    assert dg.pmf_table_rows(1.06e-154, [0.3], [0]).tolist() == [1.0]


def test_center_just_below_two_to_53_accepted():
    c = 2.0**53 - 1.0
    assert dg.sample(0.05, c, np.random.default_rng(0)) == 2**53 - 1
    assert dg.sample_rows(0.05, [c, -c], np.random.default_rng(0)).tolist() == [c, -c]
    assert dg.pmf_table_rows(0.05, [c], [2**53 - 1]).tolist() == [1.0]


def full_table_sample_rows(alpha, centers, rng):
    """The straightforward evaluation: one (rows, window) table about the
    nearest integers, ties rounded up, peak found by a max."""
    half = int(math.ceil(dg.truncation_halfwidth(alpha, dg.TAIL_EPS)))
    u = rng.random(centers.shape[0])
    base = np.floor(centers + 0.5)  # exact for the centers below, |c| <= 31
    dev = base[:, None] + np.arange(-half, half + 1)[None, :] - centers[:, None]
    logw = -(dev * dev) / (2.0 * alpha * alpha)
    cum = np.cumsum(np.exp(logw - logw.max(axis=1, keepdims=True)), axis=1)
    idx = np.sum(cum < (u * cum[:, -1])[:, None], axis=1)
    return (base + (idx - half)).astype(np.int64)


def rows_per_block(alpha):
    half = int(math.ceil(dg.truncation_halfwidth(alpha, dg.TAIL_EPS)))
    return max(1, dg.BLOCK_ENTRIES // (2 * half + 1))


@pytest.mark.parametrize("alpha", [0.05, 0.3, 1.0, 2.7, 9.0, 40.0])
def test_sample_rows_equals_full_table_evaluation(alpha):
    # the same uniforms and bitwise the same weights, block by block, at row
    # counts around the block boundaries; every third center is a half-integer
    b = rows_per_block(alpha)
    rng = np.random.default_rng(int(alpha * 100))
    for n in (0, 1, b - 1, b, b + 1, 3 * b + 7):
        centers = rng.uniform(-30.0, 30.0, n)
        centers[::3] = np.round(centers[::3]) + 0.5
        got = dg.sample_rows(alpha, centers, np.random.default_rng(n))
        want = full_table_sample_rows(alpha, centers, np.random.default_rng(n))
        assert got.dtype == np.int64
        assert np.array_equal(got, want), (alpha, n)


def test_sample_rows_on_the_full_table_cumulative_boundaries():
    # At alpha 3.9 the window has 63 points, so 130-row blocks take the
    # column sums, and with c just below round(c) the first weight is above
    # 1e-15 of the total. Each uniform is a cumulative boundary of the full
    # table, where a running sum that lost a tail weight counts differently.
    alpha = 3.9
    half = int(math.ceil(dg.truncation_halfwidth(alpha, dg.TAIL_EPS)))
    assert rows_per_block(alpha) >= dg.COLUMN_MIN_ROWS
    rng = np.random.default_rng(5)
    centers = np.repeat(rng.integers(-4, 5, 20) - rng.uniform(0.0, 0.5, 20), 2 * half)
    dev = np.round(centers)[:, None] + np.arange(-half, half + 1) - centers[:, None]
    weights = np.exp(-(dev * dev) / (2.0 * alpha * alpha))
    assert (weights[:, 0] > 1e-15 * weights.sum(axis=1)).all()
    cum = np.cumsum(weights, axis=1)
    us = cum[np.arange(centers.size), np.arange(centers.size) % (2 * half)] / cum[:, -1]
    got = dg.sample_rows(alpha, centers, FixedUniform(us))
    assert np.array_equal(got, full_table_sample_rows(alpha, centers, FixedUniform(us)))


@pytest.mark.parametrize("alpha", [0.4, 9.0])
def test_row_helpers_memory_is_bounded_by_the_row_count(alpha):
    # 330,000 rows: the (rows, window) tables would take 45-390 MB
    rng = np.random.default_rng(4)
    centers = rng.uniform(-100.0, 100.0, 330_000)
    values = np.round(centers)
    for call in (lambda: dg.sample_rows(alpha, centers, rng),
                 lambda: dg.pmf_table_rows(alpha, centers, values)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6, (alpha, peak)


# alpha log-uniform from just above the underflow floor to 1e3; centers up to
# and past the 2**53 bound, and non-finite
extreme_alphas = st.floats(math.log(1.06e-154), math.log(1e3)).map(math.exp)
extreme_centers = st.one_of(
    st.floats(-(2.0**53), 2.0**53),
    st.sampled_from([0.5, -0.5, 2.0**53 - 1, 1e19, math.nan, math.inf, -math.inf]),
)


def _rows_case(data):
    """alpha, 0-3 blocks of rows cycling through up to 4 centers, and half."""
    alpha = data.draw(extreme_alphas)
    n = data.draw(st.integers(0, 3 * rows_per_block(alpha)))
    pool = data.draw(st.lists(extreme_centers, min_size=1, max_size=4))
    half = int(math.ceil(dg.truncation_halfwidth(alpha, dg.TAIL_EPS)))
    return alpha, np.resize(np.array(pool), n), half


def _no_runtime_warning(call, bad):
    """call() under warnings-as-errors: ValueError iff bad, else its result."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if bad:
            with pytest.raises(ValueError):
                call()
            return None
        return call()


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_sample_rows_property(data):
    alpha, centers, half = _rows_case(data)
    bad = not (np.abs(centers) < 2.0**53).all()
    draws = _no_runtime_warning(
        lambda: dg.sample_rows(alpha, centers, np.random.default_rng(0)), bad)
    if draws is not None:
        assert draws.dtype == np.int64 and draws.shape == centers.shape
        offsets = draws - dg.window_mid(centers).astype(np.int64)
        assert np.all(np.abs(offsets) <= half)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_pmf_table_rows_property(data):
    alpha, centers, half = _rows_case(data)
    ok = np.abs(centers) < 2.0**53
    shift = data.draw(st.integers(-half - 3, half + 3))
    values = np.round(np.where(ok, centers, 0.0)).astype(np.int64) + shift
    probs = _no_runtime_warning(
        lambda: dg.pmf_table_rows(alpha, centers, values), not ok.all())
    if probs is not None:
        assert probs.shape == centers.shape
        assert np.all((probs >= 0.0) & (probs <= 1.0))


@given(extreme_alphas, extreme_centers)
@settings(max_examples=150, deadline=None)
def test_sample_property(alpha, center):
    bad = not abs(center) < 2.0**53
    draw = _no_runtime_warning(lambda: dg.sample(alpha, center, np.random.default_rng(0)), bad)
    if draw is not None:
        half = int(math.ceil(dg.truncation_halfwidth(alpha, dg.TAIL_EPS)))
        assert isinstance(draw, int) and abs(draw - round(center)) <= half + 1
