import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentarc import (
    AfaResult,
    DegenerateSeriesError,
    SeriesTooShortError,
    SynthSpec,
    default_window_sizes,
    estimate_hurst,
    fgn,
    fluctuation,
    global_trend,
    profile,
    white_noise,
)
from sentarc.afa import _fit_operators, blend_weights, segment_starts


def trend_oracle(u, w, order):
    """Straight fit-and-blend reimplementation: per-segment polyfit, explicit
    linear cross-fade between consecutive segment centers."""
    u = np.asarray(u, float)
    n = (w - 1) // 2
    last = u.size - 1 - 2 * n
    starts = list(range(0, last + 1, n))
    if starts[-1] != last:
        starts.append(last)
    fits = []
    for s in starts:
        xs = np.arange(s, s + w)
        coef = np.polyfit(xs, u[s : s + w], order)
        fits.append(np.polyval(coef, np.arange(u.size)))
    centers = [s + n for s in starts]
    v = np.empty(u.size)
    v[: centers[0] + 1] = fits[0][: centers[0] + 1]
    for i in range(len(starts) - 1):
        step = centers[i + 1] - centers[i]
        for ell in range(step + 1):
            w2 = ell / step
            g = centers[i] + ell
            v[g] = (1 - w2) * fits[i][g] + w2 * fits[i + 1][g]
    v[centers[-1] :] = fits[-1][centers[-1] :]
    return v


def take_along_axis_trend(u, w, order):
    """global_trend before its fit operators were cached: the S x w index
    gather, a fresh pinv per call, and the (segment, offset) cross-fade grid
    read through take_along_axis. Every later kernel must match its bits."""
    u = np.asarray(u, dtype=float)
    n_samples = u.size
    n = (w - 1) // 2
    starts = segment_starts(n_samples, w)
    centers = starts + n

    segments = u[starts[:, None] + np.arange(w)[None, :]]
    t = np.arange(w, dtype=float) - (w - 1) / 2
    design = np.vander(t, order + 1, increasing=True)
    coefs = segments @ np.linalg.pinv(design).T
    fits = coefs @ design.T

    v = np.empty(n_samples)
    v[: n + 1] = fits[0, : n + 1]
    steps = np.diff(centers)[:, None]
    j = np.arange(n)
    frac = j / steps
    right = np.take_along_axis(fits[1:], n - steps + j, axis=1)
    blend = (1.0 - frac) * fits[:-1, n : 2 * n] + frac * right
    v[n : centers[-1]] = blend.ravel()[: centers[-1] - n]
    v[centers[-1] :] = fits[-1, centers[-1] - starts[-1] :]
    return v


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


# ------------------------------------------------------------------ profile


def test_profile_constant_is_zero():
    assert profile([0.4] * 10).tolist() == [0.0] * 10


def test_profile_two_points():
    assert profile([1.0, 0.0]).tolist() == [0.5, 0.0]


def test_profile_final_value_telescopes_to_zero():
    series = np.random.default_rng(0).uniform(size=5000)
    u = profile(series)
    assert abs(u[-1]) < 1e-9 * series.size
    assert u.size == series.size


def test_profile_rejects_short_series():
    with pytest.raises(ValueError):
        profile([1.0])


# ----------------------------------------------------------- segment layout


def test_segment_starts_exact_chain():
    # 9 samples, w=5 (n=2): starts 0,2,4 and the chain ends on the last sample
    assert segment_starts(9, 5).tolist() == [0, 2, 4]


def test_segment_starts_right_anchored_tail():
    # 12 samples, w=5 (n=2): regular starts 0,2,4,6; final anchored at 7
    assert segment_starts(12, 5).tolist() == [0, 2, 4, 6, 7]


def test_segment_starts_single_segment():
    assert segment_starts(5, 5).tolist() == [0]


def test_blend_weights_sum_to_one_and_fall_linearly():
    for step in (1, 2, 5, 11):
        w1, w2 = blend_weights(step)
        np.testing.assert_allclose(w1 + w2, 1.0)
        np.testing.assert_allclose(np.diff(w1), -1.0 / step)
        assert w1[0] == 1.0 and w1[-1] == 0.0


# ------------------------------------------------------------- global_trend


def test_trend_recovers_linear_profile_exactly():
    u = 0.7 * np.arange(200.0) - 3.0
    for w in (5, 11, 31):
        v = global_trend(u, w, order=1)
        assert np.max(np.abs(v - u)) < 1e-9


def test_trend_recovers_quadratic_with_order_two():
    x = np.arange(150.0)
    u = 0.02 * x**2 - 1.5 * x + 4.0
    v = global_trend(u, 15, order=2)
    assert np.max(np.abs(v - u)) < 1e-9


def test_trend_two_overlap_toy_hand_value():
    u = np.array([0, 1, 2, 3, 4, 3, 2, 1, 0], dtype=float)
    v = global_trend(u, 5, order=1)
    np.testing.assert_allclose(v, [0, 1, 2, 2.9, 2.8, 2.9, 2, 1, 0], atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([5, 7, 9, 13]),
    st.integers(min_value=20, max_value=120),
    st.sampled_from([0, 1, 2]),
)
def test_trend_matches_fit_and_blend_oracle(seed, w, n_samples, order):
    u = np.random.default_rng(seed).normal(size=n_samples).cumsum()
    v = global_trend(u, w, order=order)
    np.testing.assert_allclose(v, trend_oracle(u, w, order), atol=1e-8)


def test_trend_anchored_tail_matches_oracle():
    u = np.random.default_rng(3).normal(size=12).cumsum()
    v = global_trend(u, 5, order=1)
    np.testing.assert_allclose(v, trend_oracle(u, 5, 1), atol=1e-10)


def test_trend_continuity_at_segment_boundaries():
    u = profile(white_noise(2048, 9))
    for w in (5, 17, 65):
        v = global_trend(u, w, order=1)
        dv = np.abs(np.diff(v))
        centers = segment_starts(u.size, w) + (w - 1) // 2
        boundary_steps = dv[np.clip(centers, 0, dv.size - 1)]
        assert boundary_steps.max() <= 10 * np.median(dv)


@st.composite
def trend_cases(draw):
    n_samples = draw(st.integers(min_value=60, max_value=5000))
    w = 2 * draw(st.integers(min_value=1, max_value=(n_samples - 1) // 2)) + 1
    order = draw(st.integers(min_value=0, max_value=2))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return n_samples, w, order, seed


@settings(max_examples=150, deadline=None)
@given(trend_cases())
def test_trend_bit_identical_to_take_along_axis_kernel(case):
    n_samples, w, order, seed = case
    u = np.random.default_rng(seed).normal(size=n_samples).cumsum()
    assert_same_bits(global_trend(u, w, order), take_along_axis_trend(u, w, order))


@pytest.mark.parametrize("n_samples", [60, 61, 64, 100, 257, 1000, 4097, 20000, 65536])
def test_trend_bit_identical_on_default_schedule(n_samples):
    u = profile(white_noise(n_samples, n_samples))
    for w in default_window_sizes(n_samples):
        for order in (0, 1, 2):
            assert_same_bits(global_trend(u, w, order), take_along_axis_trend(u, w, order))


@pytest.mark.parametrize(
    "n_samples,w,anchored",
    [
        (5, 5, False), (9, 5, False), (61, 7, False),
        (8, 5, True), (12, 5, True), (62, 7, True), (63, 7, True),
    ],
)
def test_trend_bit_identical_at_both_endings(n_samples, w, anchored):
    n = (w - 1) // 2
    assert ((n_samples - 1 - 2 * n) % n != 0) == anchored
    u = np.random.default_rng(n_samples).normal(size=n_samples).cumsum()
    for order in (0, 1, 2):
        assert_same_bits(global_trend(u, w, order), take_along_axis_trend(u, w, order))


def test_cached_fit_operators_are_read_only():
    first = _fit_operators(9, 1)
    assert _fit_operators(9, 1) is first
    for operator in first:
        assert not operator.flags.writeable
        with pytest.raises(ValueError):
            operator[0, 0] = 1.0
    assert _fit_operators.cache_info().maxsize is not None


def test_trend_rejects_even_window():
    with pytest.raises(ValueError):
        global_trend(np.arange(30.0), 6)


def test_trend_rejects_window_longer_than_series():
    with pytest.raises(ValueError):
        global_trend(np.arange(10.0), 11)


# -------------------------------------------------------------- fluctuation


def test_fluctuation_zero_for_identical():
    u = np.arange(10.0)
    assert fluctuation(u, u) == 0.0


def test_fluctuation_hand_value():
    u = np.array([3.0, 4.0] * 8)
    v = np.zeros(16)
    assert fluctuation(u, v) == pytest.approx(np.sqrt((9 + 16) / 2), abs=1e-12)


def test_fluctuation_matches_rms_oracle():
    rng = np.random.default_rng(11)
    u = rng.normal(size=300)
    v = rng.normal(size=300)
    total = 0.0
    for a, b in zip(u, v):
        total += (a - b) ** 2
    assert fluctuation(u, v) == pytest.approx((total / 300) ** 0.5, abs=1e-12)


def test_fluctuation_rejects_length_mismatch():
    with pytest.raises(ValueError):
        fluctuation(np.arange(5.0), np.arange(6.0))


# ---------------------------------------------------------- window schedule


def test_default_windows_all_odd_ascending_in_range():
    ws = default_window_sizes(4096)
    assert all(w % 2 == 1 for w in ws)
    assert all(a < b for a, b in zip(ws, ws[1:]))
    assert ws[0] == 5 and ws[-1] == 1023
    assert 10 <= len(ws) <= 15


def test_default_windows_shortest_supported_series():
    ws = default_window_sizes(60)
    assert ws[0] == 5 and ws[-1] == 15
    assert len(ws) >= 5


def test_negative_order_rejected():
    with pytest.raises(ValueError, match="order must be >= 0, got -1"):
        estimate_hurst(white_noise(500, 1), order=-1)


# ------------------------------------------------------------ estimate_hurst


def test_white_noise_recovers_half():
    estimates = [estimate_hurst(white_noise(4096, seed)).hurst for seed in range(1, 11)]
    assert abs(np.mean(estimates) - 0.5) < 0.05


def test_fgn_recovers_target():
    estimates = [
        estimate_hurst(fgn(SynthSpec(0.8, 4096, seed))).hurst for seed in range(1, 11)
    ]
    assert abs(np.mean(estimates) - 0.8) < 0.07


def test_alternating_series_antipersistent():
    series = np.array([0.0, 1.0] * 512)
    result = estimate_hurst(series)
    assert result.hurst < 0.5


def test_constant_series_degenerate():
    with pytest.raises(DegenerateSeriesError):
        estimate_hurst(np.full(500, 0.5))


def test_short_series_rejected():
    with pytest.raises(SeriesTooShortError):
        estimate_hurst(np.random.default_rng(0).uniform(size=59))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected_naming_first_index(bad):
    x = white_noise(500, 2)
    x[[123, 321]] = bad
    with pytest.raises(ValueError, match="non-finite value .* at index 123$"):
        estimate_hurst(x)


@pytest.mark.parametrize(
    "series,shape",
    [
        (np.random.default_rng(0).normal(size=(100, 100)), "(100, 100)"),
        (float("nan"), "()"),
        (None, "()"),
    ],
    ids=["matrix", "nan-scalar", "none"],
)
def test_input_that_is_not_1d_rejected(series, shape):
    with pytest.raises(ValueError, match=re.escape(f"series must be 1-D, got shape {shape}")):
        estimate_hurst(series)


def test_result_reports_fit_quality_and_points():
    result = estimate_hurst(white_noise(1024, 3))
    assert isinstance(result, AfaResult)
    assert 0.0 <= result.r_squared <= 1.0
    assert result.n_points == len(result.points) >= 5
    log_ws = [p[0] for p in result.points]
    assert log_ws == sorted(log_ws)


def test_estimate_shift_scale_equivariant():
    series = fgn(SynthSpec(0.6, 1024, 5))
    base = estimate_hurst(series)
    moved = estimate_hurst(3.7 * series + 11.0)
    assert abs(base.hurst - moved.hurst) < 1e-9
    assert abs(base.r_squared - moved.r_squared) < 1e-9


_FGN_07 = fgn(SynthSpec(0.7, 4096, 1))


@pytest.mark.parametrize(
    "series,reference",
    [
        (_FGN_07 * 1e300, _FGN_07),
        (_FGN_07 * 1e-300, _FGN_07),
        (_FGN_07 * 2.0**1000, _FGN_07),
        (_FGN_07 * 2.0**-1000, _FGN_07),
        (np.sign(_FGN_07) * 1e308, np.sign(_FGN_07)),
    ],
    ids=["x1e300", "x1e-300", "x2^1000", "x2^-1000", "sign_x1e308"],
)
def test_extreme_magnitudes_estimate_as_unit_scale(series, reference):
    # these overflowed to nan or underflowed to "degenerate" before the
    # power-of-two rescale; H does not depend on scale
    got = estimate_hurst(series)
    want = estimate_hurst(reference)
    assert np.isfinite(got.hurst) and np.isfinite(got.r_squared)
    assert abs(got.hurst - want.hurst) < 1e-12
    assert abs(got.r_squared - want.r_squared) < 1e-12
    assert got.n_points == want.n_points


def test_estimate_deterministic_bit_identical():
    series = white_noise(2048, 21)
    first = estimate_hurst(series)
    second = estimate_hurst(series)
    assert first == second


def test_monotone_in_target_h():
    means = []
    for target in (0.3, 0.5, 0.7, 0.9):
        estimates = [
            estimate_hurst(fgn(SynthSpec(target, 2048, seed))).hurst
            for seed in range(1, 11)
        ]
        means.append(np.mean(estimates))
    assert means == sorted(means)


def dfa1_reference(series, windows):
    """Plain DFA-1: piecewise linear detrend over non-overlapping windows,
    no blending. An independent estimator family for cross-checking."""
    u = np.cumsum(series - np.mean(series))
    log_w, log_f = [], []
    for w in windows:
        k = u.size // w
        if k < 2:
            continue
        t = np.arange(w)
        residuals = []
        for block in u[: k * w].reshape(k, w):
            coef = np.polyfit(t, block, 1)
            residuals.append(np.mean((block - np.polyval(coef, t)) ** 2))
        f = np.sqrt(np.mean(residuals))
        if f > 0:
            log_w.append(np.log2(w))
            log_f.append(np.log2(f))
    slope, _ = np.polyfit(log_w, log_f, 1)
    return float(slope)


def test_tracks_dfa1_cross_check_on_fgn():
    windows = default_window_sizes(4096)
    gaps = []
    for target in (0.4, 0.6, 0.8):
        afa_estimates = []
        dfa_estimates = []
        for seed in range(1, 6):
            series = fgn(SynthSpec(target, 4096, seed))
            afa_estimates.append(estimate_hurst(series).hurst)
            dfa_estimates.append(dfa1_reference(series, windows))
        gaps.append(abs(np.mean(afa_estimates) - np.mean(dfa_estimates)))
    assert max(gaps) < 0.1


def test_ols_fit_matches_manual_regression():
    result = estimate_hurst(white_noise(2048, 8))
    x = np.array([p[0] for p in result.points])
    y = np.array([p[1] for p in result.points])
    xc = x - x.mean()
    slope = float(xc @ (y - y.mean())) / float(xc @ xc)
    intercept = y.mean() - slope * x.mean()
    assert result.hurst == pytest.approx(slope, abs=1e-12)
    assert result.intercept == pytest.approx(intercept, abs=1e-12)
    r = np.corrcoef(x, y)[0, 1]
    assert result.r_squared == pytest.approx(r * r, abs=1e-10)
