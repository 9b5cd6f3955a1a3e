import tracemalloc

import numpy as np
import pytest

from sentarc import SynthSpec, fgn, fgn_autocovariance, synth, white_noise


def raw_lag1_autocorr(x):
    # the generator targets mean zero, so second moments use the known mean
    return float(np.mean(x[:-1] * x[1:]) / np.mean(x * x))


def two_array_fgn(spec):
    """fgn before its transforms shared one buffer: the circulant row and
    the scaled draws each in an array of their own. fgn must match its bits."""
    n = spec.n
    gamma = fgn_autocovariance(spec.target_h, np.arange(n + 1))
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    eigenvalues = np.clip(np.fft.fft(row).real, 0.0, None)

    rng = np.random.default_rng(spec.seed)
    first = rng.standard_normal()
    middle = rng.standard_normal()
    real = rng.standard_normal(n - 1)
    imag = rng.standard_normal(n - 1)

    w = np.empty(2 * n, dtype=complex)
    w[0] = np.sqrt(eigenvalues[0] / (2 * n)) * first
    w[1:n] = np.sqrt(eigenvalues[1:n] / (4 * n)) * (real + 1j * imag)
    w[n] = np.sqrt(eigenvalues[n] / (2 * n)) * middle
    w[n + 1 :] = np.conj(w[n - 1 : 0 : -1])
    return np.fft.fft(w).real[:n]


@pytest.mark.parametrize("n", [64, 1024, 2**16])
@pytest.mark.parametrize("target_h,seed", [(0.05, 0), (0.3, 7), (0.5, 1), (0.7, 3), (0.95, 2)])
def test_fgn_bit_identical_to_two_array_form(target_h, n, seed):
    spec = SynthSpec(target_h=target_h, n=n, seed=seed)
    a, b = fgn(spec), two_array_fgn(spec)
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("chunk", [1, 5, 64])
@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("target_h,seed", [(0.3, 7), (0.9, 2)])
def test_fgn_bit_identical_across_chunk_boundaries(monkeypatch, target_h, seed, n, chunk):
    # lags are filled and normals drawn a chunk at a time; small chunks put
    # many cuts inside n
    monkeypatch.setattr(synth, "_CHUNK", chunk)
    spec = SynthSpec(target_h=target_h, n=n, seed=seed)
    assert np.array_equal(fgn(spec).view(np.int64), two_array_fgn(spec).view(np.int64))


def test_fgn_bit_identical_at_four_real_chunks():
    spec = SynthSpec(target_h=0.7, n=4 * synth._CHUNK, seed=5)
    assert np.array_equal(fgn(spec).view(np.int64), two_array_fgn(spec).view(np.int64))


def test_fgn_peak_memory_under_three_buffers():
    # everything happens in the one 2N complex buffer (two buffers) and the
    # returned copy (half of one); the draws in arrays of their own peaked
    # at 5.03 buffers
    n = 2**18
    spec = SynthSpec(target_h=0.7, n=n, seed=1)
    tracemalloc.start()
    try:
        fgn(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 16 * n


def test_fgn_peak_memory_under_six_buffers():
    # one buffer of N complex values is 16 N bytes; the two-array form
    # peaks at 7.5 of them
    n = 2**16
    spec = SynthSpec(target_h=0.7, n=n, seed=1)
    tracemalloc.start()
    try:
        fgn(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 16 * n


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(target_h=0.0, n=256, seed=1)
    with pytest.raises(ValueError):
        SynthSpec(target_h=1.0, n=256, seed=1)
    with pytest.raises(ValueError):
        SynthSpec(target_h=0.5, n=100, seed=1)  # not a power of two
    with pytest.raises(ValueError):
        SynthSpec(target_h=0.5, n=32, seed=1)  # too short


def test_autocovariance_formula():
    assert fgn_autocovariance(0.5, [0, 1, 2]).tolist() == [1.0, 0.0, 0.0]
    gamma = fgn_autocovariance(0.9, [1])
    assert gamma[0] == pytest.approx(2**0.8 - 1, abs=1e-12)


def test_half_h_is_white_noise_lag1():
    n = 4096
    for seed in (1, 2, 3):
        x = fgn(SynthSpec(target_h=0.5, n=n, seed=seed))
        assert abs(raw_lag1_autocorr(x)) < 3 / np.sqrt(n)


def test_high_h_lag1_matches_autocovariance():
    target = 2**0.8 - 1  # about 0.741
    for seed in (2, 4, 5):
        x = fgn(SynthSpec(target_h=0.9, n=4096, seed=seed))
        assert raw_lag1_autocorr(x) == pytest.approx(target, abs=0.1)


def test_low_h_lag1_negative():
    x = fgn(SynthSpec(target_h=0.3, n=4096, seed=1))
    assert raw_lag1_autocorr(x) == pytest.approx(
        float(fgn_autocovariance(0.3, [1])[0]), abs=0.1
    )


def test_deterministic_per_seed():
    spec = SynthSpec(target_h=0.7, n=1024, seed=99)
    np.testing.assert_array_equal(fgn(spec), fgn(spec))


def test_different_seeds_differ():
    a = fgn(SynthSpec(target_h=0.7, n=1024, seed=1))
    b = fgn(SynthSpec(target_h=0.7, n=1024, seed=2))
    assert not np.array_equal(a, b)


def test_variance_near_unit():
    # expectation over seeds; single long-memory draws fluctuate widely
    for target in (0.3, 0.5, 0.7, 0.9):
        variances = [
            np.mean(fgn(SynthSpec(target_h=target, n=4096, seed=s)) ** 2)
            for s in range(1, 21)
        ]
        assert abs(np.mean(variances) - 1.0) < 0.2


def test_output_length_and_dtype():
    x = fgn(SynthSpec(target_h=0.6, n=256, seed=5))
    assert x.shape == (256,)
    assert x.dtype == np.float64


def test_white_noise_single_value_reproducible():
    assert white_noise(1, 7).shape == (1,)
    assert white_noise(1, 7)[0] == white_noise(1, 7)[0]


def test_white_noise_moments():
    x = white_noise(100_000, 3)
    assert abs(x.mean()) < 0.02
    assert abs(x.var() - 1.0) < 0.02


def test_white_noise_seeds_differ():
    assert not np.array_equal(white_noise(64, 1), white_noise(64, 2))


def test_white_noise_rejects_empty():
    with pytest.raises(ValueError):
        white_noise(0, 1)
