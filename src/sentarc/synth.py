"""Synthetic series with known Hurst exponent.

Fractional Gaussian noise is drawn by circulant embedding (Davies-Harte):
the target autocovariance

    gamma(k) = 0.5 * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H})

is embedded in a 2N circulant matrix whose FFT gives the eigenvalues, and
one FFT of suitably scaled complex Gaussians returns an exact sample.
H = 0.5 reduces to white noise. These series are the ground truth the
Hurst estimator is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SentarcError

#: Tolerated eigenvalue undershoot from rounding in the embedding.
EIGENVALUE_TOLERANCE = -1e-10

# lags filled, and normals drawn, per call in fgn
_CHUNK = 2**16


@dataclass(frozen=True)
class SynthSpec:
    """Target exponent, length and seed for one synthetic draw.

    N must be a power of two of at least 64; the embedding length stays a
    power of two, which keeps the FFT plan exact and fast.
    """

    target_h: float
    n: int
    seed: int

    def __post_init__(self):
        if not 0.0 < self.target_h < 1.0:
            raise ValueError(f"target_h must be in (0, 1), got {self.target_h}")
        if self.n < 64 or self.n & (self.n - 1) != 0:
            raise ValueError(f"n must be a power of two >= 64, got {self.n}")


def fgn_autocovariance(h: float, lags) -> np.ndarray:
    """Autocovariance of unit-variance fractional Gaussian noise."""
    k = np.asarray(lags, dtype=float)
    two_h = 2.0 * h
    return 0.5 * (
        np.abs(k + 1.0) ** two_h - 2.0 * np.abs(k) ** two_h + np.abs(k - 1.0) ** two_h
    )


def fgn(spec: SynthSpec) -> np.ndarray:
    """Sample fractional Gaussian noise with exact target covariance.

    Deterministic per seed. Raises SentarcError if the circulant
    embedding produces a materially negative eigenvalue, which cannot
    happen for H in (0, 1) beyond rounding error.
    """
    n = spec.n
    # one 2N complex buffer is the only array of that size, and it serves
    # both transforms: the circulant row [g0..gN, g(N-1)..g1] in, its
    # eigenvalues out, then the scaled draws. Lags and draws go in a chunk
    # at a time, so no other array grows with N
    buf = np.zeros(2 * n, dtype=complex)
    for start in range(0, n + 1, _CHUNK):
        stop = min(start + _CHUNK, n + 1)
        buf.real[start:stop] = fgn_autocovariance(spec.target_h, np.arange(start, stop))
    buf.real[n + 1 :] = buf.real[n - 1 : 0 : -1]
    np.fft.fft(buf, out=buf)
    # the row is symmetric, so eigenvalues 0..N are all the draws use
    eigenvalues = buf.real[: n + 1]
    lowest = eigenvalues.min()
    if lowest < EIGENVALUE_TOLERANCE:
        raise SentarcError(
            f"circulant embedding failed: eigenvalue {lowest:.3e} < 0 "
            f"for H={spec.target_h}, N={n}"
        )
    np.clip(eigenvalues, 0.0, None, out=eigenvalues)
    # the draws overwrite eigenvalues 1..N-1, so they wait in the slots
    # the conjugates fill last
    first_eigenvalue, middle_eigenvalue = eigenvalues[0], eigenvalues[n]
    scale = buf.real[n + 1 :]
    scale[:] = eigenvalues[1:n]

    rng = np.random.default_rng(spec.seed)
    first = rng.standard_normal()
    middle = rng.standard_normal()
    # chunked draws continue one stream, the same values as one call; the
    # chunks are copies, as standard_normal's out= takes contiguous arrays only
    for part in (buf.real, buf.imag):
        for start in range(1, n, _CHUNK):
            stop = min(start + _CHUNK, n)
            part[start:stop] = rng.standard_normal(stop - start)

    buf[0] = np.sqrt(first_eigenvalue / (2 * n)) * first
    scale /= 4 * n
    np.sqrt(scale, out=scale)
    buf[1:n] *= scale
    buf[n] = np.sqrt(middle_eigenvalue / (2 * n)) * middle
    np.conjugate(buf[n - 1 : 0 : -1], out=buf[n + 1 :])
    np.fft.fft(buf, out=buf)
    return buf.real[:n].copy()


def white_noise(n: int, seed: int) -> np.ndarray:
    """Independent standard normal draws, deterministic per seed."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return np.random.default_rng(seed).standard_normal(n)
