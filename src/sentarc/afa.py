"""Hurst exponent estimation by adaptive fractal analysis (AFA).

The estimator integrates the mean-centered input into a profile, removes a
smooth global trend built from overlapping local polynomial fits, and reads
the scaling exponent off the log-log relation between window size and the
RMS residual:

    F(w) = sqrt( (1/N) sum_i (u(i) - v(i))^2 )  ~  w^H

Segments have odd length w = 2n+1 and start every n samples, so neighbors
share n+1 points. In the shared region the two local fits are combined
with weights falling off linearly with distance from each segment center,
which removes jumps at segment boundaries and leaves a trend that is
smooth away from them. A slope above 0.5 means persistent fluctuations,
below 0.5 anti-persistent ones.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeriesError, SeriesTooShortError

#: Shortest series the estimator accepts.
MIN_SERIES_LENGTH = 60

#: Smallest usable window (2n+1 with n = 2).
MIN_WINDOW = 5

#: Number of log-spaced windows in the default schedule.
DEFAULT_N_WINDOWS = 15

#: Fewest windows with a nonzero residual the log-log fit accepts.
MIN_WINDOWS_FOR_FIT = 5

# Peak magnitudes the estimator works on unscaled: outside this band the
# profile or its squared residuals could overflow or underflow.
_UNSCALED_PEAK = (2.0**-400, 2.0**400)

# Bounds the fit operators kept per process; the study workload run in one
# process meets about 730 distinct (w, order) keys.
_FIT_OPERATOR_CACHE_SIZE = 1024


@dataclass(frozen=True)
class AfaResult:
    """Fitted scaling relation: `hurst` is the slope of log2 F(w) on
    log2 w, `points` the surviving (log2_w, log2_F) pairs behind it."""

    hurst: float
    intercept: float
    r_squared: float
    points: tuple[tuple[float, float], ...]

    @property
    def n_points(self) -> int:
        return len(self.points)


def profile(series) -> np.ndarray:
    """Cumulative sum of the mean-centered series.

    The running sum turns a noise-like series into a walk whose wandering
    the trend removal can grade; its final value is zero up to rounding.
    """
    x = np.asarray(series, dtype=float)
    if x.size < 2:
        raise ValueError(f"series must have at least 2 samples, got {x.size}")
    return np.cumsum(x - x.mean())


def segment_starts(n_samples: int, w: int) -> np.ndarray:
    """Start offsets of the length-w segments covering a series.

    Regular starts are 0, n, 2n, ... with n = (w-1)/2. When the chain does
    not land exactly on the last sample, one extra segment is appended,
    right-anchored to end there.
    """
    _check_window(n_samples, w)
    n = (w - 1) // 2
    last = n_samples - 1 - 2 * n
    starts = np.arange(0, last + 1, n)
    if starts[-1] != last:
        starts = np.append(starts, last)
    return starts


def blend_weights(step: int) -> tuple[np.ndarray, np.ndarray]:
    """Linear cross-fade weights over a blend region of `step`+1 points.

    Position j = 0..step sits j samples past the left segment's center;
    its weights are w1 = 1 - j/step toward the left fit and w2 = j/step
    toward the right one, so w1 + w2 = 1 everywhere.
    """
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    w2 = np.arange(step + 1) / step
    return 1.0 - w2, w2


def _check_window(n_samples: int, w: int) -> None:
    if w % 2 == 0:
        raise ValueError(f"window size must be odd, got {w}")
    if w < 3:
        raise ValueError(f"window size must be >= 3, got {w}")
    if w > n_samples:
        raise ValueError(f"window size {w} exceeds series length {n_samples}")


@functools.lru_cache(maxsize=_FIT_OPERATOR_CACHE_SIZE)
def _fit_operators(w: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only `(pinv(design).T, design.T)` for length-w segments.

    The design matrix depends only on (w, order), so the cache computes
    its pseudo-inverse once per key rather than once per call. The local
    coordinate is centered at the segment midpoint, which keeps the fit
    well conditioned.
    """
    t = np.arange(w, dtype=float) - (w - 1) / 2
    design = np.vander(t, order + 1, increasing=True)
    solve = np.linalg.pinv(design)
    design.flags.writeable = False
    solve.flags.writeable = False
    return solve.T, design.T


def global_trend(u, w: int, order: int = 1) -> np.ndarray:
    """Smooth global trend of the profile at window size w.

    Overlapping segments are fitted independently; between the centers of
    neighboring segments the two fits are cross-faded with the linear
    weights of :func:`blend_weights`. Before the first center and after the
    last the single covering fit is used as is. The final segment may be
    right-anchored, in which case its blend region is shorter than n.
    """
    u = np.asarray(u, dtype=float)
    n_samples = u.size
    _check_window(n_samples, w)
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")

    n = (w - 1) // 2
    starts = segment_starts(n_samples, w)
    last_center = starts[-1] + n

    # least-squares polynomial fit of every segment at once
    segments = np.lib.stride_tricks.sliding_window_view(u, w)[starts]
    solve_t, design_t = _fit_operators(w, order)
    fits = (segments @ solve_t) @ design_t

    v = np.empty(n_samples)
    v[: n + 1] = fits[0, : n + 1]
    # row k blends fits k and k+1 at offsets j = 0..n-1 past center k, where
    # fit k+1 covers them from its own offset j
    j = np.arange(n)
    frac = j / n
    blend = (1.0 - frac) * fits[:-1, n : 2 * n] + frac * fits[1:, :n]
    step = int(starts[-1] - starts[-2]) if starts.size > 1 else n
    if step != n:
        # a right-anchored last segment sits `step` < n past its neighbor,
        # so its row fades over that shorter step and is cut there
        frac = j / step
        blend[-1] = (1.0 - frac) * fits[-2, n : 2 * n] + frac * fits[-1, n - step + j]
    v[n:last_center] = blend.ravel()[: last_center - n]
    v[last_center:] = fits[-1, last_center - starts[-1] :]
    return v


def fluctuation(u, v) -> float:
    """RMS residual between profile and trend."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"profile and trend lengths differ: {u.shape} vs {v.shape}")
    return float(np.sqrt(np.mean((u - v) ** 2)))


def default_window_sizes(n_samples: int) -> tuple[int, ...]:
    """Log-spaced odd window sizes covering [MIN_WINDOW, n_samples/4]."""
    max_window = n_samples // 4
    if max_window % 2 == 0:
        max_window -= 1
    if max_window < MIN_WINDOW:
        raise SeriesTooShortError(
            f"series of {n_samples} samples leaves no window range "
            f"[{MIN_WINDOW}, {n_samples // 4}]"
        )
    grid = np.logspace(np.log2(MIN_WINDOW), np.log2(max_window), DEFAULT_N_WINDOWS, base=2.0)
    odd = (2.0 * np.round((grid - 1.0) / 2.0) + 1.0).astype(int)
    odd = np.unique(np.clip(odd, MIN_WINDOW, max_window))
    return tuple(int(w) for w in odd)


def estimate_hurst(series, order: int = 1) -> AfaResult:
    """Estimate the Hurst exponent of a series.

    Builds the profile once, computes the fluctuation function over the
    log-spaced schedule of :func:`default_window_sizes`, drops windows with
    zero residual, and fits ordinary least squares of log2 F(w) on log2 w.
    `order` is the polynomial order of the local fits. The slope is the
    estimate; the line's R^2 grades how well the scaling relation holds.
    Any finite magnitude is accepted: a series whose peak |x| lies outside
    [2^-400, 2^400] is first rescaled exactly by a power of two.

    Raises ValueError for a negative order, for input that is not 1-D and
    on NaN or infinite input, SeriesTooShortError below 60 samples, and
    DegenerateSeriesError when fewer than MIN_WINDOWS_FOR_FIT windows
    produce a nonzero residual (constant input, for example).
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"series must be 1-D, got shape {x.shape}")
    finite = np.isfinite(x)
    if not finite.all():
        first = int(np.argmin(finite))
        raise ValueError(f"non-finite value {x[first]} at index {first}")
    n_samples = x.size
    if n_samples < MIN_SERIES_LENGTH:
        raise SeriesTooShortError(
            f"series has {n_samples} samples; at least {MIN_SERIES_LENGTH} required"
        )
    windows = default_window_sizes(n_samples)
    # rounding in the mean can leave a constant series with a nonzero
    # profile, so rule it out exactly rather than through F(w)
    if np.all(x == x[0]):
        raise DegenerateSeriesError("degenerate series: constant input")
    # H does not depend on scale; bring an extreme peak into [0.5, 1) exactly
    peak = float(np.max(np.abs(x)))
    if not _UNSCALED_PEAK[0] <= peak <= _UNSCALED_PEAK[1]:
        x = np.ldexp(x, -np.frexp(peak)[1])

    u = profile(x)
    points = []
    for w in windows:
        v = global_trend(u, w, order)
        f = fluctuation(u, v)
        if f > 0.0:
            points.append((float(np.log2(w)), float(np.log2(f))))
    if len(points) < MIN_WINDOWS_FOR_FIT:
        raise DegenerateSeriesError(
            f"degenerate series: only {len(points)} of {len(windows)} windows "
            "produced a nonzero fluctuation"
        )

    log_w = np.array([p[0] for p in points])
    log_f = np.array([p[1] for p in points])
    slope, intercept = np.polyfit(log_w, log_f, 1)
    predicted = slope * log_w + intercept
    ss_res = float(np.sum((log_f - predicted) ** 2))
    ss_tot = float(np.sum((log_f - log_f.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    r_squared = min(max(r_squared, 0.0), 1.0)
    return AfaResult(
        hurst=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        points=tuple(points),
    )
