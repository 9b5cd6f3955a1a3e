"""Reference computations the output checks compare the program against.

None of these import the package under test. The estimator and the
noise generator are re-derived from their documented definitions; Ward
clustering and the rank statistics come from scipy; distance correlation
is brute force over all pairs. The self-tests pin these references to
outputs recorded from the seed commit (`reference/`).
"""

from __future__ import annotations

import math

import numpy as np

MIN_SERIES_LENGTH = 60
MIN_WINDOW = 5
N_WINDOWS = 15
MIN_WINDOWS_FOR_FIT = 5
SWEET_SPOT = (0.55, 0.65)


class NoEstimate(Exception):
    """The estimator must refuse this series; `status` is the reason code."""

    def __init__(self, status: str):
        super().__init__(status)
        self.status = status


def window_schedule(n: int) -> list[int]:
    """Log-spaced odd windows over [5, n/4], as the estimator documents."""
    top = n // 4
    if top % 2 == 0:
        top -= 1
    if top < MIN_WINDOW:
        raise NoEstimate("too_short")
    if top == MIN_WINDOW:
        return [MIN_WINDOW]
    grid = np.logspace(np.log2(MIN_WINDOW), np.log2(top), N_WINDOWS, base=2.0)
    odd = 2.0 * np.round((grid - 1.0) / 2.0) + 1.0
    return sorted({int(w) for w in np.clip(odd, MIN_WINDOW, top)})


def _trend(u: np.ndarray, w: int) -> np.ndarray:
    """Order-1 local fits on segments of length w = 2n+1 starting every n
    samples (plus one right-anchored segment if the chain misses the end),
    cross-faded linearly between neighbouring segment centres."""
    size = u.size
    n = (w - 1) // 2
    starts = list(range(0, size - w + 1, n))
    if starts[-1] != size - w:
        starts.append(size - w)
    starts = np.array(starts)
    centers = starts + n
    t = np.arange(w) - n
    q, _ = np.linalg.qr(np.column_stack([np.ones(w), t]))
    seg = u[starts[:, None] + np.arange(w)]
    fits = (seg @ q) @ q.T

    trend = np.empty(size)
    trend[: centers[0] + 1] = fits[0, : n + 1]
    trend[centers[-1] :] = fits[-1, centers[-1] - starts[-1] :]
    g = np.arange(centers[0], centers[-1] + 1)
    k = np.clip(np.searchsorted(centers, g, side="right") - 1, 0, centers.size - 2)
    frac = (g - centers[k]) / (centers[k + 1] - centers[k])
    trend[g] = (1 - frac) * fits[k, g - starts[k]] + frac * fits[k + 1, g - starts[k + 1]]
    return trend


def hurst(series) -> tuple[float, float, int]:
    """(H, r^2, points) of adaptive fractal analysis with order-1 fits.

    Raises NoEstimate('too_short') below 60 samples and
    NoEstimate('degenerate') for constant input or fewer than five
    windows with a nonzero fluctuation.
    """
    x = np.asarray(series, dtype=float)
    if x.size < MIN_SERIES_LENGTH:
        raise NoEstimate("too_short")
    windows = window_schedule(x.size)
    if np.all(x == x[0]):
        raise NoEstimate("degenerate")
    u = np.cumsum(x - x.mean())
    log_w, log_f = [], []
    for w in windows:
        f = math.sqrt(float(np.mean((u - _trend(u, w)) ** 2)))
        if f > 0.0:
            log_w.append(math.log2(w))
            log_f.append(math.log2(f))
    if len(log_w) < MIN_WINDOWS_FOR_FIT:
        raise NoEstimate("degenerate")
    lw, lf = np.array(log_w), np.array(log_f)
    dw = lw - lw.mean()
    slope = float(dw @ (lf - lf.mean()) / (dw @ dw))
    resid = lf - (lf.mean() + slope * dw)
    ss_tot = float(((lf - lf.mean()) ** 2).sum())
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
    return slope, min(max(r2, 0.0), 1.0), len(log_w)


def fgn(h: float, n: int, seed: int) -> np.ndarray:
    """Davies-Harte fractional Gaussian noise, drawing its normals in the
    order the synth module documents: first, middle, then the real and
    imaginary parts of the n-1 interior frequencies."""
    k = np.arange(n + 1, dtype=float)
    gamma = 0.5 * (np.abs(k + 1) ** (2 * h) - 2 * k ** (2 * h) + np.abs(k - 1) ** (2 * h))
    eig = np.clip(np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real, 0.0, None)
    rng = np.random.default_rng(seed)
    first, middle = rng.standard_normal(), rng.standard_normal()
    re, im = rng.standard_normal(n - 1), rng.standard_normal(n - 1)
    w = np.empty(2 * n, dtype=complex)
    w[0] = math.sqrt(eig[0] / (2 * n)) * first
    w[1:n] = np.sqrt(eig[1:n] / (4 * n)) * (re + 1j * im)
    w[n] = math.sqrt(eig[n] / (2 * n)) * middle
    w[n + 1 :] = np.conj(w[n - 1 : 0 : -1])
    return np.fft.fft(w).real[:n]


def cluster_shape(values: np.ndarray, fraction: float = 0.05, points: int = 100) -> np.ndarray:
    """Centred moving average (odd width max(3, round(fraction*n)),
    truncated at the edges), resampled to `points` and z-normalized."""
    n = values.size
    width = max(3, round(fraction * n))
    if width % 2 == 0:
        width += 1
    half = width // 2
    padded = np.concatenate(([0.0], np.cumsum(values)))
    lo = np.maximum(np.arange(n) - half, 0)
    hi = np.minimum(np.arange(n) + half + 1, n)
    smooth = np.clip((padded[hi] - padded[lo]) / (hi - lo), values.min(), values.max())
    shape = np.interp(np.linspace(0, n - 1, points), np.arange(n), smooth)
    sd = shape.std()
    return (shape - shape.mean()) / sd if sd > 0 else np.zeros(points)


def ward(shapes: np.ndarray, ids: list[str], k: int):
    """Ward clustering stopped at k clusters: (labels by id, merges).

    Clusters are named by their smallest member id, merges are listed in
    order as (a, b, height, size) with a < b, and labels number the final
    clusters 0..k-1 by smallest member id.
    """
    from scipy.cluster.hierarchy import linkage

    m = len(ids)
    z = linkage(shapes, method="ward")
    members = {i: [ids[i]] for i in range(m)}
    merges = []
    for step, (a, b, height, size) in enumerate(z[: m - k]):
        ma, mb = members.pop(int(a)), members.pop(int(b))
        ra, rb = sorted((min(ma), min(mb)))
        merges.append((ra, rb, float(height), int(size)))
        members[m + step] = ma + mb
    groups = sorted(members.values(), key=min)
    labels = {sid: label for label, group in enumerate(groups) for sid in group}
    return labels, merges


def _centered_rows(v: np.ndarray, rows: slice, col_mean: np.ndarray, grand: float) -> np.ndarray:
    d = np.abs(v[rows, None] - v[None, :])
    return d - col_mean[rows, None] - col_mean[None, :] + grand


def distance_correlation(x, y, block: int = 512) -> float:
    """Brute-force sample distance correlation over all n^2 pairs, in row
    blocks so memory stays O(n * block)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    n = x.size
    mx = np.concatenate([np.abs(x[i : i + block, None] - x).mean(axis=1) for i in range(0, n, block)])
    my = np.concatenate([np.abs(y[i : i + block, None] - y).mean(axis=1) for i in range(0, n, block)])
    gx, gy = mx.mean(), my.mean()
    sxy = sxx = syy = 0.0
    for i in range(0, n, block):
        rows = slice(i, i + block)
        a = _centered_rows(x, rows, mx, gx)
        b = _centered_rows(y, rows, my, gy)
        sxy += float((a * b).sum())
        sxx += float((a * a).sum())
        syy += float((b * b).sum())
    if sxx == 0.0 or syy == 0.0:
        return 0.0
    return math.sqrt(min(max(sxy / math.sqrt(sxx * syy), 0.0), 1.0))


def correlations(x, y, permutations: int | None = None, seed: int = 0) -> dict:
    """The report fields for one threshold, from scipy and brute force.

    The permutation p-value permutes y with numpy's default generator
    seeded by `seed`, one `permutation(n)` per draw, as the CLI documents,
    and reports (1 + #{dcor_perm >= dcor}) / (1 + permutations).
    """
    from scipy import stats

    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    pr = stats.pearsonr(x, y)
    sr = stats.spearmanr(x, y)
    kt = stats.kendalltau(x, y, method="asymptotic")
    dcor = distance_correlation(x, y)
    out = {
        "n": int(x.size),
        "pearson_r": float(pr.statistic), "pearson_p": float(pr.pvalue),
        "spearman_rho": float(sr.statistic), "spearman_p": float(sr.pvalue),
        "kendall_tau": float(kt.statistic), "kendall_p": float(kt.pvalue),
        "distance_corr": dcor, "distance_corr_p": None,
    }
    if permutations:
        rng = np.random.default_rng(seed)
        hits = sum(
            distance_correlation(x, y[rng.permutation(x.size)]) >= dcor
            for _ in range(permutations)
        )
        out["distance_corr_p"] = (1.0 + hits) / (1.0 + permutations)
    return out
