"""Correlation statistics: Pearson, Spearman, Kendall tau-b, and distance
correlation.

P-values follow the standard recipes: a two-sided t-test with n-2 degrees
of freedom for Pearson and Spearman, and the tie-corrected normal
approximation for Kendall. Distance correlation has no analytic p-value;
an optional permutation test is available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr


@dataclass(frozen=True)
class CorrelationReport:
    """The four statistics over one filtered record set."""

    n: int
    min_ratings_filter: int
    pearson_r: float
    pearson_p: float
    spearman_rho: float
    spearman_p: float
    kendall_tau: float
    kendall_p: float
    distance_corr: float
    distance_corr_p: float | None = None


def _validated_pair(x, y, min_n: int = 3) -> tuple[np.ndarray, np.ndarray]:
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.ndim != 1 or ya.ndim != 1:
        raise ValueError("inputs must be one-dimensional")
    if xa.size != ya.size:
        raise ValueError(f"length mismatch: {xa.size} vs {ya.size}")
    if xa.size < min_n:
        raise ValueError(f"need at least {min_n} observations, got {xa.size}")
    return xa, ya


def _t_test_p(r: float, n: int) -> float:
    """Two-sided p-value of a correlation under the t distribution, n-2 df."""
    if 1.0 - r * r <= 0.0:
        return 0.0
    t = abs(r) * math.sqrt((n - 2) / (1.0 - r * r))
    return 2.0 * float(stdtr(n - 2, -t))


def pearson(x, y) -> tuple[float, float]:
    """Product-moment correlation with its two-sided p-value.

    Raises on constant input, where the correlation is undefined.
    """
    xa, ya = _validated_pair(x, y)
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        raise ValueError("undefined correlation: constant input")
    r = float(xc @ yc) / denom
    r = min(max(r, -1.0), 1.0)
    return r, _t_test_p(r, xa.size)


def midranks(values) -> np.ndarray:
    """Ranks 1..n with ties assigned the mean of their covered ranks."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="stable")
    ordered = v[order]
    # NaN != NaN, so each NaN ranks alone, after every number
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    counts = np.diff(np.append(starts, v.size))
    ranks = np.empty(v.size, dtype=float)
    ranks[order] = np.repeat(starts + (counts + 1) / 2, counts)
    return ranks


def spearman(x, y) -> tuple[float, float]:
    """Rank correlation: Pearson on mid-ranks, p-value as in pearson."""
    xa, ya = _validated_pair(x, y)
    return pearson(midranks(xa), midranks(ya))


def _tie_sizes(values: np.ndarray) -> np.ndarray:
    _, counts = np.unique(values, return_counts=True)
    return counts[counts > 1].astype(float)


def kendall_tau(x, y) -> tuple[float, float]:
    """Tie-corrected Kendall rank correlation (tau-b).

    The p-value uses the normal approximation to the concordance statistic
    with the usual tie-adjusted variance.
    """
    xa, ya = _validated_pair(x, y)
    n = xa.size
    # each pair counts twice and the diagonal is zero; every partial sum
    # is an integer below 2**53, so the halved total is exact
    s = float(np.vdot(np.sign(xa[:, None] - xa), np.sign(ya[:, None] - ya))) / 2

    n0 = n * (n - 1) / 2.0
    tx = _tie_sizes(xa)
    ty = _tie_sizes(ya)
    n1 = float(np.sum(tx * (tx - 1) / 2.0))
    n2 = float(np.sum(ty * (ty - 1) / 2.0))
    denom = math.sqrt((n0 - n1) * (n0 - n2))
    if denom == 0.0:
        raise ValueError("undefined tau: all ties in one input")
    tau = s / denom
    tau = min(max(tau, -1.0), 1.0)

    v0 = n * (n - 1) * (2 * n + 5)
    vt = float(np.sum(tx * (tx - 1) * (2 * tx + 5)))
    vu = float(np.sum(ty * (ty - 1) * (2 * ty + 5)))
    v1 = float(np.sum(tx * (tx - 1))) * float(np.sum(ty * (ty - 1))) / (2.0 * n * (n - 1))
    v2 = (
        float(np.sum(tx * (tx - 1) * (tx - 2)))
        * float(np.sum(ty * (ty - 1) * (ty - 2)))
        / (9.0 * n * (n - 1) * (n - 2))
    )
    var_s = (v0 - vt - vu) / 18.0 + v1 + v2
    if var_s <= 0.0:
        return tau, 1.0
    z = s / math.sqrt(var_s)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return tau, p


def _centered_distances(values: np.ndarray) -> np.ndarray:
    d = np.abs(values[:, None] - values[None, :])
    return d - d.mean(axis=0, keepdims=True) - d.mean(axis=1, keepdims=True) + d.mean()


def _dcor_kernel(x, y):
    """Centered distance matrix `b` of y, and a function giving the
    distance correlation of x with `b` or with `b` permuted on rows and
    columns alike; the function is None when either input has zero
    distance variance (a constant sequence)."""
    xa, ya = _validated_pair(x, y)
    a = _centered_distances(xa)
    b = _centered_distances(ya)
    dvar_x = float(np.mean(a * a))
    dvar_y = float(np.mean(b * b))
    if dvar_x == 0.0 or dvar_y == 0.0:
        return b, None
    scale = math.sqrt(dvar_x * dvar_y)

    def dcor(b_mat: np.ndarray) -> float:
        ratio = float(np.mean(a * b_mat)) / scale
        return math.sqrt(min(max(ratio, 0.0), 1.0))

    return b, dcor


def distance_correlation(x, y) -> float:
    """Sample distance correlation from doubly-centered distance matrices.

    Lies in [0, 1]; returns 0 when either input has zero distance
    variance (a constant sequence).
    """
    b, dcor = _dcor_kernel(x, y)
    return 0.0 if dcor is None else dcor(b)


def distance_correlation_test(
    x, y, permutations: int = 9999, seed: int = 0
) -> tuple[float, float]:
    """Distance correlation with a permutation p-value.

    Permutes y `permutations` times under a fixed seed and reports
    (1 + #{dcor_perm >= dcor}) / (1 + permutations).
    """
    b, dcor = _dcor_kernel(x, y)
    if dcor is None:
        return 0.0, 1.0
    # Double centering commutes with a simultaneous row/column permutation,
    # and the distance variances are permutation-invariant, so only the
    # cross term changes per draw.
    observed = dcor(b)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(permutations):
        perm = rng.permutation(b.shape[0])
        if dcor(b[np.ix_(perm, perm)]) >= observed:
            hits += 1
    return observed, (1.0 + hits) / (1.0 + permutations)
