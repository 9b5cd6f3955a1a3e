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

from .afa import scale_extreme_peak


@dataclass(frozen=True)
class CorrelationReport:
    """The four statistics over one filtered record set."""

    min_ratings_filter: int
    n: int
    pearson_r: float
    pearson_p: float
    spearman_rho: float
    spearman_p: float
    kendall_tau: float
    kendall_p: float
    distance_corr: float
    distance_corr_p: float | None = None


def _validated_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    """x and y as float arrays, each brought into the band of
    `scale_extreme_peak`: every statistic here is invariant under a positive
    scale factor on either input, so any finite magnitude gives the same
    result."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.ndim != 1 or ya.ndim != 1:
        raise ValueError("inputs must be one-dimensional")
    if xa.size != ya.size:
        raise ValueError(f"length mismatch: {xa.size} vs {ya.size}")
    if xa.size < 3:
        raise ValueError(f"need at least 3 observations, got {xa.size}")
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise ValueError("inputs must be finite")
    return scale_extreme_peak(xa), scale_extreme_peak(ya)


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


def _run_sizes(run_starts: np.ndarray) -> np.ndarray:
    """Lengths of the runs of equal values, given where each run starts."""
    return np.diff(np.append(np.flatnonzero(run_starts), run_starts.size))


def midranks(values) -> np.ndarray:
    """Ranks 1..n with ties assigned the mean of their covered ranks."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="stable")
    ordered = v[order]
    # NaN != NaN, so each NaN ranks alone, after every number; the slice
    # keeps an empty input empty
    run_starts = np.concatenate(([True], ordered[1:] != ordered[:-1]))[: v.size]
    counts = _run_sizes(run_starts)
    ranks = np.empty(v.size, dtype=float)
    ranks[order] = np.repeat(np.flatnonzero(run_starts) + (counts + 1) / 2, counts)
    return ranks


def spearman(x, y) -> tuple[float, float]:
    """Rank correlation: Pearson on mid-ranks, p-value as in pearson."""
    xa, ya = _validated_pair(x, y)
    return pearson(midranks(xa), midranks(ya))


def _merge_plan(n: int) -> list[tuple[np.ndarray, ...]]:
    """Index arrays for each level of a bottom-up merge over n positions.

    At level w (1, 2, 4, ... below n), block k covers positions [2kw,
    2kw + 2w): the first w form its left half, the rest its right half.
    Per level the tuple holds each position's key offset k·(n + 1); the
    positions of all left halves, and of all right halves; and for each
    right position, where its block's left half ends among the left
    positions, (k + 1)·w. That is exact because a block with a right
    half has a full left half.
    """
    plan = []
    pos = np.arange(n)
    w = 1
    while w < n:
        block, offset = np.divmod(pos, 2 * w)
        right = np.flatnonzero(offset >= w)
        plan.append((
            block * (n + 1),
            np.flatnonzero(offset < w),
            right,
            (block[right] + 1) * w,
        ))
        w *= 2
    return plan


def _merge_levels(rank: np.ndarray, plan: list[tuple[np.ndarray, ...]]):
    """Bottom-up merge sort of integer ranks in [0, n], level by level.

    Yields, per level of `plan`, the original indices of the left-half
    elements in (block, rank) order, those of the right-half elements,
    and for each right element `below` and `end`: the left elements of
    its own block ranked strictly above it are `left[below:end]`. Every
    pair i < j meets at exactly one level, as a left and a right element
    of one block, so summing over those slices visits each pair (i, j)
    with rank[i] > rank[j] once: these are the inversions Knight's
    algorithm counts (Knight 1966, JASA 61:436). One searchsorted per
    level over the keys block·(n + 1) + rank, which the left halves hold
    sorted, finds `below`; a stable argsort of the keys then merges each
    block, left elements before right ones of equal rank: O(n log n)
    time per level, O(n log² n) in all, and O(n) memory beyond `plan`,
    which holds O(n) integers per level, O(n log n) in all.
    """
    order = np.arange(rank.size)
    for key_offset, left_pos, right_pos, end in plan:
        keys = key_offset + rank[order]
        below = np.searchsorted(keys[left_pos], keys[right_pos], side="right")
        yield order[left_pos], order[right_pos], below, end
        order = order[np.argsort(keys, kind="stable")]


def _tied_pairs(sizes: np.ndarray) -> int:
    return int(np.sum(sizes * (sizes - 1) // 2))


def _kendall_s(xa: np.ndarray, ya: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Kendall's S = sum over pairs i < j of sign(Δx)·sign(Δy), exactly,
    and the sizes of the runs of ties in x and in y, in value order.

    Knight's count: in (x, y) order every pair i < j has x_i <= x_j, and
    it is discordant exactly when y_i > y_j, an inversion of y's ranks.
    So S = n0 - n1 - n2 + n3 - 2·D, where n0 counts all pairs, n1 and n2
    the pairs tied in x and in y, n3 those tied in both, and D the
    inversions.
    """
    n = xa.size
    order = np.lexsort((ya, xa))
    xs, ys = xa[order], ya[order]
    x_starts = np.concatenate(([True], xs[1:] != xs[:-1]))
    xy_starts = x_starts | np.concatenate(([False], ys[1:] != ys[:-1]))
    x_counts = _run_sizes(x_starts)
    _, y_rank, y_counts = np.unique(ya, return_inverse=True, return_counts=True)
    levels = _merge_levels(y_rank[order], _merge_plan(n))
    discordant = sum(int(np.sum(end - below)) for _, _, below, end in levels)
    s = (
        n * (n - 1) // 2 - _tied_pairs(x_counts) - _tied_pairs(y_counts)
        + _tied_pairs(_run_sizes(xy_starts)) - 2 * discordant
    )
    return s, x_counts[x_counts > 1], y_counts[y_counts > 1]


def kendall_tau(x, y) -> tuple[float, float]:
    """Tie-corrected Kendall rank correlation (tau-b).

    The p-value uses the normal approximation to the concordance statistic
    with the usual tie-adjusted variance.
    """
    xa, ya = _validated_pair(x, y)
    n = xa.size
    s, tx, ty = _kendall_s(xa, ya)
    n0 = n * (n - 1) // 2
    denom = math.sqrt((n0 - _tied_pairs(tx)) * (n0 - _tied_pairs(ty)))
    if denom == 0.0:
        raise ValueError("undefined tau: all ties in one input")
    tau = s / denom
    tau = min(max(tau, -1.0), 1.0)

    # integers far below 2**53, so the floats are exact
    tx, ty = tx.astype(float), ty.astype(float)
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


# Cells per row block of a distance matrix (4 MB of float64). A sum over
# the matrix adds its block sums in turn, and each block sum has the bits
# of one np.sum over the block's cells.
_DCOR_BLOCK_CELLS = 1 << 19

# Cells per leaf of a block sum (256 KB of float64): the kernel builds only
# the rows under one leaf at a time, never a whole block.
_DCOR_LEAF_CELLS = 1 << 15


def _row_blocks(n: int) -> list[slice]:
    """Row slices of an n x n matrix, each of at most _DCOR_BLOCK_CELLS
    cells and at least one row; the first is the largest."""
    rows = min(n, max(1, _DCOR_BLOCK_CELLS // n))
    return [slice(start, start + rows) for start in range(0, n, rows)]


def _pairwise(start: int, stop: int, leaf):
    """The np.sum of cells start..stop-1 of a contiguous float64 array,
    given `leaf(start, stop)`, the np.sum of a run of it.

    numpy's pairwise summation (numpy/_core/src/umath/loops_utils.h.src;
    Higham 1993, SIAM J. Sci. Comput. 14:783) adds a run of at most 128
    cells in one loop and splits a longer one at half its length, rounded
    down to a multiple of 8, adding the halves' sums left + right. Every
    node of that fixed tree is the np.sum of its own run, so the first
    nodes of at most _DCOR_LEAF_CELLS cells, joined along the tree, give
    the root's bits. `leaf` is called on those runs in order, and may
    return an array of sums, one per array summed."""
    count = stop - start
    if count <= max(_DCOR_LEAF_CELLS, 128):
        return leaf(start, stop)
    half = count // 2
    half -= half % 8
    return _pairwise(start, start + half, leaf) + _pairwise(start + half, stop, leaf)


def _leaf_span(n: int, start: int, stop: int) -> tuple[slice, slice]:
    """The rows of an n-column matrix that its flat cells start..stop-1
    lie in, and where those cells lie in the rows' own flat cells."""
    rows = slice(start // n, (stop - 1) // n + 1)
    return rows, slice(start - rows.start * n, stop - rows.start * n)


def _leaf_rows(n: int, blocks: list[slice]) -> np.ndarray:
    """Scratch for the rows of an n-column matrix that one leaf of a block
    of `blocks` spans: a run of c cells touches at most c // n + 2 rows."""
    return np.empty((min(blocks[0].stop, max(_DCOR_LEAF_CELLS, 128) // n + 2), n))


def _distance_rows(values: np.ndarray, rows: slice, out: np.ndarray, centering=None) -> np.ndarray:
    """Rows `rows` of |v_i - v_j|, written into the leading rows of `out`
    and doubly centered in place by centering = (column means, row means,
    grand mean) when given, in the order d - column - row + grand."""
    head = values[rows]
    d = np.subtract.outer(head, values, out=out[: head.size])
    np.abs(d, out=d)
    if centering is not None:
        col, row, grand = centering
        d -= col
        d -= row[rows, None]
        d += grand
    return d


def _distance_centering(values: np.ndarray, blocks: list[slice]):
    """Column, row and grand means of |v_i - v_j|, one row block at a time,
    each block summed over its leaves as `_pairwise` describes.

    Row means are taken per row, and a block's column sums add its rows
    one at a time, in order, from zero, as `sum(axis=0)` over the block
    does; column sums and the total then add up across blocks. So with
    one block every mean has the bits of the whole-matrix `mean(axis=0)`,
    `mean(axis=1)` and `mean()`.
    """
    n = values.size
    col = np.zeros(n)
    block_col = np.empty(n)
    row = np.empty(n)
    buf = _leaf_rows(n, blocks)

    def leaf(start, stop):
        rows, cells = _leaf_span(n, start, stop)
        d = _distance_rows(values, rows, buf)
        ended = d[: stop // n - rows.start]  # the rows whose last cell is in this leaf
        for cells_of_row in ended:
            np.add(block_col, cells_of_row, out=block_col)
        row[rows.start : stop // n] = ended.mean(axis=1)
        return np.sum(d.reshape(-1)[cells])

    total = 0.0
    for rows in blocks:
        block_col.fill(0.0)
        total += float(_pairwise(rows.start * n, min(rows.stop, n) * n, leaf))
        col += block_col
    return col / n, row, total / n**2


def _centered_products(xa, x_center, ya, y_center, blocks) -> tuple[float, float, float]:
    """mean(a·b), mean(a·a) and mean(b·b) for the doubly-centered distance
    matrices a of `xa` and b of `ya`, each a sum of row-block sums / n²,
    the three block sums taken in one walk of the leaves.

    Two leaf buffers hold every product: a·a goes where b is built next,
    then a·b overwrites a and b·b overwrites b."""
    n = xa.size
    buf_a, buf_b = _leaf_rows(n, blocks), _leaf_rows(n, blocks)

    def leaf(start, stop):
        rows, cells = _leaf_span(n, start, stop)
        a = _distance_rows(xa, rows, buf_a, x_center).reshape(-1)[cells]
        aa = np.sum(np.multiply(a, a, out=buf_b.reshape(-1)[: a.size]))
        b = _distance_rows(ya, rows, buf_b, y_center).reshape(-1)[cells]
        return np.array([np.sum(np.multiply(a, b, out=a)), aa, np.sum(np.multiply(b, b, out=b))])

    sums = np.zeros(3)
    for rows in blocks:
        sums += _pairwise(rows.start * n, min(rows.stop, n) * n, leaf)
    return tuple(map(float, sums / n**2))


def _dcor_terms(xa: np.ndarray, ya: np.ndarray):
    """(blocks, x_center, y_center, cross, scale) for a pair as
    `_validated_pair` returns it: the row blocks; the centering of x and
    of y, each as `_distance_centering` returns it; the cross term
    mean(a·b) of the doubly-centered distance matrices a of x and b of y;
    and the scale sqrt(dVar(x)·dVar(y)), 0.0 when either input has zero
    distance variance (a constant sequence).

    Every mean of a product is a sum over row blocks of at most
    _DCOR_BLOCK_CELLS cells, divided by n² (Székely, Rizzo & Bakirov 2007,
    Ann. Statist. 35:2769, define the statistic as that double sum). Each
    block sum is rebuilt from leaves of at most _DCOR_LEAF_CELLS cells
    along numpy's pairwise tree, so the kernel takes O(n) memory beyond
    three leaves and keeps the bits of one np.sum per block. When n² fits
    in one block, the operations and so the bits are those of the whole
    n x n matrices.
    """
    blocks = _row_blocks(xa.size)
    x_center = _distance_centering(xa, blocks)
    y_center = _distance_centering(ya, blocks)
    cross, dvar_x, dvar_y = _centered_products(xa, x_center, ya, y_center, blocks)
    scale = math.sqrt(dvar_x * dvar_y) if dvar_x != 0.0 and dvar_y != 0.0 else 0.0
    return blocks, x_center, y_center, cross, scale


def _clamped(num: float, scale: float) -> float:
    """num / scale clamped to [0, 1]: a squared distance correlation."""
    return min(max(num / scale, 0.0), 1.0)


def distance_correlation(x, y) -> float:
    """Sample distance correlation from doubly-centered distance matrices,
    accumulated over row blocks as `_dcor_terms` describes.

    Lies in [0, 1]; returns 0 when either input has zero distance
    variance (a constant sequence).
    """
    _, _, _, cross, scale = _dcor_terms(*_validated_pair(x, y))
    return math.sqrt(_clamped(cross, scale)) if scale else 0.0


def _permuted_dcov(xa: np.ndarray, ya: np.ndarray, x_center, y_center):
    """A function of a permutation p giving (mean(a·b_p), size): the
    cross term of the distance covariance of x with y[p], and the sum of
    the absolute values of the terms it is built from.

    For doubly-centered a and b and raw distances |Δx|, |Δy|, row sums
    r_i and s_i and totals R and S,
        n²·mean(a·b) = Σ_ij |Δx||Δy| − (2/n)·Σ_i r_i s_i + R·S/n².
    The row sums and totals are n and n² times the row and grand means of
    `x_center` and `y_center`, the centerings `_dcor_terms` returns.
    Only the first two terms change under p. In x order, Σ_i<j |Δx||Δy|
    is Σ_i<j Δx·Δy = n·Σxy − Σx·Σy less twice the sum of Δx·Δy over the
    pairs with y_i > y_j, which the merge of `_merge_levels` visits,
    with prefix sums of x, y and xy over each left half: O(n log² n) time
    and O(n) memory per draw beyond the O(n log n) merge plan that every
    draw shares, the univariate fast dCov of Huo & Székely (2016,
    Technometrics 58:435). x and y are centered first, which leaves every
    distance as it is and keeps the prefix sums of an offset series from
    cancelling.
    """
    n = xa.size
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    by_x = np.argsort(xc, kind="stable")
    xs = xc[by_x]
    y_rank = np.unique(ya, return_inverse=True)[1]
    plan = _merge_plan(n)
    row_x, row_y = x_center[1], y_center[1]
    totals = n**2 * x_center[2] * y_center[2]

    def cross(perm: np.ndarray) -> tuple[float, float]:
        pairing = perm[by_x]
        ys = yc[pairing]
        weights = np.stack((xs, ys, xs * ys))
        inverted = 0.0
        prefix = np.zeros((3, n + 1))
        for left, right, below, end in _merge_levels(y_rank[pairing], plan):
            np.cumsum(weights[:, left], axis=1, out=prefix[:, 1 : left.size + 1])
            sums = prefix[:, end] - prefix[:, below]
            xr, yr = xs[right], ys[right]
            inverted += float((end - below) @ (xr * yr) - xr @ sums[1] - yr @ sums[0] + sums[2].sum())
        pairs = n * float(xs @ ys) - float(xs.sum()) * float(ys.sum()) - 2.0 * inverted
        rows = 2.0 * n * float(row_x @ row_y[perm])
        return (2.0 * pairs - rows + totals) / n**2, (2.0 * pairs + rows + totals) / n**2

    return cross


# Half-width of the band, in units of `size`, around the hit threshold in
# which a permutation draw is left to the dense kernel; see
# distance_correlation_test.
_DCOR_MARGIN = 1e-9

# Relative tolerance below the observed statistic within which a draw still
# counts as a hit: the rule of scipy.stats.permutation_test.
_DCOR_TIE_RTOL = 100 * float(np.finfo(float).eps)


def distance_correlation_test(
    x, y, permutations: int = 9999, seed: int = 0
) -> tuple[float, float]:
    """Distance correlation with a permutation p-value.

    Permutes y `permutations` times under a fixed seed and reports
    (1 + #{dcor_perm >= dcor - γ}) / (1 + permutations), with
    γ = 100·eps·dcor: a draw equal to the observed statistic in exact
    arithmetic counts as a hit whatever the rounding, as in
    scipy.stats.permutation_test.

    The observed value comes from the row-blocked kernel of
    distance_correlation. Each draw's cross term comes from
    `_permuted_dcov` in O(n) memory and settles the draw, unless its
    clamped ratio lies within _DCOR_MARGIN·size/scale of the threshold
    ratio (dcor - γ)² or is not a number; such a draw is recomputed by the
    blocked kernel on the permuted pairing, which also needs no n x n
    array. Why the margin is safe: the two kernels compute the same sum
    and differ by rounding alone. That difference measured at most
    6.8e-16·size on tied, lognormal, offset and outlier data, n = 50 to
    4,097, a factor above 10⁶ inside the margin. The blocked kernel
    adds its n² terms pairwise within blocks of at most _DCOR_BLOCK_CELLS
    and then the block sums in turn, fewer than n of them; n·eps·size,
    what it could lose if every rounding error added up, is 2.2e-13·size
    at n = 1,000. So outside the band the blocked ratio lies on the same
    side of the threshold ratio as the fast one, and clamping to [0, 1]
    cannot close that gap. Near the threshold size/scale is at least the
    ratio itself, so the band is at least 1e-9 times the threshold ratio,
    while squaring the threshold or taking a square root moves a value by
    under eps relative: the blocked draw's square root lies on the same
    side of dcor - γ, and every count is the one the blocked kernel alone
    gives.
    """
    if permutations < 0:
        raise ValueError(f"permutations must be >= 0, got {permutations}")
    xa, ya = _validated_pair(x, y)
    blocks, x_center, y_center, cross, scale = _dcor_terms(xa, ya)
    if not scale:
        return 0.0, 1.0
    # Double centering commutes with a simultaneous row/column permutation,
    # and the distance variances are permutation-invariant, so only the
    # cross term changes per draw.
    observed = math.sqrt(_clamped(cross, scale))
    threshold = observed - _DCOR_TIE_RTOL * observed
    threshold_ratio = threshold * threshold
    permuted_cross = _permuted_dcov(xa, ya, x_center, y_center)
    col, row, grand = y_center
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(permutations):
        perm = rng.permutation(xa.size)
        num, size = permuted_cross(perm)
        fast = _clamped(num, scale)
        if abs(fast - threshold_ratio) > _DCOR_MARGIN * size / scale:
            hits += int(fast > threshold_ratio)
        else:
            permuted = (col[perm], row[perm], grand)
            num = _centered_products(xa, x_center, ya[perm], permuted, blocks)[0]
            hits += int(math.sqrt(_clamped(num, scale)) >= threshold)
    return observed, (1.0 + hits) / (1.0 + permutations)
