import math
import tracemalloc

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sentarc import (
    distance_correlation,
    distance_correlation_test,
    kendall_tau,
    midranks,
    pearson,
    spearman,
)
from sentarc import stats as stats_mod
from sentarc.stats import _kendall_s, _merge_levels, _merge_plan, _permuted_dcov

# hundredths on a bounded grid: ties arise naturally, no underflow traps
finite = st.integers(min_value=-10**6, max_value=10**6).map(lambda v: v / 100)


# ----------------------------------------------------------------- oracles


def pearson_oracle(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def ranks_oracle(values):
    ordered = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[ordered[j + 1]] == values[ordered[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[ordered[k]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def kendall_s_oracle(x, y):
    """Concordant minus discordant pairs, counted pair by pair."""
    n = len(x)
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            prod = (x[i] - x[j]) * (y[i] - y[j])
            if prod > 0:
                concordant += 1
            elif prod < 0:
                discordant += 1
    return concordant - discordant


def kendall_oracle(x, y):
    n = len(x)
    n0 = n * (n - 1) / 2
    tx = sum(c * (c - 1) / 2 for c in _counts(x))
    ty = sum(c * (c - 1) / 2 for c in _counts(y))
    return kendall_s_oracle(x, y) / math.sqrt((n0 - tx) * (n0 - ty))


def _counts(values):
    seen = {}
    for v in values:
        seen[v] = seen.get(v, 0) + 1
    return [c for c in seen.values() if c > 1]


def dcov_oracle(x, y):
    """Squared distance covariance and the two distance variances."""
    n = len(x)
    a = [[abs(x[i] - x[j]) for j in range(n)] for i in range(n)]
    b = [[abs(y[i] - y[j]) for j in range(n)] for i in range(n)]

    def center(m):
        rows = [sum(r) / n for r in m]
        cols = [sum(m[i][j] for i in range(n)) / n for j in range(n)]
        grand = sum(rows) / n
        return [[m[i][j] - rows[i] - cols[j] + grand for j in range(n)] for i in range(n)]

    ac, bc = center(a), center(b)
    dcov2 = sum(ac[i][j] * bc[i][j] for i in range(n) for j in range(n)) / n**2
    dvx = sum(v * v for r in ac for v in r) / n**2
    dvy = sum(v * v for r in bc for v in r) / n**2
    return dcov2, dvx, dvy


def dcor_oracle(x, y):
    dcov2, dvx, dvy = dcov_oracle(x, y)
    if dvx == 0 or dvy == 0:
        return 0.0
    return math.sqrt(max(dcov2, 0.0) / math.sqrt(dvx * dvy))


def dcor_test_dense(x, y, permutations, seed):
    """The permutation test with every draw on permuted n x n matrices:
    the reference whose p-values distance_correlation_test must equal
    bit for bit."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def centered(v):
        d = np.abs(v[:, None] - v[None, :])
        return d - d.mean(axis=0, keepdims=True) - d.mean(axis=1, keepdims=True) + d.mean()

    a, b = centered(x), centered(y)
    dvar_x, dvar_y = float(np.mean(a * a)), float(np.mean(b * b))
    if dvar_x == 0.0 or dvar_y == 0.0:
        return 0.0, 1.0
    scale = math.sqrt(dvar_x * dvar_y)

    def dcor(b_mat):
        return math.sqrt(min(max(float(np.mean(a * b_mat)) / scale, 0.0), 1.0))

    observed = dcor(b)
    gamma = 100 * np.finfo(float).eps * observed
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(permutations):
        perm = rng.permutation(x.size)
        if dcor(b[np.ix_(perm, perm)]) >= observed - gamma:
            hits += 1
    return observed, (1.0 + hits) / (1.0 + permutations)


def random_pairs(count, rng, with_ties=True):
    for _ in range(count):
        n = int(rng.integers(3, 30))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        if with_ties and n >= 5 and rng.random() < 0.5:
            x[1] = x[0]
            y[3] = y[2]
        yield list(x), list(y)


# ----------------------------------------------------------------- pearson


def test_pearson_self_correlation():
    x = [1.0, 2.0, 5.0, 3.0]
    r, p = pearson(x, x)
    assert r == 1.0
    assert p == 0.0


def test_pearson_exact_anticorrelation():
    r, _ = pearson([1, 2, 3], [3, 2, 1])
    assert r == -1.0


def test_pearson_matches_covariance_oracle():
    x = [1.0, 2.0, 4.0]
    y = [2.0, 3.0, 7.0]
    r, _ = pearson(x, y)
    assert r == pytest.approx(pearson_oracle(x, y), abs=1e-12)


def test_pearson_p_matches_scipy():
    rng = np.random.default_rng(1)
    for x, y in random_pairs(30, rng, with_ties=False):
        r, p = pearson(x, y)
        ref = scipy.stats.pearsonr(x, y)
        assert r == pytest.approx(ref.statistic, abs=1e-12)
        assert p == pytest.approx(ref.pvalue, abs=1e-10)


@pytest.mark.parametrize("n", [3, 4, 5, 30, 532, 5000])
def test_t_test_p_is_stdtr_bit_for_bit(n):
    near_one = math.nextafter(1.0, 0.0)
    for r in [-1.0, -near_one, -0.999999, -0.5, -1e-12, 0.0, 0.3, 0.9, 0.999999, near_one, 1.0]:
        if abs(r) == 1.0:
            want = 0.0
        else:
            t = abs(r) * math.sqrt((n - 2) / (1.0 - r * r))
            want = 2.0 * float(scipy.special.stdtr(n - 2, -t))
        assert stats_mod._t_test_p(r, n) == want, (r, n)


def test_pearson_rejects_constant_input():
    with pytest.raises(ValueError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_pearson_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        pearson([1, 2, 3], [1, 2])


def test_pearson_rejects_tiny_samples():
    with pytest.raises(ValueError):
        pearson([1, 2], [3, 4])


# ---------------------------------------------------------------- spearman


def test_spearman_monotone_is_one():
    x = [1.0, 2.0, 7.0, 9.0]
    rho, _ = spearman(x, [math.exp(v) for v in x])
    assert rho == pytest.approx(1.0)
    rho_dec, _ = spearman(x, [-v**3 for v in x])
    assert rho_dec == pytest.approx(-1.0)


def test_spearman_tie_pair_matches_rank_oracle():
    x = [1.0, 2.0, 2.0, 5.0, 7.0]
    y = [3.0, 1.0, 4.0, 4.0, 9.0]
    rho, _ = spearman(x, y)
    expected = pearson_oracle(ranks_oracle(x), ranks_oracle(y))
    assert rho == pytest.approx(expected, abs=1e-12)


def test_spearman_equals_pearson_of_midranks():
    rng = np.random.default_rng(2)
    for x, y in random_pairs(30, rng):
        rho, p_rho = spearman(x, y)
        r, p_r = pearson(midranks(x), midranks(y))
        assert rho == r
        assert p_rho == p_r


def test_spearman_matches_scipy():
    rng = np.random.default_rng(3)
    for x, y in random_pairs(30, rng):
        rho, p = spearman(x, y)
        ref = scipy.stats.spearmanr(x, y)
        assert rho == pytest.approx(ref.statistic, abs=1e-12)
        assert p == pytest.approx(ref.pvalue, abs=1e-10)


def test_midranks_average_on_ties():
    assert midranks([10.0, 20.0, 20.0, 30.0]).tolist() == [1.0, 2.5, 2.5, 4.0]


def test_midranks_edge_cases():
    assert midranks([]).tolist() == []
    assert midranks([5.0]).tolist() == [1.0]
    # -0.0 ties 0.0; each NaN ranks alone, after every number
    got = midranks([math.nan, 0.0, math.nan, -0.0, -1.0])
    assert got.tolist() == [4.0, 2.5, 5.0, 2.5, 1.0]


# ------------------------------------------------------------- kendall tau


def test_kendall_identical_orderings():
    tau, _ = kendall_tau([1, 2, 3, 4], [10, 20, 30, 40])
    assert tau == 1.0


def test_kendall_reversed_orderings():
    tau, _ = kendall_tau([1, 2, 3, 4], [8, 6, 4, 2])
    assert tau == -1.0


def test_kendall_ties_match_pair_counting_oracle():
    x = [1.0, 2.0, 2.0, 3.0, 4.0, 4.0]
    y = [1.0, 3.0, 2.0, 2.0, 5.0, 5.0]
    tau, _ = kendall_tau(x, y)
    assert tau == pytest.approx(kendall_oracle(x, y), abs=1e-15)


def test_kendall_matches_scipy_tau_b():
    rng = np.random.default_rng(4)
    for x, y in random_pairs(30, rng):
        tau, p = kendall_tau(x, y)
        ref = scipy.stats.kendalltau(x, y, variant="b", method="asymptotic")
        assert tau == pytest.approx(ref.statistic, abs=1e-12)
        assert p == pytest.approx(ref.pvalue, abs=1e-10)


tie_heavy = st.integers(min_value=0, max_value=4).map(float)


@settings(max_examples=100, deadline=None)
@given(st.lists(tie_heavy | finite, min_size=3, max_size=300), st.data())
def test_kendall_merge_count_equals_pair_count(x, data):
    y = data.draw(st.lists(tie_heavy, min_size=len(x), max_size=len(x)))
    s, x_ties, y_ties = _kendall_s(np.array(x), np.array(y))
    assert s == kendall_s_oracle(x, y)
    for values, ties in ((x, x_ties), (y, y_ties)):
        counts = np.unique(values, return_counts=True)[1]
        assert ties.tolist() == counts[counts > 1].tolist()


def merge_levels_scatter(rank, plan):
    """The merge `_merge_levels` replaced, kept as its reference: each
    level places the right elements at their merged positions and fills
    the free slots with the left elements in order. A right element's
    merged position is k·w plus its offset in the right half plus
    `below`, and k·w + offset = right position - end."""
    order = np.arange(rank.size)
    free = np.empty(rank.size, dtype=bool)
    for key_offset, left_pos, right_pos, end in plan:
        keys = key_offset + rank[order]
        left = order[left_pos]
        right = order[right_pos]
        below = np.searchsorted(keys[left_pos], keys[right_pos], side="right")
        yield left, right, below, end
        dest = right_pos - end + below
        order = np.empty_like(order)
        order[dest] = right
        free.fill(True)
        free[dest] = False
        order[free] = left


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda k: st.lists(st.integers(0, k - 1), min_size=1, max_size=400)
))
def test_merge_levels_match_scatter_merge(values):
    """Same left, right, below and end at every level: the fast cross
    term's prefix sums add in this order, so its bits depend on it."""
    rank = np.unique(values, return_inverse=True)[1]
    plan = _merge_plan(rank.size)
    got = list(_merge_levels(rank, plan))
    want = list(merge_levels_scatter(rank, plan))
    assert len(got) == len(want) == len(plan)
    for level, expected in zip(got, want):
        for array, reference in zip(level, expected):
            assert array.dtype == reference.dtype
            assert array.tolist() == reference.tolist()


def test_kendall_memory_stays_linear():
    rng = np.random.default_rng(8)
    x = np.round(rng.uniform(0.2, 1.0, 3000), 3)
    y = np.round(rng.uniform(1.0, 5.0, 3000), 1)
    # pairwise sign matrices would hold 2 x 72 MB at this size
    assert peak_bytes(kendall_tau, x, y) < 5 * 2**20


def test_kendall_rejects_all_ties():
    with pytest.raises(ValueError):
        kendall_tau([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


# ----------------------------------------------------- distance correlation


def test_dcor_identity():
    x = [1.0, 4.0, 2.0, 8.0, 5.0]
    assert distance_correlation(x, x) == pytest.approx(1.0, abs=1e-12)


def test_dcor_constant_is_zero():
    assert distance_correlation([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) == 0.0


def test_dcor_matches_double_centering_oracle():
    x = [0.3, -1.2, 2.5, 0.0, 4.4]
    y = [1.1, 0.2, -0.7, 3.3, 2.0]
    assert distance_correlation(x, y) == pytest.approx(dcor_oracle(x, y), abs=1e-12)


def test_dcor_random_matches_oracle():
    rng = np.random.default_rng(5)
    for x, y in random_pairs(25, rng):
        assert distance_correlation(x, y) == pytest.approx(dcor_oracle(x, y), abs=1e-12)


def test_dcor_in_unit_interval():
    rng = np.random.default_rng(6)
    for x, y in random_pairs(25, rng):
        assert 0.0 <= distance_correlation(x, y) <= 1.0


def test_dcor_permutation_p_deterministic():
    rng = np.random.default_rng(7)
    x = list(rng.normal(size=12))
    y = list(rng.normal(size=12))
    first = distance_correlation_test(x, y, permutations=199, seed=42)
    second = distance_correlation_test(x, y, permutations=199, seed=42)
    assert first == second
    assert 0.0 < first[1] <= 1.0
    assert first[0] == distance_correlation(x, y)


def test_dcor_permutation_detects_strong_dependence():
    x = np.linspace(0, 1, 20)
    y = 2 * x + 0.01 * np.sin(40 * x)
    _, p = distance_correlation_test(x, y, permutations=499, seed=0)
    assert p < 0.02


def test_fast_cross_term_matches_oracle():
    rng = np.random.default_rng(9)
    for x, y in random_pairs(20, rng):
        if len(x) >= 6:
            x[4] = x[5]
            y[:3] = [round(v) for v in y[:3]]
        xa, ya = np.array(x), np.array(y)
        cross = _permuted_dcov(xa, ya, *stats_mod._dcor_terms(xa, ya)[1:3])
        for _ in range(3):
            perm = rng.permutation(len(x))
            dcov2, dvx, dvy = dcov_oracle(x, [y[i] for i in perm])
            if dvx == 0 or dvy == 0:
                continue
            assert abs(cross(perm)[0] - dcov2) <= 1e-12 * math.sqrt(dvx * dvy)


@pytest.mark.parametrize("n", [30, 120, 400])
def test_dcor_test_matches_dense_loop_near_independent(n):
    rng = np.random.default_rng(n)
    x = np.round(rng.uniform(0.2, 1.0, n), 2)
    y = np.round(np.clip(3.4 + 0.05 * x + rng.normal(0, 0.8, n), 1, 5), 1)
    got = distance_correlation_test(x, y, permutations=200, seed=n)
    assert got == dcor_test_dense(x, y, permutations=200, seed=n)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dcor_test_counts_exact_ties(seed):
    """Every draw ties the observed statistic in exact arithmetic, and the
    lowest lies 1.1e-16 below it in floating point: all 30 are hits."""
    x = [0, 0, 0, 1, 0, 0]
    y = [2, 1, 1, 1, 0, 2]
    assert distance_correlation_test(x, y, permutations=30, seed=seed)[1] == 1.0


@pytest.mark.parametrize("permutations", [-1, -3])
def test_dcor_test_rejects_negative_permutations(permutations):
    with pytest.raises(ValueError, match="permutations must be >= 0"):
        distance_correlation_test([0.1, 0.5, 0.3, 0.9], [1.0, 2.0, 3.0, 5.0], permutations)


def test_dcor_test_matches_dense_loop_on_tiny_inputs(monkeypatch):
    """At n = 3 to 6 many draws reproduce the observed matrix exactly, so
    the fast ratio lands inside the margin and the blocked kernel decides
    on the permuted pairing."""
    rng = np.random.default_rng(10)
    real_products = stats_mod._centered_products
    kernel_calls = []

    def counting_products(*args):
        kernel_calls.append(1)
        return real_products(*args)

    monkeypatch.setattr(stats_mod, "_centered_products", counting_products)
    tests = 0
    for n in range(3, 7):
        for seed in range(10):
            x = rng.integers(0, 3, n).astype(float)
            y = rng.integers(0, 3, n).astype(float)
            got = distance_correlation_test(x, y, permutations=30, seed=seed)
            tests += 1
            assert got == dcor_test_dense(x, y, permutations=30, seed=seed)
    # one call per test is the observed statistic; the rest are draws
    assert len(kernel_calls) > tests


@settings(max_examples=60, deadline=None)
@given(st.lists(tie_heavy, min_size=3, max_size=8), st.data(), st.integers(0, 2**32 - 1))
def test_dcor_test_p_value_bit_equal_to_dense_loop(x, data, seed):
    y = data.draw(st.lists(tie_heavy | finite, min_size=len(x), max_size=len(x)))
    got = distance_correlation_test(x, y, permutations=25, seed=seed)
    assert got == dcor_test_dense(x, y, permutations=25, seed=seed)


def test_dcor_permutation_draws_add_no_matrix():
    rng = np.random.default_rng(11)
    x = rng.normal(size=1000)
    y = x + rng.normal(size=1000)
    single = peak_bytes(distance_correlation, x, y)
    # each dense draw would add two 8 MB matrices
    assert peak_bytes(distance_correlation_test, x, y, permutations=20) <= single + 5 * 2**20


def test_dcor_memory_stays_linear():
    """No n x n array: at n = 4,097 three dense matrices took 384 MB."""
    rng = np.random.default_rng(12)
    x = np.round(rng.uniform(0.2, 1.0, 4097), 3)
    y = np.round(rng.uniform(1.0, 5.0, 4097), 2)
    assert peak_bytes(distance_correlation, x, y) < 64 * 2**20


def test_dcor_kernel_holds_leaves_not_row_blocks():
    """Each walk builds only the rows under one leaf at a time: the products
    hold two leaf buffers of at most leaf + 2n cells, and the centering
    one more and its n-cell sums, where two 2¹⁹-cell blocks took 8 MB."""
    rng = np.random.default_rng(14)
    n = 2000
    xa, ya = stats_mod._validated_pair(rng.normal(size=n), rng.lognormal(size=n))
    blocks = stats_mod._row_blocks(n)
    assert len(blocks) > 4
    bound = (3 * stats_mod._DCOR_LEAF_CELLS + 2 * n) * 8
    assert peak_bytes(stats_mod._distance_centering, xa, blocks) < bound
    x_center = stats_mod._distance_centering(xa, blocks)
    y_center = stats_mod._distance_centering(ya, blocks)
    peak = peak_bytes(stats_mod._centered_products, xa, x_center, ya, y_center, blocks)
    assert peak < bound, peak / bound


@pytest.mark.parametrize("cells", [1, 8])
def test_dcor_row_blocks_match_oracles(monkeypatch, cells):
    """Several row blocks at small n. A draw equal to the observed value in
    exact arithmetic is left to rounding, which blocks change, so the
    inputs are continuous; tie-heavy n = 3 to 8 is covered in one block."""
    monkeypatch.setattr(stats_mod, "_DCOR_BLOCK_CELLS", cells)
    rng = np.random.default_rng(13)
    for x, y in random_pairs(30, rng):
        assert len(stats_mod._row_blocks(len(x))) > 1
        assert abs(distance_correlation(x, y) - dcor_oracle(x, y)) <= 1e-15
        got = distance_correlation_test(x, y, permutations=40, seed=len(x))
        assert got[1] == dcor_test_dense(x, y, permutations=40, seed=len(x))[1]


# The blocked kernel as it was before leaves: each row block built whole
# and summed by one np.sum. The leaf kernel must keep its bits.


def _reference_distance_block(values, rows, out, centering=None):
    head = values[rows]
    d = np.subtract.outer(head, values, out=out[: head.size])
    np.abs(d, out=d)
    if centering is not None:
        col, row, grand = centering
        d -= col
        d -= row[rows, None]
        d += grand
    return d


def reference_distance_centering(values, blocks):
    n = values.size
    col = np.zeros(n)
    row = np.empty(n)
    total = 0.0
    buf = np.empty((blocks[0].stop, n))
    for rows in blocks:
        d = _reference_distance_block(values, rows, buf)
        col += d.sum(axis=0)
        row[rows] = d.mean(axis=1)
        total += float(d.sum())
    return col / n, row, total / n**2


def reference_centered_products(xa, x_center, ya, y_center, blocks):
    ab = aa = bb = 0.0
    buf_a, buf_b = np.empty((blocks[0].stop, xa.size)), np.empty((blocks[0].stop, xa.size))
    for rows in blocks:
        a = _reference_distance_block(xa, rows, buf_a, x_center)
        aa += float(np.sum(np.multiply(a, a, out=buf_b[: a.shape[0]])))
        b = _reference_distance_block(ya, rows, buf_b, y_center)
        ab += float(np.sum(np.multiply(a, b, out=a)))
        bb += float(np.sum(np.multiply(b, b, out=b)))
    n2 = xa.size ** 2
    return ab / n2, aa / n2, bb / n2


def _mixed_magnitudes(rng, size):
    return rng.lognormal(0, 6, size) * rng.choice([-1.0, 1.0], size) + 1e7 * rng.integers(0, 3, size)


@pytest.mark.parametrize("leaf", [None, 1, 200])
@pytest.mark.parametrize(
    "size",
    [(1 << 15) - 1, 1 << 15, (1 << 15) + 1, (1 << 16) - 8, (1 << 16) + 8, 3 * (1 << 15) + 5,
     99_999, (1 << 19) + 7],
)
def test_leaf_tree_sum_equals_np_sum(monkeypatch, leaf, size):
    """numpy's pairwise tree, rebuilt from leaves of the module size or of a
    tiny one, below numpy's own 128-cell base case."""
    if leaf is not None:
        monkeypatch.setattr(stats_mod, "_DCOR_LEAF_CELLS", leaf)
    a = _mixed_magnitudes(np.random.default_rng(size), size)
    leaves = []

    def leaf_sum(start, stop):
        assert stop - start <= max(stats_mod._DCOR_LEAF_CELLS, 128)
        leaves.append((start, stop))
        return np.sum(a[start:stop])

    assert stats_mod._pairwise(0, size, leaf_sum) == np.sum(a)
    assert [start for start, _ in leaves] == [0] + [stop for _, stop in leaves[:-1]]


@pytest.mark.parametrize("shape", [(127, 4097), (532, 532), (723, 725), (5, 7)])
def test_numpy_sums_a_block_as_the_kernel_assumes(shape):
    """A block's np.sum is the pairwise tree over its flat cells, its
    sum(axis=0) adds rows in order from zero, and its mean(axis=1) is each
    row's mean: the orders the leaf kernel rebuilds."""
    d = np.abs(_mixed_magnitudes(np.random.default_rng(shape[1]), shape[0] * shape[1]))
    d = d.reshape(shape)
    flat = d.reshape(-1)
    assert stats_mod._pairwise(0, flat.size, lambda start, stop: np.sum(flat[start:stop])) == d.sum()
    columns = np.zeros(shape[1])
    for row in d:
        columns += row
    assert np.array_equal(d.sum(axis=0), columns)
    assert np.array_equal(d.mean(axis=1), [row.mean() for row in d])


def _kernel_input(kind, n, rng):
    if kind == "ties":
        return rng.integers(0, 4, n).astype(float), np.round(rng.uniform(1, 5, n))
    if kind == "offset":
        return 3e7 + rng.normal(size=n), rng.integers(1, 6, n).astype(float)
    return np.round(rng.lognormal(0, 1.5, n), 2), rng.lognormal(0, 3, n)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(3, 1500),
    kind=st.sampled_from(["ties", "offset", "lognormal"]),
    seed=st.integers(0, 2**32 - 1),
    share=st.floats(0.0, 1.0),
)
@example(n=724, kind="ties", seed=0, share=0.0)
@example(n=725, kind="offset", seed=1, share=0.5)
@example(n=1500, kind="lognormal", seed=2, share=1.0)
@pytest.mark.parametrize("split", ["module sizes", "small blocks", "tiny leaves"])
def test_leaf_kernel_keeps_the_bits_of_whole_row_blocks(split, n, kind, seed, share):
    """Centering and products equal the whole-block kernel's bit for bit,
    at the module sizes, with three or more blocks at any n, and with
    leaves of 1 to 3n + 1 cells, so that most leaves hold partial rows at
    both ends."""
    x, y = _kernel_input(kind, n, np.random.default_rng(seed))
    sizes = {
        "module sizes": {},
        "small blocks": {"_DCOR_BLOCK_CELLS": 1 + int(share * n * n / 3)},
        "tiny leaves": {"_DCOR_LEAF_CELLS": 1 + int(share * 3 * n)},
    }[split]
    with pytest.MonkeyPatch.context() as patch:
        for name, value in sizes.items():
            patch.setattr(stats_mod, name, value)
        blocks = stats_mod._row_blocks(n)
        centers = [stats_mod._distance_centering(v, blocks) for v in (x, y)]
        products = stats_mod._centered_products(x, centers[0], y, centers[1], blocks)
    want = [reference_distance_centering(v, blocks) for v in (x, y)]
    for got, ref in zip(centers, want):
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
        assert got[2] == ref[2]
    assert products == reference_centered_products(x, want[0], y, want[1], blocks)


def peak_bytes(fn, *args, **kwargs):
    """Peak Python-tracked allocation, numpy buffers included, of one call."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "statistic",
    [pearson, spearman, kendall_tau, distance_correlation, distance_correlation_test],
    ids=lambda f: f.__name__,
)
def test_statistics_reject_non_finite_input(statistic, bad):
    with pytest.raises(ValueError, match="finite"):
        statistic([0.1, bad, 0.4, 0.2], [1.0, 2.0, 3.0, 5.0])
    with pytest.raises(ValueError, match="finite"):
        statistic([1.0, 2.0, 3.0, 5.0], [0.1, 0.3, bad, 0.2])


# ------------------------------------------------------- shared properties


@settings(max_examples=60)
@given(st.lists(finite, min_size=3, max_size=25), st.data())
def test_symmetry_of_all_statistics(x, data):
    y = data.draw(st.lists(finite, min_size=len(x), max_size=len(x)))
    if len(set(x)) < 2 or len(set(y)) < 2:
        return
    assert pearson(x, y)[0] == pytest.approx(pearson(y, x)[0], abs=1e-12)
    assert spearman(x, y)[0] == pytest.approx(spearman(y, x)[0], abs=1e-12)
    assert kendall_tau(x, y)[0] == pytest.approx(kendall_tau(y, x)[0], abs=1e-12)
    assert distance_correlation(x, y) == pytest.approx(
        distance_correlation(y, x), abs=1e-12
    )


@settings(max_examples=60)
@given(
    st.lists(finite, min_size=3, max_size=25),
    st.data(),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=-50.0, max_value=50.0),
)
def test_positive_affine_invariance(x, data, scale, shift):
    y = data.draw(st.lists(finite, min_size=len(x), max_size=len(x)))
    if len(set(x)) < 2 or len(set(y)) < 2:
        return
    xt = [scale * v + shift for v in x]
    assert pearson(xt, y)[0] == pytest.approx(pearson(x, y)[0], abs=1e-9)
    assert spearman(xt, y)[0] == pytest.approx(spearman(x, y)[0], abs=1e-9)
    assert kendall_tau(xt, y)[0] == pytest.approx(kendall_tau(x, y)[0], abs=1e-9)
    assert distance_correlation(xt, y) == pytest.approx(
        distance_correlation(x, y), abs=1e-9
    )


def all_statistics(x, y):
    return (
        *pearson(x, y), *spearman(x, y), *kendall_tau(x, y),
        *distance_correlation_test(x, y, permutations=19, seed=3),
    )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-50, 50), min_size=3, max_size=40),
    st.data(),
    st.floats(min_value=-300.0, max_value=300.0),
    st.floats(min_value=-300.0, max_value=300.0),
)
def test_statistics_independent_of_input_scale(x, data, log10_a, log10_b):
    """Scaling x by a and y by b, each any positive factor in [1e-300,
    1e300], leaves every statistic and p-value within 1e-12 of its
    unit-scale value: peaks outside [2^-200, 2^200] are rescaled by a power
    of two before squares and cross products can overflow or underflow."""
    y = data.draw(st.lists(st.integers(-50, 50), min_size=len(x), max_size=len(x)))
    assume(len(set(x)) > 1 and len(set(y)) > 1)
    # near |r| = 1 the t-test p-value amplifies the rounding of the scaling
    assume(abs(pearson(x, y)[0]) < 0.99)
    a, b = 10.0**log10_a, 10.0**log10_b
    got = all_statistics([a * v for v in x], [b * v for v in y])
    assert got == pytest.approx(all_statistics(x, y), rel=0, abs=1e-12)


@pytest.mark.parametrize(
    "a,b", [(1e200, 1), (1e-200, 1), (1, 1e200), (1, 1e-200), (1e100, 1e100), (1e-100, 1e-100)]
)
def test_statistics_at_extreme_scale_match_unit_scale(a, b):
    rng = np.random.default_rng(5)
    h = rng.uniform(0.3, 0.9, 40)
    rating = np.round(3.0 + h + rng.normal(0, 0.4, 40), 2)
    got = all_statistics(h * a, rating * b)
    assert got == pytest.approx(all_statistics(h, rating), rel=0, abs=1e-12)
